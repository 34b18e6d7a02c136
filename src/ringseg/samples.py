"""Training-sample preparation: canonical frames, augmentation, resampling.

A proposal becomes a sample by moving its points into a local frame whose
origin is one of the four bottom vertices of its box, axes signed so the
box sits in the first octant. Eight planar isometries (four rotations,
four roto-reflections about the box center) generate the augmentation
variants; every variant is a point set the sensor could genuinely have
produced. Samples are resampled to a fixed row count and serialized to a
flat binary archive that round-trips bit-exactly. `SamplePrepParams`, the
preparation parameters, is declared in `config` and resolves here too.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .cloud import ClassId, PointCloud
from .config import SamplePrepParams  # noqa: F401
from .errors import FileFormatError
from .refine import OrientedBBox, Proposal

ARCHIVE_MAGIC = b"PS3D"
ARCHIVE_VERSION = 1

# rng stream ids per (frame, cluster): 0..7 for the variants, 8 for the
# background keep/drop decision
BG_KEEP_STREAM = 8

# Linear parts of the eight planar isometries about the box center:
# rotations by k*90 degrees (k = 0..3) and each composed with a mirror
# across the local x axis. Exact integer entries keep group closure exact.
_ROT = [
    np.array([[1.0, 0.0], [0.0, 1.0]]),
    np.array([[0.0, -1.0], [1.0, 0.0]]),
    np.array([[-1.0, 0.0], [0.0, -1.0]]),
    np.array([[0.0, 1.0], [-1.0, 0.0]]),
]
_MIRROR = np.array([[1.0, 0.0], [0.0, -1.0]])
DIHEDRAL_LINEAR = np.stack(_ROT + [_MIRROR @ r for r in _ROT])
# per variant, 1 where its odd quarter-turn swaps the box extents
_SWAPS = (0, 1, 0, 1, 0, 1, 0, 1)


@dataclass(frozen=True)
class Sample:
    """A proposal's points in its local (first-octant) frame."""

    local_points: np.ndarray
    intensities: np.ndarray
    class_label: int
    frame_id: int
    cluster_id: int
    variant_id: int
    origin_vertex: int
    bbox_local: OrientedBBox
    num_original: int

    def __post_init__(self):
        pts = np.ascontiguousarray(self.local_points, dtype=np.float64)
        inten = np.ascontiguousarray(self.intensities, dtype=np.float64)
        pts.setflags(write=False)
        inten.setflags(write=False)
        object.__setattr__(self, "local_points", pts)
        object.__setattr__(self, "intensities", inten)


@dataclass(frozen=True)
class FeatureMatrix:
    """Fixed-size per-point feature rows (x, y, z, intensity, n)."""

    rows: np.ndarray
    n_points: int
    num_original: int


def sample_rng(seed: int, frame_id: int, cluster_id: int, stream: int) -> np.random.Generator:
    """Deterministic rng split per (frame, cluster, stream).

    Parallel workers draw from independent streams, so output bytes do not
    depend on scheduling.
    """
    return np.random.default_rng([seed, frame_id, cluster_id, stream])


def canonical_transform(
    proposal: Proposal,
    cloud: PointCloud,
    rng: np.random.Generator,
    frame_id: int = 0,
) -> Sample:
    """Move a proposal into its local frame at a random bottom box vertex.

    The origin is one of the four bottom vertices, chosen uniformly; the
    axes are the box axes signed so the interior lies in the first octant.
    The transform is rigid, so pairwise distances are preserved. The class
    label is the majority ground-truth label over members when the cloud
    carries labels, background otherwise.
    """
    bbox = proposal.bbox
    vertex = int(rng.integers(4))
    axes = bbox.axes()
    hx, hy, hz = bbox.half_extents
    signs = [(-1, -1), (1, -1), (1, 1), (-1, 1)][vertex]
    origin = bbox.center + axes @ np.array([signs[0] * hx, signs[1] * hy, -hz])
    local_x = -signs[0] * axes[:, 0]
    local_y = -signs[1] * axes[:, 1]
    frame = np.column_stack([local_x, local_y, axes[:, 2]])

    members = proposal.member_indices
    local = (cloud.xyz[members] - origin) @ frame
    if cloud.labels is not None:
        label = int(np.bincount(cloud.labels[members], minlength=4).argmax())
    else:
        label = int(ClassId.BACKGROUND)
    bbox_local = OrientedBBox(
        center=np.array([hx, hy, hz]),
        yaw=0.0,
        half_extents=np.array([hx, hy, hz]),
        normal=np.array([0.0, 0.0, 1.0]),
    )
    return Sample(
        local_points=local,
        intensities=cloud.intensity[members],
        class_label=label,
        frame_id=frame_id,
        cluster_id=proposal.cluster_id,
        variant_id=0,
        origin_vertex=vertex,
        bbox_local=bbox_local,
        num_original=members.size,
    )


def augment_eightfold(sample: Sample) -> list[Sample]:
    """All eight planar isometry variants of a canonical sample.

    Variant 0 is the input itself; variants with an odd quarter-turn swap
    the box extents. Every variant is re-translated into the first octant
    and keeps the class label.
    """
    hx, hy, hz = sample.bbox_local.half_extents
    extents = np.array([[hx, hy, hz], [hy, hx, hz]])  # unswapped, swapped
    boxes = [OrientedBBox(center=e, yaw=0.0, half_extents=e,
                          normal=np.array([0.0, 0.0, 1.0])) for e in extents]
    # the seven other variants in one product: (p - c) @ m.T + c' per
    # matrix m, where c' is the variant's box center. Entries of m are 0
    # and +-1 and c' is positive, so every coordinate is exact
    src = sample.local_points
    xy = (src[:, :2] - [hx, hy]) @ DIHEDRAL_LINEAR[1:].transpose(0, 2, 1)
    xy += extents[list(_SWAPS[1:]), None, :2]  # contiguous: faster than into pts
    pts = np.empty((7, *src.shape))
    pts[:, :, :2] = xy
    pts[:, :, 2] = src[:, 2]
    return [replace(sample, variant_id=0)] + [
        replace(sample, local_points=p, variant_id=k, bbox_local=boxes[_SWAPS[k]])
        for k, p in enumerate(pts, 1)]


def resample_points(sample: Sample, n_points: int, rng: np.random.Generator) -> Sample:
    """Fix the sample to exactly n_points rows, recording the original count.

    More points than needed: a uniform draw of distinct indices. Fewer:
    every original point is kept once and the remainder is drawn uniformly
    with replacement. Equal: identity.
    """
    num = sample.local_points.shape[0]
    if num == 0:
        raise ValueError("cannot resample an empty sample")
    if num > n_points:
        idx = rng.choice(num, size=n_points, replace=False)
    elif num < n_points:
        extra = rng.integers(0, num, size=n_points - num)
        idx = np.concatenate([np.arange(num), extra])
    else:
        idx = np.arange(num)
    return replace(
        sample,
        local_points=sample.local_points[idx],
        intensities=sample.intensities[idx],
        num_original=num,
    )


def build_feature_matrix(sample: Sample) -> FeatureMatrix:
    """Assemble (x, y, z, intensity, n) rows in resampled order.

    n = (NUM - N) / N compensates for the information lost (or duplicated)
    by forcing NUM original points into N rows; it is constant per sample.
    """
    n_points = sample.local_points.shape[0]
    rel = (sample.num_original - n_points) / n_points
    rows = np.empty((n_points, 5), dtype=np.float32)
    rows[:, :3] = sample.local_points
    rows[:, 3] = sample.intensities
    rows[:, 4] = rel
    return FeatureMatrix(rows=rows, n_points=n_points, num_original=sample.num_original)


@dataclass(frozen=True)
class ArchiveRecord:
    class_label: int
    variant_id: int
    frame_id: int
    cluster_id: int
    num_original: int
    features: np.ndarray


_HEADER = struct.Struct("<4sIIQ")
# a sample's head in the archive, in file order: `<BBIII`
_HEAD = (("class_label", "u1"), ("variant_id", "u1"), ("frame_id", "<u4"),
         ("cluster_id", "<u4"), ("num_original", "<u4"))


def record_dtype(n_points: int) -> np.dtype:
    """One archive sample as it lies on disk: its head, then n_points x 5
    `<f4` feature rows (`build_feature_matrix`), unpadded."""
    return np.dtype([*_HEAD, ("features", "<f4", (n_points, 5))])


def pack_samples(samples, n_points: int | None = None) -> np.ndarray:
    """Resampled samples as archive records (`record_dtype`), in order.

    n_points defaults to the first sample's row count; a sample with any
    other count raises ValueError.
    """
    samples = list(samples)
    if n_points is None:
        n_points = samples[0].local_points.shape[0] if samples else 0
    records = np.empty(len(samples), dtype=record_dtype(n_points))
    features = records["features"]
    for i, s in enumerate(samples):
        if s.local_points.shape[0] != n_points:
            raise ValueError(f"sample has {s.local_points.shape[0]} rows, archive N={n_points}")
        features[i] = build_feature_matrix(s).rows
    for name, _ in _HEAD:
        records[name] = [getattr(s, name) for s in samples]
    return records


def export_samples(samples, path, n_points: int | None = None) -> None:
    """Write resampled samples to a flat binary archive (little-endian).

    `samples` are `Sample`s or their records from `pack_samples`. Layout:
    magic, version, N, count; then per sample class, variant id, frame id,
    cluster id, original point count, and N x 5 float32 feature rows
    (`record_dtype(N)`). Reload is bit-exact.
    """
    records = samples if isinstance(samples, np.ndarray) else pack_samples(samples, n_points)
    n = records.dtype["features"].shape[0]
    if n_points is not None and n != n_points:
        raise ValueError(f"records have {n} rows, archive N={n_points}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(ARCHIVE_MAGIC, ARCHIVE_VERSION, n, len(records)))
        fh.write(np.ascontiguousarray(records).data)


def load_samples(path) -> tuple[int, list[ArchiveRecord]]:
    """Read a sample archive; returns (N, records)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise FileFormatError(f"{path}: truncated header")
    magic, version, n_points, count = _HEADER.unpack_from(data, 0)
    if magic != ARCHIVE_MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r}")
    if version != ARCHIVE_VERSION:
        raise FileFormatError(f"{path}: unsupported version {version}")
    try:
        dtype = record_dtype(n_points)
    except ValueError:  # a record larger than numpy allows
        raise FileFormatError(f"{path}: N={n_points} rows per sample is too large") from None
    body = len(data) - _HEADER.size
    if body < count * dtype.itemsize:
        raise FileFormatError(f"{path}: truncated at sample {body // dtype.itemsize}")
    if body > count * dtype.itemsize:
        raise FileFormatError(f"{path}: {body - count * dtype.itemsize} trailing bytes")
    records = np.frombuffer(data, dtype=dtype, count=count, offset=_HEADER.size)
    heads = zip(*(records[name].tolist() for name, _ in _HEAD))
    return n_points, [ArchiveRecord(*head, features)
                      for head, features in zip(heads, records["features"].copy())]
