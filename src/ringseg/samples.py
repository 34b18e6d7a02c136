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

import functools
import operator
import os
import struct
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  at import: numpy 2 loads it on first use, in a worker

from .boxes import Proposal
from .cloud import ClassId, PointCloud
from .config import SamplePrepParams
from .errors import FileFormatError

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


@dataclass(frozen=True)
class Sample:
    """A proposal's points in its local (first-octant) frame, with the
    half extents of its box, whose bottom vertex `origin_vertex` is the
    origin."""

    local_points: np.ndarray
    intensities: np.ndarray
    class_label: int
    frame_id: int
    cluster_id: int
    origin_vertex: int
    half_extents: np.ndarray

    def __post_init__(self):
        for name in ("local_points", "intensities", "half_extents"):
            a = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def sample_rng(seed: int, frame_id: int, cluster_id: int, stream: int) -> np.random.Generator:
    """Deterministic rng split per (frame, cluster, stream).

    Parallel workers draw from independent streams, so output bytes do not
    depend on scheduling. The stream is `np.random.default_rng([seed,
    frame_id, cluster_id, stream])`'s, seeded from the uint32 words numpy
    would split that list into (each int little-endian, 0 as one word)
    without its per-int coercion. A negative component raises ValueError.
    """
    words = []
    for value in (seed, frame_id, cluster_id, stream):
        value = operator.index(value)
        if value < 0:
            raise ValueError(f"rng key components must be >= 0, got {value}")
        words.append(value & 0xFFFFFFFF)
        while value > 0xFFFFFFFF:
            value >>= 32
            words.append(value & 0xFFFFFFFF)
    seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.PCG64(seq))


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
    # one gather per coordinate through the C-ordered (3, n) view, as
    # `PointCloud.select` does; the difference is laid out C-ordered, as
    # a row gather's would be, so the product below runs the same kernel
    xyz = np.take(cloud.xyz.T, members, axis=1).T
    local = np.subtract(xyz, origin, order="C") @ frame
    if cloud.labels is not None:
        label = int(np.bincount(cloud.labels[members], minlength=4).argmax())
    else:
        label = int(ClassId.BACKGROUND)
    return Sample(
        local_points=local,
        intensities=cloud.intensity[members],
        class_label=label,
        frame_id=frame_id,
        cluster_id=proposal.cluster_id,
        origin_vertex=vertex,
        half_extents=bbox.half_extents,
    )


def write_variants(records: np.ndarray, sample: Sample, rngs) -> None:
    """Variants 0..k-1 of a canonical sample, resampled, as the k archive
    `records` (`record_dtype`); variant j draws its rows from rngs[j].

    Resampling fixes a variant to N rows. From more points than N it draws
    N distinct indices uniformly; from fewer it keeps every point once and
    draws the rest uniformly with replacement; from exactly N it keeps all
    of them, drawing nothing. The rows are drawn first and only they are
    moved. Variant 0 is the sample as it is. Variant j > 0 is turned by
    isometry j about the box center and re-translated into the first
    octant of its own box: (p - c) @ m.T + c' per matrix m, c' the
    variant's box center, with the product written out per coordinate.
    Entries of m are 0 and +-1 and c' is positive, so every coordinate is
    exact and equal to a matrix product's, and a row's image does not
    depend on the rows it is computed with. Each row is (x, y, z,
    intensity, n), where n = (NUM - N) / N compensates for the information
    lost (or duplicated) by forcing NUM original points into N rows.
    """
    count, n_points = records.shape[0], records.dtype["features"].shape[0]
    num = sample.local_points.shape[0]
    if num == 0:
        raise ValueError("cannot resample an empty sample")
    idx = np.empty((count, n_points), dtype=np.int64)
    for row, rng in zip(idx, rngs, strict=True):
        if num > n_points:
            row[:] = rng.choice(num, size=n_points, replace=False)
            continue
        row[:num] = np.arange(num)
        if num < n_points:
            row[num:] = rng.integers(0, num, size=n_points - num)
    x, y, z = np.take(sample.local_points.T, idx, axis=1)
    hx, hy, _ = sample.half_extents
    m = DIHEDRAL_LINEAR[1:count, :, :, None]
    # the odd variants turn by an odd quarter-turn, which swaps the box extents
    c = np.array([[hx, hy], [hy, hx]])[np.arange(1, count) % 2, :, None]
    dx, dy = x[1:] - hx, y[1:] - hy
    features = records["features"]
    for i, column in enumerate((x, y)):
        features[0, :, i] = column[0]
        features[1:, :, i] = m[:, i, 0] * dx + m[:, i, 1] * dy + c[:, i]
    features[..., 2] = z
    features[..., 3] = sample.intensities[idx]
    features[..., 4] = (num - n_points) / n_points
    records["variant_id"] = np.arange(count)
    for name in ("class_label", "frame_id", "cluster_id"):
        records[name] = getattr(sample, name)
    records["num_original"] = num


def frame_records(proposals, cloud: PointCloud, frame_id: int, seed: int,
                  prep: SamplePrepParams) -> np.ndarray:
    """A frame's kept samples as archive records (`record_dtype`), in proposal order.

    Stream k of `sample_rng(seed, frame_id, cluster id, k)` resamples variant k
    (stream 0 first picks the origin vertex): 8 variants of a foreground sample
    under `prep.augment`, else 1. A background sample is one variant, kept when
    stream `BG_KEEP_STREAM` draws below `prep.background_keep_prob`."""
    kept = []
    for prop in proposals:
        rng = functools.partial(sample_rng, seed, frame_id, prop.cluster_id)  # rng(stream)
        rngs = [rng(0)]
        sample = canonical_transform(prop, cloud, rngs[0], frame_id=frame_id)
        if sample.class_label != ClassId.BACKGROUND:
            rngs += map(rng, range(1, 8 if prep.augment else 1))
        elif rng(BG_KEEP_STREAM).random() >= prep.background_keep_prob:
            continue
        kept.append((sample, rngs))
    records = np.empty(sum(len(rngs) for _, rngs in kept), dtype=record_dtype(prep.n_points))
    row = 0
    for sample, rngs in kept:
        write_variants(records[row:row + len(rngs)], sample, rngs)
        row += len(rngs)
    return records


_HEADER = struct.Struct("<4sIIQ")
# a sample's head in the archive, in file order: `<BBIII`
_HEAD = (("class_label", "u1"), ("variant_id", "u1"), ("frame_id", "<u4"),
         ("cluster_id", "<u4"), ("num_original", "<u4"))


def record_dtype(n_points: int) -> np.dtype:
    """One archive sample as it lies on disk: its head, then n_points x 5
    `<f4` feature rows (`write_variants`), unpadded."""
    return np.dtype([*_HEAD, ("features", "<f4", (n_points, 5))])


def export_samples(records: np.ndarray, path) -> None:
    """Write archive records (`record_dtype(N)`, as `frame_records` makes
    them) to a flat binary archive (little-endian).

    Layout: magic, version, N, count; then the records as they lie in
    memory, per sample class, variant id, frame id, cluster id, original
    point count, and N x 5 float32 feature rows. N is the one the records'
    dtype carries. Reload is bit-exact.

    The archive appears whole or not at all: the bytes go to a temporary
    file beside `path`, which replaces `path` once they are all written
    and is deleted on any error. So an interrupted write leaves no partial
    archive, and a file already at `path` survives it.
    """
    n = records.dtype["features"].shape[0]
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, "xb")  # x: never truncate a file that is not this call's
    try:
        with fh:
            fh.write(_HEADER.pack(ARCHIVE_MAGIC, ARCHIVE_VERSION, n, len(records)))
            fh.write(np.ascontiguousarray(records).data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_samples(path) -> tuple[int, list[np.record]]:
    """Read a sample archive; returns (N, records).

    Each record is a read-only `numpy.record` view of `record_dtype(N)`
    into the file's bytes, its fields read by name (`r.class_label`,
    `r.features`, ...); nothing is copied.
    """
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
    return n_points, list(records.view(np.recarray))
