"""Point-cloud data model, cluster grouping, file I/O, ring-index assignment.

A cloud is stored columnar (coordinate matrix plus parallel attribute
arrays) because the pipeline streams over single attributes: heights for
ground seeding, azimuth for ring tracing. Scan order is preserved from the
source file and is load-bearing for ring assignment and clustering.
"""

from __future__ import annotations

import logging
import os
from dataclasses import InitVar, dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from .errors import AlignmentError, FileFormatError, InvalidClassError, ScanFormatError

log = logging.getLogger(__name__)

POINT_RECORD_BYTES = 16  # 4 x little-endian float32: x, y, z, intensity


class ClassId(IntEnum):
    BACKGROUND = 0
    CAR = 1
    PEDESTRIAN = 2
    CYCLIST = 3


CLASS_NAMES = {
    ClassId.BACKGROUND: "background",
    ClassId.CAR: "car",
    ClassId.PEDESTRIAN: "pedestrian",
    ClassId.CYCLIST: "cyclist",
}
FOREGROUND_CLASSES = (ClassId.CAR, ClassId.PEDESTRIAN, ClassId.CYCLIST)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PointCloud:
    """Immutable columnar point cloud in scan order.

    xyz: (n, 3) float64 coordinates in meters, stored column-major so
        that xyz[:, k] is contiguous and xyz.T is a C-contiguous (3, n).
    intensity: (n,) float64 in [0, 1].
    ring_ids: optional (n,) int32, non-decreasing in scan order.
    labels: optional (n,) uint8 class ids.
    """

    xyz: np.ndarray
    intensity: np.ndarray
    ring_ids: np.ndarray | None = None
    labels: np.ndarray | None = None
    # content scans (finite xyz, intensity range, class ids) are skipped
    # for derived clouds whose values are inherited or were checked when
    # read (subsets, attribute attachment); shape checks always run
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        xyz = _readonly(np.asfortranarray(self.xyz, dtype=np.float64))
        inten = _readonly(np.ascontiguousarray(self.intensity, dtype=np.float64))
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "intensity", inten)
        if xyz.ndim != 2 or xyz.shape[1] != 3:
            raise ValueError(f"xyz must be (n, 3), got {xyz.shape}")
        n = xyz.shape[0]
        if inten.shape != (n,):
            raise AlignmentError(f"intensity length {inten.shape[0]} != cloud length {n}")
        if validate:
            if not np.all(np.isfinite(xyz)):
                raise ValueError("non-finite coordinates are not admitted past ingestion")
            if n and (inten.min() < 0.0 or inten.max() > 1.0):
                raise ValueError("intensity must lie in [0, 1]")
        if self.ring_ids is not None:
            rings = _readonly(np.ascontiguousarray(self.ring_ids, dtype=np.int32))
            object.__setattr__(self, "ring_ids", rings)
            if rings.shape != (n,):
                raise AlignmentError(f"ring_ids length {rings.shape[0]} != cloud length {n}")
        if self.labels is not None:
            labels = _readonly(np.ascontiguousarray(self.labels, dtype=np.uint8))
            object.__setattr__(self, "labels", labels)
            if labels.shape != (n,):
                raise AlignmentError(f"labels length {labels.shape[0]} != cloud length {n}")
            if validate and n and labels.max() > max(ClassId):
                raise InvalidClassError(f"label value {labels.max()} > {max(ClassId)}")

    def __len__(self) -> int:
        return self.xyz.shape[0]

    def with_ring_ids(self, ring_ids: np.ndarray) -> "PointCloud":
        return PointCloud(self.xyz, self.intensity, ring_ids=ring_ids,
                          labels=self.labels, validate=False)

    def with_labels(self, labels: np.ndarray) -> "PointCloud":
        return PointCloud(self.xyz, self.intensity, ring_ids=self.ring_ids,
                          labels=labels, validate=False)

    def select(self, index: np.ndarray) -> "PointCloud":
        """Subset by index array or boolean mask, preserving scan order."""
        index = np.asarray(index)
        rows = np.flatnonzero(index) if index.dtype == bool else index
        return PointCloud(
            # one gather per coordinate through the C-ordered (3, n) view;
            # its transpose is column-major already, so nothing copies again
            xyz=np.take(self.xyz.T, rows, axis=1).T,
            intensity=self.intensity[index],
            ring_ids=None if self.ring_ids is None else self.ring_ids[index],
            labels=None if self.labels is None else self.labels[index],
            validate=False,
        )


@dataclass(frozen=True)
class ClusterLabeling:
    """Per-point cluster ids and their members, in CSR form.

    ids holds the distinct labels ascending; the members of ids[j] are
    order[offsets[j]:offsets[j + 1]], ascending, and partition the input.
    """

    labels: np.ndarray
    ids: np.ndarray
    order: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_labels(cls, labels: np.ndarray) -> ClusterLabeling:
        """Group the points by label value."""
        # a stable sort keeps each group's members ascending
        order = np.argsort(labels, kind="stable")
        ordered = labels[order]
        first = np.ones(labels.size, dtype=bool)
        first[1:] = ordered[1:] != ordered[:-1]
        starts = np.flatnonzero(first)
        return cls(labels=labels, ids=ordered[starts], order=order,
                   offsets=np.append(starts, labels.size))

    # read by the tests and by perfbench's `clusters` and `candidates`
    # counters; the pipeline and `prepare` slice `order` by `offsets` instead
    @cached_property
    def clusters(self) -> dict[int, np.ndarray]:
        """Each id's members, keyed in ascending id order."""
        return dict(zip(self.ids.tolist(), np.split(self.order, self.offsets[1:-1])))


def point_records(path, size: int) -> int:
    """The record count of a point-cloud file of `size` bytes."""
    if size % POINT_RECORD_BYTES != 0:
        raise FileFormatError(f"{path}: size {size} is not a multiple of {POINT_RECORD_BYTES}")
    return size // POINT_RECORD_BYTES


def load_point_cloud(path) -> tuple[PointCloud, np.ndarray | None]:
    """Read a binary point-cloud file (packed x, y, z, intensity float32 LE).

    Returns the cloud and the records it holds: None when it holds every
    record of the file, else a boolean mask over the file's records.
    Records containing non-finite values are dropped with a logged report of
    their indices; intensity is clamped into [0, 1].
    """
    raw = np.fromfile(path, dtype=np.uint8)
    point_records(path, raw.size)
    rec = raw.view("<f4").reshape(-1, 4)
    kept = None
    if not np.isfinite(rec).all():
        kept = np.isfinite(rec).all(axis=1)
        bad = np.flatnonzero(~kept)
        log.warning(
            "%s: dropped %d non-finite record(s), first indices %s",
            path, bad.size, bad[:8].tolist(),
        )
        rec = rec[kept]
    intensity = rec[:, 3].astype(np.float64)
    np.clip(intensity, 0.0, 1.0, out=intensity)
    # finite and clamped here, so the constructor's content scans are skipped
    return PointCloud(xyz=np.asfortranarray(rec[:, :3], dtype=np.float64),
                      intensity=intensity, validate=False), kept


def save_point_cloud(cloud: PointCloud, path) -> None:
    """Write the cloud in the same packed float32 record format."""
    rec = np.empty((len(cloud), 4), dtype="<f4")
    rec[:, :3] = cloud.xyz
    rec[:, 3] = cloud.intensity
    rec.tofile(path)


def load_point_values(path, dtype, records: int, kept: np.ndarray | None = None) -> np.ndarray:
    """The kept points' values from a file of one `dtype` value per `.bin` record."""
    itemsize = np.dtype(dtype).itemsize
    # checked in bytes: np.fromfile drops a trailing partial value
    size = os.path.getsize(path)
    if size != itemsize * records:
        raise AlignmentError(f"{path}: {size} bytes, not {itemsize} x {records} records")
    values = np.fromfile(path, dtype=dtype)
    return values if kept is None else values[kept]


def save_point_values(path, values: np.ndarray, dtype, kept: np.ndarray | None = None) -> None:
    """Write one `dtype` value per record, 0 for each record `kept` dropped."""
    full = np.asarray(values, dtype=dtype) if kept is None else np.zeros(kept.size, dtype=dtype)
    if kept is not None:
        full[kept] = values
    full.tofile(path)


def load_labels(path, records: int, kept: np.ndarray | None = None) -> np.ndarray:
    """Read per-point class labels (one unsigned byte per record)."""
    labels = load_point_values(path, np.uint8, records)
    if labels.size and labels.max() > max(ClassId):
        bad = int(np.flatnonzero(labels > max(ClassId))[0])
        raise InvalidClassError(f"{path}: class {labels[bad]} at index {bad}")
    return labels if kept is None else labels[kept]


def save_labels(labels: np.ndarray, path) -> None:
    save_point_values(path, labels, np.uint8)


def assign_rings(cloud: PointCloud, num_rings: int) -> PointCloud:
    """Assign a ring index to every point from where its revolution starts.

    A rotating scanner emits each ring as one counter-clockwise revolution,
    so in scan order the azimuth quadrants of (x, y) cycle 1 -> 2 -> 3 -> 4.
    A ring starts at an off-axis point in quadrant 1 whose previous off-axis
    point lies in quadrant 4; points with x == 0 or y == 0 never start one,
    so jitter on an axis cannot fake a boundary. Partial final revolutions
    are fine. More revolutions than `num_rings`, or more 1 -> 4 steps than
    4 -> 1 steps (a clockwise scan), is a scan-format error.
    """
    if num_rings < 1:
        raise ValueError("num_rings must be >= 1")
    n = len(cloud)
    x, y = cloud.xyz[:, 0], cloud.xyz[:, 1]
    east, north = x > 0, y > 0
    off_axis = (x != 0) & (y != 0)
    at = None if off_axis.all() else np.flatnonzero(off_axis)
    if at is not None:
        east, north = east[at], north[at]
    # steps between consecutive off-axis points east of the y axis that
    # cross the x axis: northward is 4 -> 1, southward is 1 -> 4
    crossing = east[1:] & east[:-1] & (north[1:] != north[:-1])
    starts = np.flatnonzero(crossing & north[1:]) + 1
    revolutions = starts.size + 1
    if revolutions > num_rings:
        raise ScanFormatError(
            f"detected {revolutions} revolutions but num_rings={num_rings}"
        )
    backward = np.count_nonzero(crossing) - starts.size
    if backward > starts.size:
        raise ScanFormatError(
            f"scan turns clockwise: {backward} quadrant 1 -> 4 steps against "
            f"{starts.size} 4 -> 1 steps; rings are traced counter-clockwise"
        )
    if at is not None:
        starts = at[starts]
    lengths = np.diff(starts, prepend=0, append=n)
    return cloud.with_ring_ids(np.repeat(np.arange(revolutions, dtype=np.int32), lengths))
