"""Ring-based clustering of the non-ground cloud.

Consecutive points within a ring form runs (closer than th_ring, with the
ring closed across the azimuth wraparound); each point also links to its
nearest neighbour on the previous ring when closer than th_prop. Ids are
the ones a single pass over the rings assigns, after conflicting labels
merge to the smallest id; `kernels.cluster_scan` computes them in bulk.

`ClusterParams` is declared in `config`; it resolves here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .cloud import PointCloud
from .config import ClusterParams  # noqa: F401


@dataclass(frozen=True)
class ClusterLabeling:
    """Canonical per-point cluster ids (>= 1) and their members, in CSR form.

    labels[i] is the minimal id of point i's merge class. ids holds the
    cluster ids ascending, and the members of ids[j] are
    order[offsets[j]:offsets[j + 1]], ascending; together they partition
    the input.
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
    # counters; the pipeline slices `order` by `offsets` instead
    @cached_property
    def clusters(self) -> dict[int, np.ndarray]:
        """Each id's members, keyed in ascending id order."""
        return dict(zip(self.ids.tolist(), np.split(self.order, self.offsets[1:-1])))


def resolve_labels(raw_labels: np.ndarray) -> ClusterLabeling:
    """Group per-point cluster ids, which must be >= 1 and already the
    minimal ids of their classes, as `kernels.cluster_scan` emits them."""
    raw = np.asarray(raw_labels, dtype=np.int64)
    if raw.size and raw.min() < 1:
        raise ValueError("raw labels must be >= 1")
    return ClusterLabeling.from_labels(raw)


def _ring_offsets(ring_ids: np.ndarray) -> np.ndarray:
    """Start offset of each ring id in a non-decreasing ring array."""
    num_rings = int(ring_ids.max()) + 1 if ring_ids.size else 0
    return np.searchsorted(ring_ids, np.arange(num_rings + 1)).astype(np.int64)


def _azimuth_windows(xyz: np.ndarray, th_prop: float) -> tuple[np.ndarray, np.ndarray]:
    """Azimuth in [0, 2pi) and the half-window guaranteeing no missed link.

    A previous-ring point within th_prop (3D) of a point at planar range r
    lies within asin(th_prop / r) of its azimuth; beyond quarter-turn
    separation the planar gap alone already exceeds r > th_prop. A small
    additive margin absorbs rounding of the asin.
    """
    az = np.arctan2(xyz[:, 1], xyz[:, 0])
    az = np.where(az < 0, az + kernels.TWO_PI, az)
    r = np.hypot(xyz[:, 0], xyz[:, 1])
    halfwin = np.full(r.shape, np.pi)
    far = r > th_prop
    halfwin[far] = np.arcsin(th_prop / r[far]) + kernels.WINDOW_MARGIN
    return az, halfwin


def cluster_ring_based(cloud: PointCloud, params: ClusterParams) -> ClusterLabeling:
    """Cluster a non-ground cloud whose ring ids are assigned.

    Precondition: points keep scan (azimuth) order within each ring. Ids
    are dense-first-encounter starting at 1; 0 is reserved for background.
    """
    if cloud.ring_ids is None:
        raise ValueError("cluster_ring_based requires assigned ring_ids")
    if len(cloud) == 0:
        return ClusterLabeling.from_labels(np.empty(0, dtype=np.int64))
    xyz = cloud.xyz
    az, halfwin = _azimuth_windows(xyz, params.th_prop)
    labels = kernels.cluster_scan(
        xyz[:, 0],
        xyz[:, 1],
        xyz[:, 2],
        az,
        halfwin,
        _ring_offsets(cloud.ring_ids),
        params.th_ring,
        params.th_prop,
    )
    return resolve_labels(labels)
