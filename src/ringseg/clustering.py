"""Ring-based clustering of the non-ground cloud.

Consecutive points within a ring form runs (closer than th_ring, with the
ring closed across the azimuth wraparound); each point also links to its
nearest neighbour on the previous ring when closer than th_prop. Ids are
the ones a single pass over the rings assigns, after conflicting labels
merge to the smallest id; `kernels.cluster_scan` computes them in bulk.

`ClusterParams` is declared in `config`; it resolves here too.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .cloud import ClusterLabeling, PointCloud
from .config import ClusterParams  # noqa: F401
from .errors import ScanFormatError


def resolve_labels(raw_labels: np.ndarray) -> ClusterLabeling:
    """Group per-point cluster ids, which must be >= 1 and already the
    minimal ids of their classes, as `kernels.cluster_scan` emits them."""
    raw = np.asarray(raw_labels, dtype=np.int64)
    if raw.size and raw.min() < 1:
        raise ValueError("raw labels must be >= 1")
    return ClusterLabeling.from_labels(raw)


def cluster_ring_based(cloud: PointCloud, params: ClusterParams) -> ClusterLabeling:
    """Cluster a non-ground cloud whose ring ids are assigned.

    Precondition: points keep scan (azimuth) order within each ring, and
    ring ids are non-negative and non-decreasing (ScanFormatError
    otherwise). Ids are dense-first-encounter starting at 1; 0 is reserved
    for background.
    """
    rings = cloud.ring_ids
    if rings is None:
        raise ValueError("cluster_ring_based requires assigned ring_ids")
    if rings.size and (rings[0] < 0 or (np.diff(rings) < 0).any()):
        raise ScanFormatError("ring ids must be non-negative and non-decreasing in scan order")
    xyz = cloud.xyz
    return resolve_labels(kernels.cluster_scan(xyz[:, 0], xyz[:, 1], xyz[:, 2], rings,
                                               params.th_ring, params.th_prop))
