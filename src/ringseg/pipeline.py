"""Frame-level orchestration of the cluster-proposal stage.

Order per frame: ring assignment (needs the full scan order), segmented
ground fitting, ring clustering of the non-ground remainder, then box
fitting, filtering and enlargement. Every field of the result but
`timings` is a pure function of the frame and the configuration, so
frames can be processed in parallel with identical results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .boxes import Proposal
from .cloud import PointCloud, assign_rings
from .clustering import ClusterParams, cluster_ring_based
from .ground import (
    GroundParams,
    PlaneModel,
    ground_plane_fit,
    segment_bounds,
    segment_of,
)
from .refine import RefineParams, enlarge_and_merge, filter_proposals, fit_boxes

UP = np.array([0.0, 0.0, 1.0])


@dataclass
class Stage1Result:
    proposals: list[Proposal]
    cluster_labels: np.ndarray  # uint32 over the full cloud, 0 = background
    ground_mask: np.ndarray
    planes: list[PlaneModel | None]
    points_in: int
    points_passed: int
    # wall-clock seconds of "ground", "cluster" (including ring
    # assignment), "refine" and "total", in that order
    timings: dict[str, float]


def _segment_normals(planes: list[PlaneModel | None]) -> np.ndarray:
    """Each segment's ground normal, from the nearest fitted segment (the
    lower one on a tie), or UP when no segment is fitted."""
    fitted = [i for i, plane in enumerate(planes) if plane is not None]
    if not fitted:
        return np.tile(UP, (len(planes), 1))
    return np.array([planes[min(fitted, key=lambda i: (abs(i - seg), i))].normal
                     for seg in range(len(planes))])


def run_stage1(
    cloud: PointCloud,
    ground_params: GroundParams,
    cluster_params: ClusterParams,
    refine_params: RefineParams,
    num_rings: int,
) -> Stage1Result:
    """Full per-frame proposal pipeline."""
    n = len(cloud)
    t0 = time.perf_counter()
    # without the labels, which the cluster scan does not read
    ringed = assign_rings(PointCloud(cloud.xyz, cloud.intensity, validate=False), num_rings)
    t_rings = time.perf_counter()

    n_seg = ground_params.n_seg
    lo, width = segment_bounds(cloud.xyz[:, 0], n_seg)
    segment_idx = segment_of(cloud.xyz[:, 0], lo, width, n_seg)
    ground_mask, planes = ground_plane_fit(cloud, segment_idx, ground_params)
    t_ground = time.perf_counter()

    nonground = np.flatnonzero(~ground_mask)
    sub = ringed.select(nonground)
    labeling = cluster_ring_based(sub, cluster_params)
    t_cluster = time.perf_counter()

    # rows in ascending cluster id, the order filter_proposals reads
    offsets = labeling.offsets
    points = sub.xyz[labeling.order]
    # each cluster's mean over a view of its rows, as if it were averaged alone
    centroids = np.array([points[a:b].mean(axis=0)
                          for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist())])
    centroids = centroids.reshape(-1, 3)
    # one dot product per centroid, as np.linalg.norm takes it for one vector
    distances = np.sqrt((centroids[:, None, :] @ centroids[:, :, None]).reshape(-1))
    normals = _segment_normals(planes)[segment_of(centroids[:, 0], lo, width, n_seg)]
    table = fit_boxes(points, offsets, normals)
    kept, rows = filter_proposals(labeling, distances, table, refine_params)

    proposals = enlarge_and_merge(
        [Proposal(cid, nonground[labeling.order[offsets[row]:offsets[row + 1]]],
                  table.box(row), float(distances[row]))
         for cid, row in zip(kept, rows.tolist())],
        cloud, ground_mask, refine_params)
    cluster_labels = np.zeros(n, dtype=np.uint32)
    for prop in proposals:
        cluster_labels[prop.member_indices] = prop.cluster_id
    t_refine = time.perf_counter()

    return Stage1Result(
        proposals=proposals,
        cluster_labels=cluster_labels,
        ground_mask=ground_mask,
        planes=planes,
        points_in=n,
        points_passed=int(np.count_nonzero(cluster_labels)),  # ids >= 1, disjoint
        timings={"ground": t_ground - t_rings,
                 "cluster": (t_rings - t0) + (t_cluster - t_ground),
                 "refine": t_refine - t_cluster,
                 "total": t_refine - t0},
    )
