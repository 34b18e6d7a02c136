"""Oriented bounding boxes, prior-based filtering, and box enlargement.

Boxes are ground-aligned: the box z-axis is the fitted ground normal of
the cluster's segment, and yaw rotates about it. Filtering combines a
distance-adaptive point-count threshold with per-class size priors;
surviving proposals are enlarged downward to re-absorb near-ground points
(wheels, feet) that the ground fit swallowed.

`fit_boxes` fits a frame's clusters in one pass into a `BoxTable` of
arrays, which the filter reads, so `OrientedBBox` objects are built only
for the clusters it keeps. The box fit needs only numpy: the hull is
Andrew's monotone chain and the rotating calipers run over its edges.

`RefineParams`, `SizePrior` and `DEFAULT_SIZE_PRIORS` are declared in
`config`, and `OrientedBBox`, `Proposal` and `plane_basis` in `boxes`;
this module imports them from there, and they resolve here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import OrientedBBox, Proposal, plane_basis
from .cloud import ClusterLabeling, PointCloud
from .config import DEFAULT_SIZE_PRIORS, RefineParams, SizePrior, _admitted  # noqa: F401

# degenerate clusters (single point, collinear, flat) get this half extent
EPS_HALF_EXTENT = 0.01
# clusters from this size on drop interior points before the hull; on
# traffic frames, filtering every cluster from 3 points on is no faster
_HULL_FILTER_MIN = 64
# a float turn smaller than this times its two products' magnitudes may
# have the wrong sign (Shewchuk 1997, orient2d error bound A)
_TURN_ERRBOUND = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
# the merge index bounds runs of this many consecutive scan points; on the
# traffic frames 48, 64, 96 and 256 measured no faster
MERGE_BLOCK = 128


def _pca_direction(uv: np.ndarray) -> float:
    """Dominant direction angle of 2D points (fallback for degenerate hulls)."""
    centered = uv - uv.mean(axis=0)
    cov = centered.T @ centered
    eigvals, eigvecs = np.linalg.eigh(cov)
    d = eigvecs[:, -1]
    return math.atan2(d[1], d[0])


def _hull_candidates(u: np.ndarray, v: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Whether each 2D point (u, v) can be a convex-hull vertex of its cluster.

    The clusters lie back to back, starting at `starts`. Per cluster, the
    extreme points in eight directions span a convex polygon; a point
    strictly inside it cannot be a hull vertex (Akl & Toussaint 1978).
    "Strictly" carries a margin far above rounding, so points near the
    polygon's edges stay and the hull sees every point that could matter.
    A cluster with fewer than three distinct extremes keeps every point.
    """
    n = u.size
    sizes = np.diff(starts, append=n)
    # per cluster, the first point to reach each extreme, counter-clockwise:
    # the maxima of u, u + v, v and v - u, then their minima; row j's first
    # hit in cluster i is the first at or after flat index j * n + starts[i]
    scores = np.stack([u, u + v, v, v - u])
    hit = np.empty((8, n), dtype=bool)
    for rows, extreme in ((hit[:4], np.maximum), (hit[4:], np.minimum)):
        np.equal(scores, extreme.reduceat(scores, starts, axis=1).repeat(sizes, axis=1),
                 out=rows)
    at_best = np.flatnonzero(hit)
    row = np.arange(8)[:, None] * n
    ext = at_best[at_best.searchsorted(row + starts)] - row
    kept = ext != ext[np.arange(-1, 7)]  # a repeat of the previous extreme is no corner
    # each corner's edge runs to the next kept extreme, cyclically
    ahead = (np.arange(8)[:, None] + np.arange(1, 9)) % 8
    nxt = (np.arange(1, 9)[:, None] + kept[ahead].argmax(axis=1)) % 8
    cu, cv = u[ext], v[ext]
    to = ext[nxt, np.arange(starts.size)]
    eu, ev = u[to] - cu, v[to] - cv
    # the extremes hold both coordinate ranges
    span = (cu.max(axis=0) - cu.min(axis=0)) + (cv.max(axis=0) - cv.min(axis=0))
    margin = 1e-9 * span * (np.abs(eu) + np.abs(ev))
    margin[~kept] = -np.inf
    candidate = (kept.sum(axis=0) < 3).repeat(sizes)
    for j in range(8):
        cross = eu[j].repeat(sizes) * (v - cv[j].repeat(sizes))
        cross -= ev[j].repeat(sizes) * (u - cu[j].repeat(sizes))
        candidate |= cross <= margin[j].repeat(sizes)
    return candidate


def _exact_left(*coords: np.ndarray) -> np.ndarray:
    """Whether each turn a -> b -> x, given as the arrays au, av, bu, bv, xu,
    xv, is a strict left turn, in exact integer arithmetic on the binary
    fractions that the floats are."""
    left = []
    for row in zip(*(c.tolist() for c in coords)):
        ratios = [x.as_integer_ratio() for x in row]
        scale = max(d for _, d in ratios)  # powers of two: each divides the largest
        au, av, bu, bv, xu, xv = (n * (scale // d) for n, d in ratios)
        left.append((bu - au) * (xv - av) - (bv - av) * (xu - au) > 0)
    return np.array(left, dtype=bool)


def _hull_vertices(u: np.ndarray, v: np.ndarray, cluster: np.ndarray) -> np.ndarray:
    """Indices of the convex-hull vertices of the 2D points (u, v) of each cluster.

    cluster[j] is the cluster number of point j. The vertices are listed
    cluster by cluster in ascending number, each hull counter-clockwise from
    its least (u, v). This is Andrew's monotone chain (1979) on all clusters
    at once: each cluster's points, sorted by (u, v) with exact duplicates
    collapsed, are split by the line from the first to the last one into a
    lower chain, the points on or below it left to right, and an upper
    chain, those on or above it right to left. Every point that is not a
    strict left turn with its current neighbours on its chain is then
    dropped, round after round, until none is, which keeps the chain ends
    and drops points on a hull edge. A turn whose float value lies within
    rounding of 0 is decided exactly, so each chain keeps the vertices of
    its points' exact convex hull, in whatever order the points drop.
    Without the collapse, two copies of a vertex would drop each other. A
    collinear cluster gives fewer than 3 vertices.
    """
    order = np.lexsort((v, u, cluster))
    c, us, vs = cluster[order], u[order], v[order]
    new = np.ones(c.size, dtype=bool)
    new[1:] = (c[1:] != c[:-1]) | (us[1:] != us[:-1]) | (vs[1:] != vs[:-1])
    order, c, us, vs = order[new], c[new], us[new], vs[new]
    f, l = np.searchsorted(c, c), np.searchsorted(c, c, side="right") - 1  # cluster ends
    side = (us[l] - us[f]) * (vs - vs[f]) - (vs[l] - vs[f]) * (us - us[f])
    lower, upper = np.flatnonzero(side <= 0), np.flatnonzero(side >= 0)[::-1]
    # chain 2i is cluster i's lower chain, 2i + 1 its upper one
    chain = np.concatenate([2 * c[lower], 2 * c[upper] + 1])
    by_chain = np.argsort(chain, kind="stable")
    chain, point = chain[by_chain], np.concatenate([lower, upper])[by_chain]
    last = np.ones(chain.size, dtype=bool)
    last[:-1] = chain[1:] != chain[:-1]
    start = np.ones(chain.size, dtype=bool)
    start[1:] = last[:-1]
    end = start | last
    # each chain's last point starts the next chain of its cluster; a
    # cluster of one point keeps it once, as its lower chain
    drop = last & ~(start & (chain % 2 == 0))
    hu, hv = us[point], vs[point]
    while True:
        # turn of each point with its neighbours on the chain
        t1 = (hu[1:-1] - hu[:-2]) * (hv[2:] - hv[:-2])
        t2 = (hv[1:-1] - hv[:-2]) * (hu[2:] - hu[:-2])
        turn = t1 - t2
        left = turn > 0
        unsure = ((np.abs(turn) < _TURN_ERRBOUND * (np.abs(t1) + np.abs(t2)))
                  & ~end[1:-1]).nonzero()[0]
        if unsure.size:
            at = unsure + 1
            left[unsure] = _exact_left(hu[at - 1], hv[at - 1], hu[at], hv[at],
                                       hu[at + 1], hv[at + 1])
        stay = end.copy()
        stay[1:-1] |= left
        if stay.all():
            break
        point, hu, hv, end, drop = point[stay], hu[stay], hv[stay], end[stay], drop[stay]
    return order[point[~drop]]


def _min_area_edge_angles(hu: np.ndarray, hv: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per hull, the angle of its first edge whose aligned rectangle has
    minimal area (rotating calipers: the optimum has a side on a hull edge).

    hu, hv hold the vertices of all hulls back to back, each hull
    counter-clockwise; sizes[j] is the vertex count of hull j. Every edge of
    a hull is paired with every vertex of the same hull, and the extents of
    each edge's pairs come from one reduceat per bound.
    """
    starts = np.cumsum(sizes) - sizes
    nxt = np.arange(1, hu.size + 1)
    nxt[starts + sizes - 1] = starts  # each hull's wrap-around edge
    angles = np.arctan2(hv[nxt] - hv, hu[nxt] - hu)
    c, s = np.cos(angles), np.sin(angles)
    per_edge = np.repeat(sizes, sizes)  # each edge meets its hull's vertices
    rows = np.cumsum(per_edge) - per_edge
    edge = np.repeat(np.arange(hu.size), per_edge)
    vertex = np.arange(edge.size) - np.repeat(rows - np.repeat(starts, sizes), per_edge)
    xs = c[edge] * hu[vertex] + s[edge] * hv[vertex]
    ys = c[edge] * hv[vertex] - s[edge] * hu[vertex]
    areas = ((np.maximum.reduceat(xs, rows) - np.minimum.reduceat(xs, rows))
             * (np.maximum.reduceat(ys, rows) - np.minimum.reduceat(ys, rows)))
    hits = np.flatnonzero(areas == np.repeat(np.minimum.reduceat(areas, starts), sizes))
    hull = np.repeat(np.arange(sizes.size), sizes)[hits]
    return angles[hits[np.r_[True, hull[1:] != hull[:-1]]]]


@dataclass(frozen=True)
class BoxTable:
    """The boxes of k clusters as read-only arrays, row i for cluster i.

    yaw (k,) is the fitted angle about the normal, before `OrientedBBox`
    folds it into [0, pi); center, half_extents and normal are (k, 3).
    `box(i)` is the box of row i.
    """

    yaw: np.ndarray
    center: np.ndarray
    half_extents: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        for a in (self.yaw, self.center, self.half_extents, self.normal):
            a.setflags(write=False)

    def __len__(self) -> int:
        return self.yaw.size

    def box(self, i: int) -> OrientedBBox:
        return OrientedBBox(center=self.center[i], yaw=self.yaw[i],
                            half_extents=self.half_extents[i], normal=self.normal[i])


def fit_boxes(points: np.ndarray, offsets: np.ndarray, normals: np.ndarray) -> BoxTable:
    """Minimal-area ground-aligned box around each of k clusters, in one pass.

    The clusters lie back to back: cluster i is the (m, 3) block
    points[offsets[i]:offsets[i + 1]], and normals[i] is its ground normal.
    Points are projected along the normal; the minimal rectangle of the
    projection is found by rotating calipers over the hull edges, or along
    the principal direction when the hull is degenerate (two points,
    collinear). Half extents are floored at EPS_HALF_EXTENT so degenerate
    clusters still yield a valid box. The plane basis and the projections
    are computed once per distinct normal, the hulls, calipers, rectangles
    and centers once over all clusters, with the same arithmetic per box as
    a fit of that box alone, so the boxes are bit-identical to fitting each
    cluster on its own.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    offsets = np.asarray(offsets, dtype=np.int64)
    normals = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
    k = offsets.size - 1
    if normals.shape[0] != k or offsets[0] != 0 or offsets[-1] != points.shape[0]:
        raise ValueError("fit_boxes needs offsets over all points and one normal per cluster")
    if not k:
        return BoxTable(np.empty(0), np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3)))
    sizes = np.diff(offsets)
    if sizes.min() < 1:
        raise ValueError("fit_boxes needs at least one point per cluster")
    cluster = np.repeat(np.arange(k), sizes)
    # one plane basis and one projection per distinct normal; numpy takes
    # the product of a lone row through its dot path, which rounds apart
    # from the matrix-vector one, so one-point clusters take that path here
    group = np.full(k, -1)
    bases = []  # (n, e1, e2) of each distinct normal
    u, v, w = (np.empty(points.shape[0]) for _ in range(3))
    alone = np.repeat(sizes == 1, sizes)
    while (todo := np.flatnonzero(group < 0)).size:
        normal = normals[todo[0]]
        group[todo[(normals[todo] == normal).all(axis=1)]] = len(bases)
        n = normal / np.linalg.norm(normal)
        e1, e2 = plane_basis(n)
        rows = np.repeat(group == len(bases), sizes)
        lone = np.flatnonzero(rows & alone)
        for out, axis in ((u, e1), (v, e2), (w, n)):
            np.copyto(out, points @ axis, where=rows)
            if lone.size:
                out[lone] = (points[lone, None, :] @ axis).reshape(-1)
        bases.append((n, e1, e2))

    # hull vertices from clusters of three or more points, large ones
    # dropping their interior points first
    seen = sizes[cluster] >= 3
    filtered = sizes >= _HULL_FILTER_MIN
    if filtered.any():
        at = filtered[cluster]
        seen[at] = _hull_candidates(u[at], v[at], np.cumsum(sizes[filtered]) - sizes[filtered])
    seen = np.flatnonzero(seen)
    vertices = seen[_hull_vertices(u[seen], v[seen], cluster[seen])]
    counts = np.bincount(cluster[vertices], minlength=k)
    hulled = counts >= 3
    theta = np.zeros(k)
    if hulled.any():
        vertices = vertices[hulled[cluster[vertices]]]
        theta[hulled] = _min_area_edge_angles(u[vertices], v[vertices], counts[hulled])
    for i in np.flatnonzero(~hulled & (sizes >= 2)).tolist():  # degenerate hulls
        rows = slice(offsets[i], offsets[i + 1])
        theta[i] = _pca_direction(np.column_stack([u[rows], v[rows]]))

    # the rectangle at each box's angle, over all clusters' points at once
    starts = offsets[:-1]
    c, s = np.cos(theta), np.sin(theta)
    cp, sp = np.repeat(c, sizes), np.repeat(s, sizes)
    xs = u * cp + v * sp
    ys = -u * sp + v * cp
    x0, x1 = np.minimum.reduceat(xs, starts), np.maximum.reduceat(xs, starts)
    y0, y1 = np.minimum.reduceat(ys, starts), np.maximum.reduceat(ys, starts)
    w0, w1 = np.minimum.reduceat(w, starts), np.maximum.reduceat(w, starts)
    half = np.maximum(
        np.column_stack([(x1 - x0) / 2.0, (y1 - y0) / 2.0, (w1 - w0) / 2.0]),
        EPS_HALF_EXTENT)
    # rectangle centers back to world coordinates
    n, e1, e2 = np.array(bases)[group].transpose(1, 0, 2)
    cx, cy, cw = (x0 + x1) / 2.0, (y0 + y1) / 2.0, (w0 + w1) / 2.0
    u_c = cx * c - cy * s
    v_c = cx * s + cy * c
    center = u_c[:, None] * e1 + v_c[:, None] * e2 + cw[:, None] * n
    return BoxTable(yaw=theta, center=center, half_extents=half, normal=n)


def adaptive_threshold(d: float | np.ndarray, params: RefineParams) -> int | np.ndarray:
    """Minimum member count for a cluster at centroid distance d.

    Inversely proportional to distance (sparser returns farther out),
    anchored at th_num_base for d_ref and clamped below by th_num_floor.
    Rounding is half-up for platform determinism. A scalar d gives an int;
    an array gives whole-valued floats, which no distance overflows.
    """
    d = np.asarray(d, dtype=np.float64)
    if (d <= 0).any():
        raise ValueError("distance must be > 0")
    th = np.maximum(np.floor(params.th_num_base * params.d_ref / d + 0.5),
                    params.th_num_floor)
    return int(th) if th.ndim == 0 else th


def filter_proposals(
    labeling: ClusterLabeling,
    distances: np.ndarray,
    table: BoxTable,
    params: RefineParams,
) -> tuple[list[int], np.ndarray]:
    """Keep clusters that pass both the count and the size-prior test.

    Row i of `distances` and `table` belongs to the i-th smallest cluster
    id. A cluster survives iff its member count reaches the adaptive
    threshold at its centroid distance and its box extents fit inside at
    least one class prior. Returns the kept ids, ascending, and their rows;
    the members of row i are labeling.order[offsets[i]:offsets[i + 1]].
    The kept set is a pure function of per-cluster statistics.
    """
    ids = labeling.ids
    if len(table) != ids.size or np.shape(distances) != ids.shape:
        raise ValueError("filter_proposals needs one distance and one box per cluster")
    counts = np.diff(labeling.offsets)
    # the count threshold grows without bound as d -> 0, so a cluster at the
    # sensor origin (no-return records written as zeros) cannot reach it
    ok = distances > 0
    ok[ok] = counts[ok] >= adaptive_threshold(distances[ok], params)
    ok &= _admitted(2.0 * table.half_extents, params.size_priors.values())
    rows = np.flatnonzero(ok)
    return ids[rows].tolist(), rows


def block_index(xyz: np.ndarray) -> np.ndarray:
    """The merge index of a frame, for `merge_candidates`.

    Row by row: the x min, the negated x max, the y min and the negated y
    max of each run of MERGE_BLOCK consecutive points (the last run may be
    shorter), as a (4, blocks) array. Points next to each other in scan
    order lie close together, so a box meets few blocks; points in any
    other order give the same query results, only more slowly.
    """
    starts = np.arange(0, xyz.shape[0], MERGE_BLOCK)
    x, y = xyz[:, 0], xyz[:, 1]
    return np.stack([np.minimum.reduceat(x, starts), -np.maximum.reduceat(x, starts),
                     np.minimum.reduceat(y, starts), -np.maximum.reduceat(y, starts)])


def merge_candidates(bbox: OrientedBBox, xyz: np.ndarray, eligible: np.ndarray,
                     blocks: np.ndarray) -> np.ndarray:
    """Indices of eligible points inside the box, ascending.

    `blocks` is `block_index(xyz)`. Only the blocks whose x and y bounds
    come within the box circumradius of its center are read. Each point of
    those blocks then passes a coarse axis-aligned cut (the circumradius
    bounds every inside point per axis) before the exact rotated
    containment test. Float subtraction rounds monotonically, so a block
    whose bound lies beyond the radius holds no point that would pass the
    cut: the result is that of the cut over every point.
    """
    radius = float(np.linalg.norm(bbox.half_extents))
    c = bbox.center
    # a NaN bound compares False, so its block is read
    far = (blocks + np.array([[-c[0]], [c[0]], [-c[1]], [c[1]]])).max(axis=0) > radius
    candidates = (np.flatnonzero(~far)[:, None] * MERGE_BLOCK + np.arange(MERGE_BLOCK)).ravel()
    n = xyz.shape[0]
    if candidates.size and candidates[-1] >= n:  # the last block is short
        candidates = candidates[:n - 1 - candidates[-1]]
    dx = xyz[:, 0][candidates] - c[0]
    candidates = candidates[np.abs(dx, out=dx) <= radius]
    candidates = candidates[eligible[candidates]]
    for axis in (1, 2):
        candidates = candidates[np.abs(xyz[:, axis][candidates] - c[axis]) <= radius]
    if candidates.size:
        return candidates[bbox.contains(xyz[candidates])]
    return candidates


def enlarge_and_merge(
    proposals: list[Proposal],
    cloud: PointCloud,
    ground_mask: np.ndarray,
    params: RefineParams,
) -> list[Proposal]:
    """Enlarge each proposal's box and append the unclaimed masked points inside it.

    A box grows by enlarge_xy in-plane and enlarge_z along the normal, the
    z growth downward only (center shifts toward the ground, top face
    stays): the points to recover sit below the cluster, and symmetric
    growth would admit overhead structure. Only points set in
    `ground_mask`, a bool array over the cloud, are merged: non-ground
    points already belong to clusters. The proposals claim points in list
    order (`run_stage1` passes them by ascending id), and a point that one
    claims joins no later one, so no point ends up in two. The merged
    points follow the original members, which are always kept.
    """
    if not (isinstance(ground_mask, np.ndarray) and ground_mask.dtype == bool
            and ground_mask.shape == (len(cloud),)):
        got = (f"{ground_mask.dtype} array of shape {ground_mask.shape}"
               if isinstance(ground_mask, np.ndarray) else type(ground_mask).__name__)
        raise ValueError(f"ground_mask must be a bool array of {len(cloud)} points, got {got}")
    if not proposals:
        return []
    free = ground_mask.copy()  # ground points no proposal has claimed yet
    blocks = block_index(cloud.xyz)
    grow = np.array([params.enlarge_xy, params.enlarge_xy, params.enlarge_z])
    enlarged = []
    for prop in proposals:
        box = prop.bbox
        bbox = OrientedBBox(box.center - params.enlarge_z * box.normal, box.yaw,
                            box.half_extents + grow, box.normal)
        merged = merge_candidates(bbox, cloud.xyz, free, blocks)
        free[merged] = False
        enlarged.append(Proposal(prop.cluster_id, np.concatenate([prop.member_indices, merged]),
                                 bbox, prop.distance))
    return enlarged
