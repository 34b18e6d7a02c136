"""Independent reference implementations used as test oracles.

Deliberately naive: explicit graph construction, exhaustive sweeps and
per-point counting, sharing no code path with the library internals they
check. The exceptions: `per_cluster_box`, the one-cluster-at-a-time
box fit, which `refine.fit_boxes` must match bit for bit: it shares the
plane basis, the PCA fallback and the prefilter size with the library,
and fits each cluster alone with the scalar hull prefilter and monotone
chain below; `min_merge_labels`, which runs the library's union-find
over label ids so the tests can check it against `naive_min_merge`;
`xcut_merge_candidates`, which shares the library's box containment test;
`dihedral_variants`, which takes the library's isometry matrices;
`archive_records`, which lays its rows out in the archive's record type;
`all_rays_scene`, which casts every ray of a frame against every object
with the generator's own ray tests, so only the azimuth windows differ;
and `full_round_ground_fit`, which runs the library's seed and plane
steps for every one of `n_iter` rounds, with the moments taken over a
centered copy of each segment as the library took them before.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ringseg import ground, kernels, refine, samples, synth
from ringseg.errors import DegenerateGeometryError


def canonical_partition(labels) -> np.ndarray:
    """Relabel cluster ids by first occurrence so partitions compare."""
    out = np.empty(len(labels), dtype=np.int64)
    mapping: dict = {}
    for i, lab in enumerate(labels):
        out[i] = mapping.setdefault(lab, len(mapping))
    return out


def brute_force_clusters(xyz: np.ndarray, ring_ids: np.ndarray,
                         th_ring: float, th_prop: float) -> np.ndarray:
    """Connected components of the explicit link graph.

    Edges: consecutive same-ring points under th_ring, the first/last pair
    of each ring (wraparound), and each point to its nearest previous-ring
    point when below th_prop (first index wins ties).
    """
    n = xyz.shape[0]
    adj: list[list[int]] = [[] for _ in range(n)]

    def link(a: int, b: int) -> None:
        adj[a].append(b)
        adj[b].append(a)

    rings: dict[int, list[int]] = {}
    for i, r in enumerate(ring_ids):
        rings.setdefault(int(r), []).append(i)

    th_ring2 = th_ring * th_ring
    th_prop2 = th_prop * th_prop
    for r, idxs in rings.items():
        for a, b in zip(idxs, idxs[1:]):
            d2 = float(((xyz[a] - xyz[b]) ** 2).sum())
            if d2 < th_ring2:
                link(a, b)
        if len(idxs) >= 2:
            d2 = float(((xyz[idxs[0]] - xyz[idxs[-1]]) ** 2).sum())
            if d2 < th_ring2:
                link(idxs[0], idxs[-1])
        prev = rings.get(r - 1)
        if prev:
            prev_xyz = xyz[prev]
            for i in idxs:
                d2 = ((prev_xyz - xyz[i]) ** 2).sum(axis=1)
                j = int(np.argmin(d2))
                if d2[j] < th_prop2:
                    link(i, prev[j])

    labels = np.full(n, -1, dtype=np.int64)
    comp = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = comp
        while stack:
            a = stack.pop()
            for b in adj[a]:
                if labels[b] < 0:
                    labels[b] = comp
                    stack.append(b)
        comp += 1
    return labels


def naive_min_merge(labels, merges) -> np.ndarray:
    """Set-based merge resolution: each label maps to min of its class."""
    groups: list[set] = [set([lab]) for lab in set(int(l) for l in labels)]
    for a, b in merges:
        ga = gb = None
        for g in groups:
            if a in g:
                ga = g
            if b in g:
                gb = g
        if ga is None or gb is None or ga is gb:
            if ga is None:
                groups.append({int(a)} if gb is None else gb | {int(a)})
            continue
        groups.remove(gb)
        ga |= gb
    rep = {}
    for g in groups:
        m = min(g)
        for lab in g:
            rep[lab] = m
    return np.array([rep[int(l)] for l in labels], dtype=np.int64)


def min_merge_labels(labels, merges) -> np.ndarray:
    """Each label mapped to the smallest id it is merged with, through
    `kernels.min_label_components` over the merge pairs as edges."""
    labels = np.asarray(labels, dtype=np.int64)
    edges = np.asarray(list(merges), dtype=np.int64).reshape(-1, 2)
    num_nodes = int(labels.max(initial=0)) + 1
    return kernels.min_label_components(num_nodes, edges[:, 0], edges[:, 1])[labels]


def sweep_min_rect_area(uv: np.ndarray, step_deg: float = 0.05) -> float:
    """Minimal axis-aligned bounding-rectangle area over a dense angle grid."""
    angles = np.radians(np.arange(0.0, 90.0, step_deg))
    c, s = np.cos(angles), np.sin(angles)
    best = np.inf
    # chunked so the (angles x points) matrices stay small
    for k in range(0, angles.size, 256):
        ck, sk = c[k:k + 256, None], s[k:k + 256, None]
        xs = ck * uv[:, 0] + sk * uv[:, 1]
        ys = -sk * uv[:, 0] + ck * uv[:, 1]
        areas = (xs.max(axis=1) - xs.min(axis=1)) * (ys.max(axis=1) - ys.min(axis=1))
        best = min(best, float(areas.min()))
    return best


def scalar_hull_candidates(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Indices of the 2D points (u, v) that can be convex-hull vertices.

    The extreme points in eight directions span a convex polygon; a point
    strictly inside it cannot be a hull vertex (Akl & Toussaint 1978).
    "Strictly" carries a margin far above rounding, so points near the
    polygon's edges stay and the hull sees every point that could matter.
    """
    s, d = u + v, u - v
    extremes = [u.argmax(), s.argmax(), v.argmax(), d.argmin(),
                u.argmin(), s.argmin(), v.argmin(), d.argmax()]  # counter-clockwise
    extremes = [e for i, e in enumerate(extremes) if e != extremes[i - 1]]
    if len(extremes) < 3:
        return np.arange(u.size)
    cu, cv = u[extremes], v[extremes]
    nxt = [*range(1, len(extremes)), 0]
    eu, ev = cu[nxt] - cu, cv[nxt] - cv
    lu, lv = cu.tolist(), cv.tolist()  # the extremes hold both coordinate ranges
    span = (max(lu) - min(lu)) + (max(lv) - min(lv))
    margin = 1e-9 * span * (np.abs(eu) + np.abs(ev))
    cross = eu[:, None] * (v - cv[:, None])
    cross -= ev[:, None] * (u - cu[:, None])
    return np.flatnonzero((cross <= margin[:, None]).any(axis=0))


def scalar_hull_vertices(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Indices of the convex-hull vertices of the 2D points (u, v), counter-clockwise.

    Andrew's monotone chain (1979), one stack scan per chain: the points
    sorted by (u, v) are split by the line from the first to the last one;
    the lower chain scans those on or below it left to right, the upper
    chain those on or above it right to left. Both keep only strict left
    turns, tested in exact rational arithmetic, so duplicates and points on
    a hull edge are dropped, and a collinear set gives fewer than 3
    vertices.
    """
    order = np.lexsort((v, u))
    us, vs = u[order], v[order]
    side = (us[-1] - us[0]) * (vs - vs[0]) - (vs[-1] - vs[0]) * (us - us[0])
    pts = [(Fraction(x), Fraction(y)) for x, y in zip(us.tolist(), vs.tolist())]
    halves = []
    for seq in (np.flatnonzero(side <= 0), np.flatnonzero(side >= 0)[::-1]):
        chain: list[int] = []
        for k in seq.tolist():
            x, y = pts[k]
            while len(chain) >= 2:
                ax, ay = pts[chain[-2]]
                bx, by = pts[chain[-1]]
                if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0:
                    break
                chain.pop()
            chain.append(k)
        halves.append(chain[:-1])
    return order[halves[0] + halves[1]]


def per_cluster_box(points: np.ndarray, normal: np.ndarray) -> refine.OrientedBBox:
    """The minimal-area ground-aligned box of one cluster, fitted alone.

    The per-cluster path `refine.fit_boxes` batches: the scalar hull
    prefilter and chain, then calipers that evaluate every hull-edge angle
    with (h x h) outer products and take the first minimal area; the
    rectangle at that angle comes from the cluster's own projections.
    """
    points = np.atleast_2d(points)
    n = np.asarray(normal, dtype=np.float64)
    n = n / np.linalg.norm(n)
    e1, e2 = refine.plane_basis(n)
    u, v = points @ e1, points @ e2
    w = points @ n

    theta = 0.0
    if points.shape[0] >= 3:
        keep = (scalar_hull_candidates(u, v)
                if points.shape[0] >= refine._HULL_FILTER_MIN else slice(None))
        uk, vk = u[keep], v[keep]
        hull = scalar_hull_vertices(uk, vk)
        if hull.size >= 3:
            hv = np.column_stack([uk[hull], vk[hull]])
            edges = np.diff(np.vstack([hv, hv[:1]]), axis=0)
            angles = np.arctan2(edges[:, 1], edges[:, 0])
            c, s = np.cos(angles), np.sin(angles)
            xs = np.outer(c, hv[:, 0]) + np.outer(s, hv[:, 1])
            ys = np.outer(c, hv[:, 1]) - np.outer(s, hv[:, 0])
            areas = (xs.max(axis=1) - xs.min(axis=1)) * (ys.max(axis=1) - ys.min(axis=1))
            theta = float(angles[np.argmin(areas)])
        else:
            theta = refine._pca_direction(np.column_stack([u, v]))
    elif points.shape[0] == 2:
        theta = refine._pca_direction(np.column_stack([u, v]))

    c, s = math.cos(theta), math.sin(theta)
    xs = u * c + v * s
    ys = -u * s + v * c
    x0, x1, y0, y1 = xs.min(), xs.max(), ys.min(), ys.max()
    w0, w1 = w.min(), w.max()
    half = np.maximum(
        [(x1 - x0) / 2.0, (y1 - y0) / 2.0, (w1 - w0) / 2.0], refine.EPS_HALF_EXTENT
    )
    cx, cy, cw = (x0 + x1) / 2.0, (y0 + y1) / 2.0, (w0 + w1) / 2.0
    center = (cx * c - cy * s) * e1 + (cx * s + cy * c) * e2 + cw * n
    return refine.OrientedBBox(center=center, yaw=theta, half_extents=half, normal=n)


def brute_force_hull(uv: np.ndarray) -> list[tuple[float, float]]:
    """Convex-hull vertices of 2D points, counter-clockwise from the least (u, v).

    Every ordered pair (p, q) of distinct points is tested against every
    point r: it is a hull edge iff no r lies strictly right of p -> q and
    every r on that line lies within the segment. Duplicate points count
    once and points inside an edge are not vertices, so a collinear set
    gives its two end points and a single repeated point gives itself.
    """
    pts = np.unique(np.asarray(uv, dtype=np.float64), axis=0)  # sorted by (u, v)
    if len(pts) < 2:
        return [tuple(p) for p in pts.tolist()]
    d = pts[None, :, :] - pts[:, None, :]  # d[i, j] = p_j - p_i
    cross = d[:, :, None, 0] * d[:, None, :, 1] - d[:, :, None, 1] * d[:, None, :, 0]
    dot = d[:, :, None, 0] * d[:, None, :, 0] + d[:, :, None, 1] * d[:, None, :, 1]
    length2 = (d ** 2).sum(axis=2)[:, :, None]
    on_segment = (cross == 0) & (dot >= 0) & (dot <= length2)
    edge = ((cross > 0) | on_segment).all(axis=2)
    np.fill_diagonal(edge, False)
    out, i = [], 0
    while True:
        out.append(tuple(pts[i].tolist()))
        (succ,) = np.flatnonzero(edge[i])
        i = int(succ)
        if i == 0:
            return out


def counting_metrics(pred, gt, num_classes: int = 4):
    """Per-class |P|, |G|, |P n G| by an explicit per-point loop."""
    p = [0] * num_classes
    g = [0] * num_classes
    pg = [0] * num_classes
    for a, b in zip(pred, gt):
        p[int(a)] += 1
        g[int(b)] += 1
        if int(a) == int(b):
            pg[int(a)] += 1
    return p, g, pg


def looped_recall(cluster_ids, gt) -> dict[str, float | int]:
    """Proposal recall fields by an explicit per-point loop: a point is
    covered when its id is nonzero, foreground when its label is."""
    fg = covered = fg_covered = 0
    ids = set()
    for cid, label in zip(cluster_ids, gt):
        if int(cid):
            covered += 1
            ids.add(int(cid))
        if int(label):
            fg += 1
            fg_covered += bool(int(cid))
    return {"recall": fg_covered / fg if fg else 1.0, "proposals": len(ids),
            "fg_points": fg, "fg_covered": fg_covered, "points_passed": covered}


def pairwise_distance_multiset(points: np.ndarray, decimals: int = 9) -> np.ndarray:
    """Sorted upper-triangle pairwise distances, rounded for comparison."""
    diff = points[:, None, :] - points[None, :, :]
    d = np.sqrt((diff ** 2).sum(axis=2))
    iu = np.triu_indices(points.shape[0], k=1)
    return np.sort(np.round(d[iu], decimals))


def dihedral_variants(sample) -> list[tuple[np.ndarray, np.ndarray]]:
    """(points, half extents) of the eight planar-isometry variants of a
    canonical sample, one matrix product per variant.

    Variant 0 is the sample's points as they are. Variant k > 0 is
    (p - c) @ DIHEDRAL_LINEAR[k].T + c', c the center of the sample's box
    and c' the center of the variant's own box, whose x and y extents
    swap when k is an odd quarter-turn; z is kept.
    """
    h = sample.half_extents
    out = [(sample.local_points.copy(), h.copy())]
    for k in range(1, 8):
        new_h = h[[1, 0, 2]] if k % 2 else h.copy()
        moved = sample.local_points.copy()
        moved[:, :2] = (moved[:, :2] - h[:2]) @ samples.DIHEDRAL_LINEAR[k].T + new_h[:2]
        out.append((moved, new_h))
    return out


def resample(points: np.ndarray, intensities: np.ndarray, n_points: int, rng):
    """(points, intensities) of one sample fixed to n_points rows.

    More points than rows: n_points distinct indices, `rng.choice` without
    replacement. Fewer: every point once, in order, then the rest drawn
    with `rng.integers`. As many: every point in order, drawing nothing.
    """
    num = len(points)
    if num == 0:
        raise ValueError("cannot resample an empty sample")
    if num > n_points:
        rows = rng.choice(num, size=n_points, replace=False).tolist()
    else:
        rows = list(range(num))
        if num < n_points:
            rows += rng.integers(0, num, size=n_points - num).tolist()
    return points[rows], intensities[rows]


def resampled_variants(sample, n_points: int, rngs) -> list[tuple[np.ndarray, np.ndarray]]:
    """(points, intensities) of variants 0..k-1 of `dihedral_variants`,
    variant j resampled to n_points rows with rngs[j]."""
    return [resample(points, sample.intensities, n_points, rng)
            for (points, _), rng in zip(dihedral_variants(sample), rngs)]


def archive_records(sample, resampled) -> np.ndarray:
    """The archive records of a sample's resampled variants, record j
    variant j: its head, then one (x, y, z, intensity, (NUM - N) / N)
    float32 row per point."""
    num = len(sample.local_points)
    n_points = len(resampled[0][0])
    records = np.zeros(len(resampled), dtype=samples.record_dtype(n_points))
    for j, (points, intensities) in enumerate(resampled):
        rows = records["features"][j]
        for i, ((x, y, z), value) in enumerate(zip(points.tolist(), intensities.tolist())):
            rows[i] = (x, y, z, value, (num - n_points) / n_points)
        for name, value in (("class_label", sample.class_label), ("variant_id", j),
                            ("frame_id", sample.frame_id), ("cluster_id", sample.cluster_id),
                            ("num_original", num)):
            records[name][j] = value
    return records


def xcut_merge_candidates(bbox: refine.OrientedBBox, xyz: np.ndarray,
                          eligible: np.ndarray) -> np.ndarray:
    """`refine.merge_candidates` without its block index: the whole-frame
    x cut it replaced, then eligibility, the y and z cuts and the exact
    containment test, which it shares with the library."""
    radius = float(np.linalg.norm(bbox.half_extents))
    dx = xyz[:, 0] - bbox.center[0]
    candidates = np.flatnonzero(np.abs(dx, out=dx) <= radius)
    candidates = candidates[eligible[candidates]]
    for axis in (1, 2):
        candidates = candidates[np.abs(xyz[candidates, axis] - bbox.center[axis]) <= radius]
    if candidates.size:
        return candidates[bbox.contains(xyz[candidates])]
    return candidates


def points_in_oriented_box(points: np.ndarray, center, axes, half) -> np.ndarray:
    """Containment by explicit per-point inverse transform."""
    out = np.zeros(points.shape[0], dtype=bool)
    for i, p in enumerate(points):
        local = axes.T @ (p - center)
        out[i] = bool(np.all(np.abs(local) <= half))
    return out


# ---------------------------------------------------------------------------
# Scalar scans: the per-point loops the vectorized kernels replace. Their
# ids are the reference the kernels must match id for id.

TWO_PI = 2.0 * np.pi


def compute_quadrants(xyz: np.ndarray) -> np.ndarray:
    """Per-point azimuth quadrant, 1..4 counter-clockwise, 0 for on-axis
    (x == 0 or y == 0, either sign of zero)."""
    x, y = xyz[:, 0], xyz[:, 1]
    q = np.zeros(xyz.shape[0], dtype=np.int8)
    q[(x > 0) & (y > 0)] = 1
    q[(x < 0) & (y > 0)] = 2
    q[(x < 0) & (y < 0)] = 3
    q[(x > 0) & (y < 0)] = 4
    return q


def scalar_trace_rings(quadrant):
    """Scan quadrant codes (0 = on-axis, 1..4 CCW) and count revolutions.

    On-axis points inherit the previously seen quadrant; a 4 -> 1
    transition increments the ring index, and a 1 -> 4 transition is a
    clockwise step. Returns (ring_ids, revolutions, clockwise steps).
    """
    n = quadrant.shape[0]
    ring_ids = np.zeros(n, dtype=np.int32)
    prev = 0
    ring = 0
    clockwise = 0
    for i in range(n):
        q = quadrant[i]
        if q == 0:
            q = prev
        if prev == 4 and q == 1:
            ring += 1
        if prev == 1 and q == 4:
            clockwise += 1
        prev = q
        ring_ids[i] = ring
    return ring_ids, ring + 1, clockwise


def _bisect_left(a, lo, hi, v):
    while lo < hi:
        mid = (lo + hi) // 2
        if a[mid] < v:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _bisect_right(a, lo, hi, v):
    while lo < hi:
        mid = (lo + hi) // 2
        if a[mid] <= v:
            lo = mid + 1
        else:
            hi = mid
    return lo


def scan_windows(x, y, ring_ids, th_prop):
    """The scalar scan's explicit geometry for a cloud in scan order.

    Returns each point's azimuth in [0, 2pi), its untightened half-window
    (asin(th_prop / r) plus the kernels' margin, pi within th_prop of the
    sensor axis) and the ring start offsets (length R + 1) of a non-empty
    cloud.
    """
    az = np.arctan2(y, x)
    az = np.where(az < 0, az + TWO_PI, az)
    r = np.hypot(x, y)
    halfwin = np.full(r.shape, np.pi)
    far = r > th_prop
    halfwin[far] = np.arcsin(th_prop / r[far]) + kernels.WINDOW_MARGIN
    starts = np.searchsorted(ring_ids, np.arange(ring_ids[-1] + 2))
    return az, halfwin, starts


def azimuth_neighbour_d2(x, y, z, az, starts):
    """Squared distance from each point to the nearer of the two
    previous-ring points beside its azimuth (cyclically); inf on ring 0 and
    after an empty ring. Below th_prop^2 it tightens the kernel's window."""
    ub = np.full(x.shape[0], np.inf)
    for r in range(1, starts.shape[0] - 1):
        ps, s, e = starts[r - 1], starts[r], starts[r + 1]
        m = s - ps
        if m == 0:
            continue
        pos = np.searchsorted(az[ps:s], az[s:e], "left")
        for j in (ps + pos % m, ps + (pos - 1) % m):
            d2 = (x[s:e] - x[j]) ** 2 + (y[s:e] - y[j]) ** 2 + (z[s:e] - z[j]) ** 2
            ub[s:e] = np.minimum(ub[s:e], d2)
    return ub


def scalar_cluster_scan(x, y, z, az, halfwin, starts, th_ring, th_prop):
    """One-pass ring clustering: intra-ring runs + previous-ring propagation.

    Points are grouped contiguously per ring by `starts` (length R+1
    offsets) and sorted by azimuth within each ring. Consecutive points of
    a ring join the same run when closer than th_ring (the ring is closed:
    first and last points are also tested). Each point additionally links
    to its nearest neighbour on ring r-1 when that distance is below
    th_prop, searched within the azimuth window +-halfwin[i]. Conflicting
    labels are recorded as merge pairs; a point with no qualifying
    neighbour opens a new label.

    Returns (raw_labels, merge_pairs).
    """
    n = x.shape[0]
    num_rings = starts.shape[0] - 1
    labels = np.zeros(n, dtype=np.int64)
    merges = []
    next_label = 1
    th_ring2 = th_ring * th_ring
    th_prop2 = th_prop * th_prop
    for r in range(num_rings):
        s = starts[r]
        e = starts[r + 1]
        if s == e:
            continue
        if r > 0:
            ps = starts[r - 1]
            pe = starts[r]
        else:
            ps = 0
            pe = 0
        for i in range(s, e):
            lab = 0
            if i > s:
                dx = x[i] - x[i - 1]
                dy = y[i] - y[i - 1]
                dz = z[i] - z[i - 1]
                if dx * dx + dy * dy + dz * dz < th_ring2:
                    lab = labels[i - 1]
            if pe > ps:
                # candidate index ranges on the previous ring, ascending,
                # accounting for azimuth wraparound at 0/2pi
                w = halfwin[i]
                if w >= np.pi:
                    a1, b1 = ps, pe
                    a2, b2 = pe, pe
                else:
                    lo = az[i] - w
                    hi = az[i] + w
                    if lo < 0.0:
                        a1 = ps
                        b1 = _bisect_right(az, ps, pe, hi)
                        a2 = _bisect_left(az, ps, pe, lo + TWO_PI)
                        b2 = pe
                    elif hi > TWO_PI:
                        a1 = ps
                        b1 = _bisect_right(az, ps, pe, hi - TWO_PI)
                        a2 = _bisect_left(az, ps, pe, lo)
                        b2 = pe
                    else:
                        a1 = _bisect_left(az, ps, pe, lo)
                        b1 = _bisect_right(az, ps, pe, hi)
                        a2, b2 = pe, pe
                best = -1
                best_d2 = th_prop2
                for j in range(a1, b1):
                    dx = x[i] - x[j]
                    dy = y[i] - y[j]
                    dz = z[i] - z[j]
                    d2 = dx * dx + dy * dy + dz * dz
                    if d2 < best_d2:
                        best_d2 = d2
                        best = j
                for j in range(a2, b2):
                    dx = x[i] - x[j]
                    dy = y[i] - y[j]
                    dz = z[i] - z[j]
                    d2 = dx * dx + dy * dy + dz * dz
                    if d2 < best_d2:
                        best_d2 = d2
                        best = j
                if best >= 0:
                    plab = labels[best]
                    if lab == 0:
                        lab = plab
                    elif lab != plab:
                        merges.append((lab, plab))
            if lab == 0:
                lab = next_label
                next_label += 1
            labels[i] = lab
        # azimuth wraparound closes the ring: test first against last
        if e - s >= 2:
            dx = x[s] - x[e - 1]
            dy = y[s] - y[e - 1]
            dz = z[s] - z[e - 1]
            if dx * dx + dy * dy + dz * dz < th_ring2:
                la = labels[s]
                lb = labels[e - 1]
                if la != lb:
                    merges.append((la, lb))
    return labels, merges


def scalar_cluster_ids(x, y, z, az, halfwin, starts, th_ring, th_prop) -> np.ndarray:
    """The scan's ids after merging each label class to its smallest id."""
    labels, merges = scalar_cluster_scan(x, y, z, az, halfwin, starts,
                                         th_ring, th_prop)
    parent: dict[int, int] = {}

    def find(a: int) -> int:
        while parent.get(a, a) != a:
            a = parent[a]
        return a

    for a, b in merges:
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return np.array([find(int(lab)) for lab in labels], dtype=np.int64)


# ---------------------------------------------------------------------------
# Synthetic frames: every ray against every object, the cast that
# `generate_synthetic_scene` narrows to each object's azimuth window.


def all_rays_scene(spec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ring ids, owner, labels, xyz) of a valid spec, casting every ray of
    the frame against the ground and then each object in turn; a strictly
    nearer return takes the ray, so ties go to the ground, then the first
    object. The directions, ray tests and noise draw are the generator's."""
    normal, offset = spec.ground_plane()
    elevations = np.radians(
        np.linspace(spec.elevation_min_deg, spec.elevation_max_deg, spec.num_rings))
    a = spec.points_per_ring
    step = TWO_PI / a
    azimuths = step / 2.0 + step * np.arange(a)
    cos_el = np.array([math.cos(el) for el in elevations])[:, None]
    sin_el = np.array([math.sin(el) for el in elevations])[:, None]
    dirs = np.stack(np.broadcast_arrays(cos_el * np.cos(azimuths), cos_el * np.sin(azimuths),
                                        sin_el), axis=-1).reshape(-1, 3)
    nd = dirs @ normal
    with np.errstate(divide="ignore", invalid="ignore"):
        t_all = np.where(nd < -1e-12, -offset / nd, np.inf)
    owner = np.full(t_all.shape[0], -1, dtype=np.int64)
    for k, obj in enumerate(spec.objects):
        z_base = synth._object_z_base(obj, normal, offset)
        t = synth._object_distances(obj, z_base, dirs)
        nearer = t < t_all
        t_all[nearer] = t[nearer]
        owner[nearer] = k
    if spec.noise_sigma > 0:
        noise = np.random.default_rng(spec.rng_seed).normal(0.0, spec.noise_sigma, t_all.size)
        t_all = np.maximum(t_all + noise, 1e-3)
    class_of = np.array([0] + [obj.class_id for obj in spec.objects], dtype=np.uint8)
    ring_ids = np.repeat(np.arange(spec.num_rings, dtype=np.int32), a)
    return ring_ids, owner, class_of[owner + 1], dirs * t_all[:, None]


def _row_moments(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum of p and sum of p p^T over the columns of a (3, n) x, y, z matrix."""
    x, y, z = rows
    xy, xz, yz = x @ y, x @ z, y @ z
    return rows.sum(axis=1), np.array([[x @ x, xy, xz], [xy, y @ y, yz], [xz, yz, z @ z]])


def full_round_ground_fit(cloud, segment_idx: np.ndarray, params):
    """`ground.ground_plane_fit` with every segment taking all `n_iter` rounds.

    This is the fit from before the fixed-point stop: each round selects
    the points within th_dist of the plane fitted to the previous
    selection, whether or not the selection moved, and the moments come
    from a centered copy of the segment's points. A segment that is empty
    or whose fit degenerates on any round gets no plane and no ground
    points. Returns (ground mask, plane per segment).
    """
    mask = np.zeros(len(cloud), dtype=bool)
    planes = [None] * params.n_seg
    for seg in range(params.n_seg):
        members = segment_idx == seg
        pts_t = np.compress(members, cloud.xyz.T, axis=1)
        if pts_t.shape[1] == 0:
            continue
        selected = ground._seed_mask(pts_t[2], params.n_lpr, params.th_seeds)
        shift = pts_t.mean(axis=1)
        centered = pts_t - shift[:, None]
        total = _row_moments(centered)
        try:
            for _ in range(params.n_iter):
                count = int(np.count_nonzero(selected))
                if 2 * count >= selected.size:
                    first, second = _row_moments(np.compress(~selected, centered, axis=1))
                    first, second = total[0] - first, total[1] - second
                else:
                    first, second = _row_moments(np.compress(selected, centered, axis=1))
                model = ground._plane_from_moments(count, first, second, shift)
                selected = np.abs(model.normal @ pts_t + model.offset) < params.th_dist
        except DegenerateGeometryError:
            continue
        planes[seg] = model
        mask[members] = selected
    return mask, planes
