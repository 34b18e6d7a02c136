"""Vectorized numpy kernel for the ring-order cluster scan.

Clustering reads like a sequential scan, but needs no per-point
interpreter loop. It links consecutive ring points by their squared
distance and finds every point's nearest previous-ring neighbour inside
its azimuth window, enumerated as (point, candidate) pairs and reduced
per point with `np.minimum.reduceat`. Connected components are taken
over whole runs. A point's id is the number of "openers" (points with
neither link) up to the first point of its component, which is the id a
one-pass scan assigns on first encounter and keeps after merging
conflicting labels to the smallest.

It gives the same ids as the scalar scan it replaces (kept as an oracle
in the test suite): distances use the scan's `dx*dx + dy*dy + dz*dz` in
the same order, the same strict `<` thresholds, and the same
binary searches over each ring's ascending azimuths.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi

# rounding margin added to every asin-derived azimuth half-window
WINDOW_MARGIN = 1e-7
# candidate pairs evaluated at once; bounds the temporary arrays of frames
# where many points search a whole previous ring
_PAIR_CHUNK = 1 << 18


def _sq_dist(x, y, z, a, b) -> np.ndarray:
    """Squared distances between points a and b, in the scan's order."""
    dx = x[a] - x[b]
    dy = y[a] - y[b]
    dz = z[a] - z[b]
    d2 = dx * dx
    d2 += dy * dy
    d2 += dz * dz
    return d2


def _previous_ring_nearest(x, y, z, ring, starts, th_prop) -> np.ndarray:
    """Index of each point's nearest previous-ring neighbour, -1 for none.

    The neighbour must lie strictly closer than th_prop and inside the
    point's azimuth window (split in two when it wraps past 0/2pi, searched
    low range first); the first such point in window order wins ties. Any
    point within `reach` of a point at planar range r lies within
    asin(reach / r) of its azimuth, or anywhere once reach >= r. The reach
    is th_prop, or sqrt(ub) when closer, ub being the squared distance to
    the nearer of the two previous-ring points beside the point's azimuth:
    what that tighter window drops is strictly farther than a candidate.
    """
    th_prop2 = th_prop * th_prop
    az = np.arctan2(y, x)
    az = np.where(az < 0, az + TWO_PI, az)
    r = np.hypot(x, y)
    # every point's previous ring [ps, pe); empty on ring 0
    pe = starts[ring]
    ps = starts[np.maximum(ring - 1, 0)]
    m = pe - ps
    ring_len = np.diff(starts)
    searched = [(starts[k - 1], starts[k], starts[k + 1]) for k in range(1, ring_len.size)
                if ring_len[k] and ring_len[k - 1]]

    def bisect(values, side):
        """The scan's bisection of each point's value into its previous ring."""
        out = ps.copy()
        for p, s, e in searched:
            out[s:e] += np.searchsorted(az[p:s], values[s:e], side)
        return out

    # the previous-ring points on either side of each point's azimuth
    pos = bisect(az, "left") - ps
    wrap_m = np.maximum(m, 1)
    ub = np.minimum(_sq_dist(x, y, z, slice(None), ps + pos % wrap_m),
                    _sq_dist(x, y, z, slice(None), ps + (pos - 1) % wrap_m))
    reach = np.where((m > 0) & (ub < th_prop2), np.sqrt(ub), th_prop)
    w = np.full(x.shape[0], np.pi)
    part = reach < r
    w[part] = np.arcsin(reach[part] / r[part]) + WINDOW_MARGIN

    # index ranges [a1, b1) then [a2, pe) of each window, as the scan's
    # bisections over the previous ring would find them
    lo = az - w
    hi = az + w
    low_wrap = lo < 0.0
    high_wrap = ~low_wrap & (hi > TWO_PI)
    bl = bisect(np.where(low_wrap, lo + TWO_PI, lo), "left")
    br = bisect(np.where(high_wrap, hi - TWO_PI, hi), "right")
    full = w >= np.pi
    wrap = (low_wrap | high_wrap) & ~full
    a1 = np.where(full | wrap, ps, bl)
    b1 = np.where(full, pe, br)
    a2 = np.where(wrap, bl, pe)

    # every window as (point, candidate) pairs, a chunk at a time: per point
    # the low range, then the high range
    best = np.full(x.shape[0], -1, dtype=np.int64)
    len1 = b1 - a1
    len2 = pe - a2
    open_ = np.flatnonzero(len1 + len2)
    len1, len2 = len1[open_], len2[open_]
    count = len1 + len2
    done = np.cumsum(count)
    first = 0
    while first < open_.size:
        last = int(np.searchsorted(done, done[first] - count[first] + _PAIR_CHUNK, "right"))
        sel = slice(first, max(last, first + 1))
        first = sel.stop
        q, c = open_[sel], count[sel]
        runs = np.stack([len1[sel], len2[sel]], axis=1).ravel()
        run_at = np.stack([a1[q], a2[q]], axis=1).ravel()
        offset = np.cumsum(runs) - runs
        cand = np.arange(int(c.sum())) + np.repeat(run_at - offset, runs)
        seg = np.cumsum(c) - c
        d2 = _sq_dist(x, y, z, np.repeat(q, c), cand)
        dmin = np.minimum.reduceat(d2, seg)
        # first position of each point's minimum, i.e. first in window order
        at_min = np.flatnonzero(d2 == np.repeat(dmin, c))
        pick = at_min[np.searchsorted(at_min, seg)]
        closer = dmin < th_prop2
        best[q[closer]] = cand[pick[closer]]
    return best


def min_label_components(num_nodes: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Smallest node id of every node's connected component.

    Hook the larger root of each unsatisfied edge under the smaller, then
    compress by pointer jumping; roots only decrease, so each component
    ends rooted at its minimum.
    """
    root = np.arange(num_nodes, dtype=np.int64)
    while u.size:
        ru, rv = root[u], root[v]
        open_ = ru != rv
        if not open_.any():
            break
        u, v, ru, rv = u[open_], v[open_], ru[open_], rv[open_]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    return root


def cluster_scan(x, y, z, ring_ids, th_ring, th_prop) -> np.ndarray:
    """Ring clustering: intra-ring runs plus previous-ring propagation.

    Points come grouped by their non-negative, non-decreasing `ring_ids`
    and ascending in azimuth within each ring. Consecutive points of a
    ring link when closer than th_ring; so do its first and last points,
    closing the ring. Each point also links to its nearest neighbour on
    ring r-1 when that distance is below th_prop. The scan geometry (ring
    starts, azimuths in [0, 2pi), planar ranges and the azimuth windows
    that cannot miss such a neighbour) is derived here, once per call.

    Returns int64 ids >= 1 per point: the components of the link graph,
    numbered in order of their first point.
    """
    n = x.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    th_ring2 = float(th_ring) * float(th_ring)
    ring = np.asarray(ring_ids)
    starts = np.searchsorted(ring, np.arange(int(ring[-1]) + 2))
    filled = np.diff(starts) > 0
    ring_starts = starts[:-1][filled]

    intra = np.zeros(n, dtype=bool)
    intra[1:] = _sq_dist(x, y, z, slice(1, None), slice(None, -1)) < th_ring2
    intra[ring_starts] = False
    run = np.cumsum(~intra) - 1
    run_first = np.flatnonzero(~intra)

    best = _previous_ring_nearest(x, y, z, ring, starts, float(th_prop))
    linked = best >= 0
    opener = ~intra & ~linked

    ring_ends = starts[1:][filled] - 1
    pair = ring_ends > ring_starts
    closes = _sq_dist(x, y, z, ring_starts[pair], ring_ends[pair]) < th_ring2
    u = np.concatenate([run[linked], run[ring_starts[pair][closes]]])
    v = np.concatenate([run[best[linked]], run[ring_ends[pair][closes]]])
    component = min_label_components(run_first.size, u, v)
    return np.cumsum(opener)[run_first[component[run]]]
