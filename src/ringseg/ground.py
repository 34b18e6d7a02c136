"""Segmented iterative ground-plane estimation and ground-point removal.

The scene is split into equal-width segments along the driving (x) axis;
each segment seeds a plane from its lowest points and alternates total
least-squares fitting with inlier re-selection. The final ground mask is
the union of the per-segment inlier sets. `GroundParams`, the fit's
parameters, is declared in `config`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .config import GroundParams
from .errors import DegenerateGeometryError

log = logging.getLogger(__name__)

# two smallest covariance eigenvalues closer than this have no unique
# smallest-variance direction
_EIG_DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class PlaneModel:
    """Plane {p : normal . p + offset = 0} with unit normal, positive z."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=np.float64)
        n.setflags(write=False)
        object.__setattr__(self, "normal", n)


def segment_bounds(x: np.ndarray, n_seg: int) -> tuple[float, float]:
    """(lo, width) of the equal-width partition of the x range into n_seg bins."""
    if n_seg < 1:
        raise ValueError("n_seg must be >= 1")
    if x.size == 0:
        return 0.0, 0.0
    lo = float(x.min())
    return lo, (float(x.max()) - lo) / n_seg


def segment_of(x, lo: float, width: float, n_seg: int):
    """Bin of x (a scalar or an array) in the partition (lo, width).

    Points exactly on an interior boundary fall into the lower bin; the
    maximum x falls into bin n_seg - 1.
    """
    if width == 0.0:
        return np.zeros(np.shape(x), dtype=np.int64)
    return np.clip(np.ceil((x - lo) / width).astype(np.int64) - 1, 0, n_seg - 1)


def _seed_mask(z: np.ndarray, n_lpr: int, th_seeds: float) -> np.ndarray:
    """Seeds of a segment with heights z: every point lower than (mean of
    the n_lpr lowest) + th_seeds.

    The mean of the lowest points is a robust stand-in for the ground level;
    the band above it collects the seed set. Never empty: the lowest point
    always qualifies.
    """
    if z.size == 0:
        raise ValueError("segment must be non-empty")
    k = min(n_lpr, z.size)
    lowest = np.partition(z, k - 1)[:k]
    return z < lowest.mean() + th_seeds


def _moments(rows: np.ndarray, shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum of p and sum of p p^T over the columns of a (3, n) x, y, z
    matrix, each column taken about `shift`.

    Two centered rows are held at a time, never a centered copy of the
    matrix: on a frame's largest segment that copy was 2.3 MB, which a
    process under glibc's default allocator settings faulted in again on
    every frame. The sums equal those over the rows of the copy.
    """
    a, b = rows[0] - shift[0], rows[1] - shift[1]
    sx, sy, xx, xy, yy = a.sum(), b.sum(), a @ a, a @ b, b @ b
    np.subtract(rows[2], shift[2], out=b)  # z
    sz, xz, zz = b.sum(), a @ b, b @ b
    np.subtract(rows[1], shift[1], out=a)  # y again
    yz = a @ b
    return np.array([sx, sy, sz]), np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]])


def _plane_from_moments(count: int, first: np.ndarray, second: np.ndarray,
                        shift: np.ndarray) -> PlaneModel:
    """Total least-squares plane of `count` points given their moments
    about `shift` (a point near them, so the moments stay small)."""
    if count < 3:
        raise DegenerateGeometryError(f"{count} point(s), need >= 3")
    mean = first / count
    cov = second / count - mean[:, None] * mean
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals[1] - eigvals[0] <= _EIG_DEGENERACY_TOL:
        raise DegenerateGeometryError("covariance has no unique smallest eigenvalue")
    normal = eigvecs[:, 0]
    if normal[2] < 0:
        normal = -normal
    return PlaneModel(normal=normal, offset=float(-normal @ (shift + mean)))


def ground_plane_fit(
    cloud: PointCloud,
    segment_idx: np.ndarray,
    params: GroundParams,
) -> tuple[np.ndarray, list[PlaneModel | None]]:
    """Iterative per-segment ground extraction.

    Per segment: seed from the low-height band, then at most n_iter rounds
    of fit-plane / re-select points within th_dist perpendicular distance.
    The rounds end early once a round re-selects the points it was fitted
    on: every later round would fit the same plane to the same points, so
    the mask and planes are those of all n_iter rounds, bit for bit.
    A segment whose fit degenerates (or that is empty) contributes no
    ground points and a warning; the frame is never aborted.

    Returns (ground mask over the full cloud, plane per segment).
    """
    n = len(cloud)
    mask = np.zeros(n, dtype=bool)
    planes: list[PlaneModel | None] = [None] * params.n_seg
    for seg in range(params.n_seg):
        members = segment_idx == seg
        pts_t = np.compress(members, cloud.xyz.T, axis=1)
        if pts_t.shape[1] == 0:
            log.warning("segment %d: empty, no ground contribution", seg)
            continue
        ground_sel = _seed_mask(pts_t[2], params.n_lpr, params.th_seeds)
        # moments about the segment mean, once; each round takes the moments
        # of whichever side of the selection is smaller, and most points
        # stay selected from round to round
        shift = pts_t.mean(axis=1)
        total = _moments(pts_t, shift)
        dist = np.empty(pts_t.shape[1])
        model = None
        count = int(np.count_nonzero(ground_sel))
        try:
            for _ in range(params.n_iter):
                if 2 * count >= ground_sel.size:
                    first, second = _moments(np.compress(~ground_sel, pts_t, axis=1), shift)
                    first, second = total[0] - first, total[1] - second
                else:
                    first, second = _moments(np.compress(ground_sel, pts_t, axis=1), shift)
                model = _plane_from_moments(count, first, second, shift)
                np.matmul(model.normal, pts_t, out=dist)
                dist += model.offset
                fitted, fitted_count = ground_sel, count
                ground_sel = np.abs(dist, out=dist) < params.th_dist
                count = int(np.count_nonzero(ground_sel))
                # a fixed point: the counts differ on most rounds that move
                if count == fitted_count and not np.count_nonzero(ground_sel ^ fitted):
                    break
        except DegenerateGeometryError as exc:
            log.warning("segment %d: degenerate ground fit (%s), skipped", seg, exc)
            continue
        planes[seg] = model
        mask[members] = ground_sel
    return mask, planes
