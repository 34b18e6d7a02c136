"""Oriented boxes and proposals, the types that stage 1 hands to `prepare`.

A box is ground-aligned: its z axis is a unit ground normal and its yaw
rotates about that normal from a fixed in-plane basis (`plane_basis`).
A proposal is a surviving cluster's member indices with its box. They
live apart from `refine`, which fits the boxes, so that `prepare`, which
only reads them, loads no box-fit code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.cross carries ~10x call overhead for single 3-vectors
    return np.array([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


def plane_basis(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic right-handed in-plane basis (e1, e2) for a unit normal.

    e1 is the world x axis projected into the plane (world y when the
    normal is nearly x); e2 = normal x e1.
    """
    n = np.asarray(normal, dtype=np.float64)
    ref = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = ref - (ref @ n) * n
    e1 /= np.linalg.norm(e1)
    return e1, _cross3(n, e1)


@dataclass(frozen=True)
class OrientedBBox:
    """Box with z-axis along `normal`, rotated by `yaw` about it.

    half_extents are (x, y) in the box frame and z along the normal; yaw
    is normalized to [0, pi) because the rectangle is symmetric under a
    half turn.
    """

    center: np.ndarray
    yaw: float
    half_extents: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.center, dtype=np.float64)
        h = np.asarray(self.half_extents, dtype=np.float64)
        n = np.asarray(self.normal, dtype=np.float64)
        for a in (c, h, n):
            a.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "half_extents", h)
        object.__setattr__(self, "normal", n)
        # a yaw just below 0 folds to exactly pi, which folding again would
        # turn into 0.0, a half turn of the box axes
        yaw = float(self.yaw) % math.pi
        object.__setattr__(self, "yaw", 0.0 if yaw == math.pi else yaw)

    @cached_property
    def _axes(self) -> np.ndarray:
        e1, e2 = plane_basis(self.normal)
        bx = math.cos(self.yaw) * e1 + math.sin(self.yaw) * e2
        by = _cross3(self.normal, bx)
        return np.column_stack([bx, by, self.normal])

    def axes(self) -> np.ndarray:
        """3x3 matrix whose columns are the box x, y, z axes."""
        return self._axes

    def to_local(self, xyz: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(xyz) - self.center) @ self.axes()

    def contains(self, xyz: np.ndarray) -> np.ndarray:
        local = np.abs(self.to_local(xyz))
        # column by column: a row-wise all() over 3 values is a slow reduction
        inside = local[:, 0] <= self.half_extents[0]
        inside &= local[:, 1] <= self.half_extents[1]
        inside &= local[:, 2] <= self.half_extents[2]
        return inside


@dataclass(frozen=True)
class Proposal:
    """A surviving cluster: members index into the full cloud."""

    cluster_id: int
    member_indices: np.ndarray
    bbox: OrientedBBox
    distance: float

    def __post_init__(self):
        m = np.asarray(self.member_indices, dtype=np.int64)
        m.setflags(write=False)
        object.__setattr__(self, "member_indices", m)
