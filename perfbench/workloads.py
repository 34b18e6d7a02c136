"""Seeded frame sets for the benchmark workloads.

Every object is drawn from `ringseg.synth.sample_traffic_scene`, so sizes,
headings and the sensor model are the generator's own. What the benchmark
fixes is where the load sits: each frame has a list of
(class, distance band) slots, and a slot is filled by drawing one-object
traffic scenes until one lands in its band, clear of the objects already
placed. Near objects cost far more than far ones, so stratifying the
distances keeps each frame's work, and so the frame set's, close from
seed to seed, while the seed still picks every position, size and heading.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from ringseg.cloud import ClassId
from ringseg.synth import ObjectSpec, SceneSpec, sample_traffic_scene

TWO_PI = 2.0 * math.pi
CAR, PED, CYC = int(ClassId.CAR), int(ClassId.PEDESTRIAN), int(ClassId.CYCLIST)
# sample_traffic_scene keeps pedestrians within 20 m and the rest within 35 m
_RANGE = {CAR: (8.0, 35.0), PED: (8.0, 20.0), CYC: (8.0, 35.0)}
_MAX_DRAWS = 20000


def _span(obj: ObjectSpec) -> tuple[float, float]:
    """Azimuth centre and half-width, as sample_traffic_scene reserves them."""
    d = math.hypot(obj.x, obj.y)
    return math.atan2(obj.y, obj.x) % TWO_PI, math.asin(
        min(1.0, (obj.footprint_radius() + 0.3) / d))


def _clear(obj: ObjectSpec, others, shadow) -> bool:
    """More than th_prop (plus margin) from every other footprint, and, for
    objects in `shadow`, azimuth-disjoint so neither hides the other."""
    a, w = _span(obj)
    for o in others:
        if math.hypot(o.x - obj.x, o.y - obj.y) <= (
                o.footprint_radius() + obj.footprint_radius() + 1.2):
            return False
    for o in shadow:
        b, v = _span(o)
        gap = abs(a - b)
        if min(gap, TWO_PI - gap) <= w + v:
            return False
    return True


def _traffic(rng, slots) -> list[ObjectSpec] | None:
    placed: list[ObjectSpec] = []
    for cls, lo, hi in sorted(slots, key=lambda s: s[1]):
        for _ in range(_MAX_DRAWS):
            obj = sample_traffic_scene(int(rng.integers(2**31)), n_objects=1).objects[0]
            if (obj.class_id == cls and lo <= math.hypot(obj.x, obj.y) < hi
                    and _clear(obj, placed, placed)):
                placed.append(obj)
                break
        else:
            return None
    return placed


def _poles(rng, count: int, traffic: list[ObjectSpec]) -> list[ObjectSpec]:
    """Thin background cylinders, one per distance band over 5-30 m."""
    poles: list[ObjectSpec] = []
    for i in range(count):
        lo = 5.0 + 25.0 * i / count
        for _ in range(_MAX_DRAWS):
            d = rng.uniform(lo, lo + 25.0 / count)
            a = rng.uniform(0.0, TWO_PI)
            pole = ObjectSpec(class_id=int(ClassId.BACKGROUND), shape="cylinder",
                              x=d * math.cos(a), y=d * math.sin(a),
                              radius=float(rng.uniform(0.08, 0.2)),
                              height=float(rng.uniform(1.0, 3.5)))
            if _clear(pole, traffic + poles, traffic):
                poles.append(pole)
                break
        else:
            raise RuntimeError(f"no room for pole {i}")
    return poles


WORKLOADS = {
    "open_road": {
        "frames": 20,
        # 0-4 cars and cyclists per frame, all beyond 20 m
        "classes": lambda k: [(CAR, CYC)[j % 2] for j in range(k % 5)],
        "range": {CAR: (20.0, 35.0), CYC: (20.0, 35.0)},
        "poles": 0,
        "why": "sparse frames: fixed per-point ring trace and ground fit dominate, "
               "clustering does little",
        "layers": "cloud.assign_rings, ground; the no-change side of clustering gains; "
                  "the CLI path",
        "not_covered": "dense clustering, merge load",
    },
    "dense_urban": {
        "frames": 6,
        "classes": lambda k: [CAR] * 4 + [PED] * 3 + [CYC] * 3,
        "range": _RANGE,
        "poles": 30,
        "why": "10 traffic objects at 8-35 m plus 30 thin poles: cluster scan, box fit, "
               "filter rejections and merge dominate",
        "layers": "clustering.scan, clustering.resolve, refine.boxfit/filter/merge; "
                  "the CLI path",
        "not_covered": "per-point cost at low object counts",
    },
}

GAPS = (
    "No workload has jittered or clockwise scan order: today those frames raise "
    "ScanFormatError or give 0 proposals with exit 0 (ROADMAP item 3); the fix adds "
    "that workload as its own change.",
    "The README's 'numba ~35 ms' figure cannot be measured here: numba is not "
    "installed, so only the pure-numpy kernels run.",
    "No separate dataset_build workload of acceptance-3 traffic frames: both "
    "workloads run its CLI path instead, so that runs can be long enough to be steady.",
)


def _stratified_slots(rng, wl) -> list[list[tuple[int, float, float]]]:
    """Per frame, (class, lo, hi) slots. Each class's distance range is cut
    into as many equal bands as the frame set has objects of that class.
    The bands are dealt nearest first: every frame's first object of the
    class gets one of the nearest bands, in a seeded frame order, then every
    frame's second object, and so on, so no frame gathers the near ones."""
    classes = [wl["classes"](k) for k in range(wl["frames"])]
    slots: list[list] = [[] for _ in classes]
    for cls, (lo, hi) in wl["range"].items():
        counts = [frame.count(cls) for frame in classes]
        owners = [k for tier in range(max(counts, default=0))
                  for k in rng.permutation(len(classes)) if counts[k] > tier]
        step = (hi - lo) / max(len(owners), 1)
        for band, k in enumerate(owners):
            slots[k].append((cls, lo + band * step, lo + (band + 1) * step))
    return slots


def frame_specs(workload: str, seed: int) -> list[SceneSpec]:
    """The workload's frame set for `seed`; the same seed gives the same specs."""
    wl = WORKLOADS[workload]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    base = sample_traffic_scene(0, n_objects=0)
    for _ in range(100):
        frames = [_traffic(rng, slots) for slots in _stratified_slots(rng, wl)]
        if all(f is not None for f in frames):
            break
    else:
        raise RuntimeError(f"{workload}: could not place the frame set for seed {seed}")
    return [replace(base, rng_seed=int(rng.integers(2**31)),
                    objects=tuple(traffic + _poles(rng, wl["poles"], traffic)))
            for traffic in frames]
