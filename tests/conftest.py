import math
from dataclasses import replace

import numpy as np
import pytest

from ringseg import PointCloud, fit_boxes
from ringseg.cloud import ClassId
from ringseg.ground import segment_bounds, segment_of
from ringseg.samples import record_dtype, write_variants
from ringseg.synth import ObjectSpec, SceneSpec, sample_traffic_scene

from oracles import archive_records, resampled_variants


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def x_segments(cloud: PointCloud, n_seg: int) -> np.ndarray:
    """Each point's ground segment, binned as `run_stage1` bins a frame."""
    x = cloud.xyz[:, 0]
    return segment_of(x, *segment_bounds(x, n_seg), n_seg)


def fit_box(points: np.ndarray, normal):
    """The box `fit_boxes` fits to `points` as a cluster of its own."""
    return fit_boxes(points, [0, len(points)], normal).box(0)


def written_variants(sample, n_points: int, keys):
    """`write_variants`' records of a sample's variants 0..k-1, variant j
    resampled with `default_rng(keys[j])`, checked bit for bit against the
    oracle chain (per-matrix isometries, per-sample resampling and feature
    rows); with the oracle's float64 resampled variants."""
    keys = list(keys)
    records = np.zeros(len(keys), dtype=record_dtype(n_points))
    write_variants(records, sample, [np.random.default_rng(key) for key in keys])
    want = resampled_variants(sample, n_points, [np.random.default_rng(key) for key in keys])
    assert records.tobytes() == archive_records(sample, want).tobytes(), \
        "write_variants diverged from the per-object oracle chain"
    return records, want


def random_ring_scene(rng, max_points: int = 300, min_rings: int = 4,
                      max_rings: int = 8) -> PointCloud:
    """Random multi-ring cloud satisfying the clustering preconditions:
    ring ids contiguous non-decreasing, azimuth ascending within a ring.

    Azimuths come from a mix of uniform spread and tight blobs so that
    runs, wraparound pairs and cross-ring merges all occur.
    """
    num_rings = int(rng.integers(min_rings, max_rings + 1))
    total = int(rng.integers(num_rings, max_points + 1))
    counts = rng.multinomial(total, np.ones(num_rings) / num_rings)
    xyz = []
    ring_ids = []
    for r, count in enumerate(counts):
        if count == 0:
            continue
        if rng.random() < 0.5:
            az = np.sort(rng.uniform(0.0, 2 * np.pi, count))
        else:
            centers = rng.uniform(0.0, 2 * np.pi, max(1, count // 20))
            az = np.sort(
                (rng.choice(centers, count) + rng.normal(0, 0.08, count)) % (2 * np.pi)
            )
        radius = rng.uniform(2.0, 30.0, count)
        z = rng.uniform(-1.0, 2.0, count) + 0.02 * r
        xyz.append(np.column_stack([radius * np.cos(az), radius * np.sin(az), z]))
        ring_ids.append(np.full(count, r, dtype=np.int32))
    xyz = np.concatenate(xyz)
    ring_ids = np.concatenate(ring_ids)
    return PointCloud(xyz=xyz, intensity=np.zeros(len(xyz)), ring_ids=ring_ids)


def random_cloud(rng, n: int) -> PointCloud:
    """Random cloud with float32-representable values (file round-trips)."""
    xyz = rng.uniform(-80, 80, (n, 3)).astype(np.float32).astype(np.float64)
    intensity = rng.random(n, dtype=np.float32).astype(np.float64)
    return PointCloud(xyz=xyz, intensity=intensity)


def clutter_scene(seed: int = 0, n_poles: int = 30) -> SceneSpec:
    """`sample_traffic_scene(seed)` plus `n_poles` thin background poles.

    Poles stand at 5-30 m, more than 1.2 m clear of every other footprint
    and outside the azimuth span of every traffic object, so the traffic
    stays fully visible. Most pole clusters fail the size prior, which makes
    this the frame where the filter rejects more clusters than it keeps.
    """
    base = sample_traffic_scene(seed)
    rng = np.random.default_rng([seed, 0xC1])
    placed = list(base.objects)

    def span(o):
        d = math.hypot(o.x, o.y)
        return math.atan2(o.y, o.x), math.asin(min(1.0, (o.footprint_radius() + 0.3) / d))

    while len(placed) < len(base.objects) + n_poles:
        d, a = rng.uniform(5.0, 30.0), rng.uniform(0.0, 2 * math.pi)
        pole = ObjectSpec(class_id=int(ClassId.BACKGROUND), shape="cylinder",
                          x=d * math.cos(a), y=d * math.sin(a),
                          radius=float(rng.uniform(0.08, 0.2)),
                          height=float(rng.uniform(1.0, 3.5)))
        az, half = span(pole)
        clear = all(math.hypot(o.x - pole.x, o.y - pole.y)
                    > o.footprint_radius() + pole.radius + 1.2 for o in placed)
        for o in base.objects:
            gap = abs(az - span(o)[0]) % (2 * math.pi)
            clear &= min(gap, 2 * math.pi - gap) > half + span(o)[1]
        if clear:
            placed.append(pole)
    return replace(base, objects=tuple(placed))
