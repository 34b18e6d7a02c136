import numpy as np
import pytest

from ringseg import (
    DegenerateGeometryError,
    GroundParams,
    PointCloud,
    generate_synthetic_scene,
    ground_plane_fit,
)
from ringseg import ground
from ringseg.ground import segment_bounds, segment_of
from ringseg.synth import ObjectSpec, SceneSpec, sample_traffic_scene

from conftest import clutter_scene, x_segments
from oracles import full_round_ground_fit


def _seeds(points, n_lpr, th_seeds):
    """Indices of the seeds `ground_plane_fit` starts a segment from."""
    return np.flatnonzero(ground._seed_mask(np.asarray(points)[:, 2], n_lpr, th_seeds))


def _fit_plane(points):
    """The plane `ground_plane_fit` fits to a selection: its moments about
    their mean, then the total least-squares solve."""
    rows = np.array(np.asarray(points, dtype=np.float64).T, order="C")
    shift = rows.mean(axis=1)
    return ground._plane_from_moments(rows.shape[1], *ground._moments(rows, shift), shift)


def _cloud(xyz):
    xyz = np.asarray(xyz, dtype=np.float64)
    return PointCloud(xyz=xyz, intensity=np.zeros(len(xyz)))


def test_split_segments_equal_width():
    cloud = _cloud([[0, 0, 0], [5, 0, 0], [10, 0, 0]])
    np.testing.assert_array_equal(x_segments(cloud, 2), [0, 0, 1])


def test_split_segments_single():
    cloud = _cloud(np.random.default_rng(0).normal(size=(40, 3)))
    np.testing.assert_array_equal(x_segments(cloud, 1), np.zeros(40))


def test_split_segments_empty():
    assert x_segments(_cloud(np.empty((0, 3))), 3).size == 0


def test_split_segments_matches_recomputation(rng):
    x = rng.uniform(-40, 40, 500)
    lo, width = segment_bounds(x, 3)
    assert (lo, width) == (x.min(), (x.max() - x.min()) / 3)
    x = np.concatenate([x, lo + width * np.arange(4)])  # every bin boundary
    cloud = _cloud(np.column_stack([x, np.zeros(x.size), np.zeros(x.size)]))
    seg = x_segments(cloud, 3)
    for xi, si in zip(x, seg):
        expect = min(max(int(np.ceil((xi - lo) / width)) - 1, 0), 2)
        assert si == expect
        # the box fit bins one scalar per cluster with the same rule
        assert segment_of(xi, lo, width, 3) == expect
    assert segment_of(0.0, *segment_bounds(np.zeros(4), 3), 3) == 0


def test_seeds_low_band():
    z = np.random.default_rng(1).uniform(-1.7, -1.5, 100)
    pts = np.column_stack([np.zeros(100), np.zeros(100), z])
    seeds = _seeds(pts, n_lpr=20, th_seeds=0.4)
    assert seeds.size == 100


def test_seeds_exclude_objects():
    rng = np.random.default_rng(2)
    ground_z = rng.uniform(-1.75, -1.65, 200)
    object_z = rng.uniform(0.0, 1.5, 50)
    z = np.concatenate([ground_z, object_z])
    pts = np.column_stack([np.zeros(250), np.zeros(250), z])
    seeds = _seeds(pts, n_lpr=20, th_seeds=0.4)
    assert seeds.max() < 200


def test_seeds_match_bruteforce(rng):
    for _ in range(50):
        n = int(rng.integers(5, 400))
        pts = rng.normal(0, 2, (n, 3))
        n_lpr = int(rng.integers(3, 40))
        th = float(rng.uniform(0.05, 1.0))
        seeds = _seeds(pts, n_lpr, th)
        z = pts[:, 2]
        h = np.sort(z)[: min(n_lpr, n)].mean()
        np.testing.assert_array_equal(seeds, np.flatnonzero(z < h + th))
        assert seeds.size >= 1


def test_fit_plane_exact():
    model = _fit_plane(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]))
    np.testing.assert_allclose(model.normal, [0, 0, 1], atol=1e-12)
    assert abs(model.offset) < 1e-12


def test_fit_plane_offset_plane(rng):
    pts = np.column_stack([rng.uniform(-5, 5, 50), rng.uniform(-5, 5, 50),
                           np.full(50, 0.5)])
    model = _fit_plane(pts)
    np.testing.assert_allclose(model.normal, [0, 0, 1], atol=1e-9)
    assert abs(model.offset + 0.5) < 1e-9


def test_fit_plane_matches_svd_oracle(rng):
    true_n = np.array([0.05, -0.08, 1.0])
    true_n /= np.linalg.norm(true_n)
    pts = rng.uniform(-10, 10, (500, 3))
    pts[:, 2] = (-true_n[0] * pts[:, 0] - true_n[1] * pts[:, 1]) / true_n[2]
    pts += rng.normal(0, 0.01, pts.shape)
    model = _fit_plane(pts)
    centered = pts - pts.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    oracle = vt[2] if vt[2][2] > 0 else -vt[2]
    angle = np.degrees(np.arccos(np.clip(model.normal @ oracle, -1, 1)))
    assert angle < 0.5


def test_fit_plane_degenerate_cases():
    with pytest.raises(DegenerateGeometryError):
        _fit_plane(np.array([[0.0, 0, 0], [1, 1, 1]]))
    line = np.outer(np.linspace(0, 1, 30), [1.0, 2.0, 0.5])
    with pytest.raises(DegenerateGeometryError):
        _fit_plane(line)


def _scene(tilt=0.0, clearance=0.5, seed=0):
    objects = (
        ObjectSpec(class_id=1, shape="box", x=9.0, y=2.0, yaw_deg=40,
                   length=4.2, width=1.8, height=1.5, clearance=clearance),
        ObjectSpec(class_id=2, shape="cylinder", x=-6.0, y=-7.0,
                   radius=0.4, height=1.7, clearance=clearance),
    )
    return SceneSpec(num_rings=32, points_per_ring=400, noise_sigma=0.02,
                     ground_tilt_deg=tilt, rng_seed=seed, objects=objects,
                     elevation_min_deg=-24.0,
                     elevation_max_deg=min(-0.8, -(abs(tilt) + 0.6)))


@pytest.mark.parametrize("tilt", [0.0, 5.0])
def test_ground_fit_analytic_membership(tilt):
    scene = generate_synthetic_scene(_scene(tilt=tilt))
    cloud = scene.cloud
    params = GroundParams()
    mask, planes = ground_plane_fit(cloud, x_segments(cloud, params.n_seg), params)
    dist = np.abs(cloud.xyz @ scene.ground_normal + scene.ground_offset)
    analytic = dist < params.th_dist
    checkable = np.abs(dist - params.th_dist) > 0.1
    agree = (mask[checkable] == analytic[checkable]).mean()
    assert agree >= 0.99


def test_ground_fit_planar_cloud_all_ground(rng):
    pts = np.column_stack([rng.uniform(-30, 30, 2000), rng.uniform(-30, 30, 2000),
                           np.full(2000, -1.7)])
    cloud = _cloud(pts)
    params = GroundParams()
    mask, planes = ground_plane_fit(cloud, x_segments(cloud, params.n_seg), params)
    assert mask.all()
    assert all(p is not None for p in planes)


def test_ground_fit_rms_non_increasing_on_planar_input(rng):
    pts = np.column_stack([rng.uniform(-30, 30, 3000), rng.uniform(-30, 30, 3000),
                           np.full(3000, -1.7)])
    cloud = _cloud(pts)

    def rms_after(n_iter):
        params = GroundParams(n_iter=n_iter)
        mask, planes = ground_plane_fit(cloud, x_segments(cloud, 3), params)
        total = 0.0
        seg = x_segments(cloud, 3)
        for s, plane in enumerate(planes):
            sel = mask & (seg == s)
            if plane is None or not sel.any():
                continue
            total += float(((cloud.xyz[sel] @ plane.normal + plane.offset) ** 2).sum())
        return np.sqrt(total / mask.sum())

    assert rms_after(3) <= rms_after(2) + 1e-12


def test_ground_mask_translation_invariant():
    scene = generate_synthetic_scene(_scene(seed=5))
    cloud = scene.cloud
    params = GroundParams()
    base, _ = ground_plane_fit(cloud, x_segments(cloud, 3), params)
    shifted = PointCloud(xyz=cloud.xyz + np.array([13.0, -4.0, 0.0]),
                         intensity=cloud.intensity)
    moved, _ = ground_plane_fit(shifted, x_segments(shifted, 3), params)
    np.testing.assert_array_equal(base, moved)


def test_high_point_never_flips_mask():
    scene = generate_synthetic_scene(_scene(seed=6))
    cloud = scene.cloud
    params = GroundParams()
    base, _ = ground_plane_fit(cloud, x_segments(cloud, 3), params)
    mid_x = float(cloud.xyz[:, 0].mean())
    extra = np.vstack([cloud.xyz, [[mid_x, 0.0, 10.0]]])
    bigger = PointCloud(xyz=extra, intensity=np.zeros(len(extra)))
    grown, _ = ground_plane_fit(bigger, x_segments(bigger, 3), params)
    np.testing.assert_array_equal(grown[:-1], base)
    assert not grown[-1]


def test_degenerate_segment_warns_not_raises(caplog):
    # all points share one line: every fit in the only segment degenerates
    line = np.outer(np.linspace(0, 9, 50), [1.0, 0.0, 0.0])
    cloud = _cloud(line)
    params = GroundParams(n_seg=1)
    mask, planes = ground_plane_fit(cloud, x_segments(cloud, 1), params)
    assert not mask.any()
    assert planes == [None]


def test_mask_length_matches_cloud():
    scene = generate_synthetic_scene(_scene(seed=7))
    mask, _ = ground_plane_fit(scene.cloud, x_segments(scene.cloud, 3),
                               GroundParams())
    assert mask.shape == (len(scene.cloud),)


def test_params_validated():
    with pytest.raises(ValueError):
        GroundParams(n_seg=0)
    with pytest.raises(ValueError):
        GroundParams(n_lpr=2)
    with pytest.raises(ValueError):
        GroundParams(th_dist=0.0)
    # the functions check the arguments that no GroundParams carries
    with pytest.raises(ValueError, match="n_seg must be >= 1"):
        segment_bounds(np.zeros(3), 0)
    with pytest.raises(ValueError, match="segment must be non-empty"):
        _seeds(np.empty((0, 3)), 20, 0.4)


def _fixed_point_clouds():
    """Traffic seeds 0-11 flat and tilted, the clutter frame, and a frame
    of three crafted segments. The first degenerates on its second round:
    the first round drops the two points off its line. In the middle one,
    the first round swaps a seed 0.36 m above the sloped ground for a
    non-seed 0.25 m above it, so the count stays and the plane still
    moves. The last holds two points, too few."""
    for seed in range(12):
        for tilt in (0.0, 3.0, 8.0):
            yield f"traffic {seed} tilt {tilt}", generate_synthetic_scene(
                sample_traffic_scene(seed, ground_tilt_deg=tilt)).cloud
    yield "clutter", generate_synthetic_scene(clutter_scene()).cloud
    line = np.column_stack([np.linspace(0.0, 9.0, 40), np.zeros(40), np.zeros(40)])
    line = np.vstack([line, [[4.5, 3.0, 0.35], [4.5, -3.0, 0.35]]])
    x = np.linspace(10.5, 19.5, 100)
    slope = np.column_stack([x, np.tile([-3.0, -1.0, 1.0, 3.0], 25), 0.02 * (x - 10.5)])
    slope = np.vstack([slope, [[10.5, 0.0, 0.36], [19.5, 0.0, 0.45]]])
    yield "crafted", _cloud(np.vstack([line, slope, [[29.0, 0, 0], [30.0, 1, 0]]]))


def test_ground_fit_stops_at_fixed_point_bit_for_bit(monkeypatch):
    # the stop must leave every mask and plane as all n_iter rounds give them,
    # while taking fewer plane solves where a selection stops moving
    solves = []
    solve = ground._plane_from_moments

    def counted(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(ground, "_plane_from_moments", counted)
    fewer = 0
    clouds = list(_fixed_point_clouds())
    for name, cloud in clouds:
        for n_iter in (1, 3, 10):
            params = GroundParams(n_iter=n_iter)
            seg = x_segments(cloud, params.n_seg)
            solves.clear()
            mask, planes = ground_plane_fit(cloud, seg, params)
            stopped = len(solves)
            solves.clear()
            want_mask, want_planes = full_round_ground_fit(cloud, seg, params)
            fewer += stopped < len(solves)
            assert np.array_equal(mask, want_mask), (name, n_iter)
            assert [p is None for p in planes] == [p is None for p in want_planes], (name, n_iter)
            for got, want in zip(planes, want_planes):
                if got is not None:
                    assert np.array_equal(got.normal, want.normal), (name, n_iter)
                    assert got.offset == want.offset, (name, n_iter)
            if name == "crafted":
                assert [p is None for p in planes] == [n_iter > 1, False, True], n_iter
    # at n_iter 3 and 10 every frame takes fewer solves; at 1 none can
    assert fewer == 2 * len(clouds), fewer
