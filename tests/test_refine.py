import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringseg import (
    BoxTable,
    ClusterLabeling,
    OrientedBBox,
    PointCloud,
    Proposal,
    RefineParams,
    SizePrior,
    adaptive_threshold,
    enlarge_and_merge,
    filter_proposals,
    fit_boxes,
    load_config,
    run_stage1,
)
from ringseg import pipeline, refine
from ringseg.refine import plane_basis
from ringseg.synth import generate_synthetic_scene, sample_traffic_scene

from conftest import fit_box
from oracles import (
    brute_force_hull,
    per_cluster_box,
    points_in_oriented_box,
    scalar_hull_candidates,
    scalar_hull_vertices,
    sweep_min_rect_area,
    xcut_merge_candidates,
)

UP = np.array([0.0, 0.0, 1.0])


def _admits(prior, ext) -> bool:
    """Whether a size prior admits full extents, its x range matched to
    the longer horizontal extent."""
    sorted_ext = (max(ext[0], ext[1]), min(ext[0], ext[1]), ext[2])
    return all(lo <= e <= hi for lo, e, hi in zip(prior.mins, sorted_ext, prior.maxes))


def test_unit_square_axis_aligned():
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    box = fit_box(pts, UP)
    assert abs(4.0 * box.half_extents[0] * box.half_extents[1] - 1.0) < 1e-9
    assert min(box.yaw % (np.pi / 2), np.pi / 2 - box.yaw % (np.pi / 2)) < 1e-9


def test_unit_square_rotated_45():
    base = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    rot = base @ np.array([[c, s, 0], [-s, c, 0], [0, 0, 1.0]])
    box = fit_box(rot, UP)
    assert abs(4.0 * box.half_extents[0] * box.half_extents[1] - 1.0) < 1e-9
    assert abs(box.yaw % (np.pi / 2) - np.pi / 4) < 1e-9


def test_single_point_epsilon_box():
    box = fit_box(np.array([[3.0, 4.0, 5.0]]), UP)
    np.testing.assert_allclose(box.half_extents, 0.01)
    np.testing.assert_allclose(box.center, [3, 4, 5])


def test_collinear_points_get_valid_box():
    pts = np.outer(np.linspace(0, 2, 9), [1.0, 1.0, 0.0])
    box = fit_box(pts, UP)
    assert (box.half_extents > 0).all()
    assert abs(2 * box.half_extents[0] - np.sqrt(8)) < 1e-6


def test_calipers_vs_angle_sweep(rng):
    e1, e2 = plane_basis(UP)
    for _ in range(40):
        n = int(rng.integers(4, 60))
        pts = np.column_stack([rng.normal(0, 3, n), rng.normal(0, 1.5, n),
                               rng.uniform(0, 2, n)])
        box = fit_box(pts, UP)
        uv = np.column_stack([pts @ e1, pts @ e2])
        oracle = sweep_min_rect_area(uv)
        assert 4.0 * box.half_extents[0] * box.half_extents[1] <= oracle * 1.005 + 1e-12


def test_bbox_area_le_axis_aligned(rng):
    for _ in range(30):
        pts = rng.normal(0, 2, (int(rng.integers(3, 40)), 3))
        box = fit_box(pts, UP)
        aabb = ((pts[:, 0].max() - pts[:, 0].min())
                * (pts[:, 1].max() - pts[:, 1].min()))
        assert 4.0 * box.half_extents[0] * box.half_extents[1] <= aabb + 1e-9


def test_bbox_rotation_equivariance(rng):
    pts = rng.normal(0, 2, (30, 3))
    base = fit_box(pts, UP)
    ang = 0.7
    c, s = np.cos(ang), np.sin(ang)
    rot = pts @ np.array([[c, s, 0], [-s, c, 0], [0, 0, 1.0]])
    turned = fit_box(rot, UP)
    base_h, turned_h = base.half_extents, turned.half_extents
    assert abs(4.0 * turned_h[0] * turned_h[1] - 4.0 * base_h[0] * base_h[1]) < 1e-9
    dyaw = (turned.yaw - base.yaw - ang) % (np.pi / 2)
    assert min(dyaw, np.pi / 2 - dyaw) < 1e-7


def test_bbox_contains_members(rng):
    for _ in range(20):
        pts = rng.normal(0, 2, (25, 3))
        box = fit_box(pts, UP)
        local = np.abs(box.to_local(pts))
        assert (local <= box.half_extents + 1e-9).all()


def test_hull_prefilter_leaves_box_unchanged(rng, monkeypatch):
    def fit(pts, normal, filter_from):
        monkeypatch.setattr(refine, "_HULL_FILTER_MIN", filter_from)
        return fit_box(pts, normal)

    for k in range(60):
        n = int(rng.integers(3, 3000))
        if k % 3 == 0:
            pts = rng.normal(0, rng.uniform(0.2, 4), (n, 3))
        elif k % 3 == 1:  # L-shaped outline, like a car seen from a corner
            t = rng.uniform(0, 1, n)
            side = rng.random(n) < 0.5
            pts = np.column_stack([np.where(side, 4 * t, 0), np.where(side, 0, 2 * t),
                                   rng.uniform(0, 1.5, n)]) + rng.normal(0, 0.02, (n, 3))
        else:  # integer grid: many collinear and duplicate points
            pts = rng.integers(0, 5, (n, 3)).astype(float)
        normal = np.array([rng.normal(0, 0.05), rng.normal(0, 0.05), 1.0])
        filtered, plain = fit(pts, normal, 3), fit(pts, normal, n + 1)
        assert filtered.yaw == plain.yaw
        assert np.array_equal(filtered.center, plain.center)
        assert np.array_equal(filtered.half_extents, plain.half_extents)


def _hull_cases(rng):
    for _ in range(40):  # generic sets
        yield rng.normal(0, rng.uniform(0.2, 4), (int(rng.integers(3, 60)), 2))
    for _ in range(15):  # a few points, each repeated
        base = rng.normal(0, 2, (int(rng.integers(1, 8)), 2))
        yield base[rng.integers(0, len(base), int(rng.integers(3, 40)))]
    for _ in range(15):
        yield rng.normal(0, 3, (3, 2))
    for _ in range(15):  # integer grids: collinear and duplicate points everywhere
        yield rng.integers(0, int(rng.integers(2, 6)), (int(rng.integers(3, 60)), 2)).astype(float)
    for _ in range(15):  # exactly collinear, with repeats
        step = rng.integers(-3, 4, 2)
        step[0] += step[0] == 0 and step[1] == 0
        t = rng.integers(-20, 20, int(rng.integers(3, 30)))
        yield (rng.integers(-5, 5, 2) + np.outer(t, step)) * 0.25


def test_hull_vertices_match_brute_force_oracle(rng):
    for uv in _hull_cases(rng):
        hull = refine._hull_vertices(uv[:, 0], uv[:, 1], np.zeros(len(uv), dtype=np.int64))
        got = [tuple(p) for p in uv[hull].tolist()]
        want = brute_force_hull(uv)
        if len(want) >= 3:
            assert got == want  # same vertices, counter-clockwise, same start
            x, y = uv[hull, 0], uv[hull, 1]
            assert (x * np.roll(y, -1) - np.roll(x, -1) * y).sum() > 0
        else:  # collinear: the box fit falls back to the PCA direction
            assert len(got) < 3 and set(got) == set(want)
            pts = np.column_stack([uv, np.zeros(len(uv))])
            assert fit_box(pts, UP).yaw == refine._pca_direction(uv) % np.pi


def _fit(clusters, normals) -> BoxTable:
    """fit_boxes over clusters given as a list of point arrays."""
    offsets = np.cumsum([0] + [len(pts) for pts in clusters])
    return fit_boxes(np.concatenate(clusters), offsets, np.reshape(normals, (-1, 3)))


def _assert_boxes_match_oracle(clusters, normals):
    table = _fit(clusters, normals)
    assert len(table) == len(clusters)
    for i, (pts, normal) in enumerate(zip(clusters, normals)):
        want, got = per_cluster_box(pts, normal), table.box(i)
        # folded twice, a yaw just below 0 goes to pi and on to 0.0, as in the box
        assert got.yaw == want.yaw and table.yaw[i] % np.pi % np.pi == want.yaw, i
        for field in ("center", "half_extents", "normal"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), (i, field)
            assert np.array_equal(getattr(table, field)[i], getattr(want, field)), (i, field)


_SHAPES = ("gaussian", "grid", "collinear", "repeated", "l_shape")


def _cluster(rng, shape: str, m: int) -> np.ndarray:
    """m points of one cluster shape."""
    if shape == "gaussian":
        return rng.normal(0, rng.uniform(0.2, 4), (m, 3))
    if shape == "grid":  # integer grid: collinear and duplicate points, tied rectangle areas
        return rng.integers(0, int(rng.integers(2, 6)), (m, 3)).astype(float)
    if shape == "collinear":  # in the ground plane, with repeats
        t = rng.integers(-20, 20, m).astype(float)
        return np.column_stack([t, 0.5 * t, rng.uniform(0, 2, m)]) * 0.25
    if shape == "repeated":  # one point
        return np.tile(rng.normal(0, 3, 3), (m, 1))
    if shape == "pole":  # one vertical line: nearly collinear under a tilted normal
        return np.column_stack([np.full((m, 2), rng.normal(0, 5, 2)), rng.uniform(0, 3, m)])
    # L-shaped outline, like a car seen from a corner
    side = rng.random(m) < 0.5
    t = rng.uniform(0, 1, m)
    return np.column_stack([np.where(side, 4 * t, 0), np.where(side, 0, 2 * t),
                           rng.uniform(0, 1.5, m)]) + rng.normal(0, 0.02, (m, 3))


def _box_fit_cases(rng):
    """Degenerate and generic clusters, below and at or above the hull
    prefilter size."""
    sizes = (1, 2, 3, 5, 17, refine._HULL_FILTER_MIN - 1, refine._HULL_FILTER_MIN, 300)
    for m in sizes:
        for shape in _SHAPES:
            yield _cluster(rng, shape, m)
    yield np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])  # a square


def test_fit_boxes_matches_per_cluster_oracle(rng):
    clusters = list(_box_fit_cases(rng))
    normals = [UP if k % 3 == 0 else np.array([rng.normal(0, 0.05), rng.normal(0, 0.05), 1.0])
               for k in range(len(clusters))]
    _assert_boxes_match_oracle(clusters, normals)  # one batch across all hulls
    for pts, normal in zip(clusters, normals):
        _assert_boxes_match_oracle([pts], [normal])


def test_fit_boxes_matches_oracle_on_stage1_clusters(monkeypatch):
    calls = []

    def recording(points, offsets, normals):
        calls.append((np.split(points, offsets[1:-1]), normals))
        return fit_boxes(points, offsets, normals)

    monkeypatch.setattr(pipeline, "fit_boxes", recording)
    cfg = load_config()
    for seed in range(3):
        scene = generate_synthetic_scene(sample_traffic_scene(seed))
        run_stage1(scene.cloud, cfg.ground, cfg.cluster, cfg.refine, cfg.num_rings)
    assert len(calls) == 3 and all(clusters for clusters, _ in calls)
    for clusters, normals in calls:
        _assert_boxes_match_oracle(clusters, normals)


def test_fit_boxes_empty_and_invalid():
    table = fit_boxes(np.empty((0, 3)), [0], np.empty((0, 3)))
    assert isinstance(table, BoxTable) and len(table) == 0
    assert table.center.shape == (0, 3)
    with pytest.raises(ValueError):
        fit_boxes(np.empty((0, 3)), [0, 0], [UP])
    with pytest.raises(ValueError):
        fit_boxes(np.zeros((3, 3)), [0, 3], np.empty((0, 3)))


@st.composite
def _projected_batches(draw):
    """Clusters of every shape and of sizes around the hull prefilter size,
    each projected onto the plane of its own, possibly tilted, normal."""
    sizes = (1, 2, 3, 5, refine._HULL_FILTER_MIN - 1, refine._HULL_FILTER_MIN, 150)
    us, vs = [], []
    for _ in range(draw(st.integers(1, 8))):
        m = draw(st.sampled_from(sizes))
        shape = draw(st.sampled_from(_SHAPES + ("pole",)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        normal = UP
        if draw(st.booleans()):
            normal = np.array([rng.normal(0, 0.05), rng.normal(0, 0.05), 1.0])
            normal /= np.linalg.norm(normal)
        e1, e2 = plane_basis(normal)
        pts = _cluster(rng, shape, m)
        us.append(pts @ e1)
        vs.append(pts @ e2)
    return us, vs


def _batch(*clusters):
    """(us, vs) of clusters given as (m, 2) arrays, as `_projected_batches` draws them."""
    return [c[:, 0].copy() for c in clusters], [c[:, 1].copy() for c in clusters]


_BLOB = np.random.default_rng(23).normal(0.0, 1.0, (70, 2))
# the points of largest u and of least v also come first and last: the
# first copy of each is its extreme
_SHARED = _BLOB[[_BLOB[:, 0].argmax(), _BLOB[:, 1].argmin()]]
_DUPLICATE_EXTREMES = np.vstack([_SHARED, _BLOB, _SHARED[::-1]])
# (1, 0) and (1, 1) share the largest u, and only the first one is a
# corner from which (0.9, 0.1) lies inside
_TIED = np.vstack([[(1.0, 0.0), (0.9, 0.1), (1.0, 1.0), (0.5, -1.0), (0.0, 2.5)],
                   0.6 + 0.05 * _BLOB[:64]])
# a 9 x 8 grid: u ties along two sides and v along the other two, and each
# corner is the extreme of u + v or of u - v too
_SQUARE = np.array([(i, j) for j in range(8) for i in range(9)], dtype=float)
# a diagonal starting at its low end: u, u + v and v peak at one point,
# and v - u ties everywhere, so its first point is every other extreme
_DIAGONAL = np.repeat(np.linspace(0.0, 5.0, 66)[:, None], 2, axis=1)


@settings(max_examples=80, deadline=None)
@given(_projected_batches())
@example(_batch(_DUPLICATE_EXTREMES, _TIED))
@example(_batch(_SQUARE, _SQUARE[::-1]))
@example(_batch(_BLOB[:1], _BLOB[1:3], _BLOB[:64], _BLOB[3:4]))
@example(_batch(_DIAGONAL, _BLOB[:64]))
def test_batched_hull_matches_scalar_oracles(batch):
    us, vs = batch
    sizes = np.array([u.size for u in us])
    starts = np.cumsum(sizes) - sizes
    u, v = np.concatenate(us), np.concatenate(vs)
    candidate = refine._hull_candidates(u, v, starts)
    vertices = refine._hull_vertices(u, v, np.repeat(np.arange(sizes.size), sizes))
    owner = np.repeat(np.arange(sizes.size), sizes)[vertices]
    for i, (ui, vi) in enumerate(zip(us, vs)):
        mine = candidate[starts[i]:starts[i] + sizes[i]]
        assert np.array_equal(np.flatnonzero(mine), scalar_hull_candidates(ui, vi)), i
        got = list(zip(u[vertices[owner == i]].tolist(), v[vertices[owner == i]].tolist()))
        hull = scalar_hull_vertices(ui, vi)
        want = list(zip(ui[hull].tolist(), vi[hull].tolist()))
        if len(set(want)) >= 3:
            assert got == want, i  # same vertices, counter-clockwise, same start
        else:  # degenerate either way: the box fit takes the PCA direction
            assert len(set(got)) == len(got) < 3, i


def test_rebox_keeps_folded_yaw():
    for yaw in (-1e-17, -1e-300, 0.0, 1e-17, np.pi - 1e-16, np.pi, 3.0, -3.0):
        box = OrientedBBox(center=np.zeros(3), yaw=yaw, half_extents=np.ones(3), normal=UP)
        assert 0.0 <= box.yaw < np.pi, yaw
        again = OrientedBBox(center=box.center, yaw=box.yaw,
                             half_extents=box.half_extents, normal=box.normal)
        assert again.yaw == box.yaw, yaw
        assert np.array_equal(again.axes(), box.axes()), yaw


def test_bbox_tilted_normal_alignment(rng):
    n = np.array([0.1, -0.05, 1.0])
    n /= np.linalg.norm(n)
    pts = rng.normal(0, 2, (40, 3))
    box = fit_box(pts, n)
    np.testing.assert_allclose(box.axes()[:, 2], n, atol=1e-12)
    np.testing.assert_allclose(box.axes().T @ box.axes(), np.eye(3), atol=1e-12)


def test_adaptive_threshold_values():
    params = RefineParams(th_num_base=30, d_ref=10.0, th_num_floor=5)
    assert adaptive_threshold(10.0, params) == 30
    assert adaptive_threshold(20.0, params) == 15
    assert adaptive_threshold(1000.0, params) == 5
    with pytest.raises(ValueError):
        adaptive_threshold(0.0, params)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.1, 500), st.floats(0.1, 500))
def test_adaptive_threshold_monotone(d1, d2):
    params = RefineParams()
    lo, hi = sorted([d1, d2])
    assert adaptive_threshold(lo, params) >= adaptive_threshold(hi, params)


def _labeling_with_clusters(clusters: dict[int, np.ndarray], n: int) -> ClusterLabeling:
    labels = np.zeros(n, dtype=np.int64)
    for cid, members in clusters.items():
        labels[members] = cid
    return ClusterLabeling.from_labels(labels)


def _distances_and_boxes(xyz: np.ndarray, clusters: dict[int, np.ndarray]):
    """Centroid distances and boxes, one row per cluster in ascending id."""
    ids = sorted(clusters)
    distances = np.array([np.linalg.norm(xyz[clusters[cid]].mean(axis=0)) for cid in ids])
    return distances, _fit([xyz[clusters[cid]] for cid in ids], [UP] * len(ids))


def test_filter_rejects_small_cluster():
    xyz = np.tile([[10.0, 0.0, 0.0]], (5, 1)) + np.random.default_rng(0).normal(0, 0.2, (5, 3))
    labeling = _labeling_with_clusters({1: np.arange(5)}, 5)
    distances, table = _distances_and_boxes(xyz, labeling.clusters)
    kept, rows = filter_proposals(labeling, distances, table, RefineParams())
    assert kept == []
    assert rows.size == 0
    with pytest.raises(ValueError, match="one distance and one box per cluster"):
        filter_proposals(labeling, distances[:0], table, RefineParams())


def test_filter_rejects_oversized_box():
    rng = np.random.default_rng(1)
    xyz = np.column_stack([rng.uniform(0, 10, 200), rng.uniform(0, 4, 200),
                           rng.uniform(0, 3, 200)]) + [5, 0, 0]
    labeling = _labeling_with_clusters({1: np.arange(200)}, 200)
    kept, _ = filter_proposals(labeling, *_distances_and_boxes(xyz, labeling.clusters),
                               RefineParams())
    assert kept == []


def test_filter_accepts_car_sized_cluster(rng):
    xyz = np.column_stack([rng.uniform(0, 4.2, 300), rng.uniform(0, 1.8, 300),
                           rng.uniform(0, 1.5, 300)]) + [8, 0, -1]
    labeling = _labeling_with_clusters({1: np.arange(300)}, 300)
    kept, rows = filter_proposals(labeling, *_distances_and_boxes(xyz, labeling.clusters),
                                  RefineParams())
    assert kept == [1]
    assert rows.tolist() == [0]


def test_filter_matches_predicate_oracle(rng):
    params = RefineParams()
    for _ in range(40):
        n_clusters = int(rng.integers(1, 6))
        clusters = {}
        xyz_parts = []
        start = 0
        for cid in range(1, n_clusters + 1):
            count = int(rng.integers(1, 80))
            center = rng.uniform(-30, 30, 3)
            scale = rng.uniform(0.1, 3.0, 3)
            pts = center + rng.uniform(0, 1, (count, 3)) * scale
            clusters[cid] = np.arange(start, start + count)
            xyz_parts.append(pts)
            start += count
        xyz = np.vstack(xyz_parts)
        labeling = _labeling_with_clusters(clusters, start)
        kept, rows = filter_proposals(labeling, *_distances_and_boxes(xyz, clusters),
                                      params)
        expect = []
        for cid, m in clusters.items():
            d = float(np.linalg.norm(xyz[m].mean(axis=0)))
            ext = 2 * per_cluster_box(xyz[m], UP).half_extents
            count_ok = m.size >= adaptive_threshold(d, params)
            size_ok = any(_admits(p, ext) for p in params.size_priors.values())
            if count_ok and size_ok:
                expect.append(cid)
        assert kept == expect
        assert labeling.ids[rows].tolist() == expect
        for cid, row in zip(kept, rows.tolist()):
            members = labeling.order[labeling.offsets[row]:labeling.offsets[row + 1]]
            assert np.array_equal(members, clusters[cid])


def test_filter_order_independent(rng):
    xyz = rng.normal(0, 5, (120, 3)) + [15, 0, 0]
    clusters = {3: np.arange(0, 40), 1: np.arange(40, 80), 2: np.arange(80, 120)}
    labeling = _labeling_with_clusters(clusters, 120)
    kept1, _ = filter_proposals(labeling, *_distances_and_boxes(xyz, clusters),
                                RefineParams())
    # the same clusters, their points listed in another order
    perm = rng.permutation(120)
    shuffled = ClusterLabeling.from_labels(labeling.labels[perm])
    kept2, _ = filter_proposals(shuffled, *_distances_and_boxes(xyz[perm], shuffled.clusters),
                                RefineParams())
    assert kept1 == kept2


def test_enlarge_margins_applied():
    params = RefineParams()
    pts = np.array([[0.0, 0, 0], [2, 0, 0], [2, 1, 0], [0, 1, 1]])
    box = fit_box(pts, UP)
    cloud = PointCloud(xyz=pts, intensity=np.zeros(4))
    [out] = enlarge_and_merge([Proposal(1, np.arange(4), box, 2.0)], cloud,
                              np.zeros(4, dtype=bool), params)
    grown = out.bbox
    np.testing.assert_allclose(grown.half_extents - box.half_extents,
                               [0.1, 0.1, 0.4])
    np.testing.assert_allclose(grown.center, box.center - 0.4 * box.normal)
    # top face fixed, growth goes to the ground side
    top_before = box.center @ box.normal + box.half_extents[2]
    top_after = grown.center @ grown.normal + grown.half_extents[2]
    assert abs(top_before - top_after) < 1e-12


def test_enlarge_and_merge_recovers_feet(rng):
    # pedestrian-like column whose lowest band was masked as ground
    n = 200
    pts = np.column_stack([rng.uniform(-0.3, 0.3, n) + 5.0,
                           rng.uniform(-0.3, 0.3, n),
                           rng.uniform(-1.7, 0.0, n)])
    cloud = PointCloud(xyz=pts, intensity=np.zeros(n))
    ground = pts[:, 2] < -1.5
    members = np.flatnonzero(~ground)
    bbox = fit_box(pts[members], UP)
    prop = Proposal(cluster_id=1, member_indices=members, bbox=bbox,
                    distance=5.0)
    [out] = enlarge_and_merge([prop], cloud, ground, RefineParams())
    grown = out.bbox
    oracle = points_in_oriented_box(pts[ground], grown.center, grown.axes(),
                                    grown.half_extents)
    expect = set(np.flatnonzero(ground)[oracle].tolist()) | set(members.tolist())
    assert set(out.member_indices.tolist()) == expect
    assert oracle.all()  # every masked foot point is within the 0.4 m z margin


def test_enlarge_and_merge_no_candidates(rng):
    pts = rng.normal(0, 1, (50, 3)) + [10, 0, 0]
    cloud = PointCloud(xyz=pts, intensity=np.zeros(50))
    ground = np.zeros(50, dtype=bool)
    bbox = fit_box(pts, UP)
    prop = Proposal(1, np.arange(50), bbox, 10.0)
    [out] = enlarge_and_merge([prop], cloud, ground, RefineParams())
    np.testing.assert_array_equal(out.member_indices, prop.member_indices)
    assert out.bbox.half_extents[2] == bbox.half_extents[2] + 0.4


def test_enlarge_exclude_prevents_double_claims(rng):
    pts = np.vstack([rng.normal(0, 0.5, (30, 3)) + [5, 0, 0],
                     rng.normal(0, 0.5, (30, 3)) + [5.5, 0, 0]])
    cloud = PointCloud(xyz=np.clip(pts, -50, 50), intensity=np.zeros(60))
    ground = np.ones(60, dtype=bool)
    ground[:5] = ground[30:35] = False
    # two blobs half a meter apart: their grown boxes share ground points
    first, second = enlarge_and_merge(
        [Proposal(1, np.arange(5), fit_box(cloud.xyz[:30], UP), 5.0),
         Proposal(2, np.arange(30, 35), fit_box(cloud.xyz[30:], UP), 5.5)],
        cloud, ground, RefineParams())
    contested = np.flatnonzero(ground & first.bbox.contains(cloud.xyz)
                               & second.bbox.contains(cloud.xyz))
    assert contested.size
    assert set(contested.tolist()) <= set(first.member_indices.tolist())
    assert not set(first.member_indices.tolist()) & set(second.member_indices.tolist())
    assert second.member_indices.size > 5  # it still takes the points it alone holds


def test_enlarge_and_merge_rejects_mask_that_is_not_bool_per_point(rng):
    # the feet cloud: a 0/1 uint8 copy of its mask would index points 0 and 1
    n = 200
    pts = np.column_stack([rng.uniform(-0.3, 0.3, n) + 5.0,
                           rng.uniform(-0.3, 0.3, n),
                           rng.uniform(-1.7, 0.0, n)])
    cloud = PointCloud(xyz=pts, intensity=np.zeros(n))
    ground = pts[:, 2] < -1.5
    members = np.flatnonzero(~ground)
    prop = Proposal(1, members, fit_box(pts[members], UP), 5.0)
    [out] = enlarge_and_merge([prop], cloud, ground, RefineParams())
    assert np.unique(out.member_indices).size == out.member_indices.size == n
    for bad in (ground.astype(np.uint8), ground[:-1], np.append(ground, True),
                ground.tolist(), ground[None, :]):
        with pytest.raises(ValueError, match="ground_mask"):
            enlarge_and_merge([prop], cloud, bad, RefineParams())


@st.composite
def _merge_queries(draw):
    """A cloud, a box and an eligibility mask for `merge_candidates`.

    Cloud sizes include 0, fewer points than one block and counts that are
    not a multiple of the block size; the points lie in scan order on a few
    rings or in random order. Boxes have tilted normals, any yaw and
    extents down to EPS_HALF_EXTENT, and sit on a run of the scan that
    sweeps through the box and stops at one of its corners, around the
    sensor origin or beyond every point. Some points lie within a float
    step of the circumradius cut in x and y.
    """
    block = refine.MERGE_BLOCK
    n = draw(st.one_of(st.sampled_from([0, 1, block - 1, block, block + 1, 20 * block + 17]),
                       st.integers(0, 30 * block)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = rng.choice([3.0, 30.0], p=[0.25, 0.75])
    if rng.random() < 0.5:  # rings in scan order
        ring, az = rng.integers(0, 4, n), rng.uniform(0, 2 * np.pi, n)
        order = np.lexsort((az, ring))
        r = rng.uniform(0.5, span, 4)[ring[order]]
        xyz = np.column_stack([r * np.cos(az[order]), r * np.sin(az[order]),
                               rng.uniform(-2, 2, n)])
    else:
        xyz = rng.uniform(-span, span, (n, 3))
    normal = np.array([*rng.uniform(-0.5, 0.5, 2), 1.0]) if rng.random() < 0.5 else UP
    half = np.full(3, refine.EPS_HALF_EXTENT)
    if rng.random() < 0.7:
        half = np.maximum(rng.uniform(0, 4, 3), refine.EPS_HALF_EXTENT)
    if rng.random() < 0.3:  # a needle, whose corners reach nearly its circumradius in x or y
        half[1:] = refine.EPS_HALF_EXTENT
    where = rng.choice(["point", "origin", "beyond", "anywhere"], p=[0.55, 0.15, 0.1, 0.2])
    center = {"point": rng.uniform(-span, span, 3), "origin": rng.normal(0, 0.3, 3),
              "beyond": np.array([100.0, -100.0, 0.0]) * rng.uniform(1, 10),
              "anywhere": rng.uniform(-span, span, 3)}[where]
    yaw = draw(st.one_of(st.sampled_from([0.0, np.pi / 2]), st.floats(-10, 10)))
    bbox = OrientedBBox(center=center, yaw=yaw, half_extents=half,
                        normal=normal / np.linalg.norm(normal))
    if where == "point":  # a run of the scan that sweeps through the box and stops at a corner
        near = slice(*np.sort(rng.integers(0, n + 1, 2)))
        start = rng.uniform(-1.5, 1.5, 3)
        corner = rng.choice([-1.0, 1.0], 3) * (1 - 1e-12)
        t = np.minimum(np.linspace(0, 2, xyz[near].shape[0]), 1)[:, None]
        local = start + t * (corner - start)
        xyz[near] = center + (local * bbox.half_extents) @ bbox.axes().T
    radius = float(np.linalg.norm(bbox.half_extents))
    for axis in (0, 1):  # three points at the cut, one float step either way or on it
        edge = rng.integers(0, max(n, 1), 3 if n else 0)
        xyz[edge, axis] = np.nextafter(bbox.center[axis] + rng.choice([-radius, radius], edge.size),
                                       rng.choice([-np.inf, 0.0, np.inf], edge.size))
    if rng.random() < 0.5:
        xyz = np.asfortranarray(xyz)  # as PointCloud holds it
    return bbox, xyz, rng.random(n) < rng.choice([0.0, 0.3, 0.8, 1.0])


@settings(max_examples=400, deadline=None)
@given(_merge_queries())
def test_merge_candidates_matches_xcut_oracle(query):
    bbox, xyz, eligible = query
    want = xcut_merge_candidates(bbox, xyz, eligible)
    got = refine.merge_candidates(bbox, xyz, eligible, refine.block_index(xyz))
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_merge_candidates_need_no_scan_order():
    # a permuted frame's blocks are scattered, but the query finds the
    # same points, which map back through the permutation
    cfg = load_config()
    scene = generate_synthetic_scene(sample_traffic_scene(0))
    result = run_stage1(scene.cloud, cfg.ground, cfg.cluster, cfg.refine, cfg.num_rings)
    xyz, ground = scene.cloud.xyz, result.ground_mask
    perm = np.random.default_rng(7).permutation(xyz.shape[0])
    shuffled, shuffled_ground = np.asfortranarray(xyz[perm]), ground[perm]
    blocks = refine.block_index(shuffled)
    assert result.proposals
    merged = 0
    for prop in result.proposals:
        want = xcut_merge_candidates(prop.bbox, xyz, ground)
        got = refine.merge_candidates(prop.bbox, shuffled, shuffled_ground, blocks)
        np.testing.assert_array_equal(
            got, xcut_merge_candidates(prop.bbox, shuffled, shuffled_ground))
        np.testing.assert_array_equal(np.sort(perm[got]), want)
        merged += want.size
    assert merged


def test_size_prior_validation():
    with pytest.raises(ValueError):
        SizePrior((1.0, 1.0, 1.0), (0.5, 2.0, 2.0))
    prior = SizePrior((1.5, 1.2, 1.0), (6.0, 2.5, 2.5))
    assert _admits(prior, [1.8, 4.2, 1.5])  # orientation-free
    assert not _admits(prior, [10.0, 4.0, 3.0])


def test_refine_params_validation():
    with pytest.raises(ValueError):
        RefineParams(th_num_base=3, th_num_floor=5)
    with pytest.raises(ValueError):
        RefineParams(d_ref=0.0)
    with pytest.raises(ValueError):
        RefineParams(enlarge_xy=-0.1)
