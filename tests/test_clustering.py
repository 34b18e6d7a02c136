import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringseg import ClusterParams, PointCloud, cluster_ring_based, resolve_labels
from ringseg import kernels
from ringseg.synth import ObjectSpec, SceneSpec, generate_synthetic_scene, \
    sample_traffic_scene
from ringseg.cloud import assign_rings
from ringseg.errors import ScanFormatError
from ringseg.ground import GroundParams, ground_plane_fit

from conftest import random_ring_scene, x_segments
from oracles import azimuth_neighbour_d2, brute_force_clusters, canonical_partition, \
    min_merge_labels, naive_min_merge, scalar_cluster_ids, scan_windows


def _cloud(xyz, ring_ids):
    xyz = np.asarray(xyz, dtype=np.float64)
    return PointCloud(xyz=xyz, intensity=np.zeros(len(xyz)),
                      ring_ids=np.asarray(ring_ids, dtype=np.int32))


def test_same_ring_close_pair_one_cluster():
    cloud = _cloud([[5.0, 0.0, 0.0], [5.0, 0.4, 0.0]], [0, 0])
    lab = cluster_ring_based(cloud, ClusterParams(th_ring=0.5, th_prop=1.0))
    assert len(lab.clusters) == 1


def test_same_ring_far_pair_two_clusters():
    cloud = _cloud([[5.0, 0.0, 0.0], [5.0, 0.6, 0.0]], [0, 0])
    lab = cluster_ring_based(cloud, ClusterParams(th_ring=0.5, th_prop=1.0))
    assert len(lab.clusters) == 2


def test_cross_ring_propagation():
    cloud = _cloud([[5.0, 0.0, 0.0], [5.0, 0.0, 0.3]], [0, 1])
    lab = cluster_ring_based(cloud, ClusterParams(th_ring=0.5, th_prop=1.0))
    assert len(lab.clusters) == 1


def test_empty_intermediate_ring_breaks_propagation():
    # ring 1 has no points: ring 2 cannot inherit from ring 0
    cloud = _cloud([[5.0, 0.0, 0.0], [5.0, 0.0, 0.3]], [0, 2])
    lab = cluster_ring_based(cloud, ClusterParams(th_ring=0.5, th_prop=5.0))
    assert len(lab.clusters) == 2


def test_intra_ring_links_consecutive_only():
    # A and C are close but B sits between them in azimuth order; D keeps
    # the wraparound pair (A, D) far apart
    pts = [
        [np.cos(0.1), np.sin(0.1), 0.0],
        [50 * np.cos(0.2), 50 * np.sin(0.2), 0.0],
        [1.05 * np.cos(0.3), 1.05 * np.sin(0.3), 0.0],
        [50 * np.cos(6.0), 50 * np.sin(6.0), 0.0],
    ]
    lab = cluster_ring_based(_cloud(pts, [0, 0, 0, 0]),
                             ClusterParams(th_ring=0.5, th_prop=1.0))
    assert len(lab.clusters) == 4


def test_ring_wraparound_closes_ring():
    az = np.array([0.01, 1.0, 2.0, 2 * np.pi - 0.01])
    pts = np.column_stack([5 * np.cos(az), 5 * np.sin(az), np.zeros(4)])
    lab = cluster_ring_based(_cloud(pts, [0] * 4),
                             ClusterParams(th_ring=0.5, th_prop=1.0))
    # only the wrap pair links: 4 points, first and last merge
    assert lab.labels[0] == lab.labels[3]
    assert len(lab.clusters) == 3


def test_missing_ring_ids_raises():
    cloud = PointCloud(xyz=np.zeros((2, 3)), intensity=np.zeros(2))
    with pytest.raises(ValueError):
        cluster_ring_based(cloud, ClusterParams())


@pytest.mark.parametrize("rings", [[2, 2, 1, 0, 0], [-1, 0, 0, 1, 1]])
def test_decreasing_or_negative_ring_ids_raise(rings):
    # unchecked, rings [2, 2, 1, 0, 0] gave 3 clusters where the link graph
    # has 2, and a negative id a numpy broadcast error
    pts = [[5.0, 0.0, 0.0], [5.0, 0.3, 0.0], [5.0, 0.0, 0.5],
           [5.0, 0.0, 3.0], [5.0, 0.3, 3.0]]
    with pytest.raises(ScanFormatError):
        cluster_ring_based(_cloud(pts, rings), ClusterParams(th_ring=0.5, th_prop=1.0))


def test_empty_input():
    cloud = _cloud(np.empty((0, 3)), np.empty(0))
    lab = cluster_ring_based(cloud, ClusterParams())
    assert lab.labels.size == 0 and lab.clusters == {}


def test_oracle_equivalence_sample(rng):
    for _ in range(60):
        cloud = random_ring_scene(rng)
        params = ClusterParams(th_ring=float(rng.uniform(0.2, 2.0)),
                               th_prop=float(rng.uniform(0.3, 3.0)))
        lab = cluster_ring_based(cloud, params)
        oracle = brute_force_clusters(cloud.xyz, cloud.ring_ids,
                                      params.th_ring, params.th_prop)
        np.testing.assert_array_equal(canonical_partition(lab.labels),
                                      canonical_partition(oracle))


def _scan_args(cloud, params):
    xyz = cloud.xyz
    return (xyz[:, 0], xyz[:, 1], xyz[:, 2], cloud.ring_ids,
            params.th_ring, params.th_prop)


def _scalar_ids(x, y, z, ring_ids, th_ring, th_prop):
    """The scalar scan's ids over its explicit, untightened windows."""
    return scalar_cluster_ids(x, y, z, *scan_windows(x, y, ring_ids, th_prop),
                              th_ring, th_prop)


def test_kernel_ids_match_scalar_scan(rng):
    covered = {"empty ring": 0, "wrapping window": 0, "window >= pi": 0,
               "tightened window": 0, "tightened to the whole ring": 0}
    for k in range(1500):
        cloud = random_ring_scene(rng)
        if k >= 1000:
            # scaled toward the sensor axis, where ranges below th_prop are common
            cloud = PointCloud(xyz=cloud.xyz * rng.uniform(0.01, 0.3),
                               intensity=cloud.intensity, ring_ids=cloud.ring_ids)
        params = ClusterParams(th_ring=float(rng.uniform(0.2, 2.0)),
                               th_prop=float(rng.uniform(0.3, 3.0)))
        args = _scan_args(cloud, params)
        x, y, z, rings, th_ring, th_prop = args
        az, halfwin, starts = scan_windows(x, y, rings, th_prop)
        np.testing.assert_array_equal(
            kernels.cluster_scan(*args),
            scalar_cluster_ids(x, y, z, az, halfwin, starts, th_ring, th_prop))
        part = halfwin < np.pi
        covered["empty ring"] += bool((np.diff(starts) == 0).any())
        covered["wrapping window"] += bool(
            ((az - halfwin < 0.0) | (az + halfwin > 2 * np.pi))[part].any())
        covered["window >= pi"] += bool((~part).any())
        # the kernel's reach: a neighbour nearer than th_prop tightens the window
        ub = azimuth_neighbour_d2(x, y, z, az, starts)
        tight = ub < th_prop * th_prop
        beyond = np.sqrt(ub) >= np.hypot(x, y)
        covered["tightened window"] += bool((tight & ~beyond).any())
        covered["tightened to the whole ring"] += bool((tight & beyond).any())
    assert min(covered.values()) > 0, covered


def test_kernel_edge_cases_match_scalar_scan():
    xyz = [
        # ring 0: two points mirrored across the +x axis, 1 m apart
        [4.9, 0.5, 0.0], [4.9, -0.5, 0.0],
        # ring 1: on the axis, equidistant from both; its window wraps
        # past 0/2pi and the tie goes to the first point in window order
        [5.0, 0.0, 0.2],
        # ring 2 is empty; ring 3 cannot propagate from it
        [5.0, 0.1, 0.3], [-3.0, 0.0, 0.3],
        # ring 4: inside th_prop of the axis, so the window is the whole ring
        [0.3, 0.2, 0.3], [-0.2, -0.3, 0.3],
        # ring 5: a single point
        [0.25, 0.25, 0.5],
    ]
    rings = [0, 0, 1, 3, 3, 4, 4, 5]
    params = ClusterParams(th_ring=0.5, th_prop=1.0)
    args = _scan_args(_cloud(xyz, rings), params)
    halfwin = scan_windows(args[0], args[1], rings, params.th_prop)[1]
    assert (halfwin[5:] >= np.pi).all()
    ids = kernels.cluster_scan(*args)
    np.testing.assert_array_equal(ids, _scalar_ids(*args))
    assert ids[2] == ids[0] != ids[1]
    assert ids[3] not in ids[:3]


@pytest.mark.parametrize("seed, n_objects", [(0, 8), (1, None), (2, None)])
def test_kernel_ids_match_scalar_scan_on_traffic_frames(seed, n_objects):
    scene = generate_synthetic_scene(sample_traffic_scene(seed=seed, n_objects=n_objects))
    cloud = assign_rings(scene.cloud, 64)
    mask, _ = ground_plane_fit(cloud, x_segments(cloud, 3), GroundParams())
    args = _scan_args(cloud.select(np.flatnonzero(~mask)), ClusterParams())
    np.testing.assert_array_equal(kernels.cluster_scan(*args), _scalar_ids(*args))


@pytest.mark.parametrize("chunk", [1, 37])
def test_previous_ring_pairs_in_many_chunks(chunk, rng, monkeypatch):
    # one chunk holds every pair of these frames at the default size
    scene = generate_synthetic_scene(sample_traffic_scene(seed=0))
    cloud = assign_rings(scene.cloud, 64)
    mask, _ = ground_plane_fit(cloud, x_segments(cloud, 3), GroundParams())
    cases = [_scan_args(cloud.select(np.flatnonzero(~mask)), ClusterParams())]
    for _ in range(40):
        cases.append(_scan_args(random_ring_scene(rng), ClusterParams(
            th_ring=float(rng.uniform(0.2, 2.0)), th_prop=float(rng.uniform(0.3, 3.0)))))
    whole = [kernels.cluster_scan(*args) for args in cases]
    sq_dist, calls = kernels._sq_dist, []

    def counted(*args):
        calls.append(None)
        return sq_dist(*args)

    monkeypatch.setattr(kernels, "_sq_dist", counted)
    monkeypatch.setattr(kernels, "_PAIR_CHUNK", chunk)
    for args, ids in zip(cases, whole):
        x, y, z, rings, th_ring, th_prop = args
        np.testing.assert_array_equal(kernels.cluster_scan(*args), ids)
        oracle = brute_force_clusters(np.column_stack([x, y, z]), rings, th_ring, th_prop)
        np.testing.assert_array_equal(canonical_partition(ids), canonical_partition(oracle))
    # besides one call per chunk, a scan makes two: intra-ring and wraparound links
    assert len(calls) - 2 * len(cases) > 10 * len(cases)


def test_labels_partition_and_min_ids(rng):
    cloud = random_ring_scene(rng)
    lab = cluster_ring_based(cloud, ClusterParams())
    assert lab.labels.min() >= 1
    seen = np.concatenate(list(lab.clusters.values()))
    assert np.sort(seen).tolist() == list(range(len(cloud)))
    for cid, members in lab.clusters.items():
        assert (lab.labels[members] == cid).all()
    # the CSR rows: ids ascending, each id's members ascending
    assert lab.ids.tolist() == sorted(lab.clusters) and lab.offsets[-1] == len(cloud)
    for j, cid in enumerate(lab.ids.tolist()):
        members = lab.order[lab.offsets[j]:lab.offsets[j + 1]]
        assert (np.diff(members) > 0).all() and np.array_equal(members, lab.clusters[cid])


def test_cluster_count_monotone_in_thresholds(rng):
    cloud = random_ring_scene(rng, max_points=250)
    counts_ring = []
    for th in (0.1, 0.3, 0.9, 2.7):
        lab = cluster_ring_based(cloud, ClusterParams(th_ring=th, th_prop=0.5))
        counts_ring.append(len(lab.clusters))
    assert counts_ring == sorted(counts_ring, reverse=True)
    counts_prop = []
    for th in (0.1, 0.3, 0.9, 2.7):
        lab = cluster_ring_based(cloud, ClusterParams(th_ring=0.5, th_prop=th))
        counts_prop.append(len(lab.clusters))
    assert counts_prop == sorted(counts_prop, reverse=True)


def test_scene_rotation_by_one_azimuth_step_preserves_partition():
    base_obj = ObjectSpec(class_id=1, shape="box", x=10.0, y=3.0, yaw_deg=30,
                          length=4.0, width=1.8, height=1.5)
    ppr = 360
    step = np.degrees(2 * np.pi / ppr)
    c, s = np.cos(np.radians(step)), np.sin(np.radians(step))
    rot_obj = ObjectSpec(class_id=1, shape="box",
                         x=c * base_obj.x - s * base_obj.y,
                         y=s * base_obj.x + c * base_obj.y,
                         yaw_deg=base_obj.yaw_deg + step,
                         length=4.0, width=1.8, height=1.5)

    def cluster_scene(obj):
        spec = SceneSpec(num_rings=24, points_per_ring=ppr, noise_sigma=0.0,
                         rng_seed=1, objects=(obj,), elevation_min_deg=-20,
                         elevation_max_deg=-1.0)
        scene = generate_synthetic_scene(spec)
        cloud = assign_rings(scene.cloud, 24)
        mask, _ = ground_plane_fit(cloud, x_segments(cloud, 3), GroundParams())
        keep = np.flatnonzero(~mask)
        sub = cloud.select(keep)
        lab = cluster_ring_based(sub, ClusterParams())
        # identify points by (ring, azimuth-grid slot) so the two scenes align
        az = np.arctan2(sub.xyz[:, 1], sub.xyz[:, 0]) % (2 * np.pi)
        slot = np.round((az - np.pi / ppr) / (2 * np.pi / ppr)).astype(int) % ppr
        return {(int(r), int(sl)): int(l)
                for r, sl, l in zip(sub.ring_ids, slot, lab.labels)}

    base = cluster_scene(base_obj)
    rotated = cluster_scene(rot_obj)
    assert len(base) == len(rotated)
    remap = {}
    for (ring, slot), lab in base.items():
        rlab = rotated[(ring, (slot + 1) % ppr)]
        assert remap.setdefault(lab, rlab) == rlab


def test_resolve_labels_chain():
    lab = resolve_labels(min_merge_labels(np.array([1, 2, 3]), [(2, 1), (3, 2)]))
    np.testing.assert_array_equal(lab.labels, [1, 1, 1])


def test_resolve_labels_identity():
    lab = resolve_labels(np.array([1, 2, 3]))
    np.testing.assert_array_equal(lab.labels, [1, 2, 3])
    with pytest.raises(ValueError):
        resolve_labels(np.array([0, 1]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_resolve_labels_matches_naive_oracle(data):
    n = data.draw(st.integers(1, 40))
    max_label = data.draw(st.integers(1, 15))
    labels = np.array(data.draw(st.lists(st.integers(1, max_label),
                                         min_size=n, max_size=n)))
    merges = data.draw(st.lists(
        st.tuples(st.integers(1, max_label), st.integers(1, max_label)),
        max_size=25))
    merges = [(a, b) for a, b in merges if a in labels and b in labels]
    resolved = resolve_labels(min_merge_labels(labels, merges))
    np.testing.assert_array_equal(resolved.labels, naive_min_merge(labels, merges))
    again = resolve_labels(resolved.labels)
    np.testing.assert_array_equal(again.labels, resolved.labels)
