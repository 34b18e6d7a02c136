import hashlib
from dataclasses import replace

import numpy as np
import pytest

from ringseg import PointCloud, ScanFormatError, load_config, run_stage1
from ringseg.synth import generate_synthetic_scene, sample_traffic_scene

from conftest import clutter_scene


@pytest.fixture(scope="module")
def frame_and_result():
    cfg = load_config()
    scene = generate_synthetic_scene(
        replace(sample_traffic_scene(seed=6, n_objects=6), num_rings=32, points_per_ring=700))
    result = run_stage1(scene.cloud, cfg.ground, cfg.cluster, cfg.refine,
                        cfg.num_rings)
    return scene, result


def test_members_inside_enlarged_boxes(frame_and_result):
    scene, result = frame_and_result
    assert result.proposals
    for prop in result.proposals:
        local = np.abs(prop.bbox.to_local(scene.cloud.xyz[prop.member_indices]))
        assert (local <= prop.bbox.half_extents + 1e-9).all()


def test_no_point_in_two_proposals(frame_and_result):
    _, result = frame_and_result
    # on this frame, boxes grown by 2 m in x and y share ground points
    cfg = load_config()
    scene = generate_synthetic_scene(
        replace(sample_traffic_scene(seed=4, n_objects=6), num_rings=32, points_per_ring=700))
    wide = run_stage1(scene.cloud, cfg.ground, cfg.cluster,
                      replace(cfg.refine, enlarge_xy=2.0), cfg.num_rings)
    ground = scene.cloud.xyz[wide.ground_mask]
    assert max(sum(p.bbox.contains(ground) for p in wide.proposals)) >= 2
    for res in (result, wide):
        all_members = np.concatenate([p.member_indices for p in res.proposals])
        assert len(np.unique(all_members)) == all_members.size
        assert res.points_passed == all_members.size


def test_cluster_labels_match_membership(frame_and_result):
    scene, result = frame_and_result
    labels = np.zeros(len(scene.cloud), dtype=np.uint32)
    for prop in result.proposals:
        labels[prop.member_indices] = prop.cluster_id
    np.testing.assert_array_equal(labels, result.cluster_labels)


def test_proposal_distance_is_cluster_centroid_norm(frame_and_result):
    scene, result = frame_and_result
    for prop in result.proposals:
        # distance was fixed before ground re-merge: recompute from the
        # non-ground members only
        original = prop.member_indices[~result.ground_mask[prop.member_indices]]
        d = float(np.linalg.norm(scene.cloud.xyz[original].mean(axis=0)))
        assert d == pytest.approx(prop.distance, abs=1e-9)


def test_boxes_aligned_with_fitted_ground(frame_and_result):
    _, result = frame_and_result
    normals = [p.normal for p in result.planes if p is not None]
    assert normals
    for prop in result.proposals:
        assert any(np.allclose(prop.bbox.normal, n, atol=1e-12) for n in normals)


def test_empty_cloud():
    cfg = load_config()
    cloud = PointCloud(xyz=np.empty((0, 3)), intensity=np.empty(0))
    result = run_stage1(cloud, cfg.ground, cfg.cluster, cfg.refine, cfg.num_rings)
    assert result.proposals == []
    assert result.cluster_labels.size == 0
    assert result.points_in == 0 and result.points_passed == 0


def test_all_ground_cloud(rng):
    cfg = load_config()
    az = np.sort(rng.uniform(0.05, 2 * np.pi - 0.05, 4000))
    r = rng.uniform(3, 40, 4000)
    xyz = np.column_stack([r * np.cos(az), r * np.sin(az), np.full(4000, -1.7)])
    cloud = PointCloud(xyz=xyz, intensity=np.zeros(4000))
    result = run_stage1(cloud, cfg.ground, cfg.cluster, cfg.refine, cfg.num_rings)
    assert result.ground_mask.all()
    assert result.proposals == []
    assert (result.cluster_labels == 0).all()


def test_clockwise_scan_raises():
    # the seed-0 traffic frame mirrored in y, as a clockwise scanner sees it
    cfg = load_config()
    cloud = generate_synthetic_scene(sample_traffic_scene(0)).cloud
    mirrored = PointCloud(xyz=cloud.xyz * [1.0, -1.0, 1.0], intensity=cloud.intensity)
    with pytest.raises(ScanFormatError, match=(
            "^scan turns clockwise: 63 quadrant 1 -> 4 steps against 0 4 -> 1 steps")):
        run_stage1(mirrored, cfg.ground, cfg.cluster, cfg.refine, cfg.num_rings)


def test_timings_dict_populated(frame_and_result):
    _, result = frame_and_result
    timings = result.timings
    assert list(timings) == ["ground", "cluster", "refine", "total"]
    assert timings["total"] >= max(timings["ground"], timings["cluster"],
                                   timings["refine"])


# sha256 of (cluster_labels as <u4, ground_mask as uint8, and per proposal
# its id and member count as <i8 followed by its members as <i8) for
# sample_traffic_scene seeds 0-2 and the clutter frame at the default config.
# On the clutter frame the size prior rejects 26 of 33 clusters. Refactors of
# stage 1 must keep these integer outputs; floats are deliberately not pinned.
_STAGE1_DIGESTS = {
    0: ("2df4853a115458c9848a587d94d3ca982b34f6dd623199314c572928c7e1ba97",
        "34b23cfbf916e6325301f156a245a25a49b7ed49ffda8425e63889f0b03e9c13",
        "1848e454c8c852ad81fac86597e66c214c6ae11010e6ca4351017fdc25ef2230"),
    1: ("6c34fea6266584a67175d4e92155d0f818925f41042fe81c17e76ec9c1ca39b1",
        "cc1021a2e7bbc084a09bc33751517bc61ed16011080d1d7e0e710638d3ac3ecf",
        "1983602b325ef335b6969913cc640cdade1a8df4bbd2d7d7c5a6dd970b3db3e9"),
    2: ("f1edfe37dd84ae80da0f00eaf0395d6106cd7c9e87ada38be24cfb3d346637b6",
        "f60b5738fd19a8f677c4f00e8a0230db3821d3185c287aefa05cb069af2d0dd0",
        "0959389fac45baa9940ce8206d8a65bb30037ddcd70a9c1f925fa6fc745309cf"),
    "clutter": ("926f51c9b13af87ef22ad8b35c18b7c83930caabe65a53ffc4d397c5cc0d8ca1",
                "a693d3949a84aac6b7bc367e9816452960b096ee9afb363ab961983650012d1a",
                "fce278b8f4fe69992f86ca4b8025c3858266bb7ac38dee1e26816a01f1d3edc0"),
}


@pytest.mark.parametrize("seed", list(_STAGE1_DIGESTS))
def test_stage1_integer_outputs_pinned(seed):
    cfg = load_config()
    spec = clutter_scene() if seed == "clutter" else sample_traffic_scene(seed)
    scene = generate_synthetic_scene(spec)
    result = run_stage1(scene.cloud, cfg.ground, cfg.cluster, cfg.refine,
                        cfg.num_rings)
    members = hashlib.sha256()
    for prop in result.proposals:
        members.update(np.array([prop.cluster_id, prop.member_indices.size],
                                "<i8").tobytes())
        members.update(prop.member_indices.astype("<i8").tobytes())
    got = (
        hashlib.sha256(result.cluster_labels.astype("<u4").tobytes()).hexdigest(),
        hashlib.sha256(result.ground_mask.astype(np.uint8).tobytes()).hexdigest(),
        members.hexdigest(),
    )
    assert got == _STAGE1_DIGESTS[seed]
