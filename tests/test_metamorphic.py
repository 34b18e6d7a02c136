"""Metamorphic relations of stage 1 as a whole (ROADMAP item 2).

Each test runs `run_stage1` on a frame and on a transformed copy of it,
and checks what the transform must keep. The frames are the traffic
scenes of seeds 0-5 and the clutter frame, at the default config. A
relation that today's ring trace cannot meet is a strict xfail that
cites the item whose fix must flip it.
"""

import numpy as np
import pytest

from ringseg import PointCloud, ScanFormatError, load_config, proposal_recall, run_stage1
from ringseg.synth import generate_synthetic_scene, sample_traffic_scene

from conftest import clutter_scene

FRAMES = [*range(6), "clutter"]
# ROADMAP item 1: the ring trace accepts only scans whose every revolution
# starts at azimuth 0+ and turns counter-clockwise
_SCAN_ORDER = pytest.mark.xfail(strict=True, raises=ScanFormatError,
                                reason="item 1: the ring trace assumes the scan order")


def _stage1(cloud: PointCloud):
    cfg = load_config()
    return run_stage1(cloud, cfg.ground, cfg.cluster, cfg.refine, cfg.num_rings)


@pytest.fixture(scope="module")
def frames():
    """Each frame's scene and its stage-1 result, kept for this module only."""
    scenes = {frame: generate_synthetic_scene(
        clutter_scene() if frame == "clutter" else sample_traffic_scene(frame))
        for frame in FRAMES}
    return {frame: (scene, _stage1(scene.cloud)) for frame, scene in scenes.items()}


def _recall(result, labels) -> tuple[int, float]:
    report = proposal_recall(result.cluster_labels, labels)
    return report.n_proposals, report.recall


@pytest.mark.parametrize("frame", FRAMES)
def test_intensity_permutation_changes_nothing(frames, frame):
    # stage 1 reads geometry only
    scene, base = frames[frame]
    cloud = scene.cloud
    shuffled = np.random.default_rng(0).permutation(cloud.intensity)
    got = _stage1(PointCloud(cloud.xyz, shuffled))
    assert np.array_equal(got.cluster_labels, base.cluster_labels)
    assert np.array_equal(got.ground_mask, base.ground_mask)
    assert [p.cluster_id for p in got.proposals] == [p.cluster_id for p in base.proposals]
    for mine, want in zip(got.proposals, base.proposals):
        assert np.array_equal(mine.member_indices, want.member_indices)
        assert mine.bbox.yaw == want.bbox.yaw
        for field in ("center", "half_extents", "normal"):
            assert np.array_equal(getattr(mine.bbox, field), getattr(want.bbox, field)), field


@pytest.mark.parametrize("frame", FRAMES)
def test_far_return_along_its_ray_keeps_proposals(frames, frame):
    # the ground segments split [min x, max x] into equal widths, so the
    # moved return shifts every segment boundary and the ground mask may
    # change; the proposals found and the points they cover may not
    scene, base = frames[frame]
    xyz = scene.cloud.xyz.copy()
    xyz[xyz[:, 0].argmax()] *= 2.0
    got = _stage1(PointCloud(xyz, scene.cloud.intensity))
    assert _recall(got, scene.cloud.labels) == _recall(base, scene.cloud.labels)


@_SCAN_ORDER
@pytest.mark.parametrize("frame", FRAMES)
def test_rotation_about_z_keeps_proposals(frames, frame):
    # half a point spacing: each revolution now starts just past azimuth 0
    scene, base = frames[frame]
    a = np.radians(0.1125)
    turn = np.array([[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0], [0.0, 0.0, 1.0]])
    got = _stage1(PointCloud(scene.cloud.xyz @ turn.T, scene.cloud.intensity))
    assert _recall(got, scene.cloud.labels) == _recall(base, scene.cloud.labels)


@_SCAN_ORDER
@pytest.mark.parametrize("frame", FRAMES)
def test_rolled_scan_start_keeps_proposals(frames, frame):
    # half a ring: the scan starts mid-revolution, as a driver may cut it
    scene, base = frames[frame]
    cloud = scene.cloud
    got = _stage1(PointCloud(np.roll(cloud.xyz, 800, axis=0), np.roll(cloud.intensity, 800)))
    labels = np.roll(cloud.labels, 800)
    assert _recall(got, labels) == _recall(base, cloud.labels)


@_SCAN_ORDER
@pytest.mark.parametrize("frame", FRAMES)
def test_mirror_in_y_mirrors_boxes(frames, frame):
    # a clockwise scanner: the same ground and members, each yaw negated
    scene, base = frames[frame]
    cloud = scene.cloud
    got = _stage1(PointCloud(cloud.xyz * [1.0, -1.0, 1.0], cloud.intensity))
    assert np.array_equal(got.ground_mask, base.ground_mask)
    assert len(got.proposals) == len(base.proposals)
    for mine, want in zip(got.proposals, base.proposals):
        assert np.array_equal(mine.member_indices, want.member_indices)
        turn = (mine.bbox.yaw + want.bbox.yaw) % np.pi
        assert min(turn, np.pi - turn) < 1e-9
