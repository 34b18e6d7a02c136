import numpy as np
import pytest

from ringseg import benchmark_stage1, load_config, run_stage1
from ringseg.synth import generate_synthetic_scene, sample_traffic_scene


@pytest.fixture(scope="module")
def small_frame():
    spec = sample_traffic_scene(seed=2, n_objects=4, num_rings=24,
                                points_per_ring=512)
    return generate_synthetic_scene(spec).cloud


def test_single_repetition(small_frame):
    cfg = load_config()
    report, _ = benchmark_stage1(small_frame, cfg.ground, cfg.cluster,
                                 cfg.refine, cfg.num_rings, repetitions=1)
    for stage in ("ground", "cluster", "refine", "total"):
        assert report.median_us[stage] >= 0.0
        assert report.median_us[stage] == report.p95_us[stage]
    assert report.repetitions == 1
    assert report.points_in == len(small_frame)


def test_timing_does_not_change_results(small_frame):
    cfg = load_config()
    report, timed = benchmark_stage1(small_frame, cfg.ground, cfg.cluster,
                                     cfg.refine, cfg.num_rings, repetitions=2)
    direct = run_stage1(small_frame, cfg.ground, cfg.cluster, cfg.refine,
                        cfg.num_rings)
    assert report.proposals_out == len(direct.proposals)
    assert report.points_passed == direct.points_passed
    np.testing.assert_array_equal(timed.cluster_labels, direct.cluster_labels)
    for a, b in zip(timed.proposals, direct.proposals):
        assert a.cluster_id == b.cluster_id
        np.testing.assert_array_equal(a.member_indices, b.member_indices)


def test_repetitions_validated(small_frame):
    cfg = load_config()
    with pytest.raises(ValueError):
        benchmark_stage1(small_frame, cfg.ground, cfg.cluster, cfg.refine,
                         cfg.num_rings, repetitions=0)


def test_record_fields(small_frame):
    cfg = load_config()
    report, _ = benchmark_stage1(small_frame, cfg.ground, cfg.cluster,
                                 cfg.refine, cfg.num_rings, repetitions=2)
    # README "Report records": `bench` puts `frame` before these
    assert list(report.to_record()) == [
        "reps", "points_in", "proposals", "points_passed",
        "ground_us_med", "ground_us_p95", "cluster_us_med", "cluster_us_p95",
        "refine_us_med", "refine_us_p95", "total_us_med", "total_us_p95", "faults_med"]
