"""End-to-end acceptance suite.

One test per release criterion; each prints a PASS line on success (run
with -s to see them). Every tolerance is pinned here, not configurable.
"""

import hashlib
import time

import numpy as np
import pytest

from ringseg import (
    ClusterParams,
    GroundParams,
    PointCloud,
    Proposal,
    Sample,
    benchmark_stage1,
    canonical_transform,
    cluster_ring_based,
    export_samples,
    ground_plane_fit,
    load_config,
    load_labels,
    load_point_cloud,
    load_samples,
    pointwise_metrics,
    proposal_recall,
    run_stage1,
    save_labels,
    save_point_cloud,
)
from ringseg.cli import main
from ringseg.refine import plane_basis
from ringseg.samples import DIHEDRAL_LINEAR, record_dtype
from ringseg.synth import ObjectSpec, SceneSpec, generate_synthetic_scene, \
    sample_traffic_scene

from conftest import fit_box, random_cloud, random_ring_scene, written_variants, x_segments
from oracles import (
    brute_force_clusters,
    canonical_partition,
    counting_metrics,
    dihedral_variants,
    pairwise_distance_multiset,
    sweep_min_rect_area,
)

UP = np.array([0.0, 0.0, 1.0])


def test_01_clustering_oracle_equivalence():
    rng = np.random.default_rng(20260809)
    started = time.perf_counter()
    for _ in range(1000):
        cloud = random_ring_scene(rng)
        params = ClusterParams(th_ring=float(rng.uniform(0.2, 2.0)),
                               th_prop=float(rng.uniform(0.3, 3.0)))
        labeling = cluster_ring_based(cloud, params)
        oracle = brute_force_clusters(cloud.xyz, cloud.ring_ids,
                                      params.th_ring, params.th_prop)
        np.testing.assert_array_equal(
            canonical_partition(labeling.labels), canonical_partition(oracle),
            err_msg="cluster partition diverged from the link-graph oracle")
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"oracle suite took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 clustering-oracle-equivalence (1000 scenes, "
          f"{elapsed:.1f}s): PASS")


def _clearance_scene(tilt: float, seed: int) -> SceneSpec:
    objects = (
        ObjectSpec(class_id=1, shape="box", x=10.0, y=3.0, yaw_deg=35,
                   length=4.2, width=1.8, height=1.5, clearance=0.5),
        ObjectSpec(class_id=2, shape="cylinder", x=-7.0, y=-6.0, radius=0.4,
                   height=1.7, clearance=0.5),
        ObjectSpec(class_id=3, shape="composite", x=-3.0, y=11.0, yaw_deg=120,
                   length=1.8, width=0.5, height=1.1, radius=0.3,
                   rider_height=0.9, clearance=0.5),
    )
    return SceneSpec(num_rings=48, points_per_ring=800, noise_sigma=0.02,
                     ground_tilt_deg=tilt, rng_seed=seed, objects=objects,
                     elevation_min_deg=-22.0,
                     elevation_max_deg=min(-0.8, -(abs(tilt) + 0.6)))


def test_02_ground_fit_correctness():
    params = GroundParams()  # stock defaults: 3 segments, 3 iters, 20, 0.4, 0.3
    assert (params.n_seg, params.n_iter, params.n_lpr) == (3, 3, 20)
    assert (params.th_seeds, params.th_dist) == (0.4, 0.3)
    for tilt in (0.0, 5.0):
        worst = 1.0
        for seed in range(3):
            scene = generate_synthetic_scene(_clearance_scene(tilt, seed))
            cloud = scene.cloud
            mask, _ = ground_plane_fit(cloud, x_segments(cloud, params.n_seg),
                                       params)
            dist = np.abs(cloud.xyz @ scene.ground_normal + scene.ground_offset)
            analytic = dist < params.th_dist
            outside_band = np.abs(dist - params.th_dist) > 0.1
            agree = float((mask[outside_band] == analytic[outside_band]).mean())
            worst = min(worst, agree)
        assert worst >= 0.99, f"tilt {tilt}: agreement {worst:.4f}"
    print("ACCEPTANCE 2 ground-fit-correctness (flat + 5 deg tilt, "
          f"agreement >= {worst:.4f}): PASS")


def test_03_stage1_recall_desk_scale():
    cfg = load_config()
    covered = total = 0
    max_props = 0
    for seed in range(50):
        scene = generate_synthetic_scene(sample_traffic_scene(seed=seed))
        assert len(scene.cloud) >= 100_000
        result = run_stage1(scene.cloud, cfg.ground, cfg.cluster, cfg.refine,
                            cfg.num_rings)
        report = proposal_recall(result.cluster_labels, scene.cloud.labels)
        covered += report.fg_covered
        total += report.fg_points
        max_props = max(max_props, report.n_proposals)
        assert report.n_proposals <= 60
    recall = covered / total
    assert recall >= 0.95, f"aggregate recall {recall:.4f}"
    print(f"ACCEPTANCE 3 stage1-recall-desk-scale (50 frames, recall "
          f"{recall:.4f}, <= {max_props} proposals/frame): PASS")


def test_04_timing_envelope():
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:  # pragma: no cover
        import contextlib
        threadpool_limits = lambda limits: contextlib.nullcontext()
    cfg = load_config()
    scene = generate_synthetic_scene(sample_traffic_scene(seed=0, n_objects=8))
    assert len(scene.cloud) >= 100_000
    with threadpool_limits(limits=1):
        report, timed = benchmark_stage1(scene.cloud, cfg.ground, cfg.cluster,
                                         cfg.refine, cfg.num_rings,
                                         repetitions=5)
    direct = run_stage1(scene.cloud, cfg.ground, cfg.cluster, cfg.refine,
                        cfg.num_rings)
    np.testing.assert_array_equal(timed.cluster_labels, direct.cluster_labels)
    assert report.proposals_out == len(direct.proposals)
    total_ms = report.median_us["total"] / 1000.0
    assert total_ms <= 50.0, f"median stage-1 {total_ms:.1f} ms"
    print(f"ACCEPTANCE 4 timing-envelope ({len(scene.cloud)} pts, median "
          f"{total_ms:.1f} ms <= 50 ms): PASS")


def test_05_min_area_box_vs_sweep():
    rng = np.random.default_rng(55)
    e1, e2 = plane_basis(UP)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 80))
        pts = np.column_stack([
            rng.normal(0, rng.uniform(0.5, 4.0), n),
            rng.normal(0, rng.uniform(0.5, 4.0), n),
            rng.uniform(0.0, 2.0, n),
        ])
        box = fit_box(pts, UP)
        area = 4.0 * box.half_extents[0] * box.half_extents[1]
        uv = np.column_stack([pts @ e1, pts @ e2])
        oracle = sweep_min_rect_area(uv, step_deg=0.05)
        rel = abs(area - oracle) / oracle
        worst = max(worst, rel)
        assert area <= oracle + 1e-12  # calipers attains the optimum
        assert rel <= 0.005
    print(f"ACCEPTANCE 5 min-area-box (200 hulls, worst dev {worst:.2e}): PASS")


def test_06_augmentation_properties():
    rng = np.random.default_rng(66)
    mats = DIHEDRAL_LINEAR
    for a in mats:
        for b in mats:
            prod = a @ b
            assert any(np.abs(prod - m).max() <= 1e-12 for m in mats), \
                "dihedral set not closed under composition"
    for _ in range(100):
        n = int(rng.integers(3, 50))
        pts = rng.uniform(-2, 2, (n, 3)) * [2.0, 0.9, 0.6] + [9, -3, -1]
        cloud = PointCloud(xyz=pts, intensity=rng.random(n))
        bbox = fit_box(pts, UP)
        prop = Proposal(1, np.arange(n), bbox,
                        float(np.linalg.norm(pts.mean(axis=0))))
        sample = canonical_transform(prop, cloud, np.random.default_rng(1))
        # N = 24: fewer, as many and more points than rows all occur
        records, _ = written_variants(sample, 24, [[n, k] for k in range(8)])
        assert records["variant_id"].tolist() == list(range(8))
        variants = dihedral_variants(sample)
        assert len(variants) == 8
        assert variants[0][0].tobytes() == sample.local_points.tobytes()
        ref = pairwise_distance_multiset(sample.local_points)
        for points, _ in variants:
            assert points.min() >= -1e-9
            np.testing.assert_allclose(pairwise_distance_multiset(points),
                                       ref, atol=1e-9)
    print("ACCEPTANCE 6 augmentation-properties (100 samples x 8 variants): PASS")


def test_07_feature_and_resampling_rules():
    rng = np.random.default_rng(77)
    n_points = 512
    for num, expected in ((256, -0.5), (512, 0.0), (1024, 1.0), (1536, 2.0)):
        pts = rng.uniform(0, 2, (num, 3))
        cloud = PointCloud(xyz=pts + [8, 0, 0], intensity=rng.random(num))
        bbox = fit_box(cloud.xyz, UP)
        prop = Proposal(1, np.arange(num), bbox, 8.0)
        sample = canonical_transform(prop, cloud, np.random.default_rng(2))
        records, [(out, _)] = written_variants(sample, n_points, [3])
        assert records["features"].shape == (1, n_points, 5)
        assert out.shape[0] == n_points
        assert records["num_original"][0] == num
        assert (records["features"][0, :, 4] == np.float32(expected)).all()
        if num > n_points:
            # distinct selection: no original row reused
            assert len(np.unique(out, axis=0)) == n_points
        elif num < n_points:
            # full coverage: every original point appears at least once
            src = {tuple(np.round(p, 12)) for p in sample.local_points}
            got = {tuple(np.round(p, 12)) for p in out}
            assert src == got
    print("ACCEPTANCE 7 feature-and-resampling (NUM in {N/2, N, 2N, 3N}): PASS")


def test_08_metrics_oracle():
    rng = np.random.default_rng(88)
    for _ in range(1000):
        n = int(rng.integers(1, 64))
        pred = rng.integers(0, 4, n).astype(np.uint8)
        gt = rng.integers(0, 4, n).astype(np.uint8)
        report = pointwise_metrics(pred, gt)
        p, g, pg = counting_metrics(pred, gt)
        for c in range(4):
            assert (report.pred_count[c], report.gt_count[c],
                    report.overlap_count[c]) == (p[c], g[c], pg[c])
    pred = np.array([0, 1, 1, 1, 0], dtype=np.uint8)
    gt = np.array([0, 0, 1, 1, 1], dtype=np.uint8)
    report = pointwise_metrics(pred, gt)
    assert report.precision[1] == pytest.approx(2 / 3)
    assert report.recall[1] == pytest.approx(2 / 3)
    assert report.iou[1] == pytest.approx(0.5)
    print("ACCEPTANCE 8 metrics-counting-oracle (1000 vectors + hand case): PASS")


_SCENE = """
seed = 31
num_rings = 16
points_per_ring = 420
noise_sigma = 0.02
elevation_min_deg = -14
elevation_max_deg = -1.2
objects.0.class = car
objects.0.shape = box
objects.0.x = 9.0
objects.0.y = 2.5
objects.0.yaw_deg = 40
objects.0.length = 4.2
objects.0.width = 1.8
objects.0.height = 1.5
objects.1.class = pedestrian
objects.1.shape = cylinder
objects.1.x = -7.0
objects.1.y = -5.0
objects.1.radius = 0.4
objects.1.height = 1.7
"""


def test_09_cli_determinism(tmp_path):
    frames = tmp_path / "frames"
    scene = tmp_path / "scene.cfg"
    scene.write_text(_SCENE)
    assert main(["synth", "--scene", str(scene), "--output", str(frames),
                 "--frames", "3"]) == 0

    def run(tag: str, jobs: str):
        seg = tmp_path / f"seg_{tag}"
        archive = tmp_path / f"samples_{tag}.ps3d"
        assert main(["segment", "--input", str(frames), "--output", str(seg),
                     "--jobs", jobs]) == 0
        assert main(["prepare", "--input", str(frames), "--segments", str(seg),
                     "--output", str(archive), "--seed", "13", "--augment",
                     "--n-points", "64", "--jobs", jobs]) == 0
        digest = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(seg.iterdir())}
        digest["__archive__"] = hashlib.sha256(archive.read_bytes()).hexdigest()
        return digest

    first = run("a", "1")
    second = run("b", "1")
    pooled = run("c", "8")
    assert first == second == pooled
    print("ACCEPTANCE 9 cli-determinism (2 runs + jobs 1 vs 8): PASS")


def test_10_format_roundtrips(tmp_path):
    rng = np.random.default_rng(101)
    for trial in range(100):
        cloud = random_cloud(rng, int(rng.integers(0, 200)))
        path = tmp_path / "c.bin"
        save_point_cloud(cloud, path)
        back, kept = load_point_cloud(path)
        assert kept is None
        assert back.xyz.tobytes() == cloud.xyz.tobytes()
        assert back.intensity.tobytes() == cloud.intensity.tobytes()

        labels = rng.integers(0, 4, len(cloud)).astype(np.uint8)
        lpath = tmp_path / "c.label"
        save_labels(labels, lpath)
        assert load_labels(lpath, len(cloud)).tobytes() == labels.tobytes()

    for trial in range(100):
        n_points = int(rng.integers(2, 48))
        chunks = [np.zeros(0, dtype=record_dtype(n_points))]
        for k in range(int(rng.integers(0, 5))):
            num = int(rng.integers(1, 3 * n_points))
            pts = rng.uniform(0, 3, (num, 3))
            s = Sample(local_points=pts, intensities=rng.random(num),
                       class_label=int(rng.integers(0, 4)), frame_id=trial,
                       cluster_id=k + 1, origin_vertex=0,
                       half_extents=fit_box(pts, UP).half_extents)
            keys = [[trial, k, j] for j in range(int(rng.integers(1, 9)))]
            chunks.append(written_variants(s, n_points, keys)[0])
        written = np.concatenate(chunks)  # each sample's checked against the oracle chain
        apath = tmp_path / "a.ps3d"
        export_samples(written, apath)
        n_back, records = load_samples(apath)
        assert n_back == n_points and len(records) == len(written)
        for w, r in zip(written, records):
            assert r.features.tobytes() == w["features"].tobytes()
            assert (r.class_label, r.variant_id, r.frame_id, r.cluster_id,
                    r.num_original) == w[["class_label", "variant_id", "frame_id",
                                          "cluster_id", "num_original"]].item()
    print("ACCEPTANCE 10 format-roundtrips (bin/label/archive x100): PASS")
