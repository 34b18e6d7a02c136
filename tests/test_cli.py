import ctypes
import hashlib
import os
import platform
import shutil
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ringseg
from ringseg import (
    DEFAULT_SIZE_PRIORS,
    ClassId,
    ConfigError,
    PipelineConfig,
    PointCloud,
    build_config,
    cli,
    generate_synthetic_scene,
    load_config,
    load_samples,
    sample_traffic_scene,
    save_labels,
    save_point_cloud,
)
from ringseg.cli import _run_frames, main
from ringseg.cloud import load_labels, load_point_cloud, load_point_values
from ringseg.config import _KEYS
from ringseg.samples import record_dtype
from ringseg.synth import scene_from_file

SCENE_TEXT = """
seed = 20
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
objects.2.class = cyclist
objects.2.shape = composite
objects.2.x = -2.0
objects.2.y = 10.0
objects.2.yaw_deg = 105
objects.2.length = 1.8
objects.2.width = 0.5
objects.2.height = 1.1
objects.2.radius = 0.3
objects.2.rider_height = 0.9
"""


def _digest_tree(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("frames")
    scene = out / "scene.cfg"
    scene.write_text(SCENE_TEXT)
    assert main(["synth", "--scene", str(scene), "--output", str(out),
                 "--frames", "3"]) == 0
    scene.unlink()
    return out


def test_synth_outputs_exist(synth_dir, tmp_path):
    # each per-record file holds its seed's truth, one value per .bin record
    scene_file = tmp_path / "scene.cfg"
    scene_file.write_text(SCENE_TEXT)
    spec = scene_from_file(scene_file)
    for i in range(3):
        scene = generate_synthetic_scene(replace(spec, rng_seed=spec.rng_seed + i))
        stem = synth_dir / f"{i:06d}"
        cloud, kept = load_point_cloud(f"{stem}.bin")
        assert kept is None and len(cloud) == len(scene.cloud)
        np.testing.assert_array_equal(load_labels(f"{stem}.label", len(cloud)),
                                      scene.cloud.labels)
        np.testing.assert_array_equal(load_point_values(f"{stem}.ground", np.uint8, len(cloud)),
                                      scene.ground_mask)
        np.testing.assert_array_equal(load_point_values(f"{stem}.rings", "<u4", len(cloud)),
                                      scene.ring_ids)


def test_synth_deterministic(synth_dir, tmp_path):
    scene = tmp_path / "scene.cfg"
    scene.write_text(SCENE_TEXT)
    out = tmp_path / "again"
    assert main(["synth", "--scene", str(scene), "--output", str(out),
                 "--frames", "3"]) == 0
    ours = {k: v for k, v in _digest_tree(out).items()}
    theirs = {k: v for k, v in _digest_tree(synth_dir).items()}
    assert ours == theirs


def test_segment_and_eval_chain(synth_dir, tmp_path):
    seg = tmp_path / "seg"
    assert main(["segment", "--input", str(synth_dir),
                 "--output", str(seg)]) == 0
    for i in range(3):
        assert (seg / f"{i:06d}.cluster").exists()
        assert (seg / f"{i:06d}.proposals.txt").exists()
    manifest = (seg / "000000.proposals.txt").read_text().strip().splitlines()
    assert len(manifest) == 3  # three well-separated objects

    report = tmp_path / "eval.txt"
    assert main(["eval", "--gt", str(synth_dir), "--clusters", str(seg),
                 "--output", str(report)]) == 0
    lines = report.read_text().strip().splitlines()
    assert len(lines) == 4  # 3 frames + summary
    summary = dict(tok.split("=", 1) for tok in lines[-1].split())
    assert summary["frame"] == "all"
    assert float(summary["recall"]) > 0.9
    assert "recall_pct" in summary and "proposals_per_frame" in summary
    assert "points_passed_per_frame" in summary


def test_eval_identity_labels(synth_dir, tmp_path):
    report = tmp_path / "eval.txt"
    assert main(["eval", "--gt", str(synth_dir), "--pred", str(synth_dir),
                 "--output", str(report)]) == 0
    summary = dict(tok.split("=", 1)
                   for tok in report.read_text().strip().splitlines()[-1].split())
    assert float(summary["avg_iou"]) == 1.0
    assert float(summary["iou_car"]) == 1.0


def test_prepare_archive_and_augment(synth_dir, tmp_path):
    seg = tmp_path / "seg"
    assert main(["segment", "--input", str(synth_dir), "--output", str(seg)]) == 0
    archive = tmp_path / "plain.ps3d"
    assert main(["prepare", "--input", str(synth_dir), "--segments", str(seg),
                 "--output", str(archive), "--n-points", "128",
                 "--seed", "5"]) == 0
    n, records = load_samples(archive)
    assert n == 128
    assert records  # foreground proposals made it in
    base_count = len(records)

    augmented = tmp_path / "aug.ps3d"
    assert main(["prepare", "--input", str(synth_dir), "--segments", str(seg),
                 "--output", str(augmented), "--n-points", "128",
                 "--seed", "5", "--augment"]) == 0
    _, aug_records = load_samples(augmented)
    fg = [r for r in records if r.class_label > 0]
    bg = [r for r in records if r.class_label == 0]
    assert len(aug_records) == 8 * len(fg) + len(bg)
    variants = {(r.frame_id, r.cluster_id, r.variant_id) for r in aug_records
                if r.class_label > 0}
    for frame, cluster in {(r.frame_id, r.cluster_id) for r in fg}:
        assert {(frame, cluster, v) for v in range(8)} <= variants
    # NUM passthrough: identical pre-resampling count for all 8 variants
    for r in aug_records:
        assert r.num_original >= 1
    assert base_count == len(fg) + len(bg)


def test_prepare_missing_labels_names_frame(synth_dir, tmp_path, caplog):
    seg = tmp_path / "seg"
    assert main(["segment", "--input", str(synth_dir), "--output", str(seg)]) == 0
    broken = tmp_path / "broken"
    broken.mkdir()
    for p in synth_dir.glob("*.bin"):
        (broken / p.name).write_bytes(p.read_bytes())
    archive = tmp_path / "x.ps3d"
    code = main(["prepare", "--input", str(broken), "--segments", str(seg),
                 "--output", str(archive)])
    assert code == 1
    assert "000000" in caplog.text
    # every frame failed: an empty archive would pass for a run without proposals
    assert not archive.exists()


def _records(path: Path) -> list[dict[str, str]]:
    return [dict(tok.split("=", 1) for tok in line.split())
            for line in path.read_text().strip().splitlines()]


@pytest.mark.parametrize("command", ["segment", "prepare", "eval", "bench"])
def test_one_bad_frame_costs_only_that_frame(command, synth_dir, tmp_path, caplog):
    frames = tmp_path / "frames"
    shutil.copytree(synth_dir, frames)
    seg = tmp_path / "seg"
    if command == "prepare":
        assert main(["segment", "--input", str(frames), "--output", str(seg)]) == 0
        (frames / "000001.label").unlink()
    else:
        (frames / "000001.bin").write_bytes(b"\x01" * 19)
        if command == "eval":  # leaves the bad frame without a .cluster file
            assert main(["segment", "--input", str(frames), "--output", str(seg)]) == 1
    out = tmp_path / "out"
    argv = {
        "segment": ["segment", "--input", str(frames), "--output", str(seg),
                    "--jobs", "2"],
        "prepare": ["prepare", "--input", str(frames), "--segments", str(seg),
                    "--output", str(out), "--n-points", "64", "--jobs", "2"],
        "eval": ["eval", "--gt", str(frames), "--clusters", str(seg),
                 "--output", str(out)],
        "bench": ["bench", "--input", str(frames), "--reps", "1", "--output", str(out)],
    }[command]
    caplog.clear()
    assert main(argv) == 1
    assert "frame 000001 skipped" in caplog.text
    assert "Traceback" not in caplog.text
    if command == "segment":
        assert sorted(p.name for p in seg.glob("*.cluster")) == [
            "000000.cluster", "000002.cluster"]
    elif command == "prepare":
        _, samples = load_samples(out)
        assert {r.frame_id for r in samples} == {0, 2}
    else:
        stems = [r["frame"] for r in _records(out)]
        assert stems == (["000000", "000002", "all"] if command == "eval"
                         else ["000000", "000002"])
    if command == "eval":
        assert _records(out)[-1]["frames"] == "2"


def test_eval_summary_without_good_frames_has_no_pooled_fields(synth_dir, tmp_path):
    report = tmp_path / "eval.txt"
    empty = tmp_path / "none"  # a directory without the frames' files fails each frame
    empty.mkdir()
    assert main(["eval", "--gt", str(synth_dir), "--pred", str(empty),
                 "--clusters", str(empty), "--output", str(report)]) == 1
    assert report.read_text() == "frame=all frames=0\n"


@pytest.mark.parametrize("bad_line, reason", [
    ("garbage here", "expected key=value tokens"),
    ("cluster=1", "no count, d, cx, cy, cz, yaw, hx, hy, hz, nx, ny, nz field"),
    # blank and comment lines are skipped, but they count for the line number
    ("\n# a comment\ngarbage here", "expected key=value tokens"),
    ("cluster=1 count=x d=1 cx=0 cy=0 cz=0 yaw=0 hx=1 hy=1 hz=1 nx=0 ny=0 nz=1",
     "invalid literal for int() with base 10: 'x'"),
])
def test_prepare_bad_manifest_line_names_file_and_line(synth_dir, tmp_path, caplog,
                                                       bad_line, reason):
    seg = tmp_path / "seg"
    assert main(["segment", "--input", str(synth_dir), "--output", str(seg)]) == 0
    manifest = seg / "000000.proposals.txt"
    n_lines = len(manifest.read_text().splitlines())
    manifest.write_text(manifest.read_text() + bad_line + "\n")
    caplog.clear()
    assert main(["prepare", "--input", str(synth_dir), "--segments", str(seg),
                 "--output", str(tmp_path / "s.ps3d")]) == 1
    assert (f"FileFormatError: {manifest}:{n_lines + bad_line.count(chr(10)) + 1}: {reason}"
            in caplog.text)
    _, samples = load_samples(tmp_path / "s.ps3d")
    assert {r.frame_id for r in samples} == {1, 2}


def _with_fields(line: str, **fields: str) -> str:
    return " ".join(f"{key}={fields.get(key, value)}"
                    for key, value in (tok.split("=", 1) for tok in line.split()))


def _field(line: str, key: str) -> str:
    return dict(tok.split("=", 1) for tok in line.split())[key]


@pytest.mark.parametrize("edit, message", [
    (lambda lines: [_with_fields(lines[0], nx="nan"), *lines[1:]],
     "FileFormatError: {manifest}:1: nx=nan is not finite"),
    (lambda lines: [_with_fields(lines[0], hx="-0.5"), *lines[1:]],
     "FileFormatError: {manifest}:1: half extent hx=-0.5 is not positive"),
    (lambda lines: [_with_fields(lines[0], nx="0.0", ny="0.0", nz="0.0"), *lines[1:]],
     "FileFormatError: {manifest}:1: normal (nx, ny, nz) has length 0.0, not 1"),
    (lambda lines: [*lines, lines[0]],
     "FileFormatError: {manifest}:{last}: cluster={cluster} repeats line 1"),
    (lambda lines: [_with_fields(lines[0], cluster="0"), *lines[1:]],
     "FileFormatError: {manifest}:1: cluster=0 is no proposal id: ids start at 1"),
    (lambda lines: [_with_fields(lines[0], count="5"), *lines[1:]],
     "AlignmentError: {manifest} and {cluster_file} disagree on cluster {cluster}: "
     "the manifest has count=5, the .cluster file {count} points"),
    (lambda lines: lines[1:],
     "AlignmentError: {manifest} and {cluster_file} disagree on cluster {cluster}: "
     "the manifest has no line, the .cluster file {count} points"),
    (lambda lines: [],
     "AlignmentError: {manifest} and {cluster_file} disagree on cluster {smallest}: "
     "the manifest has no line, the .cluster file {smallest_count} points"),
], ids=["non-finite", "negative-half-extent", "zero-normal", "repeated-cluster", "cluster-0",
        "wrong-count", "first-line-removed", "emptied"])
def test_prepare_rejects_manifest_values_it_cannot_use(synth_dir, tmp_path, caplog,
                                                       edit, message):
    # each edit made `prepare` exit 0 with a wrong archive before the reader
    # checked values and the manifest was checked against the .cluster file:
    # non-finite features, coordinates below 0, a sample twice, a sample of
    # every point outside the proposals, a count nothing read, a sample
    # fewer, no sample
    seg = tmp_path / "seg"
    assert main(["segment", "--input", str(synth_dir), "--output", str(seg)]) == 0
    manifest = seg / "000000.proposals.txt"
    lines = manifest.read_text().splitlines()
    counts = {int(_field(line, "cluster")): int(_field(line, "count")) for line in lines}
    smallest = min(counts)
    edited = edit(lines)
    manifest.write_text("".join(line + "\n" for line in edited))
    caplog.clear()
    assert main(["prepare", "--input", str(synth_dir), "--segments", str(seg),
                 "--output", str(tmp_path / "s.ps3d"), "--augment"]) == 1
    cluster = int(_field(lines[0], "cluster"))
    assert message.format(manifest=manifest, cluster_file=seg / "000000.cluster",
                          last=len(edited), cluster=cluster, count=counts[cluster],
                          smallest=smallest, smallest_count=counts[smallest]) in caplog.text
    _, samples = load_samples(tmp_path / "s.ps3d")
    assert {r.frame_id for r in samples} == {1, 2}


def test_prepare_manifest_id_without_points_fails_the_frame(synth_dir, tmp_path, caplog):
    seg = tmp_path / "seg"
    assert main(["segment", "--input", str(synth_dir), "--output", str(seg)]) == 0
    manifest = seg / "000000.proposals.txt"
    first = manifest.read_text().splitlines()[0]
    # a manifest line from another run: its id labels no point of this .cluster file
    manifest.write_text(manifest.read_text() + first.replace(first.split()[0],
                                                             "cluster=999999") + "\n")
    caplog.clear()
    assert main(["prepare", "--input", str(synth_dir), "--segments", str(seg),
                 "--output", str(tmp_path / "s.ps3d")]) == 1
    assert (f"frame 000000 skipped: AlignmentError: {manifest} and {seg / '000000.cluster'} "
            f"disagree on cluster 999999: the manifest has count={_field(first, 'count')}, "
            "the .cluster file 0 points") in caplog.text
    _, samples = load_samples(tmp_path / "s.ps3d")
    assert {r.frame_id for r in samples} == {1, 2}


def test_prepare_timestamp_stems_take_their_position(synth_dir, tmp_path, caplog):
    frames = tmp_path / "frames"
    frames.mkdir()
    # microsecond timestamps, as drivers name their dumps; 2**32 itself is no frame id
    stems = {"000000": "1533151603547590", "000001": "4294967296", "000002": "4294967295"}
    for old, new in stems.items():
        for ext in (".bin", ".label"):
            shutil.copy(synth_dir / f"{old}{ext}", frames / f"{new}{ext}")
    seg = tmp_path / "seg"
    assert main(["segment", "--input", str(frames), "--output", str(seg)]) == 0
    caplog.clear()
    archive = tmp_path / "s.ps3d"
    assert main(["prepare", "--input", str(frames), "--segments", str(seg),
                 "--output", str(archive), "--n-points", "64"]) == 0
    assert "Traceback" not in caplog.text
    _, samples = load_samples(archive)
    # sorted stems: 1533151603547590, 4294967295, 4294967296
    assert {r.frame_id for r in samples} == {0, 4294967295, 2}


@pytest.mark.parametrize("stems", [("000001", "1"), ("000001", "a")],
                         ids=["number", "position"])
def test_prepare_refuses_two_frames_with_one_id(stems, synth_dir, tmp_path, caplog):
    # "1" is frame 1 by its number; "a", at position 1 of the sorted list, by its place
    frames = tmp_path / "frames"
    frames.mkdir()
    for stem in stems:
        for ext in (".bin", ".label"):
            shutil.copy(synth_dir / f"000000{ext}", frames / f"{stem}{ext}")
    archive = tmp_path / "s.ps3d"
    caplog.clear()
    assert main(["prepare", "--input", str(frames), "--output", str(archive)]) == 2
    assert (f"config key 'input': frames {stems[0]} and {stems[1]} both take frame id 1"
            in caplog.text)
    assert "skipped" not in caplog.text  # refused before any frame is read
    assert not archive.exists()


def test_unwritable_output_exits_1_with_one_error(synth_dir, tmp_path, caplog, capsys):
    seg = tmp_path / "seg"
    assert main(["segment", "--input", str(synth_dir), "--output", str(seg)]) == 0
    archive = tmp_path / "missing" / "s.ps3d"
    caplog.clear()
    assert main(["prepare", "--input", str(synth_dir), "--segments", str(seg),
                 "--output", str(archive), "--n-points", "64"]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and str(archive) in errors[0]
    assert "Traceback" not in caplog.text + capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "prepare"])
def test_cluster_file_with_trailing_bytes_fails_the_frame(command, synth_dir, tmp_path,
                                                         caplog):
    seg = tmp_path / "seg"
    assert main(["segment", "--input", str(synth_dir), "--output", str(seg)]) == 0
    cluster = seg / "000000.cluster"
    size = cluster.stat().st_size + 2
    with cluster.open("ab") as f:  # half an id, which np.fromfile would drop
        f.write(b"\x00\x00")
    out = tmp_path / "out"
    argv = {
        "eval": ["eval", "--gt", str(synth_dir), "--clusters", str(seg),
                 "--output", str(out)],
        "prepare": ["prepare", "--input", str(synth_dir), "--segments", str(seg),
                    "--output", str(out), "--n-points", "64"],
    }[command]
    caplog.clear()
    assert main(argv) == 1
    assert (f"frame 000000 skipped: AlignmentError: {cluster}: {size} bytes, "
            f"not 4 x {size // 4} records\n" in caplog.text)
    if command == "eval":
        assert [r["frame"] for r in _records(out)] == ["000001", "000002", "all"]
    else:
        _, samples = load_samples(out)
        assert {r.frame_id for r in samples} == {1, 2}


# the scene of the CI workflow's installed-entry-point step: 16 x 400 = 6,400 records
CI_SCENE_TEXT = """
num_rings = 16
points_per_ring = 400
elevation_min_deg = -14
elevation_max_deg = -1.2
objects.0.class = car
objects.0.shape = box
objects.0.x = 8
objects.0.y = 2
objects.0.length = 4.2
objects.0.width = 1.8
objects.0.height = 1.5
"""


@pytest.fixture(scope="module")
def ci_frame(tmp_path_factory):
    """Frame 0 of the CI scene and its segments."""
    root = tmp_path_factory.mktemp("ci")
    (root / "scene.cfg").write_text(CI_SCENE_TEXT)
    assert main(["synth", "--scene", str(root / "scene.cfg"), "--output", str(root / "frames"),
                 "--frames", "1"]) == 0
    assert main(["segment", "--input", str(root / "frames"), "--output", str(root / "seg")]) == 0
    assert len(load_point_cloud(root / "frames" / "000000.bin")[0]) == 6400
    return root


def _gt_dir(ci_frame, tmp_path, label_bytes: int | None = None, bin_tail: bytes | None = b"",
            name: str = "gt") -> Path:
    """A --gt directory holding frame 0's .label, cut to `label_bytes`, and its
    .bin with `bin_tail` appended, or no .bin when `bin_tail` is None."""
    gt = tmp_path / name
    gt.mkdir()
    frames = ci_frame / "frames"
    (gt / "000000.label").write_bytes((frames / "000000.label").read_bytes()[:label_bytes])
    if bin_tail is not None:
        (gt / "000000.bin").write_bytes((frames / "000000.bin").read_bytes() + bin_tail)
    return gt


def test_eval_cut_label_fails_by_its_own_name(ci_frame, tmp_path, caplog):
    gt = _gt_dir(ci_frame, tmp_path, label_bytes=1000)
    out = tmp_path / "out"
    caplog.clear()
    assert main(["eval", "--gt", str(gt), "--clusters", str(ci_frame / "seg"),
                 "--output", str(out)]) == 1
    assert (f"frame 000000 skipped: AlignmentError: {gt / '000000.label'}: 1000 bytes, "
            "not 1 x 6400 records\n" in caplog.text)
    assert "Traceback" not in caplog.text


def test_eval_cut_label_and_prediction_score_nothing(ci_frame, tmp_path):
    gt = _gt_dir(ci_frame, tmp_path, label_bytes=1000)
    pred = _gt_dir(ci_frame, tmp_path, label_bytes=1000, bin_tail=None, name="pred")
    out = tmp_path / "out"
    assert main(["eval", "--gt", str(gt), "--pred", str(pred), "--output", str(out)]) == 1
    assert out.read_text() == "frame=all frames=0\n"


def test_eval_bin_of_partial_records_fails_the_frame(ci_frame, tmp_path, caplog):
    gt = _gt_dir(ci_frame, tmp_path, bin_tail=b"\x00" * 3)
    caplog.clear()
    assert main(["eval", "--gt", str(gt), "--pred", str(gt), "--output",
                 str(tmp_path / "out")]) == 1
    assert (f"frame 000000 skipped: FileFormatError: {gt / '000000.bin'}: size 102403 "
            "is not a multiple of 16\n" in caplog.text)


def test_eval_labels_without_bin_still_evaluate(ci_frame, tmp_path):
    gt = _gt_dir(ci_frame, tmp_path, bin_tail=None)
    out = tmp_path / "out"
    assert main(["eval", "--gt", str(gt), "--pred", str(gt), "--clusters",
                 str(ci_frame / "seg"), "--output", str(out)]) == 0
    frame, summary = _records(out)
    assert frame["frame"] == "000000" and summary["frames"] == "1"
    assert float(summary["avg_iou"]) == 1.0


_FAULT_PROBE = """
import resource, sys
from ringseg.cli import main
assert main(["segment", "--input", sys.argv[1], "--output", sys.argv[2],
             "--jobs", "1"]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the CLI pins glibc's allocator only")
def test_segment_frame_loop_does_not_page_fault(tmp_path):
    # a fresh process per run; the faults of frames 3-8 are the difference.
    # Unpinned, each 102,400-point frame takes ~2,500 (its arrays mapped anew)
    frame = tmp_path / "frame.bin"
    save_point_cloud(generate_synthetic_scene(sample_traffic_scene(0)).cloud, frame)
    src = str(Path(ringseg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    faults = {}
    for n in (2, 8):
        frames = tmp_path / f"in{n}"
        frames.mkdir()
        for i in range(n):
            shutil.copy(frame, frames / f"{i:06d}.bin")
        proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE, str(frames),
                               str(tmp_path / f"seg{n}")], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        faults[n] = int(proc.stdout.split()[-1])
    assert (faults[8] - faults[2]) / 6 < 250


def test_main_runs_where_libc_has_no_mallopt(synth_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert main(["segment", "--input", str(synth_dir),
                 "--output", str(tmp_path / "seg")]) == 0


def test_segment_prepare_deterministic_across_runs_and_jobs(synth_dir, tmp_path):
    digests = []
    for run, jobs in (("a", "1"), ("b", "1"), ("c", "4")):
        seg = tmp_path / f"seg_{run}"
        archive = tmp_path / f"samples_{run}.ps3d"
        assert main(["segment", "--input", str(synth_dir), "--output", str(seg),
                     "--jobs", jobs]) == 0
        assert main(["prepare", "--input", str(synth_dir), "--segments",
                     str(seg), "--output", str(archive), "--seed", "7",
                     "--n-points", "64", "--augment", "--jobs", jobs]) == 0
        tree = _digest_tree(seg)
        tree["__archive__"] = hashlib.sha256(archive.read_bytes()).hexdigest()
        digests.append(tree)
    assert digests[0] == digests[1] == digests[2]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="shares run in forked children")
def test_prepare_frame_outcome_is_one_record_array(synth_dir, tmp_path, monkeypatch):
    seg, archive = tmp_path / "seg", tmp_path / "s.ps3d"
    assert main(["segment", "--input", str(synth_dir), "--output", str(seg)]) == 0
    run_frames, outcomes = cli._run_frames, []

    def recording(*args, **kwargs):
        results, failed = run_frames(*args, **kwargs)
        outcomes.extend(results)
        return results, failed

    monkeypatch.setattr(cli, "_run_frames", recording)
    assert main(["prepare", "--input", str(synth_dir), "--segments", str(seg),
                 "--output", str(archive), "--n-points", "64", "--augment",
                 "--jobs", "2"]) == 0
    # frame 1 comes back from the forked child, frames 0 and 2 from the parent
    assert all(type(o) is np.ndarray and o.dtype == record_dtype(64) for o in outcomes)
    assert [set(o["frame_id"].tolist()) for o in outcomes] == [{0}, {1}, {2}]
    assert sum(map(len, outcomes)) == len(load_samples(archive)[1])


def _stem_and_pid(stem: str, _) -> tuple[str, int]:
    return stem, os.getpid()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="shares run in forked children")
@pytest.mark.parametrize("jobs", range(1, 6))
def test_frame_loop_runs_strided_shares(jobs, monkeypatch):
    fork, forks = os.fork, []

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    for n in range(8):
        forks.clear()
        frames = [(f"{i:06d}", i) for i in range(n)]
        results, failed = _run_frames(_stem_and_pid, frames, jobs)
        assert failed == 0
        assert [stem for stem, _ in results] == [stem for stem, _ in frames], (n, jobs)
        pids = [pid for _, pid in results]
        shares = [set(pids[k::jobs]) for k in range(min(jobs, n))]
        assert all(len(share) == 1 for share in shares), (n, jobs)
        assert len(set.union(set(), *shares)) == len(shares), (n, jobs)
        assert not shares or shares[0] == {os.getpid()}, (n, jobs)
        assert len(forks) <= max(min(jobs, n) - 1, 0), (n, jobs)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="shares run in forked children")
def test_dead_worker_costs_only_its_unfinished_frames(synth_dir, tmp_path, monkeypatch,
                                                       caplog):
    test_pid, segment_one = os.getpid(), ringseg.cli._segment_one

    def dies_in_child(stem, *args, **kwargs):
        if stem == "000001" and os.getpid() != test_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return segment_one(stem, *args, **kwargs)

    monkeypatch.setattr(ringseg.cli, "_segment_one", dies_in_child)
    seg = tmp_path / "seg"
    assert main(["segment", "--input", str(synth_dir), "--output", str(seg),
                 "--jobs", "2"]) == 1
    assert sorted(p.name for p in seg.glob("*.cluster")) == [
        "000000.cluster", "000002.cluster"]
    assert "frame 000001 skipped: worker exited with signal 9" in caplog.text
    assert "Traceback" not in caplog.text


@pytest.mark.parametrize("kind", ["missing", "file"])
@pytest.mark.parametrize("command", ["segment", "prepare", "bench", "eval"])
def test_input_that_is_no_directory_exits_2(command, kind, tmp_path, caplog):
    # each used to log "no .bin frames" (or ".label" files) and exit 0
    path = tmp_path / "frames"
    if kind == "file":
        path.write_bytes(b"")
    out = tmp_path / "out"
    argv, flag = {
        "segment": (["segment", "--input", str(path)], "--input"),
        "prepare": (["prepare", "--input", str(path)], "--input"),
        "bench": (["bench", "--input", str(path), "--reps", "1"], "--input"),
        "eval": (["eval", "--gt", str(path), "--clusters", str(tmp_path)], "--gt"),
    }[command]
    caplog.clear()
    assert main(argv + ["--output", str(out)]) == 2
    assert f"config key '{flag}': {path} is not a directory" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("kind", ["missing", "file"])
@pytest.mark.parametrize("flag", ["--segments", "--pred", "--clusters"])
def test_directory_flag_that_is_no_directory_exits_2(flag, kind, synth_dir, tmp_path,
                                                     caplog):
    # each used to fail every frame and exit 1; eval still wrote its report
    path = tmp_path / "dir"
    if kind == "file":
        path.write_bytes(b"")
    out = tmp_path / "out"
    argv = {
        "--segments": ["prepare", "--input", str(synth_dir), "--n-points", "64"],
        "--pred": ["eval", "--gt", str(synth_dir)],
        "--clusters": ["eval", "--gt", str(synth_dir)],
    }[flag]
    caplog.clear()
    assert main(argv + [flag, str(path), "--output", str(out)]) == 2
    assert f"config key '{flag}': {path} is not a directory" in caplog.text
    assert "skipped" not in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "bench"])
def test_empty_dir_writes_no_report(command, tmp_path, caplog):
    empty = tmp_path / "none"
    empty.mkdir()
    report = tmp_path / "report.txt"
    argv = {"eval": ["eval", "--gt", str(empty), "--clusters", str(empty)],
            "bench": ["bench", "--input", str(empty), "--reps", "1"]}[command]
    assert main(argv + ["--output", str(report)]) == 0
    assert not report.exists()
    suffix = ".label" if command == "eval" else ".bin"
    assert f"no {suffix} frames under {empty}; nothing to do" in caplog.text


@pytest.mark.parametrize("argv, message", [
    (["segment", "--input", "i"],
     "config key 'input/output': segment needs --input and --output"),
    (["prepare", "--output", "o"],
     "config key 'input/output': prepare needs --input and --output"),
    (["eval", "--gt", "g"], "config key 'pred/clusters': eval needs --pred and/or --clusters"),
    (["synth", "--scene", "s.cfg"], "config key 'output': synth needs --output"),
], ids=["segment", "prepare", "eval", "synth"])
def test_command_without_a_required_flag_exits_2(argv, message, caplog):
    caplog.clear()
    assert main(argv) == 2
    assert message in caplog.text


@pytest.mark.parametrize("case", ["config", "scene", "manifest"])
def test_text_file_that_is_not_utf8_is_named(case, synth_dir, tmp_path, caplog, capsys):
    # a config or scene file ended in a UnicodeDecodeError traceback; a
    # manifest skipped its frame with an error that named no file
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"# written in latin-1\nname = caf\xe9\n")
    out = tmp_path / "out"
    if case == "manifest":
        seg = tmp_path / "seg"
        assert main(["segment", "--input", str(synth_dir), "--output", str(seg)]) == 0
        bad = seg / "000000.proposals.txt"
        bad.write_bytes(b"# caf\xe9\n" + bad.read_bytes())
        argv = ["prepare", "--input", str(synth_dir), "--segments", str(seg)]
        code, message = 1, f"frame 000000 skipped: FileFormatError: {bad}:1: byte 0xe9"
    else:
        argv = {"config": ["segment", "--config", str(bad), "--input", str(synth_dir)],
                "scene": ["synth", "--scene", str(bad)]}[case]
        code, message = 2, f"config key '{bad}:2': byte 0xe9"
    caplog.clear()
    assert main(argv + ["--output", str(out)]) == code
    assert f"{message} is not UTF-8 text" in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err
    if case != "manifest":
        assert not out.exists()


def test_empty_input_dir_ok(tmp_path, caplog):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["segment", "--input", str(empty),
                 "--output", str(tmp_path / "out")]) == 0
    assert not (tmp_path / "out").exists()  # nothing touched


def test_prepare_empty_input_dir_writes_nothing(tmp_path, caplog):
    empty = tmp_path / "none"
    empty.mkdir()
    archive = tmp_path / "x.ps3d"
    assert main(["prepare", "--input", str(empty), "--output", str(archive)]) == 0
    assert not archive.exists()
    assert "no .bin frames under" in caplog.text and "nothing to do" in caplog.text


@pytest.mark.parametrize("argv", [["eval", "--gt", "g", "--clusters", "c"],
                                  ["bench", "--reps", "1"],
                                  ["synth", "--scene", "s.cfg", "--output", "o"]])
def test_jobs_flag_only_on_pooled_commands(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["segment", "--input", "i", "--output", "o", "--seed", "1"],
                                  ["eval", "--gt", "g", "--clusters", "c", "--input", "i"],
                                  ["eval", "--gt", "g", "--clusters", "c", "--seed", "1"],
                                  ["synth", "--scene", "s.cfg", "--output", "o", "--input", "i"],
                                  ["eval", "--gt", "g", "--clusters", "c", "--config", "c.cfg"],
                                  ["synth", "--scene", "s.cfg", "--output", "o",
                                   "--config", "c.cfg"]])
def test_commands_reject_flags_they_ignore(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


def test_invalid_config_names_key(tmp_path, caplog):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("ground.n_seg = -2\n")
    below_floor = tmp_path / "floor.cfg"
    below_floor.write_text("refine.th_num_base = 3\n")  # under the default floor, 5
    no_equals = tmp_path / "words.cfg"
    no_equals.write_text("# a comment\nground n_seg 2\n")
    scene = tmp_path / "scene.cfg"
    scene.write_text(SCENE_TEXT)
    io = ["--output", str(tmp_path / "o")]
    src = ["--input", str(tmp_path)]
    cases = [(["segment", "--config", str(cfg), *src], "ground.n_seg"),
             (["segment", "--config", str(below_floor), *src], "refine.th_num_base"),
             (["segment", "--config", str(no_equals), *src],
              f"config key '{no_equals}:2': expected 'key = value'"),
             (["bench", "--reps", "1", "--seed", "-1", *src], "rng_seed"),
             (["segment", "--jobs", "0", *src], "jobs"),
             (["prepare", "--n-points", "0", *src], "prep.n_points"),
             (["bench", "--reps", "0", *src], "--reps"),
             (["synth", "--scene", str(scene), "--frames", "-1"], "--frames")]
    for argv, key in cases:
        caplog.clear()
        assert main(argv + io) == 2, argv
        assert key in caplog.text
        assert not (tmp_path / "o").exists()


def test_default_config_is_dataclass_defaults():
    assert build_config() == PipelineConfig()
    assert build_config({"jobs": "2", "prep.n_points": "64"}) == build_config(
        None, {"jobs": 2, "prep.n_points": 64})


# for every key: a value its check rejects and the requirement the error
# quotes; a path accepts any value
REJECTED = {
    "ground.n_seg": ("0", "integer >= 1"),
    "ground.n_iter": ("-2", "integer >= 1"),
    "ground.n_lpr": ("2", "integer >= 3"),
    "ground.th_seeds": ("0", "finite positive meters"),
    "ground.th_dist": ("nan", "finite positive meters"),
    "cluster.th_ring": ("-0.5", "finite positive meters"),
    "cluster.th_prop": ("0.0", "finite positive meters"),
    "refine.th_num_base": ("0", "integer >= 1"),
    "refine.d_ref": ("0", "finite positive meters"),
    "refine.th_num_floor": ("0", "integer >= 1"),
    "refine.enlarge_xy": ("-0.1", "finite meters >= 0"),
    "refine.enlarge_z": ("-1", "finite meters >= 0"),
    "prep.n_points": ("0", "integer >= 1"),
    "prep.background_keep_prob": ("1.5", "probability in [0, 1]"),
    "prep.augment": ("maybe", "boolean"),
    "num_rings": ("1.5", "integer >= 1"),
    "rng_seed": ("-1", "integer >= 0"),
    "jobs": ("0", "integer >= 1"),
    "input": None,
    "output": None,
    # a bound's only rule is "not NaN": inf maxima and negative minima pass
    **{f"refine.size_priors.{cls}.{bound}.{axis}": ("nan", "meters")
       for cls in ("car", "pedestrian", "cyclist") for bound in ("min", "max")
       for axis in "xyz"},
}


@pytest.mark.parametrize("key", sorted(_KEYS))
def test_each_key_checked(key):
    assert set(REJECTED) == set(_KEYS)
    bogus = f"{key.rpartition('.')[0] or key}.bogus"
    with pytest.raises(ConfigError) as exc:
        build_config({bogus: "1"})
    assert (exc.value.key, exc.value.reason) == (bogus, "unknown key")
    if REJECTED[key] is None:
        return
    bad, requirement = REJECTED[key]
    with pytest.raises(ConfigError) as exc:
        build_config({key: bad})
    assert (exc.value.key, exc.value.reason) == (key, f"expected {requirement}, got {bad!r}")
    assert build_config({key: str(_KEYS[key].default)}) == PipelineConfig()


METER_KEYS = sorted(key for key, rule in REJECTED.items()
                    if rule and rule[1].startswith("finite"))


@pytest.mark.parametrize("key", METER_KEYS)
def test_meter_key_rejects_infinity(key, synth_dir, tmp_path, caplog):
    # inf used to pass: enlarge_z = inf wrote manifests of infinite boxes
    # and th_dist = inf made every point ground, both with exit 0
    config = tmp_path / "inf.cfg"
    config.write_text(f"{key} = inf\n")
    out = tmp_path / "out"
    caplog.clear()
    assert main(["segment", "--config", str(config), "--input", str(synth_dir),
                 "--output", str(out)]) == 2
    assert f"config key '{key}': expected {REJECTED[key][1]}, got 'inf'" in caplog.text
    assert not out.exists()


def test_size_prior_bound_accepts_infinity():
    cfg = build_config({"refine.size_priors.car.max.x": "inf"})
    assert cfg.refine.size_priors[int(ClassId.CAR)].maxes[0] == np.inf


# scene files that ended in a traceback, or were written unchecked with exit 0
BAD_SCENES = {
    "seed": "seed = -1\n",
    "objects.0": "objects.0.class = car\nobjects.0.shape = box\nobjects.0.length = 4\n"
                 "objects.0.width = 2\nobjects.0.height = 1.5\n",
    "noise_sigma": "noise_sigma = -0.5\n",
    "objects.0.height": "objects.0.class = car\nobjects.0.shape = box\nobjects.0.x = 12\n"
                        "objects.0.y = 0\nobjects.0.length = 4\nobjects.0.width = 2\n"
                        "objects.0.height = nan\n",
}


@pytest.mark.parametrize("key", sorted(BAD_SCENES))
def test_synth_rejects_bad_scene_value(key, tmp_path, caplog):
    scene = tmp_path / "scene.cfg"
    scene.write_text(BAD_SCENES[key])
    assert main(["synth", "--scene", str(scene), "--output", str(tmp_path / "o")]) == 2
    assert f"config key '{key}'" in caplog.text
    assert not (tmp_path / "o").exists()


def _scene_object(i: int, **fields) -> str:
    return "".join(f"objects.{i}.{k} = {v}\n" for k, v in fields.items())


_CAR = {"class": "car", "shape": "box", "x": 12, "y": 0}
# scene files breaching a rule across fields, and the message naming the
# object by the key the file writes, though the file skips indices
LAYOUT_BREACHES = {
    "overlap": (_scene_object(3, **_CAR, length=4, width=2, height=1.5)
                + _scene_object(7, **{"class": "pedestrian", "shape": "cylinder", "x": 12.5,
                                      "y": 0.3, "radius": 0.4, "height": 1.7}),
                "objects.3 and objects.7 interpenetrate"),
    "no-sizes": (_scene_object(9, **_CAR), "objects.9: a box needs positive length, width, height"),
    "at-origin": (_scene_object(0, **{"class": "pedestrian", "shape": "cylinder", "x": 0.5,
                                      "y": 0, "radius": 0.3, "height": 1.7}),
                  "objects.0: object footprint overlaps the sensor origin"),
    "below-ground": (_scene_object(2, **_CAR, length=4, width=2, height=1.5, z_base=-5),
                     "objects.2: object sits below the ground plane"),
}


@pytest.mark.parametrize("case", sorted(LAYOUT_BREACHES))
def test_synth_layout_breach_names_the_file_key(case, tmp_path, caplog):
    scene = tmp_path / "scene.cfg"
    scene.write_text(LAYOUT_BREACHES[case][0])
    assert main(["synth", "--scene", str(scene), "--output", str(tmp_path / "o")]) == 1
    assert LAYOUT_BREACHES[case][1] in caplog.text


@pytest.mark.parametrize("text", [LAYOUT_BREACHES["overlap"][0], "elevation_max_deg = 5\n"],
                         ids=["layout", "no-return"])
def test_synth_rejected_scene_writes_nothing(text, tmp_path, caplog):
    scene = tmp_path / "scene.cfg"
    scene.write_text(text)
    assert main(["synth", "--scene", str(scene), "--output", str(tmp_path / "o" / "frames"),
                 "--frames", "2"]) == 1
    assert "ERROR" in caplog.text
    assert not (tmp_path / "o").exists()


def test_origin_records_keep_the_frame(tmp_path):
    # no-return records written as (0, 0, 0) cluster at the sensor origin,
    # where no count threshold can be met: the filter drops that cluster
    cloud = generate_synthetic_scene(sample_traffic_scene(0)).cloud
    zeroed = cloud.xyz.copy()
    zeroed[600:605] = 0.0
    reports = []
    for name, xyz in (("clean", cloud.xyz), ("origin", zeroed)):
        frames, seg, report = tmp_path / name, tmp_path / f"{name}.seg", tmp_path / f"{name}.txt"
        frames.mkdir()
        save_point_cloud(PointCloud(xyz=xyz, intensity=cloud.intensity), frames / "000000.bin")
        save_labels(cloud.labels, frames / "000000.label")
        assert main(["segment", "--input", str(frames), "--output", str(seg)]) == 0
        assert main(["bench", "--input", str(frames), "--reps", "1",
                     "--output", str(tmp_path / f"{name}.bench")]) == 0
        assert main(["eval", "--gt", str(frames), "--clusters", str(seg),
                     "--output", str(report)]) == 0
        reports.append(report.read_text())
    assert reports[0] == reports[1]
    assert "recall=1.0 proposals=4 " in reports[1]


def test_dropped_record_keeps_outputs_aligned(tmp_path):
    # a non-finite record is dropped from the cloud but keeps its place in
    # the outputs: id 0 in the .cluster file, skipped by prepare
    cloud = generate_synthetic_scene(sample_traffic_scene(0)).cloud
    frames, seg = tmp_path / "frames", tmp_path / "seg"
    frames.mkdir()
    xyz = cloud.xyz.copy()
    xyz[600] = np.nan
    save_point_cloud(PointCloud(xyz=xyz, intensity=cloud.intensity, validate=False),
                     frames / "000000.bin")
    save_labels(cloud.labels, frames / "000000.label")
    assert main(["segment", "--input", str(frames), "--output", str(seg)]) == 0
    ids = np.fromfile(seg / "000000.cluster", dtype="<u4")
    assert ids.size == 102_400 and ids[600] == 0 and ids.any()
    assert main(["eval", "--gt", str(frames), "--clusters", str(seg),
                 "--output", str(tmp_path / "eval.txt")]) == 0
    assert "proposals=4 " in (tmp_path / "eval.txt").read_text()
    assert main(["prepare", "--input", str(frames), "--segments", str(seg),
                 "--output", str(tmp_path / "s.ps3d")]) == 0
    assert len(load_samples(tmp_path / "s.ps3d")[1]) > 0


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_PROBE = """
import os, sys
import {module}
print(" ".join(os.environ.get(v, "-") for v in sys.argv[1:]))
"""


@pytest.mark.parametrize("module, preset, expected", [
    ("ringseg.cli", None, "1 1 1"),  # the CLI defaults BLAS to one thread
    ("ringseg.cli", "3", "3 3 3"),  # a value the user set wins
    ("ringseg", None, "- - -"),  # the package sets nothing
])
def test_cli_defaults_blas_to_one_thread(module, preset, expected):
    src = str(Path(ringseg.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env.update(dict.fromkeys(_BLAS_VARS, preset) if preset else {}, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE.format(module=module),
                           *_BLAS_VARS], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == expected.split()


def test_unknown_config_key(tmp_path, caplog):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("ground.bogus = 3\n")
    assert main(["segment", "--config", str(cfg), "--input", str(tmp_path),
                 "--output", str(tmp_path / "o")]) == 2
    assert "ground.bogus" in caplog.text


def test_unreadable_frame_skipped_nonzero_exit(synth_dir, tmp_path):
    bad = tmp_path / "bad"
    bad.mkdir()
    for p in synth_dir.glob("*.bin"):
        (bad / p.name).write_bytes(p.read_bytes())
    (bad / "zz_corrupt.bin").write_bytes(b"\x01" * 19)
    out = tmp_path / "seg"
    assert main(["segment", "--input", str(bad), "--output", str(out)]) == 1
    assert (out / "000000.cluster").exists()
    assert not (out / "zz_corrupt.cluster").exists()


def test_clockwise_frame_fails_by_name(tmp_path, caplog, capsys):
    cloud = generate_synthetic_scene(sample_traffic_scene(0)).cloud
    frames = tmp_path / "frames"
    frames.mkdir()
    save_point_cloud(PointCloud(xyz=cloud.xyz * [1.0, -1.0, 1.0],
                                intensity=cloud.intensity), frames / "000000.bin")
    caplog.clear()
    assert main(["segment", "--input", str(frames), "--output", str(tmp_path / "seg")]) == 1
    skipped = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
    assert len(skipped) == 1
    assert skipped[0].startswith("frame 000000 skipped: ScanFormatError: scan turns clockwise")
    assert "Traceback" not in caplog.text + capsys.readouterr().err


def test_bench_synthetic_record(tmp_path, capsys):
    report = tmp_path / "bench.txt"
    argv = ["bench", "--reps", "1", "--seed", "3"]
    assert main(argv + ["--output", str(report)]) == 0
    assert capsys.readouterr().out == ""
    # without --output the records go to stdout
    assert main(argv) == 0
    assert capsys.readouterr().out.split()[:1] == report.read_text().split()[:1]
    line = report.read_text().strip().splitlines()[0]
    rec = dict(tok.split("=", 1) for tok in line.split())
    assert rec["frame"] == "synthetic"
    assert "total_us_med" in rec


def test_bench_times_every_frame(synth_dir, tmp_path):
    # `bench --input` times every frame of the directory once
    report = tmp_path / "bench.txt"
    assert main(["bench", "--input", str(synth_dir), "--reps", "1",
                 "--output", str(report)]) == 0
    frames = [dict(t.split("=", 1) for t in line.split())["frame"]
              for line in report.read_text().strip().splitlines()]
    assert frames == [p.stem for p in sorted(synth_dir.glob("*.bin"))]


def test_size_prior_keys_reach_refine_params(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("refine.size_priors.car.max.x = inf\n")
    from_file = load_config(cfg).refine.size_priors
    assert from_file[int(ClassId.CAR)].maxes == (np.inf, 2.5, 2.5)
    from_override = build_config(None, {"refine.size_priors.cyclist.min.z": -1.0})
    assert from_override.refine.size_priors[int(ClassId.CYCLIST)].mins == (0.8, 0.2, -1.0)
    assert {k: v for k, v in from_file.items() if k != ClassId.CAR} == {
        k: v for k, v in DEFAULT_SIZE_PRIORS.items() if k != ClassId.CAR}
    with pytest.raises(ConfigError) as exc:
        build_config({"refine.size_priors.car.max.z": "0.5"})
    assert exc.value.key == "refine.size_priors.car"


def test_augment_from_config_file_survives_absent_flag(synth_dir, tmp_path):
    seg = tmp_path / "seg"
    assert main(["segment", "--input", str(synth_dir), "--output", str(seg)]) == 0
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("prep.augment = true\n")
    common = ["prepare", "--input", str(synth_dir), "--segments", str(seg), "--n-points", "16"]
    archives = {}
    for name, extra in [("file", ["--config", str(cfg)]), ("flag", ["--augment"]), ("off", [])]:
        archives[name] = tmp_path / f"{name}.ps3d"
        assert main(common + extra + ["--output", str(archives[name])]) == 0
    assert archives["file"].read_bytes() == archives["flag"].read_bytes()
    assert archives["file"].read_bytes() != archives["off"].read_bytes()


@pytest.mark.parametrize("command", ["prepare", "bench", "synth"])
def test_seed_flag_sets_rng_seed(command, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("rng_seed = 9\n")
    seeds = []
    monkeypatch.setattr(cli, "cmd_prepare", lambda cfg, seg: seeds.append(cfg.rng_seed) or 0)
    monkeypatch.setattr(cli, "cmd_bench", lambda cfg, *_: seeds.append(cfg.rng_seed) or 0)
    monkeypatch.setattr(cli, "cmd_synth", lambda *args: seeds.append(args[-1]) or 0)
    argv = {"prepare": ["prepare", "--config", str(cfg)],
            "bench": ["bench", "--config", str(cfg)],
            "synth": ["synth", "--scene", "s.cfg"]}[command] + ["--output", "o"]
    assert main(argv + ["--seed", "5"]) == 0
    assert main(argv) == 0
    # synth's seed comes from its scene file unless the flag gives one
    assert seeds == [5, None if command == "synth" else 9]


def test_config_file_overrides_and_flag_priority(synth_dir, tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("prep.n_points = 32\nrng_seed = 9\n")
    seg = tmp_path / "seg"
    assert main(["segment", "--input", str(synth_dir), "--output", str(seg)]) == 0
    archive = tmp_path / "s.ps3d"
    assert main(["prepare", "--config", str(cfg), "--input", str(synth_dir),
                 "--segments", str(seg), "--output", str(archive)]) == 0
    n, _ = load_samples(archive)
    assert n == 32
    archive2 = tmp_path / "s2.ps3d"
    assert main(["prepare", "--config", str(cfg), "--input", str(synth_dir),
                 "--segments", str(seg), "--output", str(archive2),
                 "--n-points", "48"]) == 0
    n2, _ = load_samples(archive2)
    assert n2 == 48
