import os
import re
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ringseg
from ringseg import (
    ClassId,
    FileFormatError,
    PointCloud,
    Proposal,
    Sample,
    canonical_transform,
    export_samples,
    generate_synthetic_scene,
    load_config,
    load_samples,
    run_stage1,
    sample_rng,
)
from ringseg.config import SamplePrepParams
from ringseg.samples import (
    BG_KEEP_STREAM,
    DIHEDRAL_LINEAR,
    frame_records,
    record_dtype,
    write_variants,
)

from conftest import clutter_scene, fit_box, written_variants
from oracles import (
    archive_records,
    dihedral_variants,
    pairwise_distance_multiset,
    resampled_variants,
)

UP = np.array([0.0, 0.0, 1.0])


def _proposal(rng, n=40, center=(8.0, 2.0, -1.0), labels=None):
    pts = np.asarray(center) + rng.uniform(-1, 1, (n, 3)) * [2.0, 0.8, 0.7]
    cloud = PointCloud(xyz=pts, intensity=rng.random(n),
                       labels=labels)
    bbox = fit_box(pts, UP)
    prop = Proposal(cluster_id=1, member_indices=np.arange(n), bbox=bbox,
                    distance=float(np.linalg.norm(pts.mean(axis=0))))
    return prop, cloud


def test_canonical_first_octant(rng):
    for _ in range(20):
        prop, cloud = _proposal(rng)
        sample = canonical_transform(prop, cloud, np.random.default_rng(0))
        assert sample.local_points.min() >= -1e-9
        h = sample.half_extents
        far = sample.local_points.max(axis=0)
        assert (far <= 2 * h + 1e-9).all()


def test_canonical_rigid(rng):
    prop, cloud = _proposal(rng)
    sample = canonical_transform(prop, cloud, np.random.default_rng(1))
    before = pairwise_distance_multiset(cloud.xyz[prop.member_indices])
    after = pairwise_distance_multiset(sample.local_points)
    np.testing.assert_allclose(after, before, atol=1e-9)


def test_canonical_replay_deterministic(rng):
    prop, cloud = _proposal(rng)
    a = canonical_transform(prop, cloud, np.random.default_rng(42))
    b = canonical_transform(prop, cloud, np.random.default_rng(42))
    assert a.origin_vertex == b.origin_vertex
    np.testing.assert_array_equal(a.local_points, b.local_points)
    assert a.local_points.tobytes() == b.local_points.tobytes()


def test_canonical_majority_label(rng):
    labels = np.zeros(40, dtype=np.uint8)
    labels[:25] = 2
    prop, cloud = _proposal(rng, n=40, labels=labels)
    sample = canonical_transform(prop, cloud, np.random.default_rng(2))
    assert sample.class_label == 2


def test_canonical_vertex_choices_cover_four(rng):
    prop, cloud = _proposal(rng)
    seen = {canonical_transform(prop, cloud, np.random.default_rng(k)).origin_vertex
            for k in range(40)}
    assert seen == {0, 1, 2, 3}


def _augmented(rng, n=12):
    """A canonical sample, its eight variants' records at N = n (every
    point, in order) and the oracle's eight float64 variants."""
    prop, cloud = _proposal(rng, n=n)
    sample = canonical_transform(prop, cloud, np.random.default_rng(3))
    records, _ = written_variants(sample, n, range(8))
    return sample, records, dihedral_variants(sample)


def test_augment_identity_bit_equal(rng):
    sample, records, variants = _augmented(rng)
    assert variants[0][0].tobytes() == sample.local_points.tobytes()
    assert records["features"][0, :, :3].tobytes() == \
        sample.local_points.astype("<f4").tobytes()
    assert records["variant_id"].tolist() == list(range(8))


def test_augment_first_octant_and_isometry(rng):
    sample, records, variants = _augmented(rng)
    base = pairwise_distance_multiset(sample.local_points)
    for points, h in variants:
        assert points.min() >= -1e-9
        assert (points.max(axis=0) <= 2 * h + 1e-9).all()  # inside its own box
        np.testing.assert_allclose(pairwise_distance_multiset(points), base, atol=1e-9)
    assert (records["class_label"] == sample.class_label).all()
    assert (records["num_original"] == len(sample.local_points)).all()


def test_augment_bit_equal_to_per_matrix_formula(rng):
    h = np.array([1.3, 0.7, 0.9])
    # the box centre and points on its axes, where p - c is exactly +-0
    on_axes = [h, [h[0], 0.2, 0.5], [0.4, h[1], 1.1], [h[0], 1.4, 0.0], [2.6, h[1], 1.8]]
    pts = np.vstack([on_axes, rng.uniform(0, 2 * h, (30, 3))])
    sample = Sample(local_points=pts, intensities=rng.random(len(pts)), class_label=1,
                    frame_id=0, cluster_id=1, origin_vertex=0, half_extents=h)
    records, _ = written_variants(sample, len(pts), range(8))
    for k, (points, new_h) in enumerate(dihedral_variants(sample)[1:], 1):
        want = pts.copy()
        want[:, :2] = (pts[:, :2] - h[:2]) @ DIHEDRAL_LINEAR[k].T + new_h[:2]
        assert points.tobytes() == want.tobytes(), k
        # odd quarter-turns swap the extents
        assert new_h.tobytes() == (h[[1, 0, 2]] if k % 2 else h).tobytes(), k
        assert records["features"][k, :, :3].tobytes() == want.astype("<f4").tobytes(), k


def test_augment_mirror_is_involution(rng):
    sample, _, variants = _augmented(rng)
    mirrored = replace(sample, local_points=variants[4][0])
    written_variants(mirrored, len(sample.local_points), range(8))
    np.testing.assert_allclose(dihedral_variants(mirrored)[4][0],
                               sample.local_points, atol=1e-12)


def test_augment_asymmetric_points_give_eight_distinct(rng):
    pts = np.array([[0.3, 0.2, 0.1], [1.9, 0.4, 0.3], [0.5, 1.1, 0.8]])
    cloud = PointCloud(xyz=pts + [5, 5, 0], intensity=np.zeros(3))
    bbox = fit_box(cloud.xyz, UP)
    prop = Proposal(1, np.arange(3), bbox, 7.0)
    sample = canonical_transform(prop, cloud, np.random.default_rng(5))
    records, _ = written_variants(sample, 3, range(8))
    keys = set()
    for features in records["features"]:
        rows = np.round(features[:, :3], 6)
        keys.add(rows[np.lexsort(rows.T)].tobytes())
    assert len(keys) == 8


def test_dihedral_group_closure():
    mats = [DIHEDRAL_LINEAR[k] for k in range(8)]
    for a in mats:
        for b in mats:
            prod = a @ b
            assert any(np.abs(prod - m).max() <= 1e-12 for m in mats)
    # exactly four rotations (det +1) and four reflections (det -1)
    dets = sorted(round(float(np.linalg.det(m))) for m in mats)
    assert dets == [-1, -1, -1, -1, 1, 1, 1, 1]


def _fresh_sample(rng, num):
    pts = rng.uniform(0, 2, (num, 3))
    return Sample(local_points=pts, intensities=rng.random(num), class_label=1,
                  frame_id=0, cluster_id=1, origin_vertex=0,
                  half_extents=fit_box(pts, UP).half_extents)


def test_resample_identity():
    rng = np.random.default_rng(0)
    s = _fresh_sample(rng, 64)
    records, [(points, _)] = written_variants(s, 64, [0])
    np.testing.assert_array_equal(points, s.local_points)
    assert records["features"][0, :, :3].tobytes() == s.local_points.astype("<f4").tobytes()
    assert records["num_original"][0] == 64


def test_resample_downsample_distinct(rng):
    s = _fresh_sample(rng, 96)
    records, [(points, _)] = written_variants(s, 32, [0])
    assert records["features"].shape == (1, 32, 5)
    assert len(np.unique(points, axis=0)) == 32
    assert records["num_original"][0] == 96


def test_resample_upsample_full_coverage(rng):
    s = _fresh_sample(rng, 16)
    records, [(points, _)] = written_variants(s, 32, [0])
    assert records["features"].shape == (1, 32, 5)
    src = {tuple(np.round(p, 12)) for p in s.local_points}
    kept = {tuple(np.round(p, 12)) for p in points}
    assert src == kept
    assert records["num_original"][0] == 16


def test_resample_replay(rng):
    s = _fresh_sample(rng, 300)
    a, _ = written_variants(s, 100, range(8))
    b, _ = written_variants(s, 100, range(8))
    assert a.tobytes() == b.tobytes()


def test_resample_empty_raises(rng):
    s = _fresh_sample(rng, 4)
    empty = replace(s, local_points=np.empty((0, 3)), intensities=np.empty(0))
    with pytest.raises(ValueError, match="cannot resample an empty sample"):
        write_variants(np.zeros(1, dtype=record_dtype(8)), empty, [np.random.default_rng(0)])


@pytest.mark.parametrize("num,n,expect", [(256, 512, -0.5), (512, 512, 0.0),
                                          (1024, 512, 1.0), (1536, 512, 2.0)])
def test_feature_n_values(rng, num, n, expect):
    s = _fresh_sample(rng, num)
    records, _ = written_variants(s, n, range(8))
    assert records["features"].shape == (8, n, 5)
    assert (records["features"][..., 4] == np.float32(expect)).all()


def test_feature_rows_match_points(rng):
    s = _fresh_sample(rng, 20)
    records, [(points, intensities)] = written_variants(s, 20, [0])
    rows = records["features"][0]
    np.testing.assert_allclose(rows[:, :3], points.astype(np.float32))
    np.testing.assert_allclose(rows[:, 3], intensities.astype(np.float32))


def _archive(rng, n_points, count, frame_id=0):
    """The records of `count` fresh samples of 1 to 3N - 1 points, each
    with 1-8 variants, checked against the oracle chain."""
    chunks = [np.zeros(0, dtype=record_dtype(n_points))]
    for k in range(count):
        s = replace(_fresh_sample(rng, int(rng.integers(1, 3 * n_points))),
                    class_label=int(rng.integers(0, 4)), frame_id=frame_id, cluster_id=k + 1)
        chunks.append(written_variants(s, n_points, range(int(rng.integers(1, 9))))[0])
    return np.concatenate(chunks)


def test_archive_roundtrip_bits(tmp_path, rng):
    for trial in range(100):
        n_points = int(rng.integers(4, 64))
        records = _archive(rng, n_points, int(rng.integers(0, 6)), frame_id=trial)
        path = tmp_path / f"a{trial}.ps3d"
        export_samples(records, path)
        got_n, back = load_samples(path)
        assert got_n == n_points
        assert len(back) == len(records)
        for r, w in zip(back, records):
            assert (r.class_label, r.variant_id, r.frame_id, r.cluster_id,
                    r.num_original) == w[["class_label", "variant_id", "frame_id",
                                          "cluster_id", "num_original"]].item()
            assert r.features.tobytes() == w["features"].tobytes()


def test_archive_from_records_is_the_samples_archive(tmp_path, rng):
    records = _archive(rng, 16, 3)
    assert records.dtype == record_dtype(16)
    assert records.dtype.itemsize == 1 + 1 + 4 + 4 + 4 + 16 * 5 * 4  # <BBIII, N x 5 <f4
    path = tmp_path / "r.ps3d"
    export_samples(records, path)
    # the header `<4sIIQ` (magic, version, N, count), then the records as they are
    header = struct.pack("<4sIIQ", b"PS3D", 1, 16, len(records))
    assert path.read_bytes() == header + records.tobytes()
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(FileFormatError, match="1 trailing bytes"):
        load_samples(path)


def test_archive_empty(tmp_path):
    path = tmp_path / "empty.ps3d"
    export_samples(np.zeros(0, dtype=record_dtype(128)), path)
    n, records = load_samples(path)
    assert n == 128 and records == []


# header `<4sIIQ`: magic, version, N, count
@pytest.mark.parametrize("edit, reason", [
    (lambda data: b"NOPE" + data[4:], "bad magic b'NOPE'"),
    (lambda data: data[:19], "truncated header"),
    (lambda data: data[:4] + struct.pack("<I", 2) + data[8:], "unsupported version 2"),
    (lambda data: data[:8] + struct.pack("<I", 2**32 - 1) + data[12:],
     "N=4294967295 rows per sample is too large"),
], ids=["magic", "truncated", "version", "n_points"])
def test_archive_bad_header(tmp_path, edit, reason):
    path = tmp_path / "bad.ps3d"
    export_samples(np.zeros(0, dtype=record_dtype(8)), path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(FileFormatError, match=re.escape(f"{path}: {reason}")):
        load_samples(path)


def test_archive_truncated(tmp_path, rng):
    records, _ = written_variants(_fresh_sample(rng, 16), 16, [0])
    path = tmp_path / "t.ps3d"
    export_samples(records, path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(FileFormatError):
        load_samples(path)


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()],
                         ids=["disk-full", "interrupt"])
def test_archive_write_is_all_or_nothing(tmp_path, rng, monkeypatch, error):
    path = tmp_path / "s.ps3d"
    export_samples(_archive(rng, 16, 3), path)
    old = path.read_bytes()

    def open_failing_after_header(file, mode):
        fh = open(file, mode)
        write = fh.write

        def write_header_only(data):
            if fh.tell():
                raise error
            return write(data)

        fh.write = write_header_only
        return fh

    monkeypatch.setattr(ringseg.samples, "open", open_failing_after_header, raising=False)
    with pytest.raises(type(error)):
        export_samples(_archive(rng, 16, 5), path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["s.ps3d"]
    monkeypatch.undo()
    # a written archive replaces the old one
    new = _archive(rng, 16, 2)
    export_samples(new, path)
    assert [p.name for p in tmp_path.iterdir()] == ["s.ps3d"]
    assert path.read_bytes()[20:] == new.tobytes()  # after the `<4sIIQ` header


_HWM_PROBE = """
import sys
from ringseg import load_samples

def peak_kib():  # VmHWM, this process's own peak; ru_maxrss keeps the parent's at exec
    with open("/proc/self/status") as fh:
        return int(next(line for line in fh if line.startswith("VmHWM:")).split()[1])

before = peak_kib()
n, records = load_samples(sys.argv[1])
grown = peak_kib() - before
assert n == 512 and len(records) == int(sys.argv[2]), (n, len(records))
print(grown * 1024, sum(r.features.flags.writeable for r in records))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from procfs")
def test_load_samples_peak_is_about_the_archive_size(tmp_path, rng):
    # a fresh process, so the peak is the reader's; records that copy the
    # features out of the file's bytes need ~2.0x the file
    records = np.zeros(2000, dtype=record_dtype(512))
    records["features"] = rng.random(records["features"].shape, dtype=np.float32)
    records["variant_id"] = np.arange(2000) % 8
    path = tmp_path / "big.ps3d"
    export_samples(records, path)
    src = str(Path(ringseg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _HWM_PROBE, str(path), "2000"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    grown, writeable = map(int, proc.stdout.split())
    assert grown <= 1.25 * path.stat().st_size
    assert writeable == 0


@pytest.mark.parametrize("variants", [1, 8])
@pytest.mark.parametrize("num", [5, 64, 200])
def test_write_variants_is_pack_of_resampled_variants(rng, num, variants):
    # fewer, as many and more points than rows: each resample branch
    prop, cloud = _proposal(rng, n=num, labels=np.full(num, 1, dtype=np.uint8))
    sample = canonical_transform(prop, cloud, np.random.default_rng(6), frame_id=4)
    want = archive_records(sample, resampled_variants(
        sample, 64, [sample_rng(9, 4, 1, k) for k in range(variants)]))
    got = np.zeros(variants, dtype=record_dtype(64))
    write_variants(got, sample, [sample_rng(9, 4, 1, k) for k in range(variants)])
    assert got.tobytes() == want.tobytes()


SEED, FRAME = 0, 3


@pytest.fixture(scope="module")
def clutter_frame():
    """The clutter frame's cloud, its 7 stage-1 proposals and their classes."""
    cfg = load_config()
    cloud = generate_synthetic_scene(clutter_scene()).cloud
    proposals = run_stage1(cloud, cfg.ground, cfg.cluster, cfg.refine, cfg.num_rings).proposals
    classes = {p.cluster_id: canonical_transform(p, cloud, np.random.default_rng(0)).class_label
               for p in proposals}
    assert len(proposals) == 7
    assert list(classes.values()).count(ClassId.BACKGROUND) == 3
    return cloud, proposals, classes


def _kept_background(classes, keep_prob):
    return {cid for cid, label in classes.items() if label == ClassId.BACKGROUND
            and sample_rng(SEED, FRAME, cid, BG_KEEP_STREAM).random() < keep_prob}


@pytest.mark.parametrize("augment", [False, True])
def test_frame_records_variants_and_background_keep(clutter_frame, augment):
    cloud, proposals, classes = clutter_frame
    prep = SamplePrepParams(n_points=64, augment=augment)
    kept = _kept_background(classes, prep.background_keep_prob)
    assert 0 < len(kept) < 3  # the frame draws both sides of the keep decision
    variants = {cid: 1 if label == ClassId.BACKGROUND else 8 if augment else 1
                for cid, label in classes.items()
                if label != ClassId.BACKGROUND or cid in kept}
    records = frame_records(proposals, cloud, FRAME, SEED, prep)
    assert records.dtype == record_dtype(64)
    # in proposal order, variants 0..k-1 of each kept proposal
    heads = [(p.cluster_id, k, classes[p.cluster_id]) for p in proposals
             for k in range(variants.get(p.cluster_id, 0))]
    assert list(zip(*(records[name].tolist() for name in
                      ("cluster_id", "variant_id", "class_label")))) == heads
    assert set(records["frame_id"].tolist()) == {FRAME}


def test_frame_records_is_the_object_path(clutter_frame):
    # canonical_transform on stream 0, then the oracle's variants resampled on
    # streams 0..k-1: one foreground and one kept background proposal
    cloud, proposals, classes = clutter_frame
    prep = SamplePrepParams(n_points=64, augment=True)
    records = frame_records(proposals, cloud, FRAME, SEED, prep)
    foreground = next(cid for cid, label in classes.items() if label != ClassId.BACKGROUND)
    background = min(_kept_background(classes, prep.background_keep_prob))
    for cid, count in ((foreground, 8), (background, 1)):
        prop = next(p for p in proposals if p.cluster_id == cid)
        rng0 = sample_rng(SEED, FRAME, cid, 0)
        sample = canonical_transform(prop, cloud, rng0, frame_id=FRAME)
        rngs = [rng0, *(sample_rng(SEED, FRAME, cid, k) for k in range(1, count))]
        want = archive_records(sample, resampled_variants(sample, 64, rngs))
        assert records[records["cluster_id"] == cid].tobytes() == want.tobytes()


@pytest.mark.parametrize("key", [(0, 0, 0, 0), (2**32 - 1, 7, 0, 3), (7, 2**32, 1, 8),
                                 (2**64 + 5, 2**32 - 1, 2**32, 0)])
def test_sample_rng_is_default_rng_of_the_key(key):
    want = np.random.default_rng(list(key))
    got = sample_rng(*key)
    assert got.bit_generator.state == want.bit_generator.state
    np.testing.assert_array_equal(got.random(8), want.random(8))


@pytest.mark.parametrize("position", range(4))
def test_sample_rng_rejects_a_negative_component(position):
    key = [7, 1, 2, 0]
    key[position] = -1
    with pytest.raises(ValueError, match="must be >= 0"):
        sample_rng(*key)


def test_sample_rng_streams_independent():
    a = sample_rng(7, 1, 2, 0).random(4)
    b = sample_rng(7, 1, 2, 1).random(4)
    c = sample_rng(7, 1, 2, 0).random(4)
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(a, c)
