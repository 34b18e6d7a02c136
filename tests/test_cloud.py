import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringseg import (
    AlignmentError,
    FileFormatError,
    InvalidClassError,
    PointCloud,
    ScanFormatError,
    assign_rings,
    generate_synthetic_scene,
    load_labels,
    load_point_cloud,
    save_labels,
    save_point_cloud,
)
from ringseg.cloud import load_point_values, save_point_values
from ringseg.synth import SceneSpec

from conftest import random_cloud
from oracles import compute_quadrants, scalar_trace_rings


def test_load_decodes_records(tmp_path):
    path = tmp_path / "two.bin"
    path.write_bytes(struct.pack("<8f", 1, 2, 3, 0.5, 4, 5, 6, 0.25))
    cloud, kept = load_point_cloud(path)
    assert len(cloud) == 2 and kept is None
    np.testing.assert_array_equal(cloud.xyz, [[1, 2, 3], [4, 5, 6]])
    np.testing.assert_array_equal(cloud.intensity, [0.5, 0.25])


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    cloud, kept = load_point_cloud(path)
    assert len(cloud) == 0 and kept is None


def test_load_truncated_file(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 20)
    with pytest.raises(FileFormatError):
        load_point_cloud(path)


def test_load_drops_nonfinite_records(tmp_path):
    path = tmp_path / "nan.bin"
    path.write_bytes(struct.pack("<8f", 1, 2, 3, 0.5, np.nan, 5, 6, 0.25))
    cloud, kept = load_point_cloud(path)
    assert len(cloud) == 1
    np.testing.assert_array_equal(kept, [True, False])
    np.testing.assert_array_equal(cloud.xyz, [[1, 2, 3]])


def test_load_clamps_intensity(tmp_path):
    path = tmp_path / "dirty.bin"
    path.write_bytes(struct.pack("<8f", 0, 0, 0, -0.5, 1, 1, 1, 3.0))
    cloud, _ = load_point_cloud(path)
    np.testing.assert_array_equal(cloud.intensity, [0.0, 1.0])


def test_point_cloud_roundtrip_bits(tmp_path, rng):
    for trial in range(100):
        cloud = random_cloud(rng, int(rng.integers(0, 300)))
        path = tmp_path / f"{trial}.bin"
        save_point_cloud(cloud, path)
        back, _ = load_point_cloud(path)
        np.testing.assert_array_equal(back.xyz, cloud.xyz)
        np.testing.assert_array_equal(back.intensity, cloud.intensity)


def test_labels_roundtrip_and_errors(tmp_path):
    path = tmp_path / "a.label"
    save_labels(np.array([0, 1, 2, 3], dtype=np.uint8), path)
    np.testing.assert_array_equal(load_labels(path, 4), [0, 1, 2, 3])
    with pytest.raises(AlignmentError):
        load_labels(path, 3)
    path.write_bytes(bytes([7]))
    with pytest.raises(InvalidClassError):
        load_labels(path, 1)


@pytest.mark.parametrize("suffix, size", [
    (".label", 3), (".label", 5), (".label", 0),
    # 18 bytes: four ids and half of a fifth, which np.fromfile would drop
    (".cluster", 18), (".cluster", 12), (".cluster", 0),
])
def test_wrong_size_per_record_file_names_path_and_sizes(tmp_path, suffix, size):
    path = tmp_path / f"000000{suffix}"
    path.write_bytes(bytes(size))
    itemsize = 1 if suffix == ".label" else 4
    with pytest.raises(AlignmentError) as exc:
        if suffix == ".label":
            load_labels(path, 4)
        else:
            load_point_values(path, "<u4", 4)
    assert str(exc.value) == f"{path}: {size} bytes, not {itemsize} x 4 records"


def test_per_record_values_follow_the_kept_records(tmp_path):
    # records 1 and 3 were dropped: the writer stores 0 there, the reader skips them
    kept = np.array([True, False, True, False, True])
    path = tmp_path / "000000.cluster"
    save_point_values(path, np.array([7, 8, 9], dtype=np.int32), "<u4", kept)
    assert path.read_bytes() == np.array([7, 0, 8, 0, 9], dtype="<u4").tobytes()
    np.testing.assert_array_equal(load_point_values(path, "<u4", 5, kept), [7, 8, 9])
    labels = tmp_path / "000000.label"
    save_labels(np.array([1, 7, 2, 0, 3], dtype=np.uint8), labels)
    # a bad class on a dropped record still fails the file, at its record index
    with pytest.raises(InvalidClassError) as exc:
        load_labels(labels, 5, kept)
    assert str(exc.value) == f"{labels}: class 7 at index 1"
    save_labels(np.array([1, 0, 2, 0, 3], dtype=np.uint8), labels)
    np.testing.assert_array_equal(load_labels(labels, 5, kept), [1, 2, 3])


def test_intensity_invariant_rejected():
    with pytest.raises(ValueError):
        PointCloud(xyz=np.zeros((1, 3)), intensity=np.array([1.5]))


def test_nonfinite_coordinates_rejected():
    with pytest.raises(ValueError):
        PointCloud(xyz=np.array([[np.inf, 0, 0]]), intensity=np.array([0.5]))


@pytest.mark.parametrize("arrays, error, message", [
    ({"xyz": np.zeros((2, 2))}, ValueError, r"xyz must be \(n, 3\), got \(2, 2\)"),
    ({"intensity": np.zeros(3)}, AlignmentError, "intensity length 3 != cloud length 2"),
    ({"ring_ids": np.zeros(1)}, AlignmentError, "ring_ids length 1 != cloud length 2"),
    ({"labels": np.zeros(3)}, AlignmentError, "labels length 3 != cloud length 2"),
], ids=["xyz", "intensity", "ring_ids", "labels"])
def test_misshapen_arrays_rejected(arrays, error, message):
    with pytest.raises(error, match=message):
        PointCloud(**{"xyz": np.zeros((2, 3)), "intensity": np.zeros(2), **arrays})


def test_class_ids_scanned_only_when_validating():
    xyz, intensity, labels = np.zeros((2, 3)), np.full(2, 0.5), np.array([0, 9])
    with pytest.raises(InvalidClassError):
        PointCloud(xyz=xyz, intensity=intensity, labels=labels)
    # a scan would raise; a derived cloud inherits labels checked when read
    cloud = PointCloud(xyz=xyz, intensity=intensity, labels=labels, validate=False)
    np.testing.assert_array_equal(cloud.labels, [0, 9])
    assert cloud.with_ring_ids(np.zeros(2)).select([1]).labels.tolist() == [9]


def _sweep(azimuths, radius=5.0):
    return np.column_stack([
        radius * np.cos(azimuths),
        radius * np.sin(azimuths),
        np.zeros(len(azimuths)),
    ])


def test_assign_rings_two_sweeps():
    az = np.linspace(0.1, 2 * np.pi - 0.1, 40)
    xyz = np.vstack([_sweep(az), _sweep(az)])
    cloud = PointCloud(xyz=xyz, intensity=np.zeros(80))
    ringed = assign_rings(cloud, num_rings=2)
    np.testing.assert_array_equal(ringed.ring_ids[:40], 0)
    np.testing.assert_array_equal(ringed.ring_ids[40:], 1)


def test_assign_rings_too_many_revolutions():
    az = np.linspace(0.1, 2 * np.pi - 0.1, 12)
    xyz = np.vstack([_sweep(az)] * 3)
    cloud = PointCloud(xyz=xyz, intensity=np.zeros(36))
    with pytest.raises(ScanFormatError):
        assign_rings(cloud, num_rings=2)
    with pytest.raises(ValueError, match="num_rings must be >= 1"):
        assign_rings(cloud, num_rings=0)


def test_on_axis_points_inherit_quadrant():
    # a point exactly on the +x axis between quadrant 4 and quadrant 1
    # must not suppress or double the revolution boundary
    az1 = np.linspace(0.2, 2 * np.pi - 0.2, 16)
    xyz = np.vstack([_sweep(az1), [[5.0, 0.0, 0.0]], _sweep(az1)])
    cloud = PointCloud(xyz=xyz, intensity=np.zeros(len(xyz)))
    ringed = assign_rings(cloud, num_rings=2)
    assert ringed.ring_ids[16] == 0  # on-axis point inherits, stays in ring 0
    np.testing.assert_array_equal(ringed.ring_ids[17:], 1)


_ZERO = st.sampled_from([-0.0, 0.0])
_COORD = st.one_of(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]),
                   st.floats(-1e3, 1e3))
# positive, down to values whose products underflow to 0
_MAGNITUDE = st.one_of(st.sampled_from([1.0, 2.0]), st.floats(1e-300, 1e3))
_ON_AXIS = st.one_of(st.tuples(_ZERO, _COORD), st.tuples(_COORD, _ZERO))


@st.composite
def _scan_xy(draw):
    """A leading on-axis run, then free points or counter-clockwise sweeps
    with some points knocked onto an axis."""
    points = draw(st.lists(_ON_AXIS, max_size=4))
    if draw(st.booleans()):
        return points + draw(st.lists(st.tuples(_COORD, _COORD), max_size=40))
    for _ in range(draw(st.integers(1, 5))):
        for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
            for _ in range(draw(st.integers(1, 4))):
                if draw(st.integers(0, 4)) == 0:
                    points.append(draw(_ON_AXIS))
                else:
                    points.append((sx * draw(_MAGNITUDE), sy * draw(_MAGNITUDE)))
    return points


@settings(max_examples=400, deadline=None)
@given(points=_scan_xy(), num_rings=st.integers(1, 8))
@example(points=[], num_rings=1)
@example(points=[(1.0, 1.0)], num_rings=1)
@example(points=[(0.0, 1.0), (-0.0, -2.0), (2.0, 0.0), (1.0, -0.0)], num_rings=1)
def test_trace_rings_matches_scalar_trace(points, num_rings):
    xyz = np.zeros((len(points), 3))
    xyz[:, :2] = np.reshape(points, (-1, 2))
    cloud = PointCloud(xyz=xyz, intensity=np.zeros(len(points)))
    expected, revolutions, clockwise = scalar_trace_rings(compute_quadrants(xyz))
    if revolutions > num_rings:
        with pytest.raises(ScanFormatError, match=(
                f"^detected {revolutions} revolutions but num_rings={num_rings}$")):
            assign_rings(cloud, num_rings)
    elif clockwise > revolutions - 1:
        with pytest.raises(ScanFormatError, match="^scan turns clockwise: "):
            assign_rings(cloud, num_rings)
    else:
        ring_ids = assign_rings(cloud, num_rings).ring_ids
        assert ring_ids.dtype == np.int32
        np.testing.assert_array_equal(ring_ids, expected)


def test_quadrants_on_axis_zero():
    q = compute_quadrants(np.array([[1.0, 0.0, 0], [0.0, 2.0, 0], [0.0, 0.0, 0],
                                    [1, 1, 0], [-1, 1, 0], [-1, -1, 0], [1, -1, 0]]))
    np.testing.assert_array_equal(q, [0, 0, 0, 1, 2, 3, 4])


def test_assign_rings_matches_generator(rng):
    spec = SceneSpec(num_rings=16, points_per_ring=128, rng_seed=7,
                     noise_sigma=0.01)
    scene = generate_synthetic_scene(spec)
    ringed = assign_rings(scene.cloud, num_rings=16)
    np.testing.assert_array_equal(ringed.ring_ids, scene.ring_ids)
    assert ringed.ring_ids.max() == 15


def test_assign_rings_hdl64_shape():
    spec = SceneSpec(num_rings=64, points_per_ring=64, rng_seed=3)
    scene = generate_synthetic_scene(spec)
    ringed = assign_rings(scene.cloud, num_rings=64)
    assert ringed.ring_ids.max() == 63


def test_assign_rings_scale_invariant(rng):
    spec = SceneSpec(num_rings=8, points_per_ring=100, rng_seed=11)
    scene = generate_synthetic_scene(spec)
    base = assign_rings(scene.cloud, 8).ring_ids
    scaled = PointCloud(xyz=scene.cloud.xyz * 3.7,
                        intensity=scene.cloud.intensity)
    np.testing.assert_array_equal(assign_rings(scaled, 8).ring_ids, base)


def test_select_matches_gather(rng):
    cloud = random_cloud(rng, 200)
    cloud = PointCloud(cloud.xyz, cloud.intensity,
                       ring_ids=np.sort(rng.integers(0, 8, 200)),
                       labels=rng.integers(0, 4, 200))
    mask = rng.random(200) < 0.3
    for index in (np.flatnonzero(mask), mask, rng.integers(0, 200, 50),
                  np.zeros(200, dtype=bool), np.array([7])):
        sub = cloud.select(index)
        for got, full in ((sub.xyz, cloud.xyz), (sub.intensity, cloud.intensity),
                          (sub.ring_ids, cloud.ring_ids), (sub.labels, cloud.labels)):
            np.testing.assert_array_equal(got, full[index])
            assert got.dtype == full.dtype
            assert got.flags.f_contiguous and not got.flags.writeable


def test_select_preserves_order(rng):
    cloud = random_cloud(rng, 50).with_labels(np.zeros(50, dtype=np.uint8))
    sub = cloud.select(np.arange(10, 30))
    np.testing.assert_array_equal(sub.xyz, cloud.xyz[10:30])
    assert len(sub) == 20
