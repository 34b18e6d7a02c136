import hashlib
import math
from dataclasses import MISSING, replace
from itertools import combinations

import numpy as np
import pytest
from conftest import clutter_scene
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import all_rays_scene

from ringseg import (
    ConfigError,
    PointCloud,
    SceneValidationError,
    generate_synthetic_scene,
    synth,
)
from ringseg.cloud import ClassId
from ringseg.synth import (
    _OBJECT_KEYS,
    _SCENE_KEYS,
    ObjectSpec,
    SceneSpec,
    sample_traffic_scene,
    scene_from_file,
)


def test_ground_only_scene():
    scene = generate_synthetic_scene(SceneSpec(num_rings=8, points_per_ring=64,
                                               rng_seed=1))
    assert scene.ground_mask.all()
    assert (scene.cloud.labels == 0).all()
    assert (scene.owner == -1).all()


def test_box_points_on_surface():
    obj = ObjectSpec(class_id=1, shape="box", x=10.0, y=1.0, yaw_deg=30,
                     length=4.0, width=1.8, height=1.5)
    spec = SceneSpec(num_rings=24, points_per_ring=512, noise_sigma=0.0,
                     rng_seed=2, objects=(obj,), elevation_min_deg=-20,
                     elevation_max_deg=-1.0)
    scene = generate_synthetic_scene(spec)
    hit = scene.owner == 0
    assert hit.sum() > 50
    yaw = np.radians(obj.yaw_deg)
    c, s = np.cos(yaw), np.sin(yaw)
    rot = np.array([[c, s, 0], [-s, c, 0], [0, 0, 1.0]])
    base = -(spec.sensor_height)
    center = np.array([obj.x, obj.y, base + obj.height / 2])
    local = (scene.cloud.xyz[hit] - center) @ rot.T
    half = np.array([obj.length / 2, obj.width / 2, obj.height / 2])
    # every hit lies on the box surface: inside, with one axis at the wall
    assert (np.abs(local) <= half + 1e-9).all()
    wall = np.isclose(np.abs(local), half, atol=1e-9).any(axis=1)
    assert wall.all()


def test_cylinder_points_on_surface():
    obj = ObjectSpec(class_id=2, shape="cylinder", x=8.0, y=-2.0,
                     radius=0.4, height=1.7)
    spec = SceneSpec(num_rings=24, points_per_ring=512, noise_sigma=0.0,
                     rng_seed=3, objects=(obj,), elevation_min_deg=-20,
                     elevation_max_deg=-1.0)
    scene = generate_synthetic_scene(spec)
    hit = scene.cloud.xyz[scene.owner == 0]
    assert hit.shape[0] > 20
    r = np.hypot(hit[:, 0] - obj.x, hit[:, 1] - obj.y)
    top = -spec.sensor_height + obj.height
    on_side = np.isclose(r, obj.radius, atol=1e-9)
    on_cap = np.isclose(hit[:, 2], top, atol=1e-9) & (r <= obj.radius + 1e-9)
    assert (on_side | on_cap).all()


def test_scene_deterministic():
    spec = replace(sample_traffic_scene(seed=9, n_objects=4), num_rings=16, points_per_ring=256)
    a = generate_synthetic_scene(spec)
    b = generate_synthetic_scene(spec)
    assert a.cloud.xyz.tobytes() == b.cloud.xyz.tobytes()
    assert a.cloud.intensity.tobytes() == b.cloud.intensity.tobytes()
    np.testing.assert_array_equal(a.cloud.labels, b.cloud.labels)


def test_owner_partition_and_ring_monotone():
    spec = replace(sample_traffic_scene(seed=5, n_objects=5), num_rings=16, points_per_ring=256)
    scene = generate_synthetic_scene(spec)
    assert scene.owner.dtype == np.int32
    assert ((scene.owner == -1) == scene.ground_mask).all()
    assert (np.diff(scene.ring_ids) >= 0).all()
    # labels match the owning object's class
    for k, obj in enumerate(spec.objects):
        sel = scene.owner == k
        if sel.any():
            assert (scene.cloud.labels[sel] == obj.class_id).all()


@pytest.mark.parametrize("spec", [
    *(sample_traffic_scene(seed) for seed in range(6)),
    clutter_scene(),
    replace(sample_traffic_scene(1), noise_sigma=0.05, ground_tilt_deg=3.0,
            elevation_max_deg=-3.6),
], ids=[*(f"traffic{seed}" for seed in range(6)), "clutter", "noisy-tilted"])
def test_generated_cloud_passes_the_content_checks(spec):
    # the generator skips PointCloud's content scans; its values pass them
    cloud = generate_synthetic_scene(spec).cloud
    PointCloud(xyz=cloud.xyz, intensity=cloud.intensity, labels=cloud.labels)


# bearings on and next to the 0/2pi wrap, and any other
_BEARINGS = st.sampled_from([0.0, 1e-9, -1e-9, math.pi, -math.pi + 1e-9]) | st.floats(
    -math.pi, math.pi)


@st.composite
def _objects(draw):
    shape = draw(st.sampled_from(["box", "cylinder", "composite"]))
    sizes = {"height": draw(st.floats(0.3, 3.0))}
    if shape != "cylinder":
        sizes.update(length=draw(st.floats(0.05, 5.0)), width=draw(st.floats(0.05, 2.5)))
    if shape != "box":
        sizes["radius"] = draw(st.floats(0.05, 1.5))
    if shape == "composite":
        sizes["rider_height"] = draw(st.floats(0.3, 1.0))
    obj = ObjectSpec(class_id=draw(st.integers(0, 3)), shape=shape, x=0.0, y=0.0,
                     yaw_deg=draw(st.floats(-180.0, 180.0)), **sizes)
    # as near as the layout check admits (0.5 m clear of the footprint), or farther
    d = obj.footprint_radius() + 0.5 + draw(st.sampled_from([1e-6]) | st.floats(1e-6, 30.0))
    bearing = draw(_BEARINGS)
    return replace(obj, x=d * math.cos(bearing), y=d * math.sin(bearing))


@st.composite
def _scenes(draw):
    objects = draw(st.lists(_objects(), min_size=1, max_size=4))
    for a, b in combinations(objects, 2):
        assume(math.hypot(a.x - b.x, a.y - b.y) >= a.footprint_radius() + b.footprint_radius())
    tilt = draw(st.sampled_from([0.0]) | st.floats(-5.0, 5.0))
    return SceneSpec(num_rings=draw(st.integers(1, 6)),
                     points_per_ring=draw(st.sampled_from([8, 9, 13]) | st.integers(8, 400)),
                     elevation_min_deg=-30.0, elevation_max_deg=-(abs(tilt) + 1.0),
                     ground_tilt_deg=tilt, noise_sigma=draw(st.sampled_from([0.0, 0.02])),
                     rng_seed=draw(st.integers(0, 99)), objects=tuple(objects))


@settings(max_examples=150, deadline=None)
@given(_scenes())
def test_windowed_cast_matches_all_rays(spec):
    scene = generate_synthetic_scene(spec)
    ring_ids, owner, labels, xyz = all_rays_scene(spec)
    np.testing.assert_array_equal(scene.ring_ids, ring_ids)
    np.testing.assert_array_equal(scene.owner, owner)
    np.testing.assert_array_equal(scene.cloud.labels, labels)
    assert scene.cloud.xyz.tobytes() == np.asfortranarray(xyz).tobytes()


def test_each_sensor_field_gets_its_own_fan():
    # generated in this order, each scene differs from the one before in
    # one sensor field, so a fan cached under a key that missed it would be reused
    flat = replace(sample_traffic_scene(11, n_objects=3), elevation_max_deg=-3.6)
    tilted = replace(flat, ground_tilt_deg=3.0)
    higher = replace(tilted, sensor_height=2.1)
    lower_fan = replace(higher, elevation_min_deg=-14.0)
    upper_fan = replace(lower_fan, elevation_max_deg=-4.0)
    fewer_rings = replace(upper_fan, num_rings=16)
    coarse = replace(fewer_rings, points_per_ring=400)
    for spec in (flat, tilted, higher, lower_fan, upper_fan, fewer_rings, coarse):
        scene = generate_synthetic_scene(spec)
        ring_ids, owner, labels, xyz = all_rays_scene(spec)
        np.testing.assert_array_equal(scene.ring_ids, ring_ids)
        np.testing.assert_array_equal(scene.owner, owner)
        np.testing.assert_array_equal(scene.cloud.labels, labels)
        assert scene.cloud.xyz.tobytes() == np.asfortranarray(xyz).tobytes()


def test_scenes_of_one_sensor_share_read_only_ring_ids():
    a = generate_synthetic_scene(sample_traffic_scene(1, n_objects=2))
    b = generate_synthetic_scene(sample_traffic_scene(2, n_objects=4))
    assert np.shares_memory(a.ring_ids, b.ring_ids)
    assert not a.ring_ids.flags.writeable
    with pytest.raises(ValueError):
        a.ring_ids[0] = 1


def test_cloud_keeps_the_cast_column_major_xyz():
    xyz = generate_synthetic_scene(sample_traffic_scene(3, n_objects=2)).cloud.xyz
    assert xyz.flags.f_contiguous and xyz.flags.owndata


def test_traffic_sampler_draws_pinned():
    # recorded before the sampler drew its class with `integers`
    digest = hashlib.sha256()
    for seed in range(200):
        digest.update(repr(sample_traffic_scene(seed)).encode())
        digest.update(repr(sample_traffic_scene(seed, n_objects=1)).encode())
    digest.update(repr(sample_traffic_scene(7, n_objects=4, ground_tilt_deg=3.0)).encode())
    assert digest.hexdigest() == (
        "5897e2af38784c7f06ce2feb8fcb208f04cbe9af8a4fc8475d140613910d592c")


@pytest.mark.parametrize("n_objects", [None, 1], ids=["default", "one"])
def test_traffic_sampler_places_by_its_rule(n_objects):
    # the pinned digest freezes the draws; this checks what they must satisfy
    for seed in range(200):
        objs = sample_traffic_scene(seed, n_objects).objects
        for obj in objs:
            far = 20.0 if obj.class_id == ClassId.PEDESTRIAN else 35.0
            assert 8.0 - 1e-9 <= math.hypot(obj.x, obj.y) <= far + 1e-9
            if obj.shape == "cylinder":
                assert obj.yaw_deg == 0.0
            else:
                sight = math.degrees(math.atan2(obj.y, obj.x))
                off = abs((obj.yaw_deg - sight + 180.0) % 360.0 - 180.0)
                assert 25.0 - 1e-9 <= off <= 65.0 + 1e-9
        for a, b in combinations(objs, 2):
            assert (math.hypot(a.x - b.x, a.y - b.y)
                    > a.footprint_radius() + b.footprint_radius() + 1.2)
            (bearing_a, half_a), (bearing_b, half_b) = synth._wedge(a), synth._wedge(b)
            gap = abs(bearing_a - bearing_b)
            assert min(gap, 2.0 * math.pi - gap) > half_a + half_b


def test_each_object_casts_only_its_azimuth_window(monkeypatch):
    spec = clutter_scene(0)  # traffic plus 30 thin poles
    assert sum(o.shape == "cylinder" and o.class_id == 0 for o in spec.objects) == 30
    rays = []
    object_distances = synth._object_distances

    def counted(obj, z_base, dirs):
        rays.append(dirs.shape[0])
        return object_distances(obj, z_base, dirs)

    monkeypatch.setattr(synth, "_object_distances", counted)
    generate_synthetic_scene(spec)
    a = spec.points_per_ring
    azimuths = (np.arange(a) + 0.5) * (2.0 * math.pi / a)
    assert len(rays) == len(spec.objects)
    for obj, n in zip(spec.objects, rays):
        off = (azimuths - math.atan2(obj.y, obj.x) + math.pi) % (2.0 * math.pi) - math.pi
        half = math.asin(obj.footprint_radius() / math.hypot(obj.x, obj.y))
        window = int((np.abs(off) <= half).sum())
        assert n <= spec.num_rings * (window + 2)


def test_object_below_ground_rejected():
    obj = ObjectSpec(class_id=1, shape="box", x=10.0, y=0.0, length=4, width=2,
                     height=1.5, z_base=-5.0)
    with pytest.raises(SceneValidationError):
        generate_synthetic_scene(SceneSpec(objects=(obj,), num_rings=4,
                                           points_per_ring=32))


def test_explicit_z_base_is_the_object_bottom():
    # 0.5 m above the ground, which lies at z = -1.73 under the sensor
    obj = ObjectSpec(class_id=1, shape="box", x=10.0, y=0.0, length=4, width=2,
                     height=1.5, z_base=-1.23)
    scene = generate_synthetic_scene(SceneSpec(objects=(obj,), num_rings=16,
                                               points_per_ring=256))
    z = scene.cloud.xyz[scene.owner == 0, 2]
    assert z.size and z.min() >= -1.23 - 0.1  # within the 0.02 m noise


@pytest.mark.parametrize("make, reason", [
    (lambda: SceneSpec(objects=(ObjectSpec(class_id=1, shape="box", x=10.0, y=0.0,
                                           length=0.0),)),
     "a box needs positive length"),
    (lambda: SceneSpec(objects=(ObjectSpec(class_id=2, shape="cylinder", x=0.3, y=0.0,
                                           radius=0.3, height=1.7),)),
     "object footprint overlaps the sensor origin"),
    (lambda: SceneSpec(elevation_min_deg=-1.0, elevation_max_deg=-2.0),
     "elevation_min_deg > elevation_max_deg"),
    (lambda: sample_traffic_scene(0, n_objects=40), "could not place objects without overlap"),
], ids=["zero-size", "at-origin", "elevations", "crowded"])
def test_impossible_scene_rejected(make, reason):
    with pytest.raises(SceneValidationError, match=reason):
        generate_synthetic_scene(make())


def test_interpenetration_rejected():
    a = ObjectSpec(class_id=1, shape="box", x=10.0, y=0.0, length=4, width=2,
                   height=1.5)
    b = ObjectSpec(class_id=2, shape="cylinder", x=10.5, y=0.3, radius=0.4,
                   height=1.7)
    with pytest.raises(SceneValidationError):
        generate_synthetic_scene(SceneSpec(objects=(a, b), num_rings=4,
                                           points_per_ring=32))


def test_rays_without_return_rejected():
    # upward-looking rays never strike the ground
    spec = SceneSpec(num_rings=4, points_per_ring=32, elevation_min_deg=-5,
                     elevation_max_deg=5.0)
    with pytest.raises(SceneValidationError):
        generate_synthetic_scene(spec)


def test_tilted_ground_plane_geometry():
    spec = SceneSpec(num_rings=8, points_per_ring=128, ground_tilt_deg=5.0,
                     elevation_min_deg=-20, elevation_max_deg=-6.0, rng_seed=4)
    scene = generate_synthetic_scene(spec)
    dist = np.abs(scene.cloud.xyz @ scene.ground_normal + scene.ground_offset)
    assert dist.max() < 1e-9


def test_scene_from_file(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text(
        """
        seed = 11
        num_rings = 12
        points_per_ring = 128
        noise_sigma = 0.01
        objects.0.class = car
        objects.0.shape = box
        objects.0.x = 12.0
        objects.0.y = -2.0
        objects.0.yaw_deg = 35
        objects.0.length = 4.2
        objects.0.width = 1.8
        objects.0.height = 1.5
        objects.1.class = pedestrian
        objects.1.shape = cylinder
        objects.1.x = -8.0
        objects.1.y = 4.0
        objects.1.radius = 0.35
        objects.1.height = 1.7
        """
    )
    spec = scene_from_file(path)
    assert spec.rng_seed == 11
    assert len(spec.objects) == 2
    assert spec.objects[0].class_id == 1
    assert spec.objects[1].shape == "cylinder"
    scene = generate_synthetic_scene(spec)
    assert (scene.cloud.labels > 0).sum() > 0


def test_scene_file_unknown_key(tmp_path):
    from ringseg import ConfigError
    path = tmp_path / "scene.cfg"
    path.write_text("bogus = 3\n")
    with pytest.raises(ConfigError):
        scene_from_file(path)


def test_composite_spans_bike_and_rider():
    obj = ObjectSpec(class_id=3, shape="composite", x=9.0, y=0.0, yaw_deg=40,
                     length=1.8, width=0.5, height=1.1, radius=0.3,
                     rider_height=0.9)
    spec = SceneSpec(num_rings=32, points_per_ring=512, noise_sigma=0.0,
                     rng_seed=6, objects=(obj,), elevation_min_deg=-20,
                     elevation_max_deg=-1.0)
    scene = generate_synthetic_scene(spec)
    pts = scene.cloud.xyz[scene.owner == 0]
    heights = pts[:, 2] + spec.sensor_height
    assert heights.max() > obj.height  # rider above the bike box
    assert heights.min() < 0.3


# for every scene key: a value its check rejects and the requirement the
# error quotes; object keys are shown for object 0
REJECTED = {
    "num_rings": ("0", "integer >= 1"),
    "points_per_ring": ("7", "integer >= 8"),
    "elevation_min_deg": ("-91", "degrees in [-90, 90]"),
    "elevation_max_deg": ("nan", "degrees in [-90, 90]"),
    "sensor_height": ("0", "finite positive meters"),
    "ground_tilt_deg": ("90", "degrees in (-90, 90)"),
    "noise_sigma": ("-0.5", "finite meters >= 0"),
    "seed": ("-1", "integer >= 0"),
    "objects.0.class": ("truck", "class name or id (background=0, car=1, pedestrian=2, "
                                 "cyclist=3)"),
    "objects.0.shape": ("sphere", "one of box, cylinder, composite"),
    "objects.0.x": ("inf", "finite meters"),
    "objects.0.y": ("nan", "finite meters"),
    "objects.0.yaw_deg": ("-inf", "finite degrees"),
    "objects.0.length": ("-1", "finite meters >= 0"),
    "objects.0.width": ("nan", "finite meters >= 0"),
    "objects.0.height": ("inf", "finite meters >= 0"),
    "objects.0.radius": ("0.4.1", "finite meters >= 0"),
    "objects.0.rider_height": ("-0.1", "finite meters >= 0"),
    "objects.0.clearance": ("-1e-3", "finite meters >= 0"),
    "objects.0.z_base": ("nan", "finite meters"),
}
SCENE_KEYS = sorted([*_SCENE_KEYS, *(f"objects.0.{key}" for key in _OBJECT_KEYS)])
# an object with only the keys it needs
OBJECT = {"objects.0.class": "car", "objects.0.shape": "box", "objects.0.x": "12.0",
          "objects.0.y": "-2.0"}


def _load(tmp_path, values: dict):
    path = tmp_path / "scene.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    return scene_from_file(path)


@pytest.mark.parametrize("key", SCENE_KEYS)
def test_each_scene_key_checked(key, tmp_path):
    assert set(REJECTED) == set(SCENE_KEYS)
    section, _, name = key.rpartition(".")
    base = OBJECT if section else {}
    f = (_OBJECT_KEYS if section else _SCENE_KEYS)[name]
    bogus = f"{section}.bogus" if section else "bogus"
    with pytest.raises(ConfigError) as exc:
        _load(tmp_path, {**base, bogus: "1"})
    assert exc.value.key == bogus
    bad, requirement = REJECTED[key]
    with pytest.raises(ConfigError) as exc:
        _load(tmp_path, {**base, key: bad})
    assert (exc.value.key, exc.value.reason) == (key, f"expected {requirement}, got {bad!r}")
    if f.default is MISSING:
        with pytest.raises(ConfigError) as exc:
            _load(tmp_path, {k: v for k, v in base.items() if k != key})
        assert (exc.value.key, exc.value.reason) == (section, f"missing {name}")
    elif f.default is not None:
        objects = (ObjectSpec(class_id=1, shape="box", x=12.0, y=-2.0),) if section else ()
        assert _load(tmp_path, {**base, key: str(f.default)}) == SceneSpec(objects=objects)


def test_checks_run_at_generation_not_construction():
    # building a spec checks nothing; generating it runs the same field checks
    bad_scene = SceneSpec(noise_sigma=-0.5, num_rings=4, points_per_ring=32)
    with pytest.raises(SceneValidationError, match="noise_sigma: expected finite meters >= 0"):
        generate_synthetic_scene(bad_scene)
    tall = ObjectSpec(class_id=1, shape="box", x=10.0, y=0.0, length=4, width=2,
                      height=float("nan"))
    with pytest.raises(SceneValidationError, match="objects.0.height: expected"):
        generate_synthetic_scene(SceneSpec(objects=(tall,), num_rings=4, points_per_ring=32))
