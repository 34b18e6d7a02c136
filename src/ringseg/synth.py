"""Synthetic rotating-scanner scenes with exact ground truth.

A desk-scale stand-in for real drives: rays are cast per ring (elevation)
and azimuth step against an infinite ground plane and simple object
primitives (boxes for cars, cylinders for pedestrians, box+cylinder for
cyclists). Every emitted point carries its true ring index, class label
and ground membership, which the pipeline tests use as oracles.

Each `SceneSpec` / `ObjectSpec` field declares a scene parameter's
default, check and requirement once, through `config._param`; the checks
run when a scene file is read (ConfigError naming the key) and when a
scene is generated (SceneValidationError), not when a spec is built.
`_validate_layout` is the one check across fields; it runs when a scene
is generated and names a rejected object by its scene-file key.

Specs are validated so that every ray returns: elevations must all strike
the ground when no object is in the way, which keeps each ring a complete
revolution and makes quadrant-traced ring ids exactly reproducible.
"""

# no `from __future__ import annotations`: `scene_from_file` casts by field type
import math
from dataclasses import MISSING, dataclass, field, fields
from functools import lru_cache
from itertools import combinations

import numpy as np

from .cloud import CLASS_NAMES, FOREGROUND_CLASSES, ClassId, PointCloud, _readonly
from .config import _finite, _integer, _meters, _param, check_fields, field_value, read_kv_file
from .errors import ConfigError, SceneValidationError

TWO_PI = 2.0 * math.pi

# fraction of a bike's height at which the rider cylinder starts
_RIDER_BASE_FRACTION = 0.55

# shape -> the sizes it must have positive
_SHAPE_SIZES = {"box": ("length", "width", "height"), "cylinder": ("radius", "height"),
                "composite": ("length", "width", "height", "radius", "rider_height")}
_CLASS_BY_NAME = {name: int(cid) for cid, name in CLASS_NAMES.items()}


def _class_id(value: str) -> int:
    """A class name (any case) or its integer id."""
    name = value.lower()
    return _CLASS_BY_NAME[name] if name in _CLASS_BY_NAME else int(value)


_ELEVATION = (lambda v: -90.0 <= v <= 90.0, "degrees in [-90, 90]")


@dataclass(frozen=True)
class ObjectSpec:
    """One placed primitive. Dimensions are full lengths in meters.

    z_base None places the bottom on the local ground (plus clearance);
    an explicit z_base is validated against the ground instead.
    """

    class_id: int = _param(
        MISSING, lambda v: v in _CLASS_BY_NAME.values(),
        f"class name or id ({', '.join(f'{n}={c}' for n, c in _CLASS_BY_NAME.items())})",
        parse=_class_id)
    shape: str = _param(MISSING, lambda v: v in _SHAPE_SIZES, f"one of {', '.join(_SHAPE_SIZES)}")
    x: float = _finite(MISSING)
    y: float = _finite(MISSING)
    yaw_deg: float = _finite(0.0, "degrees")
    length: float = _meters(0.0, zero_ok=True)
    width: float = _meters(0.0, zero_ok=True)
    height: float = _meters(0.0, zero_ok=True)
    radius: float = _meters(0.0, zero_ok=True)
    rider_height: float = _meters(0.0, zero_ok=True)
    clearance: float = _meters(0.0, zero_ok=True)
    z_base: float | None = _param(None, lambda v: v is None or math.isfinite(v),
                                  "finite meters", parse=float)
    # the scene-file key that declared the object, which layout errors name
    key: str | None = field(default=None, repr=False, compare=False)

    def footprint_radius(self) -> float:
        box_r = math.hypot(self.length, self.width) / 2.0
        if self.shape == "box":
            return box_r
        if self.shape == "cylinder":
            return self.radius
        return max(box_r, self.radius)


@dataclass(frozen=True)
class SceneSpec:
    num_rings: int = _integer(64)
    points_per_ring: int = _integer(1600, minimum=8)
    elevation_min_deg: float = _param(-24.8, *_ELEVATION)
    elevation_max_deg: float = _param(-0.4, *_ELEVATION)
    sensor_height: float = _meters(1.73)
    ground_tilt_deg: float = _param(0.0, lambda v: -90.0 < v < 90.0, "degrees in (-90, 90)")
    noise_sigma: float = _meters(0.0, zero_ok=True)
    rng_seed: int = _integer(0, minimum=0)
    objects: tuple[ObjectSpec, ...] = field(default_factory=tuple)

    def ground_plane(self) -> tuple[np.ndarray, float]:
        """Unit normal and offset of {p : n.p + offset = 0}.

        Tilt rotates the plane about the y axis (uphill toward +x); the
        plane always passes through (0, 0, -sensor_height).
        """
        t = math.radians(self.ground_tilt_deg)
        normal = np.array([-math.sin(t), 0.0, math.cos(t)])
        return normal, self.sensor_height * math.cos(t)


@dataclass(frozen=True)
class SyntheticScene:
    """Generated cloud plus full ground truth.

    ring_ids is the sensor fan's read-only array, shared by every scene
    generated for the same sensor.
    """

    cloud: PointCloud  # labels attached
    ring_ids: np.ndarray
    ground_mask: np.ndarray
    owner: np.ndarray  # -1 for ground, else index into spec.objects
    ground_normal: np.ndarray
    ground_offset: float


def _ground_height(normal: np.ndarray, offset: float, x, y):
    return -(offset + normal[0] * x + normal[1] * y) / normal[2]


def _footprint_ground(obj: ObjectSpec, normal: np.ndarray, offset: float) -> float:
    """The highest ground under the footprint circle's centre and four rim points."""
    r = obj.footprint_radius()
    probes_x = np.array([obj.x, obj.x + r, obj.x - r, obj.x, obj.x])
    probes_y = np.array([obj.y, obj.y, obj.y, obj.y + r, obj.y - r])
    return float(_ground_height(normal, offset, probes_x, probes_y).max())


def _object_z_base(obj: ObjectSpec, normal: np.ndarray, offset: float) -> float:
    """The explicit z_base, which `_validate_layout` keeps at or above the
    footprint's ground, else that ground plus the clearance."""
    if obj.z_base is not None:
        return obj.z_base
    return _footprint_ground(obj, normal, offset) + obj.clearance


def _ray_box(dirs: np.ndarray, center: np.ndarray, half: np.ndarray, yaw: float) -> np.ndarray:
    """Slab-method entry distance per ray, inf where missed."""
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])  # world -> box
    op = rot @ (-center)
    dp = dirs @ rot.T
    tnear = np.full(dirs.shape[0], -np.inf)
    tfar = np.full(dirs.shape[0], np.inf)
    # one slab at a time, so a whole frame's rays need only column temporaries
    for d, o, h in zip(dp.T, op, half):
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (-h - o) / d
            t2 = (h - o) / d
        lo = np.minimum(t1, t2)
        hi = np.maximum(t1, t2, out=t1)
        par = np.abs(d) < 1e-12
        lo[par], hi[par] = (-np.inf, np.inf) if abs(o) <= h else (np.inf, -np.inf)
        np.maximum(tnear, lo, out=tnear)
        np.minimum(tfar, hi, out=tfar)
    hit = (tnear <= tfar) & (tnear > 1e-9)
    return np.where(hit, tnear, np.inf)


def _ray_cylinder(dirs: np.ndarray, cx: float, cy: float, radius: float,
                  zb: float, zt: float) -> np.ndarray:
    """Capped-cylinder entry distance per ray (sensor assumed outside)."""
    dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    a = dx * dx + dy * dy
    b = -2.0 * (cx * dx + cy * dy)
    c0 = cx * cx + cy * cy - radius * radius
    disc = b * b - 4.0 * a * c0
    with np.errstate(divide="ignore", invalid="ignore"):
        t_side = (-b - np.sqrt(np.maximum(disc, 0.0))) / (2.0 * a)
    z_side = t_side * dz
    side_ok = (disc >= 0) & (a > 1e-12) & (t_side > 1e-9) & (z_side >= zb) & (z_side <= zt)
    best = np.where(side_ok, t_side, np.inf)
    # free the side test's arrays before the caps: a whole frame's rays come at once
    del a, b, disc, t_side, z_side, side_ok
    for z_cap in (zt, zb):
        with np.errstate(divide="ignore", invalid="ignore"):
            t_cap = z_cap / dz
        px = t_cap * dx - cx
        py = t_cap * dy - cy
        cap_ok = (np.abs(dz) > 1e-12) & (t_cap > 1e-9) & (px * px + py * py <= radius * radius)
        best = np.minimum(best, np.where(cap_ok, t_cap, np.inf))
    return best


def _object_distances(obj: ObjectSpec, z_base: float, dirs: np.ndarray) -> np.ndarray:
    yaw = math.radians(obj.yaw_deg)
    if obj.shape in ("box", "composite"):
        center = np.array([obj.x, obj.y, z_base + obj.height / 2.0])
        half = np.array([obj.length / 2.0, obj.width / 2.0, obj.height / 2.0])
        t = _ray_box(dirs, center, half, yaw)
    else:
        t = np.full(dirs.shape[0], np.inf)
    if obj.shape == "cylinder":
        t = np.minimum(t, _ray_cylinder(dirs, obj.x, obj.y, obj.radius,
                                        z_base, z_base + obj.height))
    elif obj.shape == "composite":
        rb = z_base + _RIDER_BASE_FRACTION * obj.height
        t = np.minimum(t, _ray_cylinder(dirs, obj.x, obj.y, obj.radius,
                                        rb, rb + obj.rider_height))
    return t


def _check(spec, where: str = "") -> None:
    """`check_fields`, raising SceneValidationError."""
    try:
        check_fields(spec)
    except ValueError as exc:
        raise SceneValidationError(where + str(exc)) from None


def _validate_layout(spec: SceneSpec) -> None:
    """Each object's field checks and the rules across fields and objects;
    a breach names the object by the scene-file key that declared it, else
    as `objects.<index in spec.objects>`."""
    objs = spec.objects
    keys = [obj.key or f"objects.{i}" for i, obj in enumerate(objs)]
    normal, offset = spec.ground_plane()
    for key, obj in zip(keys, objs):
        _check(obj, f"{key}.")
        zero = [name for name in _SHAPE_SIZES[obj.shape] if getattr(obj, name) <= 0]
        if zero:
            raise SceneValidationError(f"{key}: a {obj.shape} needs positive {', '.join(zero)}")
        if math.hypot(obj.x, obj.y) < obj.footprint_radius() + 0.5:
            raise SceneValidationError(f"{key}: object footprint overlaps the sensor origin")
        if obj.z_base is not None and obj.z_base < _footprint_ground(obj, normal, offset) - 1e-9:
            raise SceneValidationError(f"{key}: object sits below the ground plane")
    for (key_a, a), (key_b, b) in combinations(zip(keys, objs), 2):
        if math.hypot(a.x - b.x, a.y - b.y) < a.footprint_radius() + b.footprint_radius():
            raise SceneValidationError(f"{key_a} and {key_b} interpenetrate")


def _reachable_columns(obj: ObjectSpec, points_per_ring: int) -> np.ndarray:
    """The azimuth columns whose rays can meet the object's footprint circle.

    The circle (radius R at distance d >= R + 0.5, see `_validate_layout`)
    subtends asin(R / d) either side of its bearing. The window is widened
    by one column on each side, so rounding cannot drop a ray, and wraps at
    0/2pi. It spans under half a turn plus 3 columns, so with 8 or more
    columns per ring it never takes a column twice.
    """
    step = TWO_PI / points_per_ring
    bearing = math.atan2(obj.y, obj.x)
    half = math.asin(obj.footprint_radius() / math.hypot(obj.x, obj.y))
    # column j looks along (j + 0.5) * step
    lo = math.ceil((bearing - half) / step - 0.5) - 1
    hi = math.floor((bearing + half) / step - 0.5) + 1
    return np.arange(lo, hi + 1) % points_per_ring


# the SceneSpec fields a scene's rays depend on, in `_sensor_fan`'s order
_SENSOR_FIELDS = ("num_rings", "points_per_ring", "elevation_min_deg", "elevation_max_deg",
                  "sensor_height", "ground_tilt_deg")


# one sensor at a time: a 64 x 1600 fan is ~3.7 MB
@lru_cache(maxsize=1)
def _sensor_fan(*sensor) -> tuple[np.ndarray, ...]:
    """The sensor's ring elevations (radians), its rays in scan order, each
    ray's distance to the ground plane (inf where it misses) and its ring id,
    all read-only: every scene of the sensor shares them."""
    spec = SceneSpec(**dict(zip(_SENSOR_FIELDS, sensor)))
    normal, offset = spec.ground_plane()
    elevations = np.radians(
        np.linspace(spec.elevation_min_deg, spec.elevation_max_deg, spec.num_rings)
    )
    a = spec.points_per_ring
    step = TWO_PI / a
    azimuths = step / 2.0 + step * np.arange(a)  # stays off the axes
    cos_az, sin_az = np.cos(azimuths), np.sin(azimuths)
    # every ray in scan order, ring-major
    cos_el = np.array([math.cos(el) for el in elevations])[:, None]
    sin_el = np.array([math.sin(el) for el in elevations])[:, None]
    dirs = np.stack(np.broadcast_arrays(cos_el * cos_az, cos_el * sin_az, sin_el),
                    axis=-1).reshape(-1, 3)
    nd = dirs @ normal
    with np.errstate(divide="ignore", invalid="ignore"):
        ground_t = np.where(nd < -1e-12, -offset / nd, np.inf)
    ring_ids = np.repeat(np.arange(spec.num_rings, dtype=np.int32), a)
    return tuple(_readonly(v) for v in (elevations, dirs, ground_t, ring_ids))


def generate_synthetic_scene(spec: SceneSpec) -> SyntheticScene:
    """Cast all rays in scan order (ring-major, azimuth ascending).

    The ground takes every ray; each object takes only the rays of the
    azimuth columns its footprint can reach, on every ring, so a frame
    costs rings x (columns + the objects' window columns), not
    rings x columns x objects. The rays, their ground returns and the
    ring ids come from the sensor's cached fan.

    Raises SceneValidationError for physically inconsistent specs or when
    some ray would not return (incomplete rings would make ring ids
    untraceable from the data).
    """
    _check(spec)
    if spec.elevation_min_deg > spec.elevation_max_deg:
        raise SceneValidationError("elevation_min_deg > elevation_max_deg")
    _validate_layout(spec)

    normal, offset = spec.ground_plane()
    z_bases = [_object_z_base(obj, normal, offset) for obj in spec.objects]
    elevations, dirs, ground_t, ring_ids = _sensor_fan(
        *(getattr(spec, name) for name in _SENSOR_FIELDS))
    a = spec.points_per_ring
    n = ground_t.size

    # the nearest return per ray, the first in (ground, objects...) on ties;
    # the fan's distances are copied only when an object overwrites some
    all_t = ground_t.copy() if spec.objects else ground_t
    owner = np.full(n, -1, dtype=np.int32)  # -1 = ground
    ring_starts = np.arange(0, n, a)[:, None]
    for k, (obj, zb) in enumerate(zip(spec.objects, z_bases)):
        rays = (ring_starts + _reachable_columns(obj, a)).ravel()
        t = _object_distances(obj, zb, dirs[rays])
        nearer = t < all_t[rays]
        hit = rays[nearer]
        all_t[hit] = t[nearer]
        owner[hit] = k
    missing = np.flatnonzero(~np.isfinite(all_t))
    if missing.size:
        k = int(missing[0]) // a
        raise SceneValidationError(
            f"ring {k} (elevation {math.degrees(elevations[k]):.2f} deg) has rays "
            "without a return; lower elevation_max_deg or the ground tilt"
        )

    rng = np.random.default_rng(spec.rng_seed)
    if spec.noise_sigma > 0:
        all_t = np.maximum(all_t + rng.normal(0.0, spec.noise_sigma, n), 1e-3)
    intensity = rng.uniform(0.0, 1.0, n)

    # column-major, the layout PointCloud keeps, so it is not copied again
    xyz = np.multiply(dirs, all_t[:, None], out=np.empty((n, 3), order="F"))
    labels = np.zeros(n, dtype=np.uint8)
    hit_obj = owner >= 0
    if hit_obj.any():
        class_of = np.array([obj.class_id for obj in spec.objects], dtype=np.uint8)
        labels[hit_obj] = class_of[owner[hit_obj]]

    # every return is finite, intensities are drawn in [0, 1) and each
    # label is a checked spec's class, so the cloud skips its content scans
    cloud = PointCloud(xyz=xyz, intensity=intensity, labels=labels, validate=False)
    return SyntheticScene(
        cloud=cloud,
        ring_ids=ring_ids,
        ground_mask=~hit_obj,
        owner=owner,
        ground_normal=normal,
        ground_offset=offset,
    )


# fields whose scene-file key is an alias
_KEY_OF = {"rng_seed": "seed", "class_id": "class"}


def _keys(spec_type) -> dict:
    """Scene-file key -> field, for every checked field of `spec_type`."""
    return {_KEY_OF.get(f.name, f.name): f for f in fields(spec_type) if "check" in f.metadata}


_SCENE_KEYS = _keys(SceneSpec)
_OBJECT_KEYS = _keys(ObjectSpec)


def scene_from_file(path) -> SceneSpec:
    """Build a SceneSpec from a `key = value` file.

    Scalar keys are SceneSpec fields (`seed` for rng_seed); objects use
    `objects.<index>.<field>` for ObjectSpec fields (`class`, a name or
    id, for class_id), e.g. `objects.0.class = car`. A value its field
    rejects, an unknown key or a missing required one raises ConfigError.
    Each object keeps its file key, which may skip indices, so that a
    layout error at generation names it as the file does.
    """
    scene_kwargs: dict = {}
    object_kwargs: dict[int, dict] = {}
    for key, raw in read_kv_file(path).items():
        if key.startswith("objects."):
            parts = key.split(".")
            index_ok = len(parts) == 3 and parts[1].isascii() and parts[1].isdigit()
            if not index_ok or parts[2] not in _OBJECT_KEYS:
                raise ConfigError(key, "expected objects.<index>.<field>")
            f = _OBJECT_KEYS[parts[2]]
            object_kwargs.setdefault(int(parts[1]), {})[f.name] = field_value(key, f, raw)
        elif key in _SCENE_KEYS:
            f = _SCENE_KEYS[key]
            scene_kwargs[f.name] = field_value(key, f, raw)
        else:
            raise ConfigError(key, "unknown scene key")
    required = [key for key, f in _OBJECT_KEYS.items() if f.default is MISSING]
    objects = []
    for idx in sorted(object_kwargs):
        kwargs = object_kwargs[idx]
        missing = [key for key in required if _OBJECT_KEYS[key].name not in kwargs]
        if missing:
            raise ConfigError(f"objects.{idx}", f"missing {', '.join(missing)}")
        objects.append(ObjectSpec(**kwargs, key=f"objects.{idx}"))
    return SceneSpec(objects=tuple(objects), **scene_kwargs)


# a sampled class is declared here, one row each: shape, far end of the
# 8 m+ distance draw, then each size field's uniform draw in draw order
_TRAFFIC = {
    int(ClassId.CAR): ("box", 35.0, (("length", 3.8, 4.8), ("width", 1.7, 2.0),
                                     ("height", 1.4, 1.6))),
    # pedestrians stay nearer: a thin cylinder's visible depth shrinks
    # below the size priors once azimuth sampling gets too coarse
    int(ClassId.PEDESTRIAN): ("cylinder", 20.0, (("radius", 0.3, 0.42), ("height", 1.6, 1.8))),
    int(ClassId.CYCLIST): ("composite", 35.0, (("length", 1.6, 1.9), ("width", 0.4, 0.6),
                                               ("height", 1.0, 1.2), ("radius", 0.22, 0.3),
                                               ("rider_height", 0.8, 1.0))),
}


def _wedge(obj: ObjectSpec) -> tuple[float, float]:
    """Bearing in [0, 2pi) and half-width of the azimuth wedge the sampler
    reserves for `obj`: its footprint plus 0.3 m, seen from the sensor."""
    d = math.hypot(obj.x, obj.y)
    return math.atan2(obj.y, obj.x) % TWO_PI, math.asin(
        min(1.0, (obj.footprint_radius() + 0.3) / d))


def sample_traffic_scene(
    seed: int,
    n_objects: int | None = None,
    ground_tilt_deg: float = 0.0,
) -> SceneSpec:
    """Random benchmark scene: mixed cars/pedestrians/cyclists on open ground.

    Each attempt draws a class, then its distance (8 m to the class's far
    end), bearing, heading skew and sizes from its `_TRAFFIC` row, so a new
    sampled class is a new row. Objects are rejection-placed more than
    1.2 m apart beyond their footprints and with disjoint `_wedge`s; boxes
    and composites face 25-65 degrees off the line of sight so two faces
    are visible and both horizontal extents are observable.
    """
    rng = np.random.default_rng([seed, 0xB07])
    if n_objects is None:
        n_objects = int(rng.integers(3, 11))
    placed: list[tuple[ObjectSpec, tuple[float, float]]] = []  # with its wedge
    attempts = 0
    while len(placed) < n_objects and attempts < 200 * n_objects:
        attempts += 1
        cls = int(FOREGROUND_CLASSES[rng.integers(len(FOREGROUND_CLASSES))])
        shape, far, sizes = _TRAFFIC[cls]
        dist = rng.uniform(8.0, far)
        angle = rng.uniform(0.0, TWO_PI)
        # both box faces visible and neither so grazing that the azimuth
        # step stretches along-face point spacing past th_ring
        skew = float(rng.uniform(25.0, 65.0)) * (1 if rng.integers(2) else -1)
        obj = ObjectSpec(
            class_id=cls, shape=shape, x=dist * math.cos(angle), y=dist * math.sin(angle),
            yaw_deg=0.0 if shape == "cylinder" else math.degrees(angle) + skew,
            **{name: float(rng.uniform(lo, hi)) for name, lo, hi in sizes})
        # keep a clustering-safe gap: more than th_prop beyond the footprints;
        # also keep azimuth wedges disjoint so no object shadows another
        a, w = _wedge(obj)
        if all(math.hypot(p.x - obj.x, p.y - obj.y)
               > p.footprint_radius() + obj.footprint_radius() + 1.2
               and min(abs(a - b), TWO_PI - abs(a - b)) > w + v
               for p, (b, v) in placed):
            placed.append((obj, (a, w)))
    if len(placed) < n_objects:
        raise SceneValidationError("could not place objects without overlap")
    # tilted ground needs steeper rays so every azimuth still strikes it;
    # the fan is denser than the generic default so ring quantization does
    # not shave the visible height of far objects under the size priors
    elevation_max = min(-0.4, -(abs(ground_tilt_deg) + 0.6))
    return SceneSpec(
        elevation_min_deg=-12.0,
        elevation_max_deg=elevation_max,
        noise_sigma=0.02,
        ground_tilt_deg=ground_tilt_deg,
        rng_seed=seed,
        objects=tuple(obj for obj, _ in placed),
    )
