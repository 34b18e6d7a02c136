"""Dotted-key configuration: the parameter classes, file parsing and validation.

Each field of the parameter classes is the one declaration of a key: its
default, its check and the requirement a rejection quotes. The defaults
are the stock parameter set, so the zero-config run is the published one.
A key is its field's path, `<section>.<field>` or `<field>` at top level;
each size-prior bound is a key of its own,
`refine.size_priors.<class>.<min|max>.<axis>`.
A config file is `key = value` lines with `#` comments; CLI flags
override file values. Every key, from a file or a flag, is validated
before any frame is touched, and a rejected config leaves the filesystem
alone.
"""

# no `from __future__ import annotations`: `build_config` casts by field type
import io
import math
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .cloud import CLASS_NAMES, ClassId
from .errors import ConfigError


def read_text(path, error=ConfigError) -> str:
    """A UTF-8 file's text; a byte that is not UTF-8 raises `error("<path>:<line>", why)`."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}", f"byte {data[exc.start]:#04x} is not UTF-8 text") from None


def read_kv_file(path) -> dict[str, str]:
    """Read `key = value` lines; '#' starts a comment, blanks are skipped."""
    values: dict[str, str] = {}
    # newline=None splits lines as a text-mode file does
    for lineno, line in enumerate(io.StringIO(read_text(path), newline=None), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}", "expected 'key = value'")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# a key's raw string is cast by its field's type; any other type is a path
_CASTERS = {int: int, float: float, bool: _parse_bool}


def _param(default, check, requirement: str, parse=None):
    """A field whose values must pass `check`; `requirement` says which do.
    `parse` casts a file's string, by the field's type when None (`_CASTERS`)."""
    return field(default=default,
                 metadata={"check": check, "requirement": requirement, "parse": parse})


def _integer(default: int, minimum: int = 1):
    return _param(default, lambda v: v >= minimum, f"integer >= {minimum}")


def _meters(default: float, zero_ok: bool = False):
    if zero_ok:
        return _param(default, lambda v: 0.0 <= v < math.inf, "finite meters >= 0")
    return _param(default, lambda v: 0.0 < v < math.inf, "finite positive meters")


def _finite(default, unit: str = "meters"):
    return _param(default, math.isfinite, f"finite {unit}")


def _expected(f, shown) -> str:
    return f"expected {f.metadata['requirement']}, got {shown!r}"


class _ParamError(ValueError):
    """A parameter value fails a check; `name` is the field that carries it."""

    def __init__(self, name: str, reason: str):
        super().__init__(f"{name}: {reason}")
        self.name = name
        self.reason = reason


def check_fields(obj) -> None:
    """Run each declared field check of dataclass `obj`; the first value
    that fails raises a ValueError naming its field."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if "check" in f.metadata and not f.metadata["check"](value):
            raise _ParamError(f.name, _expected(f, value))


def field_value(key: str, f, raw):
    """`raw` as a value of field `f`, cast when it is a file's string (a CLI
    flag's is typed) and checked; ConfigError names `key` otherwise."""
    value = raw
    if isinstance(raw, str):
        try:
            value = (f.metadata["parse"] or _CASTERS.get(f.type, str))(raw)
        except ValueError:
            raise ConfigError(key, _expected(f, raw)) from None
    if not f.metadata["check"](value):
        raise ConfigError(key, _expected(f, raw))
    return value


class _Checked:
    """Runs each declared field check on construction."""

    __post_init__ = check_fields


@dataclass(frozen=True)
class SizePrior:
    """Admissible box extents for one class, full lengths in meters.

    The x range is the long horizontal axis; a candidate's sorted
    (descending) horizontal extents are matched against (x, y) so box
    orientation is irrelevant.
    """

    mins: tuple[float, float, float]
    maxes: tuple[float, float, float]

    def __post_init__(self):
        if not all(lo < hi for lo, hi in zip(self.mins, self.maxes)):
            raise ValueError("size prior mins must be < maxes")


def _admitted(extents: np.ndarray, priors) -> np.ndarray:
    """Per box of full extents (k, 3), whether at least one of `priors`
    admits it (see `SizePrior`)."""
    e = np.asarray(extents, dtype=np.float64).reshape(-1, 3)
    e = np.column_stack([e[:, :2].max(axis=1), e[:, :2].min(axis=1), e[:, 2]])
    lo = np.array([p.mins for p in priors]).reshape(-1, 1, 3)
    hi = np.array([p.maxes for p in priors]).reshape(-1, 1, 3)
    return ((lo <= e) & (e <= hi)).all(axis=2).any(axis=0)


DEFAULT_SIZE_PRIORS: dict[int, SizePrior] = {
    int(ClassId.CAR): SizePrior((1.5, 1.2, 1.0), (6.0, 2.5, 2.5)),
    int(ClassId.PEDESTRIAN): SizePrior((0.2, 0.2, 0.8), (1.2, 1.2, 2.2)),
    int(ClassId.CYCLIST): SizePrior((0.8, 0.2, 0.8), (2.5, 1.2, 2.2)),
}


@dataclass(frozen=True)
class GroundParams(_Checked):
    """Segmented ground fit (Zermas et al., ICRA 2017).

    A segment takes at most `n_iter` fit / re-select rounds: it stops
    early at the first round that re-selects the points it was fitted on.
    """

    n_seg: int = _integer(3)
    n_iter: int = _integer(3)
    n_lpr: int = _integer(20, minimum=3)
    th_seeds: float = _meters(0.4)
    th_dist: float = _meters(0.3)


@dataclass(frozen=True)
class ClusterParams(_Checked):
    """Ring clustering: intra-ring and previous-ring link distances."""

    th_ring: float = _meters(0.5)
    th_prop: float = _meters(1.0)


@dataclass(frozen=True)
class RefineParams(_Checked):
    """Adaptive count threshold, size priors and box enlargement."""

    th_num_base: int = _integer(30)
    d_ref: float = _meters(10.0)
    th_num_floor: int = _integer(5)
    enlarge_xy: float = _meters(0.1, zero_ok=True)
    enlarge_z: float = _meters(0.4, zero_ok=True)
    size_priors: dict[int, SizePrior] = field(default_factory=lambda: dict(DEFAULT_SIZE_PRIORS))

    def __post_init__(self):
        super().__post_init__()
        if self.th_num_base < self.th_num_floor:
            raise _ParamError("th_num_base", "need th_num_base >= th_num_floor >= 1")


@dataclass(frozen=True)
class SamplePrepParams(_Checked):
    """Training-sample preparation."""

    n_points: int = _integer(512)
    augment: bool = _param(False, lambda v: True, "boolean")
    background_keep_prob: float = _param(0.25, lambda v: 0.0 <= v <= 1.0,
                                         "probability in [0, 1]")


@dataclass(frozen=True)
class PipelineConfig(_Checked):
    ground: GroundParams = field(default_factory=GroundParams)
    cluster: ClusterParams = field(default_factory=ClusterParams)
    refine: RefineParams = field(default_factory=RefineParams)
    prep: SamplePrepParams = field(default_factory=SamplePrepParams)
    num_rings: int = _integer(64)
    rng_seed: int = _integer(0, minimum=0)
    jobs: int = _integer(1)
    input: str | None = _param(None, lambda v: True, "path")
    output: str | None = _param(None, lambda v: True, "path")


# every accepted key -> its field; `refine.size_priors` has no check, and
# each of its bounds is a key of its own, with no rule but "not NaN"
_KEYS = {
    **{f"{top.name}.{f.name}": f for top in fields(PipelineConfig) if is_dataclass(top.type)
       for f in fields(top.type) if "check" in f.metadata},
    **{top.name: top for top in fields(PipelineConfig) if "check" in top.metadata},
    **{f"refine.size_priors.{CLASS_NAMES[cid]}.{bound}.{axis}":
       _param(value, lambda v: not np.isnan(v), "meters", parse=float)
       for cid, prior in DEFAULT_SIZE_PRIORS.items()
       for bound, values in (("min", prior.mins), ("max", prior.maxes))
       for axis, value in zip("xyz", values)},
}


def _field(key: str):
    try:
        return _KEYS[key]
    except KeyError:
        raise ConfigError(key, "unknown key") from None


def build_config(
    file_values: dict[str, str] | None = None,
    overrides: dict[str, object] | None = None,
) -> PipelineConfig:
    """Assemble and validate a PipelineConfig.

    `file_values` are raw strings from read_kv_file; `overrides` are typed
    values (from CLI flags) keyed by the same dotted names and win over the
    file; None means not given. Both pass their field's check, and keys
    given by neither keep the fields' defaults. A class's size prior is
    built from its six bounds, which must keep each min below its max.
    Raises ConfigError naming the offending key.
    """
    # section ("" at top level) -> field name -> value
    kwargs: dict[str, dict[str, object]] = {"": {}}

    for key, raw in [*(file_values or {}).items(), *(overrides or {}).items()]:
        if raw is not None:
            section, _, name = key.rpartition(".")
            kwargs.setdefault(section, {})[name] = field_value(key, _field(key), raw)

    def corner(section: str) -> tuple:  # a prior's min or max, given axes over defaults
        given = kwargs.pop(section, {})
        return tuple(given.get(axis, _KEYS[f"{section}.{axis}"].default) for axis in "xyz")

    priors = {}
    for cid in DEFAULT_SIZE_PRIORS:
        key = f"refine.size_priors.{CLASS_NAMES[cid]}"
        try:
            priors[cid] = SizePrior(corner(f"{key}.min"), corner(f"{key}.max"))
        except ValueError as exc:
            raise ConfigError(key, str(exc))
    kwargs.setdefault("refine", {})["size_priors"] = priors
    top = kwargs.pop("")
    sections = {f.name: f.type for f in fields(PipelineConfig)}
    for section, kw in kwargs.items():
        try:
            top[section] = sections[section](**kw)
        except _ParamError as exc:  # a rule across fields; each field passed its own
            raise ConfigError(f"{section}.{exc.name}", exc.reason)
    return PipelineConfig(**top)


def load_config(path=None, overrides: dict[str, object] | None = None) -> PipelineConfig:
    file_values = read_kv_file(path) if path else None
    return build_config(file_values, overrides)
