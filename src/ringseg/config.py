"""Dotted-key configuration: file parsing and validation.

The zero-config path reproduces the published run: the defaults of the
parameter dataclasses are the stock parameter set, and a key that is not
given keeps its default. A config file is plain `key = value` lines with
`#` comments; CLI flags override file values. Every key, from a file or a
flag, is validated before any frame is touched, and a rejected config
leaves the filesystem alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cloud import CLASS_NAMES, FOREGROUND_CLASSES
from .clustering import ClusterParams
from .errors import ConfigError
from .ground import GroundParams
from .refine import DEFAULT_SIZE_PRIORS, RefineParams, SizePrior
from .samples import SamplePrepParams

_PRIOR_CLASSES = {CLASS_NAMES[c]: int(c) for c in FOREGROUND_CLASSES}
_PRIOR_AXES = ("x", "y", "z")


def read_kv_file(path) -> dict[str, str]:
    """Read `key = value` lines; '#' starts a comment, blanks are skipped."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
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


def _pos(v) -> bool:
    return v > 0


def _ge(minimum):
    return lambda v: v >= minimum


def _prob(v) -> bool:
    return 0.0 <= v <= 1.0


# key -> (caster, predicate, requirement text)
_SCHEMA: dict[str, tuple] = {
    "ground.n_seg": (int, _ge(1), "integer >= 1"),
    "ground.n_iter": (int, _ge(1), "integer >= 1"),
    "ground.n_lpr": (int, _ge(3), "integer >= 3"),
    "ground.th_seeds": (float, _pos, "positive meters"),
    "ground.th_dist": (float, _pos, "positive meters"),
    "cluster.th_ring": (float, _pos, "positive meters"),
    "cluster.th_prop": (float, _pos, "positive meters"),
    "refine.th_num_base": (int, _ge(1), "integer >= 1"),
    "refine.d_ref": (float, _pos, "positive meters"),
    "refine.th_num_floor": (int, _ge(1), "integer >= 1"),
    "refine.enlarge_xy": (float, _ge(0.0), "meters >= 0"),
    "refine.enlarge_z": (float, _ge(0.0), "meters >= 0"),
    "prep.n_points": (int, _ge(1), "integer >= 1"),
    "prep.background_keep_prob": (float, _prob, "probability in [0, 1]"),
    "prep.augment": (_parse_bool, lambda v: True, "boolean"),
    "num_rings": (int, _ge(1), "integer >= 1"),
    "rng_seed": (int, _ge(0), "integer >= 0"),
    "jobs": (int, _ge(1), "integer >= 1"),
    "input": (str, lambda v: True, "path"),
    "output": (str, lambda v: True, "path"),
}
# top-level keys -> PipelineConfig fields; every other key is <section>.<field>
_TOP_LEVEL = {"num_rings": "num_rings", "rng_seed": "rng_seed", "jobs": "jobs",
              "input": "input_path", "output": "output_path"}


def _schema_entry(key: str) -> tuple:
    try:
        return _SCHEMA[key]
    except KeyError:
        raise ConfigError(key, "unknown key") from None


def _parse_prior_key(key: str) -> tuple[str, str, str]:
    parts = key.split(".")
    # refine.size_priors.<class>.<min|max>.<axis>
    if (len(parts) != 5 or parts[3] not in ("min", "max") or parts[4] not in _PRIOR_AXES
            or parts[2] not in _PRIOR_CLASSES):
        raise ConfigError(key, f"expected refine.size_priors.<{'|'.join(_PRIOR_CLASSES)}>"
                               ".<min|max>.<x|y|z>")
    return parts[2], parts[3], parts[4]


@dataclass(frozen=True)
class PipelineConfig:
    ground: GroundParams = field(default_factory=GroundParams)
    cluster: ClusterParams = field(default_factory=ClusterParams)
    refine: RefineParams = field(default_factory=RefineParams)
    prep: SamplePrepParams = field(default_factory=SamplePrepParams)
    num_rings: int = 64
    rng_seed: int = 0
    jobs: int = 1
    input_path: str | None = None
    output_path: str | None = None


def build_config(
    file_values: dict[str, str] | None = None,
    overrides: dict[str, object] | None = None,
) -> PipelineConfig:
    """Assemble and validate a PipelineConfig.

    `file_values` are raw strings from read_kv_file; `overrides` are typed
    values (from CLI flags) keyed by the same dotted names and win over the
    file; None means not given. Both pass the same schema check, and keys
    given by neither keep the parameter dataclasses' defaults. Raises
    ConfigError naming the offending key.
    """
    values: dict[str, object] = {}
    prior_values: dict[tuple[str, str, str], float] = {}

    def check(key: str, value, shown) -> None:
        _, pred, req = _schema_entry(key)
        if not pred(value):
            raise ConfigError(key, f"expected {req}, got {shown!r}")
        values[key] = value

    for key, raw in (file_values or {}).items():
        if key.startswith("refine.size_priors."):
            cls, bound, axis = _parse_prior_key(key)
            try:
                prior_values[(cls, bound, axis)] = float(raw)
            except ValueError:
                raise ConfigError(key, f"invalid float: {raw!r}")
            continue
        caster, _, req = _schema_entry(key)
        try:
            value = caster(raw)
        except ValueError:
            raise ConfigError(key, f"expected {req}, got {raw!r}")
        check(key, value, raw)

    for key, value in (overrides or {}).items():
        if value is not None:
            check(key, value, value)

    def given(section: str) -> dict[str, object]:
        prefix = section + "."
        return {key[len(prefix):]: value for key, value in values.items()
                if key.startswith(prefix)}

    refine_kw = given("refine")
    if prior_values:
        priors = dict(DEFAULT_SIZE_PRIORS)
        for cls_name, cid in _PRIOR_CLASSES.items():
            base = priors[cid]
            mins = list(base.mins)
            maxes = list(base.maxes)
            for i, axis in enumerate(_PRIOR_AXES):
                if (cls_name, "min", axis) in prior_values:
                    mins[i] = prior_values[(cls_name, "min", axis)]
                if (cls_name, "max", axis) in prior_values:
                    maxes[i] = prior_values[(cls_name, "max", axis)]
            try:
                priors[cid] = SizePrior(tuple(mins), tuple(maxes))
            except ValueError as exc:
                raise ConfigError(f"refine.size_priors.{cls_name}", str(exc))
        refine_kw["size_priors"] = priors
    prep_kw = given("prep")
    if "rng_seed" in values:
        prep_kw["rng_seed"] = values["rng_seed"]

    try:
        ground = GroundParams(**given("ground"))
        cluster = ClusterParams(**given("cluster"))
        refine = RefineParams(**refine_kw)
        prep = SamplePrepParams(**prep_kw)
    except ValueError as exc:
        raise ConfigError("<params>", str(exc))

    return PipelineConfig(
        ground=ground,
        cluster=cluster,
        refine=refine,
        prep=prep,
        **{field_name: values[key] for key, field_name in _TOP_LEVEL.items()
           if key in values},
    )


def load_config(path=None, overrides: dict[str, object] | None = None) -> PipelineConfig:
    file_values = read_kv_file(path) if path else None
    return build_config(file_values, overrides)
