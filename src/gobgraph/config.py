"""Configuration file schema: parsing, validation and the canonical form.

Config files are YAML with top-level sections `model`, `sampler` and
`scan` (plus optional `nc_test` and `moments`).  Every value is read
once, by `_read`, which checks its YAML type: integers are YAML integers,
flags are `true`/`false` and lists are lists.  Unknown keys anywhere are
hard errors, and invariant violations (q < 1, bad scales, ...) are
reported before any computation starts.  The canonical form that
`config_hash` digests is put together from the values as they are read.
"""

import hashlib
import json
import sys
from dataclasses import dataclass

import yaml

from .edges import edge_count
from .errors import ConfigError
from .experiments import ScanConfig
from .orlicz import (Cap, ExponentialDecay, GobSpec, Indicator, Linear,
                     PiecewiseLinearConvex, PowerDecay, Power)
from .samplers import SamplerConfig, check_method


MAX_VERTICES = 10_000  # a dense edge vector at this n is 400 MB


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    # an integer beyond the float range is not a number the model can use
    return isinstance(value, float) or (_is_int(value)
                                        and abs(value) <= sys.float_info.max)


# the values `_read` accepts for each kind, keyed by the name its errors use
_KINDS = {
    "an integer": _is_int,
    "an integer or null": lambda v: v is None or _is_int(v),
    "a number": _is_number,
    "true or false": lambda v: isinstance(v, bool),
    "a list": lambda v: isinstance(v, list),
    "a list of integers": lambda v: isinstance(v, list) and all(map(_is_int, v)),
    "a list of numbers": lambda v: isinstance(v, list) and all(map(_is_number, v)),
    "a list of [t, value] pairs": lambda v: isinstance(v, list) and all(
        isinstance(p, list) and len(p) == 2 and all(map(_is_number, p)) for p in v),
}
_REQUIRED = object()  # the `_read` default of a key that must be given


def _read(section, data, key, kind, default=_REQUIRED):
    """The value of `key` in the mapping `data`, or `default` if the key
    is absent.  `kind` names an entry of _KINDS, or is a collection of the
    strings the value may be; any other value is a ConfigError naming
    `section.key`."""
    if key not in data:
        if default is _REQUIRED:
            raise ConfigError(f"{section}.{key} is required")
        return default
    value = data[key]
    if isinstance(kind, str):
        ok = _KINDS[kind](value)
    else:
        ok = isinstance(value, str) and value in kind
        kind = f"one of {sorted(kind)}"
    if not ok:
        raise ConfigError(f"{section}.{key} must be {kind}, got {value!r}")
    return value


def _mapping(section, data):
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be a mapping")
    return data


def _check_keys(section, mapping, allowed):
    unknown = set(_mapping(section, mapping)) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown, key=str)} in section {section!r}; "
            f"allowed: {sorted(allowed)}"
        )


_TOP_KEYS = {"model", "sampler", "scan", "nc_test", "moments"}
_MODEL_KEYS = {
    "cube": {"family", "n", "scale", "scales"},
    "simplex": {"family", "n", "coeff", "coeffs"},
    "lq": {"family", "n", "q", "scale", "scales"},
    "gob": {"family", "n", "component", "components", "radial_density"},
}
# the key of each family's per-edge list (named by the length check)
_PER_EDGE_KEYS = {"cube": "scales", "simplex": "coeffs", "lq": "scales",
                  "gob": "components"}
# component and radial-density kinds: the class each builds, and its
# parameters as {key: (kind, default)}
_COMPONENTS = {
    "power": (Power, {"a": ("a number", 1.0), "q": ("a number", 1.0)}),
    "linear": (Linear, {"a": ("a number", 1.0)}),
    "cap": (Cap, {"a": ("a number", 1.0)}),
    "pwl": (PiecewiseLinearConvex,
            {"breakpoints": ("a list of [t, value] pairs", [])}),
}
_RADIALS = {
    "indicator": (Indicator, {}),
    "exponential": (ExponentialDecay, {"rate": ("a number", 1.0)}),
    "power_decay": (PowerDecay, {"exponent": ("a number", 1.0)}),
}
_SAMPLER_KEYS = {"method", "seed", "burn_in", "thinning", "start"}
_SCAN_KEYS = {"mode", "n_list", "replicates", "beta", "grid", "pilot_draws"}
_GRID_KEYS = {"kind", "gammas", "values", "sigma_normalized"}
_NC_KINDS = {"reps": "an integer", "configurations": "an integer",
             "set_size_max": "an integer", "quantile_range": "a list of numbers"}
_MOMENT_KINDS = {"reps": "an integer"}


@dataclass
class ModelConfig:
    """A model resolved to the parts of its GobSpec: `components` is the
    component every edge shares, or the per-edge list."""
    family: str
    n: int | None
    components: object
    radial_density: object = None


@dataclass
class FullConfig:
    model: ModelConfig
    sampler: SamplerConfig
    scan: ScanConfig | None
    nc_test: dict    # the nc_test values given; `nc-test` defaults the rest
    moments: dict
    n_list: list     # the vertex counts: scan.n_list, else [model.n]
    canonical: dict  # the form config_hash digests


def _parse_kind(section, data, kinds):
    """Build the component or radial density that a mapping
    `{kind: ..., <its parameters>}` names; returns it and its canonical
    form, the values given."""
    kind = _read(section, _mapping(section, data), "kind", kinds)
    cls, params = kinds[kind]
    _check_keys(section, data, {"kind", *params})
    canon = {"kind": kind}
    for key, (value_kind, _) in params.items():
        if key in data:
            canon[key] = _read(section, data, key, value_kind)
    try:
        return cls(**{key: canon.get(key, default)
                      for key, (_, default) in params.items()}), canon
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _parse_model(data):
    """The model section: its ModelConfig and canonical form.  Each family
    resolves here to its shared component or per-edge list and its radial
    density, so `build_spec` has one path."""
    family = _read("model", _mapping("model", data), "family", _MODEL_KEYS)
    _check_keys("model", data, _MODEL_KEYS[family])
    n = _read("model", data, "n", "an integer or null", None)
    _check_vertex_count("model.n", n)
    canon = {"family": family} if n is None else {"family": family, "n": n}
    if family == "gob":
        if ("component" in data) == ("components" in data):
            raise ConfigError("gob model needs exactly one of component/components")
        if "component" in data:
            components, canon["component"] = _parse_kind(
                "model.component", data["component"], _COMPONENTS)
        else:
            parsed = [_parse_kind(f"model.components[{i}]", c, _COMPONENTS)
                      for i, c in enumerate(_read("model", data, "components", "a list"))]
            components = [comp for comp, _ in parsed]
            canon["components"] = [c for _, c in parsed]
        radial = None
        if data.get("radial_density") is not None:
            radial, canon["radial_density"] = _parse_kind(
                "model.radial_density", data["radial_density"], _RADIALS)
        return ModelConfig(family, n, components, radial), canon

    if family == "cube":
        key, make = "scale", Cap
    elif family == "simplex":
        # coefficients c in {sum c_e x_e <= 1}; extent is 1/c
        key, make = "coeff", lambda c: Linear(1.0 / c)
    else:
        q = canon["q"] = float(_read("model", data, "q", "a number"))
        if not q >= 1:
            raise ConfigError(f"model: exponent q>=1 required, got q={q}")
        key, make = "scale", lambda a: Power(a, q)
    canon[key] = float(_read("model", data, key, "a number", 1.0))
    components = _positive_component(f"model.{key}", make, canon[key])
    list_key = _PER_EDGE_KEYS[family]
    if list_key in data:
        canon[list_key] = [float(v) for v in _read("model", data, list_key,
                                                   "a list of numbers")]
        components = [_positive_component(f"model.{list_key}", make, v)
                      for v in canon[list_key]]
    return ModelConfig(family, n, components), canon


def _positive_component(section, make, value):
    if not value > 0:
        raise ConfigError(f"{section} must be positive, got {value}")
    try:
        return make(value)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def build_spec(model, n=None):
    """Materialize the GobSpec for a model at vertex count n."""
    n = n if n is not None else model.n
    if n is None:
        raise ConfigError("vertex count n is not set (model.n or scan.n_list)")
    if n < 2:
        raise ConfigError(f"need n >= 2, got {n}")
    d = edge_count(n)
    if isinstance(model.components, list) and len(model.components) != d:
        raise ConfigError(f"model.{_PER_EDGE_KEYS[model.family]}: expected {d} "
                          f"entries for n={n}, got {len(model.components)}")
    try:
        return GobSpec(n, model.components, radial_density=model.radial_density)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


_DEFAULT_METHODS = {
    "cube": "exact_cube",
    "simplex": "exact_simplex",
    "lq": "exact_lq",
    "gob": "hit_and_run",
}


def _parse_sampler(data, family):
    """The sampler section: its SamplerConfig and canonical form, whose
    keys are the config's arguments."""
    data = data or {}
    _check_keys("sampler", data, _SAMPLER_KEYS)
    # SamplerConfig checks method, burn_in, thinning and start
    canon = {
        "method": data.get("method", _DEFAULT_METHODS[family]),
        "seed": _read("sampler", data, "seed", "an integer", 0),
        "burn_in": data.get("burn_in"),
        "thinning": data.get("thinning"),
        "start": data.get("start", SamplerConfig.start),
    }
    try:
        return SamplerConfig(**canon), canon
    except ValueError as exc:
        raise ConfigError(f"sampler: {exc}") from exc


def _check_vertex_count(key, n):
    if n is not None and n > MAX_VERTICES:
        raise ConfigError(f"{key} must be at most {MAX_VERTICES}, got {n}")


def _vertex_counts(n_list, n):
    """scan.n_list when given, else [model.n]."""
    if n_list is None:
        if n is None:
            raise ConfigError("no vertex count: set model.n or scan.n_list")
        return [n]
    if not n_list:
        raise ConfigError("scan.n_list must be nonempty")
    for entry in n_list:
        _check_vertex_count("scan.n_list entries", entry)
    return n_list


def _parse_scan(data, mode, n):
    """The scan section (None, None when it is absent): its ScanConfig and
    canonical form.  `mode` applies when scan.mode is left out, and `n`
    (model.n) when scan.n_list is."""
    if data is None:
        return None, None
    _check_keys("scan", data, _SCAN_KEYS)
    mode = data.get("mode", mode)  # ScanConfig checks it
    grid = data.get("grid")
    if grid is None:
        raise ConfigError("scan.grid is required")
    _check_keys("scan.grid", grid, _GRID_KEYS)
    kind = _read("scan.grid", grid, "kind", ("gamma", "explicit"), "gamma")
    key, other = ("gammas", "values") if kind == "gamma" else ("values", "gammas")
    # the canonical form records the other list empty, so that one may stay
    if grid.get(other, []) != []:
        raise ConfigError(f"scan.grid.{other} must be empty or absent when "
                          f"scan.grid.kind is {kind}, got {grid[other]!r}")
    # ScanConfig checks that the entries are numbers
    entries = _read("scan.grid", grid, key, "a list", [])
    sigma_normalized = _read("scan.grid", grid, "sigma_normalized", "true or false",
                             mode == "connectivity")
    if mode == "connectivity" and not sigma_normalized:
        raise ConfigError("scan.grid.sigma_normalized applies to giant grids only: "
                          "a connectivity grid is p = gamma * sigma_hat * log(n) / n")
    canon = {
        "mode": mode,
        "n_list": _vertex_counts(
            _read("scan", data, "n_list", "a list of integers", None), n),
        "replicates": _read("scan", data, "replicates", "an integer", 500),
        "beta": float(_read("scan", data, "beta", "a number", 2.0)),
        "grid": {"kind": kind,
                 "gammas": entries if kind == "gamma" else [],
                 "values": [] if kind == "gamma" else entries,
                 "sigma_normalized": sigma_normalized},
        "pilot_draws": _read("scan", data, "pilot_draws", "an integer", 500),
    }
    try:
        return ScanConfig(
            mode=mode, replicates=canon["replicates"], beta=canon["beta"],
            gammas=tuple(canon["grid"]["gammas"]),
            values=tuple(canon["grid"]["values"]),
            sigma_normalized=sigma_normalized, pilot_draws=canon["pilot_draws"],
        ), canon
    except ValueError as exc:
        raise ConfigError(f"scan: {exc}") from exc


def _parse_values(section, data, kinds):
    """An optional section of plain values: the values given, each of the
    kind `kinds` names for its key."""
    data = data or {}
    _check_keys(section, data, kinds)
    return {key: _read(section, data, key, kinds[key]) for key in data}


def parse_config(text, scan_mode="connectivity"):
    """Parse and validate a YAML configuration document.  `scan_mode` is
    the scan mode when scan.mode is left out."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}") from exc
    _check_keys("<top level>", raw, _TOP_KEYS)
    if "model" not in raw:
        raise ConfigError("section 'model' is required")
    model, canon_model = _parse_model(raw["model"])
    sampler, canon_sampler = _parse_sampler(raw.get("sampler"), model.family)
    scan, canon_scan = _parse_scan(raw.get("scan"), scan_mode, model.n)
    nc = _parse_values("nc_test", raw.get("nc_test"), _NC_KINDS)
    if nc.get("configurations", 1) < 1:
        raise ConfigError(
            f"nc_test.configurations must be >= 1, got {nc['configurations']}")
    if "quantile_range" in nc:
        q_range = nc["quantile_range"]
        if not (len(q_range) == 2 and 0.0 <= q_range[0] < q_range[1] <= 1.0):
            raise ConfigError("nc_test.quantile_range must be [lo, hi] with "
                              "0 <= lo < hi <= 1")
    moments = _parse_values("moments", raw.get("moments"), _MOMENT_KINDS)
    n_list = canon_scan["n_list"] if scan else _vertex_counts(None, model.n)

    # build the spec at every n now, so that invariant errors and a method
    # that cannot sample the family surface before any computation
    for n in n_list:
        spec = build_spec(model, n)
        try:
            check_method(spec, sampler.method)
        except ValueError as exc:
            raise ConfigError(f"sampler: {exc}") from exc

    canonical = {"model": canon_model, "sampler": canon_sampler}
    for key, section in (("scan", canon_scan), ("nc_test", nc), ("moments", moments)):
        if section:
            canonical[key] = section
    return FullConfig(model, sampler, scan, nc, moments, n_list, canonical)


def config_hash(cfg, master_seed):
    """Stable digest of the canonical config plus the resolved seed."""
    blob = json.dumps({"config": cfg.canonical, "master_seed": int(master_seed)},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
