"""Configuration file schema: parsing, validation and normalization.

Config files are YAML with top-level sections `model`, `sampler` and
`scan` (plus optional `nc_test` and `moments`).  Unknown keys anywhere
are hard errors, and invariant violations (q < 1, bad scales, ...) are
reported before any computation starts.
"""

import hashlib
import json
from dataclasses import dataclass, field

import yaml

from .errors import ConfigError
from .experiments import ScanConfig
from .orlicz import (Cap, ExponentialDecay, GobSpec, Indicator, Linear,
                     PiecewiseLinearConvex, PowerDecay, Power)
from .samplers import SamplerConfig, check_method


_TOP_KEYS = {"model", "sampler", "scan", "nc_test", "moments"}
_MODEL_KEYS = {
    "cube": {"family", "n", "scale", "scales"},
    "simplex": {"family", "n", "coeff", "coeffs"},
    "lq": {"family", "n", "q", "scale", "scales"},
    "gob": {"family", "n", "component", "components", "radial_density"},
}
_COMPONENT_KEYS = {
    "power": {"kind", "a", "q"},
    "linear": {"kind", "a"},
    "cap": {"kind", "a"},
    "pwl": {"kind", "breakpoints"},
}
_RADIAL_KEYS = {
    "indicator": {"kind"},
    "exponential": {"kind", "rate"},
    "power_decay": {"kind", "exponent"},
}
_SAMPLER_KEYS = {"method", "seed", "burn_in", "thinning", "start"}
_SCAN_KEYS = {"mode", "n_list", "replicates", "beta", "grid", "pilot_draws"}
_GRID_KEYS = {"kind", "gammas", "values", "sigma_normalized"}
_NC_KEYS = {"reps", "configurations", "set_size_max", "quantile_range"}
_MOMENT_KEYS = {"reps"}


def _check_keys(section, mapping, allowed):
    if not isinstance(mapping, dict):
        raise ConfigError(f"section {section!r} must be a mapping")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in section {section!r}; "
            f"allowed: {sorted(allowed)}"
        )


@dataclass
class ModelConfig:
    family: str
    n: int | None = None
    scale: float = 1.0
    scales: list | None = None
    coeff: float = 1.0
    coeffs: list | None = None
    q: float | None = None
    component: dict | None = None
    components: list | None = None
    radial_density: dict | None = None


@dataclass
class FullConfig:
    model: ModelConfig
    sampler: SamplerConfig
    scan: ScanConfig | None = None
    nc_test: dict = field(default_factory=dict)
    moments: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


def _parse_component(section, data):
    _check_keys(section, data, {"kind"} | set().union(*_COMPONENT_KEYS.values()))
    kind = data.get("kind")
    if kind not in _COMPONENT_KEYS:
        raise ConfigError(
            f"{section}: component kind must be one of {sorted(_COMPONENT_KEYS)}, "
            f"got {kind!r}"
        )
    _check_keys(section, data, _COMPONENT_KEYS[kind])
    try:
        if kind == "power":
            return Power(a=data.get("a", 1.0), q=data.get("q", 1.0))
        if kind == "linear":
            return Linear(a=data.get("a", 1.0))
        if kind == "cap":
            return Cap(a=data.get("a", 1.0))
        return PiecewiseLinearConvex(data.get("breakpoints", []))
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _parse_radial(section, data):
    if data is None:
        return Indicator()
    kind = data.get("kind")
    if kind not in _RADIAL_KEYS:
        raise ConfigError(
            f"{section}: radial density kind must be one of {sorted(_RADIAL_KEYS)}, "
            f"got {kind!r}"
        )
    _check_keys(section, data, _RADIAL_KEYS[kind])
    try:
        if kind == "indicator":
            return Indicator()
        if kind == "exponential":
            return ExponentialDecay(rate=data.get("rate", 1.0))
        return PowerDecay(exponent=data.get("exponent", 1.0))
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _parse_model(data):
    if not isinstance(data, dict):
        raise ConfigError("section 'model' must be a mapping")
    family = data.get("family")
    if family not in _MODEL_KEYS:
        raise ConfigError(
            f"model.family must be one of {sorted(_MODEL_KEYS)}, got {family!r}"
        )
    _check_keys("model", data, _MODEL_KEYS[family])
    m = ModelConfig(family=family, n=data.get("n"))
    if family in ("cube", "lq"):
        m.scale = float(data.get("scale", 1.0))
        m.scales = data.get("scales")
        if m.scale <= 0:
            raise ConfigError("model.scale must be positive")
    if family == "simplex":
        m.coeff = float(data.get("coeff", 1.0))
        m.coeffs = data.get("coeffs")
        if m.coeff <= 0:
            raise ConfigError("model.coeff must be positive")
    if family == "lq":
        if "q" not in data:
            raise ConfigError("model.q is required for family lq")
        m.q = float(data["q"])
        if m.q < 1:
            raise ConfigError(f"model: exponent q>=1 required, got q={m.q}")
    if family == "gob":
        if ("component" in data) == ("components" in data):
            raise ConfigError("gob model needs exactly one of component/components")
        m.component = data.get("component")
        m.components = data.get("components")
        m.radial_density = data.get("radial_density")
        # validate eagerly so schema errors surface before any computation
        if m.component is not None:
            _parse_component("model.component", m.component)
        else:
            for i, c in enumerate(m.components):
                _parse_component(f"model.components[{i}]", c)
        _parse_radial("model.radial_density", m.radial_density)
    return m


def build_spec(model, n=None):
    """Materialize the GobSpec for a model at vertex count n."""
    n = n if n is not None else model.n
    if n is None:
        raise ConfigError("vertex count n is not set (model.n or scan.n_list)")
    if n < 2:
        raise ConfigError(f"need n >= 2, got {n}")
    d = n * (n - 1) // 2

    def per_edge(values, section):
        if len(values) != d:
            raise ConfigError(
                f"model.{section}: expected {d} entries for n={n}, got {len(values)}"
            )
        return [float(v) for v in values]

    try:
        if model.family == "cube":
            if model.scales is not None:
                comps = [Cap(a) for a in per_edge(model.scales, "scales")]
                return GobSpec(n, comps)
            return GobSpec(n, Cap(model.scale))
        if model.family == "simplex":
            # coefficients c in {sum c_e x_e <= 1}; extent is 1/c
            if model.coeffs is not None:
                comps = [Linear(1.0 / c) for c in per_edge(model.coeffs, "coeffs")]
                return GobSpec(n, comps)
            return GobSpec(n, Linear(1.0 / model.coeff))
        if model.family == "lq":
            if model.scales is not None:
                comps = [Power(a, model.q) for a in per_edge(model.scales, "scales")]
                return GobSpec(n, comps)
            return GobSpec(n, Power(model.scale, model.q))
        # gob
        radial = _parse_radial("model.radial_density", model.radial_density)
        if model.component is not None:
            comp = _parse_component("model.component", model.component)
            return GobSpec(n, comp, radial_density=radial)
        if len(model.components) != d:
            raise ConfigError(f"model.components: expected {d} entries for n={n}, "
                              f"got {len(model.components)}")
        comps = [_parse_component(f"model.components[{i}]", c)
                 for i, c in enumerate(model.components)]
        return GobSpec(n, comps, radial_density=radial)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


_DEFAULT_METHODS = {
    "cube": "exact_cube",
    "simplex": "exact_simplex",
    "lq": "exact_lq",
    "gob": "hit_and_run",
}


def _parse_sampler(data, family):
    data = data or {}
    _check_keys("sampler", data, _SAMPLER_KEYS)
    method = data.get("method", _DEFAULT_METHODS[family])
    # keys left out take SamplerConfig's defaults
    schedule = {k: data[k] for k in ("burn_in", "thinning", "start") if k in data}
    try:
        return SamplerConfig(method=method, seed=int(data.get("seed", 0)), **schedule)
    except ValueError as exc:
        raise ConfigError(f"sampler: {exc}") from exc


def _parse_scan(data, mode="connectivity"):
    if data is None:
        return None
    _check_keys("scan", data, _SCAN_KEYS)
    mode = data.get("mode", mode)
    if mode not in ("connectivity", "giant"):
        raise ConfigError(f"scan.mode must be connectivity or giant, got {mode!r}")
    grid = data.get("grid")
    if grid is None:
        raise ConfigError("scan.grid is required")
    _check_keys("scan.grid", grid, _GRID_KEYS)
    kind = grid.get("kind", "gamma")
    if kind not in ("gamma", "explicit"):
        raise ConfigError(f"scan.grid.kind must be gamma or explicit, got {kind!r}")
    gammas = tuple(grid.get("gammas", ())) if kind == "gamma" else ()
    values = tuple(grid.get("values", ())) if kind == "explicit" else ()
    try:
        return ScanConfig(
            mode=mode,
            replicates=int(data.get("replicates", 500)),
            beta=float(data.get("beta", 2.0)),
            gammas=gammas,
            values=values,
            sigma_normalized=bool(grid.get("sigma_normalized",
                                           mode == "connectivity")),
            pilot_draws=int(data.get("pilot_draws", 500)),
        )
    except ValueError as exc:
        raise ConfigError(f"scan: {exc}") from exc


def parse_config(text, scan_mode="connectivity"):
    """Parse and validate a YAML configuration document.

    Every value in it is user input, so a ValueError raised while parsing
    (say, int() of a non-number) is reported as a ConfigError.
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}") from exc
    try:
        return _parse(raw, scan_mode)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse(raw, scan_mode):
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a mapping")
    _check_keys("<top level>", raw, _TOP_KEYS)
    if "model" not in raw:
        raise ConfigError("section 'model' is required")
    model = _parse_model(raw["model"])
    sampler = _parse_sampler(raw.get("sampler"), model.family)
    scan = _parse_scan(raw.get("scan"), mode=scan_mode)

    nc = raw.get("nc_test") or {}
    _check_keys("nc_test", nc, _NC_KEYS)
    mom = raw.get("moments") or {}
    _check_keys("moments", mom, _MOMENT_KEYS)
    # the commands convert these later; a bad value fails here instead
    for mapping in (nc, mom):
        for key in ("reps", "configurations", "set_size_max"):
            if key in mapping:
                int(mapping[key])
    if "quantile_range" in nc:
        q_lo, q_hi = (float(q) for q in nc["quantile_range"])
        if not 0.0 <= q_lo < q_hi <= 1.0:
            raise ConfigError("nc_test.quantile_range must be [lo, hi] with "
                              "0 <= lo < hi <= 1")

    # exercise spec construction and the sampler's family check now, so
    # invariant errors surface early
    n_list = _n_list(raw, model, scan)
    for n in n_list:
        check_method(build_spec(model, n), sampler.method)
    return FullConfig(model=model, sampler=sampler, scan=scan,
                      nc_test=dict(nc), moments=dict(mom), raw=raw)


def _n_list(raw, model, scan):
    scan_raw = raw.get("scan") or {}
    if "n_list" in scan_raw:
        ns = [int(n) for n in scan_raw["n_list"]]
        if not ns:
            raise ConfigError("scan.n_list must be nonempty")
        return ns
    if model.n is not None:
        return [int(model.n)]
    raise ConfigError("no vertex count: set model.n or scan.n_list")


def n_list(cfg):
    """Vertex counts a config addresses (scan.n_list, else model.n)."""
    return _n_list(cfg.raw, cfg.model, cfg.scan)


def normalized(cfg):
    """Canonical dict form of a parsed config (stable key order, defaults
    resolved).  Equal configurations normalize identically."""
    model = {"family": cfg.model.family}
    if cfg.model.n is not None:
        model["n"] = cfg.model.n
    if cfg.model.family in ("cube", "lq"):
        model["scale"] = cfg.model.scale
        if cfg.model.scales is not None:
            model["scales"] = [float(v) for v in cfg.model.scales]
    if cfg.model.family == "simplex":
        model["coeff"] = cfg.model.coeff
        if cfg.model.coeffs is not None:
            model["coeffs"] = [float(v) for v in cfg.model.coeffs]
    if cfg.model.family == "lq":
        model["q"] = cfg.model.q
    if cfg.model.family == "gob":
        if cfg.model.component is not None:
            model["component"] = cfg.model.component
        else:
            model["components"] = cfg.model.components
        if cfg.model.radial_density is not None:
            model["radial_density"] = cfg.model.radial_density
    out = {
        "model": model,
        "sampler": {
            "method": cfg.sampler.method,
            "seed": cfg.sampler.seed,
            "burn_in": cfg.sampler.burn_in,
            "thinning": cfg.sampler.thinning,
            "start": cfg.sampler.start,
        },
    }
    if cfg.scan is not None:
        out["scan"] = {
            "mode": cfg.scan.mode,
            "n_list": n_list(cfg),
            "replicates": cfg.scan.replicates,
            "beta": cfg.scan.beta,
            "grid": {
                "kind": "gamma" if cfg.scan.gammas else "explicit",
                "gammas": list(cfg.scan.gammas),
                "values": list(cfg.scan.values),
                "sigma_normalized": cfg.scan.sigma_normalized,
            },
            "pilot_draws": cfg.scan.pilot_draws,
        }
    if cfg.nc_test:
        out["nc_test"] = cfg.nc_test
    if cfg.moments:
        out["moments"] = cfg.moments
    return out


def config_hash(cfg, master_seed):
    """Stable digest of the normalized config plus the resolved seed."""
    blob = json.dumps({"config": normalized(cfg), "master_seed": int(master_seed)},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
