"""Samplers for edge vectors on generalized Orlicz balls.

Exact samplers cover the cube (all-Cap), simplex (all-Linear) and
scaled l_q orthant (all-Power) special cases; hit-and-run covers the
general ball, including radial densities h(sum f_e(x_e)) restricted to
the ball.
"""

from dataclasses import dataclass

import numpy as np

from .edges import edge_count
from .orlicz import Cap, GobSpec, Indicator, Linear, Power

_CHORD_GRID = 1025


@dataclass
class SamplerConfig:
    """Method and schedule for drawing edge vectors.

    burn_in/thinning default to 50*d and d when left as None; exact
    methods ignore them.
    """

    method: str = "hit_and_run"
    seed: int = 0
    burn_in: int | None = None
    thinning: int | None = None
    start: str = "origin_nudge"

    _METHODS = ("exact_cube", "exact_simplex", "exact_lq", "hit_and_run")
    _STARTS = ("origin_nudge", "analytic_center")

    def __post_init__(self):
        if self.method not in self._METHODS:
            raise ValueError(f"method must be one of {self._METHODS}, got {self.method!r}")
        if self.start not in self._STARTS:
            raise ValueError(f"start must be one of {self._STARTS}, got {self.start!r}")
        if self.burn_in is not None and self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.thinning is not None and self.thinning < 1:
            raise ValueError("thinning must be >= 1")

    def resolved_schedule(self, dim):
        burn = 50 * dim if self.burn_in is None else self.burn_in
        thin = dim if self.thinning is None else self.thinning
        return burn, thin


def sample_cube(n, stream, count=1, scales=1.0):
    """Uniform draws on the box prod [0, scales_e]."""
    d = edge_count(n)
    return stream.random((count, d)) * scales


def sample_simplex(n, coeffs, stream, count=1):
    """Exact uniform draws on {x >= 0 : sum_e coeffs_e * x_e <= 1}.

    Exponential spacings: with E_1..E_{d+1} iid standard exponential,
    (E_1, .., E_d)/sum is uniform on the unit simplex.
    """
    d = edge_count(n)
    coeffs = np.asarray(coeffs, dtype=float)
    if np.any(coeffs <= 0):
        raise ValueError("simplex coefficients must be positive")
    e = stream.standard_exponential((count, d + 1))
    y = e[:, :d] / e.sum(axis=1, keepdims=True)
    return y / coeffs


def sample_lq_orthant(n, q, scales, stream, count=1):
    """Exact uniform draws on the orthant part of the scaled l_q ball.

    G_k with density prop. to exp(-t^q) on t > 0 comes exactly from
    Gamma(1/q)^(1/q); with W standard exponential,
    x_k = scales_k * G_k / (sum G^q + W)^(1/q) is uniform on
    {x >= 0 : sum (x_k/scales_k)^q <= 1}.
    """
    if not q >= 1:
        raise ValueError(f"q must be >= 1, got {q}")
    d = edge_count(n)
    scales = np.asarray(scales, dtype=float)
    if np.any(scales <= 0):
        raise ValueError("scales must be positive")
    s = stream.standard_gamma(1.0 / q, (count, d))  # s = G^q
    g = s ** (1.0 / q)
    w = stream.standard_exponential((count, 1))
    r = (s.sum(axis=1, keepdims=True) + w) ** (1.0 / q)
    return scales * g / r


def sample_shared_scale(n, stream, count=1):
    """Positively correlated control law: X_e = min(1, Z * U_e), shared Z.

    Not a GOB law; used to confirm that the negative-correlation test
    flags genuine violations.
    """
    d = edge_count(n)
    z = stream.random((count, 1))
    u = stream.random((count, d))
    return np.minimum(1.0, z * u)


def start_point(spec, mode="origin_nudge"):
    """A guaranteed strictly interior point of the ball.

    origin_nudge: x_e = a_e/(2d); convexity and f(0)=0 give
    sum f_e(a_e/(2d)) <= d * (1/(2d)) = 1/2.
    analytic_center: x_e = 0.5 * sup{t : f_e(t) <= 1/(2d)}, which sits
    nearer the middle of boxes and mixed bodies.
    """
    d = spec.dim
    if mode == "origin_nudge":
        return spec.a / (2.0 * d)
    if mode == "analytic_center":
        level = 1.0 / (2.0 * d)
        return 0.5 * np.array([c.inverse_at(level) for c in spec.components])
    raise ValueError(f"unknown start mode {mode!r}")


def _draw_on_chord(spec, x, u, t_lo, t_hi, stream, grid):
    """Inverse-CDF draw from density prop. to h(sum f(x + t*u)) on the chord.

    `grid` is a (_CHORD_GRID, dim) work array that the caller reuses on
    every step: allocating and freeing arrays this size each step makes
    the C allocator hand the pages back and fault them in again.
    """
    ts = np.linspace(t_lo, t_hi, _CHORD_GRID)
    Y = np.multiply.outer(ts, u, out=grid)
    Y += x
    np.clip(Y, 0.0, None, out=Y)
    w = spec.radial_density.weight(spec.total_batch(Y))
    dt = ts[1] - ts[0]
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * dt)])
    if cdf[-1] <= 0.0:
        return stream.uniform(t_lo, t_hi)
    return float(np.interp(stream.random() * cdf[-1], cdf, ts))


def hit_and_run(spec, cfg, stream, count):
    """Hit-and-run chain on the ball; retains every thinning-th state.

    With an Indicator radial density the stationary law is uniform on the
    ball intersected with the orthant; otherwise the chord coordinate is
    drawn from the one-dimensional density prop. to h(sum f_e(.)).
    """
    d = spec.dim
    burn, thin = cfg.resolved_schedule(d)
    uniform_chord = isinstance(spec.radial_density, Indicator)
    x = start_point(spec, cfg.start)
    linear_only = spec._pow_idx is None and not spec._pwl
    if uniform_chord and linear_only:
        return _hit_and_run_linear(spec, x, stream, count, burn, thin)
    out = np.empty((count, d))
    grid = None if uniform_chord else np.empty((_CHORD_GRID, d))
    k = 0
    total_steps = burn + count * thin
    for step in range(total_steps):
        u = stream.standard_normal(d)
        u /= np.linalg.norm(u)
        t_lo, t_hi = spec.chord(x, u)
        if uniform_chord:
            t = stream.uniform(t_lo, t_hi)
        else:
            t = _draw_on_chord(spec, x, u, t_lo, t_hi, stream, grid)
        x = np.clip(x + t * u, 0.0, None)
        if step >= burn and (step - burn) % thin == thin - 1:
            out[k] = x
            k += 1
    return out


def _hit_and_run_linear(spec, x, stream, count, burn, thin):
    """Uniform-law chain with analytic chords (linear/cap components only).

    The constraint sum is affine along any line, so both chord endpoints
    come from closed forms; the running sum g is updated incrementally
    and refreshed periodically against float drift.
    """
    d = spec.dim
    a = spec.a
    w = np.zeros(d)
    if spec._lin_idx is not None:
        w[spec._lin_idx] = spec._lin_inv
    g = spec.total(x)
    out = np.empty((count, d))
    k = 0
    total_steps = burn + count * thin
    block = 4096  # RNG draws come in blocks to cut per-step overhead
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(total_steps):
            j = step % block
            if j == 0:
                m = min(block, total_steps - step)
                normals = stream.standard_normal((m, d))
                uniforms = stream.random(m)
            u = normals[j]
            u = u / np.sqrt(u @ u)
            s = u @ w
            hi = np.nanmin(np.where(u > 0, (a - x) / u, x / -u))
            lo = np.nanmin(np.where(u < 0, (a - x) / -u, x / u))
            if s > 0:
                hi = min(hi, (1.0 - g) / s)
            elif s < 0:
                lo = min(lo, (1.0 - g) / -s)
            t = -lo + uniforms[j] * (hi + lo)
            x = x + t * u
            np.maximum(x, 0.0, out=x)
            g += t * s
            if step % 1024 == 1023:
                g = spec.total(x)
            if step >= burn and (step - burn) % thin == thin - 1:
                out[k] = x
                k += 1
    return out


def _all_of(spec, kind):
    return all(isinstance(c, kind) for c in spec.components)


def _uniform_power_q(spec):
    qs = {c.q for c in spec.components}
    return qs.pop() if len(qs) == 1 else None


def make_sampler(spec, cfg):
    """Bind a spec and config into a callable (stream, count) -> (count, d)."""
    if cfg.method != "hit_and_run" and not isinstance(spec.radial_density, Indicator):
        raise ValueError("exact samplers require the Indicator radial density")
    n = spec.n
    if cfg.method == "exact_cube":
        if not _all_of(spec, Cap):
            raise ValueError("exact_cube requires all-Cap components")
        scales = spec.a.copy()
        return lambda stream, count: sample_cube(n, stream, count, scales)
    if cfg.method == "exact_simplex":
        if not _all_of(spec, Linear):
            raise ValueError("exact_simplex requires all-Linear components")
        coeffs = 1.0 / spec.a
        return lambda stream, count: sample_simplex(n, coeffs, stream, count)
    if cfg.method == "exact_lq":
        if not _all_of(spec, Power):
            raise ValueError("exact_lq requires all-Power components")
        q = _uniform_power_q(spec)
        if q is None:
            raise ValueError("exact_lq requires a single exponent q across edges")
        scales = spec.a.copy()
        return lambda stream, count: sample_lq_orthant(n, q, scales, stream, count)
    return lambda stream, count: hit_and_run(spec, cfg, stream, count)


def exact_twin(spec):
    """Exact sampler config for a spec, or None if no exact method applies."""
    if not isinstance(spec.radial_density, Indicator):
        return None
    if _all_of(spec, Cap):
        return "exact_cube"
    if _all_of(spec, Linear):
        return "exact_simplex"
    if _all_of(spec, Power) and _uniform_power_q(spec) is not None:
        return "exact_lq"
    return None


def ks_critical(alpha, n, m):
    """Asymptotic two-sample Kolmogorov-Smirnov critical distance."""
    c = np.sqrt(-np.log(alpha / 2.0) / 2.0)
    return c * np.sqrt((n + m) / (n * m))


@dataclass
class ValidationReport:
    ok: bool | None
    reason: str
    max_ks: float | None = None
    critical: float | None = None
    per_coord: np.ndarray | None = None


def validate_sampler(spec, cfg, stream_pair, draws=8000, alpha=0.01):
    """KS battery: hit-and-run marginals against the exact twin sampler.

    The family-wise level alpha is split across coordinates (Bonferroni).
    Returns ok=None when the spec has no exact twin to compare against.
    """
    twin = exact_twin(spec)
    if twin is None:
        return ValidationReport(ok=None, reason="no exact twin sampler for this spec")
    # imported here, not at module top: scipy.stats adds about 1 s to the
    # start of every command, and only this battery uses it
    from scipy import stats
    exact = make_sampler(spec, SamplerConfig(method=twin))
    hr = make_sampler(spec, SamplerConfig(
        method="hit_and_run", burn_in=cfg.burn_in, thinning=cfg.thinning,
        start=cfg.start,
    ))
    s_exact, s_hr = stream_pair
    A = exact(s_exact, draws)
    B = hr(s_hr, draws)
    d = spec.dim
    ks = np.array([stats.ks_2samp(A[:, k], B[:, k]).statistic for k in range(d)])
    crit = ks_critical(alpha / d, draws, draws)
    ok = bool(np.max(ks) < crit)
    reason = "max marginal KS below critical" if ok else "marginal KS exceeds critical"
    return ValidationReport(ok=ok, reason=reason, max_ks=float(np.max(ks)),
                            critical=float(crit), per_coord=ks)
