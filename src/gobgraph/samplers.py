"""Samplers for edge vectors on generalized Orlicz balls.

Exact samplers cover the cube (all-Cap), simplex (all-Linear) and
scaled l_q orthant (all-Power) special cases; hit-and-run covers the
general ball, including radial densities h(sum f_e(x_e)) restricted to
the ball.  Each hit-and-run step evaluates G and its slope along the new
direction once, at the current point (`GobSpec.line`), and shares that
evaluation with the interior check and the chord (`GobSpec.chord`: one
pass of `orlicz.box_bracket` for both coordinate-box limits, then the
quadratic formula on quadratic specs or Newton's method) and with the
draw on the chord.  That draw is exact: uniform under the Indicator
density, by rejection from the uniform law otherwise, with the radial
weight evaluated on Python floats; on quadratic specs each proposal reads
G off the line's polynomial, with no pass over the coordinates.

Bulk draws go through `draw_blocks`, which asks a sampler for at most
`_BLOCK_BYTES` of float64 coordinates per call, so the estimators, the
scan pilot and `gobgraph sample` hold one block at a time however many
draws they need.  The block's row count depends on the dimension alone.
The cube and simplex samplers draw row after row from the stream, so
their blocks concatenate to the same values as one call; `exact_lq` draws
all of a call's gammas before its exponentials, so beyond one block its
values differ from one call's (the law is the same).  Hit-and-run starts
a new chain, at the analytic centre (`start_point`) and with its own
burn-in, on every call, so a draw larger than one block runs one chain
per block.
A zero-count draw returns an empty (0, d) array and consumes nothing
from the stream, for every method.

A threshold scan keeps only the coordinates at or below the largest p of
its grid, so with `SamplerConfig.censor_above` set to that level the
exact simplex sampler draws those coordinates alone
(`sample_simplex_censored`) and returns each draw as that set, a pair
(positions, values), with no array of d coordinates.  Each pair has the
law of a dense draw's coordinates at or below the level, so every graph
at a threshold up to the level has its exact law; the stream is used
differently from a dense draw, so the values differ.  The other methods
ignore the level and return full (count, d) arrays.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .edges import edge_count
from .orlicz import Cap, Indicator, Linear, Power, box_bracket

_BLOCK_BYTES = 8 << 20  # float64 coordinates per `draw_blocks` call
# the censored simplex draw splits the exponentials at
# level * max(coeffs) * (m + s sqrt(m) + s), s standard deviations of their sum
_SPLIT_SIGMAS = 10.0
# proposals `_draw_on_chord` makes before it gives up on a chord
MAX_PROPOSALS = 10**6


@dataclass
class SamplerConfig:
    """Method and schedule for drawing edge vectors.

    burn_in/thinning default to 50*d and d when left as None; exact
    methods ignore them.  censor_above, when set, is a level above which
    the caller discards every coordinate (a scan sets it to the largest p
    of its grid); exact_simplex then draws only the coordinates at or
    below it and returns each draw as a (positions, values) pair of them.
    It is set by the scan, not read from a config file.
    """

    method: str = "hit_and_run"
    seed: int = 0
    burn_in: int | None = None
    thinning: int | None = None
    censor_above: float | None = None

    _METHODS = ("exact_cube", "exact_simplex", "exact_lq", "hit_and_run")

    def __post_init__(self):
        if self.method not in self._METHODS:
            raise ValueError(f"method must be one of {self._METHODS}, got {self.method!r}")
        for name in ("burn_in", "thinning"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.burn_in is not None and self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.thinning is not None and self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if self.censor_above is not None and not self.censor_above > 0:
            raise ValueError(f"censor_above must be > 0, got {self.censor_above}")

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
    (E_1, .., E_d)/sum is uniform on the unit simplex.  Both divisions
    run in place, so the result is a view into the (count, d+1) draw and
    no second array of that size is made.
    """
    d = edge_count(n)
    coeffs = np.asarray(coeffs, dtype=float)
    if np.any(coeffs <= 0):
        raise ValueError("simplex coefficients must be positive")
    e = stream.standard_exponential((count, d + 1))
    y = e[:, :d]
    y /= e.sum(axis=1, keepdims=True)
    y /= coeffs
    return y


def sample_simplex_censored(n, coeffs, level, stream, count=1):
    """`sample_simplex` draws cut to their coordinates at or below `level`.

    Returns a list of `count` pairs (positions, values), one per draw: the
    positions in [0, d) of the kept coordinates, in the order they were
    drawn, and their values.  A coordinate above the level is not held
    anywhere, so a draw costs about its number of kept coordinates, not d.

    Only the coordinates at or below the level are drawn (Devroye,
    Non-Uniform Random Variate Generation, 1986, ch. V).  With m = d + 1
    exponentials E_i and x_i = E_i/S/coeffs_i, split at
    c = level * max(coeffs) * (m + s sqrt(m) + s), s = _SPLIT_SIGMAS:
    K ~ Binomial(m, 1 - e^-c) of the E_i lie below c, at a uniform
    K-subset of positions, each Exp(1) truncated to [0, c] (inverse CDF).
    The other m - K are c plus Exp(1) excesses (memorylessness) and enter
    S only through their sum, (m - K) c + Gamma(m - K).  Such an E_i has
    x_i > level unless level * max(coeffs) * S >= c, which needs S some s
    standard deviations above its mean; then their excesses are drawn
    exactly, as Gamma(m - K) times uniform spacings, since redrawing the
    whole vector would bias the law.  A coordinate is kept when its
    quotient x_i is at most the level, as `graph.build_graph` compares.
    `coeffs` is a scalar or one positive value per edge.
    """
    d = edge_count(n)
    coeffs = np.asarray(coeffs, dtype=float)
    if np.any(coeffs <= 0):
        raise ValueError("simplex coefficients must be positive")
    if not level > 0:
        raise ValueError(f"censoring level must be > 0, got {level}")
    m = d + 1
    top = level * float(coeffs.max())  # E_i > top * S gives x_i > level
    c = max(0.0, top * (m + _SPLIT_SIGMAS * (math.sqrt(m) + 1.0)))
    below = -math.expm1(-c)  # P(E_i <= c)
    out = []
    for _ in range(count):
        k = int(stream.binomial(m, below))
        pos = stream.choice(m, k, replace=False, shuffle=False)
        e = -np.log1p(-below * stream.random(k))
        rest = m - k
        excess_sum = stream.standard_gamma(rest)
        s = float(e.sum()) + rest * c + excess_sum
        if rest and top * s >= c:
            spacings = np.diff(np.sort(stream.random(rest - 1)),
                               prepend=0.0, append=1.0)
            above = np.ones(m, dtype=bool)
            above[pos] = False
            pos = np.concatenate([pos, np.flatnonzero(above)])
            e = np.concatenate([e, c + excess_sum * spacings])
        edge = pos < d  # position d is the slack coordinate
        pos = pos[edge]
        x = e[edge] / s / (coeffs[pos] if coeffs.ndim else coeffs)
        keep = x <= level
        out.append((pos[keep], x[keep]))
    return out


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


def draw_blocks(sampler, stream, count, dim):
    """Draw `count` edge vectors from `sampler` in consecutive blocks.

    Yields (rows, dim) arrays whose row counts add up to `count`, with
    rows = max(1, _BLOCK_BYTES // (8 * dim)) for every block but the last.
    """
    rows = max(1, _BLOCK_BYTES // (8 * dim))
    for start in range(0, count, rows):
        yield np.asarray(sampler(stream, min(rows, count - start)), dtype=float)


def start_point(spec):
    """The analytic centre, where every hit-and-run chain starts:
    x_e = 0.5 * sup{t : f_e(t) <= 1/(2d)}.  Each f_e is convex with
    f_e(0) = 0, so f_e(x_e) <= 1/(4d) and G(x) <= 1/4: the point is
    strictly interior.  It sits near the middle of boxes and mixed
    bodies, so chains started there need little burn-in.
    """
    d = spec.dim
    level = 1.0 / (2.0 * d)
    extents = np.array([c.inverse_at(level) for c in spec.components])
    return 0.5 * np.broadcast_to(extents, (d,))


def _draw_on_chord(spec, x, u, t_lo, t_hi, stream, line=None):
    """Exact draw of t from the density prop. to h(G(x + t*u)) on the chord.

    Rejection from the uniform law on [t_lo, t_hi] (Devroye, Non-Uniform
    Random Variate Generation, 1986, ch. VII).  G is convex along the
    line, so it lies above its tangent at t = 0 and above 0; with
    l = max(0, min of that tangent over the chord), every nonincreasing h
    has h(G(x + t*u)) <= h(l), and a proposal t is accepted with
    probability h(G(x + t*u)) / h(l).  x is strictly interior, so
    G(x) < 1 and h(l) > 0 for both ExponentialDecay and PowerDecay.
    `line` is `spec.line(x, u)`, computed here when absent; with its
    curvature (quadratic specs) G(x + t*u) is the polynomial
    g0 + t*(slope + t*A), otherwise one `spec.total` per proposal.
    A density that is 0 on nearly all of the chord would loop for ever,
    so after MAX_PROPOSALS rejections this raises a RuntimeError.
    """
    h = spec.radial_density.weight
    g0, slope, curv = spec.line(x, u) if line is None else line
    h_max = h(max(0.0, g0 + min(slope * t_lo, slope * t_hi)))
    for _ in range(MAX_PROPOSALS):
        t = stream.uniform(t_lo, t_hi)
        if curv is None:
            g = spec.total(np.maximum(x + t * u, 0.0))
        else:
            g = g0 + t * (slope + t * curv)
        if stream.random() * h_max < h(g):
            return t
    raise RuntimeError(f"{spec.radial_density!r} accepted none of {MAX_PROPOSALS} "
                       "proposals on a hit-and-run chord")


def hit_and_run(spec, cfg, stream, count):
    """Hit-and-run chain on the ball; retains every thinning-th state.

    With an Indicator radial density the stationary law is uniform on the
    ball intersected with the orthant; otherwise the chord coordinate is
    drawn exactly from the one-dimensional density prop. to
    h(sum f_e(.)) by `_draw_on_chord`.
    """
    d = spec.dim
    if count == 0:
        return np.empty((0, d))
    burn, thin = cfg.resolved_schedule(d)
    uniform_chord = isinstance(spec.radial_density, Indicator)
    x = start_point(spec)
    linear_only = spec._pow_idx is None and not spec._pwl
    if uniform_chord and linear_only:
        return _hit_and_run_linear(spec, x, stream, count, burn, thin)
    out = np.empty((count, d))
    k = 0
    total_steps = burn + count * thin
    for step in range(total_steps):
        u = stream.standard_normal(d)
        u /= math.sqrt(u @ u)  # the bits of np.linalg.norm(u), without its overhead
        line = spec.line(x, u)  # the step's one evaluation of G at x
        t_lo, t_hi = spec.chord(x, u, line=line)
        if uniform_chord:
            t = stream.uniform(t_lo, t_hi)
        else:
            t = _draw_on_chord(spec, x, u, t_lo, t_hi, stream, line)
        x = np.maximum(x + t * u, 0.0)
        if step >= burn and (step - burn) % thin == thin - 1:
            out[k] = x
            k += 1
    return out


def _hit_and_run_linear(spec, x, stream, count, burn, thin):
    """Uniform-law chain with analytic chords (linear/cap components only).

    The constraint sum is affine along any line, so both chord endpoints
    come from closed forms: the box limits of `box_bracket`, cut by the
    level set of the sum.  The running sum g = x @ w, w the per-edge
    weights 1/a of the linear coordinates (0 on caps), is updated
    incrementally and refreshed periodically against float drift.
    """
    d = spec.dim
    a = spec.a
    w = np.zeros(d)
    if spec._lin_idx is not None:
        w[spec._lin_idx] = spec._lin_inv
    g = float(x @ w)
    out = np.empty((count, d))
    k = 0
    total_steps = burn + count * thin
    block = 4096  # RNG draws come in blocks to cut per-step overhead
    for step in range(total_steps):
        j = step % block
        if j == 0:
            m = min(block, total_steps - step)
            normals = stream.standard_normal((m, d))
            uniforms = stream.random(m)
        u = normals[j]
        u = u / np.sqrt(u @ u)
        s = u @ w
        lo, hi = box_bracket(x, u, a)
        if s > 0:
            hi = min(hi, (1.0 - g) / s)
        elif s < 0:
            lo = min(lo, (1.0 - g) / -s)
        t = -lo + uniforms[j] * (hi + lo)
        x = x + t * u
        np.maximum(x, 0.0, out=x)
        g += t * s
        if step % 1024 == 1023:
            g = float(x @ w)
        if step >= burn and (step - burn) % thin == thin - 1:
            out[k] = x
            k += 1
    return out


def _all_of(spec, kind):
    return all(isinstance(c, kind) for c in spec.components)


def _uniform_power_q(spec):
    qs = {c.q for c in spec.components}
    return qs.pop() if len(qs) == 1 else None


def check_method(spec, method):
    """Raise ValueError unless `method` can sample `spec`: hit-and-run
    samples every spec, an exact method only the specs it is the
    `exact_twin` of."""
    if method == "hit_and_run":
        return
    twin = exact_twin(spec)
    if method != twin:
        raise ValueError(f"method {method} does not sample this spec; "
                         + (f"its exact method is {twin}" if twin else
                            "it has no exact method, use hit_and_run"))


def make_sampler(spec, cfg):
    """Bind a spec and config into a callable (stream, count) -> (count, d)
    array, or -> `count` (positions, values) pairs for a censored
    exact_simplex config (`sample_simplex_censored`)."""
    check_method(spec, cfg.method)
    n = spec.n
    if cfg.method == "exact_cube":
        return lambda stream, count: sample_cube(n, stream, count, spec.a)
    if cfg.method == "exact_simplex":
        coeffs = 1.0 / spec.a
        level = cfg.censor_above
        if level is None:
            return lambda stream, count: sample_simplex(n, coeffs, stream, count)
        return lambda stream, count: sample_simplex_censored(
            n, coeffs, level, stream, count)
    if cfg.method == "exact_lq":
        q = _uniform_power_q(spec)
        return lambda stream, count: sample_lq_orthant(n, q, spec.a, stream, count)
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
        method="hit_and_run", burn_in=cfg.burn_in, thinning=cfg.thinning))
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
