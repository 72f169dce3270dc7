import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from gobgraph import (Cap, ExponentialDecay, GobSpec, Indicator, Linear,
                      PiecewiseLinearConvex, PowerDecay, Power, SamplerConfig,
                      exact_twin, hit_and_run, ks_critical, make_sampler,
                      sample_shared_scale, start_point, substream,
                      validate_sampler)
from gobgraph import samplers
from gobgraph.orlicz import MEMBERSHIP_TOL
from gobgraph.samplers import _BLOCK_BYTES, _draw_on_chord, draw_blocks
from strategies import components


def _stream(key=0):
    return substream(42, key)


def _exact(spec, method, censor_above=None):
    return make_sampler(spec, SamplerConfig(method=method, censor_above=censor_above))


# ---------------------------------------------------------------------------
# exact samplers

def test_cube_support_and_moments():
    X = _exact(GobSpec(3, Cap(1.0)), "exact_cube")(_stream(1), 100_000)
    assert X.shape == (100_000, 3)
    assert X.min() >= 0 and X.max() <= 1
    assert X.mean() == pytest.approx(0.5, abs=0.005)
    assert np.mean(X * X) == pytest.approx(1.0 / 3.0, abs=0.005)


def test_cube_scales():
    spec = GobSpec(3, [Cap(1.0), Cap(2.0), Cap(0.5)])
    X = _exact(spec, "exact_cube")(_stream(2), 20_000)
    assert np.all(X.max(axis=0) <= [1.0, 2.0, 0.5])
    assert X[:, 1].mean() == pytest.approx(1.0, abs=0.02)


def test_simplex_support_and_oracle_values():
    # d = 3 uniform simplex: E X_e^2 = 1/10 and P(X_1 > 1/2) = (1/2)^3
    X = _exact(GobSpec(3, Linear(1.0)), "exact_simplex")(_stream(3), 100_000)
    assert np.all(X >= 0)
    assert np.all(X.sum(axis=1) <= 1.0 + 1e-12)
    assert np.mean(X[:, 0] ** 2) == pytest.approx(0.1, abs=0.003)
    assert np.mean(X[:, 0] > 0.5) == pytest.approx(0.125, abs=0.01)


def test_simplex_coefficients_scale_marginals():
    coeffs = np.array([1.0, 1.0, 2.0])
    spec = GobSpec(3, [Linear(1.0 / c) for c in coeffs])
    X = _exact(spec, "exact_simplex")(_stream(4), 100_000)
    assert np.all(X @ coeffs <= 1.0 + 1e-12)
    # x_2 = y_2 / 2 with y uniform on the unit simplex, so E x_2^2 = 0.1/4
    assert np.mean(X[:, 2] ** 2) == pytest.approx(0.025, abs=0.001)


def test_lq_support_and_second_moment():
    # d = 3, q = 2: marginal density prop. to (1 - x^2), E X^2 = 1/5
    X = _exact(GobSpec(3, Power(1.0, 2.0)), "exact_lq")(_stream(5), 100_000)
    assert np.all(X >= 0)
    assert np.all(np.sum(X ** 2, axis=1) <= 1.0 + 1e-12)
    assert np.mean(X[:, 0] ** 2) == pytest.approx(0.2, abs=0.006)


def test_lq_q1_matches_simplex():
    # the q = 1 orthant ball is the simplex; cross-check the two exact routes
    A = _exact(GobSpec(4, Power(1.0, 1.0)), "exact_lq")(_stream(6), 50_000)
    B = _exact(GobSpec(4, Linear(1.0)), "exact_simplex")(_stream(7), 50_000)
    for k in range(6):
        ks = stats.ks_2samp(A[:, k], B[:, k]).statistic
        assert ks < ks_critical(0.01 / 6, 50_000, 50_000)


def test_shared_scale_range_and_positive_correlation():
    X = sample_shared_scale(3, _stream(8), count=50_000)
    assert np.all((0 <= X) & (X <= 1))
    corr = np.corrcoef(X[:, 0], X[:, 1])[0, 1]
    assert corr > 0.3


# ---------------------------------------------------------------------------
# censored simplex draws

_CENSOR_N, _CENSOR_D = 12, 66
# per-edge coefficients over [0.5, 2]: edges 0 and 1 hold the extremes
_EDGE_COEFFS = np.concatenate([[2.0, 0.5], np.linspace(0.6, 1.9, _CENSOR_D - 2)])
_CENSOR_SPECS = [GobSpec(_CENSOR_N, Linear(1.0)),
                 GobSpec(_CENSOR_N, [Linear(1.0 / c) for c in _EDGE_COEFFS])]


def _densify(pairs, d, level):
    """The (len(pairs), d) array of censored draws, +inf where a draw kept
    no coordinate; checks each pair's positions and values first."""
    out = np.full((len(pairs), d), np.inf)
    for row, (pos, val) in zip(out, pairs):
        assert pos.shape == val.shape and pos.dtype.kind == "i"
        assert np.unique(pos).size == pos.size
        assert np.all((0 <= pos) & (pos < d)) and np.all(val <= level)
        row[pos] = val
    return out


def _censored_vs_dense(spec, level, reps=20_000):
    """Two-sample KS p-values, censored against dense draws, of per-row
    statistics (iid across rows): the count of coordinates at or below
    the level, their sum, and edges 0 and 1 where kept."""
    pairs = _exact(spec, "exact_simplex", level)(_stream(40), reps)
    assert len(pairs) == reps
    A = _densify(pairs, _CENSOR_D, level)
    B = _exact(spec, "exact_simplex")(_stream(41), reps)
    assert B.shape == (reps, _CENSOR_D)
    kept_a, kept_b = A <= level, B <= level
    stats_a = [kept_a.sum(axis=1), np.where(kept_a, A, 0.0).sum(axis=1),
               A[kept_a[:, 0], 0], A[kept_a[:, 1], 1]]
    stats_b = [kept_b.sum(axis=1), np.where(kept_b, B, 0.0).sum(axis=1),
               B[kept_b[:, 0], 0], B[kept_b[:, 1], 1]]
    return [stats.ks_2samp(a, b).pvalue for a, b in zip(stats_a, stats_b)]


@pytest.mark.parametrize("spec", _CENSOR_SPECS, ids=["uniform", "per_edge"])
def test_censored_simplex_matches_dense(spec):
    # the level keeps about a third of the 66 coordinates
    assert min(_censored_vs_dense(spec, 0.006)) > 1e-3


@pytest.mark.parametrize("spec", _CENSOR_SPECS, ids=["uniform", "per_edge"])
@pytest.mark.parametrize("sigmas", [0.0, -2.0, -1e9])
def test_censored_simplex_fallback_matches_dense(monkeypatch, spec, sigmas):
    # a low split sends some (0.0), nearly all (-2.0) or every (-1e9, the
    # split clamps to 0) draw down the exact-excess path, with coordinates
    # above the split that are kept
    monkeypatch.setattr(samplers, "_SPLIT_SIGMAS", sigmas)
    assert min(_censored_vs_dense(spec, 0.006)) > 1e-3


def test_censored_simplex_zero_count_and_arguments():
    sampler = _exact(GobSpec(5, Linear(1.0)), "exact_simplex", 0.1)
    probed, fresh = _stream(43), _stream(43)
    assert sampler(probed, 0) == []
    assert np.array_equal(_densify(sampler(probed, 2), 10, 0.1),
                          _densify(sampler(fresh, 2), 10, 0.1))
    with pytest.raises(ValueError):
        SamplerConfig(method="exact_simplex", censor_above=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(method="exact_simplex", censor_above=-0.5)


def test_censor_level_ignored_by_other_methods():
    cases = [(GobSpec(4, Cap(1.0)), "exact_cube"),
             (GobSpec(4, Power(1.0, 2.0)), "exact_lq"),
             (GobSpec(4, Linear(1.0)), "hit_and_run")]
    for spec, method in cases:
        plain = make_sampler(spec, SamplerConfig(method=method, burn_in=20))
        censored = make_sampler(spec, SamplerConfig(method=method, burn_in=20,
                                                    censor_above=0.01))
        assert np.array_equal(plain(_stream(44), 5), censored(_stream(44), 5))


# ---------------------------------------------------------------------------
# determinism

def test_streams_reproduce_and_split():
    sampler = _exact(GobSpec(4, Linear(1.0)), "exact_simplex")
    a = sampler(substream(7, (3, 1)), 10)
    b = sampler(substream(7, (3, 1)), 10)
    c = sampler(substream(7, (3, 2)), 10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# digests of the program path's draws at n = 12: a last-bit change in how
# a spec's extents enter a draw (dividing by 1/a, or the censored split
# level) moves them, where a uniform coefficient of 1 would not
_PIN_SPECS = {"uniform": GobSpec(_CENSOR_N, Linear(1.0 / 1.5)),
              "per_edge": _CENSOR_SPECS[1],
              "cap": GobSpec(_CENSOR_N, [Cap(c) for c in _EDGE_COEFFS])}


@pytest.mark.parametrize("name, method, censor_above, digest", [
    ("uniform", "exact_simplex", None, "90e84481bc8867a9"),
    ("uniform", "exact_simplex", 0.02, "87c80a8eb1b3e3e9"),
    ("per_edge", "exact_simplex", None, "a0c75a1deec20728"),
    ("per_edge", "exact_simplex", 0.02, "17e066d83924268e"),
    ("cap", "exact_cube", None, "4852f2419ca814e8"),
])
def test_exact_draws_keep_their_bytes(name, method, censor_above, digest):
    sampler = _exact(_PIN_SPECS[name], method, censor_above)
    if censor_above is None:
        data = sampler(substream(20260824, (26, 1)), 50).tobytes()
    else:
        data = b"".join(pos.tobytes() + val.tobytes() for pos, val in
                        sampler(substream(20260824, (26, 2)), 50))
    assert hashlib.sha256(data).hexdigest()[:16] == digest


def test_stream_key_validation():
    with pytest.raises(ValueError):
        substream(-1, 0)
    with pytest.raises(ValueError):
        substream(0, (-2,))


# ---------------------------------------------------------------------------
# start points

def test_start_point_examples():
    # 0.5 * 1/6 for a simplex edge, 0.5 * 2 * sqrt(1/6) for a power q = 2
    assert start_point(GobSpec(3, Linear(1.0))) == pytest.approx(np.full(3, 1 / 12))
    assert start_point(GobSpec(3, Power(a=2.0, q=2.0))) == pytest.approx(
        np.full(3, np.sqrt(1 / 6)))


@pytest.mark.parametrize("spec", [
    GobSpec(3, Cap(1.0)),
    GobSpec(3, Linear(0.5)),
    GobSpec(4, Power(a=1.0, q=3.0)),
    GobSpec(3, [Linear(1.0), Cap(0.3), Power(a=2.0, q=2.0)]),
], ids=[f"analytic_center-spec{i}" for i in range(4)])
def test_start_point_strictly_interior(spec):
    assert spec.strictly_inside(start_point(spec))


# ---------------------------------------------------------------------------
# hit-and-run

def test_hit_and_run_box_uniform():
    spec = GobSpec(3, Cap(1.0))
    cfg = SamplerConfig(method="hit_and_run", burn_in=200, thinning=5)
    X = hit_and_run(spec, cfg, _stream(9), 20_000)
    assert X.shape == (20_000, 3)
    assert X.min() >= 0 and X.max() <= 1 + 1e-9
    assert np.allclose(X.mean(axis=0), 0.5, atol=0.01)
    assert np.mean(X[:, 0] ** 2) == pytest.approx(1 / 3, abs=0.01)


@pytest.mark.parametrize("a, digest", [(1.0, "06a6a56dcd478a19"),
                                       (0.7, "417d1fd2ee4a3f18")])
def test_linear_chain_bytes_uniform_as_per_edge(a, digest):
    # the linear chain (criterion 3's sampler) keeps its running sum in its
    # own weights, so a uniform spec's 0-d parameters change no byte; the
    # digests are the chain's before the 0-d representation, and 3300
    # steps cross three refreshes of the sum
    cfg = SamplerConfig(method="hit_and_run", burn_in=300, thinning=15)
    shared, listed = (hit_and_run(GobSpec(6, comps), cfg, _stream(31), 200)
                      for comps in (Linear(a), [Linear(a)] * 15))
    assert shared.tobytes() == listed.tobytes()
    assert hashlib.sha256(shared.tobytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize("spec, digest", [
    (GobSpec(6, Linear(1.0)), "9ad99a38fbce556b"),
    (GobSpec(4, Cap(0.8)), "96e69c5586c22f9e"),
    (GobSpec(4, [Linear(1.0), Cap(0.5), Linear(0.7), Cap(1.0), Linear(2.0),
                 Linear(1.0)]), "b2d1d818d705ce49"),
], ids=["linear", "cap", "mixed"])
def test_affine_chain_bytes_across_blocks(spec, digest):
    # 14 000 steps: four blocks of draws and 13 refreshes of the running
    # sum; the digests are those of the chain before it shared its loop
    # with every other spec
    cfg = SamplerConfig(method="hit_and_run", burn_in=5000, thinning=150)
    X = hit_and_run(spec, cfg, substream(20260824, (3, 15, 1)), 60)
    assert hashlib.sha256(X.tobytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize("component", [Linear(1.0), Power(1.0, 2.0)],
                         ids=["linear", "power"])
def test_hit_and_run_memory_is_bounded_by_its_block(component):
    # 4097 steps at n = 100 (d = 4950): a block of 4096 directions would
    # hold 155 MiB; the block is cut to _BLOCK_BYTES of them
    spec = GobSpec(100, component)
    cfg = SamplerConfig(method="hit_and_run", burn_in=4096, thinning=1)
    tracemalloc.start()
    try:
        X = hit_and_run(spec, cfg, _stream(23), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert X.shape == (1, spec.dim) and np.all(X >= 0)
    assert peak < 2 * _BLOCK_BYTES


def test_hit_and_run_stays_on_ball():
    spec = GobSpec(3, [Linear(1.0), Power(a=1.0, q=2.0), Cap(0.5)])
    cfg = SamplerConfig(method="hit_and_run", burn_in=100, thinning=3)
    X = hit_and_run(spec, cfg, _stream(10), 2_000)
    for x in X[::50]:
        assert x.min() >= 0 and spec.total(x) <= 1.0 + MEMBERSHIP_TOL


def test_hit_and_run_exponential_radial_1d():
    # d = 1 (n = 2), f = t, h = exp(-1.5 u): truncated exponential on [0, 1]
    spec = GobSpec(2, Linear(1.0), radial_density=ExponentialDecay(1.5))
    cfg = SamplerConfig(method="hit_and_run", burn_in=500, thinning=5)
    X = hit_and_run(spec, cfg, _stream(11), 20_000)[:, 0]
    rate = 1.5
    grid = np.linspace(0.01, 0.99, 25)
    emp = np.array([(X <= g).mean() for g in grid])
    exact = (1 - np.exp(-rate * grid)) / (1 - np.exp(-rate))
    assert np.max(np.abs(emp - exact)) < 0.015


def test_hit_and_run_power_decay_radial_1d():
    # h = (1 - u)^2 with f = t on [0, 1]: CDF 1 - (1 - x)^3
    spec = GobSpec(2, Linear(1.0), radial_density=PowerDecay(2.0))
    cfg = SamplerConfig(method="hit_and_run", burn_in=500, thinning=5)
    X = hit_and_run(spec, cfg, _stream(12), 20_000)[:, 0]
    grid = np.linspace(0.01, 0.99, 25)
    emp = np.array([(X <= g).mean() for g in grid])
    exact = 1 - (1 - grid) ** 3
    assert np.max(np.abs(emp - exact)) < 0.015


@pytest.mark.parametrize("density", [ExponentialDecay(3.0), PowerDecay(4.0)])
def test_draw_on_chord_matches_integrated_cdf(density):
    # one fixed chord through a point where h(G) varies strongly along it
    spec = GobSpec(3, Power(a=1.0, q=2.0), radial_density=density)
    x = np.array([0.3, 0.45, 0.2])
    u = np.array([1.0, -0.5, 0.8])
    u /= np.linalg.norm(u)
    t_lo, t_hi = spec.chord(x, u)
    ts = np.linspace(t_lo, t_hi, 20001)
    g = spec.total_batch(np.clip(x + np.outer(ts, u), 0.0, None))
    w = np.array([density.weight(v) for v in g.tolist()])
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]))])
    cdf /= cdf[-1]
    stream, line = _stream(17), spec.line(x, u)
    draws = [_draw_on_chord(spec, x, u, t_lo, t_hi, stream, line) for _ in range(5000)]
    assert stats.kstest(draws, lambda t: np.interp(t, ts, cdf)).pvalue > 1e-3


def test_draw_on_chord_gives_up_after_max_proposals(monkeypatch):
    # h = (1 - u)^1e6 underflows to 0 on nearly all of a chord, so the
    # rejection loop once ran for ever; it raises after MAX_PROPOSALS
    monkeypatch.setattr(samplers, "MAX_PROPOSALS", 50)
    spec = GobSpec(3, Power(a=1.0, q=2.0), radial_density=PowerDecay(1e6))
    x = np.array([0.3, 0.45, 0.2])
    u = np.array([1.0, -0.5, 0.8]) / np.sqrt(1.89)
    t_lo, t_hi = spec.chord(x, u)
    with pytest.raises(RuntimeError, match="PowerDecay.*50 proposals"):
        _draw_on_chord(spec, x, u, t_lo, t_hi, _stream(19), spec.line(x, u))


def test_hit_and_run_radial_law_of_g():
    # power q = 2 with h(u) = exp(-1.5 u) at n = 6: G(X) has density
    # prop. to u^(d/2 - 1) exp(-1.5 u) on [0, 1], a truncated gamma law
    n, rate = 6, 1.5
    spec = GobSpec(n, Power(a=1.0, q=2.0), radial_density=ExponentialDecay(rate))
    shape = spec.dim / 2.0
    cfg = SamplerConfig(method="hit_and_run", burn_in=150, thinning=1)
    G = [spec.total(hit_and_run(spec, cfg, _stream((18, k)), 1)[0])
         for k in range(200)]  # independent chains, one draw each
    cdf = lambda g: special.gammainc(shape, rate * g) / special.gammainc(shape, rate)
    assert stats.kstest(G, cdf).pvalue > 1e-3


_density = st.one_of(
    st.just(Indicator()),
    st.builds(ExponentialDecay, st.floats(0.1, 4.0)),
    st.builds(PowerDecay, st.floats(0.0, 4.0)),
)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.sampled_from([3, 4, 5]), density=_density,
       seed=st.integers(0, 2**32 - 1))
def test_hit_and_run_chain_stays_in_ball(data, n, density, seed):
    # a few hundred steps over random mixed specs: no step raises, and every
    # retained state lies in the orthant with G <= 1 (caps included)
    d = n * (n - 1) // 2
    comps = data.draw(st.lists(components, min_size=d, max_size=d))
    spec = GobSpec(n, comps, radial_density=density)
    cfg = SamplerConfig(method="hit_and_run", burn_in=0, thinning=1)
    X = hit_and_run(spec, cfg, substream(seed, 0), 300)
    assert X.shape == (300, d)
    assert np.all(X >= 0)
    assert max(spec.total(x) for x in X) <= 1.0 + 1e-9


@pytest.mark.parametrize("spec", [
    GobSpec(4, [Linear(1.0), Power(1.0, 2.0), Cap(0.6), Power(0.8, 2.0),
                Linear(0.7), Power(1.2, 2.0)], radial_density=ExponentialDecay(1.5)),
    GobSpec(4, [Linear(1.0), Power(1.0, 2.5), Cap(0.6),
                PiecewiseLinearConvex([(0, 0), (0.5, 0.3), (1, 1.2)]),
                Linear(0.7), Power(1.2, 2.0)], radial_density=ExponentialDecay(1.5)),
], ids=["quadratic", "pwl"])
def test_hit_and_run_evaluates_g_once_per_step_at_its_state(monkeypatch, spec):
    # every array evaluation of G (total_and_slope, which total calls) is
    # logged with its point, and every step is marked where it asks for G
    # along its line; each step evaluates G at its current state exactly
    # once, and a quadratic spec evaluates it nowhere else
    events = []
    inner_g, inner_line = GobSpec.total_and_slope, GobSpec.line

    def logged(self, y, v=None):
        events.append(("G", np.array(y)))
        return inner_g(self, y, v)

    def marked(self, x, u):
        events.append(("step", None))
        return inner_line(self, x, u)

    monkeypatch.setattr(GobSpec, "total_and_slope", logged)
    monkeypatch.setattr(GobSpec, "line", marked)
    cfg = SamplerConfig(method="hit_and_run", burn_in=0, thinning=1)
    steps = 40
    X = hit_and_run(spec, cfg, _stream(19), steps)
    states = [start_point(spec)] + list(X[:-1])
    marks = [i for i, (kind, _) in enumerate(events) if kind == "step"]
    assert len(marks) == steps
    for state, begin, end in zip(states, marks, marks[1:] + [len(events)]):
        points = [y for _, y in events[begin + 1:end]]
        assert sum(np.array_equal(y, state) for y in points) == 1
        if spec.quadratic:
            assert len(points) == 1


def test_schedule_defaults_and_validation():
    cfg = SamplerConfig(method="hit_and_run")
    assert cfg.resolved_schedule(10) == (500, 10)
    cfg2 = SamplerConfig(method="hit_and_run", burn_in=7, thinning=3)
    assert cfg2.resolved_schedule(10) == (7, 3)
    with pytest.raises(ValueError):
        SamplerConfig(method="nope")
    with pytest.raises(ValueError):
        SamplerConfig(burn_in=-1)
    with pytest.raises(ValueError):
        SamplerConfig(thinning=0)
    for bad in ("abc", 10.5, True):
        with pytest.raises(ValueError, match="integer"):
            SamplerConfig(burn_in=bad)
        with pytest.raises(ValueError, match="integer"):
            SamplerConfig(thinning=bad)


# ---------------------------------------------------------------------------
# dispatch and validation battery

def test_make_sampler_family_checks():
    simplex = GobSpec(3, Linear(1.0))
    with pytest.raises(ValueError):
        make_sampler(simplex, SamplerConfig(method="exact_cube"))
    with pytest.raises(ValueError):
        make_sampler(GobSpec(3, Cap(1.0)), SamplerConfig(method="exact_simplex"))
    with pytest.raises(ValueError):
        make_sampler(simplex, SamplerConfig(method="exact_lq"))
    mixed_q = GobSpec(3, [Power(1, 2), Power(1, 3), Power(1, 2)])
    with pytest.raises(ValueError):
        make_sampler(mixed_q, SamplerConfig(method="exact_lq"))
    weighted = GobSpec(3, Linear(1.0), radial_density=ExponentialDecay(1.0))
    with pytest.raises(ValueError):
        make_sampler(weighted, SamplerConfig(method="exact_simplex"))


@pytest.mark.parametrize("spec, method", [
    (GobSpec(4, Cap(1.0)), "exact_cube"),
    (GobSpec(4, Linear(1.0)), "exact_simplex"),
    (GobSpec(4, Power(1.0, 2.0)), "exact_lq"),
    (GobSpec(4, Linear(1.0)), "hit_and_run"),  # the linear chain
    (GobSpec(4, Power(1.0, 2.0), radial_density=ExponentialDecay(1.5)),
     "hit_and_run"),
])
def test_zero_count_draw_is_empty_and_free(spec, method):
    sampler = make_sampler(spec, SamplerConfig(method=method, burn_in=20,
                                               thinning=2))
    probed, fresh = _stream(30), _stream(30)
    empty = sampler(probed, 0)
    assert empty.shape == (0, spec.dim)
    assert np.array_equal(sampler(probed, 3), sampler(fresh, 3))


@pytest.mark.parametrize("component, method", [
    (Linear(1.0), "exact_simplex"), (Cap(1.0), "exact_cube"),
    (Power(1.0, 2.0), "exact_lq"),
])
def test_uniform_spec_and_sampler_hold_no_edge_array(component, method):
    # at n = 3000 one float64 per edge is 36 MB; a uniform spec and its
    # exact sampler hold O(1) memory (the first draw allocates its block)
    tracemalloc.start()
    try:
        make_sampler(GobSpec(3000, component),
                     SamplerConfig(method=method, censor_above=0.01))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_draw_blocks_rule_and_exact_concatenation():
    n, d = 20, 190
    rows = _BLOCK_BYTES // (8 * d)
    count = 2 * rows + 7
    for component, method in ((Linear(1.0), "exact_simplex"),
                              (Cap(1.0), "exact_cube"),
                              (Power(1.0, 3.0), "exact_lq")):
        sampler = _exact(GobSpec(n, component), method)
        blocks = list(draw_blocks(sampler, _stream(31), count, d))
        assert [b.shape for b in blocks] == [(rows, d), (rows, d), (7, d)]
        assert np.array_equal(np.vstack(blocks), sampler(_stream(31), count))
        assert list(draw_blocks(sampler, _stream(31), 0, d)) == []
    # a row wider than a block still gets one row per call
    wide = _BLOCK_BYTES // 8 + 1
    one = lambda stream, count: np.zeros((count, wide))
    assert [b.shape[0] for b in draw_blocks(one, _stream(31), 3, wide)] == [1, 1, 1]


def test_exact_twin_detection():
    assert exact_twin(GobSpec(3, Cap(1.0))) == "exact_cube"
    assert exact_twin(GobSpec(3, Linear(0.5))) == "exact_simplex"
    assert exact_twin(GobSpec(3, Power(1.0, 2.0))) == "exact_lq"
    assert exact_twin(GobSpec(3, [Linear(1.0), Cap(1.0), Linear(1.0)])) is None
    assert exact_twin(GobSpec(3, [Power(1.0, 2.0), Power(1.0, 3.0),
                                  Power(2.0, 2.0)])) is None
    assert exact_twin(GobSpec(3, [Power(1.0, 2.0), Power(2.0, 2.0),
                                  Power(1.0, 2.0)])) == "exact_lq"
    assert exact_twin(
        GobSpec(3, Linear(1.0), radial_density=ExponentialDecay(1.0))) is None


def test_validate_sampler_passes_on_box():
    spec = GobSpec(3, Cap(1.0))
    cfg = SamplerConfig(method="hit_and_run", burn_in=200, thinning=5)
    pair = (_stream((13, 0)), _stream((13, 1)))
    report = validate_sampler(spec, cfg, pair, draws=4000)
    assert report.ok is True
    assert report.max_ks < report.critical


def test_validate_sampler_passes_on_l2_orthant():
    # the quadratic chord against the exact l_q sampler
    spec = GobSpec(4, Power(1.0, 2.0))
    assert spec.quadratic
    cfg = SamplerConfig(method="hit_and_run", burn_in=300, thinning=10)
    pair = (_stream((20, 0)), _stream((20, 1)))
    report = validate_sampler(spec, cfg, pair, draws=4000)
    assert report.ok is True
    assert report.max_ks < report.critical


def test_validate_sampler_flags_unmixed_chain():
    # no burn-in, no thinning, from a corner start: marginals are far off
    spec = GobSpec(6, Linear(1.0))
    cfg = SamplerConfig(method="hit_and_run", burn_in=0, thinning=1)
    pair = (_stream((14, 0)), _stream((14, 1)))
    report = validate_sampler(spec, cfg, pair, draws=3000)
    assert report.ok is False


def test_validate_sampler_skips_without_twin():
    spec = GobSpec(3, Linear(1.0), radial_density=ExponentialDecay(1.0))
    cfg = SamplerConfig(method="hit_and_run", burn_in=100, thinning=2)
    report = validate_sampler(spec, cfg, (_stream(15), _stream(16)), draws=2000)
    assert report.ok is None
