import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from gobgraph import (GobSpec, Linear, Power, SamplerConfig, estimate_moments,
                      make_sampler, marginal_bound_check, nc_test,
                      sample_shared_scale, substream, wilson_interval)
from gobgraph import samplers
from gobgraph.config import ConfigError


def _stream(key):
    return substream(99, key)


def _simplex_sampler(n=3):
    return make_sampler(GobSpec(n, Linear(1.0)),
                        SamplerConfig(method="exact_simplex"))


# ---------------------------------------------------------------------------
# wilson

def test_wilson_example():
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.40383, abs=1e-4)
    assert hi == pytest.approx(0.59617, abs=1e-4)


def test_wilson_boundaries():
    lo, hi = wilson_interval(0, 20)
    assert lo == 0.0 and 0 < hi < 0.25
    lo, hi = wilson_interval(20, 20)
    assert hi == 1.0 and 0.75 < lo < 1
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(21, 20)


def test_wilson_contains_truth_at_nominal_rate():
    rng = np.random.default_rng(11)
    p = 0.3
    hits = 0
    trials = 400
    for _ in range(trials):
        k = rng.binomial(200, p)
        lo, hi = wilson_interval(k, 200)
        hits += lo <= p <= hi
    assert hits / trials > 0.92  # nominal 95%


# ---------------------------------------------------------------------------
# moments

def test_moments_cube_uniform():
    sampler = make_sampler(GobSpec(3, Power(1.0, 1.0)),
                           SamplerConfig(method="exact_lq"))
    # n = 3 simplex via the q = 1 route; compare against exact 1/10
    est = estimate_moments(sampler, _stream(1), 20_000)
    exact = integrate.quad(lambda x: x * x * 3 * (1 - x) ** 2, 0, 1)[0]
    assert exact == pytest.approx(0.1, abs=1e-12)
    for m, se in zip(est.second_moments, est.standard_errors):
        assert abs(m - 0.1) < 3 * se
    assert est.sigma_min == pytest.approx(np.sqrt(est.sigma_min_sq))


def test_moments_identifies_extreme_edges():
    spec = GobSpec(3, [Linear(1.0), Linear(1.0), Linear(0.5)])
    sampler = make_sampler(spec, SamplerConfig(method="exact_simplex"))
    est = estimate_moments(sampler, _stream(2), 20_000)
    assert est.argmin == 2
    # halving the extent quarters the second moment
    assert est.second_moments[2] == pytest.approx(0.025, abs=0.002)
    assert est.sigma_min_sq == pytest.approx(0.025, abs=0.002)
    assert est.sigma_max_sq == pytest.approx(0.1, abs=0.005)


def test_moments_validation():
    sampler = _simplex_sampler()
    with pytest.raises(ConfigError):
        estimate_moments(sampler, _stream(3), 999)


@pytest.mark.parametrize("value", [0.2, 0.25])
def test_moments_reject_a_constant_coordinate(value):
    # 0.2 ** 2 does not sum exactly, so a test on the computed SD misses it
    constant = lambda stream, count: np.full((count, 3), value)
    with pytest.raises(ValueError, match="constant"):
        estimate_moments(constant, _stream(4), 2000)


# ---------------------------------------------------------------------------
# streaming: the block-wise estimators against whole-array computations

STREAM_N = 20        # d = 190, so a block is 5518 rows
STREAM_REPS = 12_000  # two full blocks and a partial one


def _streaming_sampler():
    spec = GobSpec(STREAM_N, Linear(1.0))
    rows = samplers._BLOCK_BYTES // (8 * spec.dim)
    assert STREAM_REPS > rows and STREAM_REPS % rows != 0
    return make_sampler(spec, SamplerConfig(method="exact_simplex"))


def test_moments_streamed_match_whole_array():
    sampler = _streaming_sampler()
    est = estimate_moments(sampler, _stream(20), STREAM_REPS)
    sq = sampler(_stream(20), STREAM_REPS) ** 2
    m = sq.mean(axis=0)
    se = sq.std(axis=0, ddof=1) / math.sqrt(STREAM_REPS)
    np.testing.assert_allclose(est.second_moments, m, rtol=1e-12)
    np.testing.assert_allclose(est.standard_errors, se, rtol=1e-12)
    assert est.argmin == int(np.argmin(est.second_moments))
    assert est.argmax == int(np.argmax(est.second_moments))


def test_nc_test_streamed_match_whole_array():
    sampler = _streaming_sampler()
    I, J, s, t = (3, 40), (100,), np.array([0.004, 0.006]), 0.005
    report = nc_test(sampler, _stream(21), I, J, s, t, STREAM_REPS)

    reps = STREAM_REPS
    stream = _stream(21)
    b1 = sampler(stream, reps)
    k_joint = int(np.sum(np.all(b1[:, I] > s, axis=1) & np.all(b1[:, J] > t, axis=1)))
    b2 = sampler(stream, reps)
    hits_i = np.all(b2[:, I] > s, axis=1)
    hits_j = np.all(b2[:, J] > t, axis=1)
    joint = k_joint / reps
    p_i, p_j = hits_i.mean(), hits_j.mean()
    cov = (np.mean(hits_i & hits_j) - p_i * p_j) / reps
    var = (p_j * p_j * p_i * (1 - p_i) / reps + p_i * p_i * p_j * (1 - p_j) / reps
           + 2 * p_i * p_j * cov)
    assert 0 < k_joint < reps and 0 < hits_i.sum() < reps
    assert report.joint == joint
    assert report.joint_ci == wilson_interval(k_joint, reps)
    assert report.joint_se == math.sqrt(max(joint * (1 - joint), 1.0 / reps) / reps)
    assert report.product == float(p_i * p_j)
    assert report.product_se == math.sqrt(max(var, 0.0))
    ci_i = wilson_interval(int(hits_i.sum()), reps)
    ci_j = wilson_interval(int(hits_j.sum()), reps)
    assert report.product_ci == (ci_i[0] * ci_j[0], ci_i[1] * ci_j[1])


def test_marginal_bound_streamed_match_whole_array():
    sampler = _streaming_sampler()
    est = estimate_moments(sampler, _stream(22), STREAM_REPS)
    grid = np.array([0.001, 0.004, 0.02])
    report = marginal_bound_check(sampler, _stream(23), est, grid, STREAM_REPS)

    # the reference is the per-(edge, p) loop on the whole array; the
    # report's arrays must equal it bit for bit
    reps = STREAM_REPS
    X = sampler(_stream(23), reps)
    d = X.shape[1]
    estimates = np.empty((len(grid), d))
    ses = np.empty((len(grid), d))
    oks = np.empty((len(grid), d), dtype=bool)
    bounds = []
    worst = 0.0
    for k, p in enumerate(grid):
        hits = np.count_nonzero(X <= p, axis=0) / reps
        bound = p / est.sigma_min
        bounds.append(bound)
        for e in range(d):
            h = float(hits[e])
            se = math.sqrt(max(h * (1 - h), 1.0 / reps) / reps)
            estimates[k, e], ses[k, e], oks[k, e] = h, se, h <= bound + 3 * se
            worst = max(worst, h / bound)
    assert np.array_equal(report.p_grid, grid)
    assert np.array_equal(report.bounds, bounds)
    assert np.array_equal(report.estimates, estimates)
    assert np.array_equal(report.standard_errors, ses)
    assert np.array_equal(report.ok_flags, oks)
    assert report.ok == bool(oks.all())
    assert report.worst_ratio == worst


def test_moments_memory_bounded_by_blocks():
    # the whole 20000 x 1770 float64 array would be 283 MB
    sampler = make_sampler(GobSpec(60, Linear(1.0)),
                           SamplerConfig(method="exact_simplex"))
    tracemalloc.start()
    try:
        estimate_moments(sampler, _stream(24), 20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * samplers._BLOCK_BYTES


# ---------------------------------------------------------------------------
# negative-correlation test

def test_nc_test_validation():
    sampler = _simplex_sampler()
    with pytest.raises(ValueError):
        nc_test(sampler, _stream(5), (0, 1), (1, 2), 0.2, 0.2, 20_000)  # overlap
    with pytest.raises(ValueError):
        nc_test(sampler, _stream(5), (), (1,), 0.2, 0.2, 20_000)
    with pytest.raises(ConfigError):
        nc_test(sampler, _stream(5), (0,), (1,), 0.2, 0.2, 9_999)


def test_nc_test_consistent_on_simplex():
    report = nc_test(_simplex_sampler(), _stream(6), (0,), (1,), 0.3, 0.3, 30_000)
    assert report.verdict == "consistent"
    assert report.joint <= report.product + 3 * np.hypot(report.joint_se,
                                                         report.product_se)


def test_nc_test_consistent_on_cube():
    sampler = make_sampler(GobSpec(3, Power(1.0, 1.0)),
                           SamplerConfig(method="exact_lq"))
    report = nc_test(sampler, _stream(7), (0, 1), (2,), 0.5, 0.5, 30_000)
    assert report.verdict == "consistent"


def test_nc_test_flags_shared_scale_law():
    # X_e = min(1, Z U_e): joint tail P(X_1 > s, X_2 > t) strictly exceeds
    # the product of marginals.  Quadrature oracle at s = t = 0.7:
    #   P(X_e > 0.7)        = 0.3 + 0.7 ln 0.7          ~ 0.05034
    #   P(both > 0.7)       = int_0.7^1 (1 - 0.49/z^2)/... ~ 0.01066
    sampler = lambda stream, count: sample_shared_scale(3, stream, count)
    marg = integrate.quad(
        lambda z: min(1.0, (z - 0.7) / z), 0.7, 1.0)[0]
    joint = integrate.quad(
        lambda z: ((z - 0.7) / z) ** 2, 0.7, 1.0)[0]
    assert marg == pytest.approx(0.3 + 0.7 * np.log(0.7), abs=1e-9)
    assert joint > marg * marg * 3
    report = nc_test(sampler, _stream(8), (0,), (1,), 0.7, 0.7, 40_000)
    assert report.verdict == "violation-at-3-sigma"
    assert report.joint == pytest.approx(joint, abs=0.004)
    assert report.product == pytest.approx(marg * marg, abs=0.002)


# ---------------------------------------------------------------------------
# marginal CDF bound

def test_marginal_bound_holds_on_small_simplex():
    # d = 3: sigma_min = sqrt(0.1) and P(X <= p) = 1 - (1 - p)^3 <= p/sigma_min
    sampler = _simplex_sampler()
    est = estimate_moments(sampler, _stream(9), 20_000)
    grid = np.logspace(-2, -0.5, 8)
    analytic = 1 - (1 - grid) ** 3
    assert np.all(analytic <= grid / np.sqrt(0.1))
    report = marginal_bound_check(sampler, _stream(10), est, grid, 30_000)
    assert report.ok
    assert report.worst_ratio <= 1.05


def test_marginal_bound_flags_a_violation():
    # a law concentrated near zero violates P(X <= p) <= p/sigma_min badly
    sampler = lambda stream, count: stream.random((count, 2)) ** 6
    est = estimate_moments(sampler, _stream(11), 20_000)
    report = marginal_bound_check(sampler, _stream(12), est,
                                  np.array([0.01, 0.05]), 20_000)
    assert not report.ok
    assert report.worst_ratio > 1.0


def test_marginal_bound_grid_validation():
    sampler = _simplex_sampler()
    est = estimate_moments(sampler, _stream(13), 2000)
    for bad in ([0.0, 0.5], [0.5, 1.0]):
        with pytest.raises(ValueError):
            marginal_bound_check(sampler, _stream(14), est,
                                 np.array(bad), 20_000)
