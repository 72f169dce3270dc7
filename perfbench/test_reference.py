"""Checks of the closed forms in reference.py against numerical integration
or direct computation in dimension d <= 3."""

import math

import numpy as np
import pytest
from scipy import integrate

import reference as ref

TOL = 1e-7


def _simplex3_prob(lo):
    """P(X_i > lo_i, i = 1..3) on the uniform 3-simplex, by triple quadrature
    (the density is 3! = 6)."""
    a, b, c = lo
    val, _ = integrate.tplquad(
        lambda z, y, x: 6.0,
        a, 1.0,
        lambda x: b, lambda x: max(b, 1.0 - x),
        lambda x, y: c, lambda x, y: max(c, 1.0 - x - y),
    )
    return val


@pytest.mark.parametrize("lo", [(0.1, 0.0, 0.0), (0.1, 0.2, 0.0), (0.05, 0.1, 0.15),
                                (0.5, 0.3, 0.3)])
def test_simplex_tail_matches_quadrature(lo):
    assert ref.simplex_tail(sum(lo), 3) == pytest.approx(_simplex3_prob(lo), abs=TOL)


def test_simplex_tail_in_two_dimensions():
    s, t = 0.15, 0.3
    val, _ = integrate.dblquad(lambda y, x: 2.0, s, 1.0,
                               lambda x: t, lambda x: max(t, 1.0 - x))
    assert ref.simplex_tail(s + t, 2) == pytest.approx(val, abs=TOL)


@pytest.mark.parametrize("p", [0.05, 0.2, 0.3])
def test_isolated_moments_at_three_vertices(p):
    # n = 3: edges (01, 02, 12); vertex v is isolated when both of its
    # edges exceed p, and any two isolated vertices force all three edges.
    single = _simplex3_prob((p, p, 0.0))
    every = _simplex3_prob((p, p, p))
    mean = 3 * single
    second = 3 * single + 6 * every
    got_mean, got_var = ref.isolated_count_moments(3, p)
    assert got_mean == pytest.approx(mean, abs=TOL)
    assert got_var == pytest.approx(second - mean * mean, abs=TOL)


@pytest.mark.parametrize("p", [0.05, 0.2, 0.3])
def test_has_isolated_bounds_bracket_exact_value(p):
    single = _simplex3_prob((p, p, 0.0))
    every = _simplex3_prob((p, p, p))
    # inclusion-exclusion over three vertices; every pair or triple of
    # isolated vertices means all three edges exceed p
    exact = 3 * single - 3 * every + every
    lo, hi = ref.has_isolated_bounds(3, p)
    assert lo - TOL <= exact <= hi + TOL


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 4])
def test_beta_moments_match_quadrature(k, d):
    val, _ = integrate.quad(lambda x: x ** k * d * (1 - x) ** (d - 1), 0.0, 1.0)
    assert ref.beta1d_moment(k, d) == pytest.approx(val, rel=1e-9)
    if k == 2:
        assert ref.beta1d_moment(2, d) == pytest.approx(2 / ((d + 1) * (d + 2)))
    else:
        assert ref.beta1d_moment(4, d) == pytest.approx(
            24 / ((d + 1) * (d + 2) * (d + 3) * (d + 4)))


def test_square_pair_moment_matches_quadrature():
    val, _ = integrate.dblquad(lambda y, x: 2.0 * x * x * y * y, 0.0, 1.0,
                               lambda x: 0.0, lambda x: 1.0 - x)
    assert ref.simplex_square_pair_moment(2) == pytest.approx(val, rel=1e-9)


def test_pilot_sigma_se_matches_direct_variance():
    d, draws = 2, 7
    s1, _ = integrate.dblquad(lambda y, x: 2.0 * (x * x + y * y), 0.0, 1.0,
                              lambda x: 0.0, lambda x: 1.0 - x)
    s2, _ = integrate.dblquad(lambda y, x: 2.0 * (x * x + y * y) ** 2, 0.0, 1.0,
                              lambda x: 0.0, lambda x: 1.0 - x)
    var_mean = (s2 - s1 * s1) / (draws * d * d)
    sigma = math.sqrt(s1 / d)
    assert ref.pilot_sigma_se(d, draws) == pytest.approx(
        math.sqrt(var_mean) / (2 * sigma), rel=1e-7)


def test_nc_joint_and_product_in_three_dimensions():
    s, t = 0.2, 0.25  # I = {1}, J = {2}
    joint = _simplex3_prob((s, t, 0.0))
    marg_i = _simplex3_prob((s, 0.0, 0.0))
    marg_j = _simplex3_prob((0.0, t, 0.0))
    assert ref.nc_joint(s, t, 3) == pytest.approx(joint, abs=TOL)
    assert ref.nc_product(s, t, 3) == pytest.approx(marg_i * marg_j, abs=TOL)


def test_radial_law_uniform_disk_quadrant():
    # q = 2, d = 2, h = 1: G = |x|^2 and P(G <= u) = area ratio = u
    for u in (0.1, 0.5, 0.9):
        assert ref.radial_law_cdf(u, 2, 2.0, np.ones_like) == pytest.approx(u, abs=1e-9)


def test_radial_law_exponential_on_quarter_disk():
    rate, u0 = 1.5, 0.6

    def weight(y, x):
        return math.exp(-rate * (x * x + y * y))

    total, _ = integrate.dblquad(weight, 0.0, 1.0, lambda x: 0.0,
                                 lambda x: math.sqrt(max(0.0, 1 - x * x)))
    r0 = math.sqrt(u0)
    part, _ = integrate.dblquad(weight, 0.0, r0, lambda x: 0.0,
                                lambda x: math.sqrt(max(0.0, u0 - x * x)))
    assert ref.radial_exponential_cdf(u0, 2, 2.0, rate) == pytest.approx(
        part / total, abs=1e-7)
    assert ref.radial_law_cdf(u0, 2, 2.0, lambda v: np.exp(-rate * v)) == pytest.approx(
        part / total, abs=1e-7)


def test_radial_law_exponential_on_three_simplex():
    # q = 1, d = 3: G = x + y + z on the unit simplex
    rate, u0 = 1.5, 0.7

    def mass(upper):
        val, _ = integrate.tplquad(
            lambda z, y, x: math.exp(-rate * (x + y + z)),
            0.0, upper, lambda x: 0.0, lambda x: upper - x,
            lambda x, y: 0.0, lambda x, y: upper - x - y)
        return val

    assert ref.radial_exponential_cdf(u0, 3, 1.0, rate) == pytest.approx(
        mass(u0) / mass(1.0), abs=1e-7)


def test_bonferroni_z_grows_with_the_number_of_tests():
    assert ref.bonferroni_z(0.05, 1) == pytest.approx(1.959964, abs=1e-6)
    assert ref.bonferroni_z(0.05, 10) > ref.bonferroni_z(0.05, 1)
