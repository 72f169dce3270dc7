import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gobgraph import (Cap, ExponentialDecay, GobSpec, Indicator, Linear,
                      PiecewiseLinearConvex, Power, PowerDecay, orlicz)
from gobgraph.orlicz import box_bracket
from strategies import components

INF = math.inf


# ---------------------------------------------------------------------------
# component evaluation, through G on a one-edge ball (n = 2)

def _g(f, t):
    return GobSpec(2, f).total(np.array([t]))


def test_eval_power():
    assert _g(Power(a=2, q=3), 2.0) == pytest.approx(1.0)


def test_eval_linear_zero():
    assert _g(Linear(a=0.5), 0.0) == 0.0


def test_eval_cap_beyond():
    assert _g(Cap(a=1.0), 1.5) == INF


def test_eval_negative_rejected():
    # a negative coordinate is never strictly inside; the PWL component,
    # the one G evaluates by value, rejects a negative argument
    for f in (Power(1, 2), Linear(1), Cap(1),
              PiecewiseLinearConvex([(0, 0), (1, 1)])):
        assert not GobSpec(2, f).strictly_inside(np.array([-0.1]))
    with pytest.raises(ValueError):
        _g(PiecewiseLinearConvex([(0, 0), (1, 1)]), -0.1)


def test_construction_validation():
    with pytest.raises(ValueError):
        Power(a=0, q=2)
    with pytest.raises(ValueError):
        Power(a=1, q=0.5)
    with pytest.raises(ValueError):
        Linear(a=-1)
    with pytest.raises(ValueError):
        Cap(a=0)
    # a simplex coefficient 1/a of 0 is an infinite extent
    with pytest.raises(ValueError):
        GobSpec(3, [Linear(1.0), Linear(INF), Linear(1.0)])


def test_pwl_validation():
    # must start at (0, 0)
    with pytest.raises(ValueError):
        PiecewiseLinearConvex([(0.5, 0), (1, 1)])
    # slopes must be nondecreasing
    with pytest.raises(ValueError):
        PiecewiseLinearConvex([(0, 0), (1, 2), (2, 2.5)])
    # identically-zero graph has no finite extent
    with pytest.raises(ValueError):
        PiecewiseLinearConvex([(0, 0), (1, 0)])


def test_pwl_value_and_extrapolation():
    f = PiecewiseLinearConvex([(0, 0), (1, 0.5), (2, 2)])
    assert f.value(0.5) == pytest.approx(0.25)
    assert f.value(3.0) == pytest.approx(3.5)  # final slope 1.5 extended


# ---------------------------------------------------------------------------
# the extent inverse_at(1.0), which sets GobSpec.a

def test_inverse_at_one_exact_kinds():
    for f, a in ((Power(a=2, q=3), 2.0), (Linear(a=0.5), 0.5), (Cap(a=1.0), 1.0)):
        assert f.inverse_at(1.0) == a
        assert GobSpec(3, f).a.shape == ()  # one extent for every edge
        assert np.broadcast_to(GobSpec(3, f).a, (3,)).tolist() == [a] * 3


def _bisect_inverse(f, lo=0.0, hi=1e6, tol=1e-13):
    # independent oracle: bisection on sup{t : f(t) <= 1}
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if _g(f, mid) <= 1.0:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("f", [
    PiecewiseLinearConvex([(0, 0), (1, 0.5), (2, 2)]),
    PiecewiseLinearConvex([(0, 0), (0.3, 0.0), (1, 0.7), (1.5, 3)]),
    Power(a=1.7, q=2.5),
])
def test_inverse_at_one_matches_bisection(f):
    assert f.inverse_at(1.0) == pytest.approx(_bisect_inverse(f), rel=1e-10)


def test_inverse_scaling_law():
    # replacing f(t) by f(t/s) multiplies the extent by s
    for s in (0.5, 2.0, 7.0):
        assert Linear(a=1.3 * s).inverse_at(1.0) == pytest.approx(1.3 * s)
        assert Power(a=1.3 * s, q=3).inverse_at(1.0) == pytest.approx(
            s * Power(a=1.3, q=3).inverse_at(1.0))
        assert Cap(a=0.4 * s).inverse_at(1.0) == pytest.approx(
            s * Cap(a=0.4).inverse_at(1.0))


# ---------------------------------------------------------------------------
# convexity property

@pytest.mark.parametrize("f", [
    Power(a=1.0, q=1.0),
    Power(a=2.0, q=3.7),
    Linear(a=0.25),
    PiecewiseLinearConvex([(0, 0), (0.5, 0.1), (1, 0.6), (2, 3)]),
])
def test_midpoint_convexity(f):
    rng = np.random.default_rng(1234)
    t = np.sort(rng.uniform(0, 3, size=200))
    v = np.array([_g(f, s) for s in t])
    mid = np.array([_g(f, s) for s in 0.5 * (t[:-1] + t[1:])])
    finite = np.isfinite(v[:-1]) & np.isfinite(v[1:])
    assert np.all(mid[finite] <= 0.5 * (v[:-1] + v[1:])[finite] + 1e-9)


def test_cap_midpoint_convexity_where_finite():
    f = Cap(a=1.0)
    t = np.linspace(0, 1, 50)
    assert all(_g(f, s) == 0.0 for s in t)


# ---------------------------------------------------------------------------
# membership: G against 1 -+ MEMBERSHIP_TOL

TOL = orlicz.MEMBERSHIP_TOL


def test_membership_examples():
    spec = GobSpec(3, Linear(1.0))
    assert spec.total(np.array([0.2, 0.3, 0.4])) < 1.0 - TOL
    assert spec.total(np.array([0.5, 0.5, 0.5])) > 1.0 + TOL
    box = GobSpec(3, Cap(1.0))
    assert box.total(np.array([1.0, 1.0, 1.0])) <= 1.0 + TOL


def test_membership_dimension_mismatch():
    spec = GobSpec(3, Linear(1.0))
    with pytest.raises(ValueError):
        spec.total(np.array([0.1, 0.2]))


def test_membership_negative_coordinate_is_outside():
    spec = GobSpec(3, Linear(1.0))
    assert not spec.strictly_inside(np.array([-0.1, 0.1, 0.1]))


def test_membership_down_closed():
    # if y is inside and 0 <= x <= y coordinate-wise, x is inside
    rng = np.random.default_rng(7)
    spec = GobSpec(4, Power(a=1.0, q=2.0))
    for _ in range(200):
        y = rng.uniform(0, 0.5, size=spec.dim)
        if not spec.total(y) < 1.0 - TOL:
            continue
        x = y * rng.uniform(0, 1, size=spec.dim)
        assert spec.total(x) < 1.0 - TOL


@pytest.mark.parametrize("components", [
    Power(a=0.5, q=3.0),                                # all columns: a view
    [Power(1.0, 2.0), Linear(0.5), Power(0.7, 1.5)],    # fancy-indexed columns
])
def test_total_batch_matches_total_and_keeps_input(components):
    spec = GobSpec(3, components)
    X = np.random.default_rng(3).uniform(0, 0.4, size=(20, spec.dim))
    before = X.copy()
    batch = spec.total_batch(X)
    assert np.array_equal(X, before)  # the in-place power must not write to X
    assert batch == pytest.approx([spec.total(row) for row in X], rel=1e-12)


# ---------------------------------------------------------------------------
# chords

def test_chord_axis_example():
    spec = GobSpec(3, Linear(1.0))
    x = np.full(3, 0.25)
    t_lo, t_hi = spec.chord(x, np.array([1.0, 0.0, 0.0]))
    assert t_lo == pytest.approx(-0.25, abs=1e-9)
    assert t_hi == pytest.approx(0.25, abs=1e-9)


def test_chord_diagonal_example():
    # derived analytically: 0.75 + sqrt(3) t = 1 forward, orthant backward
    spec = GobSpec(3, Linear(1.0))
    x = np.full(3, 0.25)
    u = np.ones(3) / math.sqrt(3)
    t_lo, t_hi = spec.chord(x, u)
    assert t_lo == pytest.approx(-0.25 * math.sqrt(3), abs=1e-9)
    assert t_hi == pytest.approx(0.25 / math.sqrt(3), abs=1e-9)


def test_chord_box_example():
    spec = GobSpec(3, Cap(1.0))
    x = np.full(3, 0.5)
    u = np.zeros(3)
    u[0] = 1.0
    t_lo, t_hi = spec.chord(x, u)
    assert (t_lo, t_hi) == pytest.approx((-0.5, 0.5), abs=1e-9)


def test_chord_preconditions():
    spec = GobSpec(3, Linear(1.0))
    with pytest.raises(ValueError):
        spec.chord(np.full(3, 0.5), np.array([1.0, 0, 0]))  # not interior
    with pytest.raises(ValueError):
        spec.chord(np.full(3, 0.1), np.zeros(3))  # zero direction


def _chord_grid_oracle(spec, x, u, span=5.0, steps=200001):
    # dense march along the line; returns feasible t range
    ts = np.linspace(-span, span, steps)
    feas = []
    for t in ts:
        y = x + t * u
        if np.all(y >= 0) and spec.total(y) <= 1.0 + TOL:
            feas.append(t)
    return feas[0], feas[-1]


def test_chord_against_grid_march():
    spec = GobSpec(3, Power(a=1.0, q=2.0))
    x = np.full(3, 0.3)
    u = np.array([2.0, -1.0, 0.5])
    u = u / np.linalg.norm(u)
    t_lo, t_hi = spec.chord(x, u)
    o_lo, o_hi = _chord_grid_oracle(spec, x, u, span=2.0, steps=400001)
    assert t_lo == pytest.approx(o_lo, abs=1e-4)
    assert t_hi == pytest.approx(o_hi, abs=1e-4)


@pytest.mark.parametrize("spec", [
    GobSpec(3, Linear(1.0)),
    GobSpec(3, Power(a=1.5, q=3.0)),
    GobSpec(3, Cap(0.8)),
    GobSpec(3, [Linear(1.0), Power(a=1.0, q=2.0),
                PiecewiseLinearConvex([(0, 0), (0.5, 0.3), (1, 1.2)])]),
])
def test_chord_endpoints_property(spec):
    rng = np.random.default_rng(99)
    x = _extents(spec) / (2.0 * spec.dim)
    for _ in range(25):
        u = rng.standard_normal(spec.dim)
        u /= np.linalg.norm(u)
        t_lo, t_hi = spec.chord(x, u)
        assert t_lo < 0 < t_hi
        eps = 1e-6 * (t_hi - t_lo)
        for t in (t_lo + eps, t_hi - eps):
            y = x + t * u
            assert np.all(y >= -1e-12)
            assert spec.total(np.clip(y, 0, None)) <= 1.0 + TOL
        for t in (t_lo - 10 * eps, t_hi + 10 * eps):
            y = x + t * u
            # outside, or on a numerically flat boundary face at the endpoint
            assert np.any(y < 0) or spec.total(np.clip(y, 0, None)) >= 1.0 - TOL


def _extents(spec):
    # the per-edge extents; a uniform spec holds its one extent 0-d
    return np.broadcast_to(spec.a, (spec.dim,))


def _bisect_ray(spec, x, v, tol=1e-14):
    # independent oracle: sup{t >= 0 : x + t*v in the box and the ball}
    def feasible(t):
        y = x + t * v
        return (np.all(y >= 0) and np.all(y <= spec.a)
                and spec.total(y) <= 1.0)
    lo, hi = 0.0, float(np.linalg.norm(_extents(spec))) + 1.0  # past the box
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.sampled_from([3, 4]),
       frac=st.floats(0.05, 0.95))
def test_chord_newton_matches_bisection(data, n, frac):
    d = n * (n - 1) // 2
    comps = data.draw(st.lists(components, min_size=d, max_size=d))
    if GobSpec(n, comps).quadratic:
        comps[0] = Power(1.0, 3.0)  # so the Newton path runs
    spec = GobSpec(n, comps)
    assert not spec.quadratic
    w = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d)))
    x = _interior_point(spec, w, frac)
    u = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    assume(np.linalg.norm(u) > 1e-3)
    u /= np.linalg.norm(u)
    assert spec.strictly_inside(x)
    t_lo, t_hi = spec.chord(x, u)
    assert t_hi == pytest.approx(_bisect_ray(spec, x, u), abs=1e-9)
    assert t_lo == pytest.approx(-_bisect_ray(spec, x, -u), abs=1e-9)


def _masked_box_limit(x, v, a):
    # the former per-direction bracket, kept as the oracle for box_bracket
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pos, neg = v > 0, v < 0
        hi = INF
        if np.any(pos):
            hi = min(hi, float(np.min((a[pos] - x[pos]) / v[pos])))
        if np.any(neg):
            hi = min(hi, float(np.min(x[neg] / -v[neg])))
    return hi


_coord = st.floats(0.0, 1.0)
_direction = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1.0, 1.0),
                       st.floats(-1e-300, 1e-300))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), d=st.integers(1, 12))
def test_box_bracket_matches_masked_formula(data, d):
    a = np.array(data.draw(st.lists(st.floats(0.1, 3.0), min_size=d, max_size=d)))
    x = a * np.array(data.draw(st.lists(_coord, min_size=d, max_size=d)))
    u = np.array(data.draw(st.lists(_direction, min_size=d, max_size=d)))
    assume(np.any(u != 0))
    lo, hi = box_bracket(x, u, a)
    assert (lo, hi) == (_masked_box_limit(x, -u, a), _masked_box_limit(x, u, a))
    if np.all(u != 0):
        # the linear chain's former formula, bit for bit
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            old_hi = np.nanmin(np.where(u > 0, (a - x) / u, x / -u))
            old_lo = np.nanmin(np.where(u < 0, (a - x) / -u, x / u))
        assert (lo, hi) == (old_lo, old_hi)


def _bits(v):
    return np.float64(v).tobytes()


@settings(max_examples=500, deadline=None)
@given(data=st.data(), d=st.integers(1, 12))
def test_box_bracket_backward_limit_bitwise_as_before(data, d):
    # the former backward limit, fmin.reduce(maximum(-A, -B)), bit for bit,
    # signed zeros included, with zeros of both signs in x and u and x on
    # both faces of the box
    a = np.array(data.draw(st.lists(st.floats(0.1, 3.0), min_size=d, max_size=d)))
    face = st.sampled_from([0.0, -0.0, 1.0]) | _coord
    x = a * np.array(data.draw(st.lists(face, min_size=d, max_size=d)))
    u = np.array(data.draw(st.lists(_direction, min_size=d, max_size=d)))
    assume(np.any(u != 0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        A = (a - x) / u
        B = -x / u
    old_lo = float(np.fmin.reduce(np.maximum(-A, -B)))
    assert _bits(box_bracket(x, u, a)[0]) == _bits(old_lo)


def test_box_bracket_ignores_zero_direction_coordinates():
    # x/-0.0 is -inf, which the former nanmin formula picked as the limit;
    # at a face of the box (x_e = 0 or a_e) a zero u_e gives 0/0 = nan
    a = np.ones(5)
    x = np.array([0.5, 0.5, 0.5, 0.0, 1.0])
    u = np.array([1.0, 0.0, -0.0, 0.0, -0.0])
    assert box_bracket(x, u, a) == (0.5, 0.5)


def _old_weight(density, g):
    # the former numpy expressions, kept as the oracle for the float weights
    g = np.asarray(g, dtype=float)
    if isinstance(density, Indicator):
        return np.where(g <= 1.0 + orlicz.MEMBERSHIP_TOL, 1.0, 0.0)
    if isinstance(density, ExponentialDecay):
        with np.errstate(over="ignore"):
            out = np.exp(-density.rate * np.minimum(g, 700.0 / density.rate))
        return np.where(np.isfinite(g), out, 0.0)
    base = np.clip(1.0 - np.where(np.isfinite(g), g, INF), 0.0, None)
    return base ** density.exponent


_WEIGHT_GRID = np.concatenate([
    [0.0, 1.0, 1.0 + 1e-13, 1.0 + 1e-11, 1.5, 2.0, 10.0, 700.0, 1e6, INF],
    np.linspace(0.0, 3.0, 601), np.geomspace(1e-12, 1.0, 200)])


@settings(max_examples=60, deadline=None)
@given(density=st.one_of(
    st.just(Indicator()),
    st.builds(ExponentialDecay, st.floats(0.01, 50.0)),
    st.builds(PowerDecay, st.floats(0.0, 8.0) | st.sampled_from([0.0, 1.0, 2.0]))))
def test_float_weight_matches_numpy_expression(density):
    new = np.array([density.weight(float(g)) for g in _WEIGHT_GRID])
    assert all(type(density.weight(float(g))) is float for g in _WEIGHT_GRID[:10])
    np.testing.assert_array_max_ulp(new, _old_weight(density, _WEIGHT_GRID), maxulp=1)


def test_chord_newton_cap_raises(monkeypatch):
    # an endpoint Newton has not reached within its cap is an error; q = 3
    # keeps the spec off the closed form
    spec = GobSpec(3, Power(1.0, 3.0))
    assert not spec.quadratic
    x, u = np.full(3, 0.2), np.ones(3) / math.sqrt(3)
    monkeypatch.setattr(orlicz, "NEWTON_STEPS", 1)
    with pytest.raises(RuntimeError, match="Newton"):
        spec.chord(x, u)
    monkeypatch.setattr(orlicz, "NEWTON_STEPS", 100)
    # 3 (0.2 + t/sqrt(3))^3 = 1
    assert spec.chord(x, u)[1] == pytest.approx(math.sqrt(3) * (3 ** (-1 / 3) - 0.2))


# one component of a quadratic ball: Linear, Cap or Power with q = 2
_quadratic_components = st.one_of(
    st.builds(Linear, st.floats(0.2, 2.0)),
    st.builds(Cap, st.floats(0.2, 2.0)),
    st.builds(Power, st.floats(0.2, 2.0), st.just(2.0)),
)


def _interior_point(spec, w, frac):
    # scale w * a to the boundary along its ray, then back inside by frac
    v = w * _extents(spec)
    return frac * _bisect_ray(spec, np.zeros(spec.dim), v) * v


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.sampled_from([3, 4]), frac=st.floats(0.05, 0.95),
       direction=st.sampled_from(["any", "no_power", "downhill", "uphill"]))
def test_chord_quadratic_matches_bisection(data, n, frac, direction):
    d = n * (n - 1) // 2
    comps = data.draw(st.lists(_quadratic_components, min_size=d, max_size=d))
    spec = GobSpec(n, comps)
    assert spec.quadratic
    w = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d)))
    x = _interior_point(spec, w, frac)
    u = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    if direction == "no_power":  # A = 0: the affine case
        u[[isinstance(c, Power) for c in comps]] = 0.0
    assume(np.linalg.norm(u) > 1e-3)
    u /= np.linalg.norm(u)
    g0, s, curv = spec.line(x, u)
    if direction == "no_power":
        assert curv == 0.0
    if (direction == "downhill" and s > 0) or (direction == "uphill" and s < 0):
        u = -u
    assert spec.strictly_inside(x)
    t_lo, t_hi = spec.chord(x, u)
    assert t_hi == pytest.approx(_bisect_ray(spec, x, u), abs=1e-9)
    assert t_lo == pytest.approx(-_bisect_ray(spec, x, -u), abs=1e-9)
    assert spec.chord(x, u, line=spec.line(x, u)) == (t_lo, t_hi)


@pytest.mark.parametrize("cap", [False, True], ids=["power", "power_and_cap"])
def test_chord_quadratic_flat_direction(cap):
    # two equal Power coordinates at equal values, u along their difference:
    # the slope is exactly 0 (the dyadic x keeps a fused multiply-add exact)
    # and the chord is symmetric
    comps = [Power(1.0, 2.0), Power(1.0, 2.0), Cap(0.9) if cap else Linear(2.0)]
    spec = GobSpec(3, comps)
    x = np.array([0.5, 0.5, 0.25])
    u = np.array([1.0, -1.0, 0.0]) / math.sqrt(2)
    g0, s, curv = spec.line(x, u)
    assert s == 0.0 and curv == pytest.approx(1.0)
    t_lo, t_hi = spec.chord(x, u)
    # g0 + t^2 = 1, cut by the box [0, 1]^2 at 0.5 sqrt(2)
    assert t_hi == -t_lo == pytest.approx(min(math.sqrt(1.0 - g0), 0.5 * math.sqrt(2)))
    assert t_hi == pytest.approx(_bisect_ray(spec, x, u), abs=1e-9)


def test_chord_quadratic_flat_line_is_the_box():
    # along a cap coordinate the slope and the curvature are both 0
    spec = GobSpec(3, [Power(1.0, 2.0), Power(1.0, 2.0), Cap(0.9)])
    x, u = np.array([0.5, 0.5, 0.25]), np.array([0.0, 0.0, 1.0])
    assert spec.line(x, u)[1:] == (0.0, 0.0)
    assert spec.chord(x, u) == pytest.approx((-0.25, 0.65))


def _affine_chord(spec, x, u):
    # the former closed form for specs with no Power and no PWL component,
    # kept as the oracle for the A = 0 case of the quadratic chord
    # (G and its slope are the spec's: a uniform spec sums u in place of
    # a dot with per-edge weights)
    lo, hi = box_bracket(x, u, spec.a)
    g, s = spec.total_and_slope(x, u)
    if s > 0:
        hi = min(hi, (1.0 - g) / s)
    elif s < 0:
        lo = min(lo, (1.0 - g) / -s)
    return -max(lo, 0.0), max(hi, 0.0)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.sampled_from([3, 4, 5]), frac=st.floats(0.05, 0.95))
def test_chord_affine_bitwise_as_before(data, n, frac):
    d = n * (n - 1) // 2
    comps = data.draw(st.lists(
        st.one_of(st.builds(Linear, st.floats(0.2, 2.0)),
                  st.builds(Cap, st.floats(0.2, 2.0))),
        min_size=d, max_size=d))
    uniform = data.draw(st.booleans())
    spec = GobSpec(n, comps[0] if uniform else comps)
    w = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d)))
    x = _interior_point(spec, w, frac)
    u = np.array(data.draw(st.lists(_direction, min_size=d, max_size=d)))
    assume(np.linalg.norm(u) > 1e-3)
    u /= np.linalg.norm(u)  # exact zeros stay
    new, old = spec.chord(x, u), _affine_chord(spec, x, u)
    assert [v.hex() for v in map(float, new)] == [v.hex() for v in map(float, old)]


@pytest.mark.parametrize("components, quadratic", [
    (Linear(1.0), True), (Cap(1.0), True), (Power(1.0, 2.0), True),
    (Power(1.0, 3.0), False), (Power(1.0, 1.0), False),
    (PiecewiseLinearConvex([(0, 0), (1, 1)]), False),
    ([Linear(1.0), Cap(0.5), Power(2.0, 2.0)], True),
    ([Linear(1.0), Power(1.0, 2.0), Power(1.0, 2.5)], False),
    ([Linear(1.0), Power(1.0, 2.0), PiecewiseLinearConvex([(0, 0), (1, 1)])], False),
])
def test_quadratic_flag(components, quadratic):
    spec = GobSpec(3, components)
    assert spec.quadratic is quadratic
    x, u = np.full(3, 0.1), np.array([0.6, -0.8, 0.0])
    g0, s, curv = spec.line(x, u)
    assert (g0, s) == spec.total_and_slope(x, u)
    assert (curv is None) is (not quadratic)


@pytest.mark.parametrize("components, affine", [
    (Linear(1.0), True), (Cap(1.0), True), ([Linear(1.0), Cap(0.5), Linear(2.0)], True),
    (Power(1.0, 2.0), False), ([Linear(1.0), Cap(0.5), Power(2.0, 2.0)], False),
    (PiecewiseLinearConvex([(0, 0), (1, 1)]), False),
])
def test_affine_flag(components, affine):
    # the quadratic specs with no Power component: curvature 0.0 on every line
    spec = GobSpec(3, components)
    assert spec.affine is affine
    if affine:
        assert spec.quadratic
        assert spec.line(np.full(3, 0.1), np.array([0.6, 0.0, 0.8]))[2] == 0.0


# ---------------------------------------------------------------------------
# ball-level queries

_SPEC_ARRAYS = ("a", "_lin_idx", "_lin_inv", "_pow_idx", "_pow_inv", "_pow_q1",
                "_pow_dinv", "_cap_idx", "_cap_a")


def _assert_same_arrays(shared, listed):
    for name in _SPEC_ARRAYS:
        a, b = getattr(shared, name, None), getattr(listed, name, None)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        else:
            assert a == b, name


@pytest.mark.parametrize("component", [
    Linear(0.7), Power(1.3, 2.5), Cap(2.0),
    PiecewiseLinearConvex([(0, 0), (1, 0.5), (2, 2)]),
], ids=["linear", "power", "cap", "pwl"])
def test_uniform_spec_arrays_equal_per_edge_build(component):
    # a uniform spec holds one component and 0-d parameters over
    # slice(None) groups; broadcast, they are the per-edge build's arrays
    shared = GobSpec(9, component)
    listed = GobSpec(9, [component] * 36)
    assert shared.uniform and not listed.uniform
    assert shared.components == [component]
    for name in _SPEC_ARRAYS:
        a, b = getattr(shared, name, None), getattr(listed, name, None)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, ()), name
            assert np.broadcast_to(a, b.shape).tobytes() == b.tobytes(), name
        else:
            assert a == b, name
    assert shared._pwl == ([(slice(None), component)] if listed._pwl else [])


@pytest.mark.parametrize("component, bitwise", [
    (Cap(0.8), True), (Power(1.3, 2.0), True), (Linear(0.7), False),
    (Power(1.3, 2.5), False), (Power(1.3, 1.5), False), (Power(1.3, 3.0), False),
    (PiecewiseLinearConvex([(0, 0), (0.5, 0.3), (1, 1.2)]), False),
], ids=["cap", "power2", "linear", "power2.5", "power1.5", "power3", "pwl"])
def test_uniform_spec_queries_match_per_edge(component, bitwise):
    # one ball as a shared component and as that component listed per
    # edge.  Cap and Power q = 2 run the same numpy expressions either
    # way; a 0-d linear weight is a sum in place of a dot, a 0-d exponent
    # of 2 or 0.5 takes numpy's scalar-power loops, and a uniform PWL is
    # summed in one pass, so those agree to rounding
    n, d = 7, 21
    shared, listed = GobSpec(n, component), GobSpec(n, [component] * d)
    rng = np.random.default_rng(17)
    ext = listed.a
    inside = ext * rng.uniform(0.01, 1.0, (8, d)) / (2 * d)  # G <= 1/2
    anywhere = ext * rng.uniform(0.0, 1.2, (8, d))  # beyond caps and ball
    units = rng.standard_normal((8, d))
    units /= np.linalg.norm(units, axis=1, keepdims=True)

    def ask(spec):
        out = list(spec.total_batch(np.vstack([inside, anywhere])))
        for x in np.vstack([inside, anywhere]):
            out += [spec.total(x), spec.strictly_inside(x)]
        for x, u in zip(inside, units):
            out += [*spec.line(x, u), *spec.chord(x, u)]
        # a curvature of None (no quadratic form) reads as nan
        return np.array([np.nan if v is None else v for v in out], dtype=float)

    got, want = ask(shared), ask(listed)
    if bitwise:
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_uniform_spec_pickles_small():
    # a scan sends its spec to every worker chunk; a uniform spec holds no
    # per-edge array, so it pickles in a few hundred bytes at any n
    assert len(pickle.dumps(GobSpec(2000, Linear(1.0)))) < 1000


@pytest.mark.parametrize("spec", [
    GobSpec(9, Linear(0.7)),
    GobSpec(9, Power(1.3, 2.5), radial_density=ExponentialDecay(1.5)),
    GobSpec(4, [Linear(1.0), Power(2.0, 3.0), Cap(0.5),
                PiecewiseLinearConvex([(0, 0), (1, 0.5), (2, 2)]),
                Linear(0.5), Power(1.0, 1.5)],
            radial_density=PowerDecay(2.0)),
], ids=["uniform", "uniform_radial", "mixed"])
def test_unpickled_spec_equals_original(spec):
    copy = pickle.loads(pickle.dumps(spec))
    assert (copy.n, copy.dim, copy.uniform) == (spec.n, spec.dim, spec.uniform)
    _assert_same_arrays(copy, spec)
    assert repr(copy.components) == repr(spec.components)
    assert repr(copy.radial_density) == repr(spec.radial_density)
    assert [k for k, _ in copy._pwl] == [k for k, _ in spec._pwl]
    x = _extents(spec) / (2.0 * spec.dim)
    u = np.linspace(-1.0, 1.0, spec.dim) + 0.1
    assert copy.chord(x, u) == spec.chord(x, u)


def test_component_count_must_match():
    with pytest.raises(ValueError):
        GobSpec(4, [Linear(1.0)] * 5)
