import math

import numpy as np
import pytest

from gobgraph import (Cap, GobSpec, Linear, PiecewiseLinearConvex, Power,
                      eval_component, inverse_at_one)

INF = math.inf


# ---------------------------------------------------------------------------
# component evaluation

def test_eval_power():
    assert eval_component(Power(a=2, q=3), 2.0) == pytest.approx(1.0)


def test_eval_linear_zero():
    assert eval_component(Linear(a=0.5), 0.0) == 0.0


def test_eval_cap_beyond():
    assert eval_component(Cap(a=1.0), 1.5) == INF


def test_eval_negative_rejected():
    for f in (Power(1, 2), Linear(1), Cap(1),
              PiecewiseLinearConvex([(0, 0), (1, 1)])):
        with pytest.raises(ValueError):
            f.value(-0.1)


def test_construction_validation():
    with pytest.raises(ValueError):
        Power(a=0, q=2)
    with pytest.raises(ValueError):
        Power(a=1, q=0.5)
    with pytest.raises(ValueError):
        Linear(a=-1)
    with pytest.raises(ValueError):
        Cap(a=0)


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
# inverse_at_one

def test_inverse_at_one_exact_kinds():
    assert inverse_at_one(Power(a=2, q=3)) == 2.0
    assert inverse_at_one(Linear(a=0.5)) == 0.5
    assert inverse_at_one(Cap(a=1.0)) == 1.0


def _bisect_inverse(f, lo=0.0, hi=1e6, tol=1e-13):
    # independent oracle: bisection on sup{t : f(t) <= 1}
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if f.value(mid) <= 1.0:
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
    assert f.inverse_at_one() == pytest.approx(_bisect_inverse(f), rel=1e-10)


def test_inverse_scaling_law():
    # replacing f(t) by f(t/s) multiplies the extent by s
    for s in (0.5, 2.0, 7.0):
        assert inverse_at_one(Linear(a=1.3 * s)) == pytest.approx(1.3 * s)
        assert inverse_at_one(Power(a=1.3 * s, q=3)) == pytest.approx(
            s * inverse_at_one(Power(a=1.3, q=3)))
        assert inverse_at_one(Cap(a=0.4 * s)) == pytest.approx(
            s * inverse_at_one(Cap(a=0.4)))


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
    v = np.asarray(f.value(t))
    mid = np.asarray(f.value(0.5 * (t[:-1] + t[1:])))
    finite = np.isfinite(v[:-1]) & np.isfinite(v[1:])
    assert np.all(mid[finite] <= 0.5 * (v[:-1] + v[1:])[finite] + 1e-9)


def test_cap_midpoint_convexity_where_finite():
    f = Cap(a=1.0)
    t = np.linspace(0, 1, 50)
    assert np.all(np.asarray(f.value(t)) == 0.0)


# ---------------------------------------------------------------------------
# membership

def test_membership_examples():
    spec = GobSpec(3, Linear(1.0))
    assert spec.membership(np.array([0.2, 0.3, 0.4])) == "inside"
    assert spec.membership(np.array([0.5, 0.5, 0.5])) == "outside"
    box = GobSpec(3, Cap(1.0))
    assert box.membership(np.array([1.0, 1.0, 1.0])) in ("inside", "boundary")


def test_membership_dimension_mismatch():
    spec = GobSpec(3, Linear(1.0))
    with pytest.raises(ValueError):
        spec.membership(np.array([0.1, 0.2]))


def test_membership_negative_coordinate_is_outside():
    spec = GobSpec(3, Linear(1.0))
    assert spec.membership(np.array([-0.1, 0.1, 0.1])) == "outside"


def test_membership_down_closed():
    # if y is inside and 0 <= x <= y coordinate-wise, x is inside
    rng = np.random.default_rng(7)
    spec = GobSpec(4, Power(a=1.0, q=2.0))
    for _ in range(200):
        y = rng.uniform(0, 0.5, size=spec.dim)
        if spec.membership(y) != "inside":
            continue
        x = y * rng.uniform(0, 1, size=spec.dim)
        assert spec.membership(x) == "inside"


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
        if np.all(y >= 0) and spec.membership(np.clip(y, 0, None)) != "outside":
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
    x = spec.a / (2.0 * spec.dim)
    for _ in range(25):
        u = rng.standard_normal(spec.dim)
        u /= np.linalg.norm(u)
        t_lo, t_hi = spec.chord(x, u)
        assert t_lo < 0 < t_hi
        eps = 1e-6 * (t_hi - t_lo)
        for t in (t_lo + eps, t_hi - eps):
            y = x + t * u
            assert np.all(y >= -1e-12)
            assert spec.membership(np.clip(y, 0, None)) in ("inside", "boundary")
        for t in (t_lo - 10 * eps, t_hi + 10 * eps):
            y = x + t * u
            outside = np.any(y < 0) or spec.membership(np.clip(y, 0, None)) == "outside"
            # endpoint may coincide with a numerically flat boundary face
            assert outside or spec.membership(np.clip(y, 0, None)) == "boundary"


# ---------------------------------------------------------------------------
# ball-level queries

def test_m_bound_examples():
    assert GobSpec(3, Power(a=1.0, q=2.0)).m_bound() == pytest.approx(1.0)
    mixed = GobSpec(3, [Linear(0.5), Power(a=2.0, q=3.0), Linear(0.5)])
    assert mixed.m_bound() == pytest.approx(4.0)
    assert GobSpec(3, Cap(3.0)).m_bound() == pytest.approx(9.0)


def test_aspect_ratio_metadata():
    mixed = GobSpec(3, [Linear(0.5), Power(a=2.0, q=3.0), Linear(0.5)])
    assert mixed.aspect_ratio() == pytest.approx(4.0)


def test_component_count_must_match():
    with pytest.raises(ValueError):
        GobSpec(4, [Linear(1.0)] * 5)
