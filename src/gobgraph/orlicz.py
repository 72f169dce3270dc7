"""Generalized Orlicz balls over edge-indexed coordinates.

A ball is the set {x >= 0 : sum_e f_e(x_e) <= 1} for convex nondecreasing
components f_e with f_e(0) = 0.  Geometric queries (G itself, chords,
per-coordinate extents) back the samplers and experiments.  The sum G and
its directional slope are evaluated by component kind in one grouped pass
(`GobSpec.total`, `GobSpec.total_and_slope`).  When no component is
piecewise linear and every Power component has q = 2, G restricted to a
line is a polynomial of degree at most 2 inside the coordinate box
(`GobSpec.quadratic`, `GobSpec.line`), and chord endpoints come from the
quadratic formula; otherwise from Newton's method on the convex map
t -> G(x + t*u).
"""

import math

import numpy as np

from .edges import edge_count

INF = math.inf

MEMBERSHIP_TOL = 1e-12
CHORD_TOL = 1e-10
NEWTON_STEPS = 100  # cap on Newton iterations per chord endpoint


def _check_nonneg(t):
    if np.any(np.asarray(t) < 0):
        raise ValueError("component argument must be nonnegative")


class Power:
    """f(t) = (t/a)^q with a > 0, q >= 1."""

    def __init__(self, a, q):
        if not a > 0:
            raise ValueError(f"scale a must be positive, got {a}")
        if not q >= 1:
            raise ValueError(f"exponent q must be >= 1, got {q}")
        self.a = float(a)
        self.q = float(q)

    def inverse_at(self, level):
        # sup{t : f(t) <= level}
        return self.a * level ** (1.0 / self.q)

    def __repr__(self):
        return f"Power(a={self.a}, q={self.q})"


class Linear:
    """f(t) = t/a with a > 0."""

    def __init__(self, a):
        if not a > 0:
            raise ValueError(f"scale a must be positive, got {a}")
        self.a = float(a)

    def inverse_at(self, level):
        return self.a * level

    def __repr__(self):
        return f"Linear(a={self.a})"


class Cap:
    """f(t) = 0 on [0, a], +inf beyond: a hard per-coordinate cap."""

    def __init__(self, a):
        if not a > 0:
            raise ValueError(f"cap a must be positive, got {a}")
        self.a = float(a)

    def inverse_at(self, level):
        if level < 0:
            raise ValueError("level must be nonnegative")
        return self.a

    def __repr__(self):
        return f"Cap(a={self.a})"


class PiecewiseLinearConvex:
    """Piecewise-linear convex component given by (t, value) breakpoints.

    The first breakpoint must be (0, 0), values and slopes must be
    nondecreasing, and the final slope must be positive (so the extent
    sup{t : f(t) <= 1} is finite).  Beyond the last breakpoint the final
    slope is extrapolated.
    """

    def __init__(self, breakpoints):
        pts = [(float(t), float(v)) for t, v in breakpoints]
        if len(pts) < 2:
            raise ValueError("need at least two breakpoints")
        t = np.array([p[0] for p in pts])
        v = np.array([p[1] for p in pts])
        if t[0] != 0.0 or v[0] != 0.0:
            raise ValueError("first breakpoint must be (0, 0)")
        if np.any(np.diff(t) <= 0):
            raise ValueError("breakpoint abscissas must be strictly increasing")
        if np.any(np.diff(v) < 0):
            raise ValueError("breakpoint values must be nondecreasing")
        slopes = np.diff(v) / np.diff(t)
        if np.any(np.diff(slopes) < -1e-12):
            raise ValueError("slopes must be nondecreasing (convexity)")
        if slopes[-1] <= 0:
            raise ValueError("final slope must be positive (extent would be infinite)")
        self._t = t
        self._v = v
        self._slopes = slopes

    def value(self, t):
        _check_nonneg(t)
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self._t, self._v)
        beyond = t > self._t[-1]
        if np.any(beyond):
            out = np.where(
                beyond, self._v[-1] + self._slopes[-1] * (t - self._t[-1]), out
            )
        return out if out.ndim else float(out)

    def slope(self, t):
        """Right-hand slope at t >= 0, a scalar or an array (the final
        slope beyond the last breakpoint)."""
        k = np.searchsorted(self._t, t, side="right") - 1
        return self._slopes[np.minimum(k, len(self._slopes) - 1)]

    def inverse_at(self, level):
        # Exact crossing of the piecewise-linear graph with the given level;
        # on a flat run equal to the level, the supremum is its right end.
        if level < 0:
            raise ValueError("level must be nonnegative")
        if level >= self._v[-1]:
            return self._t[-1] + (level - self._v[-1]) / self._slopes[-1]
        k = int(np.searchsorted(self._v, level, side="right")) - 1
        # value first exceeds `level` inside segment k
        if self._slopes[k] == 0:
            return self._t[k + 1]
        return self._t[k] + (level - self._v[k]) / self._slopes[k]

    def __repr__(self):
        pts = list(zip(self._t.tolist(), self._v.tolist()))
        return f"PiecewiseLinearConvex({pts})"


# ---------------------------------------------------------------------------
# radial densities h(sum f_e(x_e)) on the ball (Indicator = uniform law);
# `weight` takes and returns a Python float, the sampler's hot path

class Indicator:
    """h = 1 on [0, 1]: the uniform law on the ball."""

    def weight(self, g):
        return 1.0 if g <= 1.0 + MEMBERSHIP_TOL else 0.0

    def __repr__(self):
        return "Indicator()"


class ExponentialDecay:
    """h(u) = exp(-rate * u), 0 < rate < inf."""

    def __init__(self, rate):
        if not 0 < rate < INF:
            raise ValueError(f"rate must be positive and finite, got {rate}")
        self.rate = float(rate)

    def weight(self, g):
        if not math.isfinite(g):
            return 0.0
        return math.exp(-self.rate * min(g, 700.0 / self.rate))

    def __repr__(self):
        return f"ExponentialDecay(rate={self.rate})"


class PowerDecay:
    """h(u) = (1 - u)_+^m, m >= 0."""

    def __init__(self, exponent):
        if not exponent >= 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        self.exponent = float(exponent)

    def weight(self, g):
        base = max(1.0 - g, 0.0) if math.isfinite(g) else 0.0
        return base ** self.exponent

    def __repr__(self):
        return f"PowerDecay(exponent={self.exponent})"


# ---------------------------------------------------------------------------

class GobSpec:
    """A generalized Orlicz ball over the C(n,2) edge coordinates.

    `components` is either a single component (applied uniformly to every
    edge) or a sequence of length n(n-1)/2 in canonical edge order.  The
    optional `radial_density` reweights the uniform law on the ball.
    `self.components` lists the shared component of a uniform spec once,
    and otherwise every edge's component in edge order.  A uniform
    spec keeps its parameters (`a` and the grouped ones) as 0-d float64
    values over `slice(None)` groups, so it costs O(1) memory at any n;
    they broadcast through the same numpy expressions as a per-edge
    spec's (d,) arrays.
    """

    def __init__(self, n, components, radial_density=None):
        self.n = int(n)
        self.dim = edge_count(self.n)
        self.radial_density = radial_density or Indicator()

        self.uniform = not isinstance(components, (list, tuple))
        if self.uniform:
            self.components = [components]
        else:
            self.components = list(components)
            if len(self.components) != self.dim:
                raise ValueError(f"need {self.dim} components for n={self.n}, "
                                 f"got {len(self.components)}")

        self.a = self._per_edge(range(len(self.components)),
                                lambda c: c.inverse_at(1.0))
        if not np.all(np.isfinite(self.a)):
            raise ValueError("every component must have a finite extent")

        self._build_groups()

    def _per_edge(self, idx, value):
        # value(c) for the components at positions idx; for a uniform spec
        # one 0-d array, which numpy takes as an operand faster than a
        # numpy scalar
        values = np.array([value(self.components[k]) for k in idx], dtype=float)
        return values.reshape(()) if self.uniform else values

    def _build_groups(self):
        lin, powr, cap, pwl = [], [], [], []
        for k, c in enumerate(self.components):
            if isinstance(c, Linear):
                lin.append(k)
            elif isinstance(c, Power):
                powr.append(k)
            elif isinstance(c, Cap):
                cap.append(k)
            elif isinstance(c, PiecewiseLinearConvex):
                pwl.append(k)
            else:
                raise TypeError(f"unknown component type: {type(c)!r}")

        def pack(idx):
            # full coverage -> slice, avoids fancy-index copies in hot paths
            if self.uniform or len(idx) == self.dim:
                return slice(None)
            return np.array(idx, dtype=np.intp)

        self._lin_idx = pack(lin) if lin else None
        if lin:
            self._lin_inv = self._per_edge(lin, lambda c: 1.0 / c.a)
        self._pow_idx = pack(powr) if powr else None
        if powr:
            self._pow_inv = self._per_edge(powr, lambda c: 1.0 / c.a)
            # d/dy (y/a)^q = (q/a) (y/a)^(q-1)
            self._pow_q1 = self._per_edge(powr, lambda c: c.q - 1.0)
            self._pow_dinv = self._per_edge(powr, lambda c: c.q * (1.0 / c.a))
        self._cap_idx = pack(cap) if cap else None
        if cap:
            self._cap_a = self._per_edge(cap, lambda c: c.a)
        # (coordinates, component): every edge for a uniform spec, else one
        self._pwl = [(slice(None) if self.uniform else slice(k, k + 1),
                      self.components[k]) for k in pwl]
        # no PWL component and every Power a square: G along any line is
        # g0 + s*t + A*t^2 inside the coordinate box; with no Power
        # component either, A = 0 and G is affine there
        self.quadratic = not pwl and all(
            c.q == 2.0 for c in self.components if isinstance(c, Power))
        self.affine = not pwl and not powr

    # -- geometric queries --------------------------------------------------

    def total(self, x):
        """sum_e f_e(x_e); saturates at +inf."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {x.shape}")
        if self._cap_idx is not None and (x[self._cap_idx] > self._cap_a).any():
            return INF
        return self.total_and_slope(x)[0]

    def total_and_slope(self, y, v=None):
        """G(y) = sum_e f_e(y_e), and the slope of t -> G(y + t*v) at t = 0.

        One grouped pass per component kind.  The slope of each term is
        v_e times: 1/a (Linear), q/a (y/a)^(q-1) (Power), the right-hand
        segment slope (PWL) and 0 (Cap); the sum is a subgradient of the
        convex map t -> G(y + t*v).  Caps are not checked: y must lie in
        the orthant and inside every cap, where a cap adds 0.  The slope is
        0.0 when v is None.
        """
        g = slope = 0.0
        if self._lin_idx is not None:
            g += float(_weighted_sum(y[self._lin_idx], self._lin_inv))
            if v is not None:
                slope += float(_weighted_sum(v[self._lin_idx], self._lin_inv))
        if self._pow_idx is not None:
            z = y[self._pow_idx] * self._pow_inv
            zq1 = z ** self._pow_q1
            g += float(z @ zq1)
            if v is not None:
                slope += float((v[self._pow_idx] * self._pow_dinv) @ zq1)
        for idx, c in self._pwl:
            g += float(c.value(y[idx]).sum())
            if v is not None:
                slope += float(c.slope(y[idx]) @ v[idx])
        return g, slope

    def line(self, x, u):
        """G along the line x + t*u: (G(x), its slope at t = 0, curvature).

        One `total_and_slope` pass.  On a quadratic spec the curvature is
        A = sum over the Power coordinates of (u_e/a_e)^2, so that
        G(x + t*u) = G(x) + slope*t + A*t^2 inside the coordinate box (0.0
        on an affine spec); on every other spec it is None.  x must lie in
        the orthant and inside every cap.
        """
        g, slope = self.total_and_slope(x, u)
        if self.affine:
            return g, slope, 0.0
        if not self.quadratic:
            return g, slope, None
        w = u[self._pow_idx] * self._pow_inv
        return g, slope, float(w @ w)

    def total_batch(self, X):
        """sum_e f_e(x_e) for each row of an (m, dim) array."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected shape (m, {self.dim}), got {X.shape}")
        s = np.zeros(X.shape[0])
        if self._lin_idx is not None:
            s += _weighted_sum(X[:, self._lin_idx], self._lin_inv)
        if self._pow_idx is not None:
            # z * z^(q-1), as in total_and_slope: numpy's loops for a 0-d
            # exponent of 2 or 0.5 differ in the last bit from its array pow
            P = X[:, self._pow_idx] * self._pow_inv
            s += np.sum(P ** self._pow_q1 * P, axis=1)
        for idx, c in self._pwl:
            s += c.value(X[:, idx]).sum(axis=1)
        if self._cap_idx is not None:
            bad = np.any(X[:, self._cap_idx] > self._cap_a, axis=1)
            s = np.where(bad, INF, s)
        return s

    def _in_open_box(self, x):
        # every coordinate positive and strictly below its cap
        if not x.min() > 0:
            return False
        return self._cap_idx is None or not (x[self._cap_idx] >= self._cap_a).any()

    def strictly_inside(self, x, margin=MEMBERSHIP_TOL):
        x = np.asarray(x, dtype=float)
        return self._in_open_box(x) and self.total(x) < 1.0 - margin

    def chord(self, x, u, tol=CHORD_TOL, line=None):
        """Maximal interval [t_lo, t_hi] with x + t*u inside ball and orthant.

        Requires x strictly interior; then t_lo < 0 < t_hi.  `line` is
        `self.line(x, u)`, computed here when absent, so a caller that
        needs G(x) and its slope as well evaluates G at x only once.  One
        pass of `box_bracket` gives the limits of the coordinate box
        [0, a] in both directions, which bracket the ball.

        On a quadratic spec G(x + t*u) = g0 + s*t + A*t^2 inside the box,
        and each endpoint is the root of g0 + s*t + A*t^2 = 1 on its side,
        in the form free of cancellation (2(1 - g0)/(s + r) or
        (r - s)/(2A) forward, r = sqrt(s^2 + 4A(1 - g0))), cut by the box
        limit.  With A = 0 it is (1 - g0)/|s| on the side s points to.
        Otherwise each endpoint is found by Newton's method on
        phi(t) = G(x + t*u) - 1, started at the box limit or the root of
        the tangent g0 + s*t = 1, whichever is nearer.  Where phi <= 0 at
        the start, that is the box limit and the endpoint.  Otherwise phi,
        being convex, lies above its tangent, so its root is at or before
        both starts, and from a point where phi > 0 the iterates fall
        monotonically to the root without passing it, and need no
        bisection fallback.  Iteration stops after the first step of at
        most `tol`; Newton's quadratic convergence leaves the endpoint far
        closer to the boundary than that.  A search that has not converged
        after NEWTON_STEPS iterations raises RuntimeError.
        """
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if x.shape != (self.dim,) or u.shape != (self.dim,):
            raise ValueError("dimension mismatch")
        if not u.any():
            raise ValueError("direction must be nonzero")
        if not self._in_open_box(x):
            raise ValueError("chord requires a strictly interior start point")
        g0, s, curv = self.line(x, u) if line is None else line
        if not g0 < 1.0 - MEMBERSHIP_TOL:
            raise ValueError("chord requires a strictly interior start point")

        lo, hi = box_bracket(x, u, self.a)
        if not (lo < INF and hi < INF):
            raise RuntimeError("ray is unbounded; ball extents should prevent this")

        room = 1.0 - g0
        if curv is not None and curv > 0.0:
            r = math.sqrt(s * s + 4.0 * curv * room)
            if s >= 0.0:
                hi = min(hi, 2.0 * room / (s + r))
                lo = min(lo, (s + r) / (2.0 * curv))
            else:
                hi = min(hi, (r - s) / (2.0 * curv))
                lo = min(lo, 2.0 * room / (r - s))
        # the root of the tangent g0 + s*t = 1: the endpoint where G is
        # affine along the line, and at or beyond the endpoint elsewhere
        elif s > 0:
            hi = min(hi, room / s)
        elif s < 0:
            lo = min(lo, room / -s)
        if curv is not None:
            return -max(lo, 0.0), max(hi, 0.0)

        t_hi = self._newton_limit(x, u, hi, tol)
        t_lo = -self._newton_limit(x, -u, lo, tol)
        return t_lo, t_hi

    def _newton_limit(self, x, v, t, tol):
        # sup{t >= 0 : G(x + t*v) <= 1}, by Newton's method from t, which
        # is the answer when G <= 1 there and lies beyond it otherwise
        for _ in range(NEWTON_STEPS):
            y = x + t * v
            np.maximum(y, 0.0, out=y)
            g, slope = self.total_and_slope(y, v)
            excess = g - 1.0
            if excess <= 0.0:
                return t
            if not slope > 0.0:
                break  # impossible for convex G with G(x) < 1, unless G(y) is nan
            step = excess / slope
            t -= step
            if step <= tol:
                return t
        raise RuntimeError(
            f"Newton chord search did not converge in {NEWTON_STEPS} steps "
            f"(t={t!r}, G-1={excess!r}, slope={slope!r})")


def _weighted_sum(x, w):
    # x @ w over the last axis; a 0-d w is the weight every coordinate shares
    return x @ w if w.ndim else x.sum(axis=-1) * w


def box_bracket(x, u, a):
    """Limits (lo, hi) >= 0 with x + t*u in the box [0, a] for t in [-lo, hi].

    With A = (a - x)/u and B = -x/u, coordinate e bounds the forward
    step by max(A_e, B_e) (the face u_e points to) and the backward step
    by max(-A_e, -B_e) = -min(A_e, B_e), so the backward limit is the
    negated nan-skipping maximum of the minima.  A zero u_e makes A_e and
    B_e infinite with opposite signs, so their maximum is +inf and their
    minimum -inf, or makes one of them nan (x_e at 0 or a_e), which the
    nan-skipping reductions drop: either way the coordinate bounds
    neither step.  Each limit equals the per-direction quotient bit for
    bit, since -x/u == x/(-u) in IEEE arithmetic.  x must be finite and
    lie in [0, a]; a is per-edge, or 0-d for a uniform spec.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        A = (a - x) / u
        B = -x / u
    return (-float(np.fmax.reduce(np.minimum(A, B))),
            float(np.fmin.reduce(np.maximum(A, B))))
