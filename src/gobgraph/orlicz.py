"""Generalized Orlicz balls over edge-indexed coordinates.

A ball is the set {x >= 0 : sum_e f_e(x_e) <= 1} for convex nondecreasing
components f_e with f_e(0) = 0.  Geometric queries (membership, chords,
per-coordinate extents) back the samplers and experiments.
"""

import math

import numpy as np

from .edges import edge_count

INF = math.inf

MEMBERSHIP_TOL = 1e-12
CHORD_TOL = 1e-10


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

    def value(self, t):
        _check_nonneg(t)
        return (np.asarray(t, dtype=float) / self.a) ** self.q

    def inverse_at_one(self):
        return self.a

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

    def value(self, t):
        _check_nonneg(t)
        return np.asarray(t, dtype=float) / self.a

    def inverse_at_one(self):
        return self.a

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

    def value(self, t):
        _check_nonneg(t)
        t = np.asarray(t, dtype=float)
        out = np.where(t <= self.a, 0.0, INF)
        return out if out.ndim else float(out)

    def inverse_at_one(self):
        return self.a

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

    def inverse_at_one(self):
        return self.inverse_at(1.0)

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


def eval_component(f, t):
    """Evaluate a component at t >= 0 (+inf is a legal value)."""
    return f.value(t)


def inverse_at_one(f):
    """The extent sup{t > 0 : f(t) <= 1} of a component."""
    return f.inverse_at_one()


# ---------------------------------------------------------------------------
# radial densities h(sum f_e(x_e)) on the ball (Indicator = uniform law)

class Indicator:
    """h = 1 on [0, 1]: the uniform law on the ball."""

    def weight(self, g):
        g = np.asarray(g, dtype=float)
        out = np.where(g <= 1.0 + MEMBERSHIP_TOL, 1.0, 0.0)
        return out if out.ndim else float(out)

    def __repr__(self):
        return "Indicator()"


class ExponentialDecay:
    """h(u) = exp(-rate * u), rate > 0."""

    def __init__(self, rate):
        if not rate > 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)

    def weight(self, g):
        g = np.asarray(g, dtype=float)
        with np.errstate(over="ignore"):
            out = np.exp(-self.rate * np.minimum(g, 700.0 / self.rate))
        out = np.where(np.isfinite(g), out, 0.0)
        return out if out.ndim else float(out)

    def __repr__(self):
        return f"ExponentialDecay(rate={self.rate})"


class PowerDecay:
    """h(u) = (1 - u)_+^m, m >= 0."""

    def __init__(self, exponent):
        if not exponent >= 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        self.exponent = float(exponent)

    def weight(self, g):
        g = np.asarray(g, dtype=float)
        base = np.clip(1.0 - np.where(np.isfinite(g), g, INF), 0.0, None)
        out = base ** self.exponent
        return out if out.ndim else float(out)

    def __repr__(self):
        return f"PowerDecay(exponent={self.exponent})"


# ---------------------------------------------------------------------------

class GobSpec:
    """A generalized Orlicz ball over the C(n,2) edge coordinates.

    `components` is either a single component (applied uniformly to every
    edge) or a sequence of length n(n-1)/2 in canonical edge order.  The
    optional `radial_density` reweights the uniform law on the ball.
    """

    def __init__(self, n, components, radial_density=None):
        self.n = int(n)
        self.dim = edge_count(self.n)
        self.radial_density = radial_density or Indicator()

        if isinstance(components, (list, tuple)):
            comps = list(components)
            if len(comps) != self.dim:
                raise ValueError(
                    f"need {self.dim} components for n={self.n}, got {len(comps)}"
                )
            self.uniform = False
        else:
            comps = [components] * self.dim
            self.uniform = True
        self.components = comps

        self.a = np.array([c.inverse_at_one() for c in comps])
        if not np.all(np.isfinite(self.a)):
            raise ValueError("every component must have a finite extent")

        self._build_groups()

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
            return slice(None) if len(idx) == self.dim else np.array(idx, dtype=np.intp)

        self._lin_idx = pack(lin) if lin else None
        if lin:
            self._lin_inv = 1.0 / np.array([self.components[k].a for k in lin])
        self._pow_idx = pack(powr) if powr else None
        if powr:
            self._pow_inv = 1.0 / np.array([self.components[k].a for k in powr])
            self._pow_q = np.array([self.components[k].q for k in powr])
        self._cap_idx = pack(cap) if cap else None
        if cap:
            self._cap_a = np.array([self.components[k].a for k in cap])
        self._pwl = [(k, self.components[k]) for k in pwl]

    # -- geometric queries --------------------------------------------------

    def aspect_ratio(self):
        """max extent / min extent (recorded as metadata, never enforced)."""
        return float(self.a.max() / self.a.min())

    def m_bound(self):
        """Upper bound max_e a_e^2 for the conditional second moment."""
        return float(np.max(self.a) ** 2)

    def total(self, x):
        """sum_e f_e(x_e); saturates at +inf."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {x.shape}")
        s = 0.0
        if self._cap_idx is not None:
            if np.any(x[self._cap_idx] > self._cap_a):
                return INF
        if self._lin_idx is not None:
            s += float(x[self._lin_idx] @ self._lin_inv)
        if self._pow_idx is not None:
            s += float(np.sum((x[self._pow_idx] * self._pow_inv) ** self._pow_q))
        for k, c in self._pwl:
            s += float(c.value(x[k]))
        return s

    def total_batch(self, X):
        """sum_e f_e(x_e) for each row of an (m, dim) array."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected shape (m, {self.dim}), got {X.shape}")
        s = np.zeros(X.shape[0])
        if self._lin_idx is not None:
            s += X[:, self._lin_idx] @ self._lin_inv
        if self._pow_idx is not None:
            # one temporary, powered in place: see samplers._draw_on_chord
            P = X[:, self._pow_idx] * self._pow_inv
            P **= self._pow_q
            s += np.sum(P, axis=1)
        for k, c in self._pwl:
            s += c.value(X[:, k])
        if self._cap_idx is not None:
            bad = np.any(X[:, self._cap_idx] > self._cap_a, axis=1)
            s = np.where(bad, INF, s)
        return s

    def membership(self, x):
        """Classify x against the ball: 'inside', 'boundary' or 'outside'.

        Points with a negative coordinate lie outside the orthant and are
        classified 'outside'.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {x.shape}")
        if np.any(x < 0):
            return "outside"
        s = self.total(x)
        if s < 1.0 - MEMBERSHIP_TOL:
            return "inside"
        if s <= 1.0 + MEMBERSHIP_TOL:
            return "boundary"
        return "outside"

    def strictly_inside(self, x, margin=MEMBERSHIP_TOL):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            return False
        if self._cap_idx is not None and np.any(x[self._cap_idx] >= self._cap_a):
            return False
        return self.total(x) < 1.0 - margin

    def _feasible(self, y):
        if np.any(y < -MEMBERSHIP_TOL):
            return False
        if np.any(y > self.a + MEMBERSHIP_TOL):
            return False
        return self.total(np.clip(y, 0.0, None)) <= 1.0 + MEMBERSHIP_TOL

    def chord(self, x, u, tol=CHORD_TOL):
        """Maximal interval [t_lo, t_hi] with x + t*u inside ball and orthant.

        Requires x strictly interior; then t_lo < 0 < t_hi.  Endpoints are
        exact when all non-cap components are linear, else located by
        bisection on the convex map t -> sum f_e((x + t*u)_e).
        """
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if x.shape != (self.dim,) or u.shape != (self.dim,):
            raise ValueError("dimension mismatch")
        if not np.any(u):
            raise ValueError("direction must be nonzero")
        if not self.strictly_inside(x):
            raise ValueError("chord requires a strictly interior start point")

        linear_only = self._pow_idx is None and not self._pwl
        g0 = self.total(x) if linear_only else None

        t_hi = self._ray_limit(x, u, tol, linear_only, g0)
        t_lo = -self._ray_limit(x, -u, tol, linear_only, g0)
        return t_lo, t_hi

    def _ray_limit(self, x, v, tol, linear_only, g0):
        # coordinate box [0, a] bounds the ball, so it brackets the endpoint
        with np.errstate(divide="ignore", invalid="ignore"):
            pos = v > 0
            neg = v < 0
            hi = INF
            if np.any(pos):
                hi = min(hi, float(np.min((self.a[pos] - x[pos]) / v[pos])))
            if np.any(neg):
                hi = min(hi, float(np.min(x[neg] / -v[neg])))
        if not np.isfinite(hi):
            raise RuntimeError("ray is unbounded; ball extents should prevent this")

        if linear_only:
            slope = 0.0
            if self._lin_idx is not None:
                slope = float(v[self._lin_idx] @ self._lin_inv)
            if slope > 0:
                hi = min(hi, (1.0 - g0) / slope)
            return max(hi, 0.0)

        if self._feasible(x + hi * v):
            return hi
        lo = 0.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if self._feasible(x + mid * v):
                lo = mid
            else:
                hi = mid
        return lo


def membership(spec, x):
    return spec.membership(x)


def chord(spec, x, u, tol=CHORD_TOL):
    return spec.chord(x, u, tol=tol)


def m_bound(spec):
    return spec.m_bound()
