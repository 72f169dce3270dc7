"""Closed forms that the benchmark checks gobgraph's outputs against.

Nothing here imports gobgraph: every value is derived from the laws
themselves, so a fault in the program cannot hide in its own check.

Uniform simplex: X is uniform on {x >= 0 : sum_e x_e <= 1} in R^d.  For
any index set S and thresholds s_i >= 0, shifting x_i -> x_i - s_i maps
{X_i > s_i, i in S} onto a simplex scaled by (1 - sum s_i), so

    P(X_i > s_i, i in S) = (1 - sum_i s_i)_+^d.

Mixed moments follow from the Dirichlet(1, ..., 1) law of
(X_1, ..., X_d, 1 - sum X):  E prod X_i^{k_i} = d! prod k_i! / (d + sum k_i)!.
"""

import math

import numpy as np
from scipy import integrate, special, stats


def simplex_tail(total, d):
    """P(X_i > s_i for i in S) on the uniform d-simplex, total = sum s_i."""
    return max(0.0, 1.0 - total) ** d


def isolated_count_moments(n, p):
    """Mean and variance of the isolated-vertex count of the threshold graph
    {e : X_e <= p} when X is uniform on the simplex over the C(n, 2) edges.

    A vertex is isolated when its n - 1 incident edges exceed p; two
    vertices are both isolated when their 2n - 3 incident edges do.
    """
    d = n * (n - 1) // 2
    p1 = simplex_tail((n - 1) * p, d)
    p2 = simplex_tail((2 * n - 3) * p, d)
    mean = n * p1
    var = n * p1 + n * (n - 1) * p2 - mean * mean
    return mean, max(var, 0.0)


def has_isolated_bounds(n, p):
    """Bonferroni bounds (lower, upper) on P(some vertex is isolated)."""
    d = n * (n - 1) // 2
    p1 = simplex_tail((n - 1) * p, d)
    p2 = simplex_tail((2 * n - 3) * p, d)
    s1 = n * p1
    s2 = math.comb(n, 2) * p2
    return max(p1, s1 - s2), min(1.0, s1)


def beta1d_moment(k, d):
    """E X^k for X ~ Beta(1, d), the law of one simplex coordinate:
    k! d! / (d + k)!  (E X^2 = 2/((d+1)(d+2)), E X^4 = 24/((d+1)...(d+4)))."""
    return math.factorial(k) / math.prod(range(d + 1, d + k + 1))


def simplex_square_pair_moment(d):
    """E X_e^2 X_f^2 for two distinct coordinates of the uniform d-simplex."""
    return 4.0 / math.prod(range(d + 1, d + 5))


def nc_joint(s_total, t_total, d):
    """P(X_I > s, X_J > t) for disjoint I, J on the uniform d-simplex."""
    return simplex_tail(s_total + t_total, d)


def nc_product(s_total, t_total, d):
    """P(X_I > s) P(X_J > t) on the uniform d-simplex."""
    return simplex_tail(s_total, d) * simplex_tail(t_total, d)


def pilot_sigma_se(d, draws):
    """Standard error of sqrt(sum_{draws, e} X_e^2 / (draws d)), the root
    mean square coordinate of `draws` uniform simplex points (delta method)."""
    m2 = beta1d_moment(2, d)
    second = d * beta1d_moment(4, d) + d * (d - 1) * simplex_square_pair_moment(d)
    var_row = second - (d * m2) ** 2        # Var(sum_e X_e^2) for one draw
    var_mean = var_row / (draws * d * d)    # Var of the mean square
    return math.sqrt(var_mean) / (2.0 * math.sqrt(m2))


def radial_law_pdf(u, d, q, h):
    """Unnormalized density of G(X) = sum_e (x_e/a)^q when X has density
    proportional to h(G(x)) on the q-homogeneous ball {G <= 1}: the level
    set {G = u} has (d-1)-volume proportional to u^{d/q - 1}."""
    u = np.asarray(u, dtype=float)
    return u ** (d / q - 1.0) * h(u)


def radial_law_cdf(u, d, q, h):
    """CDF of G(X) on [0, 1] by numerical integration of radial_law_pdf."""
    norm = integrate.quad(lambda v: radial_law_pdf(v, d, q, h), 0.0, 1.0)[0]
    part = integrate.quad(lambda v: radial_law_pdf(v, d, q, h), 0.0, float(u))[0]
    return part / norm


def radial_exponential_cdf(u, d, q, rate):
    """CDF of G(X) for h(u) = exp(-rate u): Gamma(d/q, rate) truncated at 1."""
    a = d / q
    return special.gammainc(a, rate * np.clip(u, 0.0, 1.0)) / special.gammainc(a, rate)


def bonferroni_z(alpha, tests):
    """Two-sided normal critical value at family-wise level alpha."""
    return float(stats.norm.isf(alpha / (2.0 * max(1, tests))))


def mean_band(mean, var, reps, z):
    """Half-width for a mean of `reps` iid draws: z standard errors plus
    z^2/reps, which covers rare-event counts where the normal law is poor."""
    return z * math.sqrt(var / reps) + z * z / reps


def proportion_band(prob, reps, z):
    """Half-width for a binomial proportion, as mean_band for a 0/1 draw."""
    return mean_band(prob, prob * (1.0 - prob), reps, z)
