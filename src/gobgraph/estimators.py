"""Monte Carlo estimation of distributional parameters and statistical
checks of the negative-correlation and marginal-CDF inequalities.

Every estimator draws through `samplers.draw_blocks` and reduces each
block as it arrives, so memory is bounded by one block of
`samplers._BLOCK_BYTES` whatever `reps` is.  Exact samplers give the same
draws as one whole-array call; a hit-and-run sampler runs one chain per
block (see `samplers`).  The dimension d is read off a zero-count draw.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .samplers import draw_blocks


def wilson_interval(successes, trials, z=1.96):
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class MomentEstimate:
    second_moments: np.ndarray   # per-edge E X_e^2 estimates
    standard_errors: np.ndarray  # delete-1 jackknife SEs
    sigma_min_sq: float
    sigma_max_sq: float
    argmin: int
    argmax: int

    @property
    def sigma_min(self):
        return math.sqrt(self.sigma_min_sq)

    @property
    def sigma_max(self):
        return math.sqrt(self.sigma_max_sq)


def _dim(sampler, stream):
    """Edge-vector dimension of `sampler`, from a draw that consumes nothing."""
    return sampler(stream, 0).shape[1]


def estimate_moments(sampler, stream, reps):
    """Per-edge second moments with jackknife standard errors.

    The delete-1 jackknife SE of a sample mean reduces exactly to
    std(x, ddof=1)/sqrt(reps).  The per-edge mean and sum of squared
    deviations of X_e^2 are merged block by block with the pairwise
    update of Chan, Golub & LeVeque (1979).
    """
    if reps < 1000:
        raise ConfigError(f"need reps >= 1000, got {reps}")
    d = _dim(sampler, stream)
    m, m2 = np.zeros(d), np.zeros(d)
    # per-edge range of X_e^2: an edge is constant exactly when lo == hi
    lo, hi = np.full(d, np.inf), np.full(d, -np.inf)
    done = 0
    for X in draw_blocks(sampler, stream, reps, d):
        sq = X * X
        rows = sq.shape[0]
        b_mean = sq.mean(axis=0)
        np.minimum(lo, sq.min(axis=0), out=lo)
        np.maximum(hi, sq.max(axis=0), out=hi)
        sq -= b_mean
        delta = b_mean - m
        done += rows
        m += delta * (rows / done)
        m2 += (np.einsum("ij,ij->j", sq, sq)
               + delta * delta * ((done - rows) * rows / done))
    if np.any(lo == hi):
        raise ValueError("degenerate sampler output: an edge coordinate is constant")
    se = np.sqrt(m2 / (reps - 1)) / math.sqrt(reps)
    argmin = int(np.argmin(m))
    argmax = int(np.argmax(m))
    return MomentEstimate(
        second_moments=m,
        standard_errors=se,
        sigma_min_sq=float(m[argmin]),
        sigma_max_sq=float(m[argmax]),
        argmin=argmin,
        argmax=argmax,
    )


@dataclass
class NcTestReport:
    I: tuple
    J: tuple
    s: np.ndarray
    t: np.ndarray
    joint: float
    joint_ci: tuple
    product: float
    product_ci: tuple
    joint_se: float
    product_se: float
    verdict: str  # "consistent" | "violation-at-3-sigma"


def nc_test(sampler, stream, I, J, s, t, reps):
    """Test the joint upper-tail inequality over disjoint edge sets.

    Estimates P(all X_I > s, all X_J > t) on one batch and the two
    marginal probabilities on an independent second batch, so the product
    estimate is unbiased against the joint.  Flags a violation only when
    joint - product exceeds 3 combined standard errors.
    """
    I = tuple(int(i) for i in I)
    J = tuple(int(j) for j in J)
    if not I or not J:
        raise ValueError("index sets must be nonempty")
    if set(I) & set(J):
        raise ValueError(f"index sets must be disjoint, overlap {set(I) & set(J)}")
    if reps < 10_000:
        raise ConfigError(f"need reps >= 1e4, got {reps}")
    s = np.broadcast_to(np.asarray(s, dtype=float), (len(I),))
    t = np.broadcast_to(np.asarray(t, dtype=float), (len(J),))

    def tails(X):
        return np.all(X[:, I] > s, axis=1), np.all(X[:, J] > t, axis=1)

    dim = _dim(sampler, stream)
    k_joint = 0
    for X in draw_blocks(sampler, stream, reps, dim):
        hits_i, hits_j = tails(X)
        k_joint += int(np.count_nonzero(hits_i & hits_j))
    joint = k_joint / reps
    joint_se = math.sqrt(max(joint * (1 - joint), 1.0 / reps) / reps)

    k_i = k_j = k_ij = 0
    for X in draw_blocks(sampler, stream, reps, dim):
        hits_i, hits_j = tails(X)
        k_i += int(np.count_nonzero(hits_i))
        k_j += int(np.count_nonzero(hits_j))
        k_ij += int(np.count_nonzero(hits_i & hits_j))
    p_i = k_i / reps
    p_j = k_j / reps
    product = p_i * p_j
    v_i = p_i * (1 - p_i) / reps
    v_j = p_j * (1 - p_j) / reps
    cov = (k_ij / reps - p_i * p_j) / reps
    product_var = p_j * p_j * v_i + p_i * p_i * v_j + 2 * p_i * p_j * cov
    product_se = math.sqrt(max(product_var, 0.0))

    ci_i = wilson_interval(k_i, reps)
    ci_j = wilson_interval(k_j, reps)
    combined = math.sqrt(joint_se ** 2 + product_se ** 2)
    verdict = "violation-at-3-sigma" if joint - product > 3 * combined else "consistent"
    return NcTestReport(
        I=I, J=J, s=np.array(s), t=np.array(t),
        joint=joint, joint_ci=wilson_interval(k_joint, reps),
        product=product, product_ci=(ci_i[0] * ci_j[0], ci_i[1] * ci_j[1]),
        joint_se=joint_se, product_se=product_se, verdict=verdict,
    )


@dataclass
class MarginalBoundReport:
    p_grid: np.ndarray     # (P,) thresholds
    bounds: np.ndarray     # (P,) p / sigma_min
    estimates: np.ndarray  # (P, d) estimates of P(X_e <= p)
    standard_errors: np.ndarray  # (P, d) binomial SEs, floored at 1/reps
    ok_flags: np.ndarray   # (P, d) estimate <= bound + 3 SE
    ok: bool
    worst_ratio: float     # max over (p, e) of estimate / bound


def marginal_bound_check(sampler, stream, moments, p_grid, reps):
    """Check the per-edge CDF bound P(X_e <= p) <= p/sigma_min + 3*SE.

    The report holds a few (len(p_grid), d) arrays, not one object per
    (edge, p)."""
    p_grid = np.asarray(p_grid, dtype=float)
    if np.any(p_grid <= 0) or np.any(p_grid >= 1):
        raise ValueError("p grid must lie in (0, 1)")
    sigma_min = moments.sigma_min
    d = _dim(sampler, stream)
    below = np.zeros((len(p_grid), d), dtype=np.int64)  # counts of X_e <= p
    for X in draw_blocks(sampler, stream, reps, d):
        for k, p in enumerate(p_grid):
            below[k] += np.count_nonzero(X <= p, axis=0)
    estimates = below / reps
    bounds = p_grid / sigma_min
    se = np.sqrt(np.maximum(estimates * (1 - estimates), 1.0 / reps) / reps)
    ok_flags = estimates <= bounds[:, None] + 3 * se
    return MarginalBoundReport(
        p_grid=p_grid, bounds=bounds, estimates=estimates, standard_errors=se,
        ok_flags=ok_flags, ok=bool(ok_flags.all()),
        worst_ratio=float(np.max(estimates / bounds[:, None])))
