"""Monte Carlo estimation of distributional parameters and statistical
checks of the negative-correlation and marginal-CDF inequalities."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


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


def estimate_moments(sampler, stream, reps):
    """Per-edge second moments with jackknife standard errors.

    The delete-1 jackknife SE of a sample mean reduces exactly to
    std(x, ddof=1)/sqrt(reps).
    """
    if reps < 1000:
        raise ConfigError(f"need reps >= 1000, got {reps}")
    X = np.asarray(sampler(stream, reps), dtype=float)
    sq = X * X
    m = sq.mean(axis=0)
    sd = sq.std(axis=0, ddof=1)
    if np.any(sd == 0.0):
        raise ValueError("degenerate sampler output: an edge coordinate is constant")
    se = sd / math.sqrt(reps)
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

    batch1 = np.asarray(sampler(stream, reps))
    joint_hits = np.all(batch1[:, I] > s, axis=1) & np.all(batch1[:, J] > t, axis=1)
    k_joint = int(joint_hits.sum())
    joint = k_joint / reps
    joint_se = math.sqrt(max(joint * (1 - joint), 1.0 / reps) / reps)

    batch2 = np.asarray(sampler(stream, reps))
    hits_i = np.all(batch2[:, I] > s, axis=1)
    hits_j = np.all(batch2[:, J] > t, axis=1)
    p_i = hits_i.mean()
    p_j = hits_j.mean()
    product = p_i * p_j
    v_i = p_i * (1 - p_i) / reps
    v_j = p_j * (1 - p_j) / reps
    cov = (np.mean(hits_i & hits_j) - p_i * p_j) / reps
    product_var = p_j * p_j * v_i + p_i * p_i * v_j + 2 * p_i * p_j * cov
    product_se = math.sqrt(max(product_var, 0.0))

    ci_i = wilson_interval(int(hits_i.sum()), reps)
    ci_j = wilson_interval(int(hits_j.sum()), reps)
    combined = math.sqrt(joint_se ** 2 + product_se ** 2)
    verdict = "violation-at-3-sigma" if joint - product > 3 * combined else "consistent"
    return NcTestReport(
        I=I, J=J, s=np.array(s), t=np.array(t),
        joint=joint, joint_ci=wilson_interval(k_joint, reps),
        product=float(product), product_ci=(ci_i[0] * ci_j[0], ci_i[1] * ci_j[1]),
        joint_se=joint_se, product_se=product_se, verdict=verdict,
    )


@dataclass
class MarginalBoundRow:
    edge: int
    p: float
    estimate: float
    se: float
    bound: float
    ok: bool


@dataclass
class MarginalBoundReport:
    rows: list
    ok: bool
    worst_ratio: float  # max over rows of estimate / bound


def marginal_bound_check(sampler, stream, moments, p_grid, reps):
    """Check the per-edge CDF bound P(X_e <= p) <= p/sigma_min + 3*SE."""
    p_grid = np.asarray(p_grid, dtype=float)
    if np.any(p_grid <= 0) or np.any(p_grid >= 1):
        raise ValueError("p grid must lie in (0, 1)")
    sigma_min = moments.sigma_min
    X = np.asarray(sampler(stream, reps))
    d = X.shape[1]
    rows = []
    worst = 0.0
    for p in p_grid:
        hits = (X <= p).mean(axis=0)
        bound = p / sigma_min
        for e in range(d):
            est = float(hits[e])
            se = math.sqrt(max(est * (1 - est), 1.0 / reps) / reps)
            ok = est <= bound + 3 * se
            worst = max(worst, est / bound)
            rows.append(MarginalBoundRow(edge=e, p=float(p), estimate=est,
                                         se=se, bound=bound, ok=ok))
    return MarginalBoundReport(rows=rows, ok=all(r.ok for r in rows), worst_ratio=worst)
