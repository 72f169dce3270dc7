"""Acceptance gate: one test per criterion, each reporting a single
pass/fail line (echoed in the terminal summary).

Criterion 5 checks the per-edge CDF bound P(X_e <= p) <= p / sigma_min
as stated, with no extra constant.  For the uniform simplex at d = 15
the left side behaves like d*p for small p while the right side is about
(d/sqrt(2))*p, so the stated inequality fails deterministically, not
statistically; the test reports that failure honestly rather than
widening the tolerance.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from gobgraph import (Cap, GobSpec, Linear, Power, SamplerConfig, ScanConfig,
                      build_graph, components, components_bfs, edge_count,
                      er_connectivity_oracle, estimate_moments, ks_critical,
                      make_sampler, marginal_bound_check, nc_test, run_scan,
                      sample_lq_orthant, sample_shared_scale, sample_simplex,
                      substream, threshold_locator)
from gobgraph.cli import nc_thresholds, random_nc_indices
from gobgraph.report import emit_csv

SEED = 20260824

# hit-and-run schedule used for the d={6,15} cross-validation; the 50d/d
# defaults under-thin at these dimensions (integrated autocorrelation of
# the chain is a few hundred steps), so the gate runs a measured schedule
HR_BURN = 5000
HR_THIN = {6: 150, 15: 450}


def _simplex_sampler(n):
    return make_sampler(GobSpec(n, Linear(1.0)),
                        SamplerConfig(method="exact_simplex"))


def _lq_sampler(n, q=2.0):
    return make_sampler(GobSpec(n, Power(1.0, q)),
                        SamplerConfig(method="exact_lq"))


# ---------------------------------------------------------------------------

def test_criterion_1_er_recovery(criterion):
    reps = 10_000
    ps = (0.2, 0.35, 0.5, 0.65, 0.8)
    hits = 0
    cells = 0
    worst = 0.0
    for n in range(3, 9):
        specs = [GobSpec(n, Cap(1.0))]
        cfg = ScanConfig(mode="connectivity", replicates=reps, values=ps)
        result = run_scan(specs, SamplerConfig(method="exact_cube"), cfg,
                          SEED + n)
        for row in result.rows:
            truth = er_connectivity_oracle(n, row.p)
            se = math.sqrt(max(truth * (1 - truth), 1.0 / reps) / reps)
            dev = abs(row.p_connected - truth) / se
            worst = max(worst, dev)
            hits += dev <= 3.0
            cells += 1
    ok = cells == 30 and hits >= math.ceil(0.95 * cells)
    criterion(1, ok, f"ER oracle recovery: {hits}/{cells} cells within "
                     f"3 SE (worst {worst:.2f} SE)")


def test_criterion_2_exact_moments(criterion):
    draws = 100_000
    # oracle values by numeric integration of the marginal densities
    simplex_truth = integrate.quad(lambda x: x * x * 3 * (1 - x) ** 2, 0, 1)[0]
    lq_truth = integrate.quad(lambda x: x * x * 1.5 * (1 - x * x), 0, 1)[0]
    assert simplex_truth == pytest.approx(0.1, abs=1e-10)
    assert lq_truth == pytest.approx(0.2, abs=1e-10)

    est_s = estimate_moments(_simplex_sampler(3), substream(SEED, (2, 0)), draws)
    est_q = estimate_moments(_lq_sampler(3), substream(SEED, (2, 1)), draws)
    dev_s = np.max(np.abs(est_s.second_moments - simplex_truth)
                   / est_s.standard_errors)
    dev_q = np.max(np.abs(est_q.second_moments - lq_truth)
                   / est_q.standard_errors)
    ok = dev_s <= 3.0 and dev_q <= 3.0
    criterion(2, ok, f"simplex/l2 second moments at {draws} draws: worst "
                     f"deviations {dev_s:.2f} / {dev_q:.2f} SE vs 0.1 / 0.2")


def test_criterion_3_hit_and_run_vs_exact(criterion):
    draws = 20_000
    details = []
    ok = True
    for n, d in ((4, 6), (6, 15)):
        spec = GobSpec(n, Linear(1.0))
        cfg = SamplerConfig(method="hit_and_run", burn_in=HR_BURN,
                            thinning=HR_THIN[d])
        hr = make_sampler(spec, cfg)
        A = sample_simplex(n, np.ones(d), substream(SEED, (3, d, 0)), draws)
        B = hr(substream(SEED, (3, d, 1)), draws)
        ks = max(stats.ks_2samp(A[:, k], B[:, k]).statistic for k in range(d))
        crit = ks_critical(0.01, draws, draws)
        ok &= ks < crit
        details.append(f"d={d} max KS {ks:.4f} < {crit:.4f}")
    criterion(3, ok, "hit-and-run marginals match exact simplex: "
                     + "; ".join(details))


def test_criterion_4_negative_correlation(criterion):
    reps = 20_000
    violations = 0
    total = 0
    for tag, make in ((0, _simplex_sampler), (1, _lq_sampler)):
        for n, d in ((4, 6), (6, 15)):
            sampler = make(n)
            pilot = sampler(substream(SEED, (4, tag, d, 0)), 4000)
            for i in range(10):
                stream = substream(SEED, (4, tag, d, i + 1))
                I, J, qs = random_nc_indices(stream, d, 3, (0.6, 0.95))
                s, t = nc_thresholds(pilot, I, J, qs)
                report = nc_test(sampler, stream, I, J, s, t, reps)
                total += 1
                violations += report.verdict != "consistent"

    adversary = lambda stream, count: sample_shared_scale(3, stream, count)
    adv = nc_test(adversary, substream(SEED, (4, 9)), (0,), (1,), 0.7, 0.7,
                  40_000)
    ok = violations == 0 and adv.verdict == "violation-at-3-sigma"
    criterion(4, ok, f"negative correlation: {violations}/{total} violations "
                     f"on GOB specs; adversarial law verdict {adv.verdict}")


def test_criterion_5_marginal_bound(criterion):
    reps = 100_000
    grid = np.logspace(-2.3, -0.31, 10)
    details = []
    ok = True
    for tag, (name, make) in enumerate(
            (("simplex", _simplex_sampler), ("l2", _lq_sampler))):
        sampler = make(6)  # d = 15
        est = estimate_moments(sampler, substream(SEED, (5, tag, 0)), 20_000)
        report = marginal_bound_check(sampler, substream(SEED, (5, tag, 1)),
                                      est, grid, reps)
        ok &= report.ok
        details.append(f"{name}: worst estimate/bound ratio "
                       f"{report.worst_ratio:.3f}"
                       + ("" if report.ok else " (bound exceeded)"))
    criterion(5, ok, "P(X_e <= p) <= p/sigma_min at d=15: " + "; ".join(details))


@pytest.fixture(scope="module")
def connectivity_campaign():
    specs = [GobSpec(n, Linear(1.0)) for n in (50, 100, 200, 400)]
    cfg = ScanConfig(mode="connectivity", replicates=500,
                     gammas=(0.4, 0.55, 0.7, 0.85, 1.0, 1.2, 1.5),
                     pilot_draws=500)
    sampler_cfg = SamplerConfig(method="exact_simplex")
    result = run_scan(specs, sampler_cfg, cfg, SEED, workers=2)
    return specs, sampler_cfg, cfg, result


def test_criterion_6_connectivity_scaling(criterion, connectivity_campaign):
    _, _, _, result = connectivity_campaign
    conn = threshold_locator(result, "p_connected")
    iso = threshold_locator(result, "p_has_isolated")
    ok = all(not c.censored for c in conn) and all(not c.censored for c in iso)
    spread = None
    if ok:
        norms = [c.normalized_sigma for c in conn]
        center = np.mean(norms)
        spread = max(abs(v - center) / center for v in norms)
        ok &= spread <= 0.25
        for ci, cc in zip(iso, conn):
            ok &= ci.p_star <= cc.p_star * (1 + 1e-9)
    detail = (f"crossings p*n/(sigma log n) flat within {spread:.1%}; "
              f"isolated <= connectivity at every n"
              if spread is not None else "a crossing was censored")
    criterion(6, ok, "connectivity scaling on the simplex ball: " + detail)


def test_criterion_7_giant_component(criterion):
    n = 400
    cfg = ScanConfig(mode="giant", replicates=500,
                     gammas=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
                     sigma_normalized=True, pilot_draws=500)
    result = run_scan([GobSpec(n, Linear(1.0))],
                      SamplerConfig(method="exact_simplex"), cfg, SEED + 7)
    rows = sorted(result.rows, key=lambda r: r.p)
    sub, sup = rows[0], rows[-1]
    ok = (sub.p_big_component <= 0.1 and sup.p_giant >= 0.95
          and sup.small_mass_frac < 0.93)
    criterion(7, ok, f"giant regime at n={n}: P(big comp)={sub.p_big_component:.3f}"
                     f" at gamma=0.25; P(giant)={sup.p_giant:.3f}, small mass "
                     f"frac={sup.small_mass_frac:.3f} at gamma=8")


def test_criterion_8_worker_determinism(criterion, connectivity_campaign,
                                        tmp_path):
    specs, sampler_cfg, cfg, result2 = connectivity_campaign
    result1 = run_scan(specs, sampler_cfg, cfg, SEED, workers=1)
    a = tmp_path / "w1.csv"
    b = tmp_path / "w2.csv"
    emit_csv(result1, a)
    emit_csv(result2, b)
    ok = a.read_bytes() == b.read_bytes()
    criterion(8, ok, "criterion-6 campaign CSV byte-identical across "
                     "worker counts 1 and 2")


def test_criterion_9_component_oracle(criterion):
    rng = np.random.default_rng(SEED)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        x = rng.random(edge_count(n))
        g = build_graph(x, n, float(rng.uniform(0.05, 0.95)))
        mismatches += components(g) != components_bfs(g)
    criterion(9, mismatches == 0,
              f"union-find vs BFS on 1000 random graphs: {mismatches} mismatches")
