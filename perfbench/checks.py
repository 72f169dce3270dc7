"""Output checks for the benchmark workloads.

Each check returns a list of problems (empty when the output is right).
Expected values come from reference.py or from an independent
recomputation (networkx on captured edge vectors), never from a stored
copy of an earlier run.  Statistical checks use a Bonferroni-level z at
family-wise level ALPHA per command, so a correct program fails one only
about once in 1/ALPHA runs.
"""

import csv
import itertools
import math

import networkx as nx
import numpy as np
from scipy import stats

import reference as ref

ALPHA = 1e-5
FMT_REL = 1e-5  # outputs are printed with 6 significant digits


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _f(row, key):
    return float(row[key])


def _edge_count(n):
    return n * (n - 1) // 2


def _by_n(rows):
    out = {}
    for row in rows:
        out.setdefault(int(row["n"]), []).append(row)
    for group in out.values():
        group.sort(key=lambda r: _f(r, "p"))
    return out


def scan_structure(rows, n_list, reps, cells_per_n):
    """Checks every scan CSV must pass whatever the law: the grid, the
    coupling (one edge vector per replicate for every p makes each curve
    monotone), connectivity excluding isolated vertices, Wilson intervals."""
    problems = []
    groups = _by_n(rows)
    if sorted(groups) != sorted(n_list):
        return [f"scan rows cover n={sorted(groups)}, expected {sorted(n_list)}"]
    for n, group in groups.items():
        if len(group) != cells_per_n:
            problems.append(f"n={n}: {len(group)} rows, expected {cells_per_n}")
        for row in group:
            p = _f(row, "p")
            if not 0.0 < p < 1.0:
                problems.append(f"n={n}: p={p} outside (0, 1)")
            if int(row["replicates"]) != reps:
                problems.append(f"n={n} p={p}: replicates {row['replicates']} != {reps}")
            if _f(row, "p_connected") > 1.0 - _f(row, "p_has_isolated") + FMT_REL:
                problems.append(f"n={n} p={p}: p_connected > 1 - p_has_isolated")
            for est in ("p_connected", "p_has_isolated", "p_mid_component"):
                lo, val, hi = _f(row, est + "_lo"), _f(row, est), _f(row, est + "_hi")
                if not lo <= val <= hi:
                    problems.append(f"n={n} p={p}: {est} {val} outside [{lo}, {hi}]")
        for up, key in ((True, "p_connected"), (False, "p_has_isolated"),
                        (False, "mean_isolated"), (True, "mean_giant_frac"),
                        (False, "small_mass_frac")):
            vals = [_f(r, key) for r in group]
            pairs = zip(vals, vals[1:])
            if not all((a <= b) if up else (a >= b) for a, b in pairs):
                problems.append(f"n={n}: {key} not monotone in p under coupling: {vals}")
    return problems


def simplex_scan(rows, mode, n_list, gammas, reps, pilot_draws):
    """Closed-form checks of a scan on the uniform simplex."""
    problems = scan_structure(rows, n_list, reps, len(gammas))
    if problems:
        return problems
    z = ref.bonferroni_z(ALPHA, 3 * len(rows))
    for n, group in _by_n(rows).items():
        d = _edge_count(n)
        scale = math.log(n) / n if mode == "connectivity" else 1.0 / n
        sigmas = [_f(r, "p") / (g * scale) for r, g in zip(group, sorted(gammas))]
        sigma = math.sqrt(ref.beta1d_moment(2, d))
        band = z * ref.pilot_sigma_se(d, pilot_draws) + FMT_REL * sigma
        if max(sigmas) - min(sigmas) > 2 * FMT_REL * sigma:
            problems.append(f"n={n}: grid is not one sigma-hat times the gammas: {sigmas}")
        if abs(sigmas[0] - sigma) > band:
            problems.append(f"n={n}: sigma-hat {sigmas[0]:.6g} vs exact {sigma:.6g} "
                            f"(band {band:.3g})")
        for row in group:
            p = _f(row, "p")
            mean, var = ref.isolated_count_moments(n, p)
            got = _f(row, "mean_isolated")
            tol = ref.mean_band(mean, var, reps, z) + FMT_REL * got
            if abs(got - mean) > tol:
                problems.append(f"n={n} p={p}: mean_isolated {got} vs closed form "
                                f"{mean:.6g} (band {tol:.3g})")
            lo, hi = ref.has_isolated_bounds(n, p)
            got = _f(row, "p_has_isolated")
            if not (lo - ref.proportion_band(lo, reps, z) <= got
                    <= hi + ref.proportion_band(hi, reps, z)):
                problems.append(f"n={n} p={p}: p_has_isolated {got} outside Bonferroni "
                                f"bounds [{lo:.6g}, {hi:.6g}]")
    return problems


def _pairs(n):
    return list(itertools.combinations(range(n), 2))


def _graph_stats(x, n, pairs, p):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(e for e, v in zip(pairs, x) if v <= p)
    largest = max(len(c) for c in nx.connected_components(g))
    return nx.is_connected(g), nx.number_of_isolates(g), largest


def gob_radial_scan(rows, captured, mode_gammas, n_list, reps, pilot_draws, q, rate):
    """Recompute the scan from the edge vectors captured at the sampler
    boundary, check they lie in the ball, and test G(X) against its law.

    The ball is {x >= 0 : sum_e x_e^q <= 1} with density prop. to
    exp(-rate * G(x)); the grid is p = gamma * sigma_hat * log(n) / n with
    sigma_hat recomputed from the captured pilot draws."""
    problems = scan_structure(rows, n_list, reps, len(mode_gammas))
    if problems:
        return problems
    groups = _by_n(rows)
    for n_index, n in enumerate(n_list):
        d = _edge_count(n)
        pilot = [x for nn, key, x in captured if nn == n and key == [n_index, 0]]
        reps_x = {key[1]: x[0] for nn, key, x in captured
                  if nn == n and len(key) == 2 and key[0] == n_index and key[1] > 0
                  and x.shape == (1, d)}
        if len(pilot) != 1 or pilot[0].shape != (pilot_draws, d):
            problems.append(f"n={n}: expected one pilot draw of {pilot_draws} vectors")
            continue
        if sorted(reps_x) != list(range(1, reps + 1)):
            problems.append(f"n={n}: captured replicates {sorted(reps_x)[:5]}..., "
                            f"expected 1..{reps}")
            continue
        X = np.vstack([pilot[0]] + [reps_x[r] for r in range(1, reps + 1)])
        G = np.sum(X ** q, axis=1)
        if np.any(X < 0.0) or np.any(G > 1.0 + 1e-9):
            problems.append(f"n={n}: a captured vector leaves the orthant or the ball "
                            f"(min coord {X.min():.3g}, max G {G.max():.12g})")
        ks = stats.kstest(G[pilot_draws:],
                          lambda u: ref.radial_exponential_cdf(u, d, q, rate))
        if ks.pvalue < 1e-4 / len(n_list):
            problems.append(f"n={n}: KS of G(X) against its law: D={ks.statistic:.4f}, "
                            f"p={ks.pvalue:.3g}")

        sigma_hat = math.sqrt(float(np.sum(pilot[0] * pilot[0])) / (pilot_draws * d))
        scale = sigma_hat * math.log(n) / n
        ps = [g * scale for g in mode_gammas]
        group = groups[n]
        pairs = _pairs(n)
        for p, row in zip(sorted(ps), group):
            if abs(p - _f(row, "p")) > FMT_REL * p:
                problems.append(f"n={n}: grid p {_f(row, 'p')} vs recomputed {p:.6g}")
                continue
            conn = iso_any = iso_sum = max_sum = 0
            for r in range(1, reps + 1):
                c, iso, largest = _graph_stats(reps_x[r], n, pairs, p)
                conn += c
                iso_any += iso > 0
                iso_sum += iso
                max_sum += largest
            expect = {"p_connected": conn / reps, "p_has_isolated": iso_any / reps,
                      "mean_isolated": iso_sum / reps,
                      "mean_giant_frac": max_sum / (reps * n)}
            for key, val in expect.items():
                if format(val, ".6g") != row[key]:
                    problems.append(f"n={n} p={row['p']}: {key} {row[key]} but networkx "
                                    f"gives {format(val, '.6g')}")
    return problems


def simplex_moments(path, n, reps):
    """Every edge's second moment lies within a Bonferroni-level z of
    E X^2 = 2/((d+1)(d+2)), with the exact variance E X^4 - (E X^2)^2."""
    rows = read_csv(path)
    d = _edge_count(n)
    pairs = _pairs(n)
    if [(int(r["edge_i"]), int(r["edge_j"])) for r in rows] != pairs:
        return [f"moments.csv does not list the {d} edges in canonical order"]
    m2 = ref.beta1d_moment(2, d)
    sd = math.sqrt(ref.beta1d_moment(4, d) - m2 * m2)
    z = ref.bonferroni_z(ALPHA, d)
    tol = z * sd / math.sqrt(reps) + FMT_REL * m2
    got = np.array([_f(r, "second_moment") for r in rows])
    bad = np.nonzero(np.abs(got - m2) > tol)[0]
    return [f"edge {pairs[e]}: second moment {got[e]:.6g} vs {m2:.6g} (band {tol:.3g})"
            for e in bad[:5]]
