"""Monte Carlo campaigns over (n, p) grids for the connectivity and
giant-component regimes, plus the exact small-n oracle.

Within a replicate one edge vector is drawn and thresholded at every p
on the grid (coupling), which enforces monotonicity in p and cuts the
variance of crossing-point estimates.  The whole grid is read off one
Newman-Ziff sweep per replicate (`graph.threshold_sweep`): every
accumulator comes from the component-order histogram at each p.  All
per-cell accumulators are integers, so reduction is exact and
order-independent: results do not depend on the worker count.

A replicate needs only the coordinates at or below the grid's largest p,
so the chunks' sampler config carries that level as `censor_above`; the
exact simplex sampler then draws those coordinates alone (see
`samplers`).  The pilot draws full vectors.  The level and the number of
coordinates at or below it (`edges_kept`, summed over replicates) are
recorded per n in the result's meta, not in the rows.
"""

import math
import numbers
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .errors import ConfigError
from .estimators import wilson_interval
from .graph import threshold_sweep
# not called here, but kept bound: the benchmark's tracer (perfbench/child.py)
# wraps these two names in this module
from .graph import build_graph, components  # noqa: F401
from .rng import substream
from .samplers import draw_blocks, make_sampler

_CHUNK = 100  # replicates per work item; fixed so results ignore worker count
_PILOT_KEY = 0  # replicate index 0 is reserved for the pilot moment stream


@dataclass
class ScanConfig:
    mode: str                      # "connectivity" | "giant"
    replicates: int = 500
    beta: float = 2.0
    gammas: tuple = ()             # parametric grid, exclusive with values
    values: tuple = ()             # explicit p values
    sigma_normalized: bool = True  # scale gamma grid by the pilot sigma-hat
    pilot_draws: int = 500

    def __post_init__(self):
        if self.mode not in ("connectivity", "giant"):
            raise ValueError(f"mode must be connectivity or giant, got {self.mode!r}")
        if self.replicates < 30:
            raise ValueError(f"need replicates >= 30, got {self.replicates}")
        if not self.beta > 1:
            raise ValueError(f"beta must be > 1, got {self.beta}")
        if bool(self.gammas) == bool(self.values):
            raise ValueError("exactly one of gammas / values must be set")
        grid = self.gammas or self.values
        # a finite float: an integer beyond the float range cannot be one
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   and abs(v) <= sys.float_info.max for v in grid):
            raise ValueError(f"grid entries must be finite numbers, got {list(grid)}")
        if self.pilot_draws < 1:
            raise ValueError(f"need pilot_draws >= 1, got {self.pilot_draws}")


@dataclass
class ScanRow:
    n: int
    p: float
    replicates: int
    p_connected: float
    p_connected_lo: float
    p_connected_hi: float
    p_has_isolated: float
    p_has_isolated_lo: float
    p_has_isolated_hi: float
    mean_isolated: float
    mean_giant_frac: float
    p_mid_component: float
    p_mid_component_lo: float
    p_mid_component_hi: float
    small_mass_frac: float
    # exploratory / diagnostic fields, not part of the CSV schema: the
    # CSV columns (report.CSV_HEADER) are the fields not marked csv=False
    # P(exists component of order >= beta log n)
    p_big_component: float = field(default=0.0, metadata={"csv": False})
    # P(max component > n/2)
    p_giant: float = field(default=0.0, metadata={"csv": False})


@dataclass
class ScanResult:
    rows: list
    meta: dict = field(default_factory=dict)


def resolve_grid(cfg, n, sigma_hat):
    """Materialize the p grid for one n."""
    if cfg.values:
        ps = [float(p) for p in cfg.values]
    elif cfg.mode == "connectivity":
        scale = sigma_hat * math.log(n) / n
        ps = [g * scale for g in cfg.gammas]
    else:
        scale = (sigma_hat if cfg.sigma_normalized else 1.0) / n
        ps = [g * scale for g in cfg.gammas]
    for p in ps:
        if not 0.0 < p < 1.0:
            raise ConfigError(f"grid produced p={p} outside (0, 1) at n={n}")
    return ps


def _pilot_sigma(sampler, stream, draws, dim):
    """Root mean second moment over all edges, estimated streaming."""
    total = 0.0
    for X in draw_blocks(sampler, stream, draws, dim):
        total += float(np.sum(X * X))
    return math.sqrt(total / (draws * dim))


# integer accumulators per grid cell, in the order `_cell_counts` returns them
_ACC_KEYS = ("connected", "has_isolated", "mid", "big", "giant",
             "isolated_sum", "max_comp_sum", "small_mass_sum")


def _cell_counts(hist, n, big_thresh, mass_cutoff):
    """One replicate's contribution to each accumulator, from the
    {component order: count} histogram of its graph at one p."""
    largest = max(hist)
    isolated = hist.get(1, 0)
    giants = small_mass = 0
    mid = False
    for order, count in hist.items():
        if order > n / 2:
            giants += count
        elif order >= big_thresh:
            mid = True
        if order <= mass_cutoff:
            small_mass += order * count
    if giants > 1:
        raise RuntimeError(
            f"pigeonhole violated: {giants} components of order > n/2 at n={n}")
    return (int(largest == n), int(isolated > 0), int(mid),
            int(largest >= big_thresh), giants, isolated, largest, small_mass)


def _scan_chunk(payload):
    """Run replicates [r0, r1) for one (n, grid) cell row; integer sums only."""
    spec, sampler_cfg, p_values, master_seed, n_index, r0, r1, beta = payload
    n = spec.n
    sampler = make_sampler(spec, sampler_cfg)
    big_thresh = beta * math.log(n)
    mass_cutoff = max(1, math.floor(big_thresh))
    level = max(p_values)
    counts = []
    edges_kept = 0
    for r in range(r0, r1):
        stream = substream(master_seed, (n_index, r + 1))
        x = sampler(stream, 1)[0]
        edges_kept += int(np.count_nonzero(x <= level))
        for hist in threshold_sweep(x, n, p_values):
            counts.append(_cell_counts(hist, n, big_thresh, mass_cutoff))
    sums = np.array(counts, dtype=np.int64).reshape(
        r1 - r0, len(p_values), len(_ACC_KEYS)).sum(axis=0)
    out = {key: sums[:, j] for j, key in enumerate(_ACC_KEYS)}
    out["edges_kept"] = edges_kept
    return out


def run_scan(specs, sampler_cfg, cfg, master_seed, workers=1):
    """Drive the campaign over every spec in `specs` (one per n)."""
    tasks = []
    grids = {}
    sigma_hats = {}
    for n_index, spec in enumerate(specs):
        sampler = make_sampler(spec, sampler_cfg)
        needs_sigma = bool(cfg.gammas) and (
            cfg.mode == "connectivity" or cfg.sigma_normalized
        )
        sigma_hat = None
        if needs_sigma:
            pilot = substream(master_seed, (n_index, _PILOT_KEY))
            sigma_hat = _pilot_sigma(sampler, pilot, cfg.pilot_draws, spec.dim)
        sigma_hats[spec.n] = sigma_hat
        p_values = resolve_grid(cfg, spec.n, sigma_hat)
        grids[spec.n] = p_values
        chunk_cfg = replace(sampler_cfg, censor_above=max(p_values))
        for r0 in range(0, cfg.replicates, _CHUNK):
            r1 = min(r0 + _CHUNK, cfg.replicates)
            tasks.append((spec, chunk_cfg, p_values, master_seed,
                          n_index, r0, r1, cfg.beta))

    # a pool of this size starts every worker at once, busy or not
    workers = min(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_scan_chunk, tasks))
    else:
        partials = [_scan_chunk(t) for t in tasks]

    # merge chunks per n (all accumulators are integers: order-independent)
    merged = {}
    for task, part in zip(tasks, partials):
        n = task[0].n
        if n not in merged:
            merged[n] = part
        else:
            for key, arr in part.items():
                merged[n][key] += arr

    rows = []
    reps = cfg.replicates
    for spec in specs:
        n = spec.n
        acc = merged[n]
        for k, p in enumerate(grids[n]):
            conn = int(acc["connected"][k])
            iso = int(acc["has_isolated"][k])
            mid = int(acc["mid"][k])
            c_lo, c_hi = wilson_interval(conn, reps)
            i_lo, i_hi = wilson_interval(iso, reps)
            m_lo, m_hi = wilson_interval(mid, reps)
            rows.append(ScanRow(
                n=n, p=p, replicates=reps,
                p_connected=conn / reps, p_connected_lo=c_lo, p_connected_hi=c_hi,
                p_has_isolated=iso / reps, p_has_isolated_lo=i_lo,
                p_has_isolated_hi=i_hi,
                mean_isolated=int(acc["isolated_sum"][k]) / reps,
                mean_giant_frac=int(acc["max_comp_sum"][k]) / (reps * n),
                p_mid_component=mid / reps, p_mid_component_lo=m_lo,
                p_mid_component_hi=m_hi,
                small_mass_frac=int(acc["small_mass_sum"][k]) / (reps * n),
                p_big_component=int(acc["big"][k]) / reps,
                p_giant=int(acc["giant"][k]) / reps,
            ))
    rows.sort(key=lambda r: (r.n, r.p))
    meta = {
        "mode": cfg.mode,
        "master_seed": int(master_seed),
        "beta": cfg.beta,
        "replicates": reps,
        "sigma_hat": sigma_hats,
        "censor_above": {n: max(grid) for n, grid in grids.items()},
        "edges_kept": {n: merged[n]["edges_kept"] for n in grids},
    }
    return ScanResult(rows=rows, meta=meta)


def er_connectivity_oracle(n, p):
    """Exact P(G_{n,p} connected) by the classical recursion, n <= 12.

    P_m = 1 - sum_{k=1}^{m-1} C(m-1, k-1) P_k (1-p)^{k(m-k)}, evaluated
    in exact rational arithmetic on the binary value of p.
    """
    if not 2 <= n <= 12:
        raise ConfigError(f"oracle supports 2 <= n <= 12, got {n}")
    if not 0 <= p <= 1:
        raise ConfigError(f"p must lie in [0, 1], got {p}")
    q = 1 - Fraction(p)
    P = [None] * (n + 1)
    P[1] = Fraction(1)
    for m in range(2, n + 1):
        s = sum(
            math.comb(m - 1, k - 1) * P[k] * q ** (k * (m - k))
            for k in range(1, m)
        )
        P[m] = 1 - s
    return float(P[n])


@dataclass
class Crossing:
    n: int
    p_star: float | None
    censored: bool
    normalized: float | None        # p* n / log n (connectivity) or p* n (giant)
    normalized_sigma: float | None  # additionally divided by sigma-hat


def threshold_locator(result, metric="p_connected", target=0.5):
    """Locate, per n, the grid crossing of a monotone estimate curve.

    Linear interpolation between the first bracketing grid pair; grids
    that never straddle the target are reported censored, never
    extrapolated.
    """
    mode = result.meta.get("mode", "connectivity")
    sigma_hats = result.meta.get("sigma_hat", {})
    by_n = {}
    for row in result.rows:
        by_n.setdefault(row.n, []).append(row)
    out = []
    for n in sorted(by_n):
        rows = sorted(by_n[n], key=lambda r: r.p)
        ps = [r.p for r in rows]
        ys = [getattr(r, metric) for r in rows]
        p_star = None
        for (p1, y1), (p2, y2) in zip(zip(ps, ys), zip(ps[1:], ys[1:])):
            if (y1 - target) * (y2 - target) <= 0:
                if y1 == y2:
                    p_star = 0.5 * (p1 + p2)
                else:
                    p_star = p1 + (target - y1) * (p2 - p1) / (y2 - y1)
                break
        if p_star is None:
            out.append(Crossing(n=n, p_star=None, censored=True,
                                normalized=None, normalized_sigma=None))
            continue
        norm = p_star * n / math.log(n) if mode == "connectivity" else p_star * n
        sigma = sigma_hats.get(n)
        out.append(Crossing(
            n=n, p_star=p_star, censored=False, normalized=norm,
            normalized_sigma=(norm / sigma if sigma else None),
        ))
    return out
