"""Monte Carlo campaigns over (n, p) grids for the connectivity and
giant-component regimes, plus the exact small-n oracle.

Within a replicate one edge vector is drawn and thresholded at every p
on the grid (coupling), which enforces monotonicity in p and cuts the
variance of crossing-point estimates.  The replicates of a chunk are
swept together, in batches (`graph.threshold_sweep`): every accumulator
comes from the batch's component orders at each p, into the chunk's
count table (a row per p), which is added to its spec's table by the
spec's position.  The counts are integers, so reduction is exact and
order-independent: results do not depend on the worker count or on
where a batch ends.  A gamma grid is scaled by a pilot's sigma-hat when
`ScanConfig.sigma_normalized` is set, which a connectivity scan must be.

A replicate needs only the coordinates at or below the grid's largest p,
so the chunks' sampler config carries that level as `censor_above`; the
exact simplex sampler then draws those coordinates alone and hands them
over as (positions, values) pairs, which go to the sweep as they are,
while a dense row from any other method is cut here (`_kept_edges`).
The pilot draws full vectors.  The level and the number of
coordinates at or below it (`edges_kept`, summed over replicates) are
recorded per n in the result's meta, not in the rows.
"""

import math
import numbers
import sys
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
from . import samplers
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
        if self.mode == "connectivity" and not self.sigma_normalized:
            raise ValueError("sigma_normalized applies to giant grids only: a "
                             "connectivity grid is p = gamma * sigma_hat * log(n) / n")


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
    else:
        scale = sigma_hat if cfg.sigma_normalized else 1.0
        if cfg.mode == "connectivity":
            scale *= math.log(n)
        scale /= n
        ps = [g * scale for g in cfg.gammas]
    for p in ps:
        if not 0.0 < p < 1.0:
            raise ConfigError(f"grid produced p={p} outside (0, 1) at n={n}")
    return ps


def _pilot_sigma(sampler, stream, draws, dim):
    """Root mean second moment over all edges, estimated streaming.  The
    rows' sums of squares are added exactly (`math.fsum`), so the estimate
    does not depend on how `draw_blocks` splits the rows into blocks.  Each
    block is squared in place: no one else holds it."""
    total = math.fsum(row for X in draw_blocks(sampler, stream, draws, dim)
                      for row in np.square(X, out=X).sum(axis=1).tolist())
    return math.sqrt(total / (draws * dim))


# the columns of a count table, in the order `_cell_sums` returns them
_ACC_KEYS = ("connected", "has_isolated", "mid", "big", "giant",
             "isolated_sum", "max_comp_sum", "small_mass_sum")


def _cell_sums(orders, n, big_thresh, mass_cutoff):
    """Each accumulator summed over a batch of graphs at one p, from the
    (graphs, n) component orders `graph.threshold_sweep` yields."""
    largest = orders.max(axis=1)
    isolated = np.count_nonzero(orders == 1, axis=1)
    giants = np.count_nonzero(orders > n / 2, axis=1)
    if giants.max() > 1:
        raise RuntimeError(
            f"pigeonhole violated: {giants.max()} components of order > n/2 at n={n}")
    mid = np.any((orders >= big_thresh) & (orders <= n / 2), axis=1)
    small_mass = np.where(orders <= mass_cutoff, orders, 0).sum()
    return (np.count_nonzero(largest == n), np.count_nonzero(isolated),
            np.count_nonzero(mid), np.count_nonzero(largest >= big_thresh),
            giants.sum(), isolated.sum(), largest.sum(), small_mass)


def _kept_edges(x, level):
    """One replicate's draw as the (positions, values) pair of its
    coordinates at or below `level`: a censored draw is that pair already,
    a dense row is cut here."""
    if isinstance(x, tuple):
        return x
    kept = np.flatnonzero(x <= level)
    return kept, x[kept]


def _scan_chunk(payload):
    """Run replicates [r0, r1) at one n; returns the (len(p_values),
    len(_ACC_KEYS)) int64 count table and the number of kept coordinates.

    Each replicate's draw is cut to its coordinates at or below the grid's
    largest p (`_kept_edges`), and the cut draws go to
    `graph.threshold_sweep` in batches:
    a batch is swept once it holds `samplers._BLOCK_BYTES // 16` kept
    coordinates (an 8-byte position and an 8-byte value each), and at the
    end of the chunk.
    """
    spec, sampler_cfg, p_values, master_seed, n_index, r0, r1, beta = payload
    n = spec.n
    sampler = make_sampler(spec, sampler_cfg)
    big_thresh = beta * math.log(n)
    mass_cutoff = max(1, math.floor(big_thresh))
    level = max(p_values)
    sums = np.zeros((len(p_values), len(_ACC_KEYS)), dtype=np.int64)
    batch = []
    held = edges_kept = 0
    for r in range(r0, r1):
        kept = _kept_edges(sampler(substream(master_seed, (n_index, r + 1)), 1)[0],
                           level)
        batch.append(kept)
        held += len(kept[0])
        if held >= samplers._BLOCK_BYTES // 16 or r == r1 - 1:
            for k, orders in threshold_sweep(n, batch, p_values):
                sums[k] += _cell_sums(orders, n, big_thresh, mass_cutoff)
            edges_kept += held
            batch = []
            held = 0
    return sums, edges_kept


def _share(count, reps):
    """The proportion count / reps and its Wilson interval."""
    return (count / reps, *wilson_interval(count, reps))


def run_scan(specs, sampler_cfg, cfg, master_seed, workers=1):
    """Drive the campaign over every spec in `specs` (one per n); per-spec
    lists are indexed by the spec's position, its chunks' `n_index`."""
    needs_sigma = bool(cfg.gammas) and cfg.sigma_normalized
    grids, sigma_hats, tasks = [], [], []
    for n_index, spec in enumerate(specs):
        sigma_hat = None
        if needs_sigma:
            pilot = substream(master_seed, (n_index, _PILOT_KEY))
            sigma_hat = _pilot_sigma(make_sampler(spec, sampler_cfg), pilot,
                                     cfg.pilot_draws, spec.dim)
        p_values = resolve_grid(cfg, spec.n, sigma_hat)
        sigma_hats.append(sigma_hat)
        grids.append(p_values)
        chunk_cfg = replace(sampler_cfg, censor_above=max(p_values))
        for r0 in range(0, cfg.replicates, _CHUNK):
            r1 = min(r0 + _CHUNK, cfg.replicates)
            tasks.append((spec, chunk_cfg, p_values, master_seed,
                          n_index, r0, r1, cfg.beta))

    # a pool of this size starts every worker at once, busy or not
    workers = min(workers, len(tasks))
    if workers > 1:
        # imported here: the pool's modules (concurrent.futures,
        # multiprocessing) would slow every command's start, and a serial
        # scan uses none of them
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_scan_chunk, tasks))
    else:
        partials = [_scan_chunk(t) for t in tasks]

    # add each chunk's table to its spec's (integers: order-independent)
    sums = [np.zeros((len(grid), len(_ACC_KEYS)), dtype=np.int64) for grid in grids]
    kept = [0] * len(specs)
    for task, (chunk_sums, chunk_kept) in zip(tasks, partials):
        n_index = task[4]
        sums[n_index] += chunk_sums
        kept[n_index] += chunk_kept

    rows = []
    reps = cfg.replicates
    for spec, grid, table in zip(specs, grids, sums):
        n = spec.n
        for p, (conn, iso, mid, big, giant, iso_sum, largest_sum,
                small_mass) in zip(grid, table.tolist()):
            rows.append(ScanRow(n, p, reps, *_share(conn, reps), *_share(iso, reps),
                                iso_sum / reps, largest_sum / (reps * n),
                                *_share(mid, reps), small_mass / (reps * n),
                                big / reps, giant / reps))
    rows.sort(key=lambda r: (r.n, r.p))
    ns = [spec.n for spec in specs]
    meta = {
        "mode": cfg.mode,
        "master_seed": int(master_seed),
        "beta": cfg.beta,
        "replicates": reps,
        "sigma_hat": dict(zip(ns, sigma_hats)),
        "censor_above": dict(zip(ns, map(max, grids))),
        "edges_kept": dict(zip(ns, kept)),
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
