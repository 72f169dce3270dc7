import concurrent.futures
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gobgraph import (Cap, GobSpec, Linear, SamplerConfig, ScanConfig, ScanRow,
                      ScanResult, er_connectivity_oracle, make_sampler,
                      resolve_grid, run_scan, substream, threshold_locator)
from gobgraph import experiments, samplers
from gobgraph.config import ConfigError


# ---------------------------------------------------------------------------
# exact oracle

def _er_enumeration(n, p):
    # brute force over all 2^C(n,2) graphs; independent of the recursion
    from itertools import combinations
    pairs = list(combinations(range(n), 2))
    m = len(pairs)
    total = Fraction(0)
    pf = Fraction(p)
    for mask in range(1 << m):
        parent = list(range(n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        k = 0
        for e, (u, v) in enumerate(pairs):
            if mask >> e & 1:
                k += 1
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
        if len({find(v) for v in range(n)}) == 1:
            total += pf ** k * (1 - pf) ** (m - k)
    return float(total)


def test_oracle_examples():
    assert er_connectivity_oracle(2, 0.3) == pytest.approx(0.3)
    assert er_connectivity_oracle(3, 0.5) == pytest.approx(0.5)
    assert er_connectivity_oracle(4, 0.5) == pytest.approx(19 / 32)
    assert er_connectivity_oracle(5, 0.5) == pytest.approx(91 / 128)


def test_oracle_matches_enumeration():
    for n, p in ((3, 0.3), (4, 0.62), (5, 0.5)):
        assert er_connectivity_oracle(n, p) == pytest.approx(
            _er_enumeration(n, p), abs=1e-12)


def test_oracle_degenerate_and_validation():
    assert er_connectivity_oracle(5, 0.0) == 0.0
    assert er_connectivity_oracle(5, 1.0) == 1.0
    with pytest.raises(ValueError):
        er_connectivity_oracle(1, 0.5)
    with pytest.raises(ValueError):
        er_connectivity_oracle(13, 0.5)
    with pytest.raises(ValueError):
        er_connectivity_oracle(5, 1.2)


# ---------------------------------------------------------------------------
# config and grids

def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(mode="other", values=(0.1,))
    with pytest.raises(ValueError):
        ScanConfig(mode="giant", replicates=10, values=(0.1,))
    with pytest.raises(ValueError):
        ScanConfig(mode="giant", beta=1.0, values=(0.1,))
    with pytest.raises(ValueError):
        ScanConfig(mode="giant")  # neither gammas nor values
    with pytest.raises(ValueError):
        ScanConfig(mode="giant", gammas=(1,), values=(0.1,))
    with pytest.raises(ValueError):
        ScanConfig(mode="giant", gammas=(0.5, "abc"))
    with pytest.raises(ValueError):
        ScanConfig(mode="giant", values=(0.1, True))
    with pytest.raises(ValueError):
        ScanConfig(mode="giant", values=(0.1,), pilot_draws=0)
    # a connectivity grid is p = gamma * sigma_hat * log(n) / n
    with pytest.raises(ValueError, match="sigma_normalized"):
        ScanConfig(mode="connectivity", gammas=(1.0,), sigma_normalized=False)


def test_resolve_grid_modes():
    conn = ScanConfig(mode="connectivity", gammas=(0.5, 1.0))
    ps = resolve_grid(conn, 100, sigma_hat=0.2)
    scale = 0.2 * math.log(100) / 100
    assert ps == pytest.approx([0.5 * scale, 1.0 * scale])

    giant = ScanConfig(mode="giant", gammas=(2.0,), sigma_normalized=False)
    assert resolve_grid(giant, 100, sigma_hat=None) == pytest.approx([0.02])

    explicit = ScanConfig(mode="giant", values=(0.3, 0.1))
    assert resolve_grid(explicit, 100, sigma_hat=None) == [0.3, 0.1]

    bad = ScanConfig(mode="giant", gammas=(200.0,), sigma_normalized=False)
    with pytest.raises(ConfigError):
        resolve_grid(bad, 100, sigma_hat=None)


# ---------------------------------------------------------------------------
# scan engine

def _cube_scan(n_values, reps, ps, workers=1, seed=314):
    specs = [GobSpec(n, Cap(1.0)) for n in n_values]
    cfg = ScanConfig(mode="connectivity", replicates=reps, values=tuple(ps))
    return run_scan(specs, SamplerConfig(method="exact_cube"), cfg, seed,
                    workers=workers)


def test_scan_recovers_er_probabilities():
    ps = (0.2, 0.5, 0.8)
    result = _cube_scan([5], 4000, ps)
    for row in result.rows:
        truth = er_connectivity_oracle(5, row.p)
        se = math.sqrt(truth * (1 - truth) / row.replicates)
        assert abs(row.p_connected - truth) < 3 * se
        assert row.p_connected_lo <= row.p_connected <= row.p_connected_hi


def test_scan_rows_coupled_and_consistent():
    result = _cube_scan([6], 500, (0.1, 0.3, 0.5, 0.7, 0.9))
    rows = sorted(result.rows, key=lambda r: r.p)
    conn = [r.p_connected for r in rows]
    iso = [r.p_has_isolated for r in rows]
    giant = [r.mean_giant_frac for r in rows]
    # coupling makes the per-replicate indicators monotone in p, so the
    # estimated curves are exactly monotone, not just in expectation
    assert conn == sorted(conn)
    assert iso == sorted(iso, reverse=True)
    assert giant == sorted(giant)
    for r in rows:
        assert r.p_connected + r.p_has_isolated <= 1.0 + 1e-12
        assert 0 <= r.small_mass_frac <= 1
        assert 0 <= r.mean_giant_frac <= 1


def test_scan_deterministic_across_workers():
    a = _cube_scan([5, 6], 200, (0.3, 0.6), workers=1)
    b = _cube_scan([5, 6], 200, (0.3, 0.6), workers=3)
    assert a.rows == b.rows


def test_simplex_scan_rows_identical_across_workers():
    specs = [GobSpec(n, Linear(1.0)) for n in (12, 20)]
    cfg = ScanConfig(mode="connectivity", replicates=250,
                     gammas=(0.4, 1.5, 0.8, 0.8), pilot_draws=100)
    sampler_cfg = SamplerConfig(method="exact_simplex")
    a = run_scan(specs, sampler_cfg, cfg, 11, workers=1)
    b = run_scan(specs, sampler_cfg, cfg, 11, workers=2)
    assert a.rows == b.rows
    assert a.meta == b.meta


@pytest.mark.parametrize("n_values,reps,workers,pool_size", [
    ([5, 6], 200, 8, 4),     # four chunks: the pool is sized to them
    ([5, 6], 200, 3, 3),
    ([5], 100, 8, None),     # one chunk runs in this process, with no pool
    ([5, 6], 200, 1, None),
])
def test_scan_pool_no_larger_than_its_tasks(monkeypatch, n_values, reps, workers,
                                            pool_size):
    # a process pool starts all its workers at once, so it gets no more
    # than there are chunks; the stand-in records the size and maps here
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    serial = _cube_scan(n_values, reps, (0.3, 0.6))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    pooled = _cube_scan(n_values, reps, (0.3, 0.6), workers=workers)
    assert sizes == ([] if pool_size is None else [pool_size])
    assert pooled.rows == serial.rows


def test_scan_records_censor_level_and_edges_kept():
    # 250 replicates run as three chunks; the merged count must equal a
    # replay of every replicate's draw
    ps = (0.15, 0.4, 0.25)
    specs = [GobSpec(n, Linear(1.0)) for n in (5, 7)]
    cfg = ScanConfig(mode="connectivity", replicates=250, values=ps)
    result = run_scan(specs, SamplerConfig(method="exact_simplex"), cfg, 21)
    assert result.meta["censor_above"] == {5: 0.4, 7: 0.4}
    sampler = make_sampler(specs[1], SamplerConfig(method="exact_simplex",
                                                   censor_above=0.4))
    replay = sum(len(sampler(substream(21, (1, r + 1)), 1)[0][0]) for r in range(250))
    assert result.meta["edges_kept"][7] == replay
    assert all(isinstance(v, int) and v > 0 for v in result.meta["edges_kept"].values())


def _simplex_scan(**grid):
    specs = [GobSpec(n, Linear(1.0)) for n in (5, 12)]
    cfg = ScanConfig(mode="connectivity", replicates=250, **grid)
    return run_scan(specs, SamplerConfig(method="exact_simplex"), cfg, 21)


def test_scan_batches_give_the_same_rows(monkeypatch):
    # a chunk's cut draws go to the sweep in batches of at most
    # _BLOCK_BYTES // 16 kept coordinates, and the pilot's draws come in
    # blocks of _BLOCK_BYTES; where the batches and blocks end must not
    # change a row, sigma-hat or the kept-edge count
    batches = []
    sweep = experiments.threshold_sweep

    def counted(n, graphs, p_values):
        batches.append((n, len(graphs)))
        return sweep(n, graphs, p_values)

    for grid in ({"values": (0.01, 0.04, 0.02, 0.02)},
                 {"gammas": (0.5, 1.5, 1.0, 1.0)}):
        monkeypatch.undo()
        whole = _simplex_scan(**grid)
        monkeypatch.setattr(experiments, "threshold_sweep", counted)
        # 0: every replicate is swept alone; then a flush about every 40
        # replicates at n = 12, so inside each chunk of 100
        per_replicate = whole.meta["edges_kept"][12] // 250
        for block_bytes in (0, 16 * 40 * per_replicate):
            batches.clear()
            monkeypatch.setattr(samplers, "_BLOCK_BYTES", block_bytes)
            split = _simplex_scan(**grid)
            assert split.rows == whole.rows
            assert split.meta == whole.meta
            sizes = [size for n, size in batches if n == 12]
            assert sum(sizes) == 250 and len(sizes) > 3 and max(sizes) < 50
            if block_bytes == 0:
                assert len(batches) == 500


def test_scan_chunk_memory_bounded():
    # one chunk of 100 replicates at n = 1000 on the connectivity grid keeps
    # about 7e5 edges, more than one batch holds; measured peak 40.2 MiB
    # (batches of 5.2e5 edges), against 56.3 MiB for the whole chunk at once
    n = 1000
    d = n * (n - 1) // 2
    sigma = math.sqrt(2.0 / ((d + 1) * (d + 2)))
    ps = [g * sigma * math.log(n) / n for g in (0.4, 0.55, 0.7, 0.85, 1.0, 1.2, 1.5)]
    cfg = SamplerConfig(method="exact_simplex", censor_above=max(ps))
    payload = (GobSpec(n, Linear(1.0)), cfg, ps, 5, 0, 0, 100, 2.0)
    tracemalloc.start()
    try:
        _, edges_kept = experiments._scan_chunk(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert edges_kept > samplers._BLOCK_BYTES // 16
    assert peak < 6 * samplers._BLOCK_BYTES


def test_scan_merges_chunks_by_spec_position():
    # two specs at one n keep their own counts; merged by n, they once
    # summed to more successes than replicates (a ValueError)
    alone = _cube_scan([5], 150, (0.5,))
    twice = _cube_scan([5, 5], 150, (0.5,))
    assert len(twice.rows) == 2
    assert twice.rows[0] == alone.rows[0]


def test_scan_meta_records_mode():
    result = _cube_scan([5], 100, (0.5,))
    assert result.meta["mode"] == "connectivity"
    assert result.meta["master_seed"] == 314
    giant = run_scan([GobSpec(5, Cap(1.0))], SamplerConfig(method="exact_cube"),
                     ScanConfig(mode="giant", values=(0.5,), replicates=100), 0)
    assert giant.meta["mode"] == "giant"


def test_giant_scan_simplex_smoke():
    specs = [GobSpec(30, Linear(1.0))]
    cfg = ScanConfig(mode="giant", replicates=100, gammas=(0.25, 6.0),
                     sigma_normalized=True, pilot_draws=200)
    result = run_scan(specs, SamplerConfig(method="exact_simplex"), cfg, 7)
    rows = sorted(result.rows, key=lambda r: r.p)
    assert rows[0].mean_giant_frac < rows[1].mean_giant_frac
    assert result.meta["sigma_hat"][30] == pytest.approx(
        math.sqrt(2.0 / ((436) * (437))), rel=0.15)


# ---------------------------------------------------------------------------
# threshold locator

def _synthetic_result(points, mode="connectivity", n=100):
    rows = []
    for p, y in points:
        rows.append(ScanRow(
            n=n, p=p, replicates=100, p_connected=y, p_connected_lo=y,
            p_connected_hi=y, p_has_isolated=1 - y, p_has_isolated_lo=1 - y,
            p_has_isolated_hi=1 - y, mean_isolated=0.0, mean_giant_frac=y,
            p_mid_component=0.0, p_mid_component_lo=0.0, p_mid_component_hi=0.0,
            small_mass_frac=0.0))
    return ScanResult(rows=rows, meta={"mode": mode, "sigma_hat": {n: 0.5}})


def test_locator_interpolates():
    result = _synthetic_result([(0.01, 0.3), (0.02, 0.7)])
    (c,) = threshold_locator(result, "p_connected")
    assert not c.censored
    assert c.p_star == pytest.approx(0.015)
    assert c.normalized == pytest.approx(0.015 * 100 / math.log(100))
    assert c.normalized_sigma == pytest.approx(c.normalized / 0.5)


def test_locator_decreasing_metric():
    result = _synthetic_result([(0.01, 0.2), (0.02, 0.8)])
    (c,) = threshold_locator(result, "p_has_isolated")
    assert c.p_star == pytest.approx(0.015)


def test_locator_censored_and_giant_normalization():
    result = _synthetic_result([(0.01, 0.1), (0.02, 0.2)])
    (c,) = threshold_locator(result, "p_connected")
    assert c.censored and c.p_star is None
    result = _synthetic_result([(0.01, 0.3), (0.02, 0.7)], mode="giant")
    (c,) = threshold_locator(result, "p_connected")
    assert c.normalized == pytest.approx(0.015 * 100)


def test_locator_takes_first_bracket():
    result = _synthetic_result([(0.01, 0.3), (0.02, 0.7), (0.03, 0.4),
                                (0.04, 0.9)])
    (c,) = threshold_locator(result, "p_connected")
    assert c.p_star == pytest.approx(0.015)
