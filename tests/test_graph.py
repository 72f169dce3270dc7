import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gobgraph import (build_graph, components, components_bfs, edge_count,
                      edge_endpoints, edge_index, histogram_stats,
                      small_component_mass, threshold_sweep)
from gobgraph.experiments import _cell_counts


# ---------------------------------------------------------------------------
# edge indexing

def test_edge_count_values():
    assert edge_count(2) == 1
    assert edge_count(5) == 10
    assert edge_count(50) == 1225


def test_edge_endpoints_canonical_order():
    i, j = edge_endpoints(4, np.arange(6))
    assert list(zip(i.tolist(), j.tolist())) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_edge_index_roundtrip():
    n = 7
    i, j = np.triu_indices(n, k=1)
    for e, pair in enumerate(zip(i.tolist(), j.tolist())):
        assert edge_index(n, *pair) == e


def test_edge_endpoints_invert_the_canonical_order():
    for n in range(2, 201):
        i, j = edge_endpoints(n, np.arange(edge_count(n)))
        ti, tj = np.triu_indices(n, k=1)  # the canonical order, as a table
        assert np.array_equal(i, ti) and np.array_equal(j, tj)
    # n = 2000: the first and last edge of every row, and their neighbours
    n = 2000
    rows = np.arange(n - 1)
    starts = rows * (2 * n - rows - 1) // 2
    k = np.unique(np.concatenate([starts - 1, starts, starts + 1]))
    k = k[(k >= 0) & (k < edge_count(n))]
    i, j = edge_endpoints(n, k)
    assert np.all((0 <= i) & (i < j) & (j < n))
    assert [edge_index(n, a, b) for a, b in zip(i.tolist(), j.tolist())] == k.tolist()
    assert np.array_equal(i[np.isin(k, starts)], rows)
    assert np.array_equal(j[np.isin(k, starts)], rows + 1)


# ---------------------------------------------------------------------------
# thresholding

def test_build_graph_example():
    x = np.array([0.1, 0.9, 0.3, 0.5, 0.7, 0.2])
    g = build_graph(x, 4, 0.4)
    assert g.edges.tolist() == [[0, 1], [0, 3], [2, 3]]


def test_build_graph_closed_inequality():
    x = np.array([0.4, 0.9, 0.9, 0.9, 0.9, 0.9])
    g = build_graph(x, 4, 0.4)
    assert g.edges.tolist() == [[0, 1]]


def test_build_graph_validation():
    x = np.zeros(6)
    for bad_p in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            build_graph(x, 4, bad_p)
    with pytest.raises(ValueError):
        build_graph(np.zeros(5), 4, 0.5)


# ---------------------------------------------------------------------------
# components

def test_components_path_graph():
    x = np.array([0.1, 0.9, 0.9, 0.1, 0.9, 0.1])  # edges 01, 12, 23
    stats = components(build_graph(x, 4, 0.2))
    assert stats.sizes == (4,)
    assert stats.connected
    assert stats.isolated_count == 0


def test_components_two_pairs():
    x = np.array([0.1, 0.9, 0.9, 0.9, 0.9, 0.1])  # edges 01, 23
    stats = components(build_graph(x, 4, 0.2))
    assert stats.sizes == (2, 2)
    assert not stats.connected
    assert stats.z_histogram == {2: 2}
    assert stats.max_component == 2


def test_components_empty_graph():
    stats = components(build_graph(np.full(10, 0.9), 5, 0.1))
    assert stats.sizes == (1,) * 5
    assert stats.isolated_count == 5
    assert not stats.connected


def test_small_component_mass():
    x = np.array([0.1, 0.9, 0.9, 0.9, 0.9, 0.1])
    stats = components(build_graph(x, 4, 0.2))
    assert small_component_mass(stats, 1) == 0
    assert small_component_mass(stats, 2) == 4
    with pytest.raises(ValueError):
        small_component_mass(stats, 0)


def test_size_sum_invariant():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        x = rng.random(edge_count(n))
        stats = components(build_graph(x, n, 0.5))
        assert sum(stats.sizes) == n
        assert sum(k * z for k, z in stats.z_histogram.items()) == n


def test_monotone_in_p():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(3, 10))
        x = rng.random(edge_count(n))
        prev_edges = -1
        prev_max = 0
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            g = build_graph(x, n, p)
            stats = components(g)
            assert len(g.edges) >= prev_edges
            assert stats.max_component >= prev_max
            prev_edges = len(g.edges)
            prev_max = stats.max_component


def test_union_find_matches_bfs():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        x = rng.random(edge_count(n))
        g = build_graph(x, n, float(rng.uniform(0.05, 0.95)))
        assert components(g) == components_bfs(g)


# ---------------------------------------------------------------------------
# threshold sweep

# a small value set makes ties between edges, and x_e == p, common
_LEVELS = (0.125, 0.25, 0.5, 0.75)


def _counts_from_stats(stats, n, big_thresh, mass_cutoff):
    """The scan accumulators, computed from a full size list."""
    sizes = stats.sizes
    return (int(stats.connected), int(stats.isolated_count > 0),
            int(any(big_thresh <= sz <= n / 2 for sz in sizes)),
            int(stats.max_component >= big_thresh),
            sum(1 for sz in sizes if sz > n / 2), stats.isolated_count,
            stats.max_component, small_component_mass(stats, mass_cutoff))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 12),
       grid=st.lists(st.sampled_from(_LEVELS + (0.3, 0.6)), min_size=1,
                     max_size=6),
       beta=st.sampled_from([1.1, 2.0]))
def test_sweep_matches_bfs_per_threshold(data, n, grid, beta):
    x = np.array(data.draw(st.lists(st.sampled_from(_LEVELS),
                                    min_size=edge_count(n),
                                    max_size=edge_count(n))))
    # unsorted, with a repeat, one p below every x_e and one above every x_e
    ps = grid + [0.05, grid[0], 0.95]
    big_thresh = beta * math.log(n)
    mass_cutoff = max(1, math.floor(big_thresh))
    hists = threshold_sweep(x, n, ps)
    assert len(hists) == len(ps)
    for p, hist in zip(ps, hists):
        truth = components_bfs(build_graph(x, n, p))
        assert hist == truth.z_histogram
        assert histogram_stats(n, hist) == truth
        assert (_cell_counts(hist, n, big_thresh, mass_cutoff)
                == _counts_from_stats(truth, n, big_thresh, mass_cutoff))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 12), level=st.sampled_from(_LEVELS),
       grid=st.lists(st.sampled_from(_LEVELS + (0.05, 0.3, 0.6)), min_size=1,
                     max_size=6))
def test_sweep_of_censored_vector_matches_full(data, n, level, grid):
    # a censored draw is the full vector with +inf above the level: every
    # p <= level sees the same graph
    x = np.array(data.draw(st.lists(st.sampled_from(_LEVELS + (0.9,)),
                                    min_size=edge_count(n),
                                    max_size=edge_count(n))))
    ps = [p for p in grid if p <= level] or [level]
    censored = np.where(x <= level, x, np.inf)
    assert threshold_sweep(censored, n, ps) == threshold_sweep(x, n, ps)


def test_sweep_validation():
    with pytest.raises(ValueError):
        threshold_sweep(np.zeros(6), 4, [0.5, 1.0])
    with pytest.raises(ValueError):
        threshold_sweep(np.zeros(5), 4, [0.5])


def test_pigeonhole_check_raises():
    # two components of order > n/2 cannot exist; the check is not an assert,
    # so it also holds under python -O
    with pytest.raises(RuntimeError, match="pigeonhole"):
        _cell_counts({3: 2}, 4, 2.0, 2)
