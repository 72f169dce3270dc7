"""Threshold graphs and their component structure.

An edge vector x and a threshold p determine the graph whose edge {i, j}
is present iff x_{ij} <= p (closed inequality; ties have probability 0
under the continuous laws but the convention is fixed for determinism).

Components come from one vectorized union-find, `_merge`: min-label
hooking with pointer jumping over whole edge arrays.  `threshold_sweep`
runs it over a batch of graphs at once, each graph on its own block of
vertex labels, adding the edges cut by cut as a p grid rises, so a
whole grid for a whole batch costs one pass; each edge's cut, the first
p that admits it, is counted by comparisons with the grid (`_cut_index`),
not found by binary search.  `components` runs it over
the edges of a single `ThresholdGraph`; `components_bfs` is an
independent BFS oracle for both.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .edges import edge_count, edge_endpoints


@dataclass(frozen=True)
class ThresholdGraph:
    n: int
    p: float
    edges: np.ndarray  # (m, 2) int array, pairs i < j


@dataclass(frozen=True)
class ComponentStats:
    sizes: tuple           # component orders, descending
    isolated_count: int
    max_component: int
    z_histogram: dict      # order k -> Z_k
    connected: bool


def build_graph(x, n, p):
    """Threshold an edge vector: keep exactly the pairs with x_e <= p."""
    p = _check_p(p)
    x = np.asarray(x)
    d = edge_count(n)
    if x.shape != (d,):
        raise ValueError(f"expected {d} edge values for n={n}, got shape {x.shape}")
    keep = np.nonzero(x <= p)[0]
    return ThresholdGraph(n=n, p=p, edges=np.column_stack(edge_endpoints(n, keep)))


def _check_p(p):
    if not 0.0 < p < 1.0:
        raise ValueError(f"threshold p must lie in (0, 1), got {p}")
    return float(p)


def _merge(labels, us, vs):
    """Union the edges (us[i], vs[i]) into `labels`, in place.

    `labels` maps every vertex to the least vertex of its component, and
    does so again on return.  Each round hooks every root onto the least
    root it shares an edge with (`np.minimum.at`), then every label jumps
    to its label's label until none moves (Shiloach & Vishkin, J.
    Algorithms 1982); edges inside one component drop out.  A label never
    exceeds its vertex, so the hooks form no cycle, and each round leaves
    fewer roots.
    """
    while True:
        ru = labels[us]
        rv = labels[vs]
        cross = ru != rv
        if not cross.any():
            return
        us, vs, ru, rv = us[cross], vs[cross], ru[cross], rv[cross]
        np.minimum.at(labels, ru, rv)
        np.minimum.at(labels, rv, ru)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels[:] = jumped


def threshold_sweep(n, graphs, p_values):
    """Component orders of a batch of n-vertex threshold graphs at every p.

    `graphs` lists each graph's edge vector cut to its kept coordinates,
    as a pair (positions in the canonical order, values x_e).  Graph b
    owns the vertex labels [b n, (b + 1) n), and the edges of all graphs
    are merged cut by cut as p rises.  `p_values` may be unsorted and
    repeat values.  Yields (k, orders) for the grid in ascending p, k
    indexing `p_values`: `orders[b, v]` is the order of the component of
    graph b whose least vertex is v, and 0 where v is no component's
    least vertex.  A coordinate above every p never enters a graph, so a
    censored draw (the pair of its coordinates at or below the grid's
    largest p) gives the orders of the full vector.
    """
    ps = np.array([_check_p(p) for p in p_values], dtype=float)
    order = np.argsort(ps, kind="stable")
    us, vs, bounds = _cut_edges(n, graphs, ps[order])
    labels = np.arange(len(graphs) * n)
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        _merge(labels, us[lo:hi], vs[lo:hi])
        yield int(order[k]), np.bincount(labels, minlength=labels.size).reshape(-1, n)


def _cut_edges(n, graphs, sorted_ps):
    """The batch's edges as vertex labels, grouped by the first grid p they
    are in: edge e enters at the first p >= x_e (x_e == p included), and
    the edges entering at sorted_ps[k] are (us, vs)[bounds[k]:bounds[k+1]]."""
    sizes = [len(pos) for pos, _ in graphs]
    if sizes != [len(val) for _, val in graphs]:
        raise ValueError("each graph needs one value per edge position")
    cut = _cut_index(sorted_ps, np.concatenate([val for _, val in graphs]))
    # the order of the edges within a cut does not change its components;
    # a stable sort of small unsigned integers is numpy's radix sort
    by_cut = np.argsort(cut, kind="stable")
    per_cut = np.bincount(cut, minlength=len(sorted_ps))[:len(sorted_ps)]
    pos = np.concatenate([np.asarray(pos, dtype=np.int64) for pos, _ in graphs])[by_cut]
    d = edge_count(n)
    if pos.size and not 0 <= pos.min() <= pos.max() < d:
        raise ValueError(f"edge positions must lie in [0, {d}) for n={n}")
    us, vs = edge_endpoints(n, pos)
    offset = np.repeat(np.arange(len(graphs)) * n, sizes)[by_cut]
    us += offset
    vs += offset
    return us, vs, [0] + np.cumsum(per_cut).tolist()


def _cut_index(sorted_ps, x):
    """For each x_e, the number of grid p at which edge e is absent (not
    x_e <= p): the index of the first p >= x_e in the ascending grid, or
    len(sorted_ps) when there is none, as `np.searchsorted(sorted_ps, x,
    side="left")` gives.  It is counted with one comparison pass per p
    into the smallest unsigned type that holds len(sorted_ps), which is
    cheaper than a binary search per edge on the short grids of a scan."""
    g = len(sorted_ps)
    cut = np.full(x.shape, g, dtype=np.min_scalar_type(g))
    present = np.empty(x.shape, dtype=bool)
    for p in sorted_ps:
        cut -= np.less_equal(x, p, out=present)
    return cut


def _stats(n, orders):
    """ComponentStats of an n-vertex graph from its component orders."""
    sizes = tuple(sorted(orders, reverse=True))
    hist = Counter(sizes)
    return ComponentStats(
        sizes=sizes,
        isolated_count=hist.get(1, 0),
        max_component=sizes[0],
        z_histogram=dict(hist),
        connected=sizes[0] == n,
    )


def components(g):
    """Component decomposition of a threshold graph."""
    labels = np.arange(g.n)
    _merge(labels, g.edges[:, 0], g.edges[:, 1])
    orders = np.bincount(labels, minlength=g.n)
    return _stats(g.n, orders[orders > 0].tolist())


def small_component_mass(stats, cutoff):
    """Number of vertices on components of order <= cutoff."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    return sum(k * z for k, z in stats.z_histogram.items() if k <= cutoff)


def components_bfs(g):
    """Brute-force BFS labeling; independent oracle for `components`."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges.tolist():
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * g.n
    orders = []
    for s in range(g.n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        size = 0
        while stack:
            v = stack.pop()
            size += 1
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        orders.append(size)
    return _stats(g.n, orders)
