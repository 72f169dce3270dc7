"""Threshold graphs and their component structure.

An edge vector x and a threshold p determine the graph whose edge {i, j}
is present iff x_{ij} <= p (closed inequality; ties have probability 0
under the continuous laws but the convention is fixed for determinism).

Components come from one union-find loop.  `threshold_sweep` runs it as
a Newman-Ziff sweep: the edges are added once in increasing x_e and the
component-order histogram is read off at every threshold of a grid, so a
whole p grid costs one pass.  `components` runs the same loop over the
edges of a single `ThresholdGraph`; `components_bfs` is an independent
BFS oracle for both.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat

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
    keep = np.nonzero(_edge_values(x, n) <= p)[0]
    return ThresholdGraph(n=n, p=p, edges=np.column_stack(edge_endpoints(n, keep)))


def _check_p(p):
    if not 0.0 < p < 1.0:
        raise ValueError(f"threshold p must lie in (0, 1), got {p}")
    return float(p)


def _edge_values(x, n):
    x = np.asarray(x)
    d = edge_count(n)
    if x.shape != (d,):
        raise ValueError(f"expected {d} edge values for n={n}, got shape {x.shape}")
    return x


def _union_sweep(n, us, vs, cuts):
    """Union the edges (us[i], vs[i]) in list order, by size with path halving.

    Returns the component-order histogram {order: count} after the first
    c edges, for each c in the ascending list `cuts`.
    """
    parent = list(range(n))
    size = [1] * n
    hist = {1: n}
    largest = 1
    out = []
    start = 0
    for cut in cuts:
        for u, v in zip(us[start:cut], vs[start:cut]):
            if largest == n:  # a connected graph stays connected
                break
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u == v:
                continue
            su = size[u]
            sv = size[v]
            if su < sv:
                u, v = v, u
            parent[v] = u
            merged = su + sv
            size[u] = merged
            c = hist[su]
            if c == 1:
                del hist[su]
            else:
                hist[su] = c - 1
            c = hist[sv]
            if c == 1:
                del hist[sv]
            else:
                hist[sv] = c - 1
            hist[merged] = hist.get(merged, 0) + 1
            if merged > largest:
                largest = merged
        start = cut
        out.append(dict(hist))
    return out


def threshold_sweep(x, n, p_values):
    """Component-order histograms of build_graph(x, n, p) for every p.

    One Newman-Ziff sweep (Newman & Ziff, PRL 2000): the edges with
    x_e <= max(p) are sorted by x and unioned in that order, and
    the histogram is read off as each threshold is passed.  `p_values`
    may be unsorted and repeat values; the result follows their order.
    Coordinates above max(p) are never read beyond that comparison, so a
    censored draw (+inf above the level) gives the same histograms as the
    full vector at every p up to the level.  The endpoints of the kept
    edges come from `edges.edge_endpoints`, not from an edge table.
    """
    x = _edge_values(x, n)
    ps = np.array([_check_p(p) for p in p_values], dtype=float)
    order = np.argsort(ps, kind="stable")
    kept = np.flatnonzero(x <= ps[order[-1]])
    # the edge set below each cut does not depend on how ties in x are
    # ordered, so the faster unstable sort gives the same histograms
    kept = kept[np.argsort(x[kept])]
    cuts = np.searchsorted(x[kept], ps[order], side="right")
    us, vs = edge_endpoints(n, kept)
    hists = _union_sweep(n, us.tolist(), vs.tolist(), cuts.tolist())
    out = [None] * len(ps)
    for k, hist in zip(order.tolist(), hists):
        out[k] = hist
    return out


def histogram_stats(n, hist):
    """ComponentStats of an n-vertex graph from its {order: count} histogram."""
    orders = sorted(hist, reverse=True)
    sizes = tuple(chain.from_iterable(repeat(k, hist[k]) for k in orders))
    return ComponentStats(
        sizes=sizes,
        isolated_count=hist.get(1, 0),
        max_component=orders[0],
        z_histogram=dict(hist),
        connected=orders[0] == n,
    )


def components(g):
    """Component decomposition of a threshold graph."""
    hist, = _union_sweep(g.n, g.edges[:, 0].tolist(), g.edges[:, 1].tolist(),
                         [len(g.edges)])
    return histogram_stats(g.n, hist)


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
    orders.sort(reverse=True)
    hist = Counter(orders)
    return ComponentStats(
        sizes=tuple(orders),
        isolated_count=hist.get(1, 0),
        max_component=orders[0],
        z_histogram=dict(hist),
        connected=orders[0] == g.n,
    )
