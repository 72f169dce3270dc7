"""Canonical indexing of unordered vertex pairs.

Edge coordinates are stored in row-major order over pairs (i, j) with
i < j (0-based): (0,1), (0,2), ..., (0,n-1), (1,2), ...
"""

from functools import lru_cache

import numpy as np


def edge_count(n):
    """Number of unordered pairs on n vertices."""
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got n={n}")
    return n * (n - 1) // 2


@lru_cache(maxsize=64)
def edge_pairs(n):
    """(d, 2) int array of all pairs (i, j), i < j, in canonical order."""
    edge_count(n)  # validates n
    i, j = np.triu_indices(n, k=1)
    pairs = np.column_stack([i, j])
    pairs.setflags(write=False)
    return pairs


def edge_index(n, i, j):
    """Position of the pair {i, j} in the canonical order."""
    if not (0 <= i < j < n):
        raise ValueError(f"need 0 <= i < j < n, got i={i}, j={j}, n={n}")
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def edge_endpoints(n, k):
    """Pairs (i, j) at the positions `k` of the canonical order, as two arrays.

    Inverts `edge_index` arithmetically, with no (d, 2) table: row i
    starts at s(i) = i (2n - 1 - i) / 2 (an even product, so the halving
    is a shift), and i is the largest row with s(i) <= k.  The quadratic
    formula gives it in float64; one integer step down where s(i) > k and
    one up where s(i + 1) <= k make it exact for every k.
    """
    k = np.asarray(k, dtype=np.int64)
    b = 2 * n - 1
    i = ((b - np.sqrt(b * b - 8 * k)) * 0.5).astype(np.int64)
    i -= i * (b - i) >> 1 > k
    i += (i + 1) * (b - 1 - i) >> 1 <= k
    return i, k - (i * (b - i) >> 1) + i + 1
