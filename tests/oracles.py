"""Independent textbook oracles used to validate the package.

These deliberately avoid all quadcsp internals so that agreement is
meaningful: plain Floyd-Warshall / Bellman-Ford over Fraction weights,
a subset-by-subset hypercycle walk built only on the single-family
tests ``positive_dependence`` and ``is_simple`` of ``reference``, and the
cell grid of a bound matrix read through its public ``get``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from quadcsp.core import normal_vector
from reference import is_simple, positive_dependence

INF = float("inf")


def floyd_warshall(weights):
    """All-pairs shortest paths of a dense weighted digraph.

    `weights[k][l]` is the arc weight k -> l (INF when absent).  Returns
    (dist, has_negative_cycle); dist entries are exact when finite.
    """
    size = len(weights)
    dist = [row[:] for row in weights]
    for k in range(size):
        dist[k][k] = min(dist[k][k], Fraction(0))
    for mid in range(size):
        for a in range(size):
            d_am = dist[a][mid]
            if d_am == INF:
                continue
            row_m = dist[mid]
            row_a = dist[a]
            for b in range(size):
                if row_m[b] == INF:
                    continue
                cand = d_am + row_m[b]
                if cand < row_a[b]:
                    row_a[b] = cand
    negative = any(dist[k][k] < 0 for k in range(size))
    return dist, negative


def bellman_ford(size, arcs, source):
    """Single-source shortest paths; arcs are (u, v, weight) triples.

    Returns (dist list, has_negative_cycle).
    """
    dist = [INF] * size
    dist[source] = Fraction(0)
    for _ in range(size - 1):
        changed = False
        for u, v, w in arcs:
            if dist[u] != INF and dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    negative = any(
        dist[u] != INF and dist[u] + w < dist[v] for u, v, w in arcs
    )
    return dist, negative


def simple_hcycles_bruteforce(constraints, max_size):
    """(members, coeffs) of every simple hypercycle of at most max_size
    constraints, in ascending size and then itertools.combinations order.

    A subset qualifies when its normal vectors are nonzero and distinct,
    positively dependent, and simple; no pruning, no filter.
    """
    n = max((max(c.indices()) for c in constraints), default=0) or 1
    vectors = [normal_vector(c, n) for c in constraints]
    out = []
    for size in range(2, max_size + 1):
        for subset in itertools.combinations(range(len(constraints)), size):
            vecs = [vectors[k] for k in subset]
            if not all(any(v) for v in vecs) or len(set(vecs)) != size:
                continue
            coeffs = positive_dependence(vecs)
            if coeffs is not None and is_simple(vecs):
                out.append((tuple(constraints[k] for k in subset), coeffs))
    return out


def cell_grid(m):
    """The (n+1)^2 x (n+1)^2 cell grid of a bound matrix, read cell by
    cell through ``m.get``: row p*(n+1)+q, column i*(n+1)+j holds the
    bound of (xi - xj) - (xp - xq).  A fresh list; editing it leaves
    ``m`` unchanged."""
    pairs = [(a, b) for a in range(m.n + 1) for b in range(m.n + 1)]
    return [[m.get(i, j, p, q) for i, j in pairs] for p, q in pairs]


def satisfies(m, valuation):
    """Exact substitution of a valuation (indexed x0..xn) into every
    finite cell of a bound matrix, read as (vi - vj) - (vp - vq) <= cell."""
    np1 = m.n + 1
    if len(valuation) != np1:
        raise ValueError(f"valuation needs {np1} entries")
    diffs = [valuation[a] - valuation[b] for a in range(np1) for b in range(np1)]
    for r, row in enumerate(cell_grid(m)):
        for c, bound in enumerate(row):
            if bound != INF and diffs[c] - diffs[r] > bound:
                return False
    return True
