"""Shared instance builders and brute-force reference helpers."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from hyperising import (Hyperedge, Hypergraph, IsingActivity, TableActivity,
                        enumerate_connected)
from hyperising.instances import random_connected_hypergraph


def ising_edge(verts, beta):
    return Hyperedge(tuple(sorted(verts)), IsingActivity(float(beta)))


def k2(beta=0.5):
    return Hypergraph(2, (ising_edge((0, 1), beta),))


def path3(beta=0.5):
    return Hypergraph(3, (ising_edge((0, 1), beta), ising_edge((1, 2), beta)))


def triangle(beta=0.5):
    return Hypergraph(3, (ising_edge((0, 1), beta), ising_edge((0, 2), beta),
                          ising_edge((1, 2), beta)))


def single_edge(k, beta):
    return Hypergraph(k, (ising_edge(range(k), beta),))


def edgeless(n):
    return Hypergraph(n, ())


def path_graph(n, beta=0.5):
    return Hypergraph(n, tuple(ising_edge((i, i + 1), beta)
                               for i in range(n - 1)))


def cycle_graph(n, beta=0.5):
    edges = [ising_edge((i, (i + 1) % n), beta) for i in range(n)]
    return Hypergraph(n, tuple(sorted(edges, key=lambda e: e.vertices)))


def complete_graph(n, beta=0.5):
    return Hypergraph(n, tuple(ising_edge(pair, beta)
                               for pair in itertools.combinations(range(n), 2)))


def with_uniform_beta(g: Hypergraph, beta: float) -> Hypergraph:
    """g's vertices and edges with Ising activity beta on every edge."""
    return Hypergraph(g.n, tuple(
        Hyperedge(e.vertices, IsingActivity(beta)) for e in g.edges
    ))


def disjoint_union(g1: Hypergraph, g2: Hypergraph) -> Hypergraph:
    """Place g2 after g1 on fresh vertex ids."""
    shifted = tuple(Hyperedge(tuple(v + g1.n for v in e.vertices), e.activity)
                    for e in g2.edges)
    return Hypergraph(g1.n + g2.n, g1.edges + shifted)


def table_edge(verts, values):
    return Hyperedge(tuple(sorted(verts)), TableActivity(tuple(values)))


def set_weight(g: Hypergraph, mask: int) -> complex:
    """w(S) of the label set S at bitmask mask: (-1)^|S| times the product,
    over the edges meeting S, of the table value with S at "+" and every
    other vertex (the boundary included) at "-"."""
    w = complex((-1) ** mask.bit_count())
    for e in g.edges:
        plus = sum(1 << j for j, v in enumerate(e.vertices) if mask >> v & 1)
        if plus:
            w *= e.activity.table(e.size)[plus]
    return w


def brute_cut_histogram(g: Hypergraph) -> list[list[int]]:
    """H[i][c], the label sets of size i that cut exactly c edges, counted
    over all 2^n subsets one by one; an edge on mask m is cut by the set s
    when s meets it without covering it."""
    masks = [sum(1 << v for v in e.vertices) for e in g.edges]
    h = [[0] * (len(masks) + 1) for _ in range(g.n + 1)]
    for s in range(1 << g.n):
        h[s.bit_count()][sum(0 < s & m < m for m in masks)] += 1
    return h


def brute_coefficients(g: Hypergraph, lams=None) -> list[complex]:
    """c_i, the sum over the label sets S of size i of prod_e phi_e(S)
    prod_{v in S} lams[v] (lams None: all 1), over all 2^n subsets one by
    one. An edge's table is 1 at the all-"-" pattern, so prod_e phi_e(S)
    is (-1)^|S| set_weight(g, S); each table is expanded once."""
    tabled = Hypergraph(g.n, tuple(table_edge(e.vertices, e.activity.table(e.size))
                                   for e in g.edges))
    c = [0j] * (g.n + 1)
    for s in range(1 << g.n):
        w = (-1) ** s.bit_count() * set_weight(tabled, s)
        if lams is not None:
            w *= math.prod(lams[v] for v in range(g.n) if s >> v & 1)
        c[s.bit_count()] += w
    return c


def set_is_connected(g: Hypergraph, mask: int) -> bool:
    """Whether the edge traces e ∩ S join the nonempty label set S at
    bitmask mask (union-find over consecutive vertices of each trace)."""
    labels = [v for v in range(g.n) if mask >> v & 1]
    parent = {v: v for v in labels}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in g.edges:
        trace = [v for v in e.vertices if mask >> v & 1]
        for a, b in zip(trace, trace[1:]):
            parent[find(a)] = find(b)
    return len({find(v) for v in labels}) == 1


def brute_connected_sets(g: Hypergraph, t: int) -> dict[int, set[tuple[int, ...]]]:
    """All connected label sets of size <= t by exhausting every subset."""
    out: dict[int, set[tuple[int, ...]]] = {s: set() for s in range(1, t + 1)}
    for size in range(1, min(t, g.n) + 1):
        for sub in itertools.combinations(range(g.n), size):
            if set_is_connected(g, sum(1 << v for v in sub)):
                out[size].add(sub)
    return out


def label_sets(rows: np.ndarray) -> set[tuple[int, ...]]:
    """The rows of a family's size array as a set of label tuples."""
    return set(map(tuple, rows.tolist()))


def table_dicts(ct, g: Hypergraph) -> list[dict[int, complex]]:
    """Each order's coefficient array of g's table as a map from label-set
    bitmask to value; the arrays follow the rows of g's family, smaller
    sets first, and enumeration gives those rows in one order only."""
    fam = enumerate_connected(g, len(ct.tables))
    masks = [sum(1 << v for v in row) for rows in fam.by_size
             for row in rows.tolist()]
    return [dict(zip(masks, t.tolist())) for t in ct.tables]


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def spanning_tree_count(adj: np.ndarray) -> int:
    """Kirchhoff: number of spanning trees from any Laplacian minor."""
    n = adj.shape[0]
    if n == 1:
        return 1
    lap = np.diag(adj.sum(axis=1)) - adj
    det = np.linalg.det(lap[1:, 1:])
    return int(round(det))


def subtree_count(g: Hypergraph, t: int, v: int) -> int:
    """Number of t-vertex subtrees of a (multi)graph containing v: spanning
    trees of the induced subgraph, summed over vertex subsets through v."""
    adj = np.zeros((g.n, g.n))
    for e in g.edges:
        a, b = e.vertices
        adj[a, b] += 1
        adj[b, a] += 1
    total = 0
    for sub in itertools.combinations(range(g.n), t):
        if v not in sub:
            continue
        block = adj[np.ix_(sub, sub)]
        if ((block.sum(axis=1) > 0).all() or t == 1):
            total += spanning_tree_count(block)
    return total


def corpus_n14() -> list[Hypergraph]:
    """Fixed small-instance corpus: graphs and hypergraphs up to 14
    vertices, including parallel edges, isolated vertices, and a
    disconnected host."""
    rng = random.Random(1404)
    hosts = [
        k2(0.5),
        path3(0.4),
        triangle(0.3),
        single_edge(3, -1 / 3),
        single_edge(5, 0.15),
        path_graph(8, 0.6),
        cycle_graph(10, 0.2),
        # parallel edges and an isolated vertex
        Hypergraph(5, (ising_edge((0, 1), 0.5), ising_edge((0, 1), 0.5),
                       ising_edge((1, 2, 3), 0.2))),
        # disconnected host
        Hypergraph(7, (ising_edge((0, 1), 0.5), ising_edge((1, 2), 0.5),
                       ising_edge((4, 5, 6), 0.25))),
        random_connected_hypergraph(rng, 12, 4, 4, activity="in-range"),
        random_connected_hypergraph(rng, 14, 4, 5, activity="in-range"),
        random_connected_hypergraph(rng, 13, 3, 3, activity="mixed"),
    ]
    return hosts


@pytest.fixture(scope="session")
def small_corpus():
    return corpus_n14()


def rel_err(approx: complex, exact: complex) -> float:
    return abs(approx - exact) / max(abs(exact), 1e-300)


def max_coeff_rel_err(c_approx, c_exact) -> float:
    scale = max(max(abs(x) for x in c_exact), 1e-300)
    worst = 0.0
    for a, b in zip(c_approx, c_exact):
        denom = abs(b) if abs(b) > 1e-9 * scale else scale
        worst = max(worst, abs(a - b) / denom)
    return worst


LAMBDA_GRID = [0.3, 0.5 * complex(math.cos(math.pi / 3), math.sin(math.pi / 3)),
               0.9, 1.5]
