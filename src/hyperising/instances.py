"""Seeded random test instances: connected hypergraphs with bounded degree
and edge size, regular graphs, and symmetric random edge tables."""

from __future__ import annotations

import random

from .errors import SchemaError
from .hypergraph import Hyperedge, Hypergraph, IsingActivity, TableActivity
from .leeyang import ising_ly_range


def in_range_beta(rng: random.Random, k: int) -> float:
    """Activity drawn inside the tight range for edge size k, keeping 5% of
    the interval away from both endpoints."""
    r = ising_ly_range(k)
    u = rng.uniform(0.05, 0.95)
    return r.lo + u * (r.hi - r.lo)


def random_symmetric_table(rng: random.Random, size: int) -> TableActivity:
    """Random symmetric table phi(sigma) = conj(phi(-sigma)), phi(-..-) = 1,
    its off-pattern magnitudes scaled so that the Suzuki-Fisher condition
    |phi(+..+)| >= (1/4) sum |phi| holds with a little slack."""
    full = 1 << size
    values: list[complex | None] = [None] * full
    values[0] = complex(1.0)
    values[full - 1] = complex(1.0)  # symmetry pairs it with the all-minus 1
    for b in range(1, full - 1):
        if values[b] is None:
            v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            values[b] = v
            values[(full - 1) ^ b] = v.conjugate()
    middle = sum(abs(v) for v in values[1:-1])
    budget = 1.8  # keeps 1 >= (2 + middle)/4 with slack
    if middle > budget:
        scale = budget / middle
        for b in range(1, full - 1):
            values[b] = values[b] * scale
    return TableActivity(tuple(values))


def random_connected_hypergraph(rng: random.Random, n: int,
                                max_degree: int = 4, max_edge_size: int = 4,
                                activity: str = "in-range") -> Hypergraph:
    """Connected hypergraph on n vertices respecting the degree and edge
    size caps: a random spanning structure plus up to max(1, n // 2) extra
    edges, with activities per `activity`:

      "in-range"  Ising betas inside the tight circle range per edge size
      "table"     symmetric random tables passing Suzuki-Fisher
      "mixed"     coin flip between the two per edge
    """
    if n < 1:
        raise SchemaError("need at least one vertex")
    if max_degree < 2 or max_edge_size < 2:
        raise SchemaError("degree and edge size caps must be >= 2")

    def make_activity(k: int):
        kind = activity
        if kind == "mixed":
            kind = "table" if rng.random() < 0.4 else "in-range"
        if kind == "in-range":
            return IsingActivity(in_range_beta(rng, k))
        if kind == "table":
            return random_symmetric_table(rng, k)
        raise SchemaError(f"unknown activity scheme {activity!r}")

    for _ in range(200):
        degrees = [0] * n
        members_list: list[tuple[int, ...]] = []
        order = list(range(n))
        rng.shuffle(order)
        reached = [order[0]]
        ok = True
        for v in order[1:]:
            avail = [u for u in reached if degrees[u] < max_degree]
            if not avail:
                ok = False
                break
            size = rng.randint(2, max(2, min(max_edge_size, len(avail) + 1)))
            chosen = rng.sample(avail, min(size - 1, len(avail)))
            edge = tuple(sorted(chosen + [v]))
            members_list.append(edge)
            for u in edge:
                degrees[u] += 1
            reached.append(v)
        if not ok:
            continue
        for _ in range(max(1, n // 2)):
            avail = [u for u in range(n) if degrees[u] < max_degree]
            if len(avail) < 2:
                break
            size = rng.randint(2, min(max_edge_size, len(avail)))
            edge = tuple(sorted(rng.sample(avail, size)))
            members_list.append(edge)
            for u in edge:
                degrees[u] += 1
        edges = tuple(
            Hyperedge(members, make_activity(len(members)))
            for members in members_list
        )
        return Hypergraph(n, edges)
    raise SchemaError("could not satisfy the degree cap; raise it or retry")


def random_regular_graph(rng: random.Random, n: int, degree: int,
                         beta: float) -> Hypergraph:
    """Simple degree-regular graph via stub pairing with rejection."""
    if n * degree % 2:
        raise SchemaError("n * degree must be even")
    for _ in range(5000):
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[i:i + 2])) for i in range(0, len(stubs), 2)}
        if len(pairs) != n * degree // 2:
            continue
        if any(a == b for a, b in pairs):
            continue
        edges = tuple(
            Hyperedge(p, IsingActivity(beta)) for p in sorted(pairs)
        )
        return Hypergraph(n, edges)
    raise SchemaError("failed to sample a simple regular graph")
