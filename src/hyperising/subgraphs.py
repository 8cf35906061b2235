"""Enumeration of connected label sets up to a size budget.

A label set S is connected when the traces e ∩ S of the edges meeting S
join all of S.

Grown breadth-first by size: the family of connected label sets of size s
is obtained by extending each connected set of size s-1 with one vertex
from its edge neighborhood and deduplicating. Every connected set of size
s > 1 contains a connected subset of size s-1, so the growth procedure is
exhaustive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import MemoryCapError
from .hypergraph import Hypergraph

DEFAULT_SET_CAP = 1 << 26


@dataclass(frozen=True)
class ConnectedFamily:
    """Connected label sets of a fixed host, grouped by size.

    by_size[s] lists, in lexicographic order, the connected label sets S
    with |S| = s, for 1 <= s <= t_max (sizes beyond the host vertex count
    are empty).
    """

    t_max: int
    by_size: tuple[tuple[tuple[int, ...], ...], ...]

    def sets_of_size(self, s: int) -> tuple[tuple[int, ...], ...]:
        if s < 1 or s > self.t_max:
            return ()
        return self.by_size[s - 1]

    def counts(self) -> dict[int, int]:
        return {s + 1: len(v) for s, v in enumerate(self.by_size)}


def enumerate_connected(g: Hypergraph, t: int,
                        set_cap: int = DEFAULT_SET_CAP) -> ConnectedFamily:
    """All connected label sets of size <= t, exactly and deduplicated.

    Raises MemoryCapError once the number of stored sets passes set_cap;
    growth is (e*Delta*k)^t in the worst case, so the cap fails loudly
    instead of swapping.
    """
    if t < 1:
        raise ValueError("size budget t must be >= 1")
    edge_verts = [frozenset(e.vertices) for e in g.edges]
    incident = g.incident_index()

    frontier = [frozenset((v,)) for v in range(g.n)]
    by_size = [tuple(tuple(s) for v in range(g.n) for s in [(v,)])]
    stored = g.n
    for size in range(2, t + 1):
        seen: set[frozenset[int]] = set()
        for s in frontier:
            nb: set[int] = set()
            for v in s:
                for ei in incident[v]:
                    nb.update(edge_verts[ei])
            nb -= s
            for v in nb:
                ext = s | {v}
                if ext not in seen:
                    seen.add(ext)
                    stored += 1
                    if stored > set_cap:
                        raise MemoryCapError(
                            f"connected-set frontier exceeded cap of {set_cap} sets"
                            f" at size {size}"
                        )
        frontier = list(seen)
        by_size.append(tuple(sorted(tuple(sorted(s)) for s in seen)))
        if not seen:
            by_size.extend(() for _ in range(size + 1, t + 1))
            break
    return ConnectedFamily(t, tuple(by_size))


def count_bound(n: int, max_degree: int, max_edge_size: int, t: int) -> float:
    """Upper bound n * (e*Delta*k)^(t-1) / 2 on the number of connected
    label sets of size exactly t. Meaningful as an assertion rail for
    t >= 2 only (the t = 1 instantiation falls below the trivial count n).
    """
    if min(n, max_degree, max_edge_size, t) < 1:
        raise ValueError("all arguments must be >= 1")
    return n * (math.e * max_degree * max_edge_size) ** (t - 1) / 2.0
