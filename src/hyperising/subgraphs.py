"""Enumeration of connected label sets up to a size budget.

A label set S is connected when the traces e ∩ S of the edges meeting S
join all of S.

Grown breadth-first by size, in numpy: the connected label sets of size s
are the sets of size s-1 extended by one vertex of an edge meeting them,
deduplicated. Every connected set of size s > 1 contains a connected
subset of size s-1, so the growth procedure is exhaustive. Each size is
one (count, s) int64 array of ascending rows in lexicographic order, the
one form of a label set from here through the tables to the power sums.
The family records its host and keeps the host's incidence arrays, built
once here, so the coefficient tables of the same family read them instead
of building them again, and refuse a family of another host. Enumeration
needs no spin table: the coefficient tables build those themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MemoryCapError
from .hypergraph import Hypergraph

DEFAULT_SET_CAP = 1 << 26


@dataclass(frozen=True, eq=False)
class ConnectedFamily:
    """Connected label sets of the hypergraph `host`, grouped by size.

    by_size[s-1] is a read-only (count, s) int64 array whose rows are the
    connected label sets S with |S| = s, each row ascending and the rows
    in lexicographic order, for 1 <= s <= t_max (sizes past the host's
    largest component give (0, s) arrays). parents[s-1] is a read-only
    (count, s) array: parents[s-1][j, b] is the row of by_size[s-2]
    holding set j minus its b-th vertex, or -1 when that set is
    disconnected (always -1 for s = 1: the empty set is no label set).
    arrays is the host's incidence (inc, ev) from `_edge_arrays`, which
    the coefficient tables read too; it holds no spin table.
    """

    host: Hypergraph
    t_max: int
    by_size: tuple[np.ndarray, ...]
    parents: tuple[np.ndarray, ...]
    arrays: tuple[np.ndarray, ...]

    def sets_of_size(self, s: int) -> np.ndarray:
        if s < 1 or s > self.t_max:
            return np.empty((0, max(s, 0)), dtype=np.int64)
        return self.by_size[s - 1]

    def counts(self) -> dict[int, int]:
        return {s + 1: len(v) for s, v in enumerate(self.by_size)}


def _edge_arrays(g: Hypergraph):
    """Padded incidence (inc, ev): incident edge ids per vertex, and vertex
    ids per edge in the edge's order (padded with n, which is no vertex).
    The extra last edge meets nothing, so it pads every row of inc."""
    dummy = len(g.edges)
    inc = np.full((g.n, max(1, g.max_degree)), dummy, dtype=np.int64)
    degree = [0] * g.n
    width = max(1, g.max_edge_size)
    ev = np.full((dummy + 1, width), g.n, dtype=np.int64)
    for i, e in enumerate(g.edges):
        ev[i, :e.size] = e.vertices
        for v in e.vertices:
            inc[v, degree[v]] = i
            degree[v] += 1
    return inc, ev


def _check_cap(stored: int, set_cap: int, size: int) -> None:
    if stored > set_cap:
        raise MemoryCapError(
            f"connected-set frontier exceeded cap of {set_cap} sets"
            f" at size {size}"
        )


def enumerate_connected(g: Hypergraph, t: int,
                        set_cap: int = DEFAULT_SET_CAP) -> ConnectedFamily:
    """All connected label sets of size <= t, exactly and deduplicated.

    Raises MemoryCapError once the number of stored sets, the n
    singletons included, passes set_cap; growth is (e*Delta*k)^t in the
    worst case, so the cap fails loudly instead of swapping.
    """
    if t < 1:
        raise ValueError("size budget t must be >= 1")
    stored = g.n
    _check_cap(stored, set_cap, 1)
    arrays = inc, ev = _edge_arrays(g)
    near = ev[inc].reshape(g.n, inc.shape[1] * ev.shape[1])
    sets = np.arange(g.n, dtype=np.int64)[:, None]
    by_size, parents = [sets], [np.full((g.n, 1), -1, dtype=np.int64)]
    for size in range(2, t + 1):
        if not len(sets):  # past the largest component: no set grows
            by_size.append(np.empty((0, size), dtype=np.int64))
            parents.append(np.empty((0, size), dtype=np.int64))
            continue
        # every vertex of an edge meeting set j, once, outside set j; the
        # padding, members and repeats become g.n, which is no vertex
        nb = near[sets].reshape(len(sets), (size - 1) * near.shape[1])
        for member in sets.T:
            nb[nb == member[:, None]] = g.n
        nb.sort(axis=1)
        nb[:, 1:][nb[:, 1:] == nb[:, :-1]] = g.n
        row, col = np.nonzero(nb < g.n)
        base, vert = sets[row], nb[row, col]
        # a set of this size is reached once per connected parent, so at
        # most `size` times: refuse before building rows past the cap
        _check_cap(stored + -(-len(row) // size), set_cap, size)
        ext = np.sort(np.concatenate([base, vert[:, None]], axis=1), axis=1)
        order = np.lexsort(ext.T[::-1])
        ext = ext[order]
        first = np.ones(len(ext), dtype=bool)
        first[1:] = (ext[1:] != ext[:-1]).any(axis=1)
        # the pair (parent j, vertex v) lands on L = j + v with v at
        # position b of L; every connected L \ {v} has such a pair
        pos = (base < vert[:, None]).sum(axis=1)
        sets = ext[first]
        stored += len(sets)
        _check_cap(stored, set_cap, size)
        par = np.full(sets.shape, -1, dtype=np.int64)
        par[np.cumsum(first) - 1, pos[order]] = row[order]
        by_size.append(sets)
        parents.append(par)
    for a in (*by_size, *parents, *arrays):
        a.flags.writeable = False
    return ConnectedFamily(g, t, tuple(by_size), tuple(parents), arrays)


def count_bound(n: int, max_degree: int, max_edge_size: int, t: int) -> float:
    """Upper bound n * (e*Delta*k)^(t-1) / 2 on the number of connected
    label sets of size exactly t, inf past the double range. An assertion
    rail for t >= 2 only (at t = 1 it falls below the trivial count n).
    """
    if min(n, max_degree, max_edge_size, t) < 1:
        raise ValueError("all arguments must be >= 1")
    try:
        return n * (math.e * max_degree * max_edge_size) ** (t - 1) / 2.0
    except OverflowError:
        return math.inf
