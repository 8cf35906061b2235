"""Enumeration of connected label sets up to a size budget.

A label set S is connected when the traces e ∩ S of the edges meeting S
join all of S.

Grown breadth-first by size, in numpy: the connected label sets of size s
are the sets of size s-1 extended by one vertex of an edge meeting them,
deduplicated. Every connected set of size s > 1 contains a connected
subset of size s-1, so the growth procedure is exhaustive. Each size is
one (count, s) int64 array of ascending rows in lexicographic order, the
one form of a label set from here through the tables to the power sums.

Each size is deduplicated and ordered by packed int64 keys, not by its
rows. A vertex takes `bits` = the bit length of n-1 (at least 1), and a
word holds `per` = 63 // bits vertices, so a set of size s is ceil(s/per)
words: vertex c of the ascending row is digit c % per, counted from the
top, of word c // per. Compared word by word, from word 0, keys compare
as the rows do. A candidate is a set of size s-1 (its parent) and one
vertex v outside it, at position b of the new set; its key is the
parent's, kept from the size before, with v written in at digit b, the
digits from b on moved one digit down and the last digit of each word
carried into the next. Stable argsorts of the candidates' key words,
the last word first, order them (one argsort when a set fits in one
word, as on hosts of up to 512 vertices at size 7), runs of equal keys
are the duplicates, and the rows of the distinct sets are decoded from
their keys, so no candidate row is built.

The candidates are read off codes that each set carries to the next
size: one ascending row per set, a code u * (n+1) + b for each vertex u
outside the set on an edge meeting it, where b, the number of members
below u, is u's position in the set grown by u. The singletons' codes
come from the incidence. A set L of the next size takes its codes from
its first pair (set j, vertex v): set j's codes but v's, with b one up
past v, merged with the codes of v's mates outside L, each b counted
against L's members, and the repeats dropped. So no size gathers the
neighbours of every member again, and no pair counts its b. The codes
are kept in the smallest unsigned type that holds (n+1)^2 (int64 past
32 bits), and the last size grown keeps none.

The family records its host and keeps the host's incidence arrays, built
once here, so the coefficient tables of the same family read them instead
of building them again, and refuse a family of another host. Enumeration
needs no spin table: the coefficient tables build those themselves.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import MemoryCapError
from .hypergraph import Hypergraph

DEFAULT_SET_CAP = 1 << 26

log = logging.getLogger(__name__)


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
    ends = [e.vertices for e in g.edges]
    width = max(1, max(map(len, ends), default=0))
    rows: list[list[int]] = [[] for _ in range(g.n)]
    for i, vs in enumerate(ends):
        for v in vs:
            rows[v].append(i)
    degree = max(1, max(map(len, rows), default=0))
    inc = np.array([r + [dummy] * (degree - len(r)) for r in rows],
                   dtype=np.int64).reshape(g.n, degree)
    ev = np.array([vs + (g.n,) * (width - len(vs)) for vs in ends]
                  + [(g.n,) * width], dtype=np.int64)
    return inc, ev


def _check_cap(stored: int, set_cap: int, size: int) -> None:
    if stored > set_cap:
        raise MemoryCapError(
            f"connected-set frontier exceeded cap of {set_cap} sets"
            f" at size {size}"
        )


def _mate_codes(sets: np.ndarray, mates: np.ndarray, base: int,
                pad: int) -> np.ndarray:
    """code[j, c] = u * base + b for the vertex u = mates[j, c] outside
    sets[j], b the number of members of sets[j] below u; pad for members,
    and pad or past it for the padding mate u = base - 1."""
    members = sets.T[:, :, None]
    code = mates * base + (members[0] < mates)
    inside = members[0] == mates
    for member in members[1:]:
        code += member < mates
        inside |= member == mates
    code[inside] = pad
    return code


def _distinct(codes: np.ndarray, pad: int) -> np.ndarray:
    """Each row of codes ascending with its repeats dropped, the padding
    (pad and past it) last, cut to the widest row."""
    codes.sort(axis=1)
    tail = codes[:, 1:]
    tail[tail == codes[:, :-1]] = pad
    codes.sort(axis=1)
    # the column minima ascend, as every row does
    width = np.searchsorted(codes.min(axis=0, initial=pad), pad)
    return codes[:, :width].copy() if width < codes.shape[1] else codes


def _grown_codes(codes: np.ndarray, sets: np.ndarray, j: np.ndarray,
                 v: np.ndarray, near: np.ndarray, base: int,
                 pad: int) -> np.ndarray:
    """The codes of the sets sets[i], each set j[i] of the size below
    with v[i] added: set j[i]'s codes but v[i]'s, one position up past
    v[i], and the codes of v[i]'s mates outside sets[i]."""
    old = codes.take(j, axis=0)
    up = old // base
    mates = near.take(v, axis=0)
    v = v[:, None]
    old += up > v
    old[up == v] = pad
    return _distinct(np.concatenate(
        [old, _mate_codes(sets, mates, base, pad)], axis=1), pad)


def enumerate_connected(g: Hypergraph, t: int,
                        set_cap: int = DEFAULT_SET_CAP) -> ConnectedFamily:
    """All connected label sets of size <= t, exactly and deduplicated.

    Size s is built from size s-1: every pair (parent j, vertex v of an
    edge meeting set j, outside it) is a candidate, read off set j's
    carried codes and keyed from its key words as the module docstring
    lays out. Sorting the key words puts the candidates in row order; the
    first of each run of equal keys is a set, and each pair of the run,
    with v at position b of the set, gives parents[s-1][set, b] = j. The
    key words of size s are kept to build size s+1, and so are its codes
    unless s is the last size grown. One INFO line on this module's
    logger gives the sets stored, the largest size reached and its key
    words.

    Raises MemoryCapError once the number of stored sets, the n
    singletons included, passes set_cap; growth is (e*Delta*k)^t in the
    worst case, so the cap fails loudly instead of swapping.
    """
    if t < 1:
        raise ValueError("size budget t must be >= 1")
    stored = g.n
    _check_cap(stored, set_cap, 1)
    arrays = inc, ev = _edge_arrays(g)
    bits = max(1, (g.n - 1).bit_length())
    per = 63 // bits
    digit, top = (1 << bits) - 1, bits * (per - 1)
    # per word w, by the position b of v: the digits of word w that move
    # one digit down (-1, all of them, when b is in an earlier word; none
    # when it is in a later one) and v's place value in word w (0 unless
    # b is in it); no set is larger than min(t, n), so neither is b
    span = min(t, g.n)
    shift = list(range(top, top - bits * min(per, span), -bits))
    place = [1 << s for s in shift]
    tail = [x * digit | x - 1 for x in place]
    moves, value = [], []
    for lo in range(0, span, per):
        rest = [0] * (span - lo - len(place))
        moves.append(np.array([-1] * lo + tail + rest))
        value.append(np.array([0] * lo + place + rest))
    shift = np.array(shift)
    # a set's code u * base + b stands for a vertex u outside it on an
    # edge meeting it, at position b of the set grown by u. Codes from
    # pad (u = n, no vertex) on are padding and sort last; a padding code
    # moves up by at most 1 a size, so none passes (n + 1)^2
    base = g.n + 1
    pad = g.n * base
    sets = np.arange(g.n, dtype=np.int64)[:, None]
    # each vertex's mates: the other vertices of its edges, ascending, in
    # the smallest unsigned type that holds every code, but int64 past
    # 32 bits (uint64 and int64 mix to float64). int64 codes throughout
    # run ~4% faster but raise the n = 200, t = 10 peak 321 -> 351 MiB
    kind = np.min_scalar_type(base * base)
    near = ev[inc].reshape(g.n, inc.shape[1] * ev.shape[1]).astype(
        kind if kind.itemsize < 8 else np.int64)
    near[near == sets] = g.n
    near = _distinct(near, g.n)
    keys = [sets[:, 0] << top]
    codes = _mate_codes(sets, near, base, pad)
    by_size, parents = [sets], [np.full((g.n, 1), -1, dtype=np.int64)]
    for size in range(2, t + 1):
        # past the host or its largest component: no set grows
        if size > span or not len(sets):
            by_size.append(np.empty((0, size), dtype=np.int64))
            parents.append(np.empty((0, size), dtype=np.int64))
            continue
        # the pairs (parent j, vertex v), row by row in ascending v
        row, col = np.nonzero(codes < pad)
        vert, pos = np.divmod(codes[row, col], base)
        del col
        if size == span:
            codes = None
        # a set of this size is reached once per connected parent, so at
        # most `size` times: refuse before building keys past the cap
        _check_cap(stored + -(-len(row) // size), set_cap, size)
        # the pair (parent j, vertex v) lands on L = j + v with v at
        # position b of L; every connected L \ {v} has such a pair. Its
        # key: set j's digits before b stay, v goes in at b, and the digits
        # from b on move one digit down
        cand = []
        for w in range(-(-size // per)):
            word = keys[w][row] if w < len(keys) else np.zeros_like(row)
            moved = word & moves[w][pos]
            key = (word ^ moved) | (moved >> bits) | vert * value[w][pos]
            if w:  # the last digit of word w - 1 moved down into word w
                key |= (carry & digit) << top
            carry = moved
            cand.append(key)
        del word, moved, carry, key, keys
        # stable sorts by the last word first order the keys as the rows
        # (one argsort when a set is one word); runs of equal keys are one
        # set, and each of its pairs gives one of its parents
        order = cand[-1].argsort(kind="stable")
        for c in cand[-2::-1]:
            order = order[c[order].argsort(kind="stable")]
        cand = [c[order] for c in cand]
        first = np.empty(len(order), dtype=bool)
        first[:1] = True
        np.not_equal(cand[0][1:], cand[0][:-1], out=first[1:])
        for c in cand[1:]:
            first[1:] |= c[1:] != c[:-1]
        keys = [c[first] for c in cand]
        del cand
        sets = np.empty((len(keys[0]), size), dtype=np.int64)
        for w, key in enumerate(keys):
            cols = sets[:, w * per:(w + 1) * per]
            np.bitwise_and(key[:, None] >> shift[:cols.shape[1]], digit,
                           out=cols)
        stored += len(sets)
        _check_cap(stored, set_cap, size)
        par = np.empty(sets.shape, dtype=np.int64)
        par.fill(-1)
        par[first.cumsum() - 1, pos[order]] = row[order]
        by_size.append(sets)
        parents.append(par)
        first = order[first]
        j, v = row[first], vert[first]
        del row, vert, pos, order, first
        if codes is not None:
            codes = _grown_codes(codes, sets, j, v, near, base, pad)
        del j, v
    for a in (*by_size, *parents, *arrays):
        a.flags.writeable = False
    if log.isEnabledFor(logging.INFO):
        reached = sum(1 for a in by_size if len(a))
        log.info("connected sets: %d up to size %d, key words at size %d:"
                 " %d (%d vertices of %d bits a word)", stored, reached,
                 reached, -(-reached // per), per, bits)
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
