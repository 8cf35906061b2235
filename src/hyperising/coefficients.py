"""Power-sum coefficient tables and Newton inversion.

For a fixed host, the t-th power sum of reciprocal partition-polynomial
roots decomposes over connected label sets S as p_t = sum_S a_t(S), where
the per-set coefficients obey a convolution recurrence:

    a_1(S)  = w(S) for singletons,
    a_t(L)  = sum over ordered pairs (S1, S2) with S1 ∪ S2 = L,
              S2 connected, |S1| + |S2| <= t, of
              (-1)^(|S1|-1) * w(S1) * a_{t-|S1|}(S2)
            + (-1)^(t-1) * t * w(L)   when |L| = t,

with w(S) = (-1)^|S| times the product, over the edges meeting S, of the
edge weight when S is "+" and every other vertex is "-". The ordered
pairs are the 3-colorings {S1 only, S2 only, both} of L pruned to
connected S2, so at most 4^t of them are counted per label set and order.

For a fixed (L, S2) all choices of S1 with the same size i share the
factor a_{t-i}(S2), so their signed weights collapse into one row
(L, S2, i). Sets are handled one size k at a time, in chunks, in local
coordinates where bit b of a mask stands for the b-th vertex of L, so
the host size never enters the mask width:

* the edge-product lattice E[x] over the 2^k subsets x of L, from the
  spin tables of the edges that meet L (no other edge involves x), so
  that w(x) = (-1)^|x| E[x]. Each edge's table codes for all x come by
  doubling, the codes of x | 2^b being those of x plus the place of the
  b-th vertex in the edge, and E is multiplied up one edge at a time;
* the ranked superset sums G_r[d] = sum over Y ⊆ L \\ d with |Y| = r of
  E[d | Y] (the ranked zeta transform of Björklund, Husfeldt, Kaski and
  Koivisto, "Fourier meets Möbius", STOC 2007). With S2 = L \\ d each
  choice S1 = d ∪ Y of size i = |d| + r has signed weight
  (-1)^(i-1) w(S1) = -E[S1], so the row coefficient is -G_r[d], standing
  for binom(|S2|, r) pairs;
* the class of every subset of L (see below), read off the index tables
  of the sets L \\ {v} one size down; it marks which S2 are connected.

A row is needed at order t once |S1| + |S2| = |L| + r <= t. Every S2
other than L is a smaller set, whose coefficients an earlier batch has
finished, and L itself is read only at lower orders, so each chunk runs
all of its orders k..m as soon as its rows exist and then drops them.

a_t(L) depends only on the structure of L: the spin tables of the edges
meeting L and where L's vertices sit on them (vertices outside L are
"-"). So each size batch is split into structural classes, and the
lattices and rows run for one representative per class, the first
member in family order; every other member takes its class's values.
A set's labelled structure lists, per edge meeting it, the edge's table
id and its trace under a labelling of the set's vertices by 0..k-1: the
label of the vertex at each position of the edge. Tables that do not
change under a permutation of the edge's positions, such as every Ising
table, read only how many positions are "+", so their traces enter as
multisets; keeping positions there would split a 3-regular host's
classes about fiftyfold. The sets of one class carry labellings under
which their labelled structures are identical, and the classes of size
k are grown from those of size k - 1, in the spirit of canonical
augmentation (McKay, "Isomorph-free exhaustive generation", J.
Algorithms 1998):
* a set L = P ∪ {v}, P its first connected parent, keeps P's labels and
  gives v the label k - 1. P's class fixes the traces of the edges that
  miss v, so P's class and the traces of the edges through v fix L's
  labelled structure: sets equal in both form one pre-class;
* the first member of each pre-class is keyed by colour refinement, its
  vertices ordered by colour, ties broken by vertex label, and
  pre-classes with equal keys merge into one class. A key is a labelled
  structure, in the refinement order, so the two orders map the equal
  structures onto each other;
* each set's labelling is the refinement order of its pre-class's first
  member, carried over through the labels it grew with;
* a size of one pre-class is one class, and its sets keep their
  pre-labels, so neither keys nor relabelling run for it. Every set then
  has one labelled structure, so the next size's pre-keys differ only by
  one fixed relabelling, which splits and merges nothing.
Refinement thus runs once per pre-class, not once per set, and a class
holds every set whose own key is its key, so there are no more classes
than keys. A representative reads each subset S2 at the value of S2's
own class, so no map between local orders is needed. When no two edges
share a table id, a labelled structure pins down the edges its set
meets, so classing is skipped and every set is its own class. Classes
are numbered in the order of their sorted keys.

A set's edges are read one way, as slots (`_distinct`, the enumeration's
dedup): the distinct edges meeting it, ascending, padded with a dummy
edge, each position labelled by its set vertex or "outside"
(`_labels_on`). The lattices and the structure keys read a set's slots,
the pre-keys the edges through v, and `_slot_codes` alone writes the
table id and trace of a slot for both.

The pair rows read the index rows of the representatives alone, and an
index row reads the rows of its set's parents. So once the classes of
every size are known, the rows to index are marked top-down, the
representatives of each size and the parents of the rows marked one
size up, and only those rows are indexed: every row when each set is
its own class, since each row is then a representative. The host's
incidence arrays come with the family, built once by the enumeration;
the spin tables are built here alone, each distinct (size, activity)
table once, back to back in one flat array. The finished table holds
one value per class and order and the number of sets in each class, and
p_t sums count times value over the classes exactly, rounded once, which
is the correctly rounded sum over the sets. The per-set tables are a
view built on request from each row's class; the table does not keep
the family. One INFO line per build gives the sets, pre-classes and
classes of each size.

Elementary symmetric functions of the reciprocal roots follow from the
power sums by Newton's identities; with the all-minus normalization the
partition polynomial is sum_i (-1)^i e_i lam^i. With symmetric edge
activities that polynomial is self-inversive, c_{n-i} = conj(c_i), so
tables to depth n // 2 already fix it (`complete_self_inversive`).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import MemoryCapError
from .hypergraph import Hypergraph
from .subgraphs import ConnectedFamily, _distinct, enumerate_connected

# cells per chunk of same-size sets: local subsets of the lattices, ranked
# sums, pair rows and gathers, or (set, slot, edge position) cells of the
# pre-keys and structure keys
_CHUNK_CELLS = 1 << 17
# spin-table entries per host (1 GiB), which keeps table codes in int64
_TABLE_ENTRIES = 1 << 26
# Veltkamp's factor splits a double into two halves of 26 bits, which a
# count below 2^27 multiplies exactly; values below 2^996 split without
# overflow
_SPLIT = 2.0 ** 27 + 1
_SPLIT_COUNT = 1 << 27
_SPLIT_VALUE = 2.0 ** 996

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Per-order power-sum coefficients of the structural classes of the
    connected label sets.

    values[t-1, c] is the order-t coefficient of every set of class c, and
    counts[c] the number of sets in class c. The classes of each size
    follow those of the smaller sizes, and class_ends[t-1] is the number
    of classes of sets of size <= t, so values[t-1, :class_ends[t-1]]
    covers exactly the sets of size <= t. cls[r] is the class of the r-th
    row of the family: all sets of size 1, then of size 2, and so on.
    pair_scan_max[t-1] is the largest number of (S1, S2) pairs in the
    recurrence of any one label set at order t (bounded by 4^t). All
    arrays are read-only.
    """

    values: np.ndarray
    counts: np.ndarray
    cls: np.ndarray
    class_ends: tuple[int, ...]
    pair_scan_max: tuple[int, ...]

    @property
    def tables(self) -> tuple[np.ndarray, ...]:
        """tables[t-1]: a read-only complex array of the order-t
        coefficients of the connected sets of size <= t, one per set in the
        order of the family's rows; built from the classes on each access."""
        out = []
        for t, end in enumerate(self.class_ends):
            table = self.values[t, self.cls[:self.counts[:end].sum()]]
            table.flags.writeable = False
            out.append(table)
        return tuple(out)


def _labels_on(sets: np.ndarray, labels: np.ndarray,
               ends: np.ndarray) -> np.ndarray:
    """lab[j, s, p]: 1 + labels[j, i] when the p-th vertex of the edge
    ends[j, s] is the i-th vertex of sets[j], and 0 when that vertex is
    outside the set."""
    lab = np.zeros(ends.shape, dtype=np.int64)
    for i, plus in enumerate(labels.T.astype(np.int64) + 1):
        lab += (ends == sets[:, i, None, None]) * plus[:, None, None]
    return lab


def _slot_codes(edges: np.ndarray, lab: np.ndarray, tid: np.ndarray,
                order_free: np.ndarray, k: int) -> np.ndarray:
    """The code of each edge slot of a k-set, its table id times
    `_trace_codes` plus its trace under the labels lab (from `_labels_on`),
    or -1 for the dummy edge. An order-free trace is the bit mask of its
    labels, any other one has digit 1 + label at each position in base
    k + 1 (0 is "outside")."""
    table = tid[edges]
    place = np.arange(lab.shape[-1])
    mask = ((1 << lab) >> 1) @ np.ones_like(place)
    digits = lab @ (k + 1) ** place
    code = (table * _trace_codes(k, len(place))
            + np.where(order_free[table], mask, digits))
    code[edges == len(tid) - 1] = -1
    return code


def _edge_products(sets: np.ndarray, inc: np.ndarray, ev: np.ndarray,
                   flat: np.ndarray, start: np.ndarray) -> np.ndarray:
    """E[j, x] = product of the edge weights when the subset of sets[j] at
    local mask x is "+" and every other vertex is "-".

    Only the edges meeting sets[j] enter the product, each read from its
    spin table, flat[start[e]:], at the pattern x puts on the edge. The
    table codes of all 2^k masks are built by doubling over the local
    vertices, and the product takes one edge slot at a time, in ascending
    slot order, into one lattice.
    """
    nsets, k = sets.shape
    # the slots up to the widest real one, at least one per set; the
    # dummy edge's table is a lone 1
    slot = _distinct(inc[sets].reshape(nsets, -1), len(ev) - 1).T
    # place[s, i, j] = 2^p when the i-th vertex of set j is the p-th
    # vertex of edge slot s, so the table code of local mask x is the
    # slot's start plus sum_i bit_i(x) * place[s, i, j]
    hit = ev[slot][..., None] == sets[None, :, None, :]
    place = ((1 << np.arange(ev.shape[1])) @ hit).transpose(0, 2, 1)
    codes = np.empty((len(slot), 1 << k, nsets), dtype=np.int64)
    codes[:, 0] = start[slot]
    for b in range(k):
        np.add(codes[:, :1 << b], place[:, b:b + 1],
               out=codes[:, 1 << b:2 << b])
    e = flat[codes[0]]
    for s in range(1, len(codes)):
        e *= flat[codes[s]]
    return e.T


def _spin_tables(g: Hypergraph, depth: int) -> tuple:
    """(flat, start, keying): each distinct (size, activity) spin table
    once, back to back in table-id order, then the dummy edge's lone 1,
    edge e's table starting at flat[start[e]]; and (tid, order_free) for
    `_family_classes`, or None when every set is its own class: when
    no two edges share a table id (equal keys would then put each edge
    position on the same host vertex, so only sets of isolated vertices
    could merge) or a slot code would not fit in int64. order_free[tid[e]]
    says whether edge e's table reads only the number of "+" positions
    (true of every Ising edge). Tables past _TABLE_ENTRIES entries in all
    are refused with MemoryCapError before any is built.
    """
    ids: dict = {}
    tid = np.asarray([ids.setdefault((e.size, e.activity), len(ids))
                      for e in g.edges] + [len(ids)])
    if sum(1 << size for size, _ in ids) > _TABLE_ENTRIES:
        raise MemoryCapError(f"spin tables exceed {_TABLE_ENTRIES} entries")
    flat = np.array([v for size, act in ids for v in act.table(size)] + [1],
                    dtype=np.complex128)
    offset = np.cumsum([0] + [1 << size for size, _ in ids])
    start = offset[tid]
    if (len(ids) == len(g.edges)
            or len(tid) * _trace_codes(depth, g.max_edge_size) >= 1 << 63):
        return flat, start, None
    order_free = [True] * (len(ids) + 1)
    for i, (size, _) in enumerate(ids):
        table = flat[offset[i]:offset[i + 1]]
        plus = np.bitwise_count(np.arange(1 << size))
        order_free[i] = all(len(set(table[plus == c].tolist())) == 1
                            for c in range(size + 1))
    return flat, start, (tid, np.asarray(order_free))


def _trace_codes(k: int, width: int) -> int:
    """The number of trace codes of an edge slot of a k-set, for edges of
    at most width vertices."""
    return max(1 << k, (k + 1) ** width)


_MIX = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9),
        np.uint64(0x94D049BB133111EB))


def _mix(x: np.ndarray) -> np.ndarray:
    """One splitmix64 step, elementwise on uint64, into a new array (with
    no fixed point at 0, so an all-zero start still spreads)."""
    x = x + _MIX[0]
    x ^= x >> 30
    x *= _MIX[1]
    x ^= x >> 27
    x *= _MIX[2]
    x ^= x >> 31
    return x


def _structure_keys(sets: np.ndarray, inc: np.ndarray, ev: np.ndarray,
                    tid: np.ndarray, order_free: np.ndarray) -> tuple:
    """(keys, rank): one key row per set that fixes its coefficients
    (equal rows mean equal a_t), and the local order the row is written
    in: rank[j, i] is the rank of the i-th vertex of set j.

    The row is the sorted `_slot_codes` of the set's slots under the
    ranks, right-aligned in k * degree codes of -1, the dummy edge's, so
    all rows of a size have one width. The local order sorts the vertices
    by colour, and breaks ties by vertex label. An edge's colour hashes
    its table id and the colours of the set's vertices on it, bound to
    their positions when the table is not order-free; a vertex's colour
    hashes the colours of its edges, refined three times after the first.
    A weak order costs classes, never correctness: whatever the order, a
    row determines every edge product and every connected subset under
    it.
    """
    nsets, k = sets.shape
    # up to the widest real slot: a dummy slot adds nothing to any colour
    slot = _distinct(inc[sets].reshape(nsets, -1), len(ev) - 1)
    ends = ev[slot]
    # cell (j, s, p) reads the colour of the vertex of set j at position p
    # of slot s, or the spare last colour when that vertex is outside
    lab = _labels_on(sets, np.broadcast_to(np.arange(k), sets.shape), ends)
    at = np.where(lab > 0, lab - 1 + k * np.arange(nsets)[:, None, None],
                  nsets * k)
    # an odd multiplier per edge position binds a colour to its position
    # on the edges whose table reads positions; outside cells weigh 0
    table = tid[slot]
    salt = np.where(order_free[table][..., None], np.uint64(1),
                    _mix(np.arange(ends.shape[2], dtype=np.uint64))
                    | np.uint64(1)) * (lab > 0)
    edge_salt = _mix(table.astype(np.uint64))
    colour = np.zeros(nsets * k + 1, dtype=np.uint64)
    for _ in range(4):
        edge = _mix(edge_salt + (_mix(colour)[at] * salt).sum(axis=2))
        back = np.zeros_like(colour)
        np.add.at(back, at, edge[..., None] * salt)
        colour = _mix(colour + back)
    rank = np.argsort(np.argsort(colour[:-1].reshape(nsets, k), axis=1,
                                 kind="stable"), axis=1)
    code = _slot_codes(slot, _labels_on(sets, rank, ends), tid, order_free,
                       k)
    code.sort(axis=1)
    keys = np.full((nsets, k * inc.shape[1]), -1, dtype=np.int64)
    keys[:, -code.shape[1]:] = code
    return keys, rank


def _pre_keys(sets: np.ndarray, parents: np.ndarray, prev_cls: np.ndarray,
              prev_lab: np.ndarray, inc: np.ndarray, ev: np.ndarray,
              tid: np.ndarray, order_free: np.ndarray) -> tuple:
    """(rows, pre_lab) for a chunk of sets of size k: a pre-key row per
    set, and its pre-labels, pre_lab[j, i] for the i-th vertex of set j.

    A set L is read from its first connected parent P = L \\ {v}: P's
    vertices keep P's labels, prev_lab[P], and v takes label k - 1. The
    row is P's class, prev_cls[P], then the sorted `_slot_codes` of the
    edges through v under these labels, the padding slots -1. The edges
    meeting P but not v keep their traces, which P's class fixes, so equal
    rows give equal labelled structures. For k = 1 every parent is -1, the
    last row of prev_cls and prev_lab, which stand for the empty set.
    """
    nsets, k = sets.shape
    b = np.argmax(parents >= 0, axis=1)
    pick = np.arange(nsets)
    parent = parents[pick, b]
    pre_lab = np.full((nsets, k), k - 1, dtype=prev_lab.dtype)
    pre_lab[np.arange(k) != b[:, None]] = prev_lab[parent].ravel()
    edges = inc[sets[pick, b]]
    code = _slot_codes(edges, _labels_on(sets, pre_lab, ev[edges]), tid,
                       order_free, k)
    code.sort(axis=1)
    return np.column_stack([prev_cls[parent], code]), pre_lab


def _unique_rows(rows: np.ndarray) -> tuple:
    """(first, inv): the first row of each distinct row, in the order of
    the sorted rows, and the number of each row's distinct row."""
    flat = np.ascontiguousarray(rows).view(
        np.dtype((np.void, rows.itemsize * rows.shape[1])))
    _, first, inv = np.unique(flat.ravel(), return_index=True,
                              return_inverse=True)
    return first, inv.ravel()


def _family_classes(fam: ConnectedFamily, depth: int, tid: np.ndarray,
                    order_free: np.ndarray) -> list:
    """[(cls, reps, pre)] for each non-empty size k <= depth: the class of
    each set of size k, numbered in the order of the sorted keys, the row
    of each class's first member, and the number of pre-classes. The
    classes of size k grow from those of size k - 1 (see the module
    docstring): `_pre_keys` splits the sets into pre-classes,
    `_structure_keys` keys the first member of each, and pre-classes with
    equal keys merge; both run in chunks of _CHUNK_CELLS slot cells, and
    every key row of size k is k * degree slots wide. A set's labelling,
    which the next size reads, is the key order of its pre-class's first
    member, carried over through the pre-labels; a lone pre-class is one
    class, and its sets keep their pre-labels.
    """
    inc, ev = fam.arrays
    # the empty set, reached through the parent -1 of every singleton
    cls = np.zeros(1, dtype=np.int64)
    lab = np.zeros((1, 0), dtype=np.min_scalar_type(depth))
    out = []
    for k in range(1, depth + 1):
        sets = fam.sets_of_size(k)
        if not len(sets):
            break
        step = max(1, _CHUNK_CELLS // (inc.shape[1] * ev.shape[1] * k))
        rows, pre_lab = zip(*(
            _pre_keys(sets[lo:lo + step], fam.parents[k - 1][lo:lo + step],
                      cls, lab, inc, ev, tid, order_free)
            for lo in range(0, len(sets), step)))
        first, pre = _unique_rows(np.concatenate(rows))
        if len(first) == 1:
            # one pre-class is one class, and its pre-labels label every
            # set by one labelled structure (without this skip: regular +2.9%)
            cls = pre
            out.append((cls, first, 1))
            if k < depth:
                lab = np.concatenate(pre_lab)
            continue
        # pre-classes in the family order of their first members
        order = np.argsort(first)
        first = first[order]
        pre = np.argsort(order)[pre]
        keys, rank = zip(*(
            _structure_keys(sets[first[lo:lo + step]], inc, ev, tid,
                            order_free)
            for lo in range(0, len(first), step)))
        reps, merged = _unique_rows(np.concatenate(keys))
        cls = merged[pre]
        out.append((cls, first[reps], len(first)))
        if k < depth:
            pre_lab = np.concatenate(pre_lab)
            relabel = np.empty((len(first), k), dtype=lab.dtype)
            np.put_along_axis(relabel, pre_lab[first], np.concatenate(rank),
                              axis=1)
            lab = np.take_along_axis(relabel[pre], pre_lab, axis=1)
    return out


def _index_rows(parents: Sequence[np.ndarray], reps: list) -> list:
    """The rows of each size whose subset index is read, ascending: the
    class representatives, whose rows feed the pair rows, and the parents
    of the rows read one size up, which `_subset_index` reads."""
    rows, below = [], np.empty(0, dtype=np.int64)
    for par, own in zip(parents[len(reps) - 1::-1], reversed(reps)):
        mark = np.zeros(len(par), dtype=bool)
        mark[own] = True
        mark[below] = True
        rows.append(np.flatnonzero(mark))
        below = par[rows[-1]].ravel()
        below = below[below >= 0]
    return rows[::-1]


def _subset_index(idx: np.ndarray, own: np.ndarray, parents: np.ndarray,
                  prev: np.ndarray) -> None:
    """Fill idx[j, x], preset to -1, with the class of the subset at local
    mask x of the j-th set, leaving -1 where that subset is empty or
    disconnected; the j-th set itself has class own[j].

    prev is the same table one size down, and parents[j, v] is the row of
    prev for the set minus its v-th vertex. When that set is disconnected
    the row is the last one, which every table ends in and is all -1. A
    connected proper subset x misses a vertex v whose removal keeps the
    set connected (a leaf of a spanning tree grown from x), so some row
    lists it; every row lists a disconnected x as -1.
    """
    nsets, k = parents.shape
    idx[:, -1] = own
    for v in range(k):
        lacking = idx.reshape(nsets, -1, 2, 1 << v)[:, :, 0, :]
        np.maximum(lacking, prev[parents[:, v]].reshape(lacking.shape),
                   out=lacking)


def _ranked_superset_sums(e: np.ndarray, r_max: int) -> np.ndarray:
    """G[r, j, d] = sum over Y disjoint from d with |Y| = r of e[j, d | Y]."""
    nsets, size = e.shape
    g = np.zeros((r_max + 1, nsets, size), dtype=np.complex128)
    g[0] = e
    for b in range(size.bit_length() - 1):
        half = g.reshape(r_max + 1, nsets, -1, 2, 1 << b)
        half[1:, :, :, 0] += half[:-1, :, :, 1]
    return g


def _size_rows(idx: np.ndarray, e: np.ndarray, k: int, m: int) -> tuple:
    """Rows (L, S2 class, i, coeff, multiplicity, r) of a chunk of sets of
    size k, with L the set's row in the chunk, in ascending r = |Y|; a
    row is needed from order k + r on."""
    full = (1 << k) - 1
    r_max = min(m - k, k)
    g = _ranked_superset_sums(e, r_max)
    jj, s2 = np.nonzero(idx >= 0)
    s2_size = np.bitwise_count(s2)
    # every r <= |S2| except r = 0 with S2 = L, where S1 would be empty
    wanted = np.arange(r_max + 1)[:, None] <= s2_size
    wanted[0, s2 == full] = False
    r, pick = np.nonzero(wanted)
    jj, s2, s2_size = jj[pick], s2[pick], s2_size[pick]
    binom = np.asarray([[math.comb(a, b) for b in range(r_max + 1)]
                        for a in range(k + 1)], dtype=np.int64)
    return (jj, idx[jj, s2], r + k - s2_size, -g[r, jj, full ^ s2],
            binom[s2_size, r], r)


def compute_coefficient_tables(
    g: Hypergraph,
    m: int,
    fam: ConnectedFamily | None = None,
) -> CoefficientTable:
    """Run the coefficient recurrence to order m over the host's connected
    label sets. The family saturates at the host size, so orders beyond n
    cover the same sets; a given family must be g's, since the tables read
    its edge arrays (ValueError otherwise). A family of 2^31 sets or more,
    or spin tables past _TABLE_ENTRIES, are refused with MemoryCapError
    before any table is built."""
    if m < 1:
        raise ValueError("order m must be >= 1")
    depth = max(1, min(m, g.n))
    if fam is None:
        fam = enumerate_connected(g, depth)
    elif fam.host != g:
        raise ValueError("family was enumerated on another host")
    elif fam.t_max < depth:
        raise ValueError(f"family enumerated to {fam.t_max}, need {depth}")
    ends = np.cumsum([len(fam.by_size[k]) for k in range(depth)]).tolist()
    if ends[-1] >= 1 << 31:
        raise MemoryCapError(f"{ends[-1]} label sets overflow int32 indices")

    inc, ev = fam.arrays
    flat, start, keying = _spin_tables(g, depth)
    if keying is None:
        # every set its own class; only sizes past the largest component
        # are empty
        classes = [(np.arange(len(sets)),) * 2 + (len(sets),)
                   for sets in fam.by_size[:depth] if len(sets)]
    else:
        classes = _family_classes(fam, depth, *keying)
    reps = [own for _, own, _ in classes]
    rows = _index_rows(fam.parents, reps)
    # values[t, c]: the order-t coefficient of the sets of class c, the
    # classes of size k from firsts[k - 1] on; cls maps each family row to
    # its class
    firsts = np.cumsum([0] + [len(own) for own in reps])
    cls = np.empty(ends[-1], dtype=np.int64)
    values = np.zeros((m + 1, firsts[-1]), dtype=np.complex128)
    scan_max = [0] * (m + 1)
    # the empty set is no label set: its index table is only the all -1
    # row that every index table ends in for parents that are not sets;
    # at[r] is the index row of family row r one size down, at[-1] that
    # last row
    idx = np.full((1, 1), -1, dtype=np.int32)
    at = np.zeros(1, dtype=np.int64)
    for k, ((batch_cls, own, _), read) in enumerate(zip(classes, rows),
                                                    start=1):
        sets = fam.sets_of_size(k)
        offset = ends[k - 1] - len(sets)
        first = firsts[k - 1]
        cls[offset:ends[k - 1]] = first + batch_cls
        prev = idx
        idx = np.full((len(read) + 1, 1 << k), -1, dtype=np.int32)
        step = max(1, _CHUNK_CELLS >> k)
        for lo in range(0, len(read), step):
            pick = read[lo:lo + step]
            _subset_index(idx[lo:lo + len(pick)], cls[offset + pick],
                          at[fam.parents[k - 1][pick]], prev)
        at = np.full(len(sets) + 1, len(read), dtype=np.int64)
        at[read] = np.arange(len(read))
        for lo in range(0, len(own), step):
            hi = min(lo + step, len(own))
            pick = own[lo:hi]
            e = _edge_products(sets[pick], inc, ev, flat, start)
            row_l, row_c, row_i, row_coef, row_mult, row_r = _size_rows(
                idx[at[pick]], e, k, m)
            # every S2 but L itself is a smaller set, finished in an
            # earlier batch; L is read only at lower orders of this loop
            stops = np.searchsorted(row_r, np.arange(m - k + 1), "right")
            # pairs per set with rank <= r, whose maximum over the chunk
            # is the pair scan of order k + r (r = |S1 ∩ S2|)
            ranks = m - k + 1
            per_rank = np.bincount(row_l * ranks + row_r, weights=row_mult,
                                   minlength=(hi - lo) * ranks)
            rank_max = per_rank.reshape(-1, ranks).cumsum(axis=1).max(axis=0)
            for t, most in enumerate(rank_max.tolist(), start=k):
                scan_max[t] = max(scan_max[t], int(most))
            for t, stop in enumerate(stops.tolist(), start=k):
                # the gathered temporary goes first: numpy reuses a large
                # temporary in place as the left operand, and the rounding
                # of a complex product depends on the operand order
                gathered = (values[t - row_i[:stop], row_c[:stop]]
                            * row_coef[:stop])
                acc = np.bincount(row_l[:stop], weights=gathered.real,
                                  minlength=hi - lo).astype(np.complex128)
                acc += 1j * np.bincount(row_l[:stop], weights=gathered.imag,
                                        minlength=hi - lo)
                if t == k:
                    # (-1)^(t-1) t w(L) with w(L) = (-1)^k E[L]
                    acc -= k * e[:, -1]
                values[t, first + lo:first + hi] = acc

    counts = np.bincount(cls, minlength=firsts[-1])
    values = values[1:]
    for a in (values, counts, cls):
        a.flags.writeable = False
    if log.isEnabledFor(logging.INFO):
        sizes = "/".join(str(len(c)) for c, _, _ in classes)
        if keying is None:
            log.info("coefficient tables to order %d over sizes 1..%d: %s"
                     " sets, each its own class", m, len(classes), sizes)
        else:
            log.info("coefficient tables to order %d over sizes 1..%d: %s"
                     " sets in %s pre-classes and %s classes", m,
                     len(classes), sizes,
                     "/".join(str(p) for _, _, p in classes),
                     "/".join(str(len(r)) for _, r, _ in classes))
    return CoefficientTable(
        values, counts, cls,
        tuple(int(firsts[min(t, len(reps))]) for t in range(1, m + 1)),
        tuple(scan_max[1:]))


def _class_sums(x: np.ndarray, counts: np.ndarray,
                ends: Sequence[int]) -> list[float]:
    """For each row r of x, the sum over the classes c < ends[r] of
    counts[c] * x[r, c], correctly rounded, so equal to math.fsum over
    the sets, one term per set.

    Once a class holds two sets, every value, a lone set's too, is split
    in two halves of 26 bits (Veltkamp, with the factor 2^27 + 1), so a
    count below 2^27 times either half is exact, and fsum rounds the
    exact sum once. Past that count, or at a magnitude where the split
    could overflow, the sums are taken in rationals; a non-finite value
    decides its sum as it does in math.fsum.
    """
    if counts.max(initial=0) < 2:  # all one set (without it: corpus +3.3%)
        return [math.fsum(row[:end].tolist()) for row, end in zip(x, ends)]
    if counts.max() < _SPLIT_COUNT and np.all(np.abs(x) < _SPLIT_VALUE):
        big = x * _SPLIT
        hi = big - (big - x)
        c = counts.astype(np.float64)
        hi, lo = c * hi, c * (x - hi)
        return [math.fsum(hi[r, :end].tolist() + lo[r, :end].tolist())
                for r, end in enumerate(ends)]
    # imported here: fractions adds to every import of the package, and
    # only counts past 2^27 or values past 2^996 come here
    from fractions import Fraction
    out = []
    for row, end in zip(x.tolist(), ends):
        if all(map(math.isfinite, row[:end])):
            out.append(float(sum(Fraction(v) * k for v, k in
                                 zip(row[:end], counts[:end].tolist()))))
        else:
            out.append(math.fsum(row[:end]))
    return out


def power_sums(ctable: CoefficientTable) -> list[complex]:
    """p_t = sum of the order-t coefficients over the connected label
    sets: over the classes of sets of size <= t, count times value,
    summed exactly and rounded once in each part (`_class_sums`). So p_t
    is the correctly rounded sum over the sets, whatever their order."""
    m = len(ctable.class_ends)
    sums = _class_sums(
        np.concatenate([ctable.values.real, ctable.values.imag]),
        ctable.counts, ctable.class_ends * 2)
    return [complex(re, im) for re, im in zip(sums[:m], sums[m:])]


def power_sums_to_elementary(p: Sequence[complex]) -> list[complex]:
    """Invert Newton's identities: e_t from p_1..p_t.

    e_t = ((-1)^(t-1)/t) (p_t - sum_{i=1}^{t-1} (-1)^(i-1) p_{t-i} e_i).
    For orders past the host size the result is numerically zero.
    """
    e: list[complex] = []
    for t in range(1, len(p) + 1):
        acc = p[t - 1]
        for i in range(1, t):
            term = p[t - i - 1] * e[i - 1]
            acc -= term if i % 2 == 1 else -term
        e.append(acc / t if t % 2 == 1 else -acc / t)
    return e


def elementary_to_coefficients(e: Sequence[complex]) -> list[complex]:
    """Partition-polynomial coefficients c_i = (-1)^i e_i, with c_0 = 1."""
    return [complex(1.0)] + [
        ei if (i + 1) % 2 == 0 else -ei for i, ei in enumerate(e)
    ]


def complete_self_inversive(p: Sequence[complex], e: Sequence[complex],
                            n: int) -> tuple[list[complex], list[complex]]:
    """p_1..p_n and e_1..e_n of a self-inversive degree-n polynomial from
    its first h power sums and elementary functions, n // 2 <= h <= n.

    With symmetric edge activities a label set and its complement have
    conjugate weights, so c_{n-i} = conj(c_i), i.e. e_{n-i} = (-1)^n
    conj(e_i) with e_0 = 1. The power sums past h then follow from the
    forward Newton identity of `extend_power_sums`.
    """
    h = len(e)
    if not n // 2 <= h <= n or len(p) != h:
        raise ValueError(f"need {n // 2}..{n} leading terms, got "
                         f"{len(p)} power sums and {h} elementary functions")
    lead = [complex(1.0)] + list(e)
    mirrored = [lead[n - t].conjugate() for t in range(h + 1, n + 1)]
    e_all = list(e) + (mirrored if n % 2 == 0 else [-x for x in mirrored])
    return extend_power_sums(p, e_all, n), e_all


def extend_power_sums(p: Sequence[complex], e: Sequence[complex],
                      m: int) -> list[complex]:
    """Continue p_1..p_h to p_1..p_m with the forward Newton identity
    p_t = sum_{i=1}^{min(t-1,n)} (-1)^(i-1) e_i p_{t-i} + (-1)^(t-1) t e_t,
    where e_t = 0 past n.

    Requires the complete elementary list e_1..e_n of the host (all higher
    ones vanish); p may stop at any order.
    """
    n = len(e)
    out = list(p)
    for t in range(len(out) + 1, m + 1):
        acc = 0.0 + 0.0j
        for i in range(1, min(t - 1, n) + 1):
            term = out[t - i - 1] * e[i - 1]
            acc += term if i % 2 == 1 else -term
        if t <= n:
            last = t * e[t - 1]
            acc = acc + last if t % 2 == 1 else acc - last
        out.append(acc)
    return out[:m]
