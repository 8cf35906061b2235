import bisect
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperising import (
    CapError,
    Hypergraph,
    IsingActivity,
    TableActivity,
    count_bound,
    enumerate_connected,
)
from hyperising.instances import (random_connected_hypergraph,
                                  random_regular_graph)

from conftest import (
    brute_connected_sets,
    cycle_graph,
    ising_edge,
    k2,
    label_sets,
    path3,
    single_edge,
    subtree_count,
    traced_peak,
    triangle,
)


def subtree_count_bound(max_degree: int, t: int) -> float:
    """Upper bound (e*Delta)^(t-1) / 2 on the number of t-vertex subtrees
    of a multigraph of maximum degree Delta that contain a fixed vertex."""
    if max_degree < 1 or t < 1:
        raise ValueError("arguments must be >= 1")
    return (math.e * max_degree) ** (t - 1) / 2.0


@st.composite
def split_hosts(draw):
    """At most 10 vertices on shuffled labels: two random parts (each
    possibly disconnected itself), one isolated vertex and a parallel copy
    of the first edge."""
    parts = [draw(st.integers(2, 6)), draw(st.integers(1, 3))]
    n = sum(parts) + 1
    labels = draw(st.permutations(range(n)))
    edges, lo = [], 0
    for size in parts:
        part = labels[lo:lo + size]
        lo += size
        for _ in range(draw(st.integers(0, 2 * size)) if size > 1 else 0):
            edges.append(ising_edge(draw(st.lists(
                st.sampled_from(part), min_size=2, max_size=min(4, size),
                unique=True)), 0.5))
    return Hypergraph(n, tuple(edges + edges[:1]))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(split_hosts())
def test_sets_and_parents_match_brute_force(g):
    fam = enumerate_connected(g, g.n)
    brute = brute_connected_sets(g, g.n)
    assert fam.parents[0].tolist() == [[-1]] * g.n
    for s in range(1, g.n + 1):
        rows = fam.sets_of_size(s)
        assert rows.shape == (len(brute[s]), s)
        assert label_sets(rows) == brute[s]
        assert rows.tolist() == sorted(rows.tolist())
        if s == 1:
            continue
        below = {lab: j for j, lab in
                 enumerate(map(tuple, fam.sets_of_size(s - 1).tolist()))}
        for lab, par in zip(rows.tolist(), fam.parents[s - 1].tolist()):
            assert par == [below.get(tuple(lab[:b] + lab[b + 1:]), -1)
                           for b in range(s)]


def grown_family(g: Hypergraph, t: int):
    """Rows and parents by size, grown in plain Python: set j of one size
    and each vertex u sharing an edge with it, outside it, give the set of
    the next size with u inserted, whose parent at u's position is j. Each
    size is sorted only once it is complete."""
    near = [set() for _ in range(g.n)]
    for e in g.edges:
        for v in e.vertices:
            near[v].update(e.vertices)
    level = [(v,) for v in range(g.n)]
    rows, parents = [level], [[[-1]] * g.n]
    for size in range(2, t + 1):
        grown = {}
        for j, row in enumerate(level):
            for u in set().union(*map(near.__getitem__, row)).difference(row):
                b = bisect.bisect(row, u)
                key = row[:b] + (u,) + row[b:]
                if key not in grown:
                    grown[key] = [-1] * size
                grown[key][b] = j
        level = sorted(grown)
        rows.append(level)
        parents.append([grown[row] for row in level])
    return rows, parents


def assert_grown_family(g: Hypergraph, t: int) -> None:
    fam = enumerate_connected(g, t)
    rows, parents = grown_family(g, t)
    for s in range(1, t + 1):
        assert np.array_equal(fam.by_size[s - 1],
                              np.array(rows[s - 1]).reshape(-1, s)), s
        assert np.array_equal(fam.parents[s - 1],
                              np.array(parents[s - 1]).reshape(-1, s)), s


@st.composite
def wide_label_hosts(draw):
    """A split host on 10 or fewer labels drawn from [0, 8192), every other
    vertex isolated: 13 bits a vertex and 4 vertices a key word, so sets
    of 5 or more take two words (9 or more, three)."""
    g = draw(split_hosts())
    labels = draw(st.lists(st.integers(0, 8191), min_size=g.n,
                           max_size=g.n, unique=True))
    edges = tuple(ising_edge([labels[v] for v in e.vertices], 0.5)
                  for e in g.edges)
    return Hypergraph(8192, edges), g.n


@settings(derandomize=True, deadline=None, max_examples=20)
@given(wide_label_hosts())
def test_keys_across_words_match_grown_sets(case):
    # a vertex goes in at every position of a set, so the digits moved one
    # down carry out of every word into the next
    g, t = case
    assert_grown_family(g, t)


def test_keys_across_words_on_a_large_cubic_host():
    # 11 bits a vertex and 5 a word: sizes 6 and 7 take two words
    g = random_regular_graph(random.Random(1), 1100, 3, 0.2)
    assert_grown_family(g, 7)


def test_codes_past_32_bits_on_a_sparse_wide_host():
    # 70 000 vertices: the codes u * (n + 1) + b pass 2^32 and are held
    # as int64, which the keys' int64 arithmetic takes as it is
    rng = random.Random(70)
    labels = rng.sample(range(70000), 8)
    edges = tuple(ising_edge((labels[i], labels[i + 1]), 0.5)
                  for i in range(7)) + (ising_edge(labels[::3], 0.5),)
    assert_grown_family(Hypergraph(70000, edges), 5)


def test_enumeration_memory_stays_bounded():
    # 121 777 sets: sorting and comparing every candidate row peaked at
    # 66 MiB; keys grown from the parents' keys, with each size's
    # candidates dropped before the next, peak at 32 MiB, and at 29 MiB
    # with each set's outer neighbourhood carried from its first pair
    g = random_regular_graph(random.Random(200), 200, 3, 0.2)
    assert traced_peak(lambda: enumerate_connected(g, 8)) < 60 * 2 ** 20
    # 221 611 sets: 51.3 MiB with the neighbours gathered afresh each
    # size, 48.3 MiB with carried neighbourhoods, and 60.9 MiB when the
    # pair arrays and the carrying step's temporaries outlive their size
    g = random_regular_graph(random.Random(200), 1000, 3, 0.2)
    assert traced_peak(lambda: enumerate_connected(g, 7)) < 56 * 2 ** 20


def test_path_size_two_family():
    fam = enumerate_connected(path3(), 2)
    assert fam.sets_of_size(1).tolist() == [[0], [1], [2]]
    assert fam.sets_of_size(2).tolist() == [[0, 1], [1, 2]]  # not the far pair


def test_k2_family():
    fam = enumerate_connected(k2(), 2)
    assert fam.sets_of_size(1).tolist() == [[0], [1]]
    assert fam.sets_of_size(2).tolist() == [[0, 1]]


def test_three_hyperedge_family():
    fam = enumerate_connected(single_edge(3, 0.5), 2)
    assert fam.sets_of_size(1).tolist() == [[0], [1], [2]]
    assert fam.sets_of_size(2).tolist() == [[0, 1], [0, 2], [1, 2]]


def test_exactness_against_brute_force(small_corpus):
    for g in small_corpus:
        t = min(g.n, 6)
        fam = enumerate_connected(g, t)
        brute = brute_connected_sets(g, t)
        for s in range(1, t + 1):
            assert label_sets(fam.sets_of_size(s)) == brute[s], (g.n, s)


def test_full_depth_exactness_on_n14():
    rng = random.Random(77)
    g = random_connected_hypergraph(rng, 14, 4, 5, activity="in-range")
    fam = enumerate_connected(g, 14)
    brute = brute_connected_sets(g, 14)
    for s in range(1, 15):
        assert label_sets(fam.sets_of_size(s)) == brute[s]


def test_monotone_in_t(small_corpus):
    for g in small_corpus[:6]:
        t = min(g.n, 5)
        fams = [enumerate_connected(g, s) for s in range(1, t + 1)]
        for s in range(1, t):
            small = {x for r in fams[s - 1].by_size for x in label_sets(r)}
            big = {x for r in fams[s].by_size for x in label_sets(r)}
            assert small <= big


def test_saturation_beyond_host_size():
    fam = enumerate_connected(triangle(), 7)
    assert fam.sets_of_size(3).tolist() == [[0, 1, 2]]
    assert len(fam.by_size) == len(fam.parents) == 7
    for s in range(4, 8):
        assert fam.sets_of_size(s).shape == (0, s)
        for a in (fam.by_size[s - 1], fam.parents[s - 1]):
            assert a.shape == (0, s) and a.dtype == np.int64
            assert not a.flags.writeable


def test_count_bound_value():
    # n=10, degree 3, edge size 2, t=3: 10 * (6e)^2 / 2 = 180 e^2
    assert count_bound(10, 3, 2, 3) == pytest.approx(1330.03, abs=0.01)
    with pytest.raises(ValueError):
        count_bound(10, 0, 2, 3)
    # (2e)^(t-1) passes the double range at t = 421
    assert count_bound(1, 1, 2, 420) < math.inf
    assert count_bound(1, 1, 2, 421) == math.inf


def test_count_bound_holds_on_corpus(small_corpus):
    for g in small_corpus:
        if not g.edges:
            continue
        t_max = min(g.n, 6)
        fam = enumerate_connected(g, t_max)
        counts = fam.counts()
        for t in range(2, t_max + 1):
            bound = count_bound(g.n, g.max_degree, g.max_edge_size, t)
            assert counts[t] <= bound


def test_count_bound_on_regular_graphs():
    rng = random.Random(9)
    for _ in range(5):
        g = random_connected_hypergraph(rng, 10, 3, 2, activity="in-range")
        fam = enumerate_connected(g, 4)
        for t in range(2, 5):
            assert fam.counts()[t] <= count_bound(10, g.max_degree, 2, t)


def test_subtree_bound_against_matrix_tree():
    hosts = [triangle(), cycle_graph(6),
             Hypergraph(4, tuple(ising_edge(p, 0.5) for p in
                                 [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))]
    for g in hosts:
        degree = g.max_degree
        # like the connected-set rail, the formula is meaningful for t >= 2
        for t in range(2, min(g.n, 4) + 1):
            for v in range(g.n):
                assert subtree_count(g, t, v) <= subtree_count_bound(degree, t)


def test_memory_cap_fails_loudly():
    g = cycle_graph(12)
    with pytest.raises(CapError):
        enumerate_connected(g, 6, set_cap=20)
    # the n singletons count too
    assert enumerate_connected(g, 1, set_cap=12).counts() == {1: 12}
    for t in (1, 3):
        with pytest.raises(CapError, match="^connected sets stored at size"
                           " 1: 12 above the cap 11$"):
            enumerate_connected(g, t, set_cap=11)


def test_enumeration_builds_no_spin_table(monkeypatch):
    # enumeration reads only which vertices each edge holds; the spin
    # tables are the coefficient tables' own
    def refuse(self, size):
        raise AssertionError("enumeration built a spin table")

    for activity in (IsingActivity, TableActivity):
        monkeypatch.setattr(activity, "table", refuse)
    g = random_connected_hypergraph(random.Random(4), 7, 3, 4,
                                    activity="mixed")
    assert {type(e.activity) for e in g.edges} == {IsingActivity,
                                                   TableActivity}
    fam = enumerate_connected(g, g.n)
    brute = brute_connected_sets(g, g.n)
    assert all(label_sets(fam.sets_of_size(s)) == brute[s] for s in brute)


def test_deterministic_lexicographic_output():
    rng = random.Random(4)
    g = random_connected_hypergraph(rng, 10, 4, 3, activity="in-range")
    fam1 = enumerate_connected(g, 5)
    fam2 = enumerate_connected(g, 5)
    assert all(np.array_equal(a, b)
               for a, b in zip(fam1.by_size + fam1.parents,
                               fam2.by_size + fam2.parents))
    for s in range(1, 6):
        row = fam1.sets_of_size(s).tolist()
        assert row == sorted(row)


def test_isolated_vertices_are_singletons():
    g = Hypergraph(4, (ising_edge((0, 1), 0.5),))
    fam = enumerate_connected(g, 3)
    assert fam.sets_of_size(1).tolist() == [[0], [1], [2], [3]]
    assert fam.sets_of_size(2).tolist() == [[0, 1]]
    assert fam.sets_of_size(3).shape == (0, 3)
    assert enumerate_connected(Hypergraph(0, ()), 2).counts() == {1: 0, 2: 0}


def test_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        enumerate_connected(k2(), 0)


def test_sizes_outside_the_budget_are_empty():
    fam = enumerate_connected(path3(), 2)
    for s in (0, 3):
        sets = fam.sets_of_size(s)
        assert sets.shape == (0, s) and sets.dtype == np.int64


def test_subtree_bound_formula():
    assert subtree_count_bound(3, 1) == 0.5
    assert subtree_count_bound(3, 3) == pytest.approx((3 * math.e) ** 2 / 2)
