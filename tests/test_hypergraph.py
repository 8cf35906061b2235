import cmath
import itertools
import math
import random

import pytest

from hyperising import (
    Hyperedge,
    Hypergraph,
    IsingActivity,
    SchemaError,
    TableActivity,
    enumerate_connected,
    hypergraph_to_doc,
    parse_hypergraph,
)
from hyperising.coefficients import _edge_products, _spin_tables
from hyperising.instances import random_connected_hypergraph

from conftest import (disjoint_union, ising_edge, k2, label_sets, path3,
                      set_weight, triangle)


def test_parse_k2():
    g = parse_hypergraph({"n": 2, "edges": [{"v": [0, 1], "beta": 0.5}]})
    assert g.n == 2
    assert len(g.edges) == 1
    assert g.edges[0].vertices == (0, 1)
    assert g.edges[0].activity == IsingActivity(0.5)
    assert g.max_degree == 1 and g.max_edge_size == 2


def test_parse_rejects_duplicate_vertex():
    with pytest.raises(SchemaError):
        parse_hypergraph({"n": 2, "edges": [{"v": [0, 0, 1], "beta": 0.5}]})


def test_parse_rejects_unnormalized_table():
    phi = {"--": [0.9, 0.0], "+-": [0.5, 0], "-+": [0.5, 0], "++": [1, 0]}
    with pytest.raises(SchemaError):
        parse_hypergraph({"n": 2, "edges": [{"v": [0, 1], "phi": phi}]})


@pytest.mark.parametrize("doc", [
    {"n": -1, "edges": []},
    {"n": 2, "edges": [{"v": [0, 2], "beta": 0.5}]},      # id out of range
    {"n": 3, "edges": [{"v": [0], "beta": 0.5}]},          # size 1
    {"n": 2, "edges": [{"v": [0, 1]}]},                    # no activity
    {"n": 2, "edges": [{"v": [0, 1], "beta": 0.5, "phi": {}}]},
    {"n": 2, "edges": [{"v": [0, 1], "beta": True}]},
    {"n": 2, "edges": [{"v": [0, 1], "phi": {"--": [1, 0]}}]},  # missing keys
    {"n": 2, "extra": 1, "edges": []},
    # json reads NaN and Infinity
    {"n": 2, "edges": [{"v": [0, 1], "beta": math.nan}]},
    {"n": 2, "edges": [{"v": [0, 1], "beta": -math.inf}]},
    {"n": 2, "edges": [{"v": [0, 1], "beta": 10 ** 400}]},
    {"n": 2, "edges": [{"v": [0, 1], "phi": {
        "--": [1, 0], "+-": [math.nan, 0], "-+": [0.5, 0], "++": [1, 0]}}]},
    {"n": 2, "edges": [{"v": [0, 1], "phi": {
        "--": [1, 0], "+-": [0.5, 0], "-+": [0.5, math.inf], "++": [1, 0]}}]},
])
def test_parse_rejects_bad_documents(doc):
    with pytest.raises(SchemaError):
        parse_hypergraph(doc)


def test_parse_accepts_unicode_minus_and_reorders_tables():
    # vertices listed as [1, 0]: key position 0 refers to vertex 1
    phi = {"−−": [1, 0], "+−": [0.25, 0],
           "−+": [0.75, 0], "++": [1, 0]}
    g = parse_hypergraph({"n": 2, "edges": [{"v": [1, 0], "phi": phi}]})
    e = g.edges[0]
    assert e.vertices == (0, 1)
    # "+-" in listed order means vertex 1 is "+": after sorting that's bit 1
    assert e.activity.table(2)[0b10] == 0.25
    assert e.activity.table(2)[0b01] == 0.75


def test_roundtrip_to_doc():
    phi = {"--": [1, 0], "+-": [0.5, 0.1], "-+": [0.5, -0.1], "++": [1, 0]}
    doc = {"n": 3, "edges": [{"v": [0, 1], "beta": 0.25},
                             {"v": [1, 2], "phi": phi}]}
    g = parse_hypergraph(doc)
    assert parse_hypergraph(hypergraph_to_doc(g)) == g


def connected_sets(g: Hypergraph) -> set[tuple[int, ...]]:
    fam = enumerate_connected(g, g.n)
    return {s for size in range(1, g.n + 1)
            for s in label_sets(fam.sets_of_size(size))}


def test_induced_insect_path_examples():
    # every edge meeting the label set counts, with the vertices outside
    # it at "-": {0,1} cuts edge 12, the ends {0,2} cut both edges
    beta = 0.5
    g = path3(beta)
    assert set_weight(g, 0b011) == beta
    assert set_weight(g, 0b101) == beta * beta
    assert set_weight(g, 0b111) == -1


def test_induced_nesting_by_enumeration():
    # the coefficient tables read w(T) for every T inside a connected set L
    # off the lattice of L, built from the edges meeting L alone; nesting
    # is what makes that right: T sees the weight it has in the whole host
    hosts = [
        path3(),
        triangle(),
        Hypergraph(5, (ising_edge((0, 1), 0.5), ising_edge((0, 1), 0.5),
                       ising_edge((1, 2, 3), 0.2))),
        Hypergraph(8, (ising_edge((0, 1, 2), 0.3), ising_edge((2, 3), 0.4),
                       ising_edge((3, 4, 5, 6), 0.1), ising_edge((6, 7), -0.2),
                       ising_edge((0, 7), 0.9))),
        random_connected_hypergraph(random.Random(4), 7, 3, 4,
                                    activity="mixed"),
    ]
    assert any(isinstance(e.activity, TableActivity) for e in hosts[-1].edges)
    for g in hosts:
        fam = enumerate_connected(g, g.n)
        inc, ev = fam.arrays
        tables = _spin_tables(g, g.n)[:2]
        for k in range(1, g.n + 1):
            labs = fam.sets_of_size(k)
            if not len(labs):
                break
            lattice = _edge_products(labs, inc, ev, *tables)
            for lab, row in zip(labs.tolist(), lattice):
                for x in range(1 << k):
                    t = sum(1 << v for b, v in enumerate(lab) if x >> b & 1)
                    assert cmath.isclose((-1) ** x.bit_count() * row[x],
                                         set_weight(g, t), rel_tol=1e-12)


def test_is_connected_examples():
    assert (1,) in connected_sets(path3())
    assert (0, 2) not in connected_sets(path3())
    assert (0, 2) in connected_sets(triangle())


def test_three_edge_pairs_connected():
    g = Hypergraph(3, (ising_edge((0, 1, 2), 0.5),))
    assert connected_sets(g) >= set(itertools.combinations(range(3), 2))


def test_disjoint_split_is_disconnected():
    # labels {0,1} with edge 01 next to labels {3} with edge 34: the pieces
    # share no labels and neither label set meets the other's boundary
    g = Hypergraph(5, (ising_edge((0, 1), 0.5), ising_edge((3, 4), 0.5)))
    sets = connected_sets(g)
    assert (0, 1) in sets and (3,) in sets
    assert (0, 1, 3) not in sets


def test_symmetry_flags():
    sym = TableActivity((1, 0.5 + 0.25j, 0.5 - 0.25j, 1))
    asym = TableActivity((1, 0.5 + 0.25j, 0.5 + 0.25j, 1))
    assert sym.is_symmetric(2)
    assert not asym.is_symmetric(2)
    assert IsingActivity(0.3).is_symmetric(2)
    g = Hypergraph(2, (Hyperedge((0, 1), asym),))
    assert not g.all_symmetric()


def test_ising_activity_expands_to_cut_table():
    act = IsingActivity(0.25)
    table = act.table(3)
    assert table[0] == 1 and table[7] == 1
    assert all(table[b] == 0.25 for b in range(1, 7))


def test_degree_counts_multiplicity():
    g = Hypergraph(3, (ising_edge((0, 1), 0.5), ising_edge((0, 1), 0.5),
                       ising_edge((0, 2), 0.5)))
    assert g.max_degree == 3


def test_disjoint_union_shifts_ids():
    g = disjoint_union(k2(0.5), path3(0.4))
    assert g.n == 5
    assert g.edges[1].vertices == (2, 3) and g.edges[2].vertices == (3, 4)


@pytest.mark.parametrize("build, message", [
    (lambda: TableActivity((1, 2, 3)), "spin table must have 2^|e| entries"),
    (lambda: Hyperedge((0,), IsingActivity(0.5)),
     "hyperedge size must be >= 2"),
    (lambda: Hyperedge((1, 0), IsingActivity(0.5)),
     "hyperedge vertices must be sorted and duplicate-free"),
    (lambda: Hyperedge((-1, 0), IsingActivity(0.5)), "negative vertex id"),
    (lambda: Hyperedge((0, 1), TableActivity((1,) * 8)),
     "spin table size does not match edge size"),
    (lambda: Hypergraph(-1, ()), "vertex count must be non-negative"),
    (lambda: Hypergraph(2, (ising_edge((0, 5), 0.5),)),
     "vertex id 5 out of range for n=2"),
])
def test_constructors_refuse_malformed_parts(build, message):
    with pytest.raises(SchemaError) as info:
        build()
    assert str(info.value) == message
