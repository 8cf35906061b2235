import hashlib
import json
import random

import pytest

from hyperising import (
    SchemaError,
    hypergraph_to_doc,
    ising_ly_range,
    suzuki_fisher_check,
)
from hyperising.instances import (
    in_range_beta,
    random_connected_hypergraph,
    random_regular_graph,
    random_symmetric_table,
)

from conftest import set_is_connected


def test_generator_respects_caps_and_connectivity():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(2, 14)
        dcap = rng.choice([2, 3, 4])
        kcap = rng.choice([2, 3, 4, 5])
        g = random_connected_hypergraph(rng, n, dcap, kcap,
                                        activity="in-range")
        assert g.n == n
        assert g.max_degree <= dcap
        assert g.max_edge_size <= kcap
        assert set_is_connected(g, (1 << n) - 1)


def test_generator_in_range_activities():
    rng = random.Random(7)
    for _ in range(10):
        g = random_connected_hypergraph(rng, 10, 4, 5, activity="in-range")
        for e in g.edges:
            r = ising_ly_range(e.size)
            assert r.lo < e.activity.beta < r.hi


def test_in_range_beta_keeps_margin():
    rng = random.Random(0)
    for k in (2, 3, 4, 5):
        r = ising_ly_range(k)
        width = r.hi - r.lo
        for _ in range(50):
            b = in_range_beta(rng, k)
            assert r.lo + 0.049 * width <= b <= r.hi - 0.049 * width


def test_symmetric_tables_pass_suzuki_fisher():
    rng = random.Random(3)
    for size in (2, 3, 4):
        for _ in range(10):
            act = random_symmetric_table(rng, size)
            assert act.is_symmetric(size)
            assert act.values[0] == 1
            from hyperising import Hyperedge
            assert suzuki_fisher_check(Hyperedge(tuple(range(size)), act))


def test_regular_graph_is_simple_and_regular():
    rng = random.Random(12)
    g = random_regular_graph(rng, 20, 3, 0.5)
    degrees = [0] * 20
    seen = set()
    for e in g.edges:
        assert e.vertices not in seen
        seen.add(e.vertices)
        for v in e.vertices:
            degrees[v] += 1
    assert all(d == 3 for d in degrees)


def test_regular_graph_rejects_odd_product():
    with pytest.raises(SchemaError):
        random_regular_graph(random.Random(0), 5, 3, 0.5)


def test_generator_rejects_bad_caps():
    with pytest.raises(SchemaError):
        random_connected_hypergraph(random.Random(0), 5, 1, 3)
    with pytest.raises(SchemaError):
        random_connected_hypergraph(random.Random(0), 0, 3, 3)


def test_generated_hosts_are_pinned():
    # the benchmark's corpus, near-circle and smoke hosts and the tests'
    # fixed hosts come from these generators: a change to their draws
    # would change every one of them
    h = hashlib.sha256()
    for seed in (0, 7, 20260809):
        rng = random.Random(seed)
        for caps in ((4, 4), (4, 3), (3, 3)):
            for scheme in ("in-range", "mixed", "table"):
                for n in (1, 2, 5, 9, 12):
                    g = random_connected_hypergraph(rng, n, *caps,
                                                    activity=scheme)
                    h.update(json.dumps(hypergraph_to_doc(g)).encode())
        for k in (2, 3, 4, 5):
            h.update(repr(random_symmetric_table(rng, k).values).encode())
            h.update(repr([in_range_beta(rng, k) for _ in range(3)]).encode())
    assert h.hexdigest() == ("4b12067c26c8551f5bed381cbf37626d"
                             "0f09ba2f7309f7142dd6a2d91b68772c")
