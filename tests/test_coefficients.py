import cmath
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hyperising import (
    Hyperedge,
    Hypergraph,
    IsingActivity,
    MemoryCapError,
    TableActivity,
    compute_coefficient_tables,
    elementary_to_coefficients,
    enumerate_connected,
    exact_coefficients,
    extend_power_sums,
    polynomial_roots,
    power_sums,
    power_sums_to_elementary,
)
from hyperising import coefficients
from hyperising.instances import (random_connected_hypergraph,
                                  random_regular_graph, random_symmetric_table)
from hyperising.subgraphs import _distinct, _edge_arrays

from conftest import (brute_connected_sets, disjoint_union, edgeless,
                      ising_edge, k2, max_coeff_rel_err, path_graph,
                      set_weight, single_edge, table_dicts, traced_peak,
                      triangle, with_uniform_beta)


def test_insect_weight_examples():
    g = k2(0.5)
    assert set_weight(g, 0b01) == -0.5
    assert set_weight(g, 0b10) == -0.5
    assert set_weight(g, 0b11) == 1
    assert set_weight(edgeless(3), 0b010) == -1


def test_insect_weight_uses_boundary_minus():
    # one 3-edge: labels {0}, boundary {1,2} at "-": pattern is a cut
    g = single_edge(3, 0.2)
    assert set_weight(g, 0b001) == pytest.approx(-0.2)
    assert set_weight(g, 0b011) == pytest.approx(0.2)
    assert set_weight(g, 0b111) == pytest.approx(-1.0)


def test_set_weights_sum_to_oracle_coefficients():
    # Z(lam) sums lam^|S| prod_e phi_e over every S, and an edge missing S
    # contributes its all-minus value 1, so c_i = (-1)^i sum_{|S|=i} w(S)
    rng = random.Random(17)
    kinds = set()
    for n in (3, 5, 7, 9):
        g = random_connected_hypergraph(rng, n, 4, 4, activity="mixed")
        kinds.update(type(e.activity).__name__ for e in g.edges)
        sums = [0j] * (n + 1)
        for mask in range(1 << n):
            sums[mask.bit_count()] += set_weight(g, mask)
        want = exact_coefficients(g)
        for i in range(n + 1):
            got = (-1) ** i * sums[i]
            assert abs(got - want[i]) <= 1e-12 * max(1.0, abs(want[i]))
    assert kinds == {"IsingActivity", "TableActivity"}


def test_k2_coefficient_tables():
    beta = 0.5
    tabs = table_dicts(compute_coefficient_tables(k2(beta), 2), k2(beta))
    assert tabs[0][0b01] == pytest.approx(-beta)
    assert tabs[0][0b10] == pytest.approx(-beta)
    assert tabs[1][0b01] == pytest.approx(beta * beta)
    assert tabs[1][0b10] == pytest.approx(beta * beta)
    assert tabs[1][0b11] == pytest.approx(2 * beta * beta - 2)


def test_edgeless_single_vertex_order_two():
    tabs = table_dicts(compute_coefficient_tables(edgeless(1), 2),
                       edgeless(1))
    assert tabs[1][0b1] == pytest.approx(1.0)


@pytest.mark.parametrize("beta", [0.25, -0.4])
def test_single_three_edge_tables_hand_derived(beta):
    # hand-run of the recurrence on one 3-edge (weights: -b per singleton,
    # +b per pair, -1 for the full set)
    g = single_edge(3, beta)
    ct = compute_coefficient_tables(g, 3)
    b = beta
    tabs = table_dicts(ct, g)
    assert tabs[0][0b001] == pytest.approx(-b)
    assert tabs[1][0b001] == pytest.approx(b * b)
    assert tabs[1][0b011] == pytest.approx(2 * b * b - 2 * b)
    assert tabs[2][0b001] == pytest.approx(-b ** 3)
    assert tabs[2][0b110] == pytest.approx(-6 * b ** 3 + 6 * b * b)
    assert tabs[2][0b111] == pytest.approx(-6 * b ** 3 + 9 * b * b - 3)
    p = power_sums(ct)
    assert p[1] == pytest.approx(9 * b * b - 6 * b)
    assert p[2] == pytest.approx(-27 * b ** 3 + 27 * b * b - 3)


def test_k2_power_sums_closed_form():
    beta = 0.7
    ct = compute_coefficient_tables(k2(beta), 4)
    p = power_sums(ct)
    assert p[0] == pytest.approx(-2 * beta)
    assert p[1] == pytest.approx(4 * beta ** 2 - 2)


def test_edgeless_power_sums():
    ct = compute_coefficient_tables(edgeless(2), 5)
    p = power_sums(ct)
    for t, pt in enumerate(p, start=1):
        assert pt == pytest.approx(2 * (-1) ** t)


def test_class_sums_round_the_exact_sum_once():
    # count x value over the classes, against rationals rounded once:
    # full 53-bit mantissas of both signs from subnormal to 1e300, and
    # counts from 1 to past the 2^27 limit of the split products
    rng = random.Random(25)
    counts = [1, 2, 3, 2 ** 26 - 1, 2 ** 26, 2 ** 27 + 3]
    special = [1e300, -1e300, 5e-324, -2.5e-320, 2.2250738585072014e-308]

    def value():
        mantissa = rng.getrandbits(52) | 1 << 52
        return rng.choice([-1, 1]) * math.ldexp(mantissa,
                                                rng.randint(-1126, 940))

    split = rational = 0
    for _ in range(400):
        x = [value() for _ in range(rng.randint(1, 8))]
        x += rng.sample(special, rng.randint(0, 2))
        k = rng.choices(counts[:5] if rng.random() < 0.7 else counts,
                        k=len(x))
        def got():
            # the sum over all of the row, and over all but its last class
            return coefficients._class_sums(np.array([x, x]), np.array(k),
                                            [len(x), len(x) - 1])
        try:
            want = [float(sum(Fraction(v) * c for v, c in zip(x[:e], k)))
                    for e in (len(x), len(x) - 1)]
        except OverflowError:
            with pytest.raises(OverflowError):
                got()
            continue
        assert repr(got()) == repr(want)
        if max(k) > 2 ** 27 or max(map(abs, x)) >= 2.0 ** 996:
            rational += 1
        else:
            split += 1
    assert split > 100 and rational > 100


def power_sum_hosts():
    """Cubic hosts, uniform-beta 3-uniform hosts (classes of many sets)
    and an edgeless host, where only size 1 has sets, with an order."""
    for n, seed in ((20, 1), (50, 2), (64, 3)):
        yield random_regular_graph(random.Random(seed), n, 3, 0.2), 7
    rng = random.Random(31)
    for n in (7, 9, 12):
        edges = tuple(ising_edge(sorted(rng.sample(range(n), 3)), -0.3)
                      for _ in range(n))
        yield Hypergraph(n, edges), 6
    yield edgeless(4), 5


def test_power_sums_equal_fsum_over_the_sets():
    # count x value summed over the classes gives p_t bit for bit as
    # math.fsum over the sets
    merged = 0
    for g, m in power_sum_hosts():
        ct = compute_coefficient_tables(g, m)
        merged += bool(np.any(ct.counts > 1))
        assert ct.counts.sum() == len(ct.cls) == len(ct.tables[-1])
        want = [complex(math.fsum(a.real), math.fsum(a.imag))
                for a in ct.tables]
        assert repr(power_sums(ct)) == repr(want)
    assert merged == 6


def test_unit_beta_power_sums():
    g = triangle(1.0)
    ct = compute_coefficient_tables(g, 6)
    for t, pt in enumerate(power_sums(ct), start=1):
        assert pt == pytest.approx(3 * (-1) ** t, abs=1e-12)


def test_newton_inversion_examples():
    beta = 0.4
    e = power_sums_to_elementary([-2 * beta, 4 * beta ** 2 - 2])
    assert e[0] == pytest.approx(-2 * beta)
    assert e[1] == pytest.approx(1.0)

    n = 6
    p = [n * (-1) ** t for t in range(1, n + 1)]
    e = power_sums_to_elementary(p)
    for i, ei in enumerate(e, start=1):
        assert ei == pytest.approx((-1) ** i * math.comb(n, i), abs=1e-9)


def test_self_inversive_completion_of_binomial():
    # (1 + lam)^n from its first n // 2 terms: e_i = (-1)^i C(n, i) and
    # p_t = n (-1)^t up to order n, for odd and even n
    for n in (5, 6):
        p = [n * (-1) ** t for t in range(1, n // 2 + 1)]
        p_all, e_all = coefficients.complete_self_inversive(
            p, power_sums_to_elementary(p), n)
        assert p_all == [n * (-1) ** t for t in range(1, n + 1)]
        assert e_all == [(-1) ** i * math.comb(n, i) for i in range(1, n + 1)]
    with pytest.raises(ValueError):
        coefficients.complete_self_inversive([-6], [-6], 6)


def test_elementary_vanishes_past_host_size():
    ct = compute_coefficient_tables(k2(0.5), 5)
    e = power_sums_to_elementary(power_sums(ct))
    assert abs(e[2]) < 1e-12 and abs(e[3]) < 1e-12 and abs(e[4]) < 1e-12


def test_oracle_equivalence_random_instances():
    rng = random.Random(42)
    for _ in range(20):
        n = rng.randint(2, 12)
        g = random_connected_hypergraph(rng, n, 4, 4, activity="mixed")
        ct = compute_coefficient_tables(g, n)
        e = power_sums_to_elementary(power_sums(ct))
        got = elementary_to_coefficients(e)
        want = exact_coefficients(g)
        assert max_coeff_rel_err(got, want) <= 1e-9


@pytest.mark.parametrize("beta", [0.9, 0.99])
def test_high_beta_coefficients_match_oracle(beta):
    # zeros crowd around lambda = -1 as beta -> 1; the pair recurrence
    # keeps the coefficients at ~1e-13 there, far inside the 1e-9 gate
    g = random_regular_graph(random.Random(36), 12, 3, beta)
    e = power_sums_to_elementary(power_sums(compute_coefficient_tables(g, 12)))
    got = elementary_to_coefficients(e)
    assert max_coeff_rel_err(got, exact_coefficients(g)) <= 1e-9


def test_power_sum_additivity_over_disjoint_union():
    rng = random.Random(8)
    g1 = random_connected_hypergraph(rng, 5, 4, 3, activity="in-range")
    g2 = random_connected_hypergraph(rng, 6, 4, 4, activity="in-range")
    g = disjoint_union(g1, g2)
    p1 = power_sums(compute_coefficient_tables(g1, 5))
    p2 = power_sums(compute_coefficient_tables(g2, 5))
    p = power_sums(compute_coefficient_tables(g, 5))
    for t in range(5):
        assert p[t] == pytest.approx(p1[t] + p2[t], abs=1e-10)


def test_power_sums_match_exact_rational_newton():
    # c_i summed exactly over all 2^n label sets (an Ising edge weighs
    # beta when it is cut, 1 otherwise), then p_t by Newton's identities in
    # Fraction, also past the host size where e_t = 0
    hosts = [
        Hypergraph(5, (ising_edge((0, 1), Fraction(1, 4)),
                       ising_edge((1, 2, 3), Fraction(-3, 16)),
                       ising_edge((3, 4), Fraction(5, 8)),
                       ising_edge((0, 4), Fraction(1, 4)))),
        Hypergraph(7, (ising_edge((0, 1, 2), Fraction(1, 8)),
                       ising_edge((2, 3, 4, 5), Fraction(1, 16)),
                       ising_edge((5, 6), Fraction(-1, 2)),
                       ising_edge((0, 6), Fraction(3, 4)),
                       ising_edge((1, 4), Fraction(3, 4)))),
        random_regular_graph(random.Random(3), 8, 3, 0.375),
    ]
    for g in hosts:
        n, m = g.n, g.n + 2
        c = [Fraction(0)] * (n + 1)
        for mask in range(1 << n):
            w = Fraction(1)
            for e in g.edges:
                if 0 < sum(mask >> v & 1 for v in e.vertices) < e.size:
                    w *= Fraction(e.activity.beta)
            c[mask.bit_count()] += w
        e = [(-1) ** i * c[i] for i in range(1, n + 1)] + [0] * (m - n)
        want = []
        for t in range(1, m + 1):
            want.append((-1) ** (t - 1) * t * e[t - 1] + sum(
                (-1) ** (i - 1) * e[i - 1] * want[t - i - 1]
                for i in range(1, t)))
        got = power_sums(compute_coefficient_tables(g, m))
        for pt, exact in zip(got, want):
            assert abs(pt - float(exact)) <= 1e-12 * max(1.0, abs(exact))


def test_power_sums_match_reciprocal_root_sums():
    rng = random.Random(13)
    for _ in range(6):
        n = rng.randint(2, 10)
        g = random_connected_hypergraph(rng, n, 4, 4, activity="in-range")
        roots = polynomial_roots(exact_coefficients(g))
        ct = compute_coefficient_tables(g, n)
        p = power_sums(ct)
        for t in range(1, n + 1):
            want = sum(1 / r ** t for r in roots)
            scale = sum(1 / abs(r) ** t for r in roots)
            assert abs(p[t - 1] - want) <= 1e-6 * scale


def test_tables_support_only_small_enough_sets():
    g = triangle(0.3)
    tabs = table_dicts(compute_coefficient_tables(g, 3), g)
    for t in range(1, 4):
        assert all(mask.bit_count() <= t for mask in tabs[t - 1])
    fam = enumerate_connected(g, 3)
    want_keys = set()
    for s in range(1, 3):
        for lab in fam.sets_of_size(s).tolist():
            want_keys.add(sum(1 << v for v in lab))
    assert set(tabs[1]) == want_keys


def test_pair_scan_within_rail():
    rng = random.Random(3)
    g = random_connected_hypergraph(rng, 10, 4, 4, activity="in-range")
    ct = compute_coefficient_tables(g, 10)
    for t, scanned in enumerate(ct.pair_scan_max, start=1):
        assert scanned <= 4 ** t


def shared_table_host(g: Hypergraph, rng: random.Random) -> Hypergraph:
    """g's edges, every edge of one size carrying the same random table
    object; these tables read the positions of the edge."""
    tables = {k: random_symmetric_table(rng, k)
              for k in {e.size for e in g.edges}}
    return Hypergraph(g.n, tuple(Hyperedge(e.vertices, tables[e.size])
                                 for e in g.edges))


def literal_recurrence_hosts():
    """(kind, host): mixed hosts, whose edges all differ; uniform-beta
    Ising hosts; and hosts whose same-size edges share one table."""
    rng = random.Random(23)
    for n in range(2, 8):
        yield "mixed", random_connected_hypergraph(rng, n, 4, 4,
                                                   activity="mixed")
    rng = random.Random(29)
    for n in range(3, 8):
        yield "ising", with_uniform_beta(random_connected_hypergraph(
            rng, n, 4, 4), rng.uniform(-0.5, 0.9))
    yield "ising", random_regular_graph(rng, 6, 3, 0.3)
    for n in range(3, 8):
        yield "table", shared_table_host(random_connected_hypergraph(
            rng, n, 4, 4), rng)
    # regular hosts and a chain of 3-edges, where sets with the same edge
    # positions recur
    yield "table", shared_table_host(random_regular_graph(rng, 6, 3, 0), rng)
    yield "table", shared_table_host(random_regular_graph(rng, 7, 4, 0), rng)
    yield "table", shared_table_host(Hypergraph(7, (
        ising_edge((0, 1, 2), 0), ising_edge((2, 3, 4), 0),
        ising_edge((4, 5, 6), 0))), rng)


def class_counts(g: Hypergraph, t: int) -> list[tuple[int, int]]:
    """(sets, classes) of each size up to t."""
    fam = enumerate_connected(g, t)
    keying = coefficients._spin_tables(g, t)[2]
    if keying is None:
        return [(len(sets), len(sets)) for sets in fam.by_size if len(sets)]
    return [(len(cls), len(reps)) for cls, reps, _
            in coefficients._family_classes(fam, t, *keying)]


def test_tables_and_pair_scan_match_literal_recurrence():
    # the recurrence of the coefficients module docstring, summed pair by
    # pair over every subset with weights read off the host; pair_scan_max
    # is the largest number of pairs any connected L has at order t. The
    # tables build each w from the edges meeting the set L alone, so this
    # also checks that a subset of L sees the same weight through them,
    # and, on the hosts with shared activities, where sets share a class,
    # that each member takes its own coefficients from the representative
    merged = set()
    for kind, g in literal_recurrence_hosts():
        n = g.n
        if any(c < s for s, c in class_counts(g, n)):
            merged.add(kind)
        w = {mask: set_weight(g, mask) for mask in range(1, 1 << n)}
        connected = sorted(sum(1 << v for v in s)
                           for sets in brute_connected_sets(g, n).values()
                           for s in sets)
        for m in (n, n + 2):
            a, scans = {}, []
            for t in range(1, m + 1):
                scan = 0
                for lmask in connected:
                    if lmask.bit_count() > t:
                        continue
                    acc, pairs = 0j, 0
                    for s2 in connected:
                        if s2 & ~lmask:
                            continue
                        for y in range(s2 + 1):
                            s1 = (lmask & ~s2) | y
                            i = s1.bit_count()
                            if y & ~s2 or not s1 or i + s2.bit_count() > t:
                                continue
                            acc += (-1) ** (i - 1) * w[s1] * a[t - i, s2]
                            pairs += 1
                    if lmask.bit_count() == t:
                        acc += (-1) ** (t - 1) * t * w[lmask]
                    a[t, lmask] = acc
                    scan = max(scan, pairs)
                scans.append(scan)
            ct = compute_coefficient_tables(g, m)
            assert list(ct.pair_scan_max) == scans
            tabs = table_dicts(ct, g)
            for (t, lmask), want in a.items():
                got = tabs[t - 1][lmask]
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    # keying runs only where tables are shared, and merges sets there
    assert merged == {"ising", "table"}


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_regular_host_classes(seed):
    # 3-regular uniform-beta hosts: all vertices and all edges are alike,
    # and classes grown from the parents' classes bring 5000-5600 sets of
    # size 7 down to 27-47 classes, 55-91 up to size 7 (keying every set
    # by its own refinement order: 95-118; with Ising traces kept by
    # position: thousands)
    g = random_regular_graph(random.Random(seed), 50, 3, 0.2)
    counts = class_counts(g, 7)
    assert counts[:2] == [(50, 1), (75, 1)]
    assert sum(c for _, c in counts) <= 95
    # sizes 1 and 2 are one pre-class each, so they are never keyed
    fam = enumerate_connected(g, 7)
    classes, pre, keyed = traced_classes(
        fam, 7, coefficients._spin_tables(g, 7)[2])
    assert pre[:2] == [1, 1] and keyed == set(range(3, 8))


@st.composite
def keyed_hosts(draw):
    """A 3-regular host with uniform beta, or a host of 3 to 7 vertices
    whose edges of size 2 to 4 draw their activities from a pool per size:
    Ising at two betas, a table that reads positions and a table that
    reads only the number of "+" positions. Some edges repeat as parallel
    edges, and degrees differ, so incidence rows are padded."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return random_regular_graph(rng, draw(st.sampled_from([4, 6, 8])), 3,
                                    rng.uniform(-0.9, 0.9))
    n = draw(st.integers(3, 7))
    betas = [rng.uniform(-0.9, 0.9) for _ in range(2)]
    pool = {}
    for k in (2, 3, 4):
        plus = [1.0] + [rng.uniform(-1, 1) for _ in range(k)]
        pool[k] = [IsingActivity(b) for b in betas] + [
            random_symmetric_table(rng, k),
            TableActivity(tuple(complex(plus[b.bit_count()])
                                for b in range(1 << k)))]
    edges = []
    for _ in range(draw(st.integers(2, 2 * n))):
        verts = tuple(sorted(draw(st.sets(st.integers(0, n - 1),
                                          min_size=2, max_size=4))))
        edges += ([Hyperedge(verts, draw(st.sampled_from(pool[len(verts)])))]
                  * draw(st.integers(1, 2)))
    return Hypergraph(n, tuple(edges))


def canonical_form(edges: list, labels: list[int]) -> list:
    """The least, over all labellings of the set's vertices by 0..k-1, of
    the sorted (table id, trace) of the edges meeting the set. edges holds
    (table id, order-free, vertices) per host edge; a trace lists the
    label at each position of the edge (-1 outside the set), or the
    sorted labels when the table reads only the number of "+" positions."""
    meeting = [(t, free, vs) for t, free, vs in edges
               if not set(vs).isdisjoint(labels)]
    best = None
    for perm in itertools.permutations(range(len(labels))):
        lab = dict(zip(labels, perm))
        form = sorted((t, tuple(sorted(lab[v] for v in vs if v in lab))
                       if free else tuple(lab.get(v, -1) for v in vs))
                      for t, free, vs in meeting)
        if best is None or form < best:
            best = form
    return best


def traced_classes(fam, t: int, keying) -> tuple:
    """(classes, pre, keyed): `_family_classes` of the family, the number
    of pre-classes of each size as `_unique_rows` found them (its first
    call after a size's pre-keys), and the sizes `_structure_keys` ran on."""
    events = []

    def spy(name, real):
        def call(*args):
            out = real(*args)
            events.append((name, args[0].shape[1] if name != "unique"
                           else len(out[0])))
            return out
        return call

    with mock.patch.multiple(
            coefficients,
            _pre_keys=spy("pre", coefficients._pre_keys),
            _unique_rows=spy("unique", coefficients._unique_rows),
            _structure_keys=spy("keys", coefficients._structure_keys)):
        classes = coefficients._family_classes(fam, t, *keying)
    pre, keyed, size = {}, set(), None
    for name, value in events:
        if name == "pre":
            size = value
        elif name == "unique":
            pre.setdefault(size, value)
        else:
            keyed.add(value)
    return classes, [pre[k] for k in sorted(pre)], keyed


@settings(derandomize=True, deadline=None, max_examples=30)
@given(keyed_hosts())
def test_classes_are_exact(g):
    # every member of a class has its representative's canonical form, by
    # brute force over all k! labellings; no size has more classes than
    # keying every set by its own refinement order gives; the structure
    # keys run only for sizes of two or more pre-classes, a lone
    # pre-class being one class; and the classes and tables do not depend
    # on the chunking
    t = min(g.n, 6)
    fam = enumerate_connected(g, t)
    keying = coefficients._spin_tables(g, t)[2]
    assume(keying is not None)
    ids: dict = {}
    edges = []
    for e in g.edges:
        table = e.activity.table(e.size)
        free = all(table[b] == table[(1 << b.bit_count()) - 1]
                   for b in range(1 << e.size))
        edges.append((ids.setdefault((e.size, e.activity), len(ids)), free,
                      e.vertices))
    inc, ev = fam.arrays
    classes, pre, keyed = traced_classes(fam, t, keying)
    assert [p for _, _, p in classes] == pre
    assert keyed == {k for k, p in enumerate(pre, start=1) if p >= 2}
    for sets, (cls, reps, p) in zip(fam.by_size, classes):
        assert len(reps) <= p
        forms = [canonical_form(edges, s) for s in sets.tolist()]
        assert cls[reps].tolist() == list(range(len(reps)))
        for j, c in enumerate(cls.tolist()):
            assert reps[c] <= j and forms[j] == forms[reps[c]]
        keys = coefficients._structure_keys(sets, inc, ev, *keying)[0]
        assert len(reps) <= len(np.unique(keys, axis=0))
    want = compute_coefficient_tables(g, t, fam)
    with mock.patch.object(coefficients, "_CHUNK_CELLS", 1 << 4):
        again = coefficients._family_classes(fam, t, *keying)
        got = compute_coefficient_tables(g, t, fam)
    for (cls, reps, _), (cls2, reps2, _) in zip(classes, again,
                                                strict=True):
        assert np.array_equal(cls, cls2) and np.array_equal(reps, reps2)
    assert got.pair_scan_max == want.pair_scan_max
    for a, b in zip(got.tables, want.tables, strict=True):
        assert np.array_equal(a, b)


def test_chunking_does_not_change_tables(monkeypatch):
    # with 16 cells per chunk every size batch of these hosts spans many
    # chunks, one set per lattice chunk from size 4 on, so coefficients
    # of one batch read back rows of another chunk's sets and
    # pair_scan_max folds over chunks; each set is keyed alone, and the
    # classes stay the same
    rng = random.Random(41)
    cases = []
    for n in range(2, 11):
        g = random_connected_hypergraph(rng, n, 4, 4, activity="mixed")
        for m in (n, n + 2):
            cases.append((g, m, compute_coefficient_tables(g, m)))
    shared = [g for kind, g in literal_recurrence_hosts() if kind != "mixed"]
    classes = [class_counts(g, g.n) for g in shared]
    cases += [(g, g.n, compute_coefficient_tables(g, g.n)) for g in shared]
    monkeypatch.setattr(coefficients, "_CHUNK_CELLS", 1 << 4)
    assert [class_counts(g, g.n) for g in shared] == classes
    for g, m, want in cases:
        got = compute_coefficient_tables(g, m)
        assert got.pair_scan_max == want.pair_scan_max
        for table, ref in zip(table_dicts(got, g), table_dicts(want, g)):
            assert list(table) == list(ref)
            for mask, value in ref.items():
                assert abs(table[mask] - value) <= 1e-13 * abs(value)


@st.composite
def lattice_cases(draw):
    """A host of 8 to 10 vertices with Ising and table edges of size 2 to
    4, some repeated as parallel edges, and 2 to 4 label sets of size 8 or
    more. Degrees differ, so incidence rows are padded with the dummy
    edge; the sets need not be connected. The Ising edges draw beta from
    a pool of at most three, and a table edge may take an earlier table of
    its size, so several edges read one stored table."""
    n = draw(st.integers(8, 10))
    weights = st.complex_numbers(max_magnitude=2, allow_nan=False,
                                 allow_infinity=False)
    betas = draw(st.lists(st.floats(-1, 1), min_size=1, max_size=3))
    tables = {}
    edges = []
    for _ in range(draw(st.integers(1, 2 * n))):
        verts = tuple(sorted(draw(st.sets(st.integers(0, n - 1),
                                          min_size=2, max_size=4))))
        if draw(st.booleans()):
            activity = IsingActivity(draw(st.sampled_from(betas)))
        elif len(verts) in tables and draw(st.booleans()):
            activity = tables[len(verts)]
        else:
            size = (1 << len(verts)) - 1
            activity = tables[len(verts)] = TableActivity((1 + 0j,) + tuple(
                draw(st.lists(weights, min_size=size, max_size=size))))
        edges += [Hyperedge(verts, activity)] * draw(st.integers(1, 2))
    k = draw(st.integers(8, n))
    sets = [sorted(draw(st.permutations(range(n)))[:k])
            for _ in range(draw(st.integers(2, 4)))]
    return Hypergraph(n, tuple(edges)), np.asarray(sets, dtype=np.int64)


@settings(derandomize=True, deadline=None, max_examples=15)
@given(lattice_cases())
def test_edge_products_match_set_weights(case):
    # E[j, x] = (-1)^|x| w(x) for the subset x of sets[j], and the rows of
    # a set do not depend on the other sets passed with it
    g, sets = case
    inc, ev = _edge_arrays(g)
    tables = coefficients._spin_tables(g, sets.shape[1])[:2]
    e = coefficients._edge_products(sets, inc, ev, *tables)
    assert e.shape == (len(sets), 1 << sets.shape[1])
    for row, labels in zip(e.tolist(), sets.tolist()):
        for x, got in enumerate(row):
            mask = sum(1 << v for b, v in enumerate(labels) if x >> b & 1)
            want = (-1) ** x.bit_count() * set_weight(g, mask)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    cut = len(sets) // 2
    split = np.vstack([coefficients._edge_products(sets[:cut], inc, ev,
                                                   *tables),
                       coefficients._edge_products(sets[cut:], inc, ev,
                                                   *tables)])
    assert np.array_equal(split, e)


@settings(derandomize=True, deadline=None, max_examples=15)
@given(lattice_cases(), st.data())
def test_slots_and_labels_match_brute_force(case, data):
    # each slot row, the set's incident edges through the enumeration's
    # dedup, lists every edge meeting its set once, ascending, then only
    # the dummy edge, up to the widest row (one slot at least); a slot
    # edge's positions read 1 + the label of the set vertex there, and 0
    # where the vertex is outside the set
    g, sets = case
    inc, ev = _edge_arrays(g)
    dummy = len(g.edges)
    labels = np.asarray([data.draw(st.permutations(range(sets.shape[1])))
                         for _ in sets])
    slot = _distinct(inc[sets].reshape(len(sets), -1), dummy)
    lab = coefficients._labels_on(sets, labels, ev[slot])
    assert 1 <= slot.shape[1] <= sets.shape[1] * inc.shape[1]
    assert slot.shape == (len(sets), max(1, max(
        sum(not set(s).isdisjoint(e.vertices) for e in g.edges)
        for s in sets.tolist())))
    for j, members in enumerate(sets.tolist()):
        meeting = [i for i, e in enumerate(g.edges)
                   if not set(members).isdisjoint(e.vertices)]
        assert slot[j].tolist() == meeting + [dummy] * (slot.shape[1]
                                                        - len(meeting))
        label = dict(zip(members, labels[j].tolist()))
        for s, e in enumerate(slot[j].tolist()):
            verts = g.edges[e].vertices if e < dummy else ()
            want = [1 + label[v] if v in label else 0 for v in verts]
            assert lab[j, s].tolist() == want + [0] * (ev.shape[1]
                                                       - len(want))


def relabelled(g: Hypergraph, perm: list[int]) -> Hypergraph:
    """g with vertex v renamed perm[v]; each spin table follows its
    vertices into their new order on the edge."""
    edges = []
    for e in g.edges:
        order = sorted(range(e.size), key=lambda p: perm[e.vertices[p]])
        act = e.activity
        if isinstance(act, TableActivity):
            act = TableActivity(tuple(
                act.values[sum(1 << order[q] for q in range(e.size)
                               if b >> q & 1)]
                for b in range(1 << e.size)))
        edges.append(Hyperedge(tuple(perm[e.vertices[p]] for p in order), act))
    return Hypergraph(g.n, tuple(edges))


@st.composite
def shared_activity_hosts(draw):
    """A 3-regular host with uniform beta, or a random host with edges of
    size 2 to 4 whose same-size edges share one Ising or table activity;
    and a permutation of its vertices."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        n = draw(st.sampled_from([4, 6, 8, 10]))
        g = random_regular_graph(rng, n, 3, draw(st.floats(-0.9, 0.9)))
    else:
        n = draw(st.integers(3, 9))
        shared = {k: IsingActivity(rng.uniform(-0.9, 0.9))
                  if draw(st.booleans()) else random_symmetric_table(rng, k)
                  for k in (2, 3, 4)}
        g = Hypergraph(n, tuple(Hyperedge(e.vertices, shared[e.size])
                                for e in random_connected_hypergraph(
                                    rng, n, 4, 4).edges))
    return g, draw(st.permutations(range(n)))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(shared_activity_hosts())
def test_relabelling_moves_power_sums_by_rounding_only(case):
    # a relabelling changes which set represents each class and the local
    # orders, so only the rounding of p_t may move
    g, perm = case
    m = min(g.n, 8)
    p = power_sums(compute_coefficient_tables(g, m))
    q = power_sums(compute_coefficient_tables(relabelled(g, perm), m))
    for a, b in zip(p, q):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_table_build_memory_stays_bounded():
    # the pair rows of a chunk are dropped once its orders are done; kept
    # for every size until one final order sweep, this build peaked at
    # 227 MiB, against 109 MiB with the rows dropped chunk by chunk,
    # 79.5 MiB with int32 subset index tables, 53.5 MiB with the edge
    # products taken one edge slot at a time, 31 MiB with the lattices
    # run for one set per structural class and 5.7 MiB with classes grown
    # from the parents' classes and index rows for the representatives'
    # down-closure alone
    g = random_regular_graph(random.Random(256), 256, 3, 0.2)
    fam = enumerate_connected(g, 7)
    peak = traced_peak(lambda: compute_coefficient_tables(g, 7, fam=fam))
    assert peak < 160 * 2 ** 20


def test_index_rows_of_the_closure_bound_memory():
    # 121 777 sets in 164 classes: index rows for every set held the
    # 79 309 x 256 int32 size-8 table and peaked at 99.6 MiB; the
    # representatives' down-closure peaks at 13 MiB
    g = random_regular_graph(random.Random(200), 200, 3, 0.2)
    fam = enumerate_connected(g, 8)
    peak = traced_peak(lambda: compute_coefficient_tables(g, 8, fam=fam))
    assert peak < 75 * 2 ** 20


def _classes_as_built(fam, depth):
    """The representatives of each non-empty size, as the table build
    takes them, and whether the host is keyed."""
    keying = coefficients._spin_tables(fam.host, depth)[2]
    if keying is None:
        reps = [np.arange(len(s)) for s in fam.by_size[:depth] if len(s)]
        return reps, False
    classes = coefficients._family_classes(fam, depth, *keying)
    return [own for _, own, _ in classes], True


@pytest.mark.parametrize("g, depth, unread", [
    (random_connected_hypergraph(random.Random(3), 9, 4, 4), 9, False),
    (random_connected_hypergraph(random.Random(8), 7, 4, 4,
                                 activity="mixed"), 7, False),
    (random_regular_graph(random.Random(5), 12, 3, 0.4), 7, True),
    (path_graph(9, 0.5), 9, False),
    (disjoint_union(triangle(), path_graph(3)), 5, False),
])
def test_index_rows_mark_representatives_and_their_parents(g, depth, unread):
    fam = enumerate_connected(g, depth)
    reps, keyed = _classes_as_built(fam, depth)
    rows = coefficients._index_rows(fam.parents, reps)
    assert len(rows) == len(reps)
    for k, (read, own) in enumerate(zip(rows, reps), start=1):
        assert np.all(np.diff(read) > 0)
        if not keyed:
            # every set is its own class: every row is read
            assert read.tolist() == list(range(len(fam.by_size[k - 1])))
        assert set(own.tolist()) <= set(read.tolist())
        if k > 1:
            # an index row reads the rows of its connected parents
            par = fam.parents[k - 1][read]
            assert set(par[par >= 0].tolist()) <= set(rows[k - 2].tolist())
    # on the cubic host the representatives' closure leaves rows unread
    assert (sum(map(len, rows)) < sum(map(len, fam.by_size[:depth]))) == unread


def test_wide_edge_memory_stays_within_the_distinct_tables():
    # a 200-vertex path with one 16-vertex edge: each distinct spin table
    # is held once, by the table build alone. A table per edge padded to
    # 2^16 entries, built with the family, took about 204 MiB in both
    path = path_graph(200)
    g = Hypergraph(200, path.edges + (ising_edge(range(16), 0.01),))
    assert traced_peak(lambda: enumerate_connected(g, 3)) <= 4 * 2 ** 20
    build = traced_peak(lambda: compute_coefficient_tables(g, 3))
    assert build <= 16 * 2 ** 20


def test_spin_tables_count_each_distinct_activity_once(monkeypatch):
    # two 3-edges at one beta share 8 entries and the 2-edge adds 4; a
    # 3-edge at another beta adds 8 more, past a cap of 16
    monkeypatch.setattr(coefficients, "_TABLE_ENTRIES", 16)
    edges = (ising_edge((0, 1, 2), 0.2), ising_edge((1, 3), 0.2),
             ising_edge((2, 3, 4), 0.2))
    g = Hypergraph(5, edges)
    flat, start, _ = coefficients._spin_tables(g, 3)
    assert len(flat) == 13 and start.tolist() == [0, 8, 0, 12]
    assert flat[-1] == 1
    more = Hypergraph(5, edges + (ising_edge((0, 3, 4), 0.3),))
    with pytest.raises(MemoryCapError, match="16"):
        compute_coefficient_tables(more, 3)
    compute_coefficient_tables(g, 3)


def test_host_past_62_vertices():
    # 60 isolated vertices next to a mixed 10-vertex host: each isolated
    # vertex adds a root at -1, so p_t grows by 60 (-1)^t
    small = random_connected_hypergraph(random.Random(11), 10, 4, 4,
                                        activity="mixed")
    g = disjoint_union(edgeless(60), small)
    assert g.n == 70
    kinds = {type(e.activity).__name__ for e in g.edges}
    assert kinds == {"IsingActivity", "TableActivity"}
    p = power_sums(compute_coefficient_tables(g, 10))
    p_small = power_sums(compute_coefficient_tables(small, 10))
    for t in range(1, 11):
        assert abs(p[t - 1] - (p_small[t - 1] + 60 * (-1) ** t)) <= 1e-12


def test_tables_beyond_host_size_match_root_sums():
    beta = 0.35
    g = single_edge(3, beta)
    m = 9
    ct = compute_coefficient_tables(g, m)
    p = power_sums(ct)
    roots = polynomial_roots(exact_coefficients(g))
    for t in range(1, m + 1):
        want = sum(1 / r ** t for r in roots)
        assert abs(p[t - 1] - want) <= 1e-6 * 3


def test_extension_matches_direct_tables():
    rng = random.Random(71)
    g = random_connected_hypergraph(rng, 6, 4, 3, activity="in-range")
    n = g.n
    ct_full = compute_coefficient_tables(g, 15)
    p_direct = power_sums(ct_full)
    ct = compute_coefficient_tables(g, n)
    p_base = power_sums(ct)
    e = power_sums_to_elementary(p_base)
    p_ext = extend_power_sums(p_base, e, 15)
    np.testing.assert_allclose(p_ext, p_direct, atol=1e-10)


def test_extension_continues_short_prefix():
    # (1 + lam)^n has every reciprocal root at -1, so p_t = n (-1)^t at
    # every order; one loop continues any prefix, shorter than e or not
    for n in (5, 6):
        e = [(-1) ** i * math.comb(n, i) for i in range(1, n + 1)]
        want = [n * (-1) ** t for t in range(1, n + 5)]
        for h in range(n + 2):
            assert extend_power_sums(want[:h], e, n + 4) == want


def test_weight_matches_definition_on_random_sets():
    # the product over every host edge, as the oracle takes it: an edge
    # missing the set reads its all-minus entry, which is 1
    rng = random.Random(5)
    g = random_connected_hypergraph(rng, 9, 4, 4, activity="mixed")
    for _ in range(30):
        size = rng.randint(1, 9)
        labels = rng.sample(range(9), size)
        want = (-1) ** len(labels)
        for e in g.edges:
            pattern = sum(1 << j for j, v in enumerate(e.vertices)
                          if v in labels)
            want *= e.activity.table(e.size)[pattern]
        assert cmath.isclose(set_weight(g, sum(1 << v for v in labels)), want)
    singles = table_dicts(compute_coefficient_tables(g, 1), g)[0]
    for v in range(9):
        assert cmath.isclose(singles[1 << v], set_weight(g, 1 << v))


def test_rejects_bad_order():
    with pytest.raises(ValueError):
        compute_coefficient_tables(k2(), 0)


def test_rejects_family_shallower_than_the_depth():
    g = random_regular_graph(random.Random(0), 8, 3, 0.3)
    with pytest.raises(ValueError, match="family enumerated to 3, need 5"):
        compute_coefficient_tables(g, 5, fam=enumerate_connected(g, 3))


def test_rejects_family_of_another_host():
    # the tables read the family's edge arrays: tabulated for g1, g2's
    # family gave g2's power sums without an error
    g1, g2 = (random_connected_hypergraph(random.Random(seed), 6, 3, 3)
              for seed in (1, 2))
    with pytest.raises(ValueError, match="another host"):
        compute_coefficient_tables(g1, 3, fam=enumerate_connected(g2, 3))
    # an equal host is the same host
    same = enumerate_connected(Hypergraph(g1.n, g1.edges), 3)
    assert (power_sums(compute_coefficient_tables(g1, 3, fam=same))
            == power_sums(compute_coefficient_tables(g1, 3)))
