import cmath
import logging
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hyperising import (
    HyperIsingError,
    Hyperedge,
    Hypergraph,
    IsingActivity,
    OracleCapError,
    PartitionEstimator,
    RootConvergenceError,
    SchemaError,
    TableActivity,
    exact_coefficients,
    exact_multivariate,
    exact_partition,
    polynomial_roots,
    oracle,
    zero_report,
)
from hyperising.coefficients import extend_power_sums
from hyperising.instances import (random_connected_hypergraph,
                                  random_regular_graph)
from hyperising.oracle import cut_histogram, polyval, uniform_beta_coefficients

from conftest import (brute_coefficients, brute_cut_histogram, complete_graph,
                      disjoint_union, edgeless, ising_edge, k2, path_graph,
                      single_edge, triangle, with_uniform_beta)


def test_edgeless_partition_is_binomial():
    g = edgeless(3)
    for lam in (0.5, 2.0, 1j, -0.3 + 0.4j):
        assert cmath.isclose(exact_partition(g, lam), (1 + lam) ** 3)


def test_k2_partition_closed_form():
    beta = 0.7
    g = k2(beta)
    for lam in (0.0, 0.3, -1.5, 2j):
        assert cmath.isclose(exact_partition(g, lam),
                             lam * lam + 2 * beta * lam + 1, abs_tol=1e-12)


def test_unit_beta_partition_is_binomial():
    g = triangle(1.0)
    for lam in (0.25, -0.8, 0.5j):
        assert cmath.isclose(exact_partition(g, lam), (1 + lam) ** 3)


def test_exact_coefficients_closed_forms():
    beta = 0.35
    np.testing.assert_allclose(exact_coefficients(k2(beta)),
                               [1, 2 * beta, 1], atol=1e-14)
    np.testing.assert_allclose(exact_coefficients(single_edge(3, beta)),
                               [1, 3 * beta, 3 * beta, 1], atol=1e-14)
    np.testing.assert_allclose(exact_coefficients(single_edge(3, 1.0)),
                               [1, 3, 3, 1], atol=1e-14)


def test_constant_coefficient_is_one():
    rng = random.Random(3)
    for _ in range(5):
        g = random_connected_hypergraph(rng, rng.randint(2, 10), 4, 4,
                                        activity="mixed")
        assert exact_coefficients(g)[0] == 1


def test_evaluation_coefficient_consistency():
    rng = random.Random(11)
    for _ in range(8):
        g = random_connected_hypergraph(rng, rng.randint(2, 12), 4, 4,
                                        activity="mixed")
        c = exact_coefficients(g)
        for _ in range(10):
            r = 2 * math.sqrt(rng.random())
            lam = r * cmath.exp(2j * math.pi * rng.random())
            via_poly = complex(polyval(c, lam))
            direct = exact_partition(g, lam)
            scale = sum(abs(ci * lam ** i) for i, ci in enumerate(c))
            assert abs(via_poly - direct) <= 1e-9 * max(scale, 1e-300)


def test_palindromic_coefficients_for_real_ising():
    rng = random.Random(23)
    for _ in range(6):
        g = random_connected_hypergraph(rng, rng.randint(2, 12), 4, 4,
                                        activity="in-range")
        c = exact_coefficients(g)
        scale = np.max(np.abs(c))
        assert np.max(np.abs(c - c[::-1])) <= 1e-12 * scale


@settings(derandomize=True, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1),
       activity=st.sampled_from(["in-range", "mixed", "table"]))
def test_cut_histogram_matches_oracle(n, seed, activity):
    # the histogram reads every edge as Ising, whatever its activity
    g = random_connected_hypergraph(random.Random(seed), n, 4, 4,
                                    activity=activity)
    hist = cut_histogram(g)
    assert hist.sum(axis=1).tolist() == [math.comb(n, i) for i in range(n + 1)]
    assert np.array_equal(hist, hist[::-1])
    for beta in (-0.5, 0.15, 0.8, 0.9):
        got = uniform_beta_coefficients(hist, beta)
        want = exact_coefficients(with_uniform_beta(g, beta))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@st.composite
def hosts(draw, max_n=12, activity=lambda draw, k: IsingActivity(0.5)):
    """Hosts with n = 0..max_n and edges of size 2-4, some repeated:
    isolated vertices, parallel edges, and two components when the
    vertices are split in halves. `activity(draw, k)` gives the activity
    of an edge of size k."""
    n = draw(st.integers(0, max_n))
    parts = [range(n)]
    if n >= 4 and draw(st.booleans()):
        parts = [range(n // 2), range(n // 2, n)]
    edges = []
    for _ in range(draw(st.integers(0, 2 * n))):
        part = draw(st.sampled_from(parts))
        if len(part) >= 2:
            k = draw(st.integers(2, min(4, len(part))))
            verts = draw(st.lists(st.sampled_from(part), min_size=k,
                                  max_size=k, unique=True))
            edges.append(Hyperedge(tuple(sorted(verts)), activity(draw, k)))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    return Hypergraph(n, tuple(edges))


@settings(derandomize=True, deadline=None)
@given(g=hosts())
@example(g=edgeless(0))
@example(g=edgeless(7))
@example(g=disjoint_union(Hypergraph(3, (ising_edge((0, 1), 0.5),) * 2),
                          single_edge(4, 0.5)))
def test_both_histogram_routes_count_exactly(g):
    want = brute_cut_histogram(g)
    assert oracle._blocked_histogram(g).tolist() == want
    assert cut_histogram(g).tolist() == want
    # the transfer matrix on every host, at the default budget and at one
    # that splits most states
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_transfer_pays", lambda g, steps: True)
        assert cut_histogram(g).tolist() == want
        row_bytes = 8 * (g.n + 1) * (len(g.edges) + 1)
        mp.setattr(oracle, "_BLOCK_BITS", _four_row_budget(row_bytes))
        assert cut_histogram(g).tolist() == want


def _four_row_budget(row_bytes: int) -> int:
    """The _BLOCK_BITS at which no transfer state passes four rows of
    `row_bytes` bytes, so that all wider states split."""
    return (row_bytes // 2 - 1).bit_length()


def _unit_disk(rng: random.Random) -> complex:
    return cmath.rect(rng.random(), rng.uniform(-math.pi, math.pi))


@st.composite
def oracle_hosts(draw):
    """`hosts` with n <= 10 whose edges all carry Ising activities (beta
    in [-1, 1]), all spin tables (entries in the unit disk), or a mix,
    drawn from a seed so that each kind is as likely."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    kind = rng.choice(["ising", "table", "mixed"])

    def activity(draw, k):
        if kind == "ising" or kind == "mixed" and rng.random() < 0.5:
            return IsingActivity(rng.uniform(-1, 1))
        return TableActivity((1 + 0j,) + tuple(
            _unit_disk(rng) for _ in range((1 << k) - 1)))

    return draw(hosts(10, activity))


@settings(derandomize=True, deadline=None)
@given(g=oracle_hosts(), seed=st.integers(0, 2 ** 32 - 1))
@example(g=edgeless(0), seed=0)
def test_transfer_matrix_matches_brute_force(g, seed):
    # every weight and activity lies in the unit disk and c_0 = 1, so the
    # sums are of terms no larger than the largest coefficient
    rng = random.Random(seed)
    lams = [_unit_disk(rng) for _ in range(g.n)]
    want = np.array(brute_coefficients(g))
    ising = all(isinstance(e.activity, IsingActivity) for e in g.edges)
    if ising:
        want_multi = sum(brute_coefficients(g, lams))
    # at the default budget and at one that splits most states
    for bits in (oracle._BLOCK_BITS, _four_row_budget(16 * (g.n + 1))):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_BLOCK_BITS", bits)
            got = exact_coefficients(g)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            if ising:
                got_multi = exact_multivariate(g, lams)
                assert abs(got_multi - want_multi) <= 1e-12 * max(
                    1.0, abs(want_multi))


def _route(caplog, g) -> tuple[np.ndarray, str]:
    with caplog.at_level(logging.INFO, logger="hyperising.oracle"):
        hist = cut_histogram(g)
    (message,) = caplog.messages
    caplog.clear()
    return hist, message


@pytest.mark.parametrize("n", range(8, 13))
def test_complete_graphs_take_the_blocked_pass(caplog, n):
    # the frontier of K_n grows to n - 1, so the transfer matrix would
    # visit more cells than the 2^n pass
    g = complete_graph(n)
    hist, message = _route(caplog, g)
    assert message.startswith("cut histogram: blocked pass")
    assert hist.tolist() == brute_cut_histogram(g)


@pytest.mark.parametrize("seed", [0, 1])
def test_cubic_hosts_take_the_transfer_matrix(caplog, seed):
    g = random_regular_graph(random.Random(seed), 18, 3, 0.5)
    hist, message = _route(caplog, g)
    assert message.startswith("cut histogram: transfer matrix")
    assert hist.tolist() == brute_cut_histogram(g)


def _peak_bytes(fn, *args) -> int:
    fn(*args)  # warm-up, so one-off allocations stay out of the peak
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_histogram_memory_stays_within_the_blocked_pass():
    # K_16 takes the blocked pass itself: choosing the route adds nothing
    # to its peak
    k16 = complete_graph(16)
    assert _peak_bytes(cut_histogram, k16) <= _peak_bytes(
        oracle._blocked_histogram, k16)
    # the blocked pass over this 24-vertex cubic host peaks at 27 271 544
    # bytes (2^20-entry int64 blocks); the transfer matrix's states are
    # bounded by 2^_BLOCK_BITS cells as well
    g = random_regular_graph(random.Random(1), 24, 3, 0.5)
    assert _peak_bytes(cut_histogram, g) <= 27_271_544


def test_coefficient_memory_stays_within_the_budget(monkeypatch):
    # frontier width 6: the states stay far below the budget
    g = random_regular_graph(random.Random(1), 24, 3, 0.5)
    assert _peak_bytes(exact_coefficients, g) <= 1 << 20
    # K_12 peaks at 1 527 384 bytes unsplit, its widest state 2^12 rows of
    # 13 complex cells; a budget of 2^12 int64-sized cells splits it
    monkeypatch.setattr(oracle, "_BLOCK_BITS", 12)
    assert _peak_bytes(exact_coefficients, complete_graph(12)) <= 1 << 19


def test_low_budget_splits_and_logs(caplog, monkeypatch):
    g = random_connected_hypergraph(random.Random(4), 9, 4, 4,
                                    activity="mixed")
    want = exact_coefficients(g)
    monkeypatch.setattr(oracle, "_BLOCK_BITS", 2)
    with caplog.at_level(logging.INFO, logger="hyperising.oracle"):
        got = exact_coefficients(g)
    (message,) = caplog.messages
    splits = re.fullmatch(r"exact coefficients: transfer matrix, frontier"
                          r" width \d+, \d+ cells, (\d+) splits", message)
    assert int(splits[1]) > 0
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_parity_above_the_default_cap():
    # the 50-vertex cubic host of the `regular` benchmark workload: the
    # estimator's power sums against those of the exact coefficients
    g = random_regular_graph(random.Random(50), 50, 3, 0.2)
    c = exact_coefficients(g, cap=50)
    want = extend_power_sums([], [(-1) ** i * c[i] for i in range(1, 51)], 7)
    got = PartitionEstimator(g).power_sums_up_to(7)
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_histogram_matches_coefficients_above_the_default_cap():
    g = random_regular_graph(random.Random(50), 50, 3, 0.5)
    got = uniform_beta_coefficients(cut_histogram(g, cap=50), 0.5)
    want = exact_coefficients(with_uniform_beta(g, 0.5), cap=50)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_frontier_past_62_refused_before_any_work():
    # K_64's frontier holds 63 vertices when the last one joins: row ids
    # of 64 bits, past the 63 of a non-negative int64
    with pytest.raises(OracleCapError, match="frontier width 63"):
        exact_coefficients(complete_graph(64), cap=64)


def test_histogram_counts_refused_past_int64():
    # C(66, 33) < 2^63 <= C(67, 33): the counts of 66 vertices still fit
    hist = cut_histogram(edgeless(66), cap=66)
    assert hist[:, 0].tolist() == [math.comb(66, i) for i in range(67)]
    with pytest.raises(OracleCapError, match="int64"):
        cut_histogram(edgeless(67), cap=100)


def test_beta_grid_matches_each_beta_alone():
    hist = cut_histogram(random_regular_graph(random.Random(7), 18, 3, 0.5))
    betas = np.linspace(-1, 1, 21)
    grid = uniform_beta_coefficients(hist, betas)
    assert grid.shape == (21, 19)
    for beta, row in zip(betas, grid):
        assert np.array_equal(row, uniform_beta_coefficients(hist, beta))


def test_disjoint_union_coefficients_convolve():
    g1 = triangle(0.4)
    g2 = single_edge(3, 0.2)
    got = exact_coefficients(disjoint_union(g1, g2))
    want = np.convolve(exact_coefficients(g1), exact_coefficients(g2))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_multivariate_specializes_to_univariate():
    g = triangle(0.45)
    lam = 0.37 - 0.2j
    assert cmath.isclose(exact_multivariate(g, [lam] * 3),
                         exact_partition(g, lam))


def test_multivariate_k2_closed_form():
    beta = 0.6
    g = k2(beta)
    l1, l2 = 0.3 + 0.1j, -1.2
    want = l1 * l2 + beta * l1 + beta * l2 + 1
    assert cmath.isclose(exact_multivariate(g, [l1, l2]), want)


def test_multivariate_inversion_identity():
    rng = random.Random(5)
    g = random_connected_hypergraph(rng, 7, 4, 4, activity="in-range")
    lams = [cmath.exp(complex(rng.uniform(-0.4, 0.4),
                              rng.uniform(-3, 3))) for _ in range(7)]
    lhs = exact_multivariate(g, lams)
    rhs = math.prod(lams) * exact_multivariate(g, [1 / x for x in lams])
    assert cmath.isclose(lhs, rhs, rel_tol=1e-9)


def test_multivariate_rejects_tables():
    g = random_connected_hypergraph(random.Random(0), 4, 4, 3,
                                    activity="table")
    with pytest.raises(SchemaError):
        exact_multivariate(g, [0.5] * 4)


def test_vertex_cap():
    with pytest.raises(OracleCapError):
        exact_partition(edgeless(25), 0.5)
    assert exact_partition(edgeless(25), 0.5, cap=25)


def test_quadratic_roots_closed_form():
    roots = sorted(polynomial_roots([1, 1, 1]), key=lambda z: z.imag)
    want = [complex(-0.5, -math.sqrt(3) / 2), complex(-0.5, math.sqrt(3) / 2)]
    np.testing.assert_allclose(roots, want, atol=1e-12)
    assert all(abs(abs(r) - 1) < 1e-12 for r in roots)


def test_cubic_with_double_root():
    roots = polynomial_roots([1, -1, -1, 1])
    ordered = sorted(roots, key=lambda z: z.real)
    np.testing.assert_allclose(ordered, [-1, 1, 1], atol=1e-6)


def test_triple_root_cluster():
    roots = polynomial_roots([1, 3, 3, 1], tol=1e-6)
    np.testing.assert_allclose(roots, [-1, -1, -1], atol=1e-4)


def test_root_ordering_is_deterministic():
    c = exact_coefficients(path_graph(9, 0.3))
    r1 = polynomial_roots(c)
    r2 = polynomial_roots(c)
    np.testing.assert_array_equal(r1, r2)
    keys = [(abs(z), cmath.phase(z)) for z in r1]
    assert keys == sorted(keys)


def test_trailing_coefficient_strip():
    # only exact-zero leading coefficients lower the degree: a tiny one
    # keeps its huge root, whose backward error is as small as the other's
    roots = polynomial_roots([1, 1, 0])
    assert len(roots) == 1
    np.testing.assert_allclose(roots, [-1], atol=1e-12)
    roots = polynomial_roots([1, 1, 1e-15])
    assert len(roots) == 2
    np.testing.assert_allclose(roots, [-1, -1e15], rtol=1e-12)


def test_subnormal_leading_coefficient_refused(caplog):
    # 1 / 1e-320 overflows the companion matrix: that row is refused on
    # its own, without a numpy warning (which would fail this test), and
    # the rows stacked with it still share one eigenvalue call
    for rows in ([1, 1, 1e-320], [[1, 2, 1], [1, 1, 1e-320], [2, 1, 3]]):
        with (pytest.raises(RootConvergenceError,
                            match="overflows the companion matrix"),
              caplog.at_level(logging.INFO, logger="hyperising.oracle")):
            polynomial_roots(rows)
    assert "3 rows, degrees 2, 1 eigenvalue calls" in caplog.messages[-1]


@pytest.mark.parametrize("beta", [100, 1000])
def test_large_beta_rows_keep_every_root(beta):
    # max |c_i| = 4.0e20 and 4.0e30 against c_8 = c_0 = 1 on this 8-vertex
    # cubic host: the row keeps its degree, and each root's backward error
    # stays near rounding, so the palindromic row gives 8 roots, 1/r a
    # root with each root r
    hist = cut_histogram(random_regular_graph(random.Random(0), 8, 3, 0.5))
    roots = polynomial_roots(uniform_beta_coefficients(hist, beta))
    assert len(roots) == 8
    gaps = np.abs(1 / roots[:, None] - roots[None, :]).min(axis=1)
    assert np.all(gaps <= 1e-8 / np.abs(roots))


def test_zero_polynomial_rejected():
    with pytest.raises(SchemaError):
        polynomial_roots([0, 0])
    with pytest.raises(SchemaError):
        polynomial_roots([])


def _zeros_or_error(c):
    try:
        return oracle.coefficient_zeros(c)
    except HyperIsingError as exc:
        return type(exc), str(exc)


def assert_stack_matches_rows(rows):
    """One stacked call gives each row's own report bit for bit, or the
    error of the first row that fails alone; every root it returns has a
    backward error |c(r)| / sum |c_i| |r|^i within the tolerance."""
    rows = np.asarray(rows, dtype=np.complex128)
    alone = [_zeros_or_error(row) for row in rows]
    stacked = _zeros_or_error(rows)
    failed = [rep for rep in alone if isinstance(rep, tuple)]
    if failed:
        assert stacked == failed[0]
        return
    assert len(stacked) == len(rows)
    for row, a, b in zip(rows, alone, stacked):
        assert np.array_equal(b.coefficients, row)
        assert a.roots.tobytes() == b.roots.tobytes()
        assert a.residuals.tobytes() == b.residuals.tobytes()
        assert a.max_circle_deviation == b.max_circle_deviation
        weights = np.abs(row) @ np.abs(b.roots) ** np.arange(len(row))[:, None]
        assert np.all((b.residuals <= oracle.DEFAULT_RESIDUAL_TOL * weights)
                      | (b.roots == 0))
    roots = polynomial_roots(rows)
    assert [r.tobytes() for r in roots] == [r.roots.tobytes() for r in stacked]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 20),
       kind=st.sampled_from(["real", "complex", "self-inversive"]),
       shapes=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       min_size=1, max_size=8))
def test_stacked_roots_match_row_by_row(seed, d, kind, shapes):
    # each row (zero leading terms, zero low terms) may take its own
    # degree and count of zero roots, and so its own eigenvalue call
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(len(shapes), d + 1)).astype(complex)
    if kind != "real":
        rows += 1j * rng.normal(size=rows.shape)
    if kind == "self-inversive":
        rows = 0.5 * (rows + rows[:, ::-1].conj())
    for row, (stripped, low) in zip(rows, shapes):
        row[d + 1 - min(stripped, d):] = 0
        row[:min(low, d)] = 0
    assert_stack_matches_rows(rows)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(seed=st.integers(0, 2 ** 31 - 1),
       betas=st.lists(st.floats(-0.5, 0.99), min_size=1, max_size=21))
@example(seed=534029409, betas=[0.9])
@example(seed=534029409, betas=list(np.linspace(-0.5, 0.99, 21)) + [0.9])
def test_stacked_beta_grid_matches_row_by_row(seed, betas):
    # `sweep`'s rows: 18-vertex cubic hosts, in range up to beta = 0.99,
    # where the zeros crowd near lambda = -1
    hist = cut_histogram(random_regular_graph(random.Random(seed), 18, 3, 0.5))
    assert_stack_matches_rows(uniform_beta_coefficients(hist, np.array(betas)))


def test_stacked_errors_follow_row_order():
    # the first failing row's error, whatever the rows after it raise;
    # 1 + 1e200 z + 1e-100 z^2 has a root near -1e300, where Horner's
    # scheme overflows, so its backward error reads NaN
    huge, good, zero = np.zeros(21), np.zeros(21), np.zeros(21)
    huge[:3] = 1, 1e200, 1e-100
    good[[0, 2]] = 1
    overflow = good.copy()
    overflow[1] = math.inf
    with pytest.raises(SchemaError, match="zero polynomial"):
        polynomial_roots([good, zero, huge])
    with pytest.raises(RootConvergenceError, match="root residual nan"):
        polynomial_roots([good, huge, zero])
    with pytest.raises(RootConvergenceError, match="not finite"):
        polynomial_roots([good, overflow, huge])
    assert polynomial_roots(np.zeros((0, 3))) == []


def test_root_stage_logs_one_line_per_call(caplog):
    # the first and last rows share a degree and so an eigenvalue call
    rows = [[1, 2, 1], [1, 1, 0], [0, 1, 1], [2, 1, 3]]
    with caplog.at_level(logging.INFO, logger="hyperising.oracle"):
        roots, resid = polynomial_roots(rows, residuals=True)
    (message,) = caplog.messages
    assert re.fullmatch(r"roots: 4 rows, degrees 1/2, 3 eigenvalue calls,"
                        r" worst relative residual \d\.\d{3}e[-+]\d+", message)
    assert [len(r) for r in roots] == [len(r) for r in resid] == [2, 1, 2, 2]
    assert roots[2].tolist() == [0, -1]


def test_stacked_calls_split_at_the_cell_budget(caplog, monkeypatch):
    # a grid of any length holds at most 2^_BLOCK_BITS companion cells at
    # once: 5 quadratics at 4 cells each take 3 calls under a 8-cell budget
    rows = np.array([[1, 0.5 * k, 1] for k in range(5)], dtype=complex)
    whole = polynomial_roots(rows)
    monkeypatch.setattr(oracle, "_BLOCK_BITS", 3)
    with caplog.at_level(logging.INFO, logger="hyperising.oracle"):
        split = polynomial_roots(rows)
    assert "5 rows, degrees 2, 3 eigenvalue calls" in caplog.messages[0]
    assert [r.tobytes() for r in split] == [r.tobytes() for r in whole]


def test_roots_refuse_a_three_dimensional_stack():
    with pytest.raises(SchemaError, match="one coefficient row or a stack"):
        polynomial_roots(np.ones((2, 2, 3)))


def test_zero_report_contract():
    g = path_graph(8, 0.45)
    rep = zero_report(g, residual_tol=1e-8)
    assert len(rep.roots) == 8
    scale = np.max(np.abs(rep.coefficients))
    assert np.all(rep.residuals <= 1e-8 * scale)
    assert rep.max_circle_deviation == pytest.approx(
        float(np.max(np.abs(np.abs(rep.roots) - 1))))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(n=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1),
       activity=st.sampled_from(["table", "mixed"]))
def test_zero_report_symmetrises_self_inversive_tables(n, seed, activity):
    # symmetric tables give c_{n-i} = conj(c_i); the report's coefficients
    # hold it exactly and stay within rounding of the oracle's
    g = random_connected_hypergraph(random.Random(seed), n, 4, 4,
                                    activity=activity)
    rep = zero_report(g, residual_tol=1e-8)
    c = rep.coefficients
    assert all(c[n - i] == c[i].conjugate() for i in range(n + 1))
    exact = exact_coefficients(g)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(c - exact)) <= 1e-12 * scale
    assert len(rep.roots) == n
    assert np.all(rep.residuals <= 1e-8 * np.max(np.abs(c)))
