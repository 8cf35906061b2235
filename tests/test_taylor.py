import cmath
import gc
import math
import random
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperising import (
    HyperIsingError,
    OrderCapError,
    PartitionEstimator,
    TableActivity,
    UnitCircleError,
    compute_coefficient_tables,
    elementary_to_coefficients,
    exact_coefficients,
    exact_partition,
    power_sums,
    power_sums_to_elementary,
    truncated_log_partition,
    truncation_bound,
    truncation_order,
)
from hyperising import Hyperedge, Hypergraph, coefficients, subgraphs, taylor
from hyperising.instances import random_connected_hypergraph, random_regular_graph
from hyperising.oracle import polyval

from conftest import LAMBDA_GRID, edgeless, k2, path_graph, rel_err, single_edge


def test_truncation_order_examples():
    assert truncation_order(10, 0.1, 0.5) == 10
    assert truncation_order(50, 0.5, 0.2) == 4


def test_truncation_order_shrinks_with_small_lambda():
    orders = [truncation_order(10, 0.1, a) for a in (0.9, 0.5, 0.2, 0.05, 1e-4)]
    assert orders == sorted(orders, reverse=True)
    assert orders[-1] == 1


def test_truncation_order_rejects_bad_arguments():
    with pytest.raises(ValueError):
        truncation_order(5, 0.1, 1.0)
    with pytest.raises(ValueError):
        truncation_order(5, 0.0, 0.5)
    with pytest.raises(ValueError):
        truncation_order(5, 1.5, 0.5)


def test_truncated_log_k2_example():
    # beta = 0.5 power sums are (-1, -1); at lam = 0.3, m = 2 the value is
    # -((-1)(0.3) + (-1)(0.045)) = 0.345
    got = truncated_log_partition([-1, -1], 0.3, 2)
    assert got == pytest.approx(0.345)
    exact = cmath.log(exact_partition(k2(0.5), 0.3))
    assert abs(got - exact) < 0.02


def test_truncated_log_at_zero():
    assert truncated_log_partition([-1, -1, -1], 0.0, 3) == 0


def test_truncated_log_edgeless_is_binomial_log_series():
    n = 4
    p = [n * (-1) ** t for t in range(1, 9)]
    lam = 0.35
    got = truncated_log_partition(p, lam, 8)
    series = n * sum((-1) ** (j + 1) * lam ** j / j for j in range(1, 9))
    assert got == pytest.approx(series)
    assert abs(got - n * math.log(1 + lam)) < 1e-3


def log_series_from_coefficients(c, lam: complex, m: int) -> complex:
    """Truncated log Z recovered from the polynomial coefficients alone.

    Writing log Z = sum_j g_j lam^j, differentiating Z = exp(log Z) gives
    the triangular system c_j = sum_{i=0}^{j-1} ((j-i)/j) c_i g_{j-i},
    solved forward for g_1..g_m. Agrees with truncated_log_partition term
    by term: the reference the power-sum path is checked against.
    """
    if len(c) < 1 or c[0] != 1:
        raise ValueError("coefficient prefix must start with c_0 = 1")
    cs = [complex(x) for x in c] + [0.0 + 0.0j] * max(0, m + 1 - len(c))
    g: list[complex] = []
    for j in range(1, m + 1):
        acc = cs[j]
        for i in range(1, j):
            acc -= ((j - i) / j) * cs[i] * g[j - i - 1]
        g.append(acc)
    acc = 0.0 + 0.0j
    power = 1.0 + 0.0j
    for j in range(1, m + 1):
        power *= lam
        acc += g[j - 1] * power
    return acc


def test_log_series_from_coefficients_first_order():
    c = exact_coefficients(k2(0.5))
    assert log_series_from_coefficients(c, 0.2, 1) == pytest.approx(c[1] * 0.2)


def test_log_series_matches_power_sum_form():
    rng = random.Random(17)
    for _ in range(8):
        n = rng.randint(2, 10)
        g = random_connected_hypergraph(rng, n, 4, 4, activity="mixed")
        est = PartitionEstimator(g)
        p = est.power_sums_up_to(n)
        c = exact_coefficients(g)
        lam = 0.4 * cmath.exp(2j * math.pi * rng.random())
        for m in (1, 2, n):
            a = truncated_log_partition(p, lam, m)
            b = log_series_from_coefficients(c, lam, m)
            assert abs(a - b) <= 1e-9 * max(abs(a), 1e-12)


def test_log_series_requires_unit_constant():
    with pytest.raises(ValueError):
        log_series_from_coefficients([2.0, 1.0], 0.1, 1)


def test_log_series_frozen_expansion():
    # log(1 + x + x^2) = x + x^2/2 - 2x^3/3 + x^4/4 + ... by series
    # composition; the triangular solve must reproduce these terms.
    series = [1.0, 0.5, -2 / 3, 0.25]
    lam = 0.21
    want = sum(gj * lam ** j for j, gj in enumerate(series, start=1))
    got = log_series_from_coefficients([1, 1, 1], lam, 4)
    assert got == pytest.approx(want, abs=1e-12)


def test_approximate_k2_within_tolerance():
    ap = PartitionEstimator(k2(0.5)).approximate(0.3, 0.01)
    assert rel_err(ap.value, 1.39) <= 0.01
    assert ap.guaranteed and not ap.inverted
    assert ap.bound <= 0.01 / 4


def test_approximate_inverted_argument():
    lam = 10 / 3
    ap = PartitionEstimator(k2(0.5)).approximate(lam, 0.01)
    assert ap.inverted
    assert ap.lam_effective == pytest.approx(0.3)
    exact = exact_partition(k2(0.5), lam)
    assert rel_err(ap.value, exact) <= 0.01
    assert abs(exact - lam ** 2 * 1.39) < 1e-9


def test_unit_circle_is_refused():
    with pytest.raises(UnitCircleError):
        PartitionEstimator(k2(0.5)).approximate(1.0, 0.1)
    with pytest.raises(UnitCircleError):
        PartitionEstimator(k2(0.5)).approximate(cmath.exp(0.7j), 0.1)
    with pytest.raises(UnitCircleError):
        PartitionEstimator(k2(0.5)).approximate(1.0 + 1e-13, 0.1)


def test_epsilon_domain():
    with pytest.raises(ValueError):
        PartitionEstimator(k2(0.5)).approximate(0.3, 0.0)
    with pytest.raises(ValueError):
        PartitionEstimator(k2(0.5)).approximate(0.3, 1.0)


def test_order_cap_refusal_mentions_order():
    g = path_graph(30, 0.5)
    with pytest.raises(OrderCapError, match=r"\d+"):
        PartitionEstimator(g, order_cap=24).approximate(0.9, 0.01)


def test_lambda_zero_short_circuit():
    ap = PartitionEstimator(k2(0.5)).approximate(0.0, 0.1)
    assert ap.value == 1.0 and ap.log_estimate == 0.0 and ap.bound == 0.0


def test_bound_below_quarter_epsilon():
    rng = random.Random(29)
    for _ in range(10):
        n = rng.randint(2, 40)
        eps = rng.choice([0.1, 0.01, 0.5])
        a = rng.uniform(0.05, 0.95)
        m = truncation_order(n, eps, a)
        assert truncation_bound(n, a, m) <= eps / 4


def test_end_to_end_accuracy_small_suite():
    rng = random.Random(31)
    for _ in range(6):
        n = rng.randint(3, 10)
        g = random_connected_hypergraph(rng, n, 4, 4, activity="in-range")
        est = PartitionEstimator(g)
        for lam in LAMBDA_GRID:
            for eps in (0.1, 0.01):
                ap = est.approximate(lam, eps)
                exact = exact_partition(g, lam)
                assert rel_err(ap.value, exact) <= eps
                assert ap.guaranteed


def test_symmetric_tables_invert():
    rng = random.Random(37)
    g = random_connected_hypergraph(rng, 6, 4, 3, activity="table")
    lam = 2.2
    ap = PartitionEstimator(g).approximate(lam, 0.05)
    exact = exact_partition(g, lam)
    assert rel_err(ap.value, exact) <= 0.05


def test_inversion_consistency_relation():
    g = path_graph(6, 0.45)
    lam = 0.4
    inner = PartitionEstimator(g).approximate(lam, 0.01)
    outer = PartitionEstimator(g).approximate(1 / lam, 0.01)
    want = (1 / lam) ** g.n * inner.value
    assert abs(outer.value - want) <= 1e-9 * abs(outer.value)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(n=st.integers(4, 8), seed=st.integers(0, 2 ** 32 - 1),
       activity=st.sampled_from(["table", "mixed"]),
       near=st.floats(1.01, 1.5), far=st.floats(20, 100),
       theta=st.floats(0, 2 * math.pi), eps=st.sampled_from([0.1, 0.01]))
def test_inverted_estimates_match_oracle(n, seed, activity, near, far, theta,
                                         eps):
    # |lam| > 1 on both paths, from the conjugates of the host's own sums
    g = random_connected_hypergraph(random.Random(seed), n, 4, 4,
                                    activity=activity)
    est = PartitionEstimator(g)
    for r, path in ((near, "polynomial"), (far, "series")):
        lam = cmath.rect(r, theta)
        ap = est.approximate(lam, eps)
        assert ap.inverted and ap.evaluation == path and ap.guaranteed
        assert rel_err(ap.value, exact_partition(g, lam)) <= eps


def test_non_finite_lambda_refused():
    est = PartitionEstimator(k2(0.5))
    for lam in (math.inf, complex(0.0, -math.inf), math.nan):
        with pytest.raises(ValueError, match="finite"):
            est.approximate(lam, 0.1)


def test_asymmetric_table_rejected_when_inverting():
    asym = TableActivity((1, 0.5 + 0.25j, 0.5 + 0.25j, 1))
    g = Hypergraph(2, (Hyperedge((0, 1), asym),))
    with pytest.raises(ValueError):
        PartitionEstimator(g).approximate(2.0, 0.1)
    # inside the disk the same instance is accepted (best effort)
    ap = PartitionEstimator(g).approximate(0.3, 0.1)
    assert not ap.guaranteed


def test_out_of_range_instance_downgrades_guarantee():
    g = single_edge(3, -0.6)  # below the admissible interval
    ap = PartitionEstimator(g).approximate(0.2, 0.1)
    assert not ap.guaranteed
    assert cmath.isfinite(ap.value)


def test_zero_inside_disk_is_returned():
    # beta = 1.25 is out of range: Z = (1 + 2 lam)(1 + lam / 2) vanishes
    # at lam = -1/2, where the polynomial path lands exactly on the zero
    ap = PartitionEstimator(k2(1.25)).approximate(-0.5, 0.1)
    assert not ap.guaranteed and ap.evaluation == "polynomial"
    assert ap.value == 0 and ap.log_estimate.real == -math.inf


def _count_builds(mp) -> list[int]:
    """Record, through the MonkeyPatch mp, the depth of every table build
    the estimator makes."""
    builds = []
    real = taylor.compute_coefficient_tables

    def counting(*args, **kwargs):
        builds.append(args[1])
        return real(*args, **kwargs)

    mp.setattr(taylor, "compute_coefficient_tables", counting)
    return builds


def test_estimator_reuses_tables_across_arguments():
    g = path_graph(8, 0.3)
    est = PartitionEstimator(g)
    est.approximate(0.5, 0.1)
    state = est._state
    est.approximate(0.6, 0.1)
    assert est._state is state  # deeper order not required -> no rebuild


def test_reentrant_call_sees_one_snapshot(monkeypatch):
    # a call that runs while a deeper table is being built must not pair
    # the new tables with the old power sums: that would extend the
    # depth-3 sums by Newton as if they covered the whole host
    g = random_connected_hypergraph(random.Random(3), 8, 4, 4)
    want = PartitionEstimator(g).power_sums_up_to(6)
    est = PartitionEstimator(g)
    est.power_sums_up_to(3)
    inner = []
    real = taylor.power_sums

    def reentering(ctable, *args):
        if not inner:
            inner.append(None)
            inner[0] = est.power_sums_up_to(6)
        return real(ctable, *args)

    monkeypatch.setattr(taylor, "power_sums", reentering)
    outer = est.power_sums_up_to(6)
    for got in (inner[0], outer):
        assert len(got) == 6
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_empty_host():
    est = PartitionEstimator(edgeless(0))
    assert est.approximate(0.5, 0.1).value == 1.0
    assert est.approximate(-2 + 1j, 0.1).value == 1.0
    assert est.power_sums_up_to(3) == [0j] * 3
    assert est.elementary() == []


@pytest.mark.parametrize("g", [
    path_graph(4, 1e154),
    random_regular_graph(random.Random(0), 6, 3, 1e40)])
def test_overflowing_power_sums_refused(g):
    # on the path the table values are finite and their exact sums
    # overflow; on the cubic host the values pass the range from order 3
    # on. Either way the build is refused once, without a numpy warning
    est = PartitionEstimator(g)
    for call in (lambda: est.power_sums_up_to(4),
                 lambda: est.approximate(0.5, 0.1)):
        with pytest.raises(HyperIsingError, match="power sums to order"):
            call()


def test_series_path_below_host_size():
    g = path_graph(30, 0.5)
    est = PartitionEstimator(g)
    ap = est.approximate(0.3, 0.1)
    assert ap.evaluation == "series" and ap.order < g.n
    p = est.power_sums_up_to(ap.order)
    assert ap.log_estimate == truncated_log_partition(p, 0.3, ap.order)


@pytest.mark.parametrize("lam", [0.9999999, 1 / 0.9999999])
def test_saturated_order_does_bounded_work(lam):
    # m is about 2.3e8 here; summing that many series terms does not finish
    start = time.perf_counter()
    ap = PartitionEstimator(k2(0.5)).approximate(lam, 0.01)
    assert time.perf_counter() - start < 1.0
    assert ap.evaluation == "polynomial"
    assert ap.order > 10 ** 8 and ap.bound <= 0.01 / 4
    assert rel_err(ap.value, exact_partition(k2(0.5), lam)) <= 0.01
    inner = ap.value / lam ** 2 if ap.inverted else ap.value
    assert cmath.exp(ap.log_estimate) == pytest.approx(inner)


def _exact_chain_partition(n: int, beta: float, lam: float) -> Fraction:
    """Z of the n-vertex Ising chain in exact rational arithmetic, from the
    exact binary values of the float arguments."""
    b, x = Fraction(beta), Fraction(lam)
    total = Fraction(0)
    for s in range(1 << n):
        cut = sum((s >> i & 1) != (s >> (i + 1) & 1) for i in range(n - 1))
        total += b ** cut * x ** bin(s).count("1")
    return total


@pytest.mark.parametrize("lam", [-0.999, -0.9999])
def test_clustered_zeros_against_rational_sum(lam):
    # at beta near 1 the zeros crowd around lambda = -1
    g = path_graph(8, 0.999)
    exact = float(_exact_chain_partition(8, 0.999, lam))
    for eps in (0.1, 0.01):
        ap = PartitionEstimator(g).approximate(lam, eps)
        assert ap.evaluation == "polynomial" and ap.guaranteed
        assert rel_err(ap.value, exact) <= eps


@settings(derandomize=True, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2 ** 32 - 1),
       activity=st.sampled_from(["in-range", "mixed"]),
       r=st.floats(0.9, 0.9999), theta=st.floats(0, 2 * math.pi),
       eps=st.sampled_from([0.1, 0.01]))
def test_guaranteed_estimates_match_oracle_near_circle(n, seed, activity, r,
                                                        theta, eps):
    g = random_connected_hypergraph(random.Random(seed), n, 4, 4,
                                    activity=activity)
    est = PartitionEstimator(g)
    lam = cmath.rect(r, theta)
    for arg in (lam, 1 / lam):
        ap = est.approximate(arg, eps)
        if ap.guaranteed:
            assert rel_err(ap.value, exact_partition(g, arg)) <= eps


def _direct(g, depth):
    """p and e from one table build to `depth`, with no mirror."""
    p = power_sums(compute_coefficient_tables(g, depth))
    return p, power_sums_to_elementary(p)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(n=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1),
       activity=st.sampled_from(["in-range", "table", "mixed"]))
def test_symmetric_host_mirrors_half_depth_tables(n, seed, activity):
    g = random_connected_hypergraph(random.Random(seed), n, 4, 4,
                                    activity=activity)
    assert g.all_symmetric()
    with pytest.MonkeyPatch.context() as mp:
        builds = _count_builds(mp)
        est = PartitionEstimator(g)
        p = est.power_sums_up_to(n)
    e = est.elementary()
    assert builds == [n // 2]
    p_direct, e_direct = _direct(g, n)
    for got, want in zip((p, e), (p_direct, e_direct)):
        assert len(got) == n
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
    exact = exact_coefficients(g)
    for a, b in zip(elementary_to_coefficients(e), exact):
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def _asymmetric_host():
    g = random_connected_hypergraph(random.Random(41), 9, 4, 4,
                                    activity="mixed")
    first = g.edges[0]
    values = list(first.activity.table(first.size))
    values[1] += 0.05 + 0.02j
    return Hypergraph(g.n, (Hyperedge(first.vertices, TableActivity(
        tuple(values))),) + g.edges[1:])


def test_asymmetric_host_builds_full_depth_unchanged(monkeypatch):
    g = _asymmetric_host()
    assert not g.all_symmetric()
    builds = _count_builds(monkeypatch)
    est = PartitionEstimator(g)
    p = est.power_sums_up_to(g.n)
    assert builds == [g.n]
    assert (p, est.elementary()) == _direct(g, g.n)


@pytest.mark.parametrize("g", [
    edgeless(0),
    k2(0.5),
    random_regular_graph(random.Random(3), 8, 3, 0.4),
    random_connected_hypergraph(random.Random(37), 8, 4, 3, activity="table"),
    _asymmetric_host(),
], ids=["empty", "k2", "cubic", "complex-table", "asymmetric"])
def test_polynomial_path_is_polyval_of_its_coefficients(g):
    # the estimator evaluates Z with the oracle's own Horner, on the
    # coefficients it completed, bit for bit
    lams = [0.9, 0.95 * cmath.exp(0.7j), -0.99]
    if g.all_symmetric():
        lams += [1 / 0.9, cmath.rect(1.05, 2.1), -1 / 0.99]
    est = PartitionEstimator(g)
    for lam in map(complex, lams):
        ap = est.approximate(lam, 0.01)
        assert ap.evaluation == "polynomial" and ap.inverted == (abs(lam) > 1)
        c = elementary_to_coefficients(est.elementary())
        assert len(c) == g.n + 1
        if ap.inverted:
            want = complex(polyval(taylor._conj(c), 1 / lam)) * lam ** g.n
        else:
            want = complex(polyval(c, lam))
        assert repr(ap.value) == repr(want)
        assert g.n or ap.value == 1


def test_symmetric_host_builds_tables_once(monkeypatch):
    # the benchmark's corpus calls on one host: every order past n // 2 is
    # served by the first snapshot that reaches it
    g = random_connected_hypergraph(random.Random(12), 12, 4, 4)
    builds = _count_builds(monkeypatch)
    est = PartitionEstimator(g)
    for lam in (0.3, 0.5 * cmath.exp(1j * math.pi / 3), 0.9, 1.5):
        for eps in (0.1, 0.01):
            est.approximate(lam, eps)
    est.power_sums_up_to(g.n)
    assert builds == [6]

    # a complex-table host answers |lam| > 1 from the conjugates of its
    # own sums, so both sides of the circle share one build
    g = random_connected_hypergraph(random.Random(37), 8, 4, 3,
                                    activity="table")
    assert any(c.imag for c in exact_coefficients(g))
    builds.clear()
    est = PartitionEstimator(g)
    for lam in (0.3, 0.9, 1.5, 1 / 0.3):
        for eps in (0.1, 0.01):
            ap = est.approximate(lam, eps)
            assert rel_err(ap.value, exact_partition(g, lam)) <= eps
    assert builds == [4]


def test_twenty_vertex_polynomial_path_answers(monkeypatch):
    # m = 411 >= n: tables to depth 10 and the mirror give every
    # coefficient, where a depth-20 build did not finish within 30 s
    g = random_regular_graph(random.Random(1), 20, 3, 0.2)
    builds = _count_builds(monkeypatch)
    est = PartitionEstimator(g)
    ap = est.approximate(0.97, 0.01)
    assert ap.evaluation == "polynomial" and ap.guaranteed
    assert builds == [10]
    assert rel_err(ap.value, exact_partition(g, 0.97)) <= 0.01


def test_one_build_makes_the_edge_arrays_once(monkeypatch):
    # the tables read the arrays the enumeration built with the family
    calls = []
    real = subgraphs._edge_arrays

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(subgraphs, "_edge_arrays", counted)
    monkeypatch.setattr(coefficients, "_edge_arrays", counted, raising=False)
    g = random_regular_graph(random.Random(1), 10, 3, 0.3)
    PartitionEstimator(g).power_sums_up_to(5)
    assert calls == [g]


@pytest.mark.parametrize("call", [
    lambda est: est.power_sums_up_to(5),
    lambda est: est.approximate(0.3, 0.1),
    lambda est: est.approximate(0.9, 0.1),
], ids=["power-sums", "series", "polynomial"])
def test_estimator_keeps_no_tables(monkeypatch, call):
    # the snapshot is p and e: the tables and the family they were built
    # from are dropped once their power sums are read
    refs = []
    real = taylor.compute_coefficient_tables

    def watched(*args, **kwargs):
        ctable = real(*args, **kwargs)
        refs.extend((weakref.ref(kwargs["fam"]), weakref.ref(ctable)))
        return ctable

    monkeypatch.setattr(taylor, "compute_coefficient_tables", watched)
    est = PartitionEstimator(path_graph(12, 0.5))
    call(est)
    gc.collect()
    assert len(refs) == 2 and all(ref() is None for ref in refs)
    assert len(est.elementary()) >= 5


def test_series_helpers_refuse_what_they_cannot_bound():
    with pytest.raises(ValueError, match=r"bound requires \|lambda\| < 1"):
        truncation_bound(8, 1.0, 3)
    with pytest.raises(ValueError,
                       match="need power sums to order 3, got 2"):
        truncated_log_partition([0.1, 0.2], 0.5, 3)
