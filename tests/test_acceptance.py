"""Acceptance suite.

Each criterion is one test that prints a single PASS/FAIL line (visible
with `pytest -s`) and asserts the stated tolerance. The FPTAS sweep
(criteria 1, 2, 7 share its instances) is computed once per session.
"""

import random
import time
from dataclasses import dataclass

import numpy as np
import pytest

from hyperising import (
    PartitionEstimator,
    count_bound,
    disk_product_real_extremes,
    elementary_to_coefficients,
    enumerate_connected,
    exact_coefficients,
    ising_ly_range,
    off_circle_witness,
    polynomial_roots,
    power_sums,
    compute_coefficient_tables,
    suzuki_fisher_check,
    zero_report,
)
from hyperising.instances import random_connected_hypergraph, random_regular_graph
from hyperising.oracle import polyval

from conftest import (
    LAMBDA_GRID,
    brute_connected_sets,
    corpus_n14,
    ising_edge,
    k2,
    label_sets,
    max_coeff_rel_err,
    path_graph,
    rel_err,
    single_edge,
    triangle,
)

EPSILONS = (0.1, 0.01)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{name}]: {status} {detail}")


@dataclass
class FptasRecord:
    n: int
    runs: list  # (lam, eps, approximation, exact value)
    seconds: float
    coeff_rel_err: float


@pytest.fixture(scope="module")
def fptas_records():
    rng = random.Random(20260809)
    records = []
    for _ in range(100):
        n = rng.randint(4, 12)
        g = random_connected_hypergraph(rng, n, 4, 4, activity="in-range")
        # the oracle runs outside the timed span, which is the estimator's;
        # each exact value is exact_partition's Horner sum over these
        coeffs = exact_coefficients(g)
        start = time.perf_counter()
        est = PartitionEstimator(g)
        runs = []
        for lam in LAMBDA_GRID:
            exact = complex(polyval(coeffs, lam))
            for eps in EPSILONS:
                runs.append((lam, eps, est.approximate(lam, eps), exact))
        p = est.power_sums_up_to(n)
        e = est.elementary()
        seconds = time.perf_counter() - start
        c_err = max_coeff_rel_err(elementary_to_coefficients(e), coeffs)
        records.append(FptasRecord(n, runs, seconds, c_err))
    return records


def test_criterion_1_fptas_oracle_equivalence(fptas_records):
    worst = 0.0
    slowest = 0.0
    ok = True
    for rec in fptas_records:
        slowest = max(slowest, rec.seconds)
        for lam, eps, ap, exact in rec.runs:
            err = rel_err(ap.value, exact)
            worst = max(worst, err / eps)
            ok = ok and err <= eps and ap.guaranteed
    ok = ok and slowest < 10.0
    report(1, "fptas oracle equivalence", ok,
           f"(worst err/eps {worst:.2e}, slowest instance {slowest:.2f}s)")
    assert ok


def test_criterion_2_coefficient_equivalence(fptas_records):
    worst = max(rec.coeff_rel_err for rec in fptas_records)
    ok = worst <= 1e-9
    report(2, "coefficient equivalence", ok, f"(max rel err {worst:.2e})")
    assert ok


def test_criterion_3_closed_form_checkpoints():
    ok = True
    for beta in (0.3, 0.5, -0.7):
        ct = compute_coefficient_tables(k2(beta), 2)
        p = power_sums(ct)
        e1 = p[0]
        ok = ok and abs(e1 - (-2 * beta)) < 1e-12
        ok = ok and abs(p[1] - (4 * beta ** 2 - 2)) < 1e-12
    for g in (triangle(1.0), path_graph(5, 1.0), single_edge(4, 1.0)):
        p = power_sums(compute_coefficient_tables(g, g.n))
        for t, pt in enumerate(p, start=1):
            ok = ok and abs(pt - g.n * (-1) ** t) < 1e-9
    roots = sorted(polynomial_roots(exact_coefficients(single_edge(3, -1 / 3))),
                   key=lambda z: z.real)
    ok = ok and np.allclose(roots, [-1, 1, 1], atol=1e-6)
    report(3, "closed-form checkpoints", ok)
    assert ok


def test_criterion_4_circle_suite():
    rng = random.Random(170)
    worst_dev = 0.0
    ok = True
    for _ in range(200):
        n = rng.randint(3, 14)
        g = random_connected_hypergraph(rng, n, 4, 5, activity="in-range")
        rep = zero_report(g, residual_tol=1e-8)
        worst_dev = max(worst_dev, rep.max_circle_deviation)
        scale = float(np.max(np.abs(rep.coefficients)))
        ok = ok and rep.max_circle_deviation <= 1e-6
        ok = ok and bool(np.all(rep.residuals <= 1e-8 * scale))
    report(4, "lee-yang circle suite", ok, f"(max |.|-1 dev {worst_dev:.2e})")
    assert ok


def test_criterion_5_range_constants():
    ok = True
    r2, r3, r4 = ising_ly_range(2), ising_ly_range(3), ising_ly_range(4)
    ok = ok and (r2.lo, r2.hi) == (-1.0, 1.0)
    ok = ok and abs(r3.lo + 1 / 3) < 1e-15 and abs(r3.hi - 1.0) < 1e-15
    ok = ok and abs(r4.lo + 1 / 7) < 1e-15 and abs(r4.hi - 0.5) < 1e-15
    eps = np.finfo(float).eps
    for k in range(3, 13):
        neg, pos = disk_product_real_extremes(k)
        rng = ising_ly_range(k)
        ok = ok and abs(rng.hi * (neg + 1.0) - 1.0) <= 4 * eps
        ok = ok and abs(rng.lo * (pos - 1.0) + 1.0) <= 4 * eps
    report(5, "range constants and extreme identities", ok)
    assert ok


def test_criterion_6_tightness_witnesses():
    ok = True
    details = []
    for k in (2, 3, 4, 5):
        rng = ising_ly_range(k)
        for beta in (rng.lo - 0.05, rng.hi + 0.05, 1.5):
            w = off_circle_witness(k, beta)
            ok = ok and w.circle_deviation > 1e-4
            details.append(f"k={k} b={beta:+.3f} dev={w.circle_deviation:.1e}")
            if beta < rng.lo:
                p0, p1 = w.sign_change
                ok = ok and p0 > 0 > p1 and 0 < w.bracket_root < 1
            if beta > 1:
                ok = ok and w.edge_size_used == 2
    report(6, "tightness witnesses", ok, f"({len(details)} witnesses)")
    assert ok


def test_criterion_7_truncation_bound_validity(fptas_records):
    ok = True
    for rec in fptas_records:
        for lam, eps, ap, exact in rec.runs:
            ok = ok and ap.bound <= eps / 4
            ok = ok and rel_err(ap.value, exact) <= eps
    report(7, "truncation bound validity", ok)
    assert ok


def test_criterion_8_scale_run():
    rng = random.Random(8)
    g = random_regular_graph(rng, 50, 3, 0.2)
    start = time.perf_counter()
    est = PartitionEstimator(g)
    ap = est.approximate(0.2, 0.5)
    fam = enumerate_connected(g, ap.order)
    seconds = time.perf_counter() - start
    counts = fam.counts()
    ok = ap.order == 4 and seconds < 60.0 and ap.guaranteed
    for t in range(2, ap.order + 1):
        ok = ok and counts[t] <= count_bound(50, 3, 2, t)
    report(8, "scale run n=50", ok, f"(m={ap.order}, {seconds:.2f}s)")
    assert ok


def test_criterion_9_enumerator_exactness():
    ok = True
    for g in corpus_n14():
        t = min(g.n, 14)
        fam = enumerate_connected(g, t)
        brute = brute_connected_sets(g, t)
        for s in range(1, t + 1):
            ok = ok and label_sets(fam.sets_of_size(s)) == brute[s]
        for s in range(1, t):
            ok = ok and label_sets(fam.sets_of_size(s)) <= {
                x for row in fam.by_size for x in label_sets(row)
            }
        stepped = [enumerate_connected(g, s) for s in (1, min(3, t))]
        small = {x for row in stepped[0].by_size for x in label_sets(row)}
        big = {x for row in stepped[-1].by_size for x in label_sets(row)}
        ok = ok and small <= big
    report(9, "enumerator exactness vs brute force", ok)
    assert ok


def test_criterion_10_suzuki_fisher_comparison():
    ok = True
    for k in range(2, 7):
        cut = 1.0 / (2 ** (k - 1) - 1)
        for beta in np.linspace(-1.4 * cut, 1.4 * cut, 29):
            if abs(abs(beta) - cut) < 1e-9:
                continue
            got = suzuki_fisher_check(ising_edge(range(k), float(beta)))
            ok = ok and got == bool(abs(beta) <= cut)
        rng = ising_ly_range(k)
        if k >= 3:
            ok = ok and cut < rng.hi
            ok = ok and abs(rng.lo + cut) < 1e-15
    report(10, "suzuki-fisher comparison", ok)
    assert ok
