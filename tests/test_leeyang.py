import math
import random

import numpy as np
import pytest

from hyperising import (
    HyperIsingError,
    Hyperedge,
    Hypergraph,
    TableActivity,
    check_activity_ranges,
    disk_product_real_extremes,
    ising_ly_range,
    off_circle_witness,
    suzuki_fisher_check,
    verify_zeros_on_circle,
    witness_polynomial,
)
from hyperising.instances import random_connected_hypergraph
from hyperising.oracle import polyval

from conftest import ising_edge, k2, single_edge


def _feasible(x: np.ndarray, target: float) -> np.ndarray:
    """Each row of x moved to the nearest point of the box |theta_i| <=
    pi/2 with sum theta_i = target: the row clipped after one shift,
    found by bisection."""
    half = math.pi / 2
    lo = x.min(axis=1, keepdims=True) - half
    hi = x.max(axis=1, keepdims=True) + half
    for _ in range(100):
        mid = (lo + hi) / 2
        over = np.clip(x - mid, -half, half).sum(axis=1,
                                                 keepdims=True) > target
        lo, hi = np.where(over, mid, lo), np.where(over, hi, mid)
    return np.clip(x - (lo + hi) / 2, -half, half)


def max_cosine_product(k: int, windings: int, verify: bool = False,
                       restarts: int = 100, seed: int = 0,
                       agree_tol: float = 1e-6) -> float:
    """Maximum of prod_{i=1..k} cos(theta_i) over |theta_i| <= pi/2 with
    sum theta_i = windings*pi; equals cos^k(windings*pi/k) at the
    symmetric point. With verify=True a numerical maximizer must agree
    within agree_tol: projected-gradient ascent on sum log cos(theta_i),
    the gradient projected onto the plane of the sum, from the symmetric
    start and `restarts` random feasible ones at once. A row's step is
    taken and doubled when it stays in the box and gains, else halved.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if 2 * abs(windings) > k:
        raise ValueError("infeasible: need 2|windings| <= k")
    closed = math.cos(windings * math.pi / k) ** k
    if verify:
        target = windings * math.pi
        rng = np.random.default_rng(seed)
        theta = _feasible(np.vstack([
            np.full(k, target / k),
            rng.uniform(-math.pi / 2, math.pi / 2, size=(restarts, k))]),
            target)

        def log_product(th):
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where((np.abs(th) <= math.pi / 2).all(axis=1),
                                np.log(np.cos(th)).sum(axis=1), -math.inf)

        value = log_product(theta)
        step = np.full(len(theta), 0.1)
        for _ in range(300):
            grad = -np.tan(theta)
            grad -= grad.mean(axis=1, keepdims=True)
            trial = theta + step[:, None] * grad
            trial_value = log_product(trial)
            gain = trial_value > value
            theta[gain], value[gain] = trial[gain], trial_value[gain]
            step = np.where(gain, 2 * step, step / 2)
        best = np.exp(value.max())
        if abs(best - closed) > agree_tol:
            raise HyperIsingError(
                f"maximizer found {best:.9f}, closed form {closed:.9f}"
            )
    return closed


def test_range_constants():
    r2 = ising_ly_range(2)
    assert (r2.lo, r2.hi) == (-1.0, 1.0)
    r3 = ising_ly_range(3)
    assert r3.lo == pytest.approx(-1 / 3, abs=1e-12)
    assert r3.hi == pytest.approx(1.0, abs=1e-12)
    r4 = ising_ly_range(4)
    assert r4.lo == pytest.approx(-1 / 7, abs=1e-12)
    assert r4.hi == pytest.approx(0.5, abs=1e-12)
    for k in range(2, 8):
        r = ising_ly_range(k)
        assert r.contains(r.lo) and r.contains(r.hi)
    with pytest.raises(ValueError):
        ising_ly_range(1)


def test_disk_product_extremes():
    assert disk_product_real_extremes(3) == (pytest.approx(0.0, abs=1e-30), 4.0)
    neg, pos = disk_product_real_extremes(4)
    assert neg == pytest.approx(1.0) and pos == 8.0
    with pytest.raises(ValueError):
        disk_product_real_extremes(2)


@pytest.mark.parametrize("k", [1025, 1100])
def test_range_past_double_range(k):
    # 2^(k-1) passes the double range: the extremes are inf, and the range
    # ends, below 2^-1023 in magnitude, read as -0 and 0
    assert disk_product_real_extremes(k) == (math.inf, math.inf)
    rng = ising_ly_range(k)
    assert (rng.lo, rng.hi) == (0.0, 0.0)
    assert math.copysign(1.0, rng.lo) == -1.0
    assert rng.contains(0.0)
    assert not rng.contains(1e-300) and not rng.contains(-1e-300)
    with pytest.raises(HyperIsingError, match="overflows double precision"):
        off_circle_witness(k, 0.5)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_witness_rejects_non_finite_beta(beta):
    with pytest.raises(ValueError, match="finite"):
        off_circle_witness(3, beta)


def test_range_extreme_consistency_identities():
    for k in range(3, 13):
        neg, pos = disk_product_real_extremes(k)
        rng = ising_ly_range(k)
        assert abs(rng.hi * (neg + 1.0) - 1.0) <= 4 * np.finfo(float).eps
        assert abs(rng.lo * (pos - 1.0) + 1.0) <= 4 * np.finfo(float).eps
        assert pos >= neg


def test_ranges_nest_with_growing_edge_size():
    for k in range(2, 12):
        a, b = ising_ly_range(k), ising_ly_range(k + 1)
        assert a.lo <= b.lo and b.hi <= a.hi


def test_suzuki_fisher_ising_edge_sizes():
    # size 2: passes exactly for |beta| <= 1
    for beta, want in [(0.5, True), (1.0, True), (-1.0, True), (1.01, False)]:
        assert suzuki_fisher_check(ising_edge((0, 1), beta)) is want
    # size 3: passes exactly for |beta| <= 1/3, weaker than the tight 1
    for beta, want in [(1 / 3, True), (0.34, False), (-1 / 3, True),
                       (0.99, False)]:
        assert suzuki_fisher_check(ising_edge((0, 1, 2), beta)) is want


def test_suzuki_fisher_equivalence_scan():
    for k in range(2, 7):
        edge_cut = 1.0 / (2 ** (k - 1) - 1)
        for beta in np.linspace(-1.5 * edge_cut, 1.5 * edge_cut, 31):
            if abs(abs(beta) - edge_cut) < 1e-9:
                continue  # exactly at the cut the verdict is rounding-bound
            got = suzuki_fisher_check(ising_edge(range(k), float(beta)))
            assert got == bool(abs(beta) <= edge_cut)


def test_suzuki_fisher_strictly_inside_tight_range():
    for k in range(3, 13):
        sf_hi = 1.0 / (2 ** (k - 1) - 1)
        rng = ising_ly_range(k)
        assert sf_hi < rng.hi        # strictly weaker above
        assert rng.lo == pytest.approx(-sf_hi, abs=1e-15)  # equal below


def test_suzuki_fisher_rejects_zero_up_weight_and_asymmetry():
    dead = TableActivity((1, 0.5, 0.5, 0))
    assert not suzuki_fisher_check(Hyperedge((0, 1), dead))
    asym = TableActivity((1, 0.5 + 0.2j, 0.5 + 0.2j, 1))
    assert not suzuki_fisher_check(Hyperedge((0, 1), asym))


def test_check_instance_verdicts():
    ok = Hypergraph(4, (ising_edge((0, 1, 2), 0.4), ising_edge((1, 2, 3), 0.4)))
    res = check_activity_ranges(ok)
    assert res.all_pass and all(v.passes for v in res.edges)

    with_k4 = Hypergraph(5, (ising_edge((0, 1, 2, 3), 0.4),
                             ising_edge((3, 4), 0.2)))
    assert check_activity_ranges(with_k4).all_pass  # 0.4 < 1/2 passes at k=4

    bad = Hypergraph(3, (ising_edge((0, 1, 2), -0.4),))
    res = check_activity_ranges(bad)
    assert not res.all_pass and not res.edges[0].passes


def test_check_instance_mixed_edges_judged_independently():
    table = TableActivity((1, 0.2 + 0.1j, 0.3, 0.2 - 0.1j,
                           0.3, 0.2 + 0.1j, 0.2 - 0.1j, 1))
    g = Hypergraph(4, (Hyperedge((0, 1, 2), table), ising_edge((2, 3), 0.5)))
    res = check_activity_ranges(g)
    kinds = [v.kind for v in res.edges]
    assert kinds == ["table", "ising"]


def test_verify_zeros_three_edge_checkpoint():
    cert = verify_zeros_on_circle(single_edge(3, -1 / 3))
    assert cert.report.max_circle_deviation <= 1e-6
    assert cert.certified
    roots = sorted(cert.report.roots, key=lambda z: z.real)
    np.testing.assert_allclose(roots, [-1, 1, 1], atol=1e-6)


def test_verify_zeros_k2_closed_form():
    cert = verify_zeros_on_circle(k2(0.3))
    assert cert.certified
    got = sorted(cert.report.roots, key=lambda z: z.imag)
    want = [complex(-0.3, -math.sqrt(0.91)), complex(-0.3, math.sqrt(0.91))]
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_verify_zeros_random_in_range_batch():
    rng = random.Random(55)
    for _ in range(25):
        n = rng.randint(2, 12)
        g = random_connected_hypergraph(rng, n, 4, 5, activity="in-range")
        cert = verify_zeros_on_circle(g)
        assert cert.ranges.all_pass
        assert cert.report.max_circle_deviation <= 1e-6
        assert cert.certified


def test_out_of_range_instance_is_not_certified():
    cert = verify_zeros_on_circle(single_edge(3, -0.4))
    assert not cert.ranges.all_pass
    assert not cert.certified
    assert cert.report.max_circle_deviation > 1e-4  # witness in action


def test_witness_polynomial_shape():
    c = witness_polynomial(3, -0.4)
    # -0.4(1+z)^3 + 1.4(1+z^3)
    np.testing.assert_allclose(c.real, [1.0, -1.2, -1.2, 1.0], atol=1e-14)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_witness_just_outside_both_sides(k):
    rng = ising_ly_range(k)
    for beta in (rng.lo - 0.05, rng.hi + 0.05):
        w = off_circle_witness(k, beta)
        assert w.circle_deviation > 1e-4
        assert w.residual <= 1e-8 * np.max(np.abs(w.polynomial))
        if beta < rng.lo:
            p0, p1 = w.sign_change
            assert p0 == 1.0
            assert p1 == pytest.approx(2 * beta * (2 ** (k - 1) - 1) + 2)
            assert p0 > 0 > p1
            assert 0 < w.bracket_root < 1
            assert abs(polyval(w.polynomial, w.bracket_root)) < 1e-9
        else:
            assert w.sign_change is None


@pytest.mark.parametrize("k", [59, 60, 200, 1024])
def test_witness_below_range_is_the_bracket_root(k):
    # the companion matrix of a high-degree witness polynomial loses its
    # roots (relative residual 8.8e14 at k = 60, NaN at k = 1024); the
    # bisection root in (0, 1) is a zero off the circle by itself
    w = off_circle_witness(k, -0.5)
    assert w.witness_root == w.bracket_root and 0 < w.bracket_root < 1
    assert w.circle_deviation == 1 - w.bracket_root > 1e-5
    assert w.residual <= 1e-8 * np.max(np.abs(w.polynomial))
    p0, p1 = w.sign_change
    assert p0 > 0 > p1


def test_witness_above_one_reduces_to_pair_edge():
    for k in (2, 3, 4, 5):
        w = off_circle_witness(k, 1.5)
        assert w.edge_size_used == 2
        got = sorted(r.real for r in
                     np.roots(w.polynomial[::-1]))
        want = sorted([-1.5 - math.sqrt(1.25), -1.5 + math.sqrt(1.25)])
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_witness_quadratic_closed_form():
    # roots -1.5 +/- sqrt(1.25); the witness is the farther one
    w = off_circle_witness(2, 1.5)
    assert w.circle_deviation == pytest.approx(0.5 + math.sqrt(1.25),
                                               abs=1e-9)


def test_witness_rejected_inside_range():
    with pytest.raises(ValueError):
        off_circle_witness(3, 0.5)
    with pytest.raises(ValueError):
        off_circle_witness(2, -1.0)  # endpoint still certified on-circle
    with pytest.raises(ValueError):
        off_circle_witness(4, 1.0)


def test_cosine_product_closed_forms():
    assert max_cosine_product(5, 0) == 1.0
    assert max_cosine_product(4, 1) == pytest.approx(0.25)
    assert max_cosine_product(3, 1) == pytest.approx(0.125)
    with pytest.raises(ValueError):
        max_cosine_product(3, 2)


def test_cosine_product_maximizer_agrees():
    for k, m in [(3, 1), (4, 1), (5, 2), (6, 1)]:
        assert max_cosine_product(k, m, verify=True, restarts=20) == \
            pytest.approx(math.cos(m * math.pi / k) ** k)
    # the lower range endpoint rests on the k-1 angle maximum at one winding
    for k in range(4, 8):
        neg, _ = disk_product_real_extremes(k)
        assert neg == 2 ** (k - 1) * math.cos(math.pi / (k - 1)) ** (k - 1)
        assert neg == pytest.approx(
            2 ** (k - 1) * max_cosine_product(k - 1, 1, verify=True,
                                              restarts=20))


def test_instance_zeros_match_range_prediction_sweep():
    # single 3-edge: deviations appear exactly outside [-1/3, 1]
    for beta in np.linspace(-0.5, 0.9, 15):
        host = single_edge(3, float(beta))
        cert = verify_zeros_on_circle(host)
        inside = ising_ly_range(3).contains(float(beta))
        assert cert.on_circle is inside or inside  # on-circle whenever inside
        if inside:
            assert cert.report.max_circle_deviation <= 1e-6
