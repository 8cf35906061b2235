"""Edge-activity ranges with all partition zeros on the unit circle.

For the Ising interaction on a hyperedge of size k the tight range is
[-1, 1] for k = 2 and, for k >= 3,

    -1/(2^(k-1) - 1)  <=  beta  <=  1/(2^(k-1) cos^(k-1)(pi/(k-1)) + 1).

The endpoints come from the extremes of the real values attainable by a
product of k-1 points of the closed unit disk centered at 1. Outside the
range (and away from beta = 1) the single hyperedge itself witnesses an
off-circle zero through the polynomial

    P_k(z) = beta (1+z)^k + (1-beta) (1 + z^k),

with the reduction to a size-2 edge when beta > 1. General symmetric edge
tables are accepted under the classical Suzuki-Fisher condition
|phi(+..+)| >= (1/4) sum_sigma |phi(sigma)|, which for Ising tables is
the weaker symmetric range |beta| <= 1/(2^(k-1) - 1).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import HyperIsingError, RootConvergenceError
from .hypergraph import Hyperedge, Hypergraph, IsingActivity
from .oracle import (DEFAULT_RESIDUAL_TOL, DEFAULT_VERTEX_CAP, ZeroReport,
                     polynomial_roots, polyval, zero_report)

DEFAULT_CIRCLE_TOL = 1e-6


@dataclass(frozen=True)
class LYRange:
    """Admissible Ising activity interval for one edge size.

    `contains` includes the endpoints: the univariate circle statement
    holds there (zeros vary continuously, so limits stay on the circle),
    while the multivariate nonvanishing statement holds on the open
    interval only.
    """

    k: int
    lo: float
    hi: float

    def contains(self, beta: float) -> bool:
        return self.lo <= beta <= self.hi


def disk_product_real_extremes(k: int) -> tuple[float, float]:
    """Extremes (neg_max, pos_max) of the reals attainable as a product of
    k-1 points from the closed unit disk centered at 1: the attainable
    real values form exactly [-neg_max, pos_max].

    Writing each point as r e^{i theta} with |theta| <= pi/2 and
    0 <= r <= 2 cos theta, the constrained product of cosines is maximized
    at equal angles, giving neg_max = 2^(k-1) cos^(k-1)(pi/(k-1)) and
    pos_max = 2^(k-1). Both are inf once they pass the double range
    (k > 1024), so the range ends of `ising_ly_range` read as -0 and 0.
    """
    if k < 3:
        raise ValueError("the product range is defined for k >= 3")
    pos = 2.0 ** (k - 1) if k <= sys.float_info.max_exp else math.inf
    neg = pos * math.cos(math.pi / (k - 1)) ** (k - 1)
    return neg, pos


def ising_ly_range(k: int) -> LYRange:
    """Tight Ising activity range for edge size k (univariate, closed)."""
    if k < 2:
        raise ValueError("edge size must be >= 2")
    if k == 2:
        return LYRange(2, -1.0, 1.0)
    neg, pos = disk_product_real_extremes(k)
    return LYRange(k, -1.0 / (pos - 1.0), 1.0 / (neg + 1.0))


def suzuki_fisher_check(e: Hyperedge) -> bool:
    """Symmetric-table sufficient condition
    |phi(+,...,+)| >= (1/4) sum over all patterns of |phi|."""
    if not e.is_symmetric():
        return False
    table = e.activity.table(e.size)
    return abs(table[-1]) >= 0.25 * sum(abs(v) for v in table)


@dataclass(frozen=True)
class EdgeVerdict:
    index: int
    size: int
    kind: str  # "ising" | "table"
    passes: bool
    detail: str


@dataclass(frozen=True)
class RangeCheck:
    edges: tuple[EdgeVerdict, ...]
    all_pass: bool


def check_activity_ranges(g: Hypergraph) -> RangeCheck:
    """Per-edge verdicts: Ising activities against the tight range for
    their size, general tables against the Suzuki-Fisher condition.
    Mixed instances are judged edge by edge."""
    verdicts = []
    for i, e in enumerate(g.edges):
        if isinstance(e.activity, IsingActivity):
            rng = ising_ly_range(e.size)
            ok = rng.contains(e.activity.beta)
            detail = (f"beta={e.activity.beta:g} vs "
                      f"[{rng.lo:.9g}, {rng.hi:.9g}]")
            verdicts.append(EdgeVerdict(i, e.size, "ising", ok, detail))
        else:
            ok = suzuki_fisher_check(e)
            verdicts.append(EdgeVerdict(i, e.size, "table", ok,
                                        "suzuki-fisher"))
    return RangeCheck(tuple(verdicts), all(v.passes for v in verdicts))


@dataclass(frozen=True)
class CircleCertificate:
    """Zero-location report combined with the range verdicts.

    `certified` holds when the instance activities are all in range and
    every computed root sits within `circle_tol` of the unit circle."""

    report: ZeroReport
    ranges: RangeCheck
    on_circle: bool
    certified: bool


def verify_zeros_on_circle(g: Hypergraph,
                           circle_tol: float = DEFAULT_CIRCLE_TOL,
                           residual_tol: float = DEFAULT_RESIDUAL_TOL,
                           cap: int = DEFAULT_VERTEX_CAP) -> CircleCertificate:
    """Exact coefficients -> residual-checked roots -> circle deviation,
    combined with g's range verdicts."""
    report = zero_report(g, residual_tol=residual_tol, cap=cap)
    ranges = check_activity_ranges(g)
    on_circle = report.max_circle_deviation <= circle_tol
    return CircleCertificate(report, ranges, on_circle,
                             ranges.all_pass and on_circle)


def witness_polynomial(k: int, beta: float) -> np.ndarray:
    """Coefficients (ascending) of beta (1+z)^k + (1-beta) (1 + z^k).

    The constant and leading coefficients are beta + (1-beta) = 1 exactly;
    writing them as 1 keeps the normalization free of rounding noise."""
    c = np.array([beta * math.comb(k, j) for j in range(k + 1)],
                 dtype=np.complex128)
    c[0] = 1.0
    c[k] = 1.0
    return c


@dataclass(frozen=True)
class TightWitness:
    """Certified off-circle zero for an out-of-range Ising activity.

    For activities below the lower endpoint the real bracket
    (poly_at_0 > 0 > poly_at_1) is recorded together with the bisection
    root in (0, 1), which is the witness root; `edge_size_used` is 2
    when beta > 1, where the size-2 edge already fails, and k otherwise.
    """

    k: int
    beta: float
    edge_size_used: int
    polynomial: np.ndarray
    witness_root: complex
    residual: float
    circle_deviation: float
    sign_change: tuple[float, float] | None = None
    bracket_root: float | None = None


def _bisect_unit_interval(c: np.ndarray) -> float:
    lo, hi = 0.0, 1.0
    flo = polyval(c, lo).real
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = polyval(c, mid).real
        if fmid == 0:
            return mid
        if (flo > 0) == (fmid > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def off_circle_witness(k: int, beta: float,
                       circle_tol: float = DEFAULT_CIRCLE_TOL,
                       residual_tol: float = DEFAULT_RESIDUAL_TOL) -> TightWitness:
    """Single-hyperedge witness that beta outside the tight range puts a
    partition zero off the unit circle. Raises ValueError for a non-finite
    or in-range beta (no such witness exists) and for beta = 1, where the
    polynomial degenerates; refuses a witness of degree above 1024, whose
    value at z = 1 passes the double range, and one whose coefficients
    overflow, before any root is computed."""
    if k < 2:
        raise ValueError("edge size must be >= 2")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    if beta == 1:
        raise ValueError("beta = 1 is excluded from the witness family")
    rng = ising_ly_range(k)
    if rng.contains(beta):
        raise ValueError(
            f"beta={beta:g} lies inside the range for k={k}; all zeros are"
            " on the unit circle"
        )
    size = 2 if beta > 1 else k
    if size > sys.float_info.max_exp:
        raise HyperIsingError(
            f"the witness polynomial of degree {size} overflows double precision")
    c = witness_polynomial(size, beta)
    if not np.isfinite(c).all():
        raise HyperIsingError(f"the witness polynomial of degree {size}"
                              f" overflows double precision at beta={beta:g}")
    if beta < rng.lo:
        # P(0) > 0 > P(1): the bisection root in (0, 1) is itself a zero
        # off the circle, so no companion matrix is needed
        sign_change = (float(polyval(c, 0.0).real),
                       2 * beta * (2.0 ** (size - 1) - 1) + 2)
        bracket = _bisect_unit_interval(c)
        roots = np.asarray([bracket], dtype=np.complex128)
        worst = float(abs(polyval(c, roots[0])) / np.max(np.abs(c)))
        if worst > residual_tol:
            raise RootConvergenceError(f"root residual {worst:.3e} above"
                                       f" tolerance {residual_tol:.1e}")
    else:
        sign_change = bracket = None
        roots = polynomial_roots(c, tol=residual_tol)
    deviations = np.abs(np.abs(roots) - 1.0)
    best = int(np.argmax(deviations))
    witness = complex(roots[best])
    deviation = float(deviations[best])
    if deviation <= 10 * circle_tol:
        raise RootConvergenceError(
            f"no root strayed beyond 10x circle tolerance (max {deviation:.3e})"
        )
    return TightWitness(
        k=k,
        beta=beta,
        edge_size_used=size,
        polynomial=c,
        witness_root=witness,
        residual=float(abs(polyval(c, witness))),
        circle_deviation=deviation,
        sign_change=sign_change,
        bracket_root=bracket,
    )

