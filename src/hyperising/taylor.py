"""Deterministic approximation of Z(lam) by truncating the series of log Z.

With the all-minus normalization the partition polynomial factors as
prod_i (1 - lam/r_i), so log Z = -sum_{j>=1} p_j lam^j / j with p_j the
j-th power sum of the reciprocal roots. When every root lies on the unit
circle, truncating after m terms leaves an additive error of at most
n |lam|^{m+1} / ((m+1)(1-|lam|)) inside the open unit disk, and an
additive error of eps/4 in log Z yields a multiplicative error within
1 +/- eps in Z. Arguments outside the unit disk are pulled inside with
Z(lam) = lam^n * conj(Z(1/conj(lam))), valid for symmetric edge
activities: the series or polynomial at 1/lam reads the conjugates of the
host's own power sums or coefficients, so one snapshot of the sums
serves both sides of the circle.

The order m grows without bound as |lam| -> 1, but once m >= n the
estimator has every e_1..e_n, i.e. the whole polynomial: from tables to
depth n in general, and from tables to depth n // 2 on a host with
symmetric activities, whose polynomial is self-inversive (c_{n-i} =
conj(c_i)), so the mirror gives the rest. The estimator then skips the
series and evaluates Z with the oracle's Horner (`oracle.polyval`), exact
up to rounding in the table values, so every call does work bounded by n
and the table caps whatever |lam| is.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coefficients import (
    complete_self_inversive,
    compute_coefficient_tables,
    elementary_to_coefficients,
    extend_power_sums,
    power_sums,
    power_sums_to_elementary,
)
from .errors import HyperIsingError, UnitCircleError, check_cap
from .hypergraph import Hypergraph
from .leeyang import check_activity_ranges
from .oracle import polyval
from .subgraphs import DEFAULT_SET_CAP, enumerate_connected

DEFAULT_ORDER_CAP = 24
UNIT_CIRCLE_TOL = 1e-12


def truncation_order(n: int, eps: float, abs_lambda: float) -> int:
    """Smallest m with m >= (log(4n/eps) + log(1/(1-|lam|))) / log(1/|lam|),
    which drives the truncation error below eps/4."""
    if not 0 < abs_lambda < 1:
        raise ValueError("truncation order requires 0 < |lambda| < 1")
    if not 0 < eps <= 1:
        raise ValueError("accuracy must lie in (0, 1]")
    if n < 1:
        return 1
    need = (math.log(4 * n / eps) + math.log(1 / (1 - abs_lambda))) / math.log(
        1 / abs_lambda
    )
    return max(1, math.ceil(need))


def truncation_bound(n: int, abs_lambda: float, m: int) -> float:
    """A-priori tail bound n |lam|^(m+1) / ((m+1)(1-|lam|)) on the
    truncated log, valid when all roots are on the unit circle."""
    if abs_lambda >= 1:
        raise ValueError("bound requires |lambda| < 1")
    if abs_lambda == 0:
        return 0.0
    return n * abs_lambda ** (m + 1) / ((m + 1) * (1 - abs_lambda))


def truncated_log_partition(p: Sequence[complex], lam: complex, m: int) -> complex:
    """-sum_{j=1}^{m} p_j lam^j / j."""
    if len(p) < m:
        raise ValueError(f"need power sums to order {m}, got {len(p)}")
    acc = 0.0 + 0.0j
    power = 1.0 + 0.0j
    for j in range(1, m + 1):
        power *= lam
        acc += p[j - 1] * power / j
    return -acc


def _conj(xs: Sequence[complex]) -> list[complex]:
    """Conjugates that keep an exact +0.0 imaginary part as it is."""
    return [x.conjugate() if x.imag else x for x in xs]


@dataclass(frozen=True)
class TaylorApproximation:
    """Outcome of one estimation run.

    `value` estimates Z at `lam`; `log_estimate` is an estimate of log Z at
    `lam_effective` (the argument after any inversion into the unit disk).
    `order` is the a-priori truncation order m for (n, eps, |lam_effective|)
    and `bound` the tail bound at that order; the bound certifies
    |value - Z| <= eps |Z| only when `guaranteed` is set, i.e. when every
    edge activity sits in a range with all partition zeros on the unit
    circle.

    `evaluation` names the path taken. With "series" (m < n), `log_estimate`
    is the series truncated after m terms and `value` its exponential. With
    "polynomial" (m >= n), no series is summed: `value` is Z evaluated from
    the coefficients c_0..c_n (on a symmetric host c_0..c_{n//2} from the
    tables and the rest as c_{n-i} = conj(c_i)), and `log_estimate` is
    cmath.log of Z(lam_effective) on the principal branch. `order` and
    `bound` keep their a-priori values there, although the value then
    carries no truncation error, only rounding in the table values.
    """

    order: int
    lam: complex
    lam_effective: complex
    inverted: bool
    log_estimate: complex
    value: complex
    bound: float
    epsilon: float
    guaranteed: bool
    evaluation: str


class PartitionEstimator:
    """Truncation pipeline for one host, reusing one snapshot of power
    sums across calls with different accuracies and arguments on either
    side of the unit circle."""

    def __init__(self, g: Hypergraph, order_cap: int = DEFAULT_ORDER_CAP,
                 set_cap: int = DEFAULT_SET_CAP):
        self.host = g
        self.order_cap = order_cap
        self.set_cap = set_cap
        # deepest table a symmetric host needs: the mirror c_{n-i} =
        # conj(c_i) gives every coefficient above it
        self._half = max(1, g.n // 2) if g.all_symmetric() else None
        # (p_1..p_depth, e_1..e_depth), replaced whole so that a reader
        # never pairs one build's p with another's e; on a symmetric host
        # tables to depth n // 2 give p and e to n
        self._state: tuple[list[complex], list[complex]] | None = None
        self._guaranteed: bool | None = None

    def _snapshot(self, depth: int, m: int):
        """(p, e) reaching at least order `depth`: if the current snapshot
        falls short, the sums of one new table build replace it in one
        assignment, and the tables are dropped. On a symmetric host the
        tables stop at depth n // 2, and a build that reaches it completes
        the sums to order n by the mirror, so no later request rebuilds.
        A build whose values or sums pass the double range is refused,
        naming the order its sums reach: the build's, n once mirrored."""
        check_cap(f"table order for truncation order {m}", depth,
                  self.order_cap)
        if not self.host.n:  # no label sets
            return [], []
        state = self._state
        if state is None or len(state[0]) < depth:
            half = self._half
            build = depth if half is None else min(depth, half)
            fam = enumerate_connected(self.host, build, set_cap=self.set_cap)
            with np.errstate(over="ignore", invalid="ignore"):
                table = compute_coefficient_tables(self.host, build, fam=fam)
            order = build
            try:
                if not np.isfinite(table.values).all():
                    raise OverflowError
                p = power_sums(table)
                e = power_sums_to_elementary(p)
                if build == half:
                    order = self.host.n
                    p, e = complete_self_inversive(p, e, order)
                if not all(map(cmath.isfinite, p + e)):
                    raise OverflowError
            except OverflowError:
                raise HyperIsingError(
                    f"the power sums to order {order} overflow double"
                    f" precision on {self.host.n} vertices") from None
            state = (p, e)
            self._state = state
        return state

    def power_sums_up_to(self, m: int) -> list[complex]:
        """Power sums p_1..p_m; the table recurrence is run only up to the
        host size (half of it on a symmetric host), beyond which Newton's
        identity continues the sequence. Orders above the cap are refused
        before any work is done."""
        check_cap("truncation order", m, self.order_cap)
        n = self.host.n
        p, e = self._snapshot(min(m, n), m)
        if m <= len(p):
            return p[:m]
        # sums never go past n, so this snapshot covers the host
        p = extend_power_sums(p, e, m)
        if not all(map(cmath.isfinite, p)):
            raise HyperIsingError(f"the power sums to order {m} overflow"
                                  f" double precision on {n} vertices")
        return p

    def elementary(self) -> list[complex]:
        """e_1..e_depth for the deepest order computed so far; e_1..e_n
        once the tables of a symmetric host have reached depth n // 2."""
        state = self._state
        return [] if state is None else state[1]

    def guaranteed(self) -> bool:
        if self._guaranteed is None:
            self._guaranteed = check_activity_ranges(self.host).all_pass
        return self._guaranteed

    def approximate(self, lam: complex, eps: float) -> TaylorApproximation:
        """Estimate Z(lam) within 1 +/- eps (certified when guaranteed):
        by the truncated series when m < n, else from the polynomial."""
        lam = complex(lam)
        if not 0 < eps < 1:
            raise ValueError("accuracy must lie in (0, 1)")
        if not cmath.isfinite(lam):
            raise ValueError(f"lambda must be finite, got {lam}")
        if abs(abs(lam) - 1.0) <= UNIT_CIRCLE_TOL:
            raise UnitCircleError(
                "|lambda| = 1 is excluded: partition zeros accumulate on the"
                " unit circle"
            )
        n = self.host.n
        inverted = abs(lam) > 1
        if inverted and self._half is None:
            raise ValueError(
                "|lambda| > 1 requires symmetric edge activities for the"
                " inversion identity"
            )
        lam_eff = 1 / lam if inverted else lam
        abs_eff = abs(lam_eff)
        m = 1 if abs_eff == 0 else truncation_order(n, eps, abs_eff)
        try:
            if m >= n:
                evaluation = "polynomial"
                # c_0..c_n from tables to the host size or, on a
                # symmetric host, to half of it and the mirror
                c = elementary_to_coefficients(self._snapshot(n, m)[1])
                # an overflowing Z is refused below, not warned about
                with np.errstate(over="ignore", invalid="ignore"):
                    value = complex(polyval(_conj(c) if inverted else c,
                                            lam_eff))
                log_est = cmath.log(value) if value else complex(-math.inf)
            else:
                evaluation = "series"
                p = self.power_sums_up_to(m)
                log_est = truncated_log_partition(
                    _conj(p) if inverted else p, lam_eff, m)
                value = cmath.exp(log_est)
            if inverted:
                value *= lam**n
        except OverflowError:
            value = complex(math.inf)
        if not cmath.isfinite(value):
            raise HyperIsingError(
                f"Z at lambda = {lam} overflows double precision on {n}"
                " vertices")
        return TaylorApproximation(
            order=m,
            lam=lam,
            lam_effective=lam_eff,
            inverted=inverted,
            log_estimate=log_est,
            value=value,
            bound=truncation_bound(n, abs_eff, m),
            epsilon=eps,
            guaranteed=self.guaranteed(),
            evaluation=evaluation,
        )

