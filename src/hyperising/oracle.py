"""Brute-force ground truth for small instances.

Exact partition values, exact polynomial coefficients, the cut histogram
of a host, and residual-checked complex roots. The values and
coefficients enumerate all 2^n spin configurations, so they are only
usable below the vertex cap (default 24); they exist to validate the
polynomial-time pipeline, not to compete with it.

With one Ising activity beta on every edge, a label set's weight is
beta^(number of edges it cuts), so the coefficients at every beta follow
from one integer histogram H[i, c] of label sets by size i and cut count
c: c_i(beta) = sum_c H[i, c] beta^c. `cut_histogram` builds H by a
transfer matrix over a vertex order, in time exponential only in the
order's frontier width, or by one 2^n pass where that is cheaper;
`uniform_beta_coefficients` evaluates it on a grid of betas.

Summations are performed blockwise with numpy's pairwise reduction in a
fixed order, so results do not depend on how work might be partitioned.
"""

from __future__ import annotations

import cmath
import logging
from dataclasses import dataclass

import numpy as np

from .errors import OracleCapError, RootConvergenceError, SchemaError
from .hypergraph import Hypergraph, IsingActivity

DEFAULT_VERTEX_CAP = 24
# H counts in int64; its largest count, C(n, n // 2), passes 2^63 - 1 at
# n = 67
HISTOGRAM_MAX_N = 66
# allowed |P(root)| relative to max |c_i| of a returned root
DEFAULT_RESIDUAL_TOL = 1e-8
_BLOCK_BITS = 20  # cap per-block scratch arrays at 2^20 entries

log = logging.getLogger(__name__)

# Trailing coefficients below this relative threshold are treated as zero
# when determining the polynomial degree (cannot occur for finite Ising
# activities, where the leading coefficient is a product of phi(+...+)=1).
LEADING_STRIP_REL = 1e-12


def check_vertex_cap(n: int, cap: int) -> None:
    """Refuse exact enumeration over 2^n states above the vertex cap."""
    if n > cap:
        raise OracleCapError(
            f"exact enumeration over 2^{n} states exceeds cap n<={cap}"
        )


def check_histogram_cap(n: int, cap: int) -> None:
    """Refuse a cut histogram above the vertex cap, and at any cap where
    its int64 counts could overflow."""
    check_vertex_cap(n, cap)
    if n > HISTOGRAM_MAX_N:
        raise OracleCapError(
            f"cut histogram counts on {n} vertices overflow int64"
            f" (n <= {HISTOGRAM_MAX_N} at any cap)")


def _blocks(n: int):
    total = 1 << n
    step = min(total, 1 << _BLOCK_BITS)
    for start in range(0, total, step):
        yield np.arange(start, min(start + step, total), dtype=np.int64)


def _cut(states: np.ndarray, vertices) -> np.ndarray:
    """Whether each subset bitmask in `states` cuts the edge on `vertices`:
    meets it without covering it, so the edge is neither all "+" nor all
    "-"."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    part = states & mask
    return (part != 0) & (part != mask)


def _edge_weights(g: Hypergraph, states: np.ndarray) -> np.ndarray:
    """prod_e phi_e(sigma^S) for each subset bitmask S in `states`.

    Edges not meeting S contribute their normalized all-minus value 1, so
    the product may run over every edge.
    """
    w = np.ones(states.shape, dtype=np.complex128)
    for e in g.edges:
        if isinstance(e.activity, IsingActivity):
            w[_cut(states, e.vertices)] *= e.activity.beta
        else:
            local = np.zeros(states.shape, dtype=np.int64)
            for j, v in enumerate(e.vertices):
                local |= (states >> v & 1) << j
            table = np.asarray(e.activity.values, dtype=np.complex128)
            w *= table[local]
    return w


def exact_partition(g: Hypergraph, lam: complex,
                    cap: int = DEFAULT_VERTEX_CAP) -> complex:
    """Z(lam) = sum over subsets S of prod_e phi_e(S) * lam^|S|."""
    check_vertex_cap(g.n, cap)
    total = 0.0 + 0.0j
    for states in _blocks(g.n):
        w = _edge_weights(g, states)
        pc = np.bitwise_count(states)
        total += np.sum(w * np.power(complex(lam), pc))
    return complex(total)


def exact_coefficients(g: Hypergraph, cap: int = DEFAULT_VERTEX_CAP) -> np.ndarray:
    """Coefficients c_0..c_n of Z(lam), c_i = sum over |S|=i of the weight.

    c_0 is forced to 1 by the all-minus normalization of every edge table.
    """
    check_vertex_cap(g.n, cap)
    c = np.zeros(g.n + 1, dtype=np.complex128)
    for states in _blocks(g.n):
        w = _edge_weights(g, states)
        pc = np.bitwise_count(states)
        np.add.at(c, pc, w)
    return c


def _transfer_steps(g: Hypergraph) -> list[tuple]:
    """A greedy vertex order for the transfer matrix, one step per vertex:
    (v, edges v completes, vertices summed out after v, frontier width
    before v). The frontier is the processed vertices with an open edge,
    one that has an unprocessed vertex. Each step takes the vertex that
    leaves the smallest frontier, then the one completing most edges,
    then the lowest label."""
    incident = [[] for _ in range(g.n)]
    for j, e in enumerate(g.edges):
        for v in e.vertices:
            incident[v].append(j)
    left = [e.size for e in g.edges]  # unprocessed vertices per edge
    open_edges = [len(js) for js in incident]
    todo = set(range(g.n))
    width = 0
    steps = []
    while todo:
        best = None
        for v in todo:
            done = [j for j in incident[v] if left[j] == 1]
            closing: dict[int, int] = {}
            for j in done:
                for u in g.edges[j].vertices:
                    closing[u] = closing.get(u, 0) + 1
            out = [u for u, c in closing.items() if open_edges[u] == c]
            if not incident[v]:
                out.append(v)
            key = (width + 1 - len(out), -len(done), v)
            if best is None or key < best[0]:
                best = key, v, done, out
        _, v, done, out = best
        steps.append((v, done, sorted(out), width))
        todo.remove(v)
        for j in incident[v]:
            left[j] -= 1
        for j in done:
            for u in g.edges[j].vertices:
                open_edges[u] -= 1
        width += 1 - len(out)
    return steps


def _transfer_histogram(g: Hypergraph, steps) -> np.ndarray:
    """H by the transfer matrix: one flat (n + 1) x (|E| + 1) count array
    per spin assignment of the frontier, bit p of the state index the
    spin of the p-th frontier vertex ("+" when set)."""
    width = len(g.edges) + 1
    state = np.zeros((1, (g.n + 1) * width), dtype=np.int64)
    state[0, 0] = 1
    frontier: list[int] = []
    for v, done, out, _ in steps:
        # v joins as the top bit; its "+" half moves up one set size
        plus = np.zeros_like(state)
        plus[:, width:] = state[:, :-width]
        state = np.concatenate((state, plus))
        frontier.append(v)
        # move each state up the cut axis by the completed edges it cuts;
        # no count passes cut |E| into the next size, since no set cuts
        # more edges
        ids = np.arange(len(state))
        cuts = np.zeros(len(state), dtype=np.int64)
        for j in done:
            cuts += _cut(ids, [frontier.index(u) for u in g.edges[j].vertices])
        for k in range(1, len(done) + 1):
            rows = np.flatnonzero(cuts == k)
            state[rows, k:] = state[rows, :-k]
            state[rows, :k] = 0
        for u in out:
            p = frontier.index(u)
            cols = state.shape[1]
            state = state.reshape(-1, 2, 1 << p, cols).sum(axis=1)
            state = state.reshape(-1, cols)
            frontier.pop(p)
    return state.reshape(g.n + 1, width)


def _blocked_histogram(g: Hypergraph) -> np.ndarray:
    """H by one pass over all 2^n label sets, in blocks."""
    width = len(g.edges) + 1
    h = np.zeros((g.n + 1) * width, dtype=np.int64)
    for states in _blocks(g.n):
        key = np.bitwise_count(states).astype(np.int64) * width
        for e in g.edges:
            key += _cut(states, e.vertices)
        h += np.bincount(key, minlength=h.size)
    return h.reshape(g.n + 1, width)


def _transfer_pays(g: Hypergraph, steps) -> bool:
    """Whether the transfer matrix over `steps` visits no more cells than
    the blocked pass and keeps each state within 2^_BLOCK_BITS cells;
    logs the route taken, the largest frontier width and the cells."""
    row = (g.n + 1) * (len(g.edges) + 1)
    widest = max((w for *_, w in steps), default=0)
    cells = sum(row << (w + 1) for *_, w in steps)
    blocked = (len(g.edges) + 1) << g.n
    pays = cells <= blocked and row << (widest + 1) <= 1 << _BLOCK_BITS
    log.info("cut histogram: %s, frontier width %d, %d cells",
             "transfer matrix" if pays else "blocked pass", widest,
             cells if pays else blocked)
    return pays


def cut_histogram(g: Hypergraph, cap: int = DEFAULT_VERTEX_CAP) -> np.ndarray:
    """Integer counts H[i, c] of the label sets of size i that cut exactly
    c edges, shape (n + 1, |E| + 1). Activities are ignored: every edge is
    read as Ising. H[i] == H[n - i], since a set and its complement cut the
    same edges.

    H is built by a transfer matrix over a greedy vertex order: a vertex
    joins the frontier by doubling the states, each edge it completes
    moves the states that cut it up the cut axis, and a vertex whose
    edges are all complete is summed out. That visits sum 2^(w+1) (n+1)
    (|E|+1) cells over the steps, w the frontier width before each step.
    Where this exceeds the 2^n (|E|+1) cells of one pass over all label
    sets, or its largest state would exceed 2^_BLOCK_BITS cells (dense
    hosts, whose frontier grows towards n), H comes from that pass.
    Both routes count exactly, so they give the same H."""
    check_histogram_cap(g.n, cap)
    steps = _transfer_steps(g)
    if _transfer_pays(g, steps):
        return _transfer_histogram(g, steps)
    del steps  # so the blocked pass peaks no higher than on its own
    return _blocked_histogram(g)


def uniform_beta_coefficients(hist: np.ndarray, beta) -> np.ndarray:
    """Coefficients c_0..c_n of Z(lam) with activity beta on every edge,
    c_i = sum_c hist[i, c] beta^c by Horner's scheme over the cut counts.
    An array of betas gives one row of coefficients per beta, each equal
    to the one for that beta alone."""
    c = np.polynomial.polynomial.polyval(
        np.asarray(beta, dtype=np.complex128), hist.T.astype(np.complex128))
    return np.moveaxis(c, 0, -1)


def exact_multivariate(g: Hypergraph, lams, cap: int = DEFAULT_VERTEX_CAP) -> complex:
    """Multivariate Ising value: sum_S prod_{e cut by S} beta_e prod_{i in S} lam_i."""
    check_vertex_cap(g.n, cap)
    if any(not isinstance(e.activity, IsingActivity) for e in g.edges):
        raise SchemaError("multivariate evaluation is defined for Ising edges only")
    lams = [complex(x) for x in lams]
    if len(lams) != g.n:
        raise SchemaError(f"expected {g.n} vertex activities, got {len(lams)}")
    total = 0.0 + 0.0j
    for states in _blocks(g.n):
        w = _edge_weights(g, states)
        vf = np.ones(states.shape, dtype=np.complex128)
        for i, li in enumerate(lams):
            vf[(states >> i & 1) == 1] *= li
        total += np.sum(w * vf)
    return complex(total)


def polyval(coeffs: np.ndarray, z) -> np.ndarray:
    """Evaluate sum_i coeffs[i] z^i (ascending order)."""
    return np.polynomial.polynomial.polyval(z, np.asarray(coeffs, dtype=complex))


def polynomial_roots(coeffs, tol: float = DEFAULT_RESIDUAL_TOL) -> np.ndarray:
    """All roots of sum c_i lam^i via companion-matrix eigenvalues.

    Near-zero leading coefficients (relative to max |c_i|) are stripped
    first so spurious huge roots cannot appear. Each returned root r must
    satisfy |P(r)| <= tol * max|c_i|; the list is sorted by (|r|, arg r).
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.size == 0:
        raise SchemaError("empty coefficient vector")
    scale = np.max(np.abs(c))
    if scale == 0:
        raise SchemaError("zero polynomial has no defined root set")
    deg = c.size - 1
    while deg > 0 and abs(c[deg]) < LEADING_STRIP_REL * scale:
        deg -= 1
    if deg == 0:
        return np.zeros(0, dtype=np.complex128)
    try:
        roots = np.roots(c[deg::-1])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RootConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    resid = np.abs(polyval(c[: deg + 1], roots))
    if np.any(resid > tol * scale):
        worst = float(np.max(resid) / scale)
        raise RootConvergenceError(
            f"root residual {worst:.3e} above tolerance {tol:.1e} (relative)"
        )
    order = sorted(range(len(roots)),
                   key=lambda i: (abs(roots[i]), cmath.phase(roots[i])))
    return roots[order]


@dataclass(frozen=True)
class ZeroReport:
    """Exact coefficients, all roots, per-root residuals, circle deviation."""

    coefficients: np.ndarray
    roots: np.ndarray
    residuals: np.ndarray
    max_circle_deviation: float


def coefficient_zeros(c: np.ndarray,
                      residual_tol: float = DEFAULT_RESIDUAL_TOL) -> ZeroReport:
    """Residual-checked roots of sum c_i lam^i and their largest distance
    from the unit circle."""
    roots = polynomial_roots(c, tol=residual_tol)
    resid = np.abs(polyval(c, roots)) if roots.size else np.zeros(0)
    dev = float(np.max(np.abs(np.abs(roots) - 1.0))) if roots.size else 0.0
    return ZeroReport(c, roots, resid, dev)


def zero_report(g: Hypergraph, residual_tol: float = DEFAULT_RESIDUAL_TOL,
                cap: int = DEFAULT_VERTEX_CAP) -> ZeroReport:
    """Root locations of the exact partition polynomial of g.

    With symmetric activities a set and its complement have conjugate
    weights, so Z is self-inversive, c_{n-i} = conj(c_i) (palindromic on
    an all-Ising host, whose coefficients are real); the coefficients are
    averaged with their conjugate reverse first, because rounding that
    breaks the symmetry moves clustered roots off the circle by far more
    than it moves the coefficients."""
    c = exact_coefficients(g, cap=cap)
    if g.all_symmetric():
        c = 0.5 * (c + c[::-1].conj())
    return coefficient_zeros(c, residual_tol=residual_tol)
