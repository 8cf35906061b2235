"""Brute-force ground truth for small instances, to validate the
polynomial-time pipeline: exact partition values and coefficients, the
cut histogram of a host, and residual-checked roots, up to a vertex cap.

One transfer matrix over a vertex order (Andrzejak, Discrete Math. 1998)
sums w(S) prod_{v in S} lam_v over the label sets S by |S|, in time
exponential only in the order's frontier width and in memory bounded by
splitting large states on a frontier spin; the order, the splits and so
every sum are fixed by the host. With one Ising activity beta on every
edge, c_i(beta) = sum_c H[i, c] beta^c for the histogram H of label sets
by size i and cut count c, which `cut_histogram` builds.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import OracleCapError, RootConvergenceError, SchemaError
from .hypergraph import Hypergraph, IsingActivity

DEFAULT_VERTEX_CAP = 24
# H's largest int64 count, C(n, n // 2), passes 2^63 - 1 at n = 67
HISTOGRAM_MAX_N = 66
# allowed |P(root)| relative to max |c_i| of a returned root
DEFAULT_RESIDUAL_TOL = 1e-8
_BLOCK_BITS = 20  # int64-sized cells per transfer state, sets per 2^n block

log = logging.getLogger(__name__)

# Leading coefficients below this fraction of max |c_i| are stripped
# before the degree is fixed. On an Ising host c_n = c_0 = 1 while the
# middle c_i grow like beta^cuts, so this starts once max |c_i| > 1e12:
# on an 8-vertex cubic host at beta = 1e3 (max |c_i| = 4.0e30) the degree
# drops to 7 and the roots fail the residual check at 4.9e23 relative.
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


def _cut(states: np.ndarray, vertices) -> np.ndarray:
    """Whether each bitmask in `states` cuts the edge on bits `vertices`:
    meets it without covering it, so it is neither all "+" nor all "-"."""
    mask = sum(1 << v for v in vertices)
    part = states & mask
    return (part != 0) & (part != mask)


def _transfer_steps(g: Hypergraph) -> list[tuple]:
    """A greedy vertex order for the transfer matrix, one step per vertex:
    (v, edges v completes, vertices summed out after v, frontier width
    before v). The frontier is the processed vertices with an open edge,
    one that has an unprocessed vertex. Each step takes the vertex that
    leaves the smallest frontier, then the one completing most edges,
    then the lowest label. Refuses a frontier past 62 vertices, so that
    int64 row ids, one bit per vertex and the joining one, fit."""
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
        if width > 62:
            raise OracleCapError(f"frontier width {width} exceeds 62")
        steps.append((v, [g.edges[j] for j in done], sorted(out), width))
        todo.remove(v)
        for j in incident[v]:
            left[j] -= 1
        for j in done:
            for u in g.edges[j].vertices:
                open_edges[u] -= 1
        width += 1 - len(out)
    return steps


def _plan(steps, row: int) -> tuple[int, int]:
    """The widest frontier of `steps`, and the cells visited at `row` a row."""
    widths = [w for *_, w in steps]
    return max(widths, default=0), sum(row << (w + 1) for w in widths)


def _transfer(steps, axes: tuple, dtype, complete, lams=None):
    """The sum of the last rows of the transfer matrix over `steps`, one
    step per vertex, and the number of splits. Each state has one row per
    frontier spin pattern, of shape (n + 1, *axes), axis 0 the set size
    |S| and `axes` the caller's; the engine alone owns the size axis. It
    starts from one row holding 1 at size 0, and a joining vertex takes
    the top bit: its "+" half is its "-" half one set size up, times
    lams[v] when vertex activities are given. Bit p of a row id is the
    spin of the p-th frontier vertex ("+" when set); the first nfix are
    fixed, in the low bits `fixed` of every id, so row r has id
    fixed | r << nfix. `complete(state, ids, edges)` weights the rows in
    place by the completed edges, each with its vertices' positions.
    Before a doubling passes 2^_BLOCK_BITS int64-sized cells, the free
    vertex summed out last is fixed: its "-" rows run on, its "+" rows
    wait (disjoint work until it goes)."""
    row = (len(steps) + 1, *axes)
    state = np.zeros((1, *row), dtype)
    state[(0,) * state.ndim] = 1
    leaves = {u: i for i, (*_, out, _) in enumerate(steps) for u in out}
    total, splits = 0, 0
    todo = [(0, state, [], 0, 0)]  # (step, state, frontier, fixed, nfix)
    while todo:
        start, state, frontier, fixed, nfix = todo.pop()
        for i in range(start, len(steps)):
            v, done, out, _ = steps[i]
            while 2 * state.nbytes > 8 << _BLOCK_BITS and nfix < len(frontier):
                q = nfix + int(np.argmax([leaves[u] for u in frontier[nfix:]]))
                state = state.reshape(-1, 2, 1 << q - nfix, *row)
                frontier.insert(nfix, frontier.pop(q))
                todo.append((i, state[:, 1].copy().reshape(-1, *row),
                             frontier.copy(), fixed | 1 << nfix, nfix + 1))
                state = state[:, 0].copy().reshape(-1, *row)
                nfix, splits = nfix + 1, splits + 1
            doubled = np.empty((2 * len(state), *row), dtype)
            doubled[:len(state)] = state
            plus = doubled[len(state):]
            plus[:, 0] = 0
            plus[:, 1:] = (state[:, :-1] if lams is None
                           else lams[v] * state[:, :-1])
            state = doubled
            frontier.append(v)
            ids = fixed | np.arange(len(state), dtype=np.int64) << nfix
            complete(state, ids, [(e, [frontier.index(u) for u in e.vertices])
                                  for e in done])
            for u in out:
                p = frontier.index(u)
                frontier.pop(p)
                if p < nfix:  # drop its fixed bit
                    fixed = fixed & ((1 << p) - 1) | fixed >> (p + 1) << p
                    nfix -= 1
                else:
                    state = state.reshape(-1, 2, 1 << p - nfix, *row)
                    state = (state[:, 0] + state[:, 1]).reshape(-1, *row)
        total = total + state[0]
    return total, splits


def _edge_values(e, ids: np.ndarray, positions) -> np.ndarray:
    """phi_e at each row id's spins, e's vertices at bits `positions`."""
    if isinstance(e.activity, IsingActivity):  # no 2^|e| table
        return np.where(_cut(ids, positions), e.activity.beta, 1.0)
    local = sum((ids >> p & 1) << j for j, p in enumerate(positions))
    return np.asarray(e.activity.values, dtype=np.complex128)[local]


def _graded_sum(g: Hypergraph, lams) -> np.ndarray:
    """sum_S prod_e phi_e(S) prod_{v in S} lams[v] by |S| (None: all 1)."""
    steps = _transfer_steps(g)

    def complete(s, ids, edges):
        if edges:
            s *= math.prod(_edge_values(e, ids, p) for e, p in edges)[:, None]

    c, splits = _transfer(steps, (), complex, complete, lams)
    log.info("exact coefficients: transfer matrix, frontier width %d, %d"
             " cells, %d splits", *_plan(steps, g.n + 1), splits)
    return c


def exact_coefficients(g: Hypergraph, cap: int = DEFAULT_VERTEX_CAP) -> np.ndarray:
    """Coefficients c_0..c_n of Z(lam), c_i the weight of the sets of size i."""
    check_vertex_cap(g.n, cap)
    return _graded_sum(g, None)


def exact_partition(g: Hypergraph, lam: complex,
                    cap: int = DEFAULT_VERTEX_CAP) -> complex:
    """Z(lam) by Horner's scheme over the exact coefficients."""
    return complex(polyval(exact_coefficients(g, cap=cap), lam))


def exact_multivariate(g: Hypergraph, lams, cap: int = DEFAULT_VERTEX_CAP) -> complex:
    """Multivariate Ising value: sum_S prod_{e cut by S} beta_e prod_{i in S} lam_i."""
    check_vertex_cap(g.n, cap)
    if any(not isinstance(e.activity, IsingActivity) for e in g.edges):
        raise SchemaError("multivariate evaluation is defined for Ising edges only")
    lams = [complex(x) for x in lams]
    if len(lams) != g.n:
        raise SchemaError(f"expected {g.n} vertex activities, got {len(lams)}")
    return complex(_graded_sum(g, lams).sum())


def _blocked_histogram(g: Hypergraph) -> np.ndarray:
    """H by one pass over all 2^n label sets, in blocks."""
    width = len(g.edges) + 1
    h = np.zeros((g.n + 1) * width, dtype=np.int64)
    step = 1 << min(g.n, _BLOCK_BITS)
    for start in range(0, 1 << g.n, step):
        states = np.arange(start, start + step, dtype=np.int64)
        key = np.bitwise_count(states).astype(np.int64) * width
        for e in g.edges:
            key += _cut(states, e.vertices)
        h += np.bincount(key, minlength=h.size)
    return h.reshape(g.n + 1, width)


def _transfer_pays(g: Hypergraph, steps) -> bool:
    """Whether the transfer matrix over `steps` visits no more cells than
    the blocked pass; logs the route, the largest frontier width and cells."""
    widest, cells = _plan(steps, (g.n + 1) * (len(g.edges) + 1))
    blocked = (len(g.edges) + 1) << g.n
    pays = cells <= blocked
    log.info("cut histogram: %s, frontier width %d, %d cells",
             "transfer matrix" if pays else "blocked pass", widest,
             cells if pays else blocked)
    return pays


def cut_histogram(g: Hypergraph, cap: int = DEFAULT_VERTEX_CAP) -> np.ndarray:
    """Integer counts H[i, c] of the label sets of size i that cut exactly
    c edges, shape (n + 1, |E| + 1), every edge read as Ising. H[i] ==
    H[n - i], since a set and its complement cut the same edges.

    The transfer matrix, each completed edge moving the rows that cut it
    up the cut axis, visits sum 2^(w+1) (n+1) (|E|+1) cells, w the
    frontier width before each step. Where that exceeds the 2^n (|E|+1)
    cells of one pass over all label sets (dense hosts, whose rows are
    then mostly zero), H comes from that pass. Both count exactly."""
    check_histogram_cap(g.n, cap)
    steps = _transfer_steps(g)
    if not _transfer_pays(g, steps):
        del steps  # so the blocked pass peaks no higher than on its own
        return _blocked_histogram(g)

    def complete(s, ids, edges):
        # no set cuts over |E| edges: no count shifts into the next size
        cuts = sum(_cut(ids, p) for _, p in edges)
        flat = s.reshape(len(s), -1)  # a view: size-major cells of a row
        for k in range(1, len(edges) + 1):
            rows = np.flatnonzero(cuts == k)
            flat[rows, k:] = flat[rows, :-k]
            flat[rows, :k] = 0

    return _transfer(steps, (len(g.edges) + 1,), np.int64, complete)[0]


def uniform_beta_coefficients(hist: np.ndarray, beta) -> np.ndarray:
    """Coefficients c_0..c_n of Z(lam) with activity beta on every edge,
    c_i = sum_c hist[i, c] beta^c by Horner's scheme over the cut counts.
    An array of betas gives one row of coefficients per beta, each equal
    to the one for that beta alone."""
    beta = np.asarray(beta, dtype=np.complex128)
    c = hist.T.astype(np.complex128)
    return np.moveaxis(polyval(c.reshape(c.shape + (1,) * beta.ndim), beta),
                       0, -1)


def polyval(coeffs, z) -> np.ndarray:
    """Evaluate sum_i coeffs[i] z^i (ascending order) by Horner's scheme,
    in the steps numpy's `polyval` takes. Axes of coeffs past the first
    broadcast against z, so stacked rows (coefficients on axis 0) each
    meet their own points."""
    c = np.asarray(coeffs, dtype=np.complex128)
    v = c[-1] + z * 0
    for ci in c[-2::-1]:
        v = ci + v * z
    return v


def _companion_eigvals(p: np.ndarray) -> tuple[np.ndarray, dict]:
    """Eigenvalues of the companion matrix `np.roots` builds from each row
    of p (highest coefficient first, p[:, 0] != 0), by one call on the
    stack, and the LAPACK error of each row that did not converge."""
    k, m = p.shape[0], p.shape[1] - 1
    if m == 0:  # a monomial: its roots are all zero roots
        return np.zeros((k, 0), dtype=np.complex128), {}
    a = np.zeros((k, m, m), dtype=np.complex128)
    a[:, 0] = -p[:, 1:] / p[:, :1]
    a[:, np.arange(1, m), np.arange(m - 1)] = 1
    try:
        return np.linalg.eigvals(a), {}
    except np.linalg.LinAlgError:  # pragma: no cover - LAPACK failure
        eig, failed = np.zeros((k, m), dtype=np.complex128), {}
        for j in range(k):  # the stack fails as a whole: find its rows
            try:
                eig[j] = np.linalg.eigvals(a[j])
            except np.linalg.LinAlgError as exc:
                failed[j] = exc
        return eig, failed


def polynomial_roots(coeffs, tol: float = DEFAULT_RESIDUAL_TOL, *,
                     residuals: bool = False):
    """All roots of sum c_i lam^i via companion-matrix eigenvalues.

    Near-zero leading coefficients (relative to max |c_i|) are stripped
    first so spurious huge roots cannot appear; the companion matrix is
    the one `np.roots` builds, zero roots split off. Each returned root r
    must satisfy |P(r)| <= tol * max|c_i| for the stripped P; the list is
    sorted by (|r|, arg r). With `residuals`, returns (roots, |c(r)|),
    each root's residual against all of c in the same order.

    A (rows, d+1) stack gives a list with one such array per row, each
    equal bit for bit to the row's own. The rows of one stripped degree
    and one count of zero roots share one eigenvalue call on their
    stacked companion matrices (up to 2^20 cells a call) and one Horner
    pass, which serves both the tolerance check and the residuals; the
    error raised is the one of the first failing row. Logs one line per
    call: rows, degrees, eigenvalue calls and worst relative residual.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim > 2:
        raise SchemaError("expected one coefficient row or a stack of rows")
    rows = np.atleast_2d(c)
    if rows.shape[1] == 0:
        raise SchemaError("empty coefficient vector")
    d = rows.shape[1] - 1
    mags = np.abs(rows)
    scale = mags.max(axis=1, initial=0.0)
    ok = np.isfinite(scale) & (scale > 0)
    errors = {int(j): SchemaError("zero polynomial has no defined root set")
              for j in np.flatnonzero(scale == 0)}
    errors.update({int(j): RootConvergenceError(
        "coefficients are not finite: no defined root set")
        for j in np.flatnonzero(~np.isfinite(scale))})
    kept = np.zeros_like(mags, dtype=bool)
    kept[ok] = mags[ok] >= LEADING_STRIP_REL * scale[ok, None]
    deg = np.where(ok, d - np.argmax(kept[:, ::-1], axis=1), 0)
    at_zero = np.argmax(rows != 0, axis=1)  # c_0 = ... = 0: roots at 0
    roots = [np.zeros(0, dtype=np.complex128) for _ in rows]
    resid = [np.zeros(0) for _ in rows]
    worst = np.zeros(len(rows))
    calls = 0
    live = np.flatnonzero(deg > 0)
    keys, group = np.unique(deg[live] * (d + 1) + at_zero[live],
                            return_inverse=True)
    for g, key in enumerate(keys.tolist()):
        dg, z = divmod(key, d + 1)
        idx = live[group == g]
        step = max(1, (1 << _BLOCK_BITS) // max(1, (dg - z) ** 2))
        for part in np.split(idx, range(step, len(idx), step)):
            eig, failed = _companion_eigvals(rows[part, z:dg + 1][:, ::-1])
            calls += int(dg > z)
            for j, exc in failed.items():
                errors[int(part[j])] = RootConvergenceError(
                    f"eigenvalue iteration failed: {exc}")
            r = np.concatenate([eig, np.zeros((len(part), z), eig.dtype)],
                               axis=1)
            # an overflow leaves an inf or NaN residual, which fails below
            with np.errstate(over="ignore", invalid="ignore"):
                mag = np.abs(polyval(rows[part, :dg + 1].T[..., None], r))
                full = (mag if dg == d
                        else np.abs(polyval(rows[part].T[..., None], r)))
            worst[part] = mag.max(axis=1) / scale[part]
            for j in part[~(mag <= tol * scale[part, None]).all(axis=1)]:
                errors.setdefault(int(j), RootConvergenceError(
                    f"root residual {worst[j]:.3e} above tolerance"
                    f" {tol:.1e} (relative)"))
            for j, rj, fj in zip(part, r, full):
                order = sorted(range(dg), key=lambda i: (
                    abs(rj[i]), cmath.phase(rj[i])))
                roots[j], resid[j] = rj[order], fj[order]
    log.info("roots: %d rows, degrees %s, %d eigenvalue calls, worst"
             " relative residual %.3e", len(rows),
             "/".join(map(str, np.unique(deg[ok]).tolist())), calls,
             worst.max(initial=0.0))
    if errors:
        raise errors[min(errors)]
    if c.ndim < 2:
        roots, resid = roots[0], resid[0]
    return (roots, resid) if residuals else roots


@dataclass(frozen=True)
class ZeroReport:
    """Exact coefficients, all roots, per-root residuals, circle deviation."""

    coefficients: np.ndarray
    roots: np.ndarray
    residuals: np.ndarray
    max_circle_deviation: float


def _circle_report(c, roots: np.ndarray, resid: np.ndarray) -> ZeroReport:
    dev = float(np.max(np.abs(np.abs(roots) - 1.0))) if roots.size else 0.0
    return ZeroReport(c, roots, resid, dev)


def coefficient_zeros(c, residual_tol: float = DEFAULT_RESIDUAL_TOL):
    """Residual-checked roots of sum c_i lam^i and their largest distance
    from the unit circle. A (rows, d+1) stack, such as the rows of
    `uniform_beta_coefficients` over a beta grid, gives a list with one
    report per row, each equal to the row's own, from one call of
    `polynomial_roots`."""
    roots, resid = polynomial_roots(c, tol=residual_tol, residuals=True)
    if np.ndim(c) < 2:
        return _circle_report(c, roots, resid)
    return [_circle_report(*row) for row in zip(np.asarray(c), roots, resid)]


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
