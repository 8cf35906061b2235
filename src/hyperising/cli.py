"""Command-line surface: JSON reports on stdout, logs on stderr.

Exit codes: 0 success; 1 malformed input (file, schema, flag values);
2 refusal of a well-formed request (|lambda| on the unit circle, a cap
would be exceeded, Z or its power sums overflow double precision, or a
numerical certification failed).

Each command takes only the shared flags it reads (COMMAND --help lists
them), each mirrored by an environment variable with the HYPERISING_
prefix (flags win), e.g. HYPERISING_M_CAP for --m-cap; a command ignores
the variables of flags it does not take.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import hashlib
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .coefficients import elementary_to_coefficients
from .errors import CapError, HyperIsingError, SchemaError
from .hypergraph import Hypergraph, parse_hypergraph
from .instances import random_regular_graph
from .leeyang import (
    DEFAULT_CIRCLE_TOL,
    check_activity_ranges,
    ising_ly_range,
    off_circle_witness,
    verify_zeros_on_circle,
)
from .oracle import (
    DEFAULT_RESIDUAL_TOL,
    DEFAULT_VERTEX_CAP,
    check_histogram_cap,
    coefficient_zeros,
    cut_histogram,
    exact_coefficients,
    exact_multivariate,
    polyval,
    uniform_beta_coefficients,
)
from .subgraphs import DEFAULT_SET_CAP, count_bound, enumerate_connected
from .taylor import DEFAULT_ORDER_CAP, PartitionEstimator

log = logging.getLogger("hyperising")

ENV_PREFIX = "HYPERISING_"
# root work a sweep grid may ask for, steps x (n + 1)^2 cells, as a row's
# roots cost about 0.5-0.6 us a cell: at the bound a cubic host takes
# 8.9-9.3 s of CPU and at most 153 MB at n = 18, 24 and 48 (2-CPU VM)
SWEEP_GRID_CELLS = 15 << 20


class CliInputError(Exception):
    """Bad command line or input document; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)


def _env(name: str, cast, fallback):
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as exc:
        raise CliInputError(f"bad {ENV_PREFIX}{name}={raw!r}: {exc}") from exc


def tolerance(text: str) -> float:
    """A finite tolerance >= 0: NaN would switch its check off silently,
    and a negative one fails every row."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, not {text!r}")
    return value


def cap(text: str) -> int:
    """A cap, an integer >= 0: a negative one would refuse every request
    as if it were too large."""
    value = int(text)
    if value < 0:
        raise ValueError(f"cap must be an integer >= 0, not {text!r}")
    return value


def parse_lambda(text: str) -> complex:
    """Accept "re" or "re,im" with scientific notation, both finite."""
    parts = text.split(",")
    try:
        if len(parts) in (1, 2):
            lam = complex(*map(float, parts))
            if cmath.isfinite(lam):
                return lam
            raise CliInputError(f"activity must be finite, got {text!r}")
    except ValueError:
        pass
    raise CliInputError(f"cannot parse activity {text!r}; expected re or re,im")


def _cnum(z: complex) -> list[float | None]:
    """[re, im], a non-finite component as null, so reports stay strict
    JSON."""
    return [x if math.isfinite(x) else None
            for x in (float(z.real), float(z.imag))]


def _load_input(path: str) -> tuple[Hypergraph, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliInputError(f"cannot read input {path!r}: {exc}") from exc
    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"input {path!r} is not valid JSON: {exc}") from exc
    return parse_hypergraph(doc), digest


# shared flags, flag -> (type, default, help); each command declares
# the ones it reads, each defaults to None when parsed, and _apply_env
# fills it from HYPERISING_<FLAG> or the default
_GLOBAL_FLAGS = {
    "--threads": (int, 1, "echoed in the report; sweep runs on one thread"),
    "--m-cap": (cap, DEFAULT_ORDER_CAP, "cap on the coefficient-table order"),
    "--memory-cap": (cap, DEFAULT_SET_CAP,
                     "cap on stored connected label sets, singletons too"),
    "--oracle-cap": (cap, DEFAULT_VERTEX_CAP,
                     "vertex cap for exact enumeration"),
    "--tol-circle": (tolerance, DEFAULT_CIRCLE_TOL,
                     "allowed deviation of |root| from 1"),
    "--tol-residual": (tolerance, DEFAULT_RESIDUAL_TOL,
                       "allowed |P(r)| / sum |c_i| |r|^i at each root r"),
    "--seed": (int, 0, "seed for generated instances"),
}


def _shared_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        cast, _, text = _GLOBAL_FLAGS[flag]
        p.add_argument(flag, type=cast, help=text)
    p.add_argument("--verbose", "-v", action="store_true",
                   help="stage logging on stderr")


def _apply_env(args) -> None:
    """Fill each shared flag of the parsed command that is not given on
    the command line from its environment variable, so a flag wins even
    over a malformed one."""
    for flag, (cast, default, _) in _GLOBAL_FLAGS.items():
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest, default) is None:  # absent when not taken
            setattr(args, dest, _env(dest.upper(), cast, default))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: it holds no per-call state, since
    `_apply_env` reads the HYPERISING_ variables after each parse."""
    parser = _Parser(prog="hyperising", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approx", help="estimate of Z(lambda): truncated series,"
                                      " or the polynomial once m >= n")
    p.add_argument("input")
    p.add_argument("--lambda", dest="lam", required=True, metavar="RE[,IM]")
    p.add_argument("--epsilon", type=float, required=True)
    _shared_flags(p, "--m-cap", "--memory-cap")

    p = sub.add_parser("exact", help="brute-force Z(lambda) and coefficients")
    p.add_argument("input")
    p.add_argument("--lambda", dest="lam", required=True, metavar="RE[,IM]")
    p.add_argument("--multivariate", metavar="RE[,IM];RE[,IM];...",
                   help="per-vertex activities (Ising edges only)")
    _shared_flags(p, "--oracle-cap")

    p = sub.add_parser("zeros", help="root locations of the exact polynomial")
    p.add_argument("input")
    _shared_flags(p, "--oracle-cap", "--tol-circle", "--tol-residual")

    p = sub.add_parser("check-range", help="per-edge activity range verdicts")
    p.add_argument("input")
    _shared_flags(p)

    p = sub.add_parser("enumerate", help="connected label sets up to size t")
    p.add_argument("input")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--emit-sets", action="store_true")
    _shared_flags(p, "--memory-cap")

    p = sub.add_parser("coeffs", help="power sums and polynomial coefficients")
    p.add_argument("input")
    p.add_argument("--m", type=int, required=True)
    _shared_flags(p, "--m-cap", "--memory-cap")

    p = sub.add_parser("tight-example",
                       help="off-circle zero witness for out-of-range beta")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    _shared_flags(p, "--tol-circle", "--tol-residual")

    p = sub.add_parser("sweep", help="circle deviation over an activity grid")
    p.add_argument("input", nargs="?")
    p.add_argument("--random-regular", metavar="N,DEGREE",
                   help="generate the host from --seed instead of a file")
    p.add_argument("--beta-from", type=float, required=True)
    p.add_argument("--beta-to", type=float, required=True)
    p.add_argument("--steps", type=int, default=21)
    _shared_flags(p, "--oracle-cap", "--tol-circle", "--tol-residual",
                  "--seed", "--threads")

    return parser


def _report(command: str, digest: str | None, parameters: dict, result,
            guarantee, timings: dict) -> dict:
    return {
        "command": command,
        "input_digest": digest,
        "parameters": parameters,
        "result": result,
        "guarantee": guarantee,
        "timings": {k: round(v, 6) for k, v in timings.items()},
    }


def _cmd_approx(args) -> dict:
    t0 = time.perf_counter()
    g, digest = _load_input(args.input)
    lam = parse_lambda(args.lam)
    t1 = time.perf_counter()
    est = PartitionEstimator(g, order_cap=args.m_cap, set_cap=args.memory_cap)
    approx = est.approximate(lam, args.epsilon)
    t2 = time.perf_counter()
    result = {
        "m": approx.order,
        "evaluation": approx.evaluation,
        "lambda": _cnum(approx.lam),
        "lambda_effective": _cnum(approx.lam_effective),
        "inverted": approx.inverted,
        "log_z_estimate": _cnum(approx.log_estimate),
        "z_estimate": _cnum(approx.value),
        "bound": approx.bound,
        "epsilon": approx.epsilon,
        "guaranteed": approx.guaranteed,
    }
    params = {
        "lambda": _cnum(lam),
        "epsilon": args.epsilon,
        "m_cap": args.m_cap,
        "memory_cap": args.memory_cap,
    }
    return _report("approx", digest, params, result, approx.guaranteed,
                   {"parse": t1 - t0, "approximate": t2 - t1})


def _cmd_exact(args) -> dict:
    t0 = time.perf_counter()
    g, digest = _load_input(args.input)
    lam = parse_lambda(args.lam)
    t1 = time.perf_counter()
    coeffs = exact_coefficients(g, cap=args.oracle_cap)
    result = {
        "z": _cnum(complex(polyval(coeffs, lam))),
        "coefficients": [_cnum(c) for c in coeffs],
    }
    if args.multivariate is not None:
        lams = [parse_lambda(s) for s in args.multivariate.split(";") if s]
        result["z_multivariate"] = _cnum(
            exact_multivariate(g, lams, cap=args.oracle_cap))
    for key in ("z", "z_multivariate"):
        if None in result.get(key, ()):
            raise HyperIsingError(
                f"{key} overflows double precision on {g.n} vertices")
    t2 = time.perf_counter()
    params = {"lambda": _cnum(lam), "oracle_cap": args.oracle_cap}
    return _report("exact", digest, params, result, None,
                   {"parse": t1 - t0, "enumerate": t2 - t1})


def _cmd_zeros(args) -> dict:
    t0 = time.perf_counter()
    g, digest = _load_input(args.input)
    t1 = time.perf_counter()
    cert = verify_zeros_on_circle(g, circle_tol=args.tol_circle,
                                  residual_tol=args.tol_residual,
                                  cap=args.oracle_cap)
    t2 = time.perf_counter()
    result = {
        "coefficients": [_cnum(c) for c in cert.report.coefficients],
        "roots": [_cnum(r) for r in cert.report.roots],
        "residuals": [float(r) for r in cert.report.residuals],
        "max_circle_deviation": cert.report.max_circle_deviation,
        "in_range": cert.ranges.all_pass,
        "on_circle": cert.on_circle,
        "certified": cert.certified,
    }
    params = {"tol_circle": args.tol_circle, "tol_residual": args.tol_residual,
              "oracle_cap": args.oracle_cap}
    return _report("zeros", digest, params, result, cert.certified,
                   {"parse": t1 - t0, "roots": t2 - t1})


def _cmd_check_range(args) -> dict:
    t0 = time.perf_counter()
    g, digest = _load_input(args.input)
    t1 = time.perf_counter()
    check = check_activity_ranges(g)
    result = {"edges": [dataclasses.asdict(v) for v in check.edges],
              "all_pass": check.all_pass}
    t2 = time.perf_counter()
    return _report("check-range", digest, {}, result, result["all_pass"],
                   {"parse": t1 - t0, "check": t2 - t1})


def _cmd_enumerate(args) -> dict:
    t0 = time.perf_counter()
    g, digest = _load_input(args.input)
    if args.t < 1:
        raise CliInputError("--t must be >= 1")
    t1 = time.perf_counter()
    fam = enumerate_connected(g, args.t, set_cap=args.memory_cap)
    t2 = time.perf_counter()
    counts = fam.counts()
    bounds = {}
    degree, esize = g.max_degree, g.max_edge_size
    for t in range(2, args.t + 1):
        if degree >= 1 and esize >= 1:
            b = count_bound(g.n, degree, esize, t)
            bounds[str(t)] = {"bound": b if math.isfinite(b) else None,
                              "count": counts.get(t, 0),
                              "respected": counts.get(t, 0) <= b}
    result = {
        "counts": {str(k): v for k, v in counts.items()},
        "count_bounds": bounds,
    }
    if args.emit_sets:
        result["sets"] = {
            str(s): fam.sets_of_size(s).tolist()
            for s in range(1, fam.t_max + 1)
        }
    params = {"t": args.t, "memory_cap": args.memory_cap}
    return _report("enumerate", digest, params, result, None,
                   {"parse": t1 - t0, "enumerate": t2 - t1})


def _cmd_coeffs(args) -> dict:
    t0 = time.perf_counter()
    g, digest = _load_input(args.input)
    if args.m < 1:
        raise CliInputError("--m must be >= 1")
    t1 = time.perf_counter()
    est = PartitionEstimator(g, order_cap=args.m_cap, set_cap=args.memory_cap)
    p = est.power_sums_up_to(args.m)
    e = est.elementary()
    e = (e + [0.0 + 0.0j] * (args.m - len(e)))[: args.m]
    t2 = time.perf_counter()
    result = {
        "power_sums": [_cnum(x) for x in p],
        "elementary": [_cnum(x) for x in e],
        "coefficients": [_cnum(c) for c in elementary_to_coefficients(e)],
    }
    params = {"m": args.m, "m_cap": args.m_cap, "memory_cap": args.memory_cap}
    return _report("coeffs", digest, params, result, None,
                   {"parse": t1 - t0, "tables": t2 - t1})


def _cmd_tight_example(args) -> dict:
    t0 = time.perf_counter()
    witness = off_circle_witness(args.k, args.beta, circle_tol=args.tol_circle,
                                 residual_tol=args.tol_residual)
    t1 = time.perf_counter()
    rng = ising_ly_range(args.k)
    result = {
        "k": witness.k,
        "beta": witness.beta,
        "range": [rng.lo, rng.hi],
        "edge_size_used": witness.edge_size_used,
        "polynomial": [_cnum(c) for c in witness.polynomial],
        "witness_root": _cnum(witness.witness_root),
        "residual": witness.residual,
        "circle_deviation": witness.circle_deviation,
        "sign_change": list(witness.sign_change) if witness.sign_change else None,
        "bracket_root": witness.bracket_root,
    }
    params = {"k": args.k, "beta": args.beta, "tol_circle": args.tol_circle,
              "tol_residual": args.tol_residual}
    return _report("tight-example", None, params, result, None,
                   {"witness": t1 - t0})


def _cmd_sweep(args) -> dict:
    t0 = time.perf_counter()
    if (args.input is None) == (args.random_regular is None):
        raise CliInputError("provide an input file or --random-regular, not both")
    if args.steps < 1:
        raise CliInputError("--steps must be >= 1")
    if not (math.isfinite(args.beta_from) and math.isfinite(args.beta_to)):
        raise CliInputError("--beta-from and --beta-to must be finite")
    if args.input is not None:
        g, digest = _load_input(args.input)
    else:
        try:
            n, degree = (int(x) for x in args.random_regular.split(","))
        except ValueError as exc:
            raise CliInputError("--random-regular expects N,DEGREE") from exc
        check_histogram_cap(n, args.oracle_cap)
        import random

        g = random_regular_graph(random.Random(args.seed), n, degree, 0.5)
        digest = None
    if args.steps * (g.n + 1) ** 2 > SWEEP_GRID_CELLS:
        raise CapError(f"a grid of {args.steps} x {g.n + 1}^2 root cells is"
                       f" above the cap {SWEEP_GRID_CELLS}")
    t1 = time.perf_counter()
    hist = cut_histogram(g, cap=args.oracle_cap)
    # each row puts its beta on every edge: one range per edge size
    ranges = [ising_ly_range(k) for k in {e.size for e in g.edges}]
    betas = np.linspace(args.beta_from, args.beta_to, args.steps)
    grid = uniform_beta_coefficients(hist, betas)
    overflow = ~np.isfinite(grid).all(axis=1)
    if overflow.any():
        raise HyperIsingError(
            f"the coefficients at beta={betas[np.argmax(overflow)]:g}"
            f" overflow double precision on {g.n} vertices")
    reports = coefficient_zeros(grid, residual_tol=args.tol_residual)
    rows = [{
        "beta": float(beta),
        "in_range": all(r.contains(beta) for r in ranges),
        "max_circle_deviation": report.max_circle_deviation,
        "on_circle": report.max_circle_deviation <= args.tol_circle,
    } for beta, report in zip(betas, reports)]
    t2 = time.perf_counter()
    params = {"beta_from": args.beta_from, "beta_to": args.beta_to,
              "steps": args.steps, "threads": args.threads,
              "seed": args.seed, "tol_circle": args.tol_circle}
    return _report("sweep", digest, params, {"rows": rows}, None,
                   {"setup": t1 - t0, "sweep": t2 - t1})


_HANDLERS = {
    "approx": _cmd_approx,
    "exact": _cmd_exact,
    "zeros": _cmd_zeros,
    "check-range": _cmd_check_range,
    "enumerate": _cmd_enumerate,
    "coeffs": _cmd_coeffs,
    "tight-example": _cmd_tight_example,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_env(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # this call's level, and a handler on this call's stderr that alone
    # writes the records, all undone on return: a process may run many calls
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level, propagate = log.level, log.propagate
    log.addHandler(handler)
    log.setLevel(logging.INFO if args.verbose else logging.WARNING)
    log.propagate = False
    try:
        return _run(args)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
        log.propagate = propagate


def _run(args) -> int:
    start = time.perf_counter()
    try:
        # an overflow is refused by the handler, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            report = _HANDLERS[args.command](args)
    except (CliInputError, SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HyperIsingError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an allocation no cap predicted
        print(f"refused: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    report["timings"]["total"] = round(time.perf_counter() - start, 6)
    # strict JSON: a NaN or infinity anywhere raises before any output
    text = json.dumps(report, indent=2, allow_nan=False)
    sys.stdout.write(text + "\n")
    log.info("%s finished in %.3fs", args.command, time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
