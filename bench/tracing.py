"""Span tracing for the benchmark's traced run.

The package has no stage hooks yet, so the tracer wraps public functions
from outside, at the module attribute where their caller looks them up
(``hyperising.taylor.compute_coefficient_tables`` is what
``PartitionEstimator`` calls; the name in ``hyperising.coefficients`` is a
different binding). Each call becomes a span with a name, start, end, the
enclosing span as parent, and the operation it belongs to. Spans stay in
memory until the run ends; self time is a span's duration minus the time
covered by its direct children. Span times are CPU seconds of the process,
the clock the benchmark times its operations with.

Work counters are taken at the same boundaries from the arguments and
results of the wrapped calls. They are deterministic: two traced passes
over the same inputs must give identical counters.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _count_sets(tr, args, fam):
    counts = fam.counts()
    tr.counters["subgraphs.sets"] += sum(counts.values())
    for size, c in counts.items():
        if c:
            tr.sets_by_size[size] += c
            tr.maxima["subgraphs.sets_max_size"] = max(
                tr.maxima["subgraphs.sets_max_size"], size)


def _count_tables(tr, args, table):
    tr.counters["coefficients.builds"] += 1
    tr.hosts.add(args[0])
    tr.counters["coefficients.table_entries"] += sum(len(t) for t in table.tables)
    tr.maxima["coefficients.pair_scan_max"] = max(
        tr.maxima["coefficients.pair_scan_max"], max(table.pair_scan_max))


def _count_extend(tr, args, out):
    tr.counters["coefficients.extend_terms"] += max(0, len(out) - len(args[0]))


def _count_order(tr, args, approx):
    tr.counters["taylor.order_m_sum"] += approx.order
    tr.maxima["taylor.order_m_max"] = max(tr.maxima["taylor.order_m_max"],
                                          approx.order)


def _count_states(tr, args, coeffs):
    tr.counters["oracle.states"] += 1 << args[0].n


# (owner, attribute, span name, counter). The owner is a module or a
# class, named by import path; each entry is the lookup its caller makes.
TARGETS = (
    ("hyperising.cli", "main", "cli.main", None),
    ("hyperising.cli", "parse_hypergraph", "hypergraph.parse", None),
    ("hyperising.cli", "random_regular_graph", "instances.random_regular_graph",
     None),
    ("hyperising.cli", "verify_zeros_on_circle", "leeyang.verify_circle", None),
    ("hyperising.leeyang", "check_activity_ranges", "leeyang.check_ranges", None),
    ("hyperising.leeyang", "zero_report", "oracle.zero_report", None),
    ("hyperising.oracle", "exact_coefficients", "oracle.exact_coefficients",
     _count_states),
    ("hyperising.oracle", "polynomial_roots", "oracle.roots", None),
    ("hyperising.taylor:PartitionEstimator", "approximate", "taylor.approximate",
     _count_order),
    ("hyperising.taylor", "check_activity_ranges", "leeyang.check_ranges", None),
    ("hyperising.taylor", "enumerate_connected", "subgraphs.enumerate",
     _count_sets),
    ("hyperising.taylor", "compute_coefficient_tables", "coefficients.tables",
     _count_tables),
    ("hyperising.taylor", "power_sums", "coefficients.power_sums", None),
    ("hyperising.taylor", "power_sums_to_elementary", "coefficients.newton", None),
    ("hyperising.taylor", "extend_power_sums", "coefficients.extend",
     _count_extend),
    ("hyperising.taylor", "truncated_log_partition", "taylor.log_series", None),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []   # [id, parent, name, op, start, end]
        self._stack: list[int] = []
        self.op = None
        self.counters: Counter = Counter()
        self.maxima: Counter = Counter()
        self.sets_by_size: Counter = Counter()
        self.hosts: set = set()

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else None, name, self.op,
               time.process_time(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[5] = time.process_time()
            self._stack.pop()

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Replace every target with its traced wrapper; restore on exit."""
        saved = []
        try:
            for owner_path, attr, name, count in TARGETS:
                owner = _owner(owner_path)
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, count))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def self_times(self) -> list[float]:
        """Self time of each span, indexed like self.spans."""
        own = [end - start for _, _, _, _, start, end in self.spans]
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_seconds(self) -> dict[str, float]:
        """Summed self time per span name."""
        totals: dict[str, float] = defaultdict(float)
        for rec, own in zip(self.spans, self.self_times()):
            totals[rec[2]] += own
        return dict(totals)

    def work_counters(self) -> dict:
        """Every deterministic count of the pass, including span calls."""
        out = dict(self.counters)
        out.update(self.maxima)
        out["coefficients.hosts"] = len(self.hosts)
        out["subgraphs.sets_by_size"] = {
            str(k): v for k, v in sorted(self.sets_by_size.items())}
        out["calls"] = dict(sorted(Counter(rec[2] for rec in self.spans).items()))
        return out

    def dump_spans(self, t0: float) -> list[dict]:
        """Spans as records with times relative to t0."""
        return [
            {"id": sid, "parent": parent, "name": name, "op": op,
             "start": start - t0, "end": end - t0, "self": own}
            for (sid, parent, name, op, start, end), own
            in zip(self.spans, self.self_times())
        ]
