"""Hypergraphs with two-spin edge activities.

A hypergraph has dense integer vertex ids 0..n-1 and an ordered list of
hyperedges; duplicate hyperedges are allowed and count with multiplicity
in the degree. Each edge carries either a single Ising interaction beta
(weight beta when the edge is cut, 1 when its vertices agree) or a full
table of complex weights indexed by the spin pattern on the edge.

All types are immutable after construction and safe to share across
threads; the operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

from .errors import SchemaError

MINUS_CHARS = "-−"  # accept ASCII hyphen-minus and U+2212 in spin keys


@dataclass(frozen=True)
class IsingActivity:
    """Ising interaction: weight 1 on a constant spin pattern, beta otherwise."""

    beta: float

    def is_symmetric(self, size: int) -> bool:
        # real table, invariant under a global spin flip
        return True

    def table(self, size: int) -> tuple[complex, ...]:
        """Expand to the explicit table over the 2^size spin patterns."""
        one = (complex(1.0),)
        return one + (complex(self.beta),) * ((1 << size) - 2) + one


@dataclass(frozen=True)
class TableActivity:
    """Explicit edge weights phi, one complex value per spin pattern.

    values[b] is the weight of the pattern whose "+" positions are the set
    bits of b, bit j referring to the j-th vertex of the edge in vertex-list
    order. values[0] (the all "-" pattern) must be exactly 1.
    """

    values: tuple[complex, ...]

    def __post_init__(self):
        size = len(self.values).bit_length() - 1
        if len(self.values) != 1 << size or size < 1:
            raise SchemaError("spin table must have 2^|e| entries")
        if self.values[0] != 1:
            raise SchemaError("spin table is not normalized: phi(-,...,-) != 1")

    def is_symmetric(self, size: int) -> bool:
        full = (1 << size) - 1
        return all(
            self.values[b] == self.values[full ^ b].conjugate()
            for b in range(1 << size)
        )

    def table(self, size: int) -> tuple[complex, ...]:
        return self.values


EdgeActivity = Union[IsingActivity, TableActivity]


@dataclass(frozen=True)
class Hyperedge:
    """A hyperedge: sorted duplicate-free vertex tuple plus its activity."""

    vertices: tuple[int, ...]
    activity: EdgeActivity

    def __post_init__(self):
        v = self.vertices
        if len(v) < 2:
            raise SchemaError("hyperedge size must be >= 2")
        if any(v[i] >= v[i + 1] for i in range(len(v) - 1)):
            raise SchemaError("hyperedge vertices must be sorted and duplicate-free")
        if v[0] < 0:
            raise SchemaError("negative vertex id")
        if isinstance(self.activity, TableActivity) and len(
            self.activity.values
        ) != 1 << len(v):
            raise SchemaError("spin table size does not match edge size")

    @property
    def size(self) -> int:
        return len(self.vertices)

    def is_symmetric(self) -> bool:
        return self.activity.is_symmetric(len(self.vertices))


@dataclass(frozen=True)
class Hypergraph:
    """n vertices (ids 0..n-1) and an ordered list of hyperedges."""

    n: int
    edges: tuple[Hyperedge, ...]

    def __post_init__(self):
        if self.n < 0:
            raise SchemaError("vertex count must be non-negative")
        for e in self.edges:
            if e.vertices[-1] >= self.n:
                raise SchemaError(
                    f"vertex id {e.vertices[-1]} out of range for n={self.n}"
                )

    @property
    def max_degree(self) -> int:
        """Max number of incident edges over vertices, counting multiplicity."""
        deg = [0] * self.n
        for e in self.edges:
            for v in e.vertices:
                deg[v] += 1
        return max(deg, default=0)

    @property
    def max_edge_size(self) -> int:
        return max((e.size for e in self.edges), default=0)

    def all_symmetric(self) -> bool:
        return all(e.is_symmetric() for e in self.edges)


def _finite_real(x) -> bool:
    """Whether a decoded JSON value is a number with a finite double value
    (json accepts NaN and Infinity)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the double range
        return False


def _parse_activity(obj: Mapping, place: list[int]) -> EdgeActivity:
    """The edge's activity; the j-th spin of a table key sets bit place[j],
    the position of the edge's j-th listed vertex in its sorted order."""
    size = len(place)
    if ("beta" in obj) == ("phi" in obj):
        raise SchemaError("edge must carry exactly one of 'beta' or 'phi'")
    if "beta" in obj:
        beta = obj["beta"]
        if not _finite_real(beta):
            raise SchemaError("'beta' must be a finite real number")
        return IsingActivity(float(beta))
    phi = obj["phi"]
    if not isinstance(phi, Mapping) or len(phi) != 1 << size:
        raise SchemaError("'phi' must map all 2^|e| spin strings")
    values = [None] * (1 << size)
    for key, val in phi.items():
        if not isinstance(key, str) or len(key) != size:
            raise SchemaError(f"spin key {key!r} has wrong length")
        bits = 0
        for j, ch in enumerate(key):
            if ch == "+":
                bits |= 1 << place[j]
            elif ch not in MINUS_CHARS:
                raise SchemaError(f"spin key {key!r} contains invalid character")
        if values[bits] is not None:
            raise SchemaError(f"duplicate spin key {key!r}")
        if (
            not isinstance(val, (list, tuple))
            or len(val) != 2
            or not all(_finite_real(x) for x in val)
        ):
            raise SchemaError("spin value must be a finite [re, im] pair")
        values[bits] = complex(float(val[0]), float(val[1]))
    return TableActivity(tuple(values))


def parse_hypergraph(doc) -> Hypergraph:
    """Build a canonical Hypergraph from a decoded JSON document.

    Schema: {"n": int, "edges": [{"v": [int,...], "beta": float}
                                 | {"v": [...], "phi": {"++-...": [re,im], ...}}]}
    Spin-table keys follow the order vertices are listed in "v"; each key is
    read straight into the table of the sorted vertex list.
    """
    if not isinstance(doc, Mapping):
        raise SchemaError("input document must be a JSON object")
    unknown = set(doc) - {"n", "edges"}
    if unknown:
        raise SchemaError(f"unknown top-level keys: {sorted(unknown)}")
    n = doc.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise SchemaError("'n' must be a non-negative integer")
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, (list, tuple)):
        raise SchemaError("'edges' must be a list")
    edges = []
    for obj in raw_edges:
        if not isinstance(obj, Mapping):
            raise SchemaError("edge entry must be an object")
        v = obj.get("v")
        if not isinstance(v, (list, tuple)) or any(
            isinstance(x, bool) or not isinstance(x, int) for x in v
        ):
            raise SchemaError("'v' must be a list of integers")
        if len(set(v)) != len(v):
            raise SchemaError(f"duplicate vertex in edge {list(v)}")
        if len(v) < 2:
            raise SchemaError("edge size must be >= 2")
        if any(x < 0 or x >= n for x in v):
            raise SchemaError(f"vertex id out of range in edge {list(v)}")
        ordered = sorted(v)
        activity = _parse_activity(obj, [ordered.index(x) for x in v])
        edges.append(Hyperedge(tuple(ordered), activity))
    return Hypergraph(n, tuple(edges))


def hypergraph_to_doc(g: Hypergraph) -> dict:
    """Inverse of parse_hypergraph (Ising betas stay shorthand)."""
    out = []
    for e in g.edges:
        if isinstance(e.activity, IsingActivity):
            out.append({"v": list(e.vertices), "beta": e.activity.beta})
        else:
            phi = {}
            for bits, val in enumerate(e.activity.values):
                key = "".join("+" if bits >> j & 1 else "-" for j in range(e.size))
                phi[key] = [val.real, val.imag]
            out.append({"v": list(e.vertices), "phi": phi})
    return {"n": g.n, "edges": out}

