"""Deterministic approximation of two-spin hypergraph partition functions
and numerical certification of unit-circle zero locations."""

__version__ = "0.1.0"

from .coefficients import (
    CoefficientTable,
    compute_coefficient_tables,
    elementary_to_coefficients,
    extend_power_sums,
    power_sums,
    power_sums_to_elementary,
)
from .errors import (
    CapError,
    HyperIsingError,
    MemoryCapError,
    OracleCapError,
    OrderCapError,
    RootConvergenceError,
    SchemaError,
    UnitCircleError,
)
from .hypergraph import (
    Hyperedge,
    Hypergraph,
    IsingActivity,
    TableActivity,
    hypergraph_to_doc,
    parse_hypergraph,
)
from .leeyang import (
    CircleCertificate,
    LYRange,
    RangeCheck,
    TightWitness,
    check_activity_ranges,
    disk_product_real_extremes,
    ising_ly_range,
    off_circle_witness,
    suzuki_fisher_check,
    verify_zeros_on_circle,
    witness_polynomial,
)
from .oracle import (
    ZeroReport,
    exact_coefficients,
    exact_multivariate,
    exact_partition,
    polynomial_roots,
    zero_report,
)
from .subgraphs import (
    ConnectedFamily,
    count_bound,
    enumerate_connected,
)
from .taylor import (
    PartitionEstimator,
    TaylorApproximation,
    truncated_log_partition,
    truncation_bound,
    truncation_order,
)

__all__ = [name for name in dir() if not name.startswith("_")]
