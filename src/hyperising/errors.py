"""Exception hierarchy shared across the package.

CLI exit-code mapping: SchemaError and bad flag values are input errors
(exit 1); every other HyperIsingError (the caps, UnitCircleError,
RootConvergenceError, an overflow of Z, of its power sums or of a
witness polynomial) is a refusal of a well-formed request (exit 2).
"""


class HyperIsingError(Exception):
    """Base class for all package errors."""


class SchemaError(HyperIsingError):
    """Malformed input document or invalid constructor arguments."""


class CapError(HyperIsingError):
    """A configured resource cap would be exceeded."""


class OracleCapError(CapError):
    """Exact enumeration requested above the vertex-count cap."""


class MemoryCapError(CapError):
    """Connected-set frontier grew past the configured set cap."""


class OrderCapError(CapError):
    """Required truncation order exceeds the configured cap."""


class UnitCircleError(HyperIsingError):
    """Vertex activity on (or numerically on) the excluded unit circle."""


class RootConvergenceError(HyperIsingError):
    """Root finder failed to converge or residuals exceed tolerance."""
