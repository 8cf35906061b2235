"""Exception hierarchy shared across the package.

CLI exit-code mapping: SchemaError and bad flag values are input errors
(exit 1); every other HyperIsingError (the caps, UnitCircleError,
RootConvergenceError, an overflow of Z, of its power sums or of a
witness polynomial) is a refusal of a well-formed request (exit 2).

Every cap, the coefficient tables' subset index of one size (1 GiB of
int32) among them, is refused by `check_cap` before the work it bounds,
in one form that names the stage and quantity: "{what}: {amount} above
the cap {cap}". CapError has no subclasses: library callers catch it.
"""


class HyperIsingError(Exception):
    """Base class for all package errors."""


class SchemaError(HyperIsingError):
    """Malformed input document or invalid constructor arguments."""


class CapError(HyperIsingError):
    """A configured resource cap would be exceeded."""


def check_cap(what: str, amount: int, cap: int) -> None:
    """Refuse `amount` of `what` above `cap`: the package's one raise of
    CapError."""
    if amount > cap:
        raise CapError(f"{what}: {amount} above the cap {cap}")


class UnitCircleError(HyperIsingError):
    """Vertex activity on (or numerically on) the excluded unit circle."""


class RootConvergenceError(HyperIsingError):
    """Root finder failed to converge or residuals exceed tolerance."""
