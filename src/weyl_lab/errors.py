"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration/precondition problems -> 2,
the enumeration cap -> 3, numeric failures and replay mismatches -> 1.
"""


class WeylLabError(Exception):
    """Base class for all package errors."""


class DomainError(WeylLabError, ValueError):
    """An argument lies outside the operation's domain."""


class PreconditionError(WeylLabError, ValueError):
    """A documented operation precondition is violated."""


class SpectrumError(PreconditionError):
    """lambda is within tolerance of an eigenvalue; shift lambda and retry."""


class CutLocusError(PreconditionError):
    """Shortest lattice representative is not unique (cut locus)."""

    def __init__(self, message, ties):
        super().__init__(message)
        self.ties = ties  # list of tied representatives


class ResourceLimitError(WeylLabError, RuntimeError):
    """An enumeration or table would exceed `lattice.ENUM_CAP`; raised by
    `lattice.check_cap` alone."""


class QuadratureError(WeylLabError, ArithmeticError):
    """A quadrature failed to converge; message carries diagnostics."""


class ReplayError(WeylLabError):
    """A replayed manifest does not reproduce the CSV it recorded."""
