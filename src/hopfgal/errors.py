"""Exception hierarchy shared by all modules, and the default dimension bound.

Every failed law, wherever its data enters, raises AxiomError, which the
CLI reports with exit 1.
"""

# the per-level dimension bound when neither --max-dim nor HOPFGAL_MAX_DIM sets one
DEFAULT_MAX_DIM = 5000


class HopfgalError(Exception):
    """Base class for every error raised by this package."""


class FormatError(HopfgalError):
    """Malformed structure-constant data or input file."""


class UnsupportedDomainError(HopfgalError):
    """Operation requires a different scalar domain."""


class DomainMismatchError(HopfgalError):
    """Operands live over different scalar domains."""


class ShapeError(HopfgalError):
    """Dimensions of matrices or tensors do not match."""


class SingularMatrixError(HopfgalError):
    """Inversion of a rank-deficient matrix; carries the computed rank."""

    def __init__(self, message, rank):
        super().__init__(message)
        self.rank = rank


class AxiomError(HopfgalError):
    """A law failed where its data entered; carries its name and a witness."""

    def __init__(self, check, witness, message=None):
        super().__init__(message or f"{check} fails at {witness!r}")
        self.check = check
        self.witness = witness


class PreconditionError(HopfgalError):
    """A documented precondition of an operation does not hold."""


class ResourceBoundError(HopfgalError):
    """A configured dimension or level bound would be exceeded."""
