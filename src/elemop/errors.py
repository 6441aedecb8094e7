"""Exception types shared across the package."""


class ElemopError(Exception):
    """Base class for all package errors."""


class ShapeError(ElemopError):
    """Operands have incompatible shapes; nothing is ever coerced."""


class DomainError(ElemopError):
    """Input is outside the domain of the operation (zero polynomial,
    singular matrix, float literal, zero sampling height, ...)."""


class RankError(ElemopError):
    """A rank-one factorization was requested for a matrix of different rank."""

    def __init__(self, actual_rank: int):
        super().__init__(f"matrix has rank {actual_rank}, expected rank 1")
        self.actual_rank = actual_rank


class BasisError(ElemopError):
    """The supplied matrices do not form a basis of the required space."""


class PreconditionError(ElemopError):
    """A checked mathematical precondition failed; the message names it."""


class ContractError(ElemopError):
    """The caller violated an operation contract (wrong length, wrong
    dimension, non-nilpotent input where nilpotency is required)."""


class DimensionError(ElemopError):
    """The requested construction does not exist at this dimension."""


class InconsistencyError(ElemopError):
    """An internally certified invariant failed.  This never signals bad
    input; it signals a bug upstream and is raised loudly on purpose."""


class UnsupportedLengthError(ElemopError):
    """The `classify` command takes operators of length at most three."""

    def __init__(self, length: int):
        super().__init__(f"classification is only supported up to length 3, got {length}")
        self.length = length


class FormatError(ElemopError):
    """A serialized file is malformed; the message names the offending field."""
