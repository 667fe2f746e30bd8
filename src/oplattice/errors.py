"""Exception hierarchy.

Two families: `ValidationError` for inputs that violate a documented
contract, and `NumericalError` for computations that cannot complete
reliably at the configured tolerances. The CLI maps them to distinct
exit codes.
"""


class OperatorAlgebraError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(OperatorAlgebraError):
    """An input violates a documented contract."""


class DimensionMismatch(ValidationError):
    """Operands have incompatible shapes or ambient dimensions."""


class NotHermitian(ValidationError):
    """A matrix required to be self-adjoint is not, within tolerance."""


class NotPositive(ValidationError):
    """A density matrix has an eigenvalue below the negative tolerance."""


class NotNormalized(ValidationError):
    """A density matrix does not have unit trace within tolerance."""


class NotProjector(ValidationError):
    """A matrix is not self-adjoint idempotent within tolerance."""


class NotInAlgebra(ValidationError):
    """A matrix does not lie in the span of the given algebra."""


class NotCommutative(ValidationError):
    """An operation defined only for commutative algebras got a noncommutative one."""


class NotOrthogonalFamily(ValidationError):
    """A projector family required to be pairwise orthogonal is not."""


class PreconditionFailed(ValidationError):
    """A stated precondition (for example an order relation) does not hold."""


class NumericalError(OperatorAlgebraError):
    """A computation failed at the configured tolerances; `residual` holds what the failed
    check measured, when it has one."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConvergenceFailed(NumericalError):
    """An iterative limit did not converge within the iteration cap."""


class CenterDiagonalizationFailed(NumericalError):
    """No generic element of the attempted draws exhibited a block structure that passes
    the decomposition's certificate; raised from the last draw's `SectorStructureError`."""


class SectorStructureError(NumericalError):
    """A block decomposition breaks an identity that every *-algebra satisfies.

    Carries what the failed check measured: a `residual` or integer `counts`.
    """

    def __init__(self, message, residual=None, counts=None):
        super().__init__(message, residual)
        self.counts = counts


class TensorFormDefect(SectorStructureError):
    """A transported block deviates from the ``M_n (x) 1_m`` form beyond tolerance."""


class SectorDimensionMismatch(SectorStructureError):
    """The sectors' ``block_size * multiplicity`` do not add up to the ambient dimension."""


class ReducedRankNotDivisible(SectorStructureError):
    """A projector's rank inside a sector is not a multiple of the sector's multiplicity."""
