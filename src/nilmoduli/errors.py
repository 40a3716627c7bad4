"""Exception types shared across the package."""


class NilmoduliError(Exception):
    """Base class for all package errors."""


class ParseError(NilmoduliError):
    """Malformed Salamon notation string, or one whose bracket is no Lie
    algebra."""


class SingularMatrix(NilmoduliError):
    """A matrix required to be invertible is (numerically) singular."""


class NotSPD(NilmoduliError):
    """A matrix required to be symmetric positive definite is not."""


class NotNilpotent(NilmoduliError):
    """Lower central series stabilizes at a nonzero subalgebra."""


class DegenerateParams(NilmoduliError):
    """Structured automorphism parameters violate a nondegeneracy condition."""


class Unsupported(NilmoduliError):
    """Operation is only defined for the built-in algebras."""


class AlgebraMismatch(NilmoduliError):
    """Objects tagged with different algebras were combined."""


class InvalidForm(NilmoduliError):
    """Canonical form parameters violate their range constraints; also a
    metric of the wrong shape or with non-finite entries, an unknown form
    tag, and a closed-form Hermitian structure that misses its certificate."""


class InvalidTriple(NilmoduliError):
    """(a, b, c) is not on the unit sphere within tolerance."""


class InvalidParams(NilmoduliError):
    """Parameters outside their admissible range, of a special family or a
    search budget; also a Sigma/G' pair that misses its certificate."""


class CanonicalizationFailed(NilmoduliError):
    """Certificate residual too large; carries the best residual achieved."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class Diverged(NilmoduliError):
    """Nonlinear least-squares residual became non-finite."""
