"""Exception hierarchy shared by all covmin modules."""


class CovminError(Exception):
    """Base class for all covmin errors."""


class InputError(CovminError):
    """Malformed user input (CLI exit code 2)."""


class Singular(CovminError):
    """Matrix has determinant zero where a nonsingular one is required."""


class NotFullDimensional(CovminError):
    """Polytope's affine hull is a proper subspace of its ambient space."""


class OriginNotInterior(CovminError):
    """Gauge requested for a polytope without the origin strictly inside."""


class OriginMissing(CovminError):
    """Operation requires the origin to belong to the body."""


class EmptySlice(CovminError):
    """Coordinate slice of the polytope is empty."""


class NonPositiveWeight(CovminError):
    """Weight vector entries must be strictly positive."""


class UnsortedWeights(CovminError):
    """Operation requires the weight vector sorted in ascending order."""


class IndexOutOfRange(CovminError):
    """Covering-minimum index outside the valid range."""


class MissingLambda(CovminError):
    """Successive-minima list too short for the requested chain."""


class NotSymmetric(CovminError):
    """Body is not symmetric about the origin."""


class NotLAB(CovminError):
    """Body is not locally anti-blocking."""


class SliceDegenerate(CovminError):
    """A coordinate slice has lower dimension than the intersection bound needs."""

    def __init__(self, indices, message=""):
        self.indices = tuple(indices)
        super().__init__(message or f"slice at index set {self.indices} is degenerate")


class BudgetExceeded(CovminError):
    """An enumeration or subdivision budget was exceeded (CLI exit code 3)."""


class Inconsistent(CovminError):
    """Certified lower bound exceeds certified upper bound: implementation bug
    (CLI exit code 4)."""
