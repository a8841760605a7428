"""Exception hierarchy shared by all polyharm modules."""


class PolyharmError(Exception):
    """Base class for all polyharm errors."""


# -- combinatorial / mesh errors ------------------------------------------

class MixedDimension(PolyharmError):
    """Top simplices of unequal vertex count."""


class DuplicateSimplex(PolyharmError):
    """The same top simplex listed twice."""


class Disconnected(PolyharmError):
    """The 1-skeleton is not path connected."""


class DanglingVertexRef(PolyharmError):
    """A simplex references a vertex id that does not exist."""


class UnknownSimplex(PolyharmError):
    """Queried simplex is not in the face lattice."""


class UnknownVertex(PolyharmError):
    """Queried vertex id does not exist."""


class NotAdmissible(PolyharmError):
    """Operation requires an admissible complex."""


class PointOffComplex(PolyharmError):
    """Barycentric address does not describe a point of the complex."""


class DegenerateSimplex(PolyharmError):
    """Simplex has zero volume in its embedding."""


# -- metric / linear algebra errors ---------------------------------------

class NotSPD(PolyharmError):
    """Matrix expected to be symmetric positive definite is not."""


class TargetMetricSingular(PolyharmError):
    """Target metric is singular at an image point."""


class SingularSystem(PolyharmError):
    """Linear system has no unique solution."""


class MissingBoundaryValues(PolyharmError):
    """Dirichlet data required but absent."""


class NonConvergence(PolyharmError):
    """Iterative solver failed to reach tolerance.

    Carries the residual history in ``history``.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


# -- analytic map errors ---------------------------------------------------

class PoleAtPoint(PolyharmError):
    """Map is not finite at the requested point."""


class NotHolomorphic(PolyharmError):
    """Map fails the Cauchy-Riemann pre-check."""


class ImageLeftChart(PolyharmError):
    """Map image left the single chart of the target."""


class ChartBoundary(PolyharmError):
    """Point outside the chart domain of the target."""


class BallLeavesSimplex(PolyharmError):
    """Metric ball around the base point is not contained in one simplex."""


class NonpositiveEpsilon(PolyharmError):
    """Ball radius must be positive."""


class DimensionMismatch(PolyharmError):
    """Arrays or maps with incompatible dimensions."""


# -- gallery / covering errors ---------------------------------------------

class DegreeMismatch(PolyharmError):
    """Homogeneous polynomial pair with unequal degrees."""


class ZeroDenominatorPolynomial(PolyharmError):
    """Denominator polynomial is identically zero."""


class NotACovering(PolyharmError):
    """Projection data is not an isometric simplicial covering."""


class UnknownSpec(PolyharmError):
    """Unrecognised construction name."""


# -- CLI --------------------------------------------------------------------

class NonFiniteReport(PolyharmError):
    """A report holds NaN or an infinity, which JSON cannot represent."""


class UsageError(PolyharmError):
    """Bad command line, malformed input file or invalid option value."""
