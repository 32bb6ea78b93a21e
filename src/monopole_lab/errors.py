"""Exception hierarchy shared by all modules."""


class MonopoleLabError(Exception):
    """Base class for all library errors."""


class ConfigError(MonopoleLabError):
    """Invalid or inconsistent run configuration."""


# --- quartic root analysis ---------------------------------------------------

class FewerThanFourRealRoots(MonopoleLabError):
    """The quartic does not have four real roots."""


class MultipleRootDetected(MonopoleLabError):
    """Discriminant too small: (nearly) multiple roots, use the limit-case API."""


class NonZeroRootSum(MonopoleLabError):
    """Root quadruple does not sum to zero (cubic term would not vanish)."""


# --- elliptic engine ----------------------------------------------------------

class InadmissibleParams(MonopoleLabError):
    """Quartic parameters outside the admissible regime."""


class NotEvenQuartic(MonopoleLabError):
    """Operation requires a vanishing linear coefficient (a0 = 0)."""


class OutOfRange(MonopoleLabError):
    """Argument outside the branch interval."""


class SeriesNotResolved(MonopoleLabError):
    """A turning-point series did not reach spectral accuracy (nearly degenerate parameters)."""


# --- geometry -----------------------------------------------------------------

class DegenerateCoordinates(MonopoleLabError):
    """Coordinates collide (q1 = q2): metric expression degenerates."""


class WrongSignature(MonopoleLabError):
    """Metric components are not both positive."""


class DegeneratePoint(MonopoleLabError):
    """Point on the degeneracy locus of the metric."""


class StencilOutsideChart(MonopoleLabError):
    """Finite-difference stencil leaves the valid chart."""


class ChartOverflow(MonopoleLabError):
    """Argument outside the fixed-point chart radius."""


class InterlacingViolated(MonopoleLabError):
    """Elliptic coordinates do not interlace the constants alpha."""


class AxisPoint(MonopoleLabError):
    """Cartesian point on a coordinate axis: elliptic coordinates degenerate."""


class NonPositiveCoordinate(MonopoleLabError):
    """Hyperbolic chart requires strictly positive inputs."""


# --- fields -------------------------------------------------------------------

class NegativeRadicand(MonopoleLabError):
    """f(q1) f(q2) > 0: point outside the coordinate strip."""


class OutsideChart(MonopoleLabError):
    """Point outside the chart on which the gauge is defined."""


# --- dynamics -----------------------------------------------------------------

class FixedPointSingularity(MonopoleLabError):
    """State too close to a coordinate fixed point (1/(Q1^2-Q2^2) blows up)."""


class StepRejected(MonopoleLabError):
    """Adaptive step size underflowed without meeting the error tolerance."""


class CenterSingularity(MonopoleLabError):
    """State at one of the two Coulomb centers (R(q) = 0)."""


# --- verification -------------------------------------------------------------

class GridTooSmall(MonopoleLabError):
    """Grid has too few interior points for the requested stencil."""


class SingularSample(MonopoleLabError):
    """Sample point hits a zero of the underlying quadratic."""


class FunctionalDomainError(MonopoleLabError):
    """Sample outside the domain of the functional-equation case."""
