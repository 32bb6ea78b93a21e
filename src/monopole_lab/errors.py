"""The library's exceptions: one class for each failure a caller acts on.

ConfigError is a run configuration the CLI refuses (exit 2).  GeometryError
is a geometry the library will not build a system from: a quartic without
four simple real roots, roots that do not sum to zero, parameters outside
the admissible regime, a quartic that is not even; the CLI reports it as a
config error (exit 2).  DegeneratePoint is a point outside a chart or a
domain, or on a degeneracy locus: coordinates that collide or leave their
range, a stencil or sample off the chart, a Coulomb centre of the two-centre
flow.  SeriesNotResolved is a turning-point series that does not reach
spectral accuracy, FixedPointSingularity a state at a coordinate fixed point
of the torus flow, StepRejected an adaptive step whose size underflowed.
The CLI exits 1 on each of these and on any other MonopoleLabError.  The
step control retries only FixedPointSingularity (with a smaller step); every
other error of a stage ends the step.
"""


class MonopoleLabError(Exception):
    """Base class for all library errors."""


class ConfigError(MonopoleLabError):
    """Invalid or inconsistent run configuration."""


class GeometryError(MonopoleLabError):
    """Geometry parameters the library refuses to build a system from."""


class DegeneratePoint(MonopoleLabError):
    """Point outside a chart or domain, or on a degeneracy locus."""


class SeriesNotResolved(MonopoleLabError):
    """A turning-point series did not reach spectral accuracy (nearly degenerate parameters)."""


class FixedPointSingularity(MonopoleLabError):
    """State too close to a coordinate fixed point (1/(Q1^2-Q2^2) blows up)."""


class StepRejected(MonopoleLabError):
    """Adaptive step size underflowed without meeting the error tolerance."""
