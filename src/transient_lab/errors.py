"""Exception hierarchy shared across the library."""


class TransientLabError(Exception):
    """Base class for all library-specific errors."""


class OutOfSupport(TransientLabError):
    """Evaluation requested outside a sampled signal's grid."""


class QuadratureFailure(TransientLabError):
    """A quadrature node evaluated to a non-finite value."""


class SignalVanished(TransientLabError):
    """Too few tail samples above the magnitude floor to fit anything."""


class TooFewSamples(TransientLabError, ValueError):
    """No tail window a fit could read holds enough samples.  It is a
    ValueError, like every refused input, and a library error, so a sweep
    records it as the failure of the one sample set that met it."""


class NonDecaying(TransientLabError):
    """The fitted tail slope is non-negative; the signal does not decay."""


class Diverging(TransientLabError):
    """A fitted quantity leaves the float range or grows where it should not:
    a reweighted tail that grows (an overestimated decay rate), a residual
    that overflows, or Prony amplitudes too large at t = 0."""


class RankDeficient(TransientLabError):
    """The linear-prediction system has no usable rank."""


class GammaPole(TransientLabError):
    """A gamma-function argument hit a non-positive integer."""
