"""transient_lab: decomposition of finite sums of decaying real exponentials.

The sequential decomposer reads the slowest rate and its coefficient off
the signal's far tail, subtracts the identified term, and repeats; the
orthogonal exponential transform and a classical Prony fit provide
cross-checking baselines with complementary restrictions.
"""

from .decomposer import (DecompositionResult, StoppingPolicy, TermDiagnostics,
                         decompose_exact, decompose_numeric)
from .errors import (Diverging, GammaPole, NonDecaying, OutOfSupport,
                     QuadratureFailure, RankDeficient, SignalVanished,
                     TransientLabError)
from .functionals import (PolynomialNoConstant, correspondence_check,
                          monomial_functional_matrix, rate_functional_matrix,
                          rate_functionals)
from .oet_jacobi import (ExponentialBasis, JacobiParams, build_exponential_basis,
                         check_derivative_recurrence, check_multiplication_recurrence,
                         jacobi_monomial_coeffs, oet_analyze, orthogonality_closed_form,
                         orthogonality_integral)
from .prony_baseline import PronyModel, prony_fit, vandermonde_condition
from .quadrature import QuadratureConfig, integrate_semi_infinite
from .signal_core import (SampledSignal, SignalSource, SymbolicTransient, evaluate_many,
                          inner_product, load_samples_csv, load_signal_spec,
                          save_samples_csv, synthesize_samples)
from .tail_limits import (RateEstimate, RateSequence, TailFitConfig,
                          estimate_coefficient, estimate_rate, rate_sequence,
                          shrink_support)

__version__ = "0.1.0"

__all__ = [
    "DecompositionResult", "StoppingPolicy", "TermDiagnostics",
    "decompose_exact", "decompose_numeric",
    "TransientLabError", "OutOfSupport", "QuadratureFailure", "SignalVanished",
    "NonDecaying", "Diverging", "RankDeficient", "GammaPole",
    "PolynomialNoConstant", "correspondence_check", "monomial_functional_matrix",
    "rate_functional_matrix", "rate_functionals",
    "ExponentialBasis", "JacobiParams", "build_exponential_basis",
    "check_derivative_recurrence", "check_multiplication_recurrence",
    "jacobi_monomial_coeffs", "oet_analyze", "orthogonality_closed_form",
    "orthogonality_integral",
    "PronyModel", "prony_fit", "vandermonde_condition",
    "QuadratureConfig", "integrate_semi_infinite",
    "SampledSignal", "SignalSource", "SymbolicTransient", "evaluate_many",
    "inner_product", "load_samples_csv", "load_signal_spec", "save_samples_csv",
    "synthesize_samples",
    "RateEstimate", "RateSequence", "TailFitConfig", "estimate_coefficient",
    "estimate_rate", "rate_sequence", "shrink_support",
]
