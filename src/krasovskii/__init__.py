"""Numerical laboratory for time-delay systems.

Simulates dx/dt = f(x_t, u(t)) by the method of steps, evaluates
Lyapunov-Krasovskii functionals and their upper right-hand derivatives,
falsification-tests dissipation and growth hypotheses, computes the
closed-form exponential-stability margins they induce, and fits
empirical decay envelopes and input gains to validate the theory at
desk scale.
"""

from .histories import (
    HistoryFunction,
    constant_history,
    driver_extension,
    random_history,
    zero_history,
)
from .systems import (
    DelaySystem,
    InputSignal,
    UncertaintyPair,
    constant_input,
    make_example1,
    make_example2,
    make_example3,
    make_linear_baseline,
    piecewise_noise_input,
    sinusoid_input,
    step_input,
    zero_input,
)
from .solver import (
    Trajectory,
    export_csv,
    history_norm_series,
    integrate,
)
from .functionals import (
    DelayedQuadratic,
    ExponentialWeight,
    IntegralQuadratic,
    MaxExp,
    PointQuadratic,
    PowerGain,
    Scale,
    Sum,
    combine_W,
    driver_derivative_closed,
    driver_derivative_numeric,
    eval_functional,
    square_gain,
    zero_gain,
)
from .certify import (
    CheckReport,
    Example2Margins,
    FalsificationSampler,
    InfeasibilityError,
    MarginReport,
    check_left_growth,
    check_pointwise_dissipation,
    check_right_growth,
    check_sandwich,
    expiss_to_two_inequality,
    margin_left,
    margin_right,
    margin_history_term,
    rfc_bound,
    robustness_margin_example2,
    two_inequality_to_expiss,
)
from .estimate import (
    EnvelopeFit,
    FitFailure,
    GainFit,
    TwoInequalityFit,
    empirical_two_inequality,
    fit_envelope,
    fit_iss_gain,
    run_ensemble,
    seeded_history_sampler,
)

__version__ = "0.1.0"
