"""Robust estimation for generalized linear models by maximum
Lq-likelihood: IRLS-style fitting with density-power weights, calibration
to Fisher consistency, sandwich inference, robust deviance/AIC and
residual diagnostics, distortion-parameter selection, and a contamination
Monte Carlo harness.
"""

from .diagnostics import (
    EnvelopeResult,
    LinearHypothesis,
    TestResult,
    added_variable_score,
    aic_q,
    bf_test,
    deviance_q,
    deviance_residuals,
    influence_fn,
    quantile_residuals,
    score_test,
    simulation_envelope,
    standardized_residuals,
    wald_test,
)
from .errors import (
    BracketError,
    DegenerateDirectionError,
    DomainError,
    EvaluationError,
    LqglmError,
    SelectionError,
    SingularMatrixError,
    UsageError,
)
from .families import (
    Bernoulli,
    CanonicalLink,
    Family,
    Gaussian,
    Poisson,
    PowerThetaLink,
    ThetaLink,
    deformed_log,
    get_family,
    get_link,
    jq,
    log_density,
    quantile_residual_base,
)
from .fit import (
    calibrate,
    calibrate_coefficients,
    estimate_phi,
    estimating_function,
    fit_mlq,
    lq_objective,
    matrices_ab,
    robust_weights,
)
from .model import PROFILE, FitControl, FitResult, ModelData
from .numerics import (
    chi_square_sf,
    inv_spd,
    normal_quantile,
    rng_stream,
    solve_spd,
)
from .qselect import (
    QGrid,
    QSelectResult,
    are,
    fisher_information,
    select_q_efficiency,
    select_q_stability,
)
from .simulate import SimDesign, SimReport, contaminate, run_study

__version__ = "0.1.0"
