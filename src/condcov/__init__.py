"""condcov: multivariate spatial covariance models built by conditioning.

Univariate Matern covariances plus interaction functions give provably valid
joint models for any number of ordered variables. The package assembles those
models on quadrature grids, simulates them, fits them by Gaussian maximum
likelihood, predicts by simple cokriging, and checks spectral validity of
cross-covariance candidates.
"""

from .errors import (
    CondcovError,
    ConfigError,
    InsufficientDataError,
    InvalidModelError,
    NumericalError,
    OptimizationError,
    ParameterError,
    ValidationError,
)
from .kernels import (
    InteractionKind,
    InteractionSpec,
    MaternParams,
    TabulatedValues,
    bisquare,
    dirac,
    interaction_eval,
    interaction_values,
    load_tabulated,
    matern_cov,
    shifted_bisquare,
    tabulated,
    zero,
)
from .domain import (
    EUCLIDEAN,
    FLOAT_FMT,
    Grid,
    Metric,
    Observations,
    chordal,
    chordal_distance,
    load_mesh,
    load_observations,
    regular_grid,
    save_mesh,
    save_observations,
)
from .conditional import (
    JointModel,
    MeanSpec,
    ProcessNetwork,
    ProcessNode,
    apply_mean,
    assemble_dag,
    build_interaction_matrix,
    coordinate_covariates,
    cross_cov_at,
    cross_cov_matrix,
    mean_at,
)
from .spectral import (
    SpectralReport,
    check_cross_validity,
    matern_cross_smoothness,
    matern_cross_variance,
    matern_spectral_density,
    parsimonious_bounds,
)
from .predict import (
    FoldScore,
    LooResult,
    PredictionResult,
    cokrige,
    crps_gaussian,
    krige,
    loo_cv,
    summarize_folds,
)
from .inference import (
    FitResult,
    OptimizerConfig,
    RankedFit,
    compare_directions,
    default_free_parameters,
    fit_mle,
    get_parameter,
    list_parameters,
    loglik,
    read_params,
    set_parameter,
    write_fit_result,
)
from .sim import (
    ReplicateRun,
    ReplicateScore,
    SimStudyConfig,
    SimStudyResult,
    asymmetric_1d_study,
    rng_from_seed,
    run_sim_study,
    sample_joint,
    simulate_replicate,
)

__version__ = "0.1.0"
