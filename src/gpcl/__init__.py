"""Composite-likelihood inference for stationary Gaussian processes."""

from .errors import (
    BudgetError,
    ConfigError,
    CovarianceError,
    DataError,
    DegenerateSeriesError,
    DomainError,
    EmbeddingError,
    EvaluationError,
    GpclError,
    IngestError,
    NonIdentifiedError,
    RegimeError,
    SampleSizeError,
    StudyError,
    TruncationError,
)
from .models import (
    FAMILIES,
    CauchyParams,
    CltCase,
    Family,
    FamilySpec,
    FouParams,
    Memory,
    ModelSpec,
    RegimeLabel,
    Roughness,
    acv_vector,
    arfima_d_from_beta,
    cauchy_acf,
    classify_regime,
    correlation_at_lags,
    correlation_grid,
    fou_acf,
)
from .simulate import (
    SampleSeries,
    circulant_embed,
    read_series_csv,
    simulate_cauchy,
    simulate_fgn,
    simulate_fou,
    write_series_csv,
)
from .mme import (
    MmeResult,
    cof_alpha,
    match_beta,
    mme_cauchy,
    mme_fou,
    power_variation,
)
from .likelihood import (
    EstimationResult,
    TupleSet,
    build_default_tuples,
    cl_eval,
    cl_score,
    fit_mcle,
    gls_mean,
    tuple_covariance,
)
from .mle import fit_mle, full_loglik

__version__ = "0.1.0"
