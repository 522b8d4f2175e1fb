"""Rectified AI-powered Bayesian inference via the posterior bootstrap."""

from .measures import (
    AtomicMeasure,
    LabeledSample,
    Outcomes,
    RngStream,
    empirical_measure,
    realize_class_labels,
    resample_nonparametric_bootstrap,
    sample_dirichlet_weights,
)
from .losses import (
    LinearRegressionLoss,
    MeanLoss,
    MlpLoss,
    MultinomialLogisticLoss,
    QuantileLoss,
    WeightedProblem,
    finite_diff_check,
    hessian,
    loss_value,
    score,
    solve_weighted,
)
from .rectifiers import (
    Fixed,
    FittedRectifier,
    Identity,
    Isotonic,
    MomentAffine,
    MomentShift,
    Npb,
    ProbRecalib,
    QuantileMap,
    Split,
    apply_rectifier,
    fit_rectifier,
    make_calibration_sample,
    score_discrepancy,
)
from .posterior import (
    PosteriorRun,
    PriorConfig,
    credible_interval,
    posterior_draw,
    posterior_predict_class,
    run_posterior,
)
from .diagnostics import (
    BenchRecord,
    SandwichEstimate,
    aggregate_bench,
    classical_interval,
    interval_score,
    predict_centering_bias,
    sandwich,
)
from .harness import (
    RunConfig,
    ScenarioSpec,
    generate_scenario,
    load_base_csv,
    load_labeled_csv,
    run_bench,
)

__version__ = "0.1.0"
