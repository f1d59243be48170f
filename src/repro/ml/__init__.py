"""ML substrate: WLS/OLS regression, sufficient statistics, error estimation."""

from .classify import (
    ClassificationCVEstimator,
    GaussianNB,
    GaussianNBStats,
    TrainingSetClassificationEstimator,
    misclassification_rate,
)
from .exceptions import FitError, ModelError, NotFittedError
from .linear import LinearRegression
from .metrics import (
    CrossValidationEstimator,
    ErrorEstimate,
    ErrorEstimator,
    TrainingSetEstimator,
    default_model_factory,
    mse,
    rmse,
)
from .suffstats import (
    LinearSuffStats,
    RowProducts,
    StackedSuffStats,
    add_intercept,
    prefix_stats,
)

__all__ = [
    "ClassificationCVEstimator",
    "CrossValidationEstimator",
    "GaussianNB",
    "GaussianNBStats",
    "TrainingSetClassificationEstimator",
    "misclassification_rate",
    "ErrorEstimate",
    "ErrorEstimator",
    "FitError",
    "LinearRegression",
    "LinearSuffStats",
    "ModelError",
    "NotFittedError",
    "RowProducts",
    "StackedSuffStats",
    "TrainingSetEstimator",
    "add_intercept",
    "default_model_factory",
    "mse",
    "prefix_stats",
    "rmse",
]
