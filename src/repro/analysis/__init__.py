"""Evaluation pipeline: cross-validation, orchestration and reports."""

from .crossval import fold_indices, kfold
from .dataset import ErrorDataset
from .evaluation import (
    BASELINE_NAMES,
    MODEL_NAMES,
    EvaluationResult,
    evaluate_campaign,
    topk_sweep,
)

__all__ = [
    "fold_indices", "kfold",
    "ErrorDataset",
    "BASELINE_NAMES", "MODEL_NAMES", "EvaluationResult",
    "evaluate_campaign", "topk_sweep",
]
