"""Evaluation pipeline: cross-validation, orchestration and reports."""

from .crossval import fold_indices, kfold, train_test_split
from .dataset import ErrorDataset
from .evaluation import (
    BASELINE_NAMES,
    MODEL_NAMES,
    EvaluationResult,
    evaluate_campaign,
    split_errors_by_benchmark,
    topk_sweep,
)

__all__ = [
    "fold_indices", "kfold", "train_test_split",
    "ErrorDataset",
    "BASELINE_NAMES", "MODEL_NAMES", "EvaluationResult",
    "evaluate_campaign", "split_errors_by_benchmark", "topk_sweep",
]
