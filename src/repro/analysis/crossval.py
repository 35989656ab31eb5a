"""Random-sampling 5-fold cross-validation over the error dataset.

The paper splits the logged error data into training and test bins by
random sampling with 5-fold cross-validation (Figure 7): each fold's
predictor is trained on the other four folds and evaluated on its own.
"""

from __future__ import annotations

from typing import Iterator, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


def fold_indices(n: int, k: int = 5,
                 seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(train, test)`` index arrays of each fold over ``n`` items.

    The items are shuffled once and split into ``k`` folds that differ
    in size by at most one.  Test indices keep the shuffled order;
    train indices are ascending.
    """
    if k < 2:
        raise ValueError("k-fold cross validation needs k >= 2")
    if n < k:
        raise ValueError(f"cannot make {k} folds from {n} items")
    rng = np.random.default_rng(seed)
    splits = []
    for test in np.array_split(rng.permutation(n), k):
        in_train = np.ones(n, dtype=bool)
        in_train[test] = False
        splits.append((np.flatnonzero(in_train), test))
    return splits


def kfold(items: Sequence[T], k: int = 5,
          seed: int = 0) -> Iterator[tuple[list[T], list[T]]]:
    """Yield ``(train, test)`` splits over shuffled ``items``.

    Every item appears in exactly one test fold; folds differ in size
    by at most one.  The splits are :func:`fold_indices` applied to
    ``items``.
    """
    for train, test in fold_indices(len(items), k, seed):
        yield [items[j] for j in train], [items[j] for j in test]

