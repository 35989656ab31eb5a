"""Cross-validation split tests."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.analysis import fold_indices, kfold


class TestKfold:
    def test_partition_covers_everything(self):
        items = list(range(23))
        seen = []
        for train, test in kfold(items, k=5, seed=0):
            seen.extend(test)
            assert sorted(train + test) == items
        assert sorted(seen) == items

    def test_no_leakage(self):
        items = list(range(40))
        for train, test in kfold(items, k=5, seed=1):
            assert not set(train) & set(test)

    def test_fold_sizes_balanced(self):
        sizes = [len(test) for _, test in kfold(list(range(23)), k=5, seed=0)]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic_with_seed(self):
        items = list(range(30))
        a = [test for _, test in kfold(items, k=5, seed=7)]
        b = [test for _, test in kfold(items, k=5, seed=7)]
        assert a == b

    def test_different_seed_shuffles(self):
        items = list(range(30))
        a = [test for _, test in kfold(items, k=5, seed=1)]
        b = [test for _, test in kfold(items, k=5, seed=2)]
        assert a != b

    def test_too_few_items_rejected(self):
        with pytest.raises(ValueError):
            list(kfold([1, 2], k=5))

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            list(kfold([1, 2, 3], k=1))

    @given(n=st.integers(5, 60), k=st.integers(2, 5), seed=st.integers(0, 100))
    def test_partition_property(self, n, k, seed):
        items = list(range(n))
        tests = [test for _, test in kfold(items, k=k, seed=seed)]
        flat = sorted(x for fold in tests for x in fold)
        assert flat == items


class TestFoldIndices:
    @given(n=st.integers(2, 60), k=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_kfold_indexes_items_by_fold_indices(self, n, k, seed):
        assume(n >= k)
        items = [f"item{i}" for i in range(n)]
        assert list(kfold(items, k=k, seed=seed)) == [
            ([items[j] for j in train], [items[j] for j in test])
            for train, test in fold_indices(n, k, seed)]

    @given(n=st.integers(2, 60), k=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_test_in_shuffled_order_train_ascending(self, n, k, seed):
        assume(n >= k)
        shuffled = np.array_split(np.random.default_rng(seed).permutation(n), k)
        for (train, test), expected in zip(fold_indices(n, k, seed), shuffled, strict=True):
            assert test.tolist() == expected.tolist()
            assert train.tolist() == sorted(set(range(n)) - set(expected.tolist()))

