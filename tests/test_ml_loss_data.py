"""Tests for loss functions and synthetic datasets."""

import numpy as np
import pytest

from repro.ml.data import (
    Dataset,
    gaussian_blobs,
    synthetic_cifar10,
)
from repro.ml.loss import accuracy, softmax, softmax_cross_entropy


class TestSoftmaxCE:
    def test_uniform_loss(self):
        logits = np.zeros((4, 10))
        labels = np.arange(4)
        loss, _ = softmax_cross_entropy(logits, labels)
        assert loss == pytest.approx(np.log(10))

    def test_gradient_matches_numeric(self, rng):
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        _, grad = softmax_cross_entropy(logits.copy(), labels)
        eps = 1e-6
        for i in range(5):
            for j in range(4):
                lp = logits.copy()
                lp[i, j] += eps
                lm = logits.copy()
                lm[i, j] -= eps
                num = (
                    softmax_cross_entropy(lp, labels)[0]
                    - softmax_cross_entropy(lm, labels)[0]
                ) / (2 * eps)
                assert grad[i, j] == pytest.approx(num, abs=1e-5)

    def test_gradient_rows_sum_to_zero(self, rng):
        logits = rng.normal(size=(6, 5))
        labels = rng.integers(0, 5, size=6)
        _, grad = softmax_cross_entropy(logits, labels)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_numerical_stability(self):
        logits = np.array([[1e4, 0.0], [-1e4, 0.0]])
        loss, grad = softmax_cross_entropy(logits, np.array([0, 1]))
        assert np.isfinite(loss) and np.isfinite(grad).all()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros(4), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((4, 2)), np.zeros(3, dtype=int))

    def test_softmax_rows_normalized(self, rng):
        p = softmax(rng.normal(size=(7, 3)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0)
        assert (p >= 0).all()


class TestAccuracy:
    def test_top1(self):
        logits = np.array([[1.0, 2.0], [3.0, 0.0]])
        assert accuracy(logits, np.array([1, 0])) == 1.0
        assert accuracy(logits, np.array([0, 0])) == 0.5


class TestDatasets:
    @pytest.mark.parametrize(
        "factory,n_classes",
        [
            (lambda: gaussian_blobs(n_classes=5, n_train=200, n_test=50), 5),
            (lambda: synthetic_cifar10(n_train=40, n_test=20, size=8), 10),
        ],
    )
    def test_shapes_and_labels(self, factory, n_classes):
        ds = factory()
        assert ds.n_classes == n_classes
        assert len(ds.x_train) == ds.n_train
        assert ds.y_train.min() >= 0 and ds.y_train.max() < n_classes

    def test_deterministic_by_seed(self):
        a = gaussian_blobs(seed=5, n_train=100, n_test=10)
        b = gaussian_blobs(seed=5, n_train=100, n_test=10)
        np.testing.assert_array_equal(a.x_train, b.x_train)
        c = gaussian_blobs(seed=6, n_train=100, n_test=10)
        assert not np.array_equal(a.x_train, c.x_train)

    def test_shards_partition_training_set(self):
        ds = gaussian_blobs(n_train=100, n_test=10)
        total = 0
        for w in range(3):
            x, y = ds.shard(w, 3)
            total += len(x)
            assert len(x) == len(y)
        assert total == 100

    def test_shard_out_of_range(self):
        ds = gaussian_blobs(n_train=20, n_test=5)
        with pytest.raises(ValueError):
            ds.shard(3, 3)

    def test_batches_stream(self, rng):
        ds = gaussian_blobs(n_train=50, n_test=5, dim=4)
        it = ds.batches(rng, batch_size=8)
        xb, yb = next(it)
        assert xb.shape == (8, 4) and yb.shape == (8,)

    def test_batches_invalid_size(self, rng):
        ds = gaussian_blobs(n_train=50, n_test=5)
        with pytest.raises(ValueError):
            next(ds.batches(rng, 0))

    def test_blobs_linearly_learnable(self):
        """A least-squares classifier must beat chance comfortably —
        guards against generating unlearnable noise."""
        ds = gaussian_blobs(n_classes=4, dim=16, n_train=800, n_test=200, seed=1)
        onehot = np.eye(4)[ds.y_train]
        w, *_ = np.linalg.lstsq(ds.x_train, onehot, rcond=None)
        acc = accuracy(ds.x_test @ w, ds.y_test)
        assert acc > 0.6

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Dataset("bad", np.zeros((3, 2)), np.zeros(2, dtype=int),
                    np.zeros((1, 2)), np.zeros(1, dtype=int), 2)

    def test_labels_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Dataset("bad", np.zeros((2, 2)), np.array([0, 5]),
                    np.zeros((1, 2)), np.array([0]), 2)

    def test_cifar_classes_distinguishable(self):
        """Per-class template means must differ across classes."""
        ds = synthetic_cifar10(n_train=300, n_test=50, size=8, seed=2)
        means = np.stack([
            ds.x_train[ds.y_train == c].mean(axis=0).ravel() for c in range(10)
        ])
        dists = np.linalg.norm(means[:, None] - means[None, :], axis=-1)
        off_diag = dists[~np.eye(10, dtype=bool)]
        assert off_diag.min() > 0.1
