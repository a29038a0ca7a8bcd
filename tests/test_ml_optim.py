"""Tests for the worker-side optimizer."""

import numpy as np
import pytest

from repro.ml.optim import SGD


class TestSGD:
    def test_plain_update(self):
        opt = SGD(lr=0.5)
        g = np.array([2.0, -4.0])
        np.testing.assert_allclose(opt.update(g, np.zeros(2), 0), [-1.0, 2.0])

    def test_momentum_accumulates(self):
        opt = SGD(lr=1.0, momentum=0.5)
        g = np.ones(2)
        u1 = opt.update(g, np.zeros(2), 0)
        u2 = opt.update(g, np.zeros(2), 1)
        np.testing.assert_allclose(u1, [-1.0, -1.0])
        np.testing.assert_allclose(u2, [-1.5, -1.5])

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            SGD(momentum=1.0)
        with pytest.raises(ValueError):
            SGD(momentum=-0.1)

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            SGD(lr=-1.0)
