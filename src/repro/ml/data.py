"""Synthetic datasets standing in for CIFAR-10/100 (see DESIGN.md).

CIFAR itself is not available offline; the evaluation only needs a
classification task whose accuracy responds to gradient staleness the way
a real task does.  :func:`synthetic_cifar10` builds class-structured
32×32×3 images (smooth per-class templates + per-sample texture and
noise) with CIFAR's class counts and split sizes; :func:`gaussian_blobs`
is the fast low-dimensional workload used where the benches need hundreds
of thousands of gradient steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro.utils.rng import derive_rng


@dataclass
class Dataset:
    """A classification dataset with a train/test split."""

    name: str
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    n_classes: int

    def __post_init__(self) -> None:
        if len(self.x_train) != len(self.y_train):
            raise ValueError("train features/labels length mismatch")
        if len(self.x_test) != len(self.y_test):
            raise ValueError("test features/labels length mismatch")
        for y in (self.y_train, self.y_test):
            if len(y) and (y.min() < 0 or y.max() >= self.n_classes):
                raise ValueError("labels out of range")

    @property
    def n_train(self) -> int:
        return len(self.x_train)

    @property
    def n_test(self) -> int:
        return len(self.x_test)

    def shard(self, worker: int, n_workers: int) -> Tuple[np.ndarray, np.ndarray]:
        """Worker ``worker``'s data-parallel partition (strided, so every
        shard sees every class)."""
        if not 0 <= worker < n_workers:
            raise ValueError(f"worker {worker} out of range [0, {n_workers})")
        return self.x_train[worker::n_workers], self.y_train[worker::n_workers]

    def batches(
        self, rng: np.random.Generator, batch_size: int, x: np.ndarray = None,
        y: np.ndarray = None,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Endless stream of uniformly sampled mini-batches."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        x = self.x_train if x is None else x
        y = self.y_train if y is None else y
        n = len(x)
        while True:
            idx = rng.integers(0, n, size=min(batch_size, n))
            yield x[idx], y[idx]


def _smooth_template(rng: np.random.Generator, channels: int, size: int, grid: int = 4) -> np.ndarray:
    """A smooth random image: low-frequency noise bilinearly upsampled."""
    coarse = rng.normal(size=(channels, grid, grid))
    # Bilinear upsample grid → size via separable interpolation.
    xs = np.linspace(0, grid - 1, size)
    i0 = np.floor(xs).astype(int)
    i1 = np.minimum(i0 + 1, grid - 1)
    frac = xs - i0
    rows = coarse[:, i0, :] * (1 - frac)[None, :, None] + coarse[:, i1, :] * frac[None, :, None]
    out = (
        rows[:, :, i0] * (1 - frac)[None, None, :]
        + rows[:, :, i1] * frac[None, None, :]
    )
    return out


def _image_classes(
    name: str,
    n_classes: int,
    n_train: int,
    n_test: int,
    seed: int,
    size: int = 32,
    channels: int = 3,
    noise: float = 0.6,
    texture: float = 0.35,
) -> Dataset:
    rng = derive_rng(seed, "dataset", name)
    templates = np.stack([_smooth_template(rng, channels, size) for _ in range(n_classes)])

    def sample(n: int) -> Tuple[np.ndarray, np.ndarray]:
        y = rng.integers(0, n_classes, size=n)
        base = templates[y]
        # Per-sample brightness/contrast jitter + smooth texture + pixel noise.
        scale = 1.0 + 0.2 * rng.normal(size=(n, 1, 1, 1))
        tex = np.stack([_smooth_template(rng, channels, size, grid=8) for _ in range(n)])
        x = scale * base + texture * tex + noise * rng.normal(size=base.shape)
        return x.astype(np.float64), y

    x_train, y_train = sample(n_train)
    x_test, y_test = sample(n_test)
    return Dataset(name, x_train, y_train, x_test, y_test, n_classes)


def synthetic_cifar10(
    n_train: int = 2000, n_test: int = 500, seed: int = 0, size: int = 32
) -> Dataset:
    """CIFAR-10 stand-in: 10 classes of structured color images."""
    return _image_classes("cifar10", 10, n_train, n_test, seed, size=size)


def gaussian_blobs(
    n_classes: int = 10,
    dim: int = 64,
    n_train: int = 4000,
    n_test: int = 1000,
    separation: float = 2.2,
    seed: int = 0,
) -> Dataset:
    """Fast low-dimensional classification task (for high-iteration runs).

    Class means are drawn on a sphere of radius ``separation``; samples
    get unit-variance isotropic noise, so Bayes accuracy is high but SGD
    must actually converge to reach it — stale gradients visibly hurt.
    """
    rng = derive_rng(seed, "dataset", "blobs", n_classes, dim)
    means = rng.normal(size=(n_classes, dim))
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True)

    def sample(n: int) -> Tuple[np.ndarray, np.ndarray]:
        y = rng.integers(0, n_classes, size=n)
        x = means[y] + rng.normal(size=(n, dim))
        return x, y

    x_train, y_train = sample(n_train)
    x_test, y_test = sample(n_test)
    return Dataset(f"blobs{n_classes}d{dim}", x_train, y_train, x_test, y_test, n_classes)

