"""Loss and classification metrics."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, numerically stabilized."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient w.r.t. logits.

    ``labels`` are integer class ids; the returned gradient is already
    divided by the batch size (so downstream gradients are batch means).
    """
    if logits.ndim != 2:
        raise ValueError(f"expected (batch, classes) logits, got {logits.shape}")
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {n}")
    losses, dlogits = stacked_softmax_cross_entropy(logits[None], labels[None])
    return float(losses[0]), dlogits[0]


def stacked_softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`softmax_cross_entropy` for B workers at once: ``(B, batch,
    classes)`` logits and ``(B, batch)`` labels give ``(B,)`` losses and the
    ``(B, batch, classes)`` gradient, each row the one-worker result."""
    n = logits.shape[1]
    probs = softmax(logits)
    eps = 1e-12
    picked = np.take_along_axis(probs, labels[..., None], axis=-1)[..., 0]
    losses = -np.log(picked + eps).mean(axis=-1)
    dlogits = probs
    dlogits[np.arange(len(labels))[:, None], np.arange(n), labels] -= 1.0
    return losses, dlogits / n


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 classification accuracy."""
    return float((logits.argmax(axis=1) == labels).mean())

