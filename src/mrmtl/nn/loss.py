"""Categorical cross-entropy of a softmax head.

Networks emit logits z and the caller applies softmax, p = softmax(z). The
loss is read off the probabilities, and its gradient is taken with respect to
the logits, where softmax and cross-entropy fuse into (p - onehot) / B.
"""

from __future__ import annotations

import numpy as np

EPS = 1e-12


def cross_entropy(probs: np.ndarray, labels) -> float:
    """Mean of -log(probs[label] + eps) over a (B, K) batch with B labels."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    K = probs.shape[1]
    if labels.min() < 0 or labels.max() >= K:
        raise ValueError(f"label out of range for {K} classes")
    picked = probs[np.arange(len(labels)), labels]
    return float(np.mean(-np.log(picked + EPS)))


def cross_entropy_grad(probs: np.ndarray, labels) -> np.ndarray:
    """d(mean CE)/d(logits) for p = softmax(logits): (p - onehot) / B."""
    probs = np.asarray(probs, dtype=np.float64)
    B = probs.shape[0]
    grad = probs / B
    grad[np.arange(B), labels] -= 1.0 / B
    return grad
