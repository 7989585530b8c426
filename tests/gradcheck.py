"""Finite-difference verification of analytic gradients.

A test helper, not part of the package: test_nn.py and acceptance
criterion 5 hold every layer kind's backward pass to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mrmtl.nn import Network, cross_entropy, cross_entropy_grad, softmax


@dataclass
class GradCheckReport:
    tolerance: float
    max_rel_error: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(e < self.tolerance for e in self.max_rel_error.values())

    @property
    def worst(self) -> float:
        return max(self.max_rel_error.values(), default=0.0)


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-4) -> np.ndarray:
    """|a-b| / max(|a|, |b|, floor), elementwise.

    The floor keeps finite-difference noise on near-zero gradients from
    registering as error; genuine backward bugs show up at O(1).
    """
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def gradcheck(net: Network, x: np.ndarray, labels, tolerance: float = 1e-4,
              step: float = 1e-6, seed: int = 0) -> GradCheckReport:
    """Compare backward() against central finite differences of the CE loss.

    The network emits logits; the loss is the cross-entropy of their softmax.

    Every loss evaluation recreates the rng from the same seed, so stochastic
    layers (dropout) see identical masks across probes and the loss is a
    deterministic function of the parameters. Intended for small networks:
    cost is two forward passes per parameter entry.
    """
    x = np.asarray(x, dtype=np.float64)

    def loss_value() -> float:
        probs = softmax(net.forward(x, train=True, rng=np.random.default_rng(seed)))
        return cross_entropy(probs, labels)

    probs = softmax(net.forward(x, train=True, rng=np.random.default_rng(seed)))
    net.backward(cross_entropy_grad(probs, labels))
    analytic = {name: g.copy() for name, g in net.grad_items()}

    report = GradCheckReport(tolerance=tolerance)
    for name, param in net.param_items():
        fd = np.zeros_like(param)
        flat = param.reshape(-1)
        fd_flat = fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = loss_value()
            flat[i] = orig - step
            f_minus = loss_value()
            flat[i] = orig
            fd_flat[i] = (f_plus - f_minus) / (2.0 * step)
        err = relative_error(analytic[name], fd)
        report.max_rel_error[name] = float(err.max()) if err.size else 0.0
    return report
