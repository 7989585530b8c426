"""Adam optimizer over a list of networks."""

from __future__ import annotations

import numpy as np


class NumericError(ArithmeticError):
    """A gradient or update became non-finite."""


class Adam:
    """Adam with bias correction. State is keyed by parameter name per network.

    step() consumes the gradients left by the most recent backward pass.
    With zero gradients or lr=0 the parameters are unchanged exactly.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, nets) -> None:
        """Apply one update to every parameter of the given list of networks."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for ni, net in enumerate(nets):
            params = dict(net.param_items())
            for name, grad in net.grad_items():
                key = f"net{ni}.{name}"
                if not np.all(np.isfinite(grad)):
                    raise NumericError(f"non-finite gradient in {key}")
                m = self._m.get(key)
                if m is None:
                    m = self._m[key] = np.zeros_like(grad)
                    self._v[key] = np.zeros_like(grad)
                v = self._v[key]
                # In place, same operations and order as
                #   m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g*g
                #   p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
                # with two temporaries per parameter.
                a = (1.0 - self.beta1) * grad
                m *= self.beta1
                m += a
                np.multiply(1.0 - self.beta2, grad, out=a)
                a *= grad
                v *= self.beta2
                v += a
                np.divide(m, bc1, out=a)
                np.multiply(self.lr, a, out=a)
                b = v / bc2
                np.sqrt(b, out=b)
                b += self.eps
                a /= b
                params[name] -= a
