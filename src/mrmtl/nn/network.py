"""Network container: an ordered layer stack with shape checking."""

from __future__ import annotations

import numpy as np

from .layers import Layer, ShapeError


class Network:
    """A feed-forward stack of layers over a fixed input shape.

    Shape compatibility between consecutive layers is checked once at
    construction. Forward in inference mode is a pure function of
    (parameters, input); training mode records per-layer caches and enables
    dropout, which draws from the rng passed to forward(). A training
    forward replaces each layer's cache as it reaches the layer (a Conv2D
    refills its last patch matrix in place); an inference forward first
    drops every cache. So each layer holds at most one pass's cache, and
    none after an inference pass.
    """

    def __init__(self, layers: list[Layer], input_shape: tuple[int, ...]):
        self.layers = layers
        self.input_shape = tuple(input_shape)
        shape = self.input_shape
        for i, layer in enumerate(layers):
            try:
                shape = layer.out_shape(shape)
            except ShapeError as e:
                raise ShapeError(f"layer {i} ({layer.kind}): {e}") from None
        self.output_shape = shape
        self._forward_recorded = False

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] != self.input_shape:
            raise ShapeError(
                f"network expects input shape (B, {', '.join(map(str, self.input_shape))}), "
                f"got {x.shape}"
            )
        self._forward_recorded = False
        if not train:
            for layer in self.layers:
                layer._cache = None
        for layer in self.layers:
            x = layer.forward(x, train, rng)
        self._forward_recorded = train
        return x

    def backward(self, dout: np.ndarray) -> np.ndarray | None:
        """Backpropagate from the output gradient; returns the input gradient.

        Parameter gradients are left on each layer's .grads dict. The input
        gradient is None when the first layer has input_grad False, as an
        encoder's first Conv2D does.
        """
        if not self._forward_recorded:
            raise RuntimeError("backward called without a recorded training forward pass")
        for layer in reversed(self.layers):
            dout = layer.backward(dout)
        return dout

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) pairs in layer order; names like 'layer2.w'."""
        out = []
        for i, layer in enumerate(self.layers):
            for name in sorted(layer.params):
                out.append((f"layer{i}.{name}", layer.params[name]))
        return out

    def grad_items(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for i, layer in enumerate(self.layers):
            for name in sorted(layer.params):
                out.append((f"layer{i}.{name}", layer.grads[name]))
        return out

    def num_params(self) -> int:
        return sum(p.size for _, p in self.param_items())

    def config(self) -> dict:
        return {"input_shape": list(self.input_shape),
                "layers": [layer.config() for layer in self.layers]}
