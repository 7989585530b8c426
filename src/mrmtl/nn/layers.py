"""Trainable layers: Conv2D, MaxPool2D, Dropout, Flatten, Dense.

All arrays are float64. Layers operate on batched inputs: (B, C, H, W) for
the convolutional stack, (B, D) after Flatten. Each layer caches what its
backward pass needs when run in training mode:

- Conv2D: the contiguous (B*H*W, C*k*k) im2col patch matrix, and for ReLU
  the boolean (B*H*W, filters) mask of positive outputs. Forward copies
  images into a zero-bordered padded buffer (no np.pad), gathers their patch
  rows through a cached read-only index and multiplies them by the filters.
  Training gathers the whole batch, refilling the last training pass's
  matrix when the shapes match, and multiplies it at once; inference gathers
  one cache-sized block of images at a time into reused buffers and
  multiplies each image on its own. Backward is one GEMM for the weight
  gradient and, for the input gradient, k*k tap GEMMs over blocks of images,
  each added into the padded channels-last gradient.
- MaxPool2D: a boolean mask over the input marking the first maximum of
  each window in row-major order.
- Dropout: the scaled keep mask. Flatten: the input shape.
- Dense: the input and the pre-activation.

A cache lives until the layer's next training forward replaces it, or until
the owning network's next inference forward, which drops every layer's cache
before it starts; backward reads it without consuming it, so it can be
repeated.

A layer's config is its kind and the constructor arguments but rng, which
each class names once, in config_keys: Layer.config() writes them, and
layer_from_config() rejects a dict that lacks or adds one rather than build
another network from constructor defaults.

Inference is batch invariant: a sample's output bits do not depend on what
else is in its batch. Conv2D runs a GEMM per image, and Dense pads its rows
with copies of the last to a multiple of 4, which OpenBLAS rounds alike,
unlike a matrix-vector product or a remainder of 2 or 3 rows.
"""

from __future__ import annotations

import functools

import numpy as np


class ShapeError(ValueError):
    """Input or chained shape incompatible with a layer."""


ACTIVATIONS = ("relu", "linear")


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax over the last axis."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _init_params(activation: str, fan_in: int, w_shape: tuple, bias_size: int, rng) -> dict:
    """Uniform weights, He-style bound for ReLU and Glorot-style for linear,
    drawn before the zero bias, so a seeded rng builds the same network."""
    if activation not in ACTIVATIONS:
        raise ValueError(f"unsupported activation: {activation}")
    bound = float(np.sqrt((6.0 if activation == "relu" else 3.0) / fan_in))
    rng = rng if rng is not None else np.random.default_rng()
    return {"w": rng.uniform(-bound, bound, size=w_shape), "b": np.zeros(bias_size)}


class Layer:
    """Base layer. Subclasses fill params/grads with matching keys."""

    kind = "layer"
    # constructor arguments but rng: all that config() writes, layer_from_config() reads
    config_keys: tuple[str, ...] = ()

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        raise NotImplementedError

    def forward(self, x: np.ndarray, train: bool, rng) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def config(self) -> dict:
        return {"kind": self.kind, **{k: getattr(self, k) for k in self.config_keys}}

    def _require_cache(self):
        if self._cache is None:
            raise RuntimeError(
                f"{self.kind}: backward called without a recorded training forward pass"
            )


@functools.lru_cache(maxsize=64)
def _im2col_index(C: int, Hp: int, Wp: int, k: int) -> np.ndarray:
    """Read-only flat offsets of every patch entry into one padded image.

    idx[h, w, c, i, j] = (c*Hp + h + i)*Wp + w + j, raveled: the patch under
    output pixel (h, w) in (channel, kernel row, kernel column) order. Built
    once per shape and shared, so it must never be written; the encoder's six
    shapes take about 5 MB.
    """
    H, W = Hp - k + 1, Wp - k + 1
    h = np.arange(H).reshape(H, 1, 1, 1, 1)
    w = np.arange(W).reshape(1, W, 1, 1, 1)
    c = np.arange(C).reshape(1, 1, C, 1, 1)
    i = np.arange(k).reshape(1, 1, 1, k, 1)
    j = np.arange(k).reshape(1, 1, 1, 1, k)
    idx = ((c * Hp + h + i) * Wp + w + j).ravel()
    idx.flags.writeable = False
    return idx


def _im2col(xp: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """(B, C, Hp, Wp) padded input -> contiguous (B*H*W, C*k*k) patch matrix.

    Row b*H*W + h*W + w is the patch under output pixel (h, w) of image b,
    flattened in (channel, kernel row, kernel column) order. One gather, into
    out, which must have that shape and xp's dtype.
    """
    B, C, Hp, Wp = xp.shape
    idx = _im2col_index(C, Hp, Wp, k)
    # Every offset is in range, so "clip" changes nothing; with out= the
    # default "raise" would gather into a temporary first and then copy.
    np.take(xp.reshape(B, -1), idx, axis=1, out=out.reshape(B, -1), mode="clip")
    return out


# Bytes of one block of images' working buffer: the inference patch rows in
# the forward pass, each tap's slab in the input gradient. Small enough that a
# block's GEMM operand or result is still in cache when it is next read.
_BLOCK_BYTES = 1 << 21


def _block_images(B: int, image_bytes: int) -> int:
    """Images per block: as many as fit in _BLOCK_BYTES, at least one."""
    return min(B, max(1, _BLOCK_BYTES // image_bytes))


def _conv_input_grad(dpre: np.ndarray, w: np.ndarray, B: int, H: int, W: int) -> np.ndarray:
    """Gradient w.r.t. the padded input, channels-last (B, H+k-1, W+k-1, C).

    dpre is the (B*H*W, F) gradient w.r.t. the pre-activation, w the (F, C,
    k, k) filters. Tap-major over blocks of images: for each tap (i, j), one
    GEMM of the block's rows with w[:, :, i, j] gives a contiguous (m, H, W,
    C) slab, added into the zeroed buffer at offset (i, j). Each entry is the
    same length-F dot product as in dpre @ w.reshape(F, -1), and each pixel
    sums its taps in (i, j) order, so the result is bit for bit that GEMM
    followed by a col2im, without its (B*H*W, C*k*k) intermediate.
    """
    F, C, k, _ = w.shape
    w_taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1))  # (k, k, F, C)
    dxp = np.zeros((B, H + k - 1, W + k - 1, C), dtype=dpre.dtype)
    m = _block_images(B, H * W * C * dpre.itemsize)
    buf = np.empty((m * H * W, C), dtype=dpre.dtype)
    for b0 in range(0, B, m):
        b1 = min(b0 + m, B)
        rows = dpre[b0 * H * W:b1 * H * W]
        slab = buf[:rows.shape[0]]
        for i in range(k):
            for j in range(k):
                np.matmul(rows, w_taps[i, j], out=slab)
                dxp[b0:b1, i:i + H, j:j + W] += slab.reshape(b1 - b0, H, W, C)
    return dxp


class Conv2D(Layer):
    """Same-padded stride-1 convolution with optional ReLU."""

    kind = "conv2d"
    config_keys = ("in_channels", "filters", "kernel_size", "activation")
    # When False, backward stops after the parameter gradients and returns
    # None: an encoder's first layer sees the images, whose gradient nothing
    # reads.
    input_grad = True

    def __init__(self, in_channels: int, filters: int, kernel_size: int = 3,
                 activation: str = "relu", rng=None):
        super().__init__()
        if filters < 1 or kernel_size < 1:
            raise ValueError("filters and kernel_size must be positive")
        if kernel_size % 2 == 0:
            raise ValueError("same padding requires an odd kernel size")
        self.params = _init_params(activation, in_channels * kernel_size * kernel_size,
                                   (filters, in_channels, kernel_size, kernel_size), filters, rng)
        self.in_channels = in_channels
        self.filters = filters
        self.kernel_size = kernel_size
        self.activation = activation

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[0] != self.in_channels:
            raise ShapeError(
                f"conv2d expects (C={self.in_channels}, H, W) input, got {in_shape}"
            )
        return (self.filters, in_shape[1], in_shape[2])

    def forward(self, x, train, rng):
        B, C, H, W = x.shape
        k = self.kernel_size
        p = (k - 1) // 2
        # A training pass refills the last training pass's patch matrix:
        # gathering into warm pages costs about half a fresh array's. The old
        # cache goes first, so a changed batch size never holds both.
        cols = None
        if train and self._cache is not None:
            cols, self._cache = self._cache[0], None
            if cols.shape != (B * H * W, C * k * k) or cols.dtype != x.dtype:
                cols = None
        m = B if train else _block_images(B, H * W * C * k * k * x.itemsize)
        gemm_rows = (B if train else 1) * H * W  # inference: one GEMM per image
        if cols is None:
            cols = np.empty((m * H * W, C * k * k), dtype=x.dtype)
        # The block's padded images; the border is never written, so it stays 0.
        xp = np.zeros((m, C, H + 2 * p, W + 2 * p), dtype=x.dtype)
        wmat = self.params["w"].reshape(self.filters, -1).T
        out = np.empty((B * H * W, self.filters), dtype=np.result_type(x, wmat))
        for b0 in range(0, B, m):
            n = min(m, B - b0)
            xp[:n, :, p:p + H, p:p + W] = x[b0:b0 + n]
            block = _im2col(xp[:n], k, cols[:n * H * W])
            np.matmul(block.reshape(-1, gemm_rows, C * k * k), wmat,
                      out=out[b0 * H * W:(b0 + n) * H * W].reshape(-1, gemm_rows, self.filters))
        out += self.params["b"]
        if self.activation == "relu":
            np.maximum(out, 0.0, out=out)
        if train:
            # out > 0 exactly where the pre-activation was > 0
            mask = out > 0.0 if self.activation == "relu" else None
            self._cache = (cols, mask, (B, C, H, W))
        return out.reshape(B, H, W, self.filters).transpose(0, 3, 1, 2)

    def backward(self, dout):
        self._require_cache()
        cols, mask, (B, C, H, W) = self._cache
        p = (self.kernel_size - 1) // 2
        dpre = np.empty((B, H, W, self.filters))
        if mask is not None:
            np.multiply(dout.transpose(0, 2, 3, 1), mask.reshape(dpre.shape), out=dpre)
        else:
            dpre[...] = dout.transpose(0, 2, 3, 1)
        dpre = dpre.reshape(B * H * W, self.filters)
        self.grads = {
            "w": (cols.T @ dpre).T.reshape(self.params["w"].shape),
            "b": dpre.sum(axis=0),
        }
        if not self.input_grad:
            return None
        dxp = _conv_input_grad(dpre, self.params["w"], B, H, W).transpose(0, 3, 1, 2)
        if p:
            return dxp[:, :, p:-p, p:-p]
        return dxp


class MaxPool2D(Layer):
    """Non-overlapping max pooling, spatial dims must divide evenly."""

    kind = "maxpool2d"
    config_keys = ("pool_size",)

    def __init__(self, pool_size: int = 2):
        super().__init__()
        if not isinstance(pool_size, (int, np.integer)) or pool_size < 1:
            raise ValueError(f"pool_size must be a positive integer, got {pool_size!r}")
        self.pool_size = pool_size

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise ShapeError(f"maxpool2d expects (C, H, W) input, got {in_shape}")
        C, H, W = in_shape
        if H % self.pool_size or W % self.pool_size:
            raise ShapeError(
                f"maxpool2d pool {self.pool_size} does not divide spatial dims {(H, W)}"
            )
        return (C, H // self.pool_size, W // self.pool_size)

    def forward(self, x, train, rng):
        p = self.pool_size
        B, C, H, W = x.shape
        win = x.reshape(B, C, H // p, p, W // p, p)
        offsets = [(i, j) for i in range(p) for j in range(p)]  # row-major
        # Elementwise maxima over the window taps: much faster than a
        # reduction over the two short window axes, and max is exact.
        out = win[:, :, :, 0, :, 0].copy()
        for i, j in offsets[1:]:
            np.maximum(out, win[:, :, :, i, :, j], out=out)
        if train:
            # Mark the first maximum of each window, as argmax would: ties go
            # to the lowest offset, and a NaN (which max propagates) beats
            # every number.
            mask = np.empty(win.shape, dtype=bool)
            seen = np.zeros(out.shape, dtype=bool)
            any_nan = bool(np.isnan(out).any())
            for i, j in offsets:
                tap = win[:, :, :, i, :, j]
                hit = tap == out
                if any_nan:
                    hit |= np.isnan(tap)
                hit &= ~seen
                mask[:, :, :, i, :, j] = hit
                seen |= hit
            self._cache = mask
        return out

    def backward(self, dout):
        self._require_cache()
        mask = self._cache
        B, C, Ho, p, Wo, _ = mask.shape
        dx = np.where(mask, dout[:, :, :, None, :, None], 0.0)
        return dx.reshape(B, C, Ho * p, Wo * p)


class Dropout(Layer):
    """Inverted dropout: active only in training, identity at inference."""

    kind = "dropout"
    config_keys = ("rate",)

    def __init__(self, rate: float):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
        self.rate = rate

    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x, train, rng):
        if not train:
            return x
        if rng is None:
            raise ValueError("dropout in training mode needs an rng stream")
        keep = 1.0 - self.rate
        mask = (rng.random(x.shape) >= self.rate) / keep
        self._cache = mask
        return x * mask

    def backward(self, dout):
        self._require_cache()
        return dout * self._cache


class Flatten(Layer):
    kind = "flatten"

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward(self, x, train, rng):
        if train:
            self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        self._require_cache()
        return dout.reshape(self._cache)


class Dense(Layer):
    """Fully connected layer with relu or linear activation."""

    kind = "dense"
    config_keys = ("in_size", "out_size", "activation")

    def __init__(self, in_size: int, out_size: int, activation: str = "relu", rng=None):
        super().__init__()
        if in_size < 1 or out_size < 1:
            raise ValueError("dense sizes must be positive")
        self.params = _init_params(activation, in_size, (in_size, out_size), out_size, rng)
        self.in_size = in_size
        self.out_size = out_size
        self.activation = activation

    def out_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.in_size:
            raise ShapeError(f"dense expects ({self.in_size},) input, got {in_shape}")
        return (self.out_size,)

    def forward(self, x, train, rng):
        B = x.shape[0]
        if not train and B % 4:  # batch invariance: see the module docstring
            x = np.pad(x, ((0, -B % 4), (0, 0)), mode="edge")
        pre = x @ self.params["w"] + self.params["b"]
        out = np.maximum(pre, 0.0) if self.activation == "relu" else pre
        if train:
            self._cache = (x, pre)
        return out[:B]

    def backward(self, dout):
        self._require_cache()
        x, pre = self._cache
        dpre = dout * (pre > 0.0) if self.activation == "relu" else dout
        self.grads = {"w": x.T @ dpre, "b": dpre.sum(axis=0)}
        return dpre @ self.params["w"].T


LAYER_KINDS = {cls.kind: cls for cls in (Conv2D, MaxPool2D, Dropout, Flatten, Dense)}


def layer_from_config(cfg: dict) -> Layer:
    """Rebuild a layer from its config() dict. Parameters are left at init values.
    Raises ValueError unless cfg is a dict of "kind" and exactly that kind's config_keys."""
    if not isinstance(cfg, dict):
        raise ValueError(f"layer config must be a JSON object, got {cfg!r}")
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in LAYER_KINDS:
        raise ValueError(f"unknown layer kind: {kind!r}")
    kwargs = {k: v for k, v in cfg.items() if k != "kind"}
    keys = LAYER_KINDS[kind].config_keys
    if set(kwargs) != set(keys):
        raise ValueError(f"{kind} layer config: missing keys {sorted(set(keys) - set(kwargs))}, "
                         f"unknown keys {sorted(set(kwargs) - set(keys))}")
    if kind == "dense" and kwargs.get("activation") == "softmax":
        # Decoders once ended in a softmax Dense; they now emit logits and the
        # caller applies softmax, so such a head is the same layer, linear.
        kwargs["activation"] = "linear"
    return LAYER_KINDS[kind](**kwargs)
