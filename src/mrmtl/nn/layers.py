"""Trainable layers: Conv2D, MaxPool2D, Dropout, Flatten, Dense.

All arrays are float64. Layers operate on batched inputs: (B, C, H, W) for
the convolutional stack, (B, D) after Flatten. Each layer caches what its
backward pass needs when run in training mode:

- Conv2D: the contiguous (B*H*W, C*k*k) im2col patch matrix, the small
  padded buffer it was gathered through, and for ReLU the boolean
  (B*H*W, filters) mask of positive outputs. Forward copies one cache-sized
  block of images at a time into a zero-bordered channels-last padded
  buffer (no np.pad), which a conv output's own memory fills row by row, and
  gathers their patch rows through a cached read-only index, in the
  (channel, kernel row, kernel column) order of the filters' columns.
  Training gathers the whole batch's matrix, refilling the last training
  pass's matrix and buffer when the shapes match, and multiplies it at once;
  inference multiplies each block as soon as it is gathered, G images per
  GEMM, and adds the bias and ReLU while the block's result is in cache.
  Either way a conv returns an NCHW view of channels-last output. Backward
  is one GEMM for the weight gradient and, for the input gradient, k*k tap
  GEMMs over blocks of images, each added into the padded channels-last
  gradient.
- MaxPool2D: a boolean mask over the input marking the first maximum of
  each window in row-major order. Its output keeps the input's memory
  order, so a conv's channels-last output pools into channels-last memory.
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
else is in its batch. Conv2D multiplies a fixed number G of images per GEMM,
set by the output's H x W alone (_group_images), and pads the last group with
copies of the last image. Dense pads its rows with copies of the last to a
multiple of 4. OpenBLAS rounds a row alike in all such GEMMs, unlike a
matrix-vector product, a remainder of 2 or 3 rows, or a grouped GEMM of images
whose pixel count is not a multiple of 64.
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
    """Read-only flat offsets of every patch entry into one channels-last
    padded image.

    idx[h, w, c, i, j] = ((h + i)*Wp + w + j)*C + c, raveled: the patch under
    output pixel (h, w) in (channel, kernel row, kernel column) order, the
    order of the filters' columns. Built once per shape and shared, so it
    must never be written; the encoder's six shapes take about 5 MB.
    """
    H, W = Hp - k + 1, Wp - k + 1
    h = np.arange(H).reshape(H, 1, 1, 1, 1)
    w = np.arange(W).reshape(1, W, 1, 1, 1)
    c = np.arange(C).reshape(1, 1, C, 1, 1)
    i = np.arange(k).reshape(1, 1, 1, k, 1)
    j = np.arange(k).reshape(1, 1, 1, 1, k)
    idx = (((h + i) * Wp + w + j) * C + c).ravel()
    idx.flags.writeable = False
    return idx


def _im2col(xp: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """(B, Hp, Wp, C) padded input -> contiguous (B*H*W, C*k*k) patch matrix.

    Row b*H*W + h*W + w is the patch under output pixel (h, w) of image b,
    flattened in (channel, kernel row, kernel column) order. One gather, into
    out, which must have that shape and xp's dtype.
    """
    B, Hp, Wp, C = xp.shape
    idx = _im2col_index(C, Hp, Wp, k)
    # Every offset is in range, so "clip" changes nothing; with out= the
    # default "raise" would gather into a temporary first and then copy.
    np.take(xp.reshape(B, -1), idx, axis=1, out=out.reshape(B, -1), mode="clip")
    return out


# Bytes of one block of images' working buffer: the patch rows the forward
# pass gathers at once, each tap's slab in the input gradient. Small enough
# that a block's GEMM operand or result is still in cache when it is next read.
_BLOCK_BYTES = 1 << 21

# Patch rows an inference GEMM should at least have, so that the per-call
# threading and filter packing are spread over several images.
_GROUP_ROWS = 2048


def _group_images(H: int, W: int) -> int:
    """Images per inference GEMM at an H x W output: enough for _GROUP_ROWS
    patch rows when H*W is a multiple of 64, else 1.

    It depends on the shape alone, never on the batch. OpenBLAS gives a row
    the same bits in a G-image GEMM as in its own image's GEMM only for some
    row counts: images of 4-24 rows (default kernel, K = 288) and of 42 rows
    (Haswell kernel, two threads) came out differently.
    """
    if H * W % 64:
        return 1
    return -(-_GROUP_ROWS // (H * W))


def _block_images(B: int, image_bytes: int, group: int = 1) -> int:
    """Images per block: as many whole groups as fit in _BLOCK_BYTES, at
    least one, and no more than B rounded up to a whole group needs."""
    groups = -(-B // group)
    return group * min(groups, max(1, _BLOCK_BYTES // (group * image_bytes)))


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
        k, F = self.kernel_size, self.filters
        p = (k - 1) // 2
        hw, ckk = H * W, C * k * k
        # Both modes gather blocks of m images through one small padded
        # buffer. Training multiplies the whole batch's patch matrix at once;
        # inference multiplies each block as it is gathered, G images per
        # GEMM, with the last group padded by copies of the last image, as
        # Dense pads its rows.
        G = B if train else _group_images(H, W)
        m = _block_images(B, hw * ckk * x.itemsize, 1 if train else G)
        Bg = -(-B // G) * G
        # A training pass refills the last training pass's patch matrix and
        # padded buffer: gathering into warm pages costs about half a fresh
        # array's. The old cache goes first, so a changed batch size never
        # holds both.
        cols = xp = None
        if train and self._cache is not None:
            cols, xp = self._cache[:2]
            self._cache = None
            if (cols.shape != (B * hw, ckk) or xp.shape != (m, H + 2 * p, W + 2 * p, C)
                    or cols.dtype != x.dtype):
                cols = xp = None
        if cols is None:
            cols = np.empty(((B if train else m) * hw, ckk), dtype=x.dtype)
            # channels-last; the border is never written, so it stays 0
            xp = np.zeros((m, H + 2 * p, W + 2 * p, C), dtype=x.dtype)
        xt = x.transpose(0, 2, 3, 1)  # a conv output's own memory order
        wmat = self.params["w"].reshape(F, -1).T
        out = np.empty((Bg * hw, F), dtype=np.result_type(x, wmat))
        for b0 in range(0, B, m):
            n, ng = min(m, B - b0), min(m, Bg - b0)
            xp[:n, p:p + H, p:p + W] = xt[b0:b0 + n]
            xp[n:ng, p:p + H, p:p + W] = xt[B - 1]
            r0 = b0 * hw if train else 0
            block = _im2col(xp[:ng], k, cols[r0:r0 + ng * hw])
            if not train:
                self._multiply(block, wmat, out[b0 * hw:(b0 + ng) * hw], G * hw)
        if train:
            self._multiply(cols, wmat, out, B * hw)
            # out > 0 exactly where the pre-activation was > 0
            mask = out > 0.0 if self.activation == "relu" else None
            self._cache = (cols, xp, mask, (B, C, H, W))
        return out[:B * hw].reshape(B, H, W, F).transpose(0, 3, 1, 2)

    def _multiply(self, cols, wmat, out, rows):
        """out = activation(cols @ wmat + b): one GEMM per `rows` patch rows,
        then the bias and ReLU in place."""
        np.matmul(cols.reshape(-1, rows, cols.shape[1]), wmat,
                  out=out.reshape(-1, rows, out.shape[1]))
        out += self.params["b"]
        if self.activation == "relu":
            np.maximum(out, 0.0, out=out)

    def backward(self, dout):
        self._require_cache()
        cols, _, mask, (B, C, H, W) = self._cache
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
        # reduction over the two short window axes, and max is exact. The
        # output keeps the input's memory order: a conv's channels-last
        # output pools into channels-last memory under the same NCHW view.
        out = win[:, :, :, 0, :, 0].copy(order="K")
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
