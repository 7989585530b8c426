"""Neural engine: layer semantics, gradients, optimizer, checkpoints.

Forward passes are checked against naive loop implementations written here;
gradients against central finite differences. Conv2D and MaxPool2D must also
match, bit for bit, the reference im2col/col2im and argmax-pool layers kept
below.
"""

import inspect
import struct

import numpy as np
import pytest

from conftest import edit_checkpoint_header, edit_checkpoint_tensors
from gradcheck import gradcheck
from mrmtl import nn
from mrmtl.models import build_decoder
from mrmtl.nn.layers import LAYER_KINDS, layer_from_config

# ---------------------------------------------------------------------------
# independent oracles


def naive_conv2d(x, w, b, relu: bool):
    """Direct same-padded stride-1 convolution by explicit loops."""
    B, C, H, W = x.shape
    F, _, k, _ = w.shape
    p = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.zeros((B, F, H, W))
    for bi in range(B):
        for f in range(F):
            for i in range(H):
                for j in range(W):
                    out[bi, f, i, j] = np.sum(xp[bi, :, i:i + k, j:j + k] * w[f]) + b[f]
    return np.maximum(out, 0.0) if relu else out


def naive_maxpool(x, p):
    B, C, H, W = x.shape
    out = np.zeros((B, C, H // p, W // p))
    for i in range(H // p):
        for j in range(W // p):
            out[:, :, i, j] = x[:, :, i * p:(i + 1) * p, j * p:(j + 1) * p].max(axis=(2, 3))
    return out


# ---------------------------------------------------------------------------
# bit-exact references: the loop im2col/col2im convolution and the argmax
# max-pool. The engine's layers must reproduce their outputs and gradients
# exactly, so that a faster layout never changes a trained artifact.


def ref_im2col(xp, k):
    """(B, C, Hp, Wp) padded input -> (B, H*W, C*k*k) patch matrix (a view)."""
    B, C, Hp, Wp = xp.shape
    H, W = Hp - k + 1, Wp - k + 1
    cols = np.empty((B, C, k, k, H, W), dtype=xp.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i:i + H, j:j + W]
    return cols.reshape(B, C * k * k, H * W).transpose(0, 2, 1)


def ref_col2im(dcols, B, C, k, H, W):
    dc = dcols.transpose(0, 2, 1).reshape(B, C, k, k, H, W)
    dxp = np.zeros((B, C, H + k - 1, W + k - 1), dtype=dcols.dtype)
    for i in range(k):
        for j in range(k):
            dxp[:, :, i:i + H, j:j + W] += dc[:, :, i, j]
    return dxp


def ref_conv_forward(self, x, train, rng):
    B, C, H, W = x.shape
    k = self.kernel_size
    p = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    cols = ref_im2col(xp, k)
    wmat = self.params["w"].reshape(self.filters, -1).T
    # The contiguous patch matrix the layer multiplies. For one image the
    # reshape is a transposed view, which OpenBLAS multiplies with another
    # kernel, so it is copied.
    pre = np.ascontiguousarray(cols.reshape(B * H * W, -1)) @ wmat + self.params["b"]
    pre = pre.reshape(B, H * W, self.filters)
    out = np.maximum(pre, 0.0) if self.activation == "relu" else pre
    if train:
        self._cache = (cols, pre, (B, C, H, W))
    return out.transpose(0, 2, 1).reshape(B, self.filters, H, W)


def ref_conv_backward(self, dout):
    cols, pre, (B, C, H, W) = self._cache
    k = self.kernel_size
    p = (k - 1) // 2
    dpre = dout.reshape(B, self.filters, H * W).transpose(0, 2, 1)
    if self.activation == "relu":
        dpre = dpre * (pre > 0.0)
    flat_cols = cols.reshape(B * H * W, -1)
    flat_dpre = dpre.reshape(B * H * W, self.filters)
    self.grads = {
        "w": (flat_cols.T @ flat_dpre).T.reshape(self.params["w"].shape),
        "b": flat_dpre.sum(axis=0),
    }
    dcols = flat_dpre @ self.params["w"].reshape(self.filters, -1)
    dxp = ref_col2im(dcols.reshape(B, H * W, -1), B, C, k, H, W)
    return dxp[:, :, p:-p, p:-p] if p else dxp


def ref_pool_forward(self, x, train, rng):
    p = self.pool_size
    B, C, H, W = x.shape
    win = (x.reshape(B, C, H // p, p, W // p, p)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(B, C, H // p, W // p, p * p))
    if train:
        self._cache = (win.argmax(axis=-1), (B, C, H, W))
    return win.max(axis=-1)


def ref_pool_backward(self, dout):
    idx, (B, C, H, W) = self._cache
    p = self.pool_size
    dwin = np.zeros((B, C, H // p, W // p, p * p))
    np.put_along_axis(dwin, idx[..., None], dout[..., None], axis=-1)
    return (dwin.reshape(B, C, H // p, W // p, p, p)
                .transpose(0, 1, 2, 4, 3, 5)
                .reshape(B, C, H, W))


def _same_bits(a, b) -> bool:
    """Equal shape and bytes: also tells -0.0 from 0.0 and keeps NaN payloads."""
    return a.shape == b.shape and (np.ascontiguousarray(a).tobytes()
                                   == np.ascontiguousarray(b).tobytes())


def _assert_same_pass(layer, ref_layer, fwd, bwd, x, dout):
    """Forward (both modes) and backward of both layers agree bit for bit.

    Training is checked against the reference on the whole batch, inference
    against the reference run one image at a time: inference is batch
    invariant, so each image comes out as from a GEMM of its own."""
    want = fwd(ref_layer, x, True, None)
    assert _same_bits(layer.forward(x, True, None), want)
    assert _same_bits(layer.backward(dout), bwd(ref_layer, dout))
    for name in layer.params:
        assert _same_bits(layer.grads[name], ref_layer.grads[name]), name
    want = np.concatenate([fwd(ref_layer, x[i:i + 1], False, None) for i in range(len(x))])
    assert _same_bits(layer.forward(x, False, None), want)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("activation", ["relu", "linear"])
@pytest.mark.parametrize("inputs", ["normal", "post_relu", "dead_filter"])
def test_conv_bitwise_matches_reference(k, activation, inputs):
    rng = np.random.default_rng([k, len(activation), len(inputs)])
    layer = nn.Conv2D(3, 5, k, activation, rng=np.random.default_rng(1))
    ref_layer = nn.Conv2D(3, 5, k, activation, rng=np.random.default_rng(1))
    bias = rng.normal(size=5)
    x = rng.normal(size=(4, 3, 6, 7))
    dout = rng.normal(size=(4, 5, 6, 7))
    if inputs != "normal":
        x = np.maximum(x, 0.0)
    if inputs == "dead_filter":
        bias[0] = -1e3  # a dead unit: every gradient through filter 0 is masked
    layer.params["b"][...] = ref_layer.params["b"][...] = bias
    _assert_same_pass(layer, ref_layer, ref_conv_forward, ref_conv_backward, x, dout)


def test_conv_bitwise_matches_reference_on_encoder_shape():
    rng = np.random.default_rng(8)
    layer = nn.Conv2D(16, 32, 3, "relu", rng=np.random.default_rng(2))
    ref_layer = nn.Conv2D(16, 32, 3, "relu", rng=np.random.default_rng(2))
    x = np.maximum(rng.normal(size=(8, 16, 16, 16)), 0.0)
    dout = rng.normal(size=(8, 32, 16, 16))
    _assert_same_pass(layer, ref_layer, ref_conv_forward, ref_conv_backward, x, dout)


# The encoder's six convolutions as deployed, (in_channels, filters, side),
# at the training batch size.
ENCODER_CONVS = [(3, 32, 32), (32, 32, 32), (32, 64, 16), (64, 64, 16),
                 (64, 128, 8), (128, 128, 8)]


@pytest.mark.parametrize("C, F, side", ENCODER_CONVS)
def test_conv_bitwise_matches_reference_on_deployed_shapes(C, F, side):
    rng = np.random.default_rng([C, F, side])
    layer = nn.Conv2D(C, F, 3, "relu", rng=np.random.default_rng(C))
    ref_layer = nn.Conv2D(C, F, 3, "relu", rng=np.random.default_rng(C))
    x = rng.normal(size=(32, C, side, side))
    if C != 3:
        x = np.maximum(x, 0.0)  # every later layer sees ReLU output
    dout = rng.normal(size=(32, F, side, side))
    _assert_same_pass(layer, ref_layer, ref_conv_forward, ref_conv_backward, x, dout)


def test_conv_reused_patch_buffer_matches_fresh_layers():
    # Training passes at batch sizes 4, 3 (a partial batch), 4 and 4: each
    # matches a fresh reference layer, and only the last, at an unchanged
    # shape, gathers into the previous pass's patch matrix through its
    # padded buffer, whose border is still zero.
    rng = np.random.default_rng(21)
    layer = nn.Conv2D(3, 5, 3, "relu", rng=np.random.default_rng(4))
    border = np.ones((8, 9), dtype=bool)
    border[1:-1, 1:-1] = False
    reused, last = [], (None, None)
    for B in (4, 3, 4, 4):
        ref_layer = nn.Conv2D(3, 5, 3, "relu", rng=np.random.default_rng(4))
        x = rng.normal(size=(B, 3, 6, 7))
        dout = rng.normal(size=(B, 5, 6, 7))
        _assert_same_pass(layer, ref_layer, ref_conv_forward, ref_conv_backward, x, dout)
        cols, xp = layer._cache[:2]
        reused.append((cols is last[0], xp is last[1]))
        assert not xp[:, border].any()
        last = cols, xp
    assert reused == [(False, False)] * 3 + [(True, True)]


# Gather block sizes: the fewest images a block takes (one image in training,
# one GEMM group in inference), the default, and one block for any batch.
BLOCK_SPLITS = {"one_image": 1, "default": nn.layers._BLOCK_BYTES, "whole_batch": 1 << 40}


def _count_gathers(monkeypatch):
    from mrmtl.nn import layers

    calls = []
    im2col = layers._im2col

    def counted(*args):
        calls.append(args[0].shape[0])
        return im2col(*args)

    monkeypatch.setattr(layers, "_im2col", counted)
    return calls


@pytest.mark.parametrize("C, F, side", ENCODER_CONVS)
def test_conv_blocked_inference_matches_reference_at_every_split(monkeypatch, C, F, side):
    # Inference gathers and multiplies block by block, each block a whole
    # number of GEMM groups, the last padded; whatever the split, the output
    # equals the whole-batch reference GEMM bit for bit.
    from mrmtl.nn import layers

    rng = np.random.default_rng([C, F, side, 2])
    layer = nn.Conv2D(C, F, 3, "relu", rng=np.random.default_rng(C))
    ref_layer = nn.Conv2D(C, F, 3, "relu", rng=np.random.default_rng(C))
    gathers = _count_gathers(monkeypatch)
    G = layers._group_images(side, side)
    for B in (1, 3, 64, 65):
        x = rng.normal(size=(B, C, side, side))
        if C != 3:
            x = np.maximum(x, 0.0)
        want = ref_conv_forward(ref_layer, x, False, None)
        Bg = -(-B // G) * G  # B in whole groups
        for split, block_bytes in BLOCK_SPLITS.items():
            monkeypatch.setattr(layers, "_BLOCK_BYTES", block_bytes)
            gathers.clear()
            assert _same_bits(layer.forward(x, False, None), want), (B, split)
            m = {"one_image": G, "whole_batch": Bg}.get(
                split, layers._block_images(B, side * side * C * 9 * 8, G))
            assert m % G == 0
            assert gathers == [m] * (Bg // m) + [Bg % m] * (Bg % m > 0), (B, split)


@pytest.mark.parametrize("C, F, side", ENCODER_CONVS)
def test_conv_grouped_inference_matches_per_image_reference(C, F, side):
    # G images share a GEMM, so a batch whose size is not a multiple of G
    # pads its last group; every image still comes out as from a GEMM of its
    # own, in any batch, subset or order. Linear, so that no ReLU hides a
    # difference in a negative output; later layers see a conv's
    # channels-last memory under its NCHW view, as deployed.
    from mrmtl.nn import layers

    G = layers._group_images(side, side)
    assert G == {32: 2, 16: 8, 8: 32}[side]
    rng = np.random.default_rng([C, F, side, 3])
    layer = nn.Conv2D(C, F, 3, "linear", rng=np.random.default_rng(C))
    ref_layer = nn.Conv2D(C, F, 3, "linear", rng=np.random.default_rng(C))
    x = rng.normal(size=(80, side, side, C)).transpose(0, 3, 1, 2)
    if C == 3:
        x = np.ascontiguousarray(x)  # the images themselves are NCHW
    want = np.concatenate([ref_conv_forward(ref_layer, x[i:i + 1], False, None)
                           for i in range(len(x))])
    for B in (1, G - 1, G + 1, 64, 65, 80):
        assert _same_bits(layer.forward(x[:B], False, None), want[:B]), B
    for rows in (np.sort(rng.choice(80, 37, replace=False)), rng.permutation(80)):
        assert _same_bits(layer.forward(x[rows], False, None), want[rows]), rows


def test_conv_groups_images_only_at_multiples_of_64_pixels(monkeypatch):
    # At 6x7 (42 rows an image), OpenBLAS rounds a row of a grouped GEMM
    # differently from the same row in its own image's GEMM, so each image
    # keeps a GEMM of its own; at 8x8 they go 32 to a GEMM.
    from mrmtl.nn import layers

    calls = []
    multiply = nn.Conv2D._multiply

    def recorded(self, cols, wmat, out, rows):
        calls.append((cols.shape[0], rows))
        return multiply(self, cols, wmat, out, rows)

    monkeypatch.setattr(nn.Conv2D, "_multiply", recorded)
    assert layers._group_images(6, 7) == 1
    layer = nn.Conv2D(3, 5, 5, "linear", rng=np.random.default_rng(5))
    x = np.random.default_rng(6).normal(size=(5, 3, 6, 7))
    layer.forward(x, False, None)
    assert calls == [(5 * 42, 42)]
    calls.clear()
    nn.Conv2D(3, 5, 3, "linear", rng=np.random.default_rng(5)).forward(
        np.random.default_rng(6).normal(size=(5, 3, 8, 8)), False, None)
    assert calls == [(32 * 64, 32 * 64)]  # 5 images padded to one group


@pytest.mark.parametrize("split", ["one_image", "whole_batch"])
def test_conv_training_and_inference_passes_interleave(monkeypatch, split):
    # An inference pass between a training forward and its backward leaves
    # the cached patch matrix alone, and the next training pass still
    # refills it; in the reverse order the inference pass leaves nothing a
    # training pass could pick up.
    from mrmtl.nn import layers

    monkeypatch.setattr(layers, "_BLOCK_BYTES", BLOCK_SPLITS[split])
    C, F, side = 32, 64, 16
    rng = np.random.default_rng(17)
    layer = nn.Conv2D(C, F, 3, "relu", rng=np.random.default_rng(5))
    ref_layer = nn.Conv2D(C, F, 3, "relu", rng=np.random.default_rng(5))
    x_train, x_infer = (np.maximum(rng.normal(size=(5, C, side, side)), 0.0) for _ in "ab")
    dout = rng.normal(size=(5, F, side, side))

    assert _same_bits(layer.forward(x_infer, False, None),
                      ref_conv_forward(ref_layer, x_infer, False, None))
    assert layer._cache is None
    want = ref_conv_forward(ref_layer, x_train, True, None)
    assert _same_bits(layer.forward(x_train, True, None), want)
    cols = layer._cache[0]
    assert cols.shape == (5 * side * side, C * 9)  # the whole batch's patch matrix

    assert _same_bits(layer.forward(x_infer, False, None),
                      ref_conv_forward(ref_layer, x_infer, False, None))
    assert layer._cache[0] is cols
    assert _same_bits(layer.backward(dout), ref_conv_backward(ref_layer, dout))
    for name in layer.params:
        assert _same_bits(layer.grads[name], ref_layer.grads[name]), name
    assert _same_bits(layer.forward(x_train, True, None), want)
    assert layer._cache[0] is cols


def test_encoder_inference_never_holds_the_whole_patch_matrix():
    # conv2's whole-batch patch matrix alone is 151 MB at B=64 (65 536 rows
    # of 288 float64); a blocked inference pass stays far below it.
    import tracemalloc

    from mrmtl.models import build_encoder

    encoder = build_encoder(4, 0)
    x = np.random.default_rng(0).normal(size=(64, 3, 32, 32))
    encoder.forward(x)  # builds the shared gather indices
    tracemalloc.start()
    try:
        encoder.forward(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_conv_bitwise_matches_reference_across_alternating_shapes():
    # One process, shapes alternating k 3 -> 5 -> 3, channel counts and a
    # non-square image: each (C, Hp, Wp, k) gets its own read-only index.
    from mrmtl.nn.layers import _im2col, _im2col_index

    rng = np.random.default_rng(12)
    seen = {}
    for C, H, W, k in [(3, 6, 7, 3), (4, 6, 7, 5), (2, 9, 4, 3), (3, 6, 7, 3)]:
        p = (k - 1) // 2
        x = rng.normal(size=(2, C, H, W))
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        out = np.empty((2 * H * W, C * k * k))
        assert _im2col(np.ascontiguousarray(xp.transpose(0, 2, 3, 1)), k, out) is out
        assert _same_bits(out, ref_im2col(xp, k).reshape(-1, C * k * k))
        idx = _im2col_index(C, H + 2 * p, W + 2 * p, k)
        assert not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0] = 1
        assert seen.setdefault((C, H, W, k), idx) is idx  # built once per shape
        layer = nn.Conv2D(C, 3, k, "relu", rng=np.random.default_rng(k))
        ref_layer = nn.Conv2D(C, 3, k, "relu", rng=np.random.default_rng(k))
        _assert_same_pass(layer, ref_layer, ref_conv_forward, ref_conv_backward, x,
                          rng.normal(size=(2, 3, H, W)))


# ---------------------------------------------------------------------------
# batch invariance: inference gives a row the same bits whatever its batch


def _assert_batch_invariant(forward, x, seed):
    """Any row subset of x comes out as those rows of the full batch, bit for
    bit: leading and trailing runs of 1 to 7 rows, and random subsets."""
    full = forward(x)
    B = len(x)
    rng = np.random.default_rng(seed)
    subsets = [np.arange(lo, lo + size) for size in range(1, 8) for lo in (0, B - size)]
    subsets += [np.sort(rng.choice(B, rng.integers(1, B), replace=False)) for _ in range(10)]
    for rows in subsets:
        assert _same_bits(forward(x[rows]), full[rows]), rows


# Every Dense (in, out) of the models at nc 4: the encoder's hidden layer at
# 3x32x32 and 3x8x8 input, its head, and both decoders' layers; and 32 -> 10,
# the head of a decoder 32 wide.
DENSE_SHAPES = [(2048, 512), (128, 512), (512, 4), (4, 4), (4, 10), (8, 8), (8, 4),
                (32, 10)]


@pytest.mark.parametrize("n_in, n_out", DENSE_SHAPES)
def test_dense_inference_is_batch_invariant(n_in, n_out):
    # linear, so that no ReLU hides a difference in a negative output
    layer = nn.Dense(n_in, n_out, "linear", rng=np.random.default_rng(n_in))
    x = np.random.default_rng([n_in, n_out]).normal(size=(70, n_in))
    _assert_batch_invariant(lambda a: layer.forward(a, False, None), x, n_out)


@pytest.mark.parametrize("shape, B", [pytest.param((3, 8, 8), 29, id="8x8-B29"),
                                      pytest.param((3, 8, 8), 92, id="8x8-B92"),
                                      pytest.param((3, 32, 32), 70, id="32x32-B70")])
def test_encoder_inference_is_batch_invariant(shape, B):
    from mrmtl.models import build_encoder

    encoder = build_encoder(4, 1, input_shape=shape)
    x = np.random.default_rng(B).random((B, *shape))
    _assert_batch_invariant(encoder.forward, x, B)


def _pool_inputs(p, rng):
    shape = (3, 4, 2 * p, 3 * p)
    dense = rng.normal(size=shape)
    relu = np.maximum(rng.normal(size=shape), 0.0)   # many all-zero windows
    coarse = rng.integers(0, 2, size=shape).astype(float)  # ties at other values
    nan = dense.copy()
    nan[0, 0, 0, 1] = np.nan                          # not at offset 0
    nan[1, 2, p, p] = np.nan
    nan[2, 3, p - 1:, p - 1:] = np.nan                # several NaN in one window
    return {"dense": dense, "relu": relu, "coarse": coarse, "nan": nan}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", ["dense", "relu", "coarse", "nan"])
def test_maxpool_bitwise_matches_reference(p, kind):
    rng = np.random.default_rng([p, 31])
    x = _pool_inputs(p, rng)[kind]
    dout = rng.normal(size=(3, 4, 2, 3))
    _assert_same_pass(nn.MaxPool2D(p), nn.MaxPool2D(p), ref_pool_forward,
                      ref_pool_backward, x, dout)


@pytest.mark.parametrize("layout", ["nchw", "nhwc"])
def test_maxpool_inference_keeps_the_input_memory_order(layout):
    # A conv's output is channels-last memory under an NCHW view; inference
    # pools it into channels-last memory, and an NCHW input into NCHW, with
    # the reference's bits either way.
    x = np.random.default_rng(7).normal(size=(3, 8, 6, 4))  # (B, H, W, C)
    x = x.transpose(0, 3, 1, 2) if layout == "nhwc" else x.reshape(3, 4, 8, 6)
    layer, ref_layer = nn.MaxPool2D(2), nn.MaxPool2D(2)
    got = layer.forward(x, False, None)
    assert _same_bits(got, ref_pool_forward(ref_layer, x, False, None))
    memory = got.transpose(0, 2, 3, 1) if layout == "nhwc" else got
    assert memory.flags.c_contiguous


def test_maxpool_nan_reaches_output_and_gradient():
    layer = nn.MaxPool2D(2)
    x = np.array([[1.0, np.nan], [3.0, np.nan]]).reshape(1, 1, 2, 2)
    assert np.isnan(layer.forward(x, True, None)).all()
    dx = layer.backward(np.full((1, 1, 1, 1), 5.0))
    assert dx.reshape(-1).tolist() == [0.0, 5.0, 0.0, 0.0]


def test_train_steps_match_reference_layers(monkeypatch):
    from mrmtl.channel import ChannelConfig
    from mrmtl.dataset import make_synthetic
    from mrmtl.models import ArchitectureConfig, TrainConfig, train_mrmtl

    # 2 classes x 4 training images at batch size 4: two joint steps
    dataset = make_synthetic(num_classes=2, per_class=5, seed=3)
    arch = ArchitectureConfig(nc=2, num_classes=2)
    channel = ChannelConfig(kind="awgn", snr_db=10.0, seed=0)
    cfg = TrainConfig(epochs=1, batch_size=4, seed=4)

    model, log = train_mrmtl(dataset, arch, channel, cfg)
    with monkeypatch.context() as m:
        m.setattr(nn.Conv2D, "forward", ref_conv_forward)
        m.setattr(nn.Conv2D, "backward", ref_conv_backward)
        m.setattr(nn.MaxPool2D, "forward", ref_pool_forward)
        m.setattr(nn.MaxPool2D, "backward", ref_pool_backward)
        ref_model, ref_log = train_mrmtl(dataset, arch, channel, cfg)

    assert log == ref_log
    for part in ("encoder1", "encoder2", "decoder1", "decoder2"):
        for (name, a), (_, b) in zip(getattr(model, part).param_items(),
                                     getattr(ref_model, part).param_items()):
            assert a.tobytes() == b.tobytes(), f"{part}.{name}"


def test_encoder_first_conv_skips_input_gradient(monkeypatch):
    # Nothing reads the gradient with respect to the images, so the joint
    # training pass never computes it for either encoder's first Conv2D; all
    # parameter gradients still equal the reference layers' bit for bit.
    from conftest import random_split, small_mrmtl
    from mrmtl.channel import ChannelConfig, draw_channel
    from mrmtl.models import PARTS, mrmtl_loss_and_grads
    from mrmtl.nn import layers

    split = random_split(n=6, seed=8)
    cfg = ChannelConfig(kind="awgn", snr_db=10.0, seed=0)

    def joint_pass(model):
        rng = np.random.default_rng(3)
        d1 = draw_channel(cfg, 6, model.nc1, rng)
        d2 = draw_channel(cfg, 6, model.nc2, rng)
        mrmtl_loss_and_grads(model, split.images, split.labels, d1, d2, rng)

    computed = []  # filter arrays of every input gradient that was computed
    input_grad = layers._conv_input_grad

    def recorded(dpre, w, B, H, W):
        computed.append(id(w))
        return input_grad(dpre, w, B, H, W)

    model = small_mrmtl(seed=6)
    with monkeypatch.context() as m:
        m.setattr(layers, "_conv_input_grad", recorded)
        joint_pass(model)
    for encoder in (model.encoder1, model.encoder2):
        first, *rest = [layer for layer in encoder.layers if layer.kind == "conv2d"]
        assert id(first.params["w"]) not in computed
        assert all(id(conv.params["w"]) in computed for conv in rest)

    ref_model = small_mrmtl(seed=6)
    with monkeypatch.context() as m:
        m.setattr(nn.Conv2D, "forward", ref_conv_forward)
        m.setattr(nn.Conv2D, "backward", ref_conv_backward)
        joint_pass(ref_model)
    for part in PARTS["mrmtl"]:
        ref_grads = getattr(ref_model, part).grad_items()
        for (name, a), (_, b) in zip(getattr(model, part).grad_items(), ref_grads):
            assert _same_bits(a, b), f"{part}.{name}"

    # Encoders return no input gradient; decoders and other networks do.
    for encoder in (model.encoder1, model.encoder2):
        assert encoder.backward(np.ones((6, encoder.output_shape[0]))) is None
    for decoder in (model.decoder1, model.decoder2):
        dx = decoder.backward(np.ones((6, decoder.output_shape[0])))
        assert dx.shape == (6, *decoder.input_shape)
    net = _tiny_net()
    x = np.random.default_rng(1).normal(size=(3, 2, 4, 4))
    net.forward(x, train=True, rng=np.random.default_rng(0))
    assert net.backward(np.ones((3, 5))).shape == x.shape


# ---------------------------------------------------------------------------
# layer forward semantics


def test_softmax_uniform_logits():
    probs = nn.softmax(np.zeros((3, 10)) + 7.0)
    assert np.allclose(probs, 0.1, atol=1e-12)


def test_softmax_sums_to_one_with_large_logits():
    rng = np.random.default_rng(0)
    z = rng.normal(0, 300.0, size=(20, 10))
    probs = nn.softmax(z)
    assert np.all(np.isfinite(probs))
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


@pytest.mark.parametrize("activation", ["relu", "linear"])
def test_conv_matches_naive(activation):
    rng = np.random.default_rng(3)
    layer = nn.Conv2D(2, 3, 3, activation, rng=rng)
    x = rng.normal(size=(2, 2, 5, 5))
    got = layer.forward(x, False, None)
    want = naive_conv2d(x, layer.params["w"], layer.params["b"], activation == "relu")
    assert np.allclose(got, want, atol=1e-12)


def test_maxpool_matches_naive():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 3, 6, 6))
    layer = nn.MaxPool2D(2)
    assert np.allclose(layer.forward(x, False, None), naive_maxpool(x, 2), atol=1e-15)


def test_maxpool_two_by_two():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    out = nn.MaxPool2D(2).forward(x, False, None)
    assert out.reshape(()) == 4.0


def test_maxpool_tie_routes_to_first():
    layer = nn.MaxPool2D(2)
    x = np.ones((1, 1, 2, 2))
    layer.forward(x, True, None)
    dx = layer.backward(np.ones((1, 1, 1, 1)))
    assert dx[0, 0, 0, 0] == 1.0
    assert dx.sum() == 1.0


def test_dropout_identity_at_inference():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 7))
    out = nn.Dropout(0.25).forward(x, False, None)
    assert out is x or np.array_equal(out, x)


def test_dropout_zero_fraction_binomial():
    rng = np.random.default_rng(1)
    rate = 0.25
    x = np.ones((100, 100))
    out = nn.Dropout(rate).forward(x, True, rng)
    n = x.size
    zeros = int(np.count_nonzero(out == 0.0))
    sigma = np.sqrt(n * rate * (1 - rate))
    assert abs(zeros - n * rate) < 3 * sigma
    # survivors rescaled by 1/(1-rate)
    kept = out[out != 0.0]
    assert np.allclose(kept, 1.0 / (1.0 - rate), atol=1e-12)


def test_dropout_needs_rng_in_training():
    with pytest.raises(ValueError, match="rng"):
        nn.Dropout(0.5).forward(np.ones((2, 2)), True, None)


def test_dropout_rate_validation():
    with pytest.raises(ValueError):
        nn.Dropout(1.0)
    with pytest.raises(ValueError):
        nn.Dropout(-0.1)


def test_dense_linear_weight_gradient_is_input():
    # scalar-output linear layer, loss = output: dL/dw = x
    rng = np.random.default_rng(5)
    layer = nn.Dense(4, 1, "linear", rng=rng)
    x = rng.normal(size=(1, 4))
    layer.forward(x, True, None)
    layer.backward(np.ones((1, 1)))
    assert np.allclose(layer.grads["w"], x.T, atol=1e-15)
    assert np.allclose(layer.grads["b"], 1.0, atol=1e-15)


# ---------------------------------------------------------------------------
# network container


def _tiny_net(seed=0, with_dropout=True):
    rng = np.random.default_rng(seed)
    layers = [
        nn.Conv2D(2, 3, 3, "relu", rng=rng),
        nn.MaxPool2D(2),
        nn.Flatten(),
        nn.Dense(12, 8, "relu", rng=rng),
    ]
    if with_dropout:
        layers.append(nn.Dropout(0.2))
    layers.append(nn.Dense(8, 5, "linear", rng=rng))
    return nn.Network(layers, (2, 4, 4))


def test_network_rejects_bad_input_shape():
    net = _tiny_net()
    with pytest.raises(nn.ShapeError, match="expects input shape"):
        net.forward(np.zeros((1, 2, 5, 5)))


def test_network_names_offending_layer_at_construction():
    rng = np.random.default_rng(0)
    with pytest.raises(nn.ShapeError, match="layer 1"):
        nn.Network([nn.Flatten(), nn.Dense(5, 2, "linear", rng=rng)], (2, 2, 2))


def test_backward_requires_training_forward():
    net = _tiny_net()
    net.forward(np.zeros((1, 2, 4, 4)), train=False)
    with pytest.raises(RuntimeError, match="training forward"):
        net.backward(np.zeros((1, 5)))


def _cached_layers(net):
    return [i for i, layer in enumerate(net.layers) if layer._cache is not None]


def test_inference_forward_drops_training_caches(monkeypatch):
    import gc
    import weakref

    from mrmtl.channel import ChannelConfig
    from mrmtl.dataset import make_synthetic
    from mrmtl.models import ArchitectureConfig, TrainConfig, train_mrmtl
    from mrmtl.nn import layers

    net = _tiny_net()
    x = np.random.default_rng(3).normal(size=(3, 2, 4, 4))
    net.forward(x, train=True, rng=np.random.default_rng(0))
    cols = net.layers[0]._cache[0]
    net.forward(x, train=True, rng=np.random.default_rng(0))
    assert net.layers[0]._cache[0] is cols  # refilled, not reallocated
    cols = weakref.ref(cols)
    assert _cached_layers(net) == list(range(len(net.layers)))
    net.forward(x, train=False)
    assert _cached_layers(net) == []
    gc.collect()
    assert cols() is None  # the reused patch matrix went with the cache
    with pytest.raises(RuntimeError, match="training forward"):
        net.backward(np.zeros((3, 5)))

    # Training returns a model with no cache, and no patch matrix alive.
    gathered = []
    im2col = layers._im2col

    def recorded(*args):
        out = im2col(*args)
        gathered.append(weakref.ref(out))
        return out

    monkeypatch.setattr(layers, "_im2col", recorded)
    model, _ = train_mrmtl(make_synthetic(num_classes=2, per_class=5, seed=3),
                           ArchitectureConfig(nc=2, num_classes=2),
                           ChannelConfig(seed=0), TrainConfig(epochs=1, batch_size=4))
    for part in (model.encoder1, model.encoder2, model.decoder1, model.decoder2):
        assert _cached_layers(part) == []
    gc.collect()
    assert gathered and all(ref() is None for ref in gathered)


def test_backward_is_repeatable_after_one_training_forward():
    net = _tiny_net()
    x = np.random.default_rng(4).normal(size=(3, 2, 4, 4))
    dout = np.random.default_rng(5).normal(size=(3, 5))
    net.forward(x, train=True, rng=np.random.default_rng(0))
    first = net.backward(dout)
    first_grads = [g.copy() for _, g in net.grad_items()]
    second = net.backward(dout)
    assert _same_bits(first, second)
    for a, (name, b) in zip(first_grads, net.grad_items()):
        assert _same_bits(a, b), name


def test_inference_forward_is_deterministic():
    net = _tiny_net()
    x = np.random.default_rng(9).normal(size=(3, 2, 4, 4))
    assert np.array_equal(net.forward(x), net.forward(x))


def test_network_output_is_probability_vector():
    # the network emits logits; their softmax is one probability row per input
    net = _tiny_net()
    x = np.random.default_rng(2).normal(size=(6, 2, 4, 4))
    probs = nn.softmax(net.forward(x))
    assert probs.shape == (6, 5)
    assert np.all(probs >= 0.0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# loss


def test_cross_entropy_one_hot():
    probs = np.zeros((2, 10))
    probs[0, 3] = probs[1, 7] = 1.0
    assert abs(nn.cross_entropy(probs, [3, 7])) < 1e-9


def test_cross_entropy_uniform():
    probs = np.full((3, 10), 0.1)
    assert abs(nn.cross_entropy(probs, [0, 4, 9]) - np.log(10.0)) < 1e-9


def test_cross_entropy_zero_probability_is_finite():
    probs = np.zeros((1, 10))
    probs[0, 0] = 1.0
    value = nn.cross_entropy(probs, [5])
    assert np.isfinite(value)
    assert abs(value - (-np.log(1e-12))) < 1e-6


def test_cross_entropy_label_range():
    with pytest.raises(ValueError):
        nn.cross_entropy(np.full((1, 10), 0.1), [10])
    with pytest.raises(ValueError):
        nn.cross_entropy(np.full((2, 10), 0.1), [0, -1])


def test_cross_entropy_batch_mean():
    rng = np.random.default_rng(7)
    probs = rng.random((4, 6))
    probs /= probs.sum(axis=1, keepdims=True)
    labels = np.array([0, 2, 5, 1])
    want = np.mean([nn.cross_entropy(probs[i:i + 1], labels[i:i + 1]) for i in range(4)])
    assert abs(nn.cross_entropy(probs, labels) - want) < 1e-12


def test_cross_entropy_grad_matches_fd():
    # the gradient is with respect to the logits z, where p = softmax(z)
    rng = np.random.default_rng(8)
    z = rng.normal(size=(3, 6))
    labels = np.array([2, 0, 5])
    grad = nn.cross_entropy_grad(nn.softmax(z), labels)
    assert grad.shape == z.shape
    step = 1e-6
    for idx in np.ndindex(z.shape):
        z_plus = z.copy(); z_plus[idx] += step
        z_minus = z.copy(); z_minus[idx] -= step
        fd = (nn.cross_entropy(nn.softmax(z_plus), labels)
              - nn.cross_entropy(nn.softmax(z_minus), labels)) / (2 * step)
        assert abs(grad[idx] - fd) < 1e-8


# ---------------------------------------------------------------------------
# optimizer


def _one_param_layer(value=0.5):
    layer = nn.Dense(1, 1, "linear", rng=np.random.default_rng(0))
    layer.params["w"][...] = value
    layer.params["b"][...] = 0.0
    return nn.Network([layer], (1,)), layer


def test_adam_zero_gradient_freezes_parameters():
    net, layer = _one_param_layer()
    layer.grads = {"w": np.zeros((1, 1)), "b": np.zeros(1)}
    before = layer.params["w"].copy()
    nn.Adam(lr=0.1).step([net])
    assert np.array_equal(layer.params["w"], before)


def test_adam_zero_lr_freezes_parameters():
    net, layer = _one_param_layer()
    layer.grads = {"w": np.ones((1, 1)), "b": np.ones(1)}
    before = layer.params["w"].copy()
    nn.Adam(lr=0.0).step([net])
    assert np.array_equal(layer.params["w"], before)


def test_adam_first_step_magnitude():
    # hand evaluation at t=1, g=1: m_hat=1, v_hat=1, step = lr/(1+eps)
    net, layer = _one_param_layer()
    layer.grads = {"w": np.ones((1, 1)), "b": np.zeros(1)}
    lr = 0.01
    before = float(layer.params["w"][0, 0])
    nn.Adam(lr=lr).step([net])
    delta = float(layer.params["w"][0, 0]) - before
    assert abs(delta + lr) < 1e-8 * lr + 1e-12


def test_adam_in_place_moments_match_out_of_place_formula():
    rng = np.random.default_rng(7)
    net = nn.Network([nn.Dense(6, 5, "relu", rng=rng), nn.Dense(5, 3, "linear", rng=rng)],
                     (6,))
    lr, b1, b2, eps = 1e-2, nn.Adam.beta1, nn.Adam.beta2, nn.Adam.eps
    opt = nn.Adam(lr=lr)
    want = {n: p.copy() for n, p in net.param_items()}
    m = {n: np.zeros_like(p) for n, p in want.items()}
    v = {n: np.zeros_like(p) for n, p in want.items()}
    for t in range(1, 7):
        for layer in net.layers:
            layer.grads = {k: rng.normal(size=p.shape) for k, p in layer.params.items()}
        for n, g in net.grad_items():
            m[n] = b1 * m[n] + (1.0 - b1) * g
            v[n] = b2 * v[n] + (1.0 - b2) * g * g
            want[n] -= lr * (m[n] / (1.0 - b1 ** t)) / (np.sqrt(v[n] / (1.0 - b2 ** t)) + eps)
        opt.step([net])
        for n, p in net.param_items():
            assert np.array_equal(p, want[n]), (t, n)


def test_adam_rejects_non_finite_gradient():
    net, layer = _one_param_layer()
    layer.grads = {"w": np.array([[np.nan]]), "b": np.zeros(1)}
    with pytest.raises(nn.NumericError, match="layer0.w"):
        nn.Adam().step([net])


# ---------------------------------------------------------------------------
# gradient checking


def test_gradcheck_linear_net_passes_tight():
    rng = np.random.default_rng(0)
    net = nn.Network([nn.Dense(3, 2, "linear", rng=rng)], (3,))
    x = np.random.default_rng(1).normal(size=(2, 3))
    report = gradcheck(net, x, np.array([0, 1]), tolerance=1e-5)
    assert report.passed, report.max_rel_error


def test_gradcheck_full_layer_mix():
    net = _tiny_net(seed=3)
    x = np.random.default_rng(4).normal(size=(2, 2, 4, 4))
    report = gradcheck(net, x, np.array([1, 4]), tolerance=1e-4)
    assert report.passed, report.max_rel_error


def test_gradcheck_detects_corrupted_backward(monkeypatch):
    net = _tiny_net(seed=5, with_dropout=False)
    x = np.random.default_rng(6).normal(size=(2, 2, 4, 4))
    original = nn.Dense.backward

    def corrupted(self, dout):
        dx = original(self, dout)
        self.grads = {k: 2.0 * v for k, v in self.grads.items()}
        return dx

    monkeypatch.setattr(nn.Dense, "backward", corrupted)
    report = gradcheck(net, x, np.array([1, 4]), tolerance=1e-4)
    assert not report.passed


def test_gradcheck_zero_tolerance_fails():
    rng = np.random.default_rng(0)
    net = nn.Network([nn.Dense(3, 2, "linear", rng=rng)], (3,))
    x = np.random.default_rng(1).normal(size=(2, 3))
    report = gradcheck(net, x, np.array([0, 1]), tolerance=0.0)
    assert not report.passed


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path):
    net = _tiny_net(seed=11)
    path = tmp_path / "net.ckpt"
    nn.save_checkpoint(net, path, metadata={"note": "roundtrip"})
    loaded, header = nn.load_checkpoint(path)
    assert header["format_version"] == 1
    assert header["metadata"]["note"] == "roundtrip"
    for (n1, a), (n2, b) in zip(net.param_items(), loaded.param_items()):
        assert n1 == n2
        assert np.array_equal(a, b)
    x = np.random.default_rng(0).normal(size=(2, 2, 4, 4))
    assert np.array_equal(net.forward(x), loaded.forward(x))


def test_checkpoint_save_is_byte_deterministic(tmp_path):
    net = _tiny_net(seed=12)
    nn.save_checkpoint(net, tmp_path / "a.ckpt")
    nn.save_checkpoint(net, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_truncation_detected(tmp_path):
    net = _tiny_net(seed=13)
    path = tmp_path / "net.ckpt"
    nn.save_checkpoint(net, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(ValueError, match="truncated"):
        nn.load_checkpoint(path)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    net = _tiny_net(seed=13)
    path = tmp_path / "net.ckpt"
    nn.save_checkpoint(net, path)
    path.write_bytes(path.read_bytes() + bytes(64))
    with pytest.raises(nn.CheckpointError, match="trailing bytes"):
        nn.load_checkpoint(path)


def test_checkpoint_truncated_header_rejected(tmp_path):
    net = _tiny_net(seed=13)
    path = tmp_path / "net.ckpt"
    nn.save_checkpoint(net, path)
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(nn.CheckpointError, match="truncated checkpoint header"):
        nn.load_checkpoint(path)


@pytest.mark.parametrize("edit, message", [
    (lambda tensors: tensors[:-1], r"omits tensors \['layer5.w'\]"),
    (lambda tensors: tensors + tensors[-1:], "layer5.w .*listed twice"),
    (lambda tensors: [tensors[-1]] + tensors[1:], "layer5.w .*listed twice"),
    (lambda tensors: tensors + [({"name": "layer9.w", "shape": [2]}, bytes(16))],
     "layer9.w .*unknown"),
], ids=["omitted", "duplicated", "duplicated-in-place-of-another", "unknown"])
def test_checkpoint_must_list_each_tensor_once(tmp_path, edit, message):
    # header and body agree, so only the tensor list itself is wrong
    path = tmp_path / "net.ckpt"
    nn.save_checkpoint(_tiny_net(seed=15), path)
    edit_checkpoint_tensors(path, edit)
    with pytest.raises(nn.CheckpointError, match=message):
        nn.load_checkpoint(path)


def test_checkpoint_tensor_order_follows_the_header(tmp_path):
    net = _tiny_net(seed=16)
    path = tmp_path / "net.ckpt"
    nn.save_checkpoint(net, path)
    edit_checkpoint_tensors(path, lambda tensors: tensors[::-1])
    loaded, _ = nn.load_checkpoint(path)
    for (n1, a), (n2, b) in zip(net.param_items(), loaded.param_items()):
        assert n1 == n2 and np.array_equal(a, b)


def test_checkpoint_version_guard(tmp_path):
    net = _tiny_net(seed=14)
    path = tmp_path / "net.ckpt"
    nn.save_checkpoint(net, path)
    edit_checkpoint_header(path, lambda header: header.update(format_version=99))
    with pytest.raises(ValueError, match="format_version"):
        nn.load_checkpoint(path)


def test_checkpoint_header_bytes_are_fixed(tmp_path):
    # a literal, so any change to the header format shows: it would change
    # every checkpoint and bundle this package writes
    path = tmp_path / "decoder.ckpt"
    nn.save_checkpoint(build_decoder(4, 3, 0, 10), path)
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[:4])
    assert blob[4:4 + hlen] == (
        b'{"architecture":{"input_shape":[4],"layers":['
        b'{"activation":"relu","in_size":4,"kind":"dense","out_size":4},'
        b'{"kind":"dropout","rate":0.1},'
        b'{"activation":"relu","in_size":4,"kind":"dense","out_size":3},'
        b'{"activation":"linear","in_size":3,"kind":"dense","out_size":10}]},'
        b'"format_version":1,"metadata":{},"tensors":['
        b'{"name":"layer0.b","shape":[4]},{"name":"layer0.w","shape":[4,4]},'
        b'{"name":"layer2.b","shape":[3]},{"name":"layer2.w","shape":[4,3]},'
        b'{"name":"layer3.b","shape":[10]},{"name":"layer3.w","shape":[3,10]}]}'
    )


# ---------------------------------------------------------------------------
# the config rule: each layer names its constructor arguments once

# one of each kind, every argument away from its default
LAYER_EXAMPLES = {
    "conv2d": lambda: nn.Conv2D(3, 4, 5, "linear", rng=np.random.default_rng(0)),
    "maxpool2d": lambda: nn.MaxPool2D(4),
    "dropout": lambda: nn.Dropout(0.3),
    "flatten": lambda: nn.Flatten(),
    "dense": lambda: nn.Dense(6, 2, "linear", rng=np.random.default_rng(0)),
}


def test_layer_examples_cover_every_kind():
    assert set(LAYER_EXAMPLES) == set(LAYER_KINDS)


@pytest.mark.parametrize("kind", sorted(LAYER_EXAMPLES))
def test_config_keys_are_the_constructor_arguments(kind):
    cls = LAYER_KINDS[kind]
    params = inspect.signature(cls).parameters
    assert cls.config_keys == tuple(name for name in params if name != "rng")


@pytest.mark.parametrize("kind", sorted(LAYER_EXAMPLES))
def test_layer_config_roundtrip(kind):
    layer = LAYER_EXAMPLES[kind]()
    cfg = layer.config()
    assert set(cfg) == {"kind", *type(layer).config_keys} and cfg["kind"] == kind
    rebuilt = layer_from_config(cfg)
    assert type(rebuilt) is type(layer) and rebuilt.config() == cfg


def _layers(header):
    return header["architecture"]["layers"]


# _tiny_net's layers: conv2d, maxpool2d, flatten, dense, dropout, dense
@pytest.mark.parametrize("edit, message", [
    (lambda h: _layers(h)[5].pop("activation"),
     r"dense layer config: missing keys \['activation'\]"),
    (lambda h: _layers(h)[0].pop("kernel_size"),
     r"conv2d layer config: missing keys \['kernel_size'\]"),
    (lambda h: _layers(h)[1].pop("pool_size"),
     r"maxpool2d layer config: missing keys \['pool_size'\]"),
    (lambda h: _layers(h)[3].update(bias=True),
     r"dense layer config: missing keys \[\], unknown keys \['bias'\]"),
    (lambda h: _layers(h)[2].update(size=12), r"flatten layer config: .*unknown keys \['size'\]"),
    (lambda h: _layers(h)[1].update(pool_size=2.0), "pool_size must be a positive integer"),
    (lambda h: _layers(h).__setitem__(1, 5), "layer config must be a JSON object, got 5"),
    (lambda h: h["architecture"].update(layers={"a": 1}),
     "layer config must be a JSON object, got 'a'"),
    (lambda h: _layers(h)[0].update(kind=["conv2d"]), r"unknown layer kind: \['conv2d'\]"),
    (lambda h: h["tensors"][0].update(name=["layer0.b"]),
     r"tensor name must be a string, got \['layer0.b'\]"),
    (lambda h: h["tensors"][0].update(name={}), "tensor name must be a string, got {}"),
], ids=["missing-dense-key", "missing-conv-key", "missing-pool-key", "extra-dense-key",
        "extra-flatten-key", "float-pool-size", "layer-not-an-object", "layers-an-object", "kind-a-list",
        "tensor-name-a-list", "tensor-name-a-dict"])
def test_checkpoint_header_must_follow_the_config_rule(tmp_path, edit, message):
    path = tmp_path / "net.ckpt"
    nn.save_checkpoint(_tiny_net(seed=17), path)
    edit_checkpoint_header(path, edit)
    with pytest.raises(nn.CheckpointError,
                       match=f"net.ckpt: malformed checkpoint header: {message}"):
        nn.load_checkpoint(path)

