"""Per-layer timings of the encoder on its real activation shapes.

Every time is the median of REPEATS calls, taken after the workload's
warm-up. The training workload times each layer's forward in training mode
and its backward at the training batch size; the evaluation workloads time
inference forward only, at the protocol's chunk size, because that is all
their path runs. Names follow the encoder's layer order: conv1..conv6,
pool1..pool3, dense1 (the 512-wide layer).
"""

from __future__ import annotations

import time

import numpy as np

REPEATS = 3
BLAS_N = 1024
SHORT = {"conv2d": "conv", "maxpool2d": "pool", "dense": "dense"}


def median_ms(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e3 * float(np.median(times))


def encoder_gflop(net) -> float:
    """Floating-point operations (2 per multiply-add) for one image's forward."""
    shape, flop = net.input_shape, 0
    for layer in net.layers:
        out = layer.out_shape(shape)
        if layer.kind == "conv2d":
            flop += 2 * out[1] * out[2] * layer.in_channels * layer.kernel_size ** 2 * layer.filters
        elif layer.kind == "dense":
            flop += 2 * layer.in_size * layer.out_size
        shape = out
    return flop / 1e9


def blas_peak_gflops() -> float:
    rng = np.random.default_rng(0)
    a, b = rng.random((BLAS_N, BLAS_N)), rng.random((BLAS_N, BLAS_N))
    return 2 * BLAS_N ** 3 / (median_ms(lambda: a @ b) / 1e3) / 1e9


def _layer_pass(enc, x, train: bool, rng) -> dict:
    out, seen = {}, {k: 0 for k in SHORT}
    for layer in enc.layers:
        y = layer.forward(x, train, rng)
        if layer.kind in SHORT:
            seen[layer.kind] += 1
            name = f"nn.{SHORT[layer.kind]}{seen[layer.kind]}"
            if name != "nn.dense2":
                out[f"{name}.fwd_ms"] = median_ms(lambda: layer.forward(x, train, rng))
                if train:
                    dout = rng.normal(size=y.shape)
                    out[f"{name}.bwd_ms"] = median_ms(lambda: layer.backward(dout))
            if layer.kind == "conv2d":
                B, C, H, W = x.shape
                cols = rng.random((B * H * W, C * layer.kernel_size ** 2))
                wmat = rng.random((cols.shape[1], layer.filters))
                out[f"{name}.gemm_ref_ms"] = median_ms(lambda: cols @ wmat)
        x = y
    return out


def nn_metrics(train_images: np.ndarray | None, infer_images: np.ndarray, nc: int,
               seed: int) -> dict:
    """Layer, network, optimizer and BLAS figures for one workload.

    train_images is the training batch (None for forward-only workloads);
    infer_images is one inference chunk.
    """
    from mrmtl import models, nn

    rng = np.random.default_rng([seed, 5])
    enc = models.build_encoder(nc, seed)
    dec = models.build_decoder(nc, nc, seed)
    train = train_images is not None
    out = _layer_pass(enc, train_images if train else infer_images, train, rng)

    out["nn.encoder.fwd_infer_ms"] = median_ms(lambda: enc.forward(infer_images))
    gflop = encoder_gflop(enc)
    out["nn.encoder.fwd_gflop"] = gflop
    out["nn.encoder.fwd_gflops"] = (gflop * infer_images.shape[0]
                                    / (out["nn.encoder.fwd_infer_ms"] / 1e3))
    out["nn.blas.peak_gflops"] = blas_peak_gflops()

    r = rng.normal(size=((train_images if train else infer_images).shape[0], nc))
    out["nn.decoder.fwd_ms"] = median_ms(lambda: dec.forward(r, train, rng))
    if train:
        out["nn.encoder.fwd_train_ms"] = median_ms(lambda: enc.forward(train_images, True, rng))
        d_sym = rng.normal(size=(train_images.shape[0], nc))
        out["nn.encoder.bwd_ms"] = median_ms(lambda: enc.backward(d_sym))
        d_probs = rng.normal(size=(r.shape[0], dec.output_shape[0]))
        out["nn.decoder.bwd_ms"] = median_ms(lambda: dec.backward(d_probs))
        nets = [enc, models.build_encoder(nc, seed + 1), dec,
                models.build_decoder(2 * nc, nc, seed)]
        for net in nets:
            for layer in net.layers:
                layer.grads = {k: rng.normal(size=p.shape) * 1e-3
                               for k, p in layer.params.items()}
        opt = nn.Adam()
        opt.step(nets)  # first step allocates the moment buffers
        out["nn.adam.step_ms"] = median_ms(lambda: opt.step(nets))
        out["nn.adam.params"] = sum(net.num_params() for net in nets)
    return out
