"""Wireless channel simulation: r = h * s + n for AWGN and Rayleigh fading.

One real symbol per channel use. Fading is block fading: a single
nonnegative gain h per transmitted block, drawn fresh for every
transmission, with E[h^2] = 1. Noise is Gaussian with variance
10^(-snr_db/10) against unit signal power; snr_db = inf disables noise.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

NORM_EPS = 1e-12

CHANNEL_KINDS = ("awgn", "rayleigh")


@dataclass(frozen=True)
class ChannelConfig:
    kind: str = "awgn"
    snr_db: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(f"channel kind must be one of {CHANNEL_KINDS}, got {self.kind!r}")
        try:  # NaN, -inf and below about -3082.5 dB give no finite noise variance
            finite = np.isfinite(noise_variance(self.snr_db))
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"snr_db must not be NaN or below about -3082.5 dB: {self.snr_db}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ChannelDraw:
    """One realization of (gain, noise) for a batch of blocks."""

    gain: np.ndarray   # (B,)
    noise: np.ndarray  # (B, L)


def noise_variance(snr_db: float) -> float:
    return float(10.0 ** (-snr_db / 10.0))


def power_norm_forward(raw: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Scale each row of (B, L) encoder outputs to unit mean square,
    raw * sqrt(L / (sum raw^2 + eps)), and return the cache the backward pass
    needs. An (almost) all-zero row cannot reach unit power and stays near zero.
    """
    ss = np.sum(raw * raw, axis=1, keepdims=True) + NORM_EPS
    scale = np.sqrt(raw.shape[1] / ss)
    out = raw * scale
    return out, (raw, ss, scale)


def power_norm_backward(dout: np.ndarray, cache: tuple) -> np.ndarray:
    """Exact Jacobian product: d s_i / d raw_j = scale * (delta_ij - raw_i raw_j / ss)."""
    raw, ss, scale = cache
    inner = np.sum(dout * raw, axis=1, keepdims=True)
    return scale * (dout - raw * inner / ss)


def draw_channel(cfg: ChannelConfig, n_blocks: int, block_len: int, rng) -> ChannelDraw:
    """Sample gains and noise for n_blocks independent transmissions.

    AWGN has unit gain. Rayleigh draws one gain per block as the magnitude
    of a standard complex Gaussian (E[h^2] = 1, E[h] = sqrt(pi)/2).
    """
    sigma = np.sqrt(noise_variance(cfg.snr_db))
    if cfg.kind == "rayleigh":
        re_im = rng.normal(0.0, np.sqrt(0.5), size=(n_blocks, 2))
        gain = np.hypot(re_im[:, 0], re_im[:, 1])
    else:
        gain = np.ones(n_blocks)
    if sigma == 0.0:
        noise = np.zeros((n_blocks, block_len))
    else:
        noise = rng.normal(0.0, sigma, size=(n_blocks, block_len))
    return ChannelDraw(gain=gain, noise=noise)


def apply_channel(symbols: np.ndarray, draw: ChannelDraw) -> np.ndarray:
    """r = h * s + n, rows are blocks. Differentiable in s: dr/ds = h."""
    return draw.gain[:, None] * symbols + draw.noise

