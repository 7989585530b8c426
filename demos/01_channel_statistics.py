"""What the channel does to a block of symbols.

Walks through the transmit path the system uses, without any networks:
power normalization (power_norm_forward), the frozen per-block channel
draw (draw_channel), and the received symbols (apply_channel). Then checks
the advertised statistics the hard way, by averaging a million draws and
comparing against the closed-form values.

Run:  python3 demos/01_channel_statistics.py
"""

import numpy as np

from mrmtl.channel import (
    ChannelConfig,
    apply_channel,
    draw_channel,
    noise_variance,
    power_norm_forward,
)

rng = np.random.default_rng(1)

# --- power normalization -----------------------------------------------
# Raw encoder outputs can have any scale. The normalizer rescales each
# block (one row) so its mean squared symbol is one, which is what makes
# the SNR setting meaningful.
raw = rng.normal(0.0, 3.0, size=(1, 8))
s, _ = power_norm_forward(raw)
print("raw block:       ", np.round(raw[0], 3))
print("normalized:      ", np.round(s[0], 3))
print("mean square:     ", float(np.mean(s**2)))
print()

# --- one transmission --------------------------------------------------
# Every block gets its own draw: one gain and one noise vector.
cfg = ChannelConfig(kind="rayleigh", snr_db=10.0, seed=0)
draw = draw_channel(cfg, 1, s.shape[1], rng)
received = apply_channel(s, draw)
print(f"channel:          {cfg.kind} at {cfg.snr_db} dB")
print("gain:            ", np.round(draw.gain, 3))
print("received:        ", np.round(received[0], 3))
print()

# --- noise variance vs the closed form ---------------------------------
# sigma^2 = 10^(-snr_db / 10). A million samples land within a percent.
for snr_db in (0.0, 10.0, 20.0):
    draw = draw_channel(ChannelConfig(kind="awgn", snr_db=snr_db, seed=0),
                        1000, 1000, rng)
    measured = float(np.var(draw.noise))
    print(f"awgn {snr_db:4.0f} dB: var {measured:.6f}  "
          f"(closed form {noise_variance(snr_db):.6f})")
print()

# --- fading moments ----------------------------------------------------
# The fading gain is the magnitude of a unit-power complex normal, so its
# square has mean 1 and its mean is sqrt(pi) / 2.
draw = draw_channel(ChannelConfig(kind="rayleigh", snr_db=10.0, seed=0),
                    1_000_000, 1, rng)
h = draw.gain
print(f"rayleigh E[h^2]:  {float(np.mean(h * h)):.4f}  (expected 1.0)")
print(f"rayleigh E[h]:    {float(np.mean(h)):.4f}  "
      f"(expected {np.sqrt(np.pi) / 2:.4f})")
print()

# --- a received block is exactly gain * signal + noise ------------------
s, _ = power_norm_forward(rng.normal(size=(1, 16)))
ray_draw = draw_channel(ChannelConfig(kind="rayleigh", snr_db=10.0, seed=0),
                        1, 16, np.random.default_rng(7))
r = apply_channel(s, ray_draw)
manual = ray_draw.gain[:, None] * s + ray_draw.noise
print("rayleigh gain:   ", np.round(ray_draw.gain, 3))
print("received[:4]:    ", np.round(r[0, :4], 3))
print("gain*s + n [:4]: ", np.round(manual[0, :4], 3))
print("identical:       ", bool(np.array_equal(r, manual)))
