"""Channel abstraction: power normalization, noise scaling, fading draws."""

import numpy as np
import pytest

from mrmtl import channel


class TestNoiseVariance:
    def test_ten_db(self):
        assert abs(channel.noise_variance(10.0) - 0.1) < 1e-15

    def test_zero_db(self):
        assert channel.noise_variance(0.0) == 1.0

    def test_infinite_snr_is_noiseless(self):
        assert channel.noise_variance(np.inf) == 0.0

    def test_negative_db_amplifies(self):
        assert abs(channel.noise_variance(-10.0) - 10.0) < 1e-12


def normalize(raw) -> np.ndarray:
    return channel.power_norm_forward(np.asarray(raw, dtype=np.float64))[0]


class TestNormalizePower:
    def test_constant_vector(self):
        out = normalize([[2.0, 2.0, 2.0, 2.0]])
        assert np.allclose(out, 1.0, atol=1e-9)

    def test_three_four_vector(self):
        # sum of squares 25, length 2: scale sqrt(2/25)
        out = normalize([[3.0, 4.0]])
        want = np.array([[3.0, 4.0]]) * np.sqrt(2.0 / 25.0)
        assert np.allclose(out, want, atol=1e-12)

    def test_unit_average_power(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(5, 17)) * rng.uniform(0.01, 50.0, size=(5, 1))
        assert np.allclose(np.mean(normalize(raw) ** 2, axis=1), 1.0, atol=1e-9)

    def test_zero_vector_degenerate(self):
        # an all-zero block cannot reach unit power; eps keeps it finite at zero
        out = normalize(np.zeros((1, 2)))
        assert np.array_equal(out, np.zeros((1, 2)))

    def test_batch_matches_per_row(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 9))
        rows = np.concatenate([normalize(row[None, :]) for row in x])
        assert np.array_equal(normalize(x), rows)


class TestPowerNormGradient:
    def test_backward_matches_fd(self):
        rng = np.random.default_rng(2)
        raw = rng.normal(size=(3, 5))
        dout = rng.normal(size=(3, 5))
        _, cache = channel.power_norm_forward(raw)
        analytic = channel.power_norm_backward(dout, cache)
        step = 1e-6
        fd = np.zeros_like(raw)
        for b in range(raw.shape[0]):
            for i in range(raw.shape[1]):
                plus = raw.copy(); plus[b, i] += step
                minus = raw.copy(); minus[b, i] -= step
                f_plus = float(np.sum(channel.power_norm_forward(plus)[0] * dout))
                f_minus = float(np.sum(channel.power_norm_forward(minus)[0] * dout))
                fd[b, i] = (f_plus - f_minus) / (2.0 * step)
        assert np.allclose(analytic, fd, atol=1e-6)

    def test_forward_output_matches_normalize(self):
        # each row scaled by sqrt(L / (sum of squares + eps)), row by row
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(4, 7))
        out, _ = channel.power_norm_forward(raw)
        for row, got in zip(raw, out):
            scale = np.sqrt(row.size / (sum(v * v for v in row) + channel.NORM_EPS))
            assert np.allclose(got, row * scale, atol=1e-12)


class TestChannelConfig:
    def test_defaults(self):
        cfg = channel.ChannelConfig()
        assert cfg.kind == "awgn"
        assert cfg.snr_db == 10.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            channel.ChannelConfig(kind="laplace")

    def test_nan_snr_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            channel.ChannelConfig(snr_db=float("nan"))

    @pytest.mark.parametrize("snr_db", [-4000.0, -3082.6, float("-inf")])
    def test_snr_whose_noise_variance_overflows_rejected(self, snr_db):
        # 10 ** 400 overflows a float; such a config used to fail at the
        # first channel draw
        with pytest.raises(ValueError, match="snr_db"):
            channel.ChannelConfig(snr_db=snr_db)

    def test_lowest_snr_with_finite_noise_accepted(self):
        cfg = channel.ChannelConfig(snr_db=-3082.5)
        assert np.isfinite(channel.noise_variance(cfg.snr_db))

    def test_dict_roundtrip(self):
        cfg = channel.ChannelConfig(kind="rayleigh", snr_db=4.0, seed=9)
        assert channel.ChannelConfig(**cfg.to_dict()) == cfg

    def test_frozen(self):
        cfg = channel.ChannelConfig()
        with pytest.raises(Exception):
            cfg.snr_db = 3.0


class TestDrawAndApply:
    def test_awgn_gain_is_exactly_one(self):
        cfg = channel.ChannelConfig(kind="awgn", snr_db=10.0)
        draw = channel.draw_channel(cfg, 16, 8, np.random.default_rng(0))
        assert np.array_equal(draw.gain, np.ones(16))

    def test_rayleigh_gain_nonnegative(self):
        cfg = channel.ChannelConfig(kind="rayleigh", snr_db=10.0)
        draw = channel.draw_channel(cfg, 512, 8, np.random.default_rng(0))
        assert np.all(draw.gain >= 0.0)

    def test_infinite_snr_transparent(self):
        cfg = channel.ChannelConfig(kind="awgn", snr_db=np.inf)
        s = np.random.default_rng(2).normal(size=(4, 6))
        draw = channel.draw_channel(cfg, 4, 6, np.random.default_rng(1))
        assert np.array_equal(channel.apply_channel(s, draw), s)

    def test_apply_is_affine_in_symbols(self):
        # r = h s + n: differencing two transmissions removes the noise term
        cfg = channel.ChannelConfig(kind="rayleigh", snr_db=0.0)
        draw = channel.draw_channel(cfg, 2, 5, np.random.default_rng(3))
        s1 = np.random.default_rng(4).normal(size=(2, 5))
        s2 = np.random.default_rng(5).normal(size=(2, 5))
        r1 = channel.apply_channel(s1, draw)
        r2 = channel.apply_channel(s2, draw)
        assert np.allclose(r1 - r2, draw.gain[:, None] * (s1 - s2), atol=1e-12)

    def test_noise_variance_monte_carlo(self):
        cfg = channel.ChannelConfig(kind="awgn", snr_db=10.0)
        draw = channel.draw_channel(cfg, 1_000_000, 1, np.random.default_rng(6))
        measured = float(np.var(draw.noise))
        assert abs(measured - 0.1) / 0.1 < 0.01

    def test_rayleigh_moments_monte_carlo(self):
        cfg = channel.ChannelConfig(kind="rayleigh", snr_db=10.0)
        draw = channel.draw_channel(cfg, 1_000_000, 1, np.random.default_rng(7))
        assert abs(float(np.mean(draw.gain**2)) - 1.0) < 0.01
        want_mean = np.sqrt(np.pi / 4.0)
        assert abs(float(np.mean(draw.gain)) - want_mean) / want_mean < 0.01

    def test_transmit_single_block(self):
        cfg = channel.ChannelConfig(kind="awgn", snr_db=10.0)
        block = normalize(np.random.default_rng(9).normal(size=(1, 4)))
        draw = channel.draw_channel(cfg, 1, 4, np.random.default_rng(8))
        received = channel.apply_channel(block, draw)
        assert received.shape == (1, 4)
        assert np.array_equal(received, block + draw.noise)

    def test_same_rng_state_reproduces_draw(self):
        cfg = channel.ChannelConfig(kind="rayleigh", snr_db=5.0)
        d1 = channel.draw_channel(cfg, 8, 6, np.random.default_rng(42))
        d2 = channel.draw_channel(cfg, 8, 6, np.random.default_rng(42))
        assert np.array_equal(d1.gain, d2.gain)
        assert np.array_equal(d1.noise, d2.noise)
