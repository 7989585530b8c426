"""Model assembly, joint loss, the two-round forward, training loops, bundles."""

import functools
import hashlib
import itertools

import numpy as np
import pytest

from conftest import (SMALL_SHAPE, edit_checkpoint_header, random_split, small_mrmtl,
                      small_srstl)
from mrmtl import models, nn
from mrmtl.channel import ChannelConfig, draw_channel, power_norm_forward
from mrmtl.dataset import batches, make_synthetic
from mrmtl.protocol import _receive, evaluate_rounds, run_protocol
from mrmtl.models import (
    _forward,
    ArchitectureConfig,
    BundleError,
    Model,
    TrainConfig,
    TrainingError,
    build_decoder,
    build_encoder,
    load_bundle,
    mrmtl_loss,
    mrmtl_loss_and_grads,
    save_bundle,
    train_mrmtl,
    train_srstl,
)


class TestConfigs:
    def test_architecture_defaults_follow_nc(self):
        arch = ArchitectureConfig(nc=5)
        assert (arch.nc1, arch.nc2, arch.decoder_hidden) == (5, 5, 5)
        assert arch.num_classes == 10

    def test_architecture_explicit_budgets(self):
        arch = ArchitectureConfig(nc=5, nc1=3, nc2=7, decoder_hidden=11)
        assert (arch.nc1, arch.nc2, arch.decoder_hidden) == (3, 7, 11)

    def test_architecture_validation(self):
        with pytest.raises(ValueError):
            ArchitectureConfig(nc=0)
        with pytest.raises(ValueError):
            ArchitectureConfig(nc=4, num_classes=1)

    @pytest.mark.parametrize("field, value", [
        ("nc", 4.0), ("nc1", 4.0), ("nc2", 4.0), ("num_classes", 10.0),
        ("decoder_hidden", 4.0), ("nc", True), ("num_classes", "10"),
    ])
    def test_architecture_fields_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            ArchitectureConfig(**{"nc": 4, field: value})

    def test_architecture_accepts_numpy_integers(self):
        arch = ArchitectureConfig(nc=np.int64(4), num_classes=np.int32(3))
        assert (arch.nc1, arch.num_classes) == (4, 3)

    def test_architecture_dict_roundtrip(self):
        arch = ArchitectureConfig(nc=5, nc1=3, nc2=7, num_classes=4, decoder_hidden=9)
        assert ArchitectureConfig(**arch.to_dict()) == arch

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, loss_weight=1.5)

    @pytest.mark.parametrize("lr", [float("nan"), -1e-3, float("inf")])
    def test_train_config_rejects_untrainable_lr(self, lr):
        with pytest.raises(ValueError, match="lr must be finite and >= 0"):
            TrainConfig(epochs=1, lr=lr)

    def test_train_config_allows_zero_lr(self):
        assert TrainConfig(epochs=1, lr=0.0).lr == 0.0

    def test_train_config_dict_roundtrip(self):
        cfg = TrainConfig(epochs=3, batch_size=16, lr=2e-3, loss_weight=0.25, seed=7)
        assert TrainConfig(**cfg.to_dict()) == cfg


class TestBuilders:
    def test_encoder_layer_stack(self):
        net = build_encoder(5, seed=0)
        kinds = [layer.kind for layer in net.layers]
        assert kinds == [
            "conv2d", "conv2d", "maxpool2d", "dropout",
            "conv2d", "conv2d", "maxpool2d", "dropout",
            "conv2d", "conv2d", "maxpool2d", "dropout",
            "flatten", "dense", "dropout", "dense",
        ]
        convs = [l for l in net.layers if l.kind == "conv2d"]
        assert [c.filters for c in convs] == [32, 32, 64, 64, 128, 128]
        assert all(c.kernel_size == 3 for c in convs)
        dense = [l for l in net.layers if l.kind == "dense"]
        assert dense[0].out_size == 512 and dense[0].activation == "relu"
        assert dense[1].out_size == 5 and dense[1].activation == "linear"
        drops = [l for l in net.layers if l.kind == "dropout"]
        assert all(d.rate == 0.25 for d in drops)
        assert net.output_shape == (5,)

    def test_encoder_out_sizes(self):
        assert build_encoder(5, seed=0).output_shape == (5,)
        assert build_encoder(16, seed=0).output_shape == (16,)

    def test_encoder_seed_determinism(self):
        a = build_encoder(4, seed=3, input_shape=SMALL_SHAPE)
        b = build_encoder(4, seed=3, input_shape=SMALL_SHAPE)
        c = build_encoder(4, seed=4, input_shape=SMALL_SHAPE)
        for (_, pa), (_, pb) in zip(a.param_items(), b.param_items()):
            assert np.array_equal(pa, pb)
        assert any(not np.array_equal(pa, pc)
                   for (_, pa), (_, pc) in zip(a.param_items(), c.param_items()))

    def test_encoder_rejects_bad_out_size(self):
        with pytest.raises(ValueError):
            build_encoder(0, seed=0)

    def test_decoder_layer_stack(self):
        net = build_decoder(5, 5, seed=0, num_classes=10)
        kinds = [layer.kind for layer in net.layers]
        assert kinds == ["dense", "dropout", "dense", "dense"]
        assert net.layers[0].in_size == 5 and net.layers[0].out_size == 5
        assert net.layers[0].activation == "relu"
        assert net.layers[1].rate == 0.1
        assert net.layers[2].out_size == 5 and net.layers[2].activation == "relu"
        assert net.layers[3].out_size == 10 and net.layers[3].activation == "linear"
        assert net.input_shape == (5,)
        assert net.output_shape == (10,)

    def test_decoder_wide_input(self):
        net = build_decoder(16, 8, seed=1, num_classes=10)
        assert net.input_shape == (16,)
        assert net.layers[2].out_size == 8

    def test_decoder_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            build_decoder(0, 4, seed=0)
        with pytest.raises(ValueError):
            build_decoder(4, 0, seed=0)


class TestDecoderOutput:
    def test_from_probs(self, mrmtl_small, split_small, awgn_cfg):
        # every verdict's class and confidence are read off the probs it carries
        split = split_small.subset(np.arange(20))
        conf = evaluate_rounds(mrmtl_small, split, awgn_cfg, np.random.default_rng(3)).round1_conf
        traces = run_protocol(mrmtl_small, split, float(np.median(conf)), awgn_cfg,
                              np.random.default_rng(3))
        outputs = [t.round1 for t in traces] + [t.round2 for t in traces if t.escalated]
        assert any(t.escalated for t in traces) and not all(t.escalated for t in traces)
        for out in outputs:
            assert out.predicted == int(np.argmax(out.probs))
            assert out.confidence == float(np.max(out.probs))

    def test_tie_breaks_to_lowest_class(self, split_small, awgn_cfg):
        # a zeroed logits head ties every class; the verdict is class 0
        model = small_mrmtl(seed=10)
        for param in model.decoder1.layers[-1].params.values():
            param[...] = 0.0
        traces = run_protocol(model, split_small.subset(np.arange(5)), 0.0, awgn_cfg,
                              np.random.default_rng(0))
        assert [t.round1.predicted for t in traces] == [0] * 5
        assert all(t.round1.confidence == 0.1 for t in traces)


class TestJointLoss:
    def _setup(self, seed=0):
        model = small_mrmtl(seed=seed)
        split = random_split(n=12, seed=seed + 100)
        cfg = ChannelConfig(kind="awgn", snr_db=10.0, seed=0)
        rng = np.random.default_rng(5)
        d1 = draw_channel(cfg, 12, model.nc1, rng)
        d2 = draw_channel(cfg, 12, model.nc2, rng)
        return model, split, d1, d2

    def test_endpoint_weights_select_single_head(self):
        model, split, d1, d2 = self._setup()
        loss0, l1_0, l2_0, _, _ = mrmtl_loss(model, split.images, split.labels, d1, d2, w=0.0)
        loss1, l1_1, l2_1, _, _ = mrmtl_loss(model, split.images, split.labels, d1, d2, w=1.0)
        assert loss0 == l2_0
        assert loss1 == l1_1
        # per-head losses do not depend on the mixing weight
        assert l1_0 == l1_1
        assert l2_0 == l2_1

    def test_loss_is_linear_in_weight(self):
        model, split, d1, d2 = self._setup(seed=1)
        args = (model, split.images, split.labels, d1, d2)
        _, l1, l2, _, _ = mrmtl_loss(*args, w=0.5)
        for w in (0.0, 0.25, 0.5, 0.75, 1.0):
            loss_w, l1_w, l2_w, _, _ = mrmtl_loss(*args, w=w)
            assert l1_w == l1 and l2_w == l2
            assert abs(loss_w - (w * l1 + (1 - w) * l2)) < 1e-15

    def test_default_weight_comes_from_model(self):
        model, split, d1, d2 = self._setup(seed=2)
        loss_default, l1, l2, _, _ = mrmtl_loss(model, split.images, split.labels, d1, d2)
        assert abs(loss_default - (0.5 * l1 + 0.5 * l2)) < 1e-15

    def test_grads_match_finite_differences(self):
        # joint loss through both encoders, the channel, and both decoders
        model = small_mrmtl(nc1=2, nc2=2, seed=3)
        split = random_split(n=3, seed=9)
        cfg = ChannelConfig(kind="rayleigh", snr_db=5.0, seed=0)
        rng = np.random.default_rng(7)
        d1 = draw_channel(cfg, 3, 2, rng)
        d2 = draw_channel(cfg, 3, 2, rng)

        # jitter away from zero-initialized biases: a dense unit whose inputs
        # are all dropped sits exactly on the relu kink, where one-sided
        # finite differences disagree with the (correct) zero subgradient
        jitter = np.random.default_rng(13)
        for net in (model.encoder1, model.encoder2, model.decoder1, model.decoder2):
            for _, param in net.param_items():
                param += jitter.normal(0.0, 0.01, size=param.shape)

        mrmtl_loss_and_grads(model, split.images, split.labels, d1, d2,
                             np.random.default_rng(0))
        step = 1e-6
        checked = 0
        for net in (model.encoder1, model.encoder2, model.decoder1, model.decoder2):
            analytic = {n: g.copy() for n, g in net.grad_items()}
            for name, param in net.param_items():
                flat = param.reshape(-1)
                probe = np.random.default_rng(checked).choice(
                    flat.size, size=min(3, flat.size), replace=False)
                for i in probe:
                    orig = flat[i]
                    flat[i] = orig + step
                    f_plus = mrmtl_loss(model, split.images, split.labels, d1, d2,
                                        train=True, rng=np.random.default_rng(0))[0]
                    flat[i] = orig - step
                    f_minus = mrmtl_loss(model, split.images, split.labels, d1, d2,
                                         train=True, rng=np.random.default_rng(0))[0]
                    flat[i] = orig
                    fd = (f_plus - f_minus) / (2 * step)
                    a = analytic[name].reshape(-1)[i]
                    assert abs(a - fd) / max(abs(a), abs(fd), 1e-4) < 1e-4
                    checked += 1
        assert checked >= 24

    def test_weight_one_freezes_round2_networks(self):
        model = small_mrmtl(seed=4, loss_weight=1.0)
        split = random_split(n=8, seed=11)
        cfg = ChannelConfig(kind="awgn", snr_db=10.0, seed=0)
        rng = np.random.default_rng(1)
        d1 = draw_channel(cfg, 8, model.nc1, rng)
        d2 = draw_channel(cfg, 8, model.nc2, rng)
        before_d2 = [p.copy() for _, p in model.decoder2.param_items()]
        before_e2 = [p.copy() for _, p in model.encoder2.param_items()]
        before_d1 = [p.copy() for _, p in model.decoder1.param_items()]
        mrmtl_loss_and_grads(model, split.images, split.labels, d1, d2,
                             np.random.default_rng(2))
        nn.Adam(lr=1e-3).step([model.encoder1, model.encoder2,
                               model.decoder1, model.decoder2])
        for (_, p), q in zip(model.decoder2.param_items(), before_d2):
            assert np.array_equal(p, q)
        for (_, p), q in zip(model.encoder2.param_items(), before_e2):
            assert np.array_equal(p, q)
        assert any(not np.array_equal(p, q)
                   for (_, p), q in zip(model.decoder1.param_items(), before_d1))

    def test_weight_zero_freezes_round1_decoder_only(self):
        # encoder1 still trains through decoder2's view of the round-1 block
        model = small_mrmtl(seed=5, loss_weight=0.0)
        split = random_split(n=8, seed=12)
        cfg = ChannelConfig(kind="awgn", snr_db=10.0, seed=0)
        rng = np.random.default_rng(1)
        d1 = draw_channel(cfg, 8, model.nc1, rng)
        d2 = draw_channel(cfg, 8, model.nc2, rng)
        before_d1 = [p.copy() for _, p in model.decoder1.param_items()]
        before_e1 = [p.copy() for _, p in model.encoder1.param_items()]
        mrmtl_loss_and_grads(model, split.images, split.labels, d1, d2,
                             np.random.default_rng(2))
        nn.Adam(lr=1e-3).step([model.encoder1, model.encoder2,
                               model.decoder1, model.decoder2])
        for (_, p), q in zip(model.decoder1.param_items(), before_d1):
            assert np.array_equal(p, q)
        assert any(not np.array_equal(p, q)
                   for (_, p), q in zip(model.encoder1.param_items(), before_e1))


class TestInference:
    def _draws(self, model, n, cfg, seed=0, round2=True):
        rng = np.random.default_rng(seed)
        d1 = draw_channel(cfg, n, model.nc1, rng)
        return d1, (draw_channel(cfg, n, model.nc2, rng) if round2 else None)

    def test_round1_mrmtl(self, mrmtl_small, split_small, awgn_cfg):
        d1, _ = self._draws(mrmtl_small, 3, awgn_cfg, round2=False)
        probs1, probs2, (cache1, cache2) = _forward(mrmtl_small, split_small.images[:3], d1)
        assert probs1.shape == (3, 10)
        assert np.allclose(probs1.sum(axis=1), 1.0, atol=1e-9)
        assert probs2 is None and cache2 is None
        assert cache1[1] is d1

    def test_round1_accepts_srstl(self, awgn_cfg):
        model = small_srstl()
        d1, _ = self._draws(model, 1, awgn_cfg, round2=False)
        probs1, probs2, _ = _forward(model, random_split(n=1).images, d1)
        assert probs1.shape == (1, 10)
        assert probs2 is None

    def test_round2_decodes_both_blocks(self, mrmtl_small, split_small, awgn_cfg):
        # round 1 reads the same whether or not round 2 follows
        images = split_small.images[:3]
        d1, d2 = self._draws(mrmtl_small, 3, awgn_cfg, seed=1)
        probs1, probs2, _ = _forward(mrmtl_small, images, d1, d2)
        alone, _, _ = _forward(mrmtl_small, images, d1)
        assert np.array_equal(probs1, alone)
        assert probs2.shape == (3, 10)
        assert np.allclose(probs2.sum(axis=1), 1.0, atol=1e-9)

    def test_round2_rejects_mismatched_block(self, split_small, awgn_cfg):
        # a round-2 decoder that does not fit [r1, r2] is refused, not broadcast
        model = small_mrmtl()
        model.decoder2 = build_decoder(model.nc1 + model.nc2 + 1, 4, seed=0)
        d1, d2 = self._draws(model, 2, awgn_cfg)
        with pytest.raises(nn.ShapeError, match="input shape"):
            _forward(model, split_small.images[:2], d1, d2)

    def test_noiseless_round_trip_matches_manual_forward(self, mrmtl_small, split_small):
        # with infinite SNR and unit gain the received block is exactly the
        # normalized encoder output, so evaluation must equal a hand-built pass
        cfg = ChannelConfig(kind="awgn", snr_db=np.inf, seed=0)
        split = split_small.subset(np.arange(3, 8))
        cache = evaluate_rounds(mrmtl_small, split, cfg, np.random.default_rng(0))

        r1, _ = power_norm_forward(mrmtl_small.encoder1.forward(split.images))
        r2, _ = power_norm_forward(mrmtl_small.encoder2.forward(split.images))
        want1 = nn.softmax(mrmtl_small.decoder1.forward(r1))
        want2 = nn.softmax(mrmtl_small.decoder2.forward(np.concatenate([r1, r2], axis=1)))
        assert np.array_equal(cache.round1_probs, want1)
        assert np.array_equal(cache.round2_probs, want2)


class TestTraining:
    def test_zero_epochs_returns_untrained_model(self):
        ds = make_synthetic(10, 5, seed=0)
        arch = ArchitectureConfig(nc=4)
        model, log = train_srstl(ds, arch, ChannelConfig(seed=0), TrainConfig(epochs=0))
        assert log == []
        assert model.encoder1.input_shape == (3, 32, 32)
        assert model.encoder1.output_shape == (4,)
        assert model.decoder1.output_shape == (10,)

    def test_zero_epoch_mrmtl_shapes(self):
        ds = make_synthetic(10, 5, seed=0)
        arch = ArchitectureConfig(nc=4)
        model, log = train_mrmtl(ds, arch, ChannelConfig(seed=0), TrainConfig(epochs=0))
        assert log == []
        assert model.decoder1.input_shape == (4,)
        assert model.decoder2.input_shape == (8,)

    def test_one_epoch_srstl_log(self):
        ds = make_synthetic(10, 2, seed=1)
        arch = ArchitectureConfig(nc=4)
        model, log = train_srstl(ds, arch, ChannelConfig(seed=0),
                                 TrainConfig(epochs=1, batch_size=16))
        assert len(log) == 1
        entry = log[0]
        assert entry["epoch"] == 0
        assert np.isfinite(entry["train_loss"])
        assert 0.0 <= entry["train_accuracy"] <= 1.0
        assert 0.0 <= entry["test_accuracy"] <= 1.0

    def test_non_finite_loss_raises_with_epoch(self):
        ds = make_synthetic(10, 2, seed=2)
        ds.train.images[0, 0, 0, 0] = np.nan
        arch = ArchitectureConfig(nc=4)
        with pytest.raises(TrainingError, match="epoch 0"):
            train_srstl(ds, arch, ChannelConfig(seed=0),
                        TrainConfig(epochs=1, batch_size=16))


def _ref_head_probs(model, split, channel_cfg, rng):
    """The per-epoch test pass as it was before it ran through the receiver's
    chunk loop: unshuffled 64-sample batches, each drawing round 1 and then
    (MRMTL only) round 2 from rng; returns both heads' probabilities."""
    two_rounds = model.mode == "mrmtl"
    out1, out2 = [], []
    for lo in range(0, len(split), 64):
        imgs = split.images[lo:lo + 64]
        draw1 = draw_channel(channel_cfg, imgs.shape[0], model.nc1, rng)
        draw2 = draw_channel(channel_cfg, imgs.shape[0], model.nc2, rng) if two_rounds else None
        probs1, probs2, _ = _forward(model, imgs, draw1, draw2)
        out1.append(probs1)
        out2.append(probs2)
    return np.concatenate(out1), (np.concatenate(out2) if two_rounds else None)


def _ref_head_accuracies(model, split, channel_cfg, rng):
    hits = [None if p is None else int(np.sum(p.argmax(axis=1) == split.labels)) / len(split)
            for p in _ref_head_probs(model, split, channel_cfg, rng)]
    return hits[0], hits[1]


@pytest.mark.parametrize("channel_kind", ["awgn", "rayleigh"])
@pytest.mark.parametrize("mode", ["srstl", "mrmtl"])
def test_head_accuracies_match_their_batches_loop(mode, channel_kind):
    """The receiver's chunk loop, every chunk drawing from one rng, decodes
    the test pass bit for bit as its own batches loop did, over several
    chunks with a short last one, and leaves the rng in the same state."""
    model = small_mrmtl() if mode == "mrmtl" else small_srstl()
    split = random_split(150)
    channel = ChannelConfig(kind=channel_kind, snr_db=10.0, seed=0)
    rngs = [np.random.default_rng(5) for _ in range(4)]
    ref1, ref2 = _ref_head_probs(model, split, channel, rngs[0])
    cache = _receive(model, split, channel, functools.partial(itertools.repeat, rngs[1]),
                     np.inf if mode == "mrmtl" else 0.0)
    assert cache.round1_probs.tobytes() == ref1.tobytes()
    assert mode == "srstl" or cache.round2_probs.tobytes() == ref2.tobytes()
    assert (models.mrmtl_head_accuracies(model, split, channel, rngs[2])
            == _ref_head_accuracies(model, split, channel, rngs[3]))
    assert len({str(r.bit_generator.state) for r in rngs}) == 1


def _ref_train_srstl(dataset, arch, channel_cfg, cfg):
    """The single-round training loop as it was before both kinds shared one,
    with its loss-and-gradient step inlined."""
    root = np.random.SeedSequence([cfg.seed, 11])
    enc_seed, dec_seed, loop_seed = (int(s.generate_state(1)[0]) for s in root.spawn(3))
    model = Model(
        encoder1=build_encoder(arch.nc1, enc_seed),
        decoder1=build_decoder(arch.nc1, arch.decoder_hidden, dec_seed, arch.num_classes),
        nc1=arch.nc1,
        nc2=arch.nc2,
        loss_weight=cfg.loss_weight,
    )
    rng = np.random.default_rng(loop_seed)
    opt = nn.Adam(lr=cfg.lr)
    log = []
    for epoch in range(cfg.epochs):
        total_loss = 0.0
        correct = 0
        shuffle_seed = int(rng.integers(2**63))
        for imgs, labels in batches(dataset.train, cfg.batch_size, shuffle_seed):
            draw = draw_channel(channel_cfg, imgs.shape[0], arch.nc1, rng)
            probs, _, (cache, _) = _forward(model, imgs, draw, train=True, rng=rng)
            dr = model.decoder1.backward(nn.cross_entropy_grad(probs, labels))
            models._transmit_backward(model.encoder1, dr, cache)
            loss = nn.cross_entropy(probs, labels)
            opt.step([model.encoder1, model.decoder1])
            total_loss += loss * imgs.shape[0]
            correct += int(np.sum(probs.argmax(axis=1) == labels))
        log.append({
            "epoch": epoch,
            "train_loss": total_loss / len(dataset.train),
            "train_accuracy": correct / len(dataset.train),
            "test_accuracy": _ref_head_accuracies(model, dataset.test, channel_cfg, rng)[0],
        })
    return model, log


def _ref_train_mrmtl(dataset, arch, channel_cfg, cfg):
    """The joint training loop as it was before both kinds shared one, with
    its two-round loss-and-gradient step inlined."""
    root = np.random.SeedSequence([cfg.seed, 22])
    seeds = [int(s.generate_state(1)[0]) for s in root.spawn(5)]
    model = Model(
        encoder1=build_encoder(arch.nc1, seeds[0]),
        encoder2=build_encoder(arch.nc2, seeds[1]),
        decoder1=build_decoder(arch.nc1, arch.decoder_hidden, seeds[2], arch.num_classes),
        decoder2=build_decoder(arch.nc1 + arch.nc2, arch.decoder_hidden, seeds[3],
                               arch.num_classes),
        loss_weight=cfg.loss_weight,
        nc1=arch.nc1,
        nc2=arch.nc2,
    )
    rng = np.random.default_rng(seeds[4])
    opt = nn.Adam(lr=cfg.lr)
    nets = [model.encoder1, model.encoder2, model.decoder1, model.decoder2]
    w = cfg.loss_weight
    log = []
    for epoch in range(cfg.epochs):
        tot = np.zeros(3)
        correct1 = correct2 = 0
        shuffle_seed = int(rng.integers(2**63))
        for imgs, labels in batches(dataset.train, cfg.batch_size, shuffle_seed):
            b = imgs.shape[0]
            draw1 = draw_channel(channel_cfg, b, arch.nc1, rng)
            draw2 = draw_channel(channel_cfg, b, arch.nc2, rng)
            probs1, probs2, (cache1, cache2) = _forward(model, imgs, draw1, draw2, True, rng)
            l1 = nn.cross_entropy(probs1, labels)
            l2 = nn.cross_entropy(probs2, labels)
            d_r1 = model.decoder1.backward(w * nn.cross_entropy_grad(probs1, labels))
            d_cat = model.decoder2.backward((1.0 - w) * nn.cross_entropy_grad(probs2, labels))
            models._transmit_backward(model.encoder1, d_r1 + d_cat[:, :model.nc1], cache1)
            models._transmit_backward(model.encoder2, d_cat[:, model.nc1:], cache2)
            loss = w * l1 + (1.0 - w) * l2
            opt.step(nets)
            tot += np.array([loss, l1, l2]) * b
            correct1 += int(np.sum(probs1.argmax(axis=1) == labels))
            correct2 += int(np.sum(probs2.argmax(axis=1) == labels))
        n = len(dataset.train)
        test1, test2 = _ref_head_accuracies(model, dataset.test, channel_cfg, rng)
        log.append({
            "epoch": epoch,
            "train_loss": tot[0] / n,
            "train_loss_round1": tot[1] / n,
            "train_loss_round2": tot[2] / n,
            "train_accuracy_round1": correct1 / n,
            "train_accuracy_round2": correct2 / n,
            "test_accuracy_round1": test1,
            "test_accuracy_round2": test2,
        })
    return model, log


@pytest.mark.parametrize("channel_kind", ["awgn", "rayleigh"])
@pytest.mark.parametrize("mode", ["srstl", "mrmtl"])
def test_shared_loop_matches_reference_loops(mode, channel_kind):
    """Seed streams, draw order, parameters and logs of each kind are those
    of its own loop before both shared one."""
    dataset = make_synthetic(num_classes=2, per_class=5, seed=3)
    arch = ArchitectureConfig(nc=2, nc2=3, num_classes=2, decoder_hidden=3)
    channel = ChannelConfig(kind=channel_kind, snr_db=10.0, seed=0)
    cfg = TrainConfig(epochs=2, batch_size=4, lr=1e-3, loss_weight=0.3, seed=4)
    train, reference = {"srstl": (train_srstl, _ref_train_srstl),
                        "mrmtl": (train_mrmtl, _ref_train_mrmtl)}[mode]

    model, log = train(dataset, arch, channel, cfg)
    ref_model, ref_log = reference(dataset, arch, channel, cfg)

    assert log == ref_log
    for part in models.PARTS[mode]:
        for (name, a), (_, b) in zip(getattr(model, part).param_items(),
                                     getattr(ref_model, part).param_items()):
            assert a.tobytes() == b.tobytes(), f"{part}.{name}"


class TestCacheLifetime:
    """Training ends with an inference pass, which drops every layer cache,
    and releases the last step's gradients."""

    def _setup(self):
        dataset = make_synthetic(num_classes=2, per_class=5, seed=3)
        arch = ArchitectureConfig(nc=2, num_classes=2)
        return dataset, arch, ChannelConfig(seed=0), TrainConfig(epochs=1, batch_size=4)

    @staticmethod
    def _cached(nets):
        return [(n, i) for n, net in enumerate(nets) for i, layer in enumerate(net.layers)
                if layer._cache is not None or layer.grads]

    def test_train_mrmtl_returns_model_without_training_state(self):
        model, _ = train_mrmtl(*self._setup())
        assert self._cached([model.encoder1, model.encoder2,
                             model.decoder1, model.decoder2]) == []

    def test_train_srstl_returns_model_without_training_state(self):
        model, _ = train_srstl(*self._setup())
        assert self._cached([model.encoder1, model.decoder1]) == []


class TestBundles:
    def _arch(self):
        return ArchitectureConfig(nc=4)

    def test_mrmtl_roundtrip(self, tmp_path):
        model = small_mrmtl(seed=6)
        arch = self._arch()
        save_bundle(model, tmp_path, arch, ChannelConfig(seed=0),
                    TrainConfig(epochs=0), "fp123", training_log=[{"epoch": 0}])
        assert (tmp_path / "bundle.json").is_file()
        assert (tmp_path / "training_log.json").is_file()
        loaded, manifest = load_bundle(tmp_path)
        assert loaded.mode == "mrmtl"
        assert manifest["mode"] == "mrmtl"
        assert manifest["dataset_fingerprint"] == "fp123"
        assert sorted(manifest["parts"]) == ["decoder1", "decoder2", "encoder1", "encoder2"]
        for net_a, net_b in ((model.encoder1, loaded.encoder1),
                             (model.encoder2, loaded.encoder2),
                             (model.decoder1, loaded.decoder1),
                             (model.decoder2, loaded.decoder2)):
            for (na, pa), (nb, pb) in zip(net_a.param_items(), net_b.param_items()):
                assert na == nb
                assert np.array_equal(pa, pb)
        assert loaded.loss_weight == 0.5
        assert (loaded.nc1, loaded.nc2) == (4, 4)

    def test_manifest_and_log_bytes_are_fixed(self, tmp_path):
        # the two JSON files of a bundle; the checkpoint header is pinned in
        # test_nn.py
        log = [{"epoch": 0, "train_loss": 2.0 / 3.0, "train_accuracy": 0.1,
                "test_accuracy": 0.125}]
        save_bundle(small_srstl(seed=7), tmp_path, self._arch(),
                    ChannelConfig(kind="rayleigh", snr_db=0.5, seed=3),
                    TrainConfig(epochs=1, lr=1e-3), "fp", training_log=log)
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("bundle.json", "training_log.json")}
        assert digests == {
            "bundle.json": "181728b079b77fc48de16b896b05578e86404b68a61987a672170a99777a7180",
            "training_log.json":
                "4fae8df66e8a29849a22b62cd4ec1a5fdd78e4229acb9ce4634f7b3929e1fa7f",
        }

    def test_srstl_roundtrip(self, tmp_path):
        model = small_srstl(seed=7)
        save_bundle(model, tmp_path, self._arch(), ChannelConfig(seed=0),
                    TrainConfig(epochs=0), "fp")
        loaded, manifest = load_bundle(tmp_path)
        assert loaded.mode == "srstl"
        assert manifest["mode"] == "srstl"
        assert manifest["parts"] == ["decoder1", "encoder1"]
        for (na, pa), (nb, pb) in zip(model.encoder1.param_items(),
                                      loaded.encoder1.param_items()):
            assert np.array_equal(pa, pb)

    def test_softmax_head_checkpoints_still_load(self, tmp_path, split_small, awgn_cfg):
        # decoders written before the logits head end in a dense softmax
        # layer; such a bundle must evaluate exactly like the current one
        model = small_mrmtl(seed=13)
        new, old = tmp_path / "new", tmp_path / "old"
        for out in (new, old):
            save_bundle(model, out, self._arch(), ChannelConfig(seed=0),
                        TrainConfig(epochs=0), "fp")

        def to_softmax(header):
            head = header["architecture"]["layers"][-1]
            assert head["activation"] == "linear"
            head["activation"] = "softmax"

        for part in ("decoder1", "decoder2"):
            edit_checkpoint_header(old / f"{part}.ckpt", to_softmax)
        split = split_small.subset(np.arange(40))
        caches = [evaluate_rounds(load_bundle(d)[0], split, awgn_cfg,
                                  np.random.default_rng(5)) for d in (new, old)]
        for field in ("true_labels", "round1_probs", "round1_pred", "round1_conf",
                      "round2_probs", "round2_pred"):
            a, b = (getattr(c, field) for c in caches)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
        assert (caches[0].nc1, caches[0].nc2) == (caches[1].nc1, caches[1].nc2)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(BundleError, match="bundle.json"):
            load_bundle(tmp_path)

    def test_missing_part(self, tmp_path):
        model = small_srstl(seed=8)
        save_bundle(model, tmp_path, self._arch(), ChannelConfig(seed=0),
                    TrainConfig(epochs=0), "fp")
        (tmp_path / "decoder1.ckpt").unlink()
        with pytest.raises(BundleError, match="decoder1"):
            load_bundle(tmp_path)

    def test_unknown_version(self, tmp_path):
        import json

        model = small_srstl(seed=9)
        save_bundle(model, tmp_path, self._arch(), ChannelConfig(seed=0),
                    TrainConfig(epochs=0), "fp")
        manifest = json.loads((tmp_path / "bundle.json").read_text())
        manifest["format_version"] = 42
        (tmp_path / "bundle.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match="version"):
            load_bundle(tmp_path)

    @pytest.mark.parametrize("key, value, part", [
        ("nc1", 6, "encoder1"), ("nc2", 6, "encoder2"), ("num_classes", 4, "decoder1"),
    ])
    def test_manifest_contradicting_checkpoints(self, tmp_path, key, value, part):
        import json

        save_bundle(small_mrmtl(seed=11), tmp_path, self._arch(), ChannelConfig(seed=0),
                    TrainConfig(epochs=0), "fp")
        manifest = json.loads((tmp_path / "bundle.json").read_text())
        manifest["architecture"][key] = value
        (tmp_path / "bundle.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match=f"{part}.ckpt .*{key}={value}"):
            load_bundle(tmp_path)

    def test_srstl_checks_only_round1_pair(self, tmp_path):
        import json

        save_bundle(small_srstl(seed=12), tmp_path, self._arch(), ChannelConfig(seed=0),
                    TrainConfig(epochs=0), "fp")
        manifest = json.loads((tmp_path / "bundle.json").read_text())
        manifest["architecture"]["nc2"] = 9  # no round-2 part to contradict
        (tmp_path / "bundle.json").write_text(json.dumps(manifest))
        loaded, _ = load_bundle(tmp_path)
        assert loaded.mode == "srstl"
        manifest["architecture"]["nc1"] = 9
        (tmp_path / "bundle.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match="encoder1.ckpt .*nc1=9"):
            load_bundle(tmp_path)

    def test_unknown_mode(self, tmp_path):
        self._reject_mode(tmp_path, "hybrid")

    @pytest.mark.parametrize("mode", [["mrmtl"], {}], ids=["list", "dict"])
    def test_non_string_mode(self, tmp_path, mode):
        self._reject_mode(tmp_path, mode)

    def _reject_mode(self, tmp_path, mode):
        import json

        model = small_srstl(seed=10)
        save_bundle(model, tmp_path, self._arch(), ChannelConfig(seed=0),
                    TrainConfig(epochs=0), "fp")
        manifest = json.loads((tmp_path / "bundle.json").read_text())
        manifest["mode"] = mode
        (tmp_path / "bundle.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match="bundle.json: unknown bundle mode"):
            load_bundle(tmp_path)

    @pytest.mark.parametrize("key", ["nc", "nc1", "nc2", "num_classes", "decoder_hidden"])
    def test_float_architecture_field_rejected(self, tmp_path, key):
        import json

        save_bundle(small_mrmtl(seed=13), tmp_path, self._arch(), ChannelConfig(seed=0),
                    TrainConfig(epochs=0), "fp")
        manifest = json.loads((tmp_path / "bundle.json").read_text())
        manifest["architecture"][key] = float(manifest["architecture"][key])
        (tmp_path / "bundle.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleError,
                           match=f"bundle.json is malformed: .*{key} must be an integer"):
            load_bundle(tmp_path)
