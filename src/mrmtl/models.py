"""Encoder/decoder assembly, training, and the two-round forward pass.

Two system variants share one model type, Model, and one training loop:

* multi-round (MRMTL): two encoder/decoder heads trained jointly with the
  weighted loss l = w*l1 + (1-w)*l2, where the Round-2 decoder sees the
  concatenation [r1, r2] of both rounds' received signals;
* single-round (SRSTL): the one-round case, a Model with no Round-2 pair,
  trained end to end on l1 for a fixed number of channel uses.

All transmissions pass through power normalization, then the channel.
Channel gains and noise are redrawn on every forward pass; gradients treat
the drawn gain as a constant multiplier. The per-epoch test accuracies come
from the receiver's chunk loop (protocol._receive), with every chunk
drawing from the training loop's rng.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import nn
from .channel import (
    ChannelConfig,
    ChannelDraw,
    apply_channel,
    draw_channel,
    power_norm_backward,
    power_norm_forward,
)
from .dataset import Dataset, Split, batches

class TrainingError(RuntimeError):
    """Training diverged (non-finite loss)."""


@dataclass(frozen=True)
class ArchitectureConfig:
    """Channel-use budgets and head sizes.

    nc is the base number of channel uses; the per-round budgets nc1 and nc2
    default to nc. decoder_hidden is the width of the decoder's middle dense
    layer and defaults to nc as well.
    """

    nc: int
    nc1: int | None = None
    nc2: int | None = None
    num_classes: int = 10
    decoder_hidden: int | None = None

    def __post_init__(self):
        for name in ("nc1", "nc2", "decoder_hidden"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, self.nc)
        for name, value in asdict(self).items():
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.nc < 1 or self.nc1 < 1 or self.nc2 < 1:
            raise ValueError("channel-use budgets must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.decoder_hidden < 1:
            raise ValueError("decoder_hidden must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 32
    lr: float = 1e-3
    loss_weight: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.lr < np.inf:
            raise ValueError("lr must be finite and >= 0")
        if not 0.0 <= self.loss_weight <= 1.0:
            raise ValueError("loss_weight must lie in [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DecoderOutput:
    """One decoder head's verdict on one sample."""

    probs: np.ndarray      # (num_classes,)
    predicted: int         # argmax, ties to the lowest class id
    confidence: float      # max probability


@dataclass
class Model:
    """Either kind's networks. An SRSTL model has no Round-2 pair; it carries
    its bundle's nc2 and loss_weight, but one round reads neither."""

    encoder1: nn.Network
    decoder1: nn.Network
    nc1: int
    nc2: int
    loss_weight: float
    encoder2: nn.Network | None = None
    decoder2: nn.Network | None = None

    @property
    def mode(self) -> str:
        return "srstl" if self.encoder2 is None else "mrmtl"


# bundle part names per mode; a Model names its networks after them
PARTS = {"mrmtl": ("encoder1", "encoder2", "decoder1", "decoder2"),
         "srstl": ("encoder1", "decoder1")}


def build_encoder(out_size: int, seed: int, input_shape=(3, 32, 32)) -> nn.Network:
    """Six same-padded 3x3 conv layers in three pool/dropout blocks
    (32, 32 / 64, 64 / 128, 128 filters), then Dense 512 and a linear
    Dense head of width out_size (the modulated symbols for one round)."""
    if out_size < 1:
        raise ValueError(f"encoder out_size must be >= 1, got {out_size}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    c = input_shape[0]
    layers = [
        nn.Conv2D(c, 32, 3, "relu", rng=rng),
        nn.Conv2D(32, 32, 3, "relu", rng=rng),
        nn.MaxPool2D(2),
        nn.Dropout(0.25),
        nn.Conv2D(32, 64, 3, "relu", rng=rng),
        nn.Conv2D(64, 64, 3, "relu", rng=rng),
        nn.MaxPool2D(2),
        nn.Dropout(0.25),
        nn.Conv2D(64, 128, 3, "relu", rng=rng),
        nn.Conv2D(128, 128, 3, "relu", rng=rng),
        nn.MaxPool2D(2),
        nn.Dropout(0.25),
        nn.Flatten(),
    ]
    shape = tuple(input_shape)
    for layer in layers:
        shape = layer.out_shape(shape)
    layers += [
        nn.Dense(shape[0], 512, "relu", rng=rng),
        nn.Dropout(0.25),
        nn.Dense(512, out_size, "linear", rng=rng),
    ]
    layers[0].input_grad = False  # nothing reads the gradient w.r.t. the images
    return nn.Network(layers, input_shape)


def build_decoder(in_size: int, hidden: int, seed: int, num_classes: int = 10) -> nn.Network:
    """Dense(in_size, ReLU), Dropout 0.1, Dense(hidden, ReLU), logits head."""
    if in_size < 1 or hidden < 1:
        raise ValueError("decoder sizes must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 202]))
    return nn.Network([
        nn.Dense(in_size, in_size, "relu", rng=rng),
        nn.Dropout(0.1),
        nn.Dense(in_size, hidden, "relu", rng=rng),
        nn.Dense(hidden, num_classes, "linear", rng=rng),
    ], (in_size,))


# ---------------------------------------------------------------------------
# forward/backward plumbing shared by training, evaluation, and grad checks


def _transmit_batch(encoder: nn.Network, images: np.ndarray, draw: ChannelDraw,
                    train: bool, rng) -> tuple[np.ndarray, tuple]:
    """Encode, power-normalize, and push a batch through a frozen draw."""
    raw = encoder.forward(images, train, rng)
    s, cache = power_norm_forward(raw)
    return apply_channel(s, draw), (cache, draw)


def _symbols(encoder: nn.Network, images: np.ndarray) -> np.ndarray:
    """The power-normalized symbols an inference encoder sends for a batch."""
    return power_norm_forward(encoder.forward(images))[0]


def _transmit_backward(encoder: nn.Network, d_received: np.ndarray, cache: tuple) -> None:
    norm_cache, draw = cache
    ds = draw.gain[:, None] * d_received
    encoder.backward(power_norm_backward(ds, norm_cache))


def _decode1(model, r1: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
    """Round-1 head probabilities: the softmax of Decoder 1's logits on r1."""
    return nn.softmax(model.decoder1.forward(r1, train, rng))


def _decode2(model, r1: np.ndarray, r2: np.ndarray, train: bool = False,
             rng=None) -> np.ndarray:
    """Round-2 head probabilities: Decoder 2 sees [r1, r2], with r1 reused
    exactly as received."""
    return nn.softmax(model.decoder2.forward(np.concatenate([r1, r2], axis=1), train, rng))


def _forward(model, images, draw1: ChannelDraw, draw2: ChannelDraw | None = None,
             train: bool = False, rng=None):
    """The receiver's two rounds over one batch; returns (probs1, probs2, caches).

    Runs encoder1, encoder2, decoder1, decoder2 in that order, so dropout
    draws from rng in the order training records them. Round 2 is skipped
    when draw2 is None, and its probs and cache are then None.
    """
    r1, cache1 = _transmit_batch(model.encoder1, images, draw1, train, rng)
    if draw2 is None:
        return _decode1(model, r1, train, rng), None, (cache1, None)
    r2, cache2 = _transmit_batch(model.encoder2, images, draw2, train, rng)
    probs1 = _decode1(model, r1, train, rng)
    return probs1, _decode2(model, r1, r2, train, rng), (cache1, cache2)


def mrmtl_loss(model: Model, images, labels, draw1: ChannelDraw, draw2: ChannelDraw,
               w: float | None = None, train: bool = False, rng=None):
    """Forward pass of both heads; returns (loss, l1, l2, probs1, probs2)."""
    w = model.loss_weight if w is None else w
    probs1, probs2, _ = _forward(model, images, draw1, draw2, train, rng)
    l1 = nn.cross_entropy(probs1, labels)
    l2 = nn.cross_entropy(probs2, labels)
    return w * l1 + (1.0 - w) * l2, l1, l2, probs1, probs2


def mrmtl_loss_and_grads(model, images, labels, draw1: ChannelDraw,
                         draw2: ChannelDraw | None, rng):
    """Training pass of the joint loss; gradients land on every network.

    Round-1 received symbols feed both decoders, so the gradient into r1 is
    the sum of Decoder 1's (weighted by w, the model's loss_weight) and the
    first nc1 columns of Decoder 2's (weighted by 1-w). With draw2 None,
    round 1 runs alone on its unweighted loss, the single-round case; that
    returns (l1, l1, None, probs1, None).
    """
    probs1, probs2, (cache1, cache2) = _forward(model, images, draw1, draw2, True, rng)
    l1 = nn.cross_entropy(probs1, labels)
    if draw2 is None:
        d_r1 = model.decoder1.backward(nn.cross_entropy_grad(probs1, labels))
        _transmit_backward(model.encoder1, d_r1, cache1)
        return l1, l1, None, probs1, None
    w = model.loss_weight
    l2 = nn.cross_entropy(probs2, labels)

    d_r1 = model.decoder1.backward(w * nn.cross_entropy_grad(probs1, labels))
    d_cat = model.decoder2.backward((1.0 - w) * nn.cross_entropy_grad(probs2, labels))
    _transmit_backward(model.encoder1, d_r1 + d_cat[:, :model.nc1], cache1)
    _transmit_backward(model.encoder2, d_cat[:, model.nc1:], cache2)
    return w * l1 + (1.0 - w) * l2, l1, l2, probs1, probs2


# ---------------------------------------------------------------------------
# training loops


def _release_gradients(nets) -> None:
    """Drop the last step's gradients and layer caches, so a trained model
    holds parameters only.

    Nothing reads them after training; kept, they pin their memory, and with
    it heap pages freed around them, for as long as the model lives. The
    caches include each Conv2D's reused patch matrix, about 75 MB for the
    encoder's second layer at batch size 32.
    """
    for net in nets:
        for layer in net.layers:
            layer.grads = {}
            layer._cache = None


def mrmtl_head_accuracies(model: Model, split: Split, cfg: ChannelConfig,
                          rng) -> tuple[float, float | None]:
    """Round-1 and Round-2 head accuracies over fresh channel draws.

    Runs the receiver's chunk loop with every chunk drawing from rng itself,
    round 1 and then round 2 (delta = inf). An SRSTL model has no Round-2
    head: it runs round 1 alone (delta = 0), and its second accuracy is None.
    """
    from .protocol import _receive  # protocol imports this module

    two_rounds = model.mode == "mrmtl"
    acc1, acc2 = _receive(model, split, cfg, functools.partial(itertools.repeat, rng),
                          np.inf if two_rounds else 0.0).head_accuracies()
    return acc1, (acc2 if two_rounds else None)


def _train(mode: str, dataset: Dataset, arch: ArchitectureConfig,
           channel_cfg: ChannelConfig, cfg: TrainConfig):
    """The one training loop, for either kind; returns (model, log).

    The kind's seed stream spawns one network seed per part, in PARTS order,
    then the loop rng. Each batch draws round 1's channel, then round 2's
    (MRMTL only), then dropout in forward order.
    """
    two_rounds = mode == "mrmtl"
    root = np.random.SeedSequence([cfg.seed, {"srstl": 11, "mrmtl": 22}[mode]])
    *seeds, loop_seed = (int(s.generate_state(1)[0])
                         for s in root.spawn(len(PARTS[mode]) + 1))
    # each part's symbol width: what an encoder emits, what a decoder takes in
    widths = {"encoder1": arch.nc1, "encoder2": arch.nc2,
              "decoder1": arch.nc1, "decoder2": arch.nc1 + arch.nc2}
    nets = {name: build_encoder(widths[name], seed) if name.startswith("encoder")
            else build_decoder(widths[name], arch.decoder_hidden, seed, arch.num_classes)
            for name, seed in zip(PARTS[mode], seeds)}
    model = Model(**nets, nc1=arch.nc1, nc2=arch.nc2, loss_weight=cfg.loss_weight)
    rng = np.random.default_rng(loop_seed)
    opt = nn.Adam(lr=cfg.lr)
    log: list[dict] = []
    n = len(dataset.train)
    for epoch in range(cfg.epochs):
        tot = np.zeros(3)
        correct1 = correct2 = 0
        shuffle_seed = int(rng.integers(2**63))
        for imgs, labels in batches(dataset.train, cfg.batch_size, shuffle_seed):
            b = imgs.shape[0]
            draw1 = draw_channel(channel_cfg, b, arch.nc1, rng)
            draw2 = draw_channel(channel_cfg, b, arch.nc2, rng) if two_rounds else None
            loss, l1, l2, probs1, probs2 = mrmtl_loss_and_grads(
                model, imgs, labels, draw1, draw2, rng)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            opt.step(nets.values())
            tot += np.array([loss, l1, l2 if two_rounds else 0.0]) * b
            correct1 += int(np.sum(probs1.argmax(axis=1) == labels))
            if two_rounds:
                correct2 += int(np.sum(probs2.argmax(axis=1) == labels))
        test1, test2 = mrmtl_head_accuracies(model, dataset.test, channel_cfg, rng)
        entry = {"epoch": epoch, "train_loss": tot[0] / n}
        if two_rounds:
            entry.update(train_loss_round1=tot[1] / n, train_loss_round2=tot[2] / n,
                         train_accuracy_round1=correct1 / n, train_accuracy_round2=correct2 / n,
                         test_accuracy_round1=test1, test_accuracy_round2=test2)
        else:
            entry.update(train_accuracy=correct1 / n, test_accuracy=test1)
        log.append(entry)
    _release_gradients(nets.values())
    return model, log


def train_srstl(dataset: Dataset, arch: ArchitectureConfig, channel_cfg: ChannelConfig,
                cfg: TrainConfig) -> tuple[Model, list[dict]]:
    """End-to-end training of the single-round pair; returns (model, log)."""
    return _train("srstl", dataset, arch, channel_cfg, cfg)


def train_mrmtl(dataset: Dataset, arch: ArchitectureConfig, channel_cfg: ChannelConfig,
                cfg: TrainConfig) -> tuple[Model, list[dict]]:
    """Joint training of both rounds against l = w*l1 + (1-w)*l2.

    Both heads are evaluated on every batch; r1 and r2 go through
    independent channel draws, as they do at inference time.
    """
    return _train("mrmtl", dataset, arch, channel_cfg, cfg)


# ---------------------------------------------------------------------------
# model bundles on disk

BUNDLE_VERSION = 1


class BundleError(ValueError):
    """Bundle directory is missing files or inconsistent."""


def write_json(obj, path) -> None:
    """Write one JSON artifact: sorted keys, two-space indent, final newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def save_bundle(model, out_dir, arch: ArchitectureConfig, channel_cfg: ChannelConfig,
                train_cfg: TrainConfig, dataset_fingerprint: str,
                training_log: list[dict] | None = None) -> Path:
    """Write the model's networks plus a bundle.json manifest.

    MRMTL bundles hold encoder1/encoder2/decoder1/decoder2 checkpoints;
    single-round bundles hold only the Round-1 pair under the same names.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mode = model.mode
    for name in PARTS[mode]:
        nn.save_checkpoint(getattr(model, name), out / f"{name}.ckpt",
                           metadata={"part": name, "mode": mode})
    manifest = {
        "format_version": BUNDLE_VERSION,
        "mode": mode,
        "parts": sorted(PARTS[mode]),
        "architecture": arch.to_dict(),
        "channel": channel_cfg.to_dict(),
        "training": train_cfg.to_dict(),
        "dataset_fingerprint": dataset_fingerprint,
    }
    write_json(manifest, out / "bundle.json")
    if training_log is not None:
        write_json(training_log, out / "training_log.json")
    return out


def load_bundle(bundle_dir) -> tuple[Model, dict]:
    """Rebuild a model from a bundle directory; returns (model, manifest)."""
    bundle = Path(bundle_dir)
    manifest_path = bundle / "bundle.json"
    if not manifest_path.is_file():
        raise BundleError(f"no bundle.json in {bundle}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise BundleError(f"{manifest_path} is not valid JSON: {e}") from None
    if not isinstance(manifest, dict):
        raise BundleError(f"{manifest_path} must hold a JSON object")
    version = manifest.get("format_version")
    if type(version) is not int or version != BUNDLE_VERSION:
        raise BundleError(f"{manifest_path}: unsupported bundle version {version!r}")
    try:
        arch = ArchitectureConfig(**manifest["architecture"])
        mode = manifest["mode"]
        loss_weight = manifest["training"]["loss_weight"]
    except (KeyError, TypeError, ValueError) as e:
        raise BundleError(f"{manifest_path} is malformed: {e!r}") from None

    def load_part(name: str) -> nn.Network:
        path = bundle / f"{name}.ckpt"
        if not path.is_file():
            raise BundleError(f"bundle part missing: {path}")
        net, _ = nn.load_checkpoint(path)
        return net

    if not isinstance(mode, str) or mode not in PARTS:
        raise BundleError(f"{manifest_path}: unknown bundle mode {mode!r}")
    nets = {name: load_part(name) for name in PARTS[mode]}
    # (part, "input"/"hidden"/"output", width the manifest implies, its source)
    expected = [("encoder1", "output", arch.nc1, "nc1"),
                ("decoder1", "input", arch.nc1, "nc1"),
                ("decoder1", "hidden", arch.decoder_hidden, "decoder_hidden"),
                ("decoder1", "output", arch.num_classes, "num_classes")]
    if mode == "mrmtl":
        expected += [("encoder2", "output", arch.nc2, "nc2"),
                     ("decoder2", "input", arch.nc1 + arch.nc2, "nc1+nc2"),
                     ("decoder2", "hidden", arch.decoder_hidden, "decoder_hidden"),
                     ("decoder2", "output", arch.num_classes, "num_classes")]
    for name, side, want, source in expected:
        net = nets[name]
        got = {"input": net.input_shape[0], "output": net.output_shape[0],
               "hidden": getattr(net.layers[-1], "in_size", None)}[side]
        if got != want:
            raise BundleError(
                f"{name}.ckpt has {side} width {got}, but {manifest_path} "
                f"gives {source}={want}"
            )

    return Model(**nets, nc1=arch.nc1, nc2=arch.nc2, loss_weight=loss_weight), manifest
