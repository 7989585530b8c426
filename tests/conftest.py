"""Shared fixtures: small models over reduced input shapes, random splits,
and a fake CIFAR-10 directory builder.

Session-scoped model fixtures are treated as immutable; tests that train or
otherwise mutate parameters build their own instances.
"""

import json
import struct

import numpy as np
import pytest

from mrmtl.channel import ChannelConfig
from mrmtl.dataset import Split, TRAIN_FILES, TEST_FILE
from mrmtl.models import Model, build_decoder, build_encoder

SMALL_SHAPE = (3, 8, 8)


def small_mrmtl(nc1: int = 4, nc2: int = 4, num_classes: int = 10, seed: int = 0,
                loss_weight: float = 0.5) -> Model:
    """Full architecture over 8x8 inputs, cheap enough for per-test use."""
    ss = np.random.SeedSequence([seed, 77])
    seeds = [int(s.generate_state(1)[0]) for s in ss.spawn(4)]
    return Model(
        encoder1=build_encoder(nc1, seeds[0], input_shape=SMALL_SHAPE),
        encoder2=build_encoder(nc2, seeds[1], input_shape=SMALL_SHAPE),
        decoder1=build_decoder(nc1, nc1, seeds[2], num_classes),
        decoder2=build_decoder(nc1 + nc2, nc1, seeds[3], num_classes),
        loss_weight=loss_weight,
        nc1=nc1,
        nc2=nc2,
    )


def small_srstl(nc1: int = 4, num_classes: int = 10, seed: int = 0) -> Model:
    ss = np.random.SeedSequence([seed, 88])
    seeds = [int(s.generate_state(1)[0]) for s in ss.spawn(2)]
    return Model(
        encoder1=build_encoder(nc1, seeds[0], input_shape=SMALL_SHAPE),
        decoder1=build_decoder(nc1, nc1, seeds[1], num_classes),
        nc1=nc1,
        nc2=nc1,
        loss_weight=0.5,
    )


def random_split(n: int = 150, num_classes: int = 10, seed: int = 42,
                 shape=SMALL_SHAPE) -> Split:
    rng = np.random.default_rng(seed)
    return Split(images=rng.random((n, *shape)),
                 labels=rng.integers(0, num_classes, n))


@pytest.fixture(scope="session")
def mrmtl_small() -> Model:
    return small_mrmtl()


@pytest.fixture(scope="session")
def split_small() -> Split:
    return random_split()


@pytest.fixture
def awgn_cfg() -> ChannelConfig:
    return ChannelConfig(kind="awgn", snr_db=10.0, seed=0)


@pytest.fixture
def rayleigh_cfg() -> ChannelConfig:
    return ChannelConfig(kind="rayleigh", snr_db=10.0, seed=0)


def write_fake_cifar(dir_path, per_file: int = 3, seed: int = 0) -> dict:
    """Write structurally valid CIFAR-10 binary files with random content.

    Returns the raw label/pixel arrays for oracle comparisons, keyed by
    file name.
    """
    rng = np.random.default_rng(seed)
    raw = {}
    for name in (*TRAIN_FILES, TEST_FILE):
        labels = rng.integers(0, 10, per_file, dtype=np.uint8)
        pixels = rng.integers(0, 256, (per_file, 3072), dtype=np.uint8)
        records = np.concatenate([labels[:, None], pixels], axis=1)
        (dir_path / name).write_bytes(records.tobytes())
        raw[name] = (labels, pixels)
    return raw


def edit_checkpoint_tensors(path, edit) -> None:
    """Rewrite a checkpoint with its tensors, header entries and body bytes
    alike, replaced by edit([(entry, raw bytes), ...])."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[:4])
    header = json.loads(blob[4:4 + hlen])
    tensors, offset = [], 4 + hlen
    for entry in header["tensors"]:
        size = 8 * int(np.prod(entry["shape"]))
        tensors.append((entry, blob[offset:offset + size]))
        offset += size
    tensors = edit(tensors)
    header["tensors"] = [entry for entry, _ in tensors]
    new = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(struct.pack("<I", len(new)) + new + b"".join(raw for _, raw in tensors))


def edit_checkpoint_header(path, edit) -> None:
    """Rewrite a checkpoint's JSON header through edit(header), which changes
    it in place; the tensor bytes stay as they are."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[:4])
    header = json.loads(blob[4:4 + hlen])
    edit(header)
    new = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(struct.pack("<I", len(new)) + new + blob[4 + hlen:])


def pytest_configure(config):
    config.acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
