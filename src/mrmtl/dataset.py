"""CIFAR-10 binary ingestion, a synthetic desk-scale dataset, and batching.

Images are float64 arrays of shape (3, 32, 32) with values in [0, 1]
(byte values divided by 255). Labels are integer class ids.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGE_SHAPE = (3, 32, 32)
RECORD_BYTES = 1 + 3 * 32 * 32

CIFAR10_CLASS_NAMES = (
    "airplane", "automobile", "bird", "cat", "deer",
    "dog", "frog", "horse", "ship", "truck",
)

TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
TEST_FILE = "test_batch.bin"


class CifarFormatError(ValueError):
    """Malformed CIFAR-10 binary content (size or label byte)."""


@dataclass(frozen=True)
class Split:
    """An ordered collection of samples stored as dense arrays."""

    images: np.ndarray  # (N, 3, 32, 32) float64
    labels: np.ndarray  # (N,) int64

    def __len__(self) -> int:
        return self.images.shape[0]

    def subset(self, indices) -> "Split":
        return Split(self.images[indices], self.labels[indices])


@dataclass(frozen=True)
class Dataset:
    train: Split
    test: Split
    class_names: tuple[str, ...]


def _read_cifar_file(path: Path) -> tuple[np.ndarray, np.ndarray]:
    raw = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    if raw.size == 0 or raw.size % RECORD_BYTES:
        offset = raw.size - (raw.size % RECORD_BYTES)
        raise CifarFormatError(
            f"{path.name}: truncated record at byte offset {offset} "
            f"(file size {raw.size} is not a multiple of {RECORD_BYTES})"
        )
    records = raw.reshape(-1, RECORD_BYTES)
    labels = records[:, 0]
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        i = int(bad[0])
        raise CifarFormatError(
            f"{path.name}: label byte {int(labels[i])} out of range at record {i} "
            f"(byte offset {i * RECORD_BYTES})"
        )
    images = records[:, 1:].reshape(-1, *IMAGE_SHAPE).astype(np.float64) / 255.0
    return images, labels.astype(np.int64)


def load_cifar10(dir_path) -> Dataset:
    """Load the CIFAR-10 binary files from a directory.

    Expects data_batch_1..5.bin and test_batch.bin, each a sequence of
    3073-byte records: one label byte, then 1024 red, 1024 green and 1024
    blue bytes in row-major 32x32 order. Record order is preserved.
    """
    dir_path = Path(dir_path)
    for name in (*TRAIN_FILES, TEST_FILE):
        if not (dir_path / name).is_file():
            raise FileNotFoundError(f"missing CIFAR-10 file: {dir_path / name}")
    train_parts = [_read_cifar_file(dir_path / name) for name in TRAIN_FILES]
    test_images, test_labels = _read_cifar_file(dir_path / TEST_FILE)
    return Dataset(
        train=Split(np.concatenate([p[0] for p in train_parts]),
                    np.concatenate([p[1] for p in train_parts])),
        test=Split(test_images, test_labels),
        class_names=CIFAR10_CLASS_NAMES,
    )


def make_synthetic(num_classes: int, per_class: int, seed: int) -> Dataset:
    """Deterministic class-coded Gaussian-blob images, split 80/20 per class.

    Each class gets a fixed blob center and RGB signature; samples add
    center jitter and pixel noise, and every image is clipped to [0, 1].
    Shares the CIFAR tensor shape so downstream code paths are identical.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if per_class < 2:
        raise ValueError(f"per_class must be >= 2, got {per_class}")
    rng = np.random.default_rng(seed)
    class_rng = np.random.default_rng(np.random.SeedSequence([seed, 9151]))
    colors = 0.25 + 0.75 * class_rng.random((num_classes, 3))
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    centers = np.stack([16.0 + 9.0 * np.cos(angles), 16.0 + 9.0 * np.sin(angles)], axis=1)
    widths = 3.0 + 2.0 * class_rng.random(num_classes)

    yy, xx = np.mgrid[0:32, 0:32].astype(np.float64)
    train_imgs, train_labels, test_imgs, test_labels = [], [], [], []
    n_train = (4 * per_class) // 5
    for k in range(num_classes):
        jitter = rng.normal(0.0, 1.5, size=(per_class, 2))
        noise = rng.normal(0.0, 0.04, size=(per_class, *IMAGE_SHAPE))
        cy = centers[k, 0] + jitter[:, 0]
        cx = centers[k, 1] + jitter[:, 1]
        d2 = (yy[None] - cy[:, None, None]) ** 2 + (xx[None] - cx[:, None, None]) ** 2
        blob = np.exp(-d2 / (2.0 * widths[k] ** 2))
        imgs = colors[k][None, :, None, None] * blob[:, None] + noise
        imgs = np.clip(imgs, 0.0, 1.0)
        train_imgs.append(imgs[:n_train])
        test_imgs.append(imgs[n_train:])
        train_labels.append(np.full(n_train, k, dtype=np.int64))
        test_labels.append(np.full(per_class - n_train, k, dtype=np.int64))

    names = tuple(f"class_{k}" for k in range(num_classes))
    return Dataset(
        train=Split(np.concatenate(train_imgs), np.concatenate(train_labels)),
        test=Split(np.concatenate(test_imgs), np.concatenate(test_labels)),
        class_names=names,
    )


def batches(split: Split, batch_size: int, shuffle_seed: int):
    """Yield (images, labels) batches covering the split exactly once, in
    the deterministic permutation shuffle_seed picks. The last batch may be
    short.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng(shuffle_seed).permutation(len(split))
    for start in range(0, len(split), batch_size):
        idx = order[start : start + batch_size]
        yield split.images[idx], split.labels[idx]


def dataset_fingerprint(ds: Dataset) -> str:
    """SHA-256 over both splits' bytes, for provenance in run bundles."""
    h = hashlib.sha256()
    for split in (ds.train, ds.test):
        h.update(np.ascontiguousarray(split.images, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(split.labels, dtype="<i8").tobytes())
    return h.hexdigest()
