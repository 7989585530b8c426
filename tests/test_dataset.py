"""Dataset module: binary ingestion, synthetic data, batching."""

import numpy as np
import pytest

from conftest import write_fake_cifar
from mrmtl.dataset import (
    CifarFormatError,
    RECORD_BYTES,
    Split,
    batches,
    dataset_fingerprint,
    load_cifar10,
    make_synthetic,
)


class TestLoadCifar10:
    def test_lossless_ingestion(self, tmp_path):
        raw = write_fake_cifar(tmp_path, per_file=4)
        ds = load_cifar10(tmp_path)
        assert len(ds.train) == 20
        assert len(ds.test) == 4
        # order preserved and labels read from leading record byte
        want_labels = np.concatenate([raw[f"data_batch_{i}.bin"][0] for i in range(1, 6)])
        assert np.array_equal(ds.train.labels, want_labels)
        # pixels are bytes / 255; reconstructing bytes reproduces the file sum
        recon = np.round(ds.train.images * 255.0).astype(np.int64)
        byte_sum = sum(int(raw[f"data_batch_{i}.bin"][1].sum()) for i in range(1, 6))
        assert int(recon.sum()) == byte_sum
        assert ds.train.images.min() >= 0.0 and ds.train.images.max() <= 1.0

    def test_channel_plane_order(self, tmp_path):
        # one record: red plane all 255, green and blue all 0
        pixels = np.zeros(3072, dtype=np.uint8)
        pixels[:1024] = 255
        record = np.concatenate([[np.uint8(3)], pixels])
        for name in ("data_batch_1.bin", "data_batch_2.bin", "data_batch_3.bin",
                     "data_batch_4.bin", "data_batch_5.bin", "test_batch.bin"):
            (tmp_path / name).write_bytes(record.tobytes())
        ds = load_cifar10(tmp_path)
        img = ds.test.images[0]
        assert np.all(img[0] == 1.0)
        assert np.all(img[1:] == 0.0)
        assert ds.test.labels[0] == 3

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="data_batch_1.bin"):
            load_cifar10(tmp_path)

    def test_truncated_record_offset(self, tmp_path):
        write_fake_cifar(tmp_path, per_file=2)
        good = (tmp_path / "data_batch_2.bin").read_bytes()
        (tmp_path / "data_batch_2.bin").write_bytes(good + b"\x00" * 10)
        with pytest.raises(CifarFormatError, match=str(2 * RECORD_BYTES)):
            load_cifar10(tmp_path)

    def test_label_byte_out_of_range(self, tmp_path):
        write_fake_cifar(tmp_path, per_file=1)
        record = bytearray((tmp_path / "test_batch.bin").read_bytes())
        record[0] = 255
        (tmp_path / "test_batch.bin").write_bytes(bytes(record))
        with pytest.raises(CifarFormatError, match="255"):
            load_cifar10(tmp_path)


class TestMakeSynthetic:
    def test_split_sizes(self):
        ds = make_synthetic(10, 100, 7)
        assert len(ds.train) == 800
        assert len(ds.test) == 200
        assert ds.train.images.shape == (800, 3, 32, 32)
        assert len(ds.class_names) == 10

    def test_value_range_and_balance(self):
        ds = make_synthetic(4, 10, 1)
        assert ds.train.images.min() >= 0.0 and ds.train.images.max() <= 1.0
        for k in range(4):
            assert np.count_nonzero(ds.train.labels == k) == 8
            assert np.count_nonzero(ds.test.labels == k) == 2

    def test_deterministic(self):
        a = make_synthetic(10, 12, 3)
        b = make_synthetic(10, 12, 3)
        assert np.array_equal(a.train.images, b.train.images)
        assert np.array_equal(a.test.images, b.test.images)
        assert np.array_equal(a.train.labels, b.train.labels)

    def test_seeds_differ(self):
        a = make_synthetic(10, 12, 3)
        b = make_synthetic(10, 12, 4)
        assert not np.array_equal(a.train.images, b.train.images)

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            make_synthetic(1, 10, 0)
        with pytest.raises(ValueError):
            make_synthetic(10, 0, 0)
        with pytest.raises(ValueError, match="per_class"):
            make_synthetic(3, 1, 0)  # would leave the training split empty

    def test_smallest_per_class_fills_both_splits(self):
        ds = make_synthetic(3, 2, 0)
        assert len(ds.train) == 3 and len(ds.test) == 3


class TestBatches:
    def test_sizes(self):
        split = Split(images=np.zeros((10, 3, 2, 2)), labels=np.arange(10))
        sizes = [b.shape[0] for b, _ in batches(split, 4, shuffle_seed=1)]
        assert sizes == [4, 4, 2]

    def test_each_sample_exactly_once(self):
        split = Split(images=np.zeros((23, 1, 1, 1)), labels=np.arange(23))
        seen = np.concatenate([lab for _, lab in batches(split, 5, shuffle_seed=9)])
        assert sorted(seen.tolist()) == list(range(23))

    def test_shuffle_deterministic(self):
        split = Split(images=np.zeros((16, 1, 1, 1)), labels=np.arange(16))
        a = np.concatenate([lab for _, lab in batches(split, 4, shuffle_seed=5)])
        b = np.concatenate([lab for _, lab in batches(split, 4, shuffle_seed=5)])
        assert np.array_equal(a, b)

    def test_batch_size_validation(self):
        split = Split(images=np.zeros((4, 1, 1, 1)), labels=np.arange(4))
        with pytest.raises(ValueError):
            list(batches(split, 0, shuffle_seed=1))


def test_fingerprint_tracks_content():
    a = make_synthetic(4, 5, 0)
    b = make_synthetic(4, 5, 0)
    c = make_synthetic(4, 5, 1)
    assert dataset_fingerprint(a) == dataset_fingerprint(b)
    assert dataset_fingerprint(a) != dataset_fingerprint(c)
