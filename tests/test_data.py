"""Dataset ingestion: IDX bytes, USPS text, bilinear resize, batching."""

import gzip
import struct

import numpy as np
import pytest

from conftest import write_gzip_text, write_idx
from mndbn.core import Rng
from mndbn.data import (
    Dataset,
    load_idx,
    load_usps,
    resize_bilinear,
    shuffle_split,
)
from mndbn.errors import DataError


def idx_images_bytes(count, rows, cols, pixels, magic=0x00000803):
    return struct.pack(">iiii", magic, count, rows, cols) + bytes(pixels)


def idx_labels_bytes(labels, magic=0x00000801):
    return struct.pack(">ii", magic, len(labels)) + bytes(labels)


def write_pair(tmp_path, images_payload, labels_payload):
    ip = tmp_path / "images.idx"
    lp = tmp_path / "labels.idx"
    ip.write_bytes(images_payload)
    lp.write_bytes(labels_payload)
    return ip, lp


class TestLoadIdx:
    def test_pixel_scaling(self, tmp_path):
        ip, lp = write_pair(
            tmp_path,
            idx_images_bytes(1, 2, 2, [0, 255, 128, 64]),
            idx_labels_bytes([7]),
        )
        ds = load_idx(ip, lp)
        assert ds.images.shape == (1, 4)
        assert (ds.images[0] == np.array([0.0, 1.0, 128 / 255, 64 / 255])).all()
        assert ds.labels.tolist() == [7]

    def test_gzip_transparent(self, tmp_path):
        ip = tmp_path / "images.idx.gz"
        lp = tmp_path / "labels.idx.gz"
        ip.write_bytes(gzip.compress(idx_images_bytes(1, 2, 2, [10, 20, 30, 40])))
        lp.write_bytes(gzip.compress(idx_labels_bytes([3])))
        ds = load_idx(ip, lp)
        assert ds.images[0, 0] == 10 / 255

    def test_labels_magic_in_images_slot_rejected(self, tmp_path):
        ip, lp = write_pair(
            tmp_path,
            idx_images_bytes(1, 2, 2, [0, 0, 0, 0], magic=0x00000801),
            idx_labels_bytes([1]),
        )
        with pytest.raises(DataError):
            load_idx(ip, lp)

    def test_truncated_pixels_rejected(self, tmp_path):
        ip, lp = write_pair(
            tmp_path,
            idx_images_bytes(2, 2, 2, [0, 0, 0, 0]),   # promises 2 images, holds 1
            idx_labels_bytes([1, 2]),
        )
        with pytest.raises(DataError):
            load_idx(ip, lp)

    def test_count_mismatch_rejected(self, tmp_path):
        ip, lp = write_pair(
            tmp_path,
            idx_images_bytes(1, 2, 2, [0, 0, 0, 0]),
            idx_labels_bytes([1, 2]),
        )
        with pytest.raises(DataError):
            load_idx(ip, lp)

    def test_out_of_range_label_rejected(self, tmp_path):
        ip, lp = write_pair(
            tmp_path,
            idx_images_bytes(1, 2, 2, [0, 0, 0, 0]),
            idx_labels_bytes([12]),
        )
        with pytest.raises((DataError, ValueError)):
            load_idx(ip, lp)

    def test_write_then_load_round_trip(self, tmp_path):
        rng = Rng(0)
        quantized = np.rint(rng.uniform((6, 16)) * 255) / 255
        ds = Dataset(images=quantized, labels=rng.integers(0, 10, (6,)), name="t", split="train")
        ip = tmp_path / "im.idx"
        lp = tmp_path / "lb.idx"
        write_idx(ds, ip, lp)
        back = load_idx(ip, lp)
        assert (back.images == ds.images).all()
        assert (back.labels == ds.labels).all()


class TestResizeBilinear:
    def test_identity_size_returns_equal_image(self):
        img = Rng(1).uniform((5, 5))
        out = resize_bilinear(img, 5, 5)
        assert (out == img).all()
        assert out is not img

    def test_constant_image_stays_constant(self):
        out = resize_bilinear(np.full((3, 3), 0.7), 7, 7)
        assert np.allclose(out, 0.7, rtol=0, atol=1e-15)

    def test_checkerboard_2x2_to_4x4(self):
        img = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = resize_bilinear(img, 4, 4)
        expected = np.array(
            [
                [1.0, 2 / 3, 1 / 3, 0.0],
                [2 / 3, 5 / 9, 4 / 9, 1 / 3],
                [1 / 3, 4 / 9, 5 / 9, 2 / 3],
                [0.0, 1 / 3, 2 / 3, 1.0],
            ]
        )
        assert np.allclose(out, expected, rtol=0, atol=1e-12)

    def test_corners_are_preserved(self):
        img = Rng(2).uniform((4, 6))
        out = resize_bilinear(img, 9, 11)
        assert out[0, 0] == pytest.approx(img[0, 0], abs=1e-15)
        assert out[0, -1] == pytest.approx(img[0, -1], abs=1e-15)
        assert out[-1, 0] == pytest.approx(img[-1, 0], abs=1e-15)
        assert out[-1, -1] == pytest.approx(img[-1, -1], abs=1e-15)


def usps_line(label, values):
    return " ".join([f"{label:.4f}"] + [f"{v:.4f}" for v in values])


class TestLoadUsps:
    def make_file(self, tmp_path, lines, name="digits.txt"):
        p = tmp_path / name
        p.write_text("\n".join(lines) + "\n")
        return p

    def test_parses_and_rescales(self, tmp_path):
        values = np.linspace(-1.0, 1.0, 256)
        p = self.make_file(tmp_path, [usps_line(6, values)])
        ds = load_usps(p, split="train")
        assert ds.labels.tolist() == [6]
        assert ds.images.shape == (1, 784)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        # corners survive the corner-aligned resize
        assert ds.images[0, 0] == pytest.approx((values[0] + 1) / 2, abs=1e-12)
        assert ds.images[0, -1] == pytest.approx((values[-1] + 1) / 2, abs=1e-12)

    def test_native_resolution_loadable(self, tmp_path):
        p = self.make_file(tmp_path, [usps_line(3, np.zeros(256))])
        ds = load_usps(p, target_side=16)
        assert ds.images.shape == (1, 256)
        assert (ds.images == 0.5).all()

    def test_gzip_transparent(self, tmp_path):
        p = tmp_path / "digits.txt.gz"
        write_gzip_text(p, usps_line(1, np.zeros(256)) + "\n")
        ds = load_usps(p)
        assert ds.labels.tolist() == [1]

    def test_wrong_field_count_reports_location(self, tmp_path):
        good = usps_line(1, np.zeros(256))
        bad = usps_line(2, np.zeros(255))
        p = self.make_file(tmp_path, [good, bad])
        with pytest.raises(DataError) as exc:
            load_usps(p)
        assert "2" in str(exc.value)   # line number of the bad record

    def test_non_numeric_field_rejected(self, tmp_path):
        line = usps_line(1, np.zeros(256)).replace("0.0000", "zero", 1)
        p = self.make_file(tmp_path, [line])
        with pytest.raises(DataError):
            load_usps(p)

    def test_out_of_range_label_rejected(self, tmp_path):
        p = self.make_file(tmp_path, [usps_line(12, np.zeros(256))])
        with pytest.raises(DataError):
            load_usps(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        with pytest.raises(DataError):
            load_usps(p)


class TestShuffleSplit:
    def test_same_seed_same_batches(self):
        a = shuffle_split(10, 3, Rng(5))
        b = shuffle_split(10, 3, Rng(5))
        assert len(a) == len(b) == 4
        for x, y in zip(a, b):
            assert (x == y).all()

    def test_partition_covers_all_indices_once(self):
        batches = shuffle_split(10, 3, Rng(6))
        assert sorted(np.concatenate(batches).tolist()) == list(range(10))
        assert [len(b) for b in batches] == [3, 3, 3, 1]

    def test_consecutive_epochs_differ(self):
        r = Rng(7)
        first = np.concatenate(shuffle_split(100, 10, r))
        second = np.concatenate(shuffle_split(100, 10, r))
        assert not (first == second).all()

    def test_accepts_dataset_and_array(self):
        ds = Dataset(images=np.zeros((5, 4)), labels=np.zeros(5, dtype=int), name="x")
        from_ds = shuffle_split(ds, 2, Rng(8))
        from_arr = shuffle_split(np.zeros((5, 4)), 2, Rng(8))
        for x, y in zip(from_ds, from_arr):
            assert (x == y).all()

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError):
            shuffle_split(10, 0, Rng(0))


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(images=np.zeros((2, 4)), labels=np.zeros(3, dtype=int), name="x")
        with pytest.raises(ValueError):
            Dataset(images=np.full((2, 4), 1.5), labels=np.zeros(2, dtype=int), name="x")

    def test_subset(self):
        ds = Dataset(images=Rng(0).uniform((10, 4)), labels=Rng(1).integers(0, 10, (10,)),
                     name="x", split="train")
        sub = ds.subset(4)
        assert len(sub) == 4
        assert (sub.images == ds.images[:4]).all()
