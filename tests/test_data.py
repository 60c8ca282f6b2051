"""Dataset ingestion: IDX bytes, USPS text, bilinear resize, batching."""

import dataclasses
import gzip
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import idx_bytes, write_gzip_text, write_idx
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
        with pytest.raises(DataError, match="label 12"):
            load_idx(ip, lp)

    def test_zero_pixel_images_rejected(self, tmp_path):
        ip, lp = write_pair(tmp_path, idx_images_bytes(6, 0, 4, []), idx_labels_bytes([1] * 6))
        with pytest.raises(DataError, match="0x4 images have no pixels") as err:
            load_idx(ip, lp)
        assert str(ip) in str(err.value)

    def test_write_then_load_round_trip(self, tmp_path):
        rng = Rng(0)
        quantized = np.rint(rng.uniform((6, 16)) * 255) / 255
        ds = Dataset(images=quantized, labels=rng.integers(0, 10, (6,)))
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

    @pytest.mark.parametrize("shape,out", [((16, 16), (28, 28)), ((16, 16), (9, 9)),
                                           ((1, 5), (3, 4)), ((5, 1), (2, 7)),
                                           ((4, 6), (1, 1)), ((3, 3), (3, 3))])
    def test_stack_matches_each_image_bit_for_bit(self, shape, out):
        stack = Rng(3).uniform((2, 3) + shape)
        whole = resize_bilinear(stack, *out)
        assert whole.shape == (2, 3) + out
        for idx in np.ndindex(2, 3):
            assert whole[idx].tobytes() == resize_bilinear(stack[idx], *out).tobytes()

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
        ds = load_usps(p)
        assert ds.labels.tolist() == [6]
        assert ds.images.shape == (1, 784)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        # corners survive the corner-aligned resize
        assert ds.images[0, 0] == pytest.approx((values[0] + 1) / 2, abs=1e-12)
        assert ds.images[0, -1] == pytest.approx((values[-1] + 1) / 2, abs=1e-12)

    def test_native_resolution_loadable(self, tmp_path):
        p = self.make_file(tmp_path, [usps_line(3, np.zeros(256))])
        ds = load_usps(p)
        assert ds.images.shape == (1, 784)
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

    def test_first_bad_line_is_reported(self, tmp_path):
        lines = [usps_line(1, np.zeros(256)), usps_line(12, np.zeros(256)),
                 usps_line(1, np.full(256, np.nan))]
        with pytest.raises(DataError, match=r"digits.txt:2: label"):
            load_usps(self.make_file(tmp_path, lines))
        with pytest.raises(DataError, match=r"digits.txt:2: non-finite"):
            load_usps(self.make_file(tmp_path, lines[::2]))

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

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError):
            shuffle_split(10, 0, Rng(0))


class TestDataset:
    def test_fields_are_images_and_labels(self):
        assert [f.name for f in dataclasses.fields(Dataset)] == ["images", "labels"]

    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(images=np.zeros((2, 4)), labels=np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            Dataset(images=np.full((2, 4), 1.5), labels=np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            Dataset(images=np.array([[np.nan, 0.5]]), labels=[0])

    @pytest.mark.parametrize("labels, message", [
        (3, r"labels of shape \(\) for 1 images"),
        (np.zeros((1, 1), dtype=int), r"labels of shape \(1, 1\) for 1 images"),
        ([0.5], r"labels must be integers"),
        ([np.nan], r"labels must be integers"),
        ([np.inf], r"labels must be integers"),
        ([10], r"labels must be integers in \[0, 10\)"),
    ], ids=["scalar", "column", "fraction", "nan", "inf", "out-of-range"])
    def test_one_integral_label_per_image(self, labels, message):
        # Checked before the int64 cast, which would truncate 0.5 to 0.
        with pytest.raises(ValueError, match=message):
            Dataset(images=np.zeros((1, 4)), labels=labels)

    def test_integral_labels_of_any_numeric_dtype_pass(self):
        for labels in ([1.0, 2.0], np.array([1, 2], dtype=np.uint8)):
            ds = Dataset(images=np.zeros((2, 4)), labels=labels)
            assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 2]

    def test_subset(self):
        ds = Dataset(images=Rng(0).uniform((10, 4)), labels=Rng(1).integers(0, 10, (10,)))
        sub = ds.subset(4)
        assert len(sub) == 4
        assert (sub.images == ds.images[:4]).all()


def _digest(ds):
    h = hashlib.sha256()
    for a in (ds.images, ds.labels):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _pinned_idx(tmp_path, gz):
    rng = np.random.default_rng(20)
    pixels = rng.integers(0, 256, (13, 7, 5), dtype=np.uint8)
    labels = rng.integers(0, 10, 13, dtype=np.uint8)
    blobs = [struct.pack(">IIII", 0x803, 13, 7, 5) + pixels.tobytes() + b"tail",
             struct.pack(">II", 0x801, 13) + labels.tobytes()]
    paths = [tmp_path / f"{name}.idx{'.gz' if gz else ''}" for name in ("images", "labels")]
    for p, blob in zip(paths, blobs):
        p.write_bytes(gzip.compress(blob, mtime=0) if gz else blob)
    return paths


def _pinned_usps(tmp_path, gz):
    rng = np.random.default_rng(21)
    lines = []
    for i in range(11):
        values = rng.uniform(-1.2, 1.2, 256)
        lines.append(" ".join([f"{rng.integers(0, 10)}.0000"] + [f"{v:.6f}" for v in values]))
        lines.append("" if i % 3 else " \t")
    text = "\n".join(lines[:6]) + "\r\n" + "\n".join(lines[6:]) + "\n"
    p = tmp_path / f"digits.txt{'.gz' if gz else ''}"
    p.write_bytes(gzip.compress(text.encode(), mtime=0) if gz else text.encode())
    return p


# sha256 prefixes of the loaded images and labels (dtype, shape and bytes),
# recorded before the loaders shared one file reader; gzip must not move them.
PINNED_IDX = "d6661920078b6097"
PINNED_USPS = {28: "172573e0c68c9c09"}


@pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzip"])
class TestPinnedBytes:
    def test_idx(self, tmp_path, gz):
        assert _digest(load_idx(*_pinned_idx(tmp_path, gz))) == PINNED_IDX

    @pytest.mark.parametrize("side", sorted(PINNED_USPS))
    def test_usps(self, tmp_path, gz, side):
        ds = load_usps(_pinned_usps(tmp_path, gz))
        assert len(ds) == 11
        assert _digest(ds) == PINNED_USPS[side]


def _framed_idx(magic, sizes, payload):
    return idx_bytes(magic, *sizes, payload=payload)


_SIZE = st.one_of(st.integers(0, 4), st.integers(0, 2**32 - 1))
_IDX_BYTES = st.one_of(
    st.binary(max_size=40),
    st.builds(_framed_idx, st.sampled_from([0x803, 0x801]),
              st.lists(_SIZE, min_size=0, max_size=3), st.binary(max_size=40)),
    st.builds(_framed_idx, st.just(0x803), st.lists(_SIZE, min_size=3, max_size=3),
              st.binary(max_size=40)),
    st.builds(_framed_idx, st.just(0x801), st.lists(_SIZE, min_size=1, max_size=1),
              st.binary(max_size=40)),
)
_USPS_FIELD = st.one_of(st.sampled_from(["0", "1", "-1", "9.5", "12", "nan", "inf", "1e999", "x"]),
                        st.floats().map(repr))


def _usps_line(label, fill, count, pos, odd):
    """A label then count copies of one value, one of them maybe replaced."""
    fields = [label] + [fill] * count
    fields[min(pos, count)] = odd
    return " ".join(fields)


_USPS_TEXT = st.one_of(
    st.text(max_size=60),
    st.lists(st.builds(_usps_line, _USPS_FIELD, _USPS_FIELD, st.integers(255, 257),
                       st.integers(0, 300), _USPS_FIELD),
             min_size=1, max_size=3).map("\n".join),
)
_SETTINGS = settings(derandomize=True, database=None, max_examples=300, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


def _write(path, blob, mode):
    """Write blob plain, gzipped under a .gz name, or as is under a .gz
    name ("bad.gz"); returns the path written."""
    if mode != "plain":
        path = path.with_name(path.name + ".gz")
    path.write_bytes(gzip.compress(blob) if mode == "gzip" else blob)
    return path


class TestAnyInput:
    """Every input loads or raises DataError: no other exception, and no
    allocation of a header's promised size (the framed sizes reach 2**32)."""

    @_SETTINGS
    @given(images=_IDX_BYTES, labels=_IDX_BYTES,
           gz=st.tuples(*[st.sampled_from(["plain", "gzip", "bad.gz"])] * 2))
    def test_idx_pair_loads_or_raises_data_error(self, tmp_path, images, labels, gz):
        ip = _write(tmp_path / "im.idx", images, gz[0])
        lp = _write(tmp_path / "lb.idx", labels, gz[1])
        try:
            ds = load_idx(ip, lp)
        except DataError:
            return
        assert ds.images.shape[0] == ds.labels.shape[0] and ds.images.size > 0

    @_SETTINGS
    @given(text=_USPS_TEXT, gz=st.sampled_from(["plain", "gzip"]))
    def test_usps_text_loads_or_raises_data_error(self, tmp_path, text, gz):
        p = _write(tmp_path / "digits.txt", text.encode("utf-8", "surrogatepass"), gz)
        try:
            ds = load_usps(p)
        except DataError:
            return
        assert ds.images.shape == (len(ds), 784)
        assert np.isfinite(ds.images).all()
