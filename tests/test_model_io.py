"""Binary model container: byte-exact round trips and corruption handling."""

import json
import struct

import numpy as np
import pytest

from conftest import flat_params, random_rbm
from mndbn.dbn import Dbn, attach_head
from mndbn.errors import DataError
from mndbn.model_io import (
    FORMAT_VERSION,
    MAGIC,
    load_dbn,
    load_model,
    load_rbm,
    save_dbn,
    save_rbm,
)


class TestRbmRoundTrip:
    def test_parameters_and_bytes_survive(self, tmp_path):
        m = random_rbm(0, 7, 5)
        p1 = tmp_path / "m1.mndbn"
        p2 = tmp_path / "m2.mndbn"
        save_rbm(m, p1, meta={"note": "x"})
        back, meta = load_rbm(p1)
        assert (flat_params(back) == flat_params(m)).all()
        assert meta == {"note": "x"}
        save_rbm(back, p2, meta=meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_is_inspectable_json(self, tmp_path):
        m = random_rbm(1, 3, 2)
        p = tmp_path / "m.mndbn"
        save_rbm(m, p)
        blob = p.read_bytes()
        assert blob.startswith(MAGIC)
        (hlen,) = struct.unpack("<I", blob[len(MAGIC):len(MAGIC) + 4])
        header = json.loads(blob[len(MAGIC) + 4:len(MAGIC) + 4 + hlen])
        assert header["kind"] == "rbm"
        assert header["version"] == FORMAT_VERSION
        assert (header["n_visible"], header["n_hidden"]) == (3, 2)


class TestDbnRoundTrip:
    def test_headless_stack(self, tmp_path):
        d = Dbn([random_rbm(2, 6, 4), random_rbm(3, 4, 3)])
        p1 = tmp_path / "d1.mndbn"
        p2 = tmp_path / "d2.mndbn"
        save_dbn(d, p1)
        back, meta = load_dbn(p1)
        assert back.head is None
        assert len(back.layers) == 2
        for a, b in zip(back.layers, d.layers):
            assert (flat_params(a) == flat_params(b)).all()
        save_dbn(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_stack_with_head(self, tmp_path):
        d = attach_head(Dbn([random_rbm(4, 6, 4)]), 10)
        d.head.w_out[:] = np.arange(40, dtype=float).reshape(4, 10)
        d.head.b_out[:] = np.arange(10, dtype=float)
        p1 = tmp_path / "d1.mndbn"
        p2 = tmp_path / "d2.mndbn"
        save_dbn(d, p1, meta={"dataset": "synthetic"})
        back, meta = load_dbn(p1)
        assert meta == {"dataset": "synthetic"}
        assert (back.head.w_out == d.head.w_out).all()
        assert (back.head.b_out == d.head.b_out).all()
        save_dbn(back, p2, meta=meta)
        assert p1.read_bytes() == p2.read_bytes()


class TestLoadModelDispatch:
    def test_dispatches_on_kind(self, tmp_path):
        from mndbn.dbn import Dbn as DbnType
        from mndbn.rbm import Rbm as RbmType
        pr = tmp_path / "r.mndbn"
        pd = tmp_path / "d.mndbn"
        save_rbm(random_rbm(5, 3, 2), pr)
        save_dbn(Dbn([random_rbm(6, 3, 2)]), pd)
        mr, _ = load_model(pr)
        md, _ = load_model(pd)
        assert isinstance(mr, RbmType)
        assert isinstance(md, DbnType)

    def test_unknown_kind_rejected(self, tmp_path):
        header = json.dumps({"kind": "mystery", "version": 1}).encode()
        p = tmp_path / "x.mndbn"
        p.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
        with pytest.raises(DataError):
            load_model(p)


class TestCorruption:
    def good_bytes(self, tmp_path):
        p = tmp_path / "good.mndbn"
        save_rbm(random_rbm(7, 3, 2), p)
        return p.read_bytes()

    def test_short_file(self, tmp_path):
        p = tmp_path / "short.mndbn"
        p.write_bytes(b"MN")
        with pytest.raises(DataError):
            load_rbm(p)

    def test_bad_magic(self, tmp_path):
        blob = self.good_bytes(tmp_path)
        p = tmp_path / "bad.mndbn"
        p.write_bytes(b"XXXXXX" + blob[6:])
        with pytest.raises(DataError):
            load_rbm(p)

    def test_truncated_header(self, tmp_path):
        blob = self.good_bytes(tmp_path)
        p = tmp_path / "bad.mndbn"
        p.write_bytes(blob[:14])
        with pytest.raises(DataError):
            load_rbm(p)

    def test_corrupt_header_json(self, tmp_path):
        header = b"{not json"
        p = tmp_path / "bad.mndbn"
        p.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
        with pytest.raises(DataError):
            load_rbm(p)

    def test_truncated_payload(self, tmp_path):
        blob = self.good_bytes(tmp_path)
        p = tmp_path / "bad.mndbn"
        p.write_bytes(blob[:-8])
        with pytest.raises(DataError):
            load_rbm(p)

    def test_trailing_garbage(self, tmp_path):
        blob = self.good_bytes(tmp_path)
        p = tmp_path / "bad.mndbn"
        p.write_bytes(blob + b"\x00" * 8)
        with pytest.raises(DataError):
            load_rbm(p)

    @pytest.mark.parametrize("header, n_floats", [
        ([1, 2], 0),                                            # not an object
        ("rbm", 0),
        ({"kind": "dbn", "version": 1}, 11),                    # no layers
        ({"kind": "dbn", "version": 1, "layers": []}, 0),
        ({"kind": "dbn", "version": 1, "layers": [3]}, 11),
        ({"kind": "rbm", "version": 1, "n_visible": 3}, 11),    # missing shape
        ({"kind": "rbm", "version": 1, "n_visible": -3, "n_hidden": 2}, 11),
        ({"kind": "rbm", "version": 1, "n_visible": 0, "n_hidden": 2}, 2),
        ({"kind": "rbm", "version": 1, "n_visible": "3", "n_hidden": 2}, 11),
        ({"kind": "rbm", "version": 1, "n_visible": 3.0, "n_hidden": 2}, 11),
        ({"kind": "rbm", "version": 1, "n_visible": True, "n_hidden": 2}, 5),
        ({"kind": "dbn", "version": 1, "layers": [{"n_visible": 3, "n_hidden": 2}],
          "head": {"n_features": 2}}, 11),
        ({"kind": "dbn", "version": 1, "layers": [{"n_visible": 3, "n_hidden": 2}],
          "head": {"n_features": 3, "n_classes": 2}}, 19),     # head does not fit
        ({"kind": "dbn", "version": 1, "layers": [{"n_visible": 3, "n_hidden": 2},
                                                   {"n_visible": 4, "n_hidden": 2}]}, 25),
        ({"kind": "rbm", "version": 1, "n_visible": 3, "n_hidden": 2, "meta": []}, 11),
        ({"kind": "rbm", "version": 9, "n_visible": 3, "n_hidden": 2}, 11),    # unknown version
        ({"kind": "rbm", "version": 0, "n_visible": 3, "n_hidden": 2}, 11),
        ({"kind": "rbm", "n_visible": 3, "n_hidden": 2}, 11),
        ({"kind": "rbm", "version": "1", "n_visible": 3, "n_hidden": 2}, 11),
        ({"kind": "rbm", "version": 1.0, "n_visible": 3, "n_hidden": 2}, 11),
        ({"kind": "rbm", "version": True, "n_visible": 3, "n_hidden": 2}, 11),
    ])
    def test_malformed_header(self, tmp_path, header, n_floats):
        # Each payload holds as many floats as the header's shapes call for,
        # where they are readable, so the header alone is at fault.
        blob = json.dumps(header).encode()
        p = tmp_path / "bad.mndbn"
        p.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + b"\x00" * (8 * n_floats))
        with pytest.raises(DataError):
            load_model(p)
