"""Binary model container: byte-exact round trips and corruption handling."""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import flat_params, random_rbm, write_legacy_rbm
from mndbn.dbn import Dbn, SoftmaxLayer, attach_head
from mndbn.rbm import Rbm
from mndbn.errors import DataError
from mndbn.model_io import (
    FORMAT_VERSION,
    MAGIC,
    load_dbn,
    save_dbn,
)


class TestRbmRoundTrip:
    """One feature layer is a one-layer stack, written by save_dbn."""

    def test_parameters_and_bytes_survive(self, tmp_path):
        m = random_rbm(0, 7, 5)
        p1 = tmp_path / "m1.mndbn"
        p2 = tmp_path / "m2.mndbn"
        save_dbn(Dbn([m]), p1, meta={"note": "x"})
        d, meta = load_dbn(p1)
        assert len(d.layers) == 1 and d.head is None
        assert (flat_params(d.layers[0]) == flat_params(m)).all()
        assert meta == {"note": "x"}
        save_dbn(d, p2, meta=meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_is_inspectable_json(self, tmp_path):
        p = tmp_path / "m.mndbn"
        save_dbn(Dbn([random_rbm(1, 3, 2)]), p)
        blob = p.read_bytes()
        assert blob.startswith(MAGIC)
        (hlen,) = struct.unpack("<I", blob[len(MAGIC):len(MAGIC) + 4])
        header = json.loads(blob[len(MAGIC) + 4:len(MAGIC) + 4 + hlen])
        assert header["kind"] == "dbn"
        assert header["version"] == FORMAT_VERSION
        assert header["layers"] == [{"n_visible": 3, "n_hidden": 2}]
        assert header["head"] is None


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
    """load_dbn reads both kinds, the legacy rbm one included; the header's
    kind picks the layout."""

    def test_dispatches_on_kind(self, tmp_path):
        pr = tmp_path / "r.mndbn"
        pd = tmp_path / "d.mndbn"
        write_legacy_rbm(random_rbm(5, 3, 2), pr, meta={"k": 1})
        d = attach_head(Dbn([random_rbm(6, 3, 2)]), 4)
        save_dbn(d, pd)
        mr, meta_r = load_dbn(pr)
        md, _ = load_dbn(pd)
        assert isinstance(mr, Dbn) and isinstance(md, Dbn)
        assert meta_r == {"k": 1}
        assert (md.head.w_out == d.head.w_out).all()

    def test_rbm_file_is_a_headless_one_layer_network(self, tmp_path):
        # The helper's bytes are pinned to what the removed single-layer
        # writer made, so older rbm files keep loading.
        m = random_rbm(5, 3, 2)
        p = tmp_path / "r.mndbn"
        write_legacy_rbm(m, p, meta={"k": 1})
        assert hashlib.sha256(p.read_bytes()).hexdigest() == (
            "15eeebee5777bc76dd2d1e93907fda7712f3cccf309ae0a71041144b997da0b6")
        d, meta = load_dbn(p)
        assert isinstance(d, Dbn) and len(d.layers) == 1 and d.head is None
        assert meta == {"k": 1}
        for name in ("w", "b_vis", "a_hid"):
            assert np.array_equal(getattr(d.layers[0], name), getattr(m, name))

    def test_unknown_kind_rejected(self, tmp_path):
        header = json.dumps({"kind": "mystery", "version": 1}).encode()
        p = tmp_path / "x.mndbn"
        p.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
        with pytest.raises(DataError, match="expected a model file, found kind 'mystery'"):
            load_dbn(p)


class TestCorruption:
    def good_bytes(self, tmp_path):
        p = tmp_path / "good.mndbn"
        save_dbn(Dbn([random_rbm(7, 3, 2)]), p)
        return p.read_bytes()

    def test_short_file(self, tmp_path):
        p = tmp_path / "short.mndbn"
        p.write_bytes(b"MN")
        with pytest.raises(DataError):
            load_dbn(p)

    def test_bad_magic(self, tmp_path):
        blob = self.good_bytes(tmp_path)
        p = tmp_path / "bad.mndbn"
        p.write_bytes(b"XXXXXX" + blob[6:])
        with pytest.raises(DataError):
            load_dbn(p)

    def test_truncated_header(self, tmp_path):
        blob = self.good_bytes(tmp_path)
        p = tmp_path / "bad.mndbn"
        p.write_bytes(blob[:14])
        with pytest.raises(DataError):
            load_dbn(p)

    def test_corrupt_header_json(self, tmp_path):
        header = b"{not json"
        p = tmp_path / "bad.mndbn"
        p.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
        with pytest.raises(DataError):
            load_dbn(p)

    def test_truncated_payload(self, tmp_path):
        blob = self.good_bytes(tmp_path)
        p = tmp_path / "bad.mndbn"
        p.write_bytes(blob[:-8])
        with pytest.raises(DataError):
            load_dbn(p)

    def test_trailing_garbage(self, tmp_path):
        blob = self.good_bytes(tmp_path)
        p = tmp_path / "bad.mndbn"
        p.write_bytes(blob + b"\x00" * 8)
        with pytest.raises(DataError):
            load_dbn(p)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameter(self, tmp_path, value):
        # training never writes such a file; the last float is a hidden bias
        blob = self.good_bytes(tmp_path)
        p = tmp_path / "bad.mndbn"
        p.write_bytes(blob[:-8] + struct.pack("<d", value))
        with pytest.raises(DataError, match="NaN or infinite"):
            load_dbn(p)

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
        *[({"kind": "dbn", "version": 1, "layers": [{"n_visible": 3, "n_hidden": 2}],
            "head": head}, 11) for head in ({}, False, 0, [])],     # falsy, yet not null
        pytest.param(b"[" * 100000, 0, id="nested-too-deep"),
        pytest.param(b'{"kind": "rbm", "version": 1, "n_visible": ' + b"3" * 5000 + b"}", 0,
                     id="int-too-long"),
    ])
    def test_malformed_header(self, tmp_path, header, n_floats):
        # Each payload holds as many floats as the header's shapes call for,
        # where they are readable, so the header alone is at fault.
        blob = header if isinstance(header, bytes) else json.dumps(header).encode()
        p = tmp_path / "bad.mndbn"
        p.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + b"\x00" * (8 * n_floats))
        with pytest.raises(DataError):
            load_dbn(p)


def _frame(header: bytes, payload: bytes) -> bytes:
    return MAGIC + struct.pack("<I", len(header)) + header + payload


_DIM = st.integers(-1, 4)
_JSON = st.recursive(
    st.none() | st.booleans() | _DIM | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=8,
)
_FIELDS = ["kind", "version", "layers", "head", "meta", "n_visible", "n_hidden", "n_features",
           "n_classes"]


@st.composite
def _near_valid(draw):
    """A well-formed file of either kind, then maybe one header field
    replaced or dropped and maybe the payload cut or padded."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    kind = draw(st.sampled_from(["rbm", "dbn"]))
    pairs = list(zip(sizes, sizes[1:]))
    n_floats = sum(i * j + i + j for i, j in pairs)
    if kind == "rbm":
        header = {"kind": "rbm", "version": 1, "n_visible": sizes[0], "n_hidden": sizes[1]}
        n_floats = sizes[0] * sizes[1] + sizes[0] + sizes[1]
    else:
        header = {"kind": "dbn", "version": 1,
                  "layers": [{"n_visible": i, "n_hidden": j} for i, j in pairs], "head": None}
        if draw(st.booleans()):
            c = draw(st.integers(1, 4))
            header["head"] = {"n_features": sizes[-1], "n_classes": c}
            n_floats += sizes[-1] * c + c
    if draw(st.booleans()):
        field = draw(st.sampled_from(_FIELDS))
        if draw(st.booleans()):
            header.pop(field, None)
        else:
            header[field] = draw(_JSON)
    payload = draw(st.binary(min_size=8 * n_floats, max_size=8 * n_floats))
    payload = payload[: draw(st.integers(0, len(payload)))] if draw(st.booleans()) else payload
    return _frame(json.dumps(header).encode(), payload + draw(st.binary(max_size=9)))


_ANY_BYTES = st.one_of(
    st.binary(max_size=64),
    st.builds(_frame, st.binary(max_size=32), st.binary(max_size=64)),
    st.builds(_frame, st.dictionaries(st.sampled_from(_FIELDS), _JSON, max_size=5).map(
        lambda h: json.dumps(h).encode()), st.binary(max_size=64)),
    _near_valid(),
)


class TestAnyBytes:
    @settings(derandomize=True, database=None, max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(blob=_ANY_BYTES)
    def test_loads_as_a_model_or_raises_data_error(self, tmp_path, blob):
        p = tmp_path / "any.mndbn"
        p.write_bytes(blob)
        try:
            model, meta = load_dbn(p)
        except DataError:
            return
        assert isinstance(model, Dbn)
        assert isinstance(meta, dict)
        assert all(isinstance(m, Rbm) for m in model.layers)
        assert model.head is None or isinstance(model.head, SoftmaxLayer)
