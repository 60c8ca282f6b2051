"""Model container format.

A file is: the 6-byte magic "MNDBN1", a little-endian uint32 header
length, a compact JSON header with sorted keys, then the raw parameter
payload as little-endian float64 in a fixed order: each layer's w
(row-major, visible rows), b_vis and a_hid, bottom-up, then the head's
w_out (row-major) and b_out when a head is present. save_dbn writes the
one kind, "dbn"; load_dbn also reads the older single-layer "rbm" kind,
whose header holds the shape at its top level.

Because the header is canonical JSON and the payload is raw bits,
save/load round-trips are byte-identical.
"""
from __future__ import annotations

import json
import math
import struct

import numpy as np

from .dbn import Dbn, SoftmaxLayer
from .errors import DataError
from .rbm import Rbm

MAGIC = b"MNDBN1"
FORMAT_VERSION = 1


def _write(path, header: dict, arrays) -> None:
    """Magic, header length, canonical JSON header, then each array's raw
    little-endian float64 bytes in the order given."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def save_dbn(d: Dbn, path, meta: dict | None = None) -> None:
    header = {
        "kind": "dbn",
        "version": FORMAT_VERSION,
        "layers": [{"n_visible": m.n_visible, "n_hidden": m.n_hidden} for m in d.layers],
        "head": None
        if d.head is None
        else {"n_features": d.head.w_out.shape[0], "n_classes": d.head.n_classes},
        "meta": meta or {},
    }
    arrays = [a for m in d.layers for a in (m.w, m.b_vis, m.a_hid)]
    if d.head is not None:
        arrays += [d.head.w_out, d.head.b_out]
    _write(path, header, arrays)


def _read_header(path) -> tuple[dict, bytes]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"{path}: cannot open ({exc})") from exc
    if len(raw) < len(MAGIC) + 4:
        raise DataError(f"{path}: file too short to hold a header")
    if raw[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: bad magic {raw[:len(MAGIC)]!r} (expected {MAGIC!r})")
    (header_len,) = struct.unpack("<I", raw[len(MAGIC) : len(MAGIC) + 4])
    start = len(MAGIC) + 4
    if len(raw) < start + header_len:
        raise DataError(f"{path}: truncated header (need {header_len} bytes)")
    try:
        header = json.loads(raw[start : start + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep, too long an int
        raise DataError(f"{path}: unreadable header ({exc})") from exc
    if not isinstance(header, dict):
        raise DataError(f"{path}: header is not a JSON object")
    return header, raw[start + header_len :]


def _dim(spec, key: str, path) -> int:
    value = spec.get(key) if isinstance(spec, dict) else None
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise DataError(f"{path}: header field {key!r} must be a positive integer, got {value!r}")
    return value


def load_dbn(path) -> tuple[Dbn, dict]:
    """Read a model file of either kind; returns (network, meta). A legacy
    rbm file is a one-layer network with no head.

    The header must be an object of format version FORMAT_VERSION whose
    shapes are positive integers, and the payload must hold exactly the
    arrays those shapes call for.
    """
    header, payload = _read_header(path)
    found = header.get("kind")
    if found not in ("rbm", "dbn"):
        raise DataError(f"{path}: expected a model file, found kind {found!r}")
    version = header.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise DataError(f"{path}: format version {version!r} is not {FORMAT_VERSION}")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise DataError(f"{path}: header field 'meta' must be an object")
    specs = [header] if found == "rbm" else header.get("layers")
    if not isinstance(specs, list) or not specs:
        raise DataError(f"{path}: header field 'layers' must be a non-empty list")
    shapes = []
    for spec in specs:
        i, j = _dim(spec, "n_visible", path), _dim(spec, "n_hidden", path)
        shapes += [(i, j), (i,), (j,)]
    head = header.get("head")
    if head is not None:
        f, c = _dim(head, "n_features", path), _dim(head, "n_classes", path)
        shapes += [(f, c), (c,)]
    need = 8 * sum(math.prod(s) for s in shapes)
    if len(payload) != need:
        raise DataError(f"{path}: payload holds {len(payload)} bytes, the header needs {need}")
    flat = np.frombuffer(payload, dtype="<f8").astype(float)
    arrays, pos = [], 0
    for s in shapes:
        size = math.prod(s)
        arrays.append(flat[pos : pos + size].reshape(s))
        pos += size
    try:
        layers = [Rbm(*arrays[k : k + 3]) for k in range(0, 3 * len(specs), 3)]
        return Dbn(layers, SoftmaxLayer(*arrays[-2:]) if head is not None else None), meta
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
