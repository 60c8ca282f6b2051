"""Model container format.

A file is: the 6-byte magic "MNDBN1", a little-endian uint32 header
length, a compact JSON header with sorted keys, then the raw parameter
payload as little-endian float64 in a fixed order: each layer's w
(row-major, visible rows), b_vis and a_hid, bottom-up, then the head's
w_out (row-major) and b_out when a head is present. There is one kind,
"dbn": save_dbn writes it and load_dbn reads only it.

Because the header is canonical JSON and the payload is raw bits,
save/load round-trips are byte-identical. save_dbn replaces its file
atomically: an interrupted save leaves the old file whole.
"""
from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .core import atomic_write, require_finite
from .dbn import Dbn, SoftmaxLayer
from .errors import DataError, NumericError
from .rbm import Rbm

MAGIC = b"MNDBN1"
FORMAT_VERSION = 1


def _write(path, header: dict, arrays) -> None:
    """Magic, header length, canonical JSON header, then each array's raw
    little-endian float64 bytes in the order given, written through
    core.atomic_write so that path is replaced whole or not at all."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8"))


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


def _read_header(fh, path) -> tuple[dict, int]:
    """The JSON header of an open model file, and the number of bytes that
    follow it; fh is left at the payload. Each length is checked against
    the file's size before it is read."""
    size = os.fstat(fh.fileno()).st_size
    start = len(MAGIC) + 4
    lead = fh.read(start)
    if len(lead) < start:
        raise DataError(f"{path}: file too short to hold a header")
    if lead[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: bad magic {lead[:len(MAGIC)]!r} (expected {MAGIC!r})")
    (header_len,) = struct.unpack("<I", lead[len(MAGIC) :])
    blob = fh.read(header_len) if size >= start + header_len else b""
    if len(blob) < header_len:
        raise DataError(f"{path}: truncated header (need {header_len} bytes)")
    try:
        header = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep, too long an int
        raise DataError(f"{path}: unreadable header ({exc})") from exc
    if not isinstance(header, dict):
        raise DataError(f"{path}: header is not a JSON object")
    return header, size - start - header_len


def _dim(spec, key: str, path) -> int:
    value = spec.get(key) if isinstance(spec, dict) else None
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise DataError(f"{path}: header field {key!r} must be a positive integer, got {value!r}")
    return value


def _shapes(header: dict, path) -> tuple[list, int, bool]:
    """The payload's array shapes in file order, the number of feature
    layers and whether a head follows, from a header checked field by
    field."""
    found = header.get("kind")
    if found != "dbn":
        raise DataError(f"{path}: expected a model file, found kind {found!r}")
    version = header.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise DataError(f"{path}: format version {version!r} is not {FORMAT_VERSION}")
    if not isinstance(header.get("meta", {}), dict):
        raise DataError(f"{path}: header field 'meta' must be an object")
    specs = header.get("layers")
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
    return shapes, len(specs), head is not None


def load_dbn(path) -> tuple[Dbn, dict]:
    """Read a model file that save_dbn wrote; returns (network, meta).

    The header must be an object of kind "dbn" (the retired "rbm" kind is
    a DataError too) and format version FORMAT_VERSION whose shapes are
    positive integers, and the payload must hold exactly the arrays those
    shapes call for, every value finite. The payload is read straight into
    the one float array that the returned model's arrays view, so loading
    holds it once.
    """
    try:
        with open(path, "rb") as fh:
            header, payload_len = _read_header(fh, path)
            shapes, n_layers, has_head = _shapes(header, path)
            need = 8 * sum(math.prod(s) for s in shapes)
            if payload_len != need:
                raise DataError(
                    f"{path}: payload holds {payload_len} bytes, the header needs {need}"
                )
            flat = np.empty(need // 8, dtype="<f8")
            if fh.readinto(flat) != need:
                raise DataError(f"{path}: the payload ended early")
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc})") from exc
    flat = flat.astype(float, copy=False)
    try:
        require_finite("the parameters", flat)
    except NumericError as exc:
        raise DataError(f"{path}: the parameters hold NaN or infinite values") from exc
    arrays, pos = [], 0
    for s in shapes:
        size = math.prod(s)
        arrays.append(flat[pos : pos + size].reshape(s))
        pos += size
    try:
        layers = [Rbm(*arrays[k : k + 3]) for k in range(0, 3 * n_layers, 3)]
        head = SoftmaxLayer(*arrays[-2:]) if has_head else None
        return Dbn(layers, head), header.get("meta", {})
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
