"""Shared helpers for the test suite."""

import gzip
import json
import os
import struct
from pathlib import Path

import numpy as np

from mndbn.core import Rng
from mndbn.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC
from mndbn.groups import group_norms
from mndbn.rbm import Rbm

# Verdict lines recorded by the acceptance tests, echoed after the run so
# they are visible even though pytest captures per-test stdout.
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.line(line)

# Candidate file names for the USPS text corpus inside MNDBN_DATA_DIR.
USPS_TRAIN_NAMES = ("zip.train", "zip.train.gz", "usps.train", "usps.train.gz")
USPS_TEST_NAMES = ("zip.test", "zip.test.gz", "usps.test", "usps.test.gz")


def random_rbm(seed, n_visible, n_hidden, std=1.0):
    r = Rng(seed)
    return Rbm(
        w=r.normal((n_visible, n_hidden), std=std),
        b_vis=r.normal((n_visible,), std=std),
        a_hid=r.normal((n_hidden,), std=std),
    )


def _find(dirpath, names):
    for name in names:
        p = dirpath / name
        if p.is_file():
            return p
    return None


def usps_paths():
    """Locate the USPS train/test files, or return None with a reason.

    Set MNDBN_DATA_DIR to a directory containing zip.train / zip.test
    (optionally gzipped) to enable the real-data acceptance tests.
    """
    root = os.environ.get("MNDBN_DATA_DIR")
    if not root:
        return None, "MNDBN_DATA_DIR is not set; USPS files unavailable"
    dirpath = Path(root)
    if not dirpath.is_dir():
        return None, f"MNDBN_DATA_DIR={root} is not a directory"
    train = _find(dirpath, USPS_TRAIN_NAMES)
    test = _find(dirpath, USPS_TEST_NAMES)
    if train is None or test is None:
        return None, (
            f"MNDBN_DATA_DIR={root} lacks USPS files "
            f"(looked for {USPS_TRAIN_NAMES} and {USPS_TEST_NAMES})"
        )
    return (train, test), ""


def src_env():
    """The environment for a child Python process that imports mndbn from
    this checkout's src/, ahead of any PYTHONPATH already set."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def write_gzip_text(path, text):
    with gzip.open(path, "wt") as fh:
        fh.write(text)


def idx_bytes(magic, *sizes, payload=b""):
    """An IDX file: the magic, one big-endian uint32 per size, then payload."""
    return struct.pack(f">{1 + len(sizes)}I", magic, *sizes) + payload


def write_idx(dataset, images_path, labels_path):
    """Write a dataset of square images as an IDX pair (pixels quantized to
    bytes), the layout load_idx reads."""
    n, d = dataset.images.shape
    side = round(d**0.5)
    assert side * side == d, f"cannot infer square image side from {d} pixels"
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, side, side))
        fh.write(np.rint(dataset.images * 255.0).astype(np.uint8).tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        fh.write(dataset.labels.astype(np.uint8).tobytes())


def flat_params(m):
    return np.concatenate([m.w.ravel(), m.b_vis, m.a_hid])


def write_legacy_rbm(m, path, meta=None):
    """A model file of the older single-layer "rbm" kind, which load_dbn
    still reads: the shape at the header's top level, then w, b_vis, a_hid."""
    header = {"kind": "rbm", "version": 1, "n_visible": m.n_visible, "n_hidden": m.n_hidden,
              "meta": meta or {}}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                       for a in (m.w, m.b_vis, m.a_hid))
    Path(path).write_bytes(b"MNDBN1" + struct.pack("<I", len(blob)) + blob + payload)


# Group layouts (units, group size, overlap) on which the index-table
# kernels must reproduce the augmented-axis reference bit for bit.
ORACLE_LAYOUTS = [
    (6, 4, 0.5), (100, 20, 0.2), (100, 50, 0.5), (2000, 10, 0.5), (2000, 20, 0.25),
    (100, 10, 0.8), (30, 10, 0.9), (500, 10, 0.0), (12, 3, 0.0), (40, 1, 0.0),
]


def reference_group_norm_sums(h, p):
    """Each row's group norms added over the groups, with the groups moved
    to the outer axis of one contiguous (num_groups, rows) array, so numpy
    adds them one after another."""
    return np.ascontiguousarray(np.moveaxis(group_norms(h, p), -1, 0)).sum(axis=0)
