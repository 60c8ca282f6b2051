"""One writer per file format: every CSV goes through `core.write_csv`
(the only module that imports `csv`), and `report.read_pgm` reads exactly
the PGM that `report.weight_tiles` writes (test_report round-trips it)."""

import ast
import csv
from pathlib import Path

import numpy as np
import pytest

from mndbn.core import write_csv
from mndbn.mixed_norm import EpochStats, write_training_log
from mndbn.report import read_pgm

SRC = Path(__file__).resolve().parents[1] / "src" / "mndbn"


def imported_modules(source: str) -> set:
    """Top-level names of every module imported anywhere in source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_checker_sees_every_import_form():
    source = "import csv as c\nfrom csv import writer\ndef f():\n    import io\nfrom . import core\n"
    assert imported_modules(source) == {"csv", "io"}


def test_csv_is_imported_only_by_core():
    importers = [path.stem for path in sorted(SRC.glob("*.py"))
                 if "csv" in imported_modules(path.read_text(encoding="utf-8"))]
    assert importers == ["core"]


def test_write_csv_writes_numpy_scalars_as_values_and_quotes_commas(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["x", "n", "note"], [[np.float64(0.5), np.int64(1), "a,b"], [0.1, 2, ""]])
    assert path.read_bytes() == b'x,n,note\n0.5,1,"a,b"\n0.1,2,\n'
    assert list(csv.reader(path.read_text().splitlines())) == [
        ["x", "n", "note"], ["0.5", "1", "a,b"], ["0.1", "2", ""]]


def test_training_log_writes_numpy_scalars_as_values(tmp_path):
    path = tmp_path / "log.csv"
    write_training_log(path, [EpochStats(np.int64(1), np.float64(0.5), 0.25, np.float64(3.0))])
    assert path.read_text() == ("epoch,recon_error,mean_hidden_activation,mixed_norm_value\n"
                                "1,0.5,0.25,3.0\n")


@pytest.mark.parametrize("blob", [
    b"",
    b"P5\n# made elsewhere\n2 2\n255\n\x00\x01\x02\x03",
    b"P5\n2 2\n255\n\x00\x01\x02",
    b"P5\n2 2\n255\n\x00\x01\x02\x03\x04",
    b"P5 2 2 255\n\x00\x01\x02\x03",
    b"P5\n2 2\n65535\n" + bytes(8),
    b"P2\n2 2\n255\n0 1 2 3\n",
], ids=["empty", "comment", "truncated", "trailing-byte", "one-line-header", "16-bit", "ascii"])
def test_read_pgm_rejects_what_weight_tiles_never_writes(tmp_path, blob):
    path = tmp_path / "bad.pgm"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match=f"^{path}: "):
        read_pgm(path)
