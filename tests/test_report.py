"""Reporting artifacts: weight tiles, activation histograms, results tables."""

import csv

import numpy as np
import pytest

from conftest import random_rbm
from mndbn.core import Rng
from mndbn.dbn import Dbn
from mndbn.errors import ConfigError
from mndbn.rbm import Rbm
from mndbn.report import (
    HISTOGRAM_COLUMNS,
    REFERENCE_RESULTS,
    RunRecord,
    TABLE_COLUMNS,
    activation_histogram,
    read_pgm,
    results_table,
    weight_tiles,
)


def zero_rbm(n_visible, n_hidden):
    return Rbm(w=np.zeros((n_visible, n_hidden)), b_vis=np.zeros(n_visible),
               a_hid=np.zeros(n_hidden))


class TestWeightTiles:
    def test_zero_weights_render_mid_gray(self, tmp_path):
        p = tmp_path / "tiles.pgm"
        canvas = weight_tiles(zero_rbm(16, 4), (2, 2), p)
        assert canvas.shape == (8, 8)
        assert (canvas == 127).all()
        assert (read_pgm(p) == canvas).all()

    def test_one_hot_column_is_single_white_pixel(self, tmp_path):
        m = zero_rbm(16, 1)
        m.w[5, 0] = 3.0
        canvas = weight_tiles(m, (1, 1), tmp_path / "t.pgm")
        assert canvas.shape == (4, 4)
        assert canvas.ravel()[5] == 255
        assert (np.delete(canvas.ravel(), 5) == 0).all()

    def test_canvas_dimensions_match_grid(self, tmp_path):
        m = random_rbm(0, 784, 100, std=0.1)
        p = tmp_path / "t.pgm"
        canvas = weight_tiles(m, (10, 10), p)
        assert canvas.shape == (280, 280)
        reloaded = read_pgm(p)
        assert reloaded.shape == (280, 280)
        assert (reloaded == canvas).all()

    def test_each_tile_spans_full_dynamic_range(self, tmp_path):
        m = random_rbm(1, 16, 6, std=0.5)
        canvas = weight_tiles(m, (2, 3), tmp_path / "t.pgm")
        for r in range(2):
            for c in range(3):
                tile = canvas[4 * r:4 * (r + 1), 4 * c:4 * (c + 1)]
                assert tile.min() == 0 and tile.max() == 255

    def test_non_square_visible_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            weight_tiles(zero_rbm(15, 4), (2, 2), tmp_path / "t.pgm")

    def test_grid_larger_than_layer_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            weight_tiles(zero_rbm(16, 3), (2, 2), tmp_path / "t.pgm")
        with pytest.raises(ValueError):
            weight_tiles(zero_rbm(16, 3), (0, 2), tmp_path / "t.pgm")


class TestActivationHistogram:
    def test_zero_model_mass_in_central_bin(self, tmp_path):
        m = zero_rbm(4, 6)
        batch = Rng(0).uniform((30, 4))
        counts, edges = activation_histogram(Dbn([m]), batch, 20, tmp_path / "h.csv")
        assert counts.sum() == 6
        bin_of_half = np.searchsorted(edges, 0.5, side="right") - 1
        assert counts[bin_of_half] == 6
        assert (np.delete(counts, bin_of_half) == 0).all()

    def test_counts_sum_to_hidden_units(self, tmp_path):
        m = random_rbm(2, 5, 9)
        counts, edges = activation_histogram(Dbn([m]), Rng(3).uniform((40, 5)), 10,
                                             tmp_path / "h.csv")
        assert counts.sum() == 9
        assert edges[0] == 0.0 and edges[-1] == 1.0

    def test_dbn_uses_top_layer_activations(self, tmp_path):
        d = Dbn([zero_rbm(4, 3), zero_rbm(3, 2)])
        counts, _ = activation_histogram(d, Rng(4).uniform((10, 4)), 4, tmp_path / "h.csv")
        assert counts.sum() == 2

    def test_csv_layout(self, tmp_path):
        p = tmp_path / "h.csv"
        activation_histogram(Dbn([zero_rbm(4, 3)]), np.ones((5, 4)), 5, p)
        with open(p) as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == HISTOGRAM_COLUMNS
        assert len(rows) == 6
        assert sum(int(r[2]) for r in rows[1:]) == 3

    def test_empty_batch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            activation_histogram(Dbn([zero_rbm(4, 3)]), np.zeros((0, 4)), 5, tmp_path / "h.csv")

    def test_too_few_bins_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            activation_histogram(Dbn([zero_rbm(4, 3)]), np.ones((2, 4)), 1, tmp_path / "h.csv")


class TestResultsTable:
    def test_single_run_single_measured_row(self, tmp_path):
        rec = RunRecord(architecture="dbn(100-100)", dataset="synthetic",
                        accuracy_pct=97.5, wall_seconds=7200.0)
        csv_path = tmp_path / "t.csv"
        txt_path = tmp_path / "t.txt"
        rows = results_table([rec], csv_path, txt_path)
        measured = [r for r in rows if r[4] == "measured"]
        assert len(measured) == 1
        assert measured[0][:4] == ("dbn(100-100)", "synthetic", "97.50", "2.00")
        with open(csv_path) as fh:
            parsed = list(csv.reader(fh))
        assert tuple(parsed[0]) == TABLE_COLUMNS
        assert len(parsed) == 1 + 1 + len(REFERENCE_RESULTS)

    def test_reference_rows_include_published_dbn_mnist(self, tmp_path):
        rows = results_table([], tmp_path / "t.csv", tmp_path / "t.txt")
        lookup = {(r[0], r[1]): r for r in rows}
        assert lookup[("dbn", "mnist")][2] == "98.83"
        assert lookup[("dbn", "usps")][2] == "94.85"
        assert lookup[("dbn", "rimes")][3] == ""   # no published hours

    def test_reference_rows_suppressible(self, tmp_path):
        rows = results_table([], tmp_path / "t.csv", tmp_path / "t.txt",
                             include_reference=False)
        assert rows == []

    def test_text_table_is_aligned(self, tmp_path):
        rec = RunRecord(architecture="rbm(64-10)", dataset="synthetic",
                        accuracy_pct=88.0, wall_seconds=36.0)
        txt_path = tmp_path / "t.txt"
        results_table([rec], tmp_path / "t.csv", txt_path)
        lines = txt_path.read_text().splitlines()
        assert lines[0].startswith("architecture")
        assert set(lines[1]) <= {"-", " "}
        assert any("rbm(64-10)" in line for line in lines[2:])


class _FailingFile:
    """A file opened for writing whose first write puts down half of its
    data and then fails, as a full disk would."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)


class TestAtomicOutputs:
    """A write that fails part-way leaves the old file whole and no
    temporary file beside it."""

    OUTPUTS = {
        "tiles": (lambda d: weight_tiles(random_rbm(1, 16, 4), (2, 2), d / "out.pgm"), 1),
        "histogram": (lambda d: activation_histogram(
            Dbn([random_rbm(2, 4, 6)]), Rng(3).uniform((8, 4)), 5, d / "out.csv"), 1),
        "results-csv": (lambda d: results_table([], d / "out.csv", d / "t.txt"), 1),
        "results-txt": (lambda d: results_table([], d / "t.csv", d / "out.txt"), 2),
    }

    @pytest.mark.parametrize("output", sorted(OUTPUTS))
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, output):
        write, failing_open = self.OUTPUTS[output]
        write(tmp_path)
        target = next(p for p in tmp_path.iterdir() if p.stem == "out")
        old = target.read_bytes()
        before = sorted(p.name for p in tmp_path.iterdir())
        real_open = open
        opened = []

        def open_failing(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            if "w" not in mode and "x" not in mode:
                return fh
            opened.append(path)
            return _FailingFile(fh) if len(opened) == failing_open else fh

        monkeypatch.setattr("builtins.open", open_failing)
        with pytest.raises(OSError, match="No space left"):
            write(tmp_path)
        monkeypatch.undo()
        assert target.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == before
