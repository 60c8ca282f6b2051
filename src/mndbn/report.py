"""Report artifacts: weight-tile images, activation histograms, results tables.

Images are binary PGM (P5) so they stay dependency-free and byte-auditable;
tabular outputs are CSV (core.write_csv) plus an aligned plain-text
rendering. Published full-scale reference results are embedded as
annotation rows so measured runs can be read side by side with them. Every
output replaces its old version atomically (core.atomic_write).
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .core import atomic_write, write_csv
from .dbn import Dbn, forward
from .errors import ConfigError
from .rbm import Rbm

TABLE_COLUMNS = ("run", "architecture", "dataset", "accuracy_pct", "cpu_hours", "source")
HISTOGRAM_COLUMNS = ("bin_low", "bin_high", "count")

# Published full-scale results (500-500-2000 stacks trained to completion on
# large hardware budgets): (architecture, dataset, accuracy %, cpu hours).
# Hours reported only as a lower bound in the source are stored as None.
REFERENCE_RESULTS = (
    ("dbn", "mnist", 98.83, 167.90),
    ("dbn", "rimes", 99.30, None),
    ("dbn", "usps", 94.85, 31.15),
    ("mn-dbn(5)", "mnist", 97.28, 62.14),
    ("mn-dbn(5)", "rimes", 99.24, 33.70),
    ("mn-dbn(5)", "usps", 92.90, 8.62),
    ("mn-dbn(10)", "mnist", 98.83, 66.10),
    ("mn-dbn(10)", "rimes", 99.33, 40.70),
    ("mn-dbn(10)", "usps", 94.70, 10.00),
    ("mn-dbn(20)", "mnist", 98.77, 70.10),
    ("mn-dbn(20)", "rimes", 99.38, 69.80),
    ("mn-dbn(20)", "usps", 94.65, 12.75),
    ("mn-dbn(100)", "mnist", 98.80, 71.50),
    ("mn-dbn(100)", "rimes", 99.40, 85.80),
    ("mn-dbn(100)", "usps", 94.35, 15.85),
    ("mn-dbn-overlap(20/20%)", "mnist", 95.10, None),
    ("mn-dbn-overlap(20/20%)", "rimes", 95.70, 39.27),
    ("mn-dbn-overlap(20/20%)", "usps", 85.05, 10.40),
    ("mn-dbn-overlap(20/50%)", "mnist", 93.50, None),
    ("mn-dbn-overlap(20/50%)", "rimes", 93.62, None),
    ("mn-dbn-overlap(20/50%)", "usps", 80.90, 22.90),
    ("mn-dbn-overlap(50/20%)", "mnist", 96.50, None),
    ("mn-dbn-overlap(50/20%)", "rimes", 97.60, 35.60),
    ("mn-dbn-overlap(50/20%)", "usps", 92.95, 9.56),
    ("mn-dbn-overlap(50/50%)", "mnist", 95.84, None),
    ("mn-dbn-overlap(50/50%)", "rimes", 96.27, None),
    ("mn-dbn-overlap(50/50%)", "usps", 91.35, 24.00),
)


@dataclass
class RunRecord:
    """One completed run for the results table: run names its directory,
    and cpu_seconds is the CPU time of its whole training run, or None
    where unknown or nothing trained."""

    run: str
    architecture: str
    dataset: str
    accuracy_pct: float
    cpu_seconds: float | None

    def __post_init__(self):
        if not all(isinstance(v, str) for v in (self.run, self.architecture, self.dataset)):
            raise TypeError("run, architecture and dataset must be strings")
        # cpu_seconds takes the rule of the timings reader (cli._recorded_seconds).
        cpu = 0.0 if self.cpu_seconds is None else self.cpu_seconds
        for name, value, top, rule in [("accuracy_pct", self.accuracy_pct, 100.0, " in [0, 100]"),
                                       ("cpu_seconds", cpu, math.inf, " >= 0")]:
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and math.isfinite(value) and 0.0 <= value <= top):
                raise ValueError(f"{name} must be a finite number{rule}, got {value!r}")


def weight_tiles(m: Rbm, grid, out_path) -> np.ndarray:
    """Render hidden-unit weight columns as a grid of grayscale tiles.

    Each of the first rows*cols hidden units becomes one side x side tile
    (side the square root of the visible size), min-max normalized per tile
    to the full 0..255 range; a constant tile maps to mid-gray 127. The
    grid is written as binary PGM (P5, maxval 255) with no gaps, so the
    image is exactly (rows*side) x (cols*side). Returns the pixel array.
    """
    rows, cols = int(grid[0]), int(grid[1])
    if rows < 1 or cols < 1:
        raise ValueError(f"grid must be positive, got {rows}x{cols}")
    side = math.isqrt(m.n_visible)
    if side * side != m.n_visible:
        raise ConfigError(
            f"visible size {m.n_visible} is not a perfect square; cannot form tiles"
        )
    if rows * cols > m.n_hidden:
        raise ValueError(f"grid {rows}x{cols} needs {rows * cols} units, model has {m.n_hidden}")
    canvas = np.empty((rows * side, cols * side), dtype=np.uint8)
    for t in range(rows * cols):
        col = m.w[:, t].reshape(side, side)
        lo, hi = col.min(), col.max()
        if hi > lo:
            tile = np.rint((col - lo) / (hi - lo) * 255.0).astype(np.uint8)
        else:
            tile = np.full((side, side), 127, dtype=np.uint8)
        r, c = divmod(t, cols)
        canvas[r * side : (r + 1) * side, c * side : (c + 1) * side] = tile
    with atomic_write(out_path) as fh:
        fh.write(f"P5\n{canvas.shape[1]} {canvas.shape[0]}\n255\n".encode("ascii"))
        fh.write(canvas.tobytes())
    return canvas


def read_pgm(path) -> np.ndarray:
    """Read back a PGM exactly as weight_tiles writes it: the header
    P5\\n<width> <height>\\n255\\n, then one byte per pixel, row by row.
    Anything else, a comment line included, is a ValueError naming path."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = re.match(rb"P5\n(\d+) (\d+)\n255\n", data)
    if header is None:
        raise ValueError(f"{path}: not a PGM header as weight_tiles writes it")
    width, height, pixels = int(header[1]), int(header[2]), data[header.end():]
    if len(pixels) != width * height:
        raise ValueError(f"{path}: {len(pixels)} pixel bytes for a {width}x{height} image")
    return np.frombuffer(pixels, np.uint8).reshape(height, width)


def activation_histogram(d: Dbn, batch, bins: int, out_path):
    """Histogram the per-unit mean activation probabilities of a network's
    top-layer features over a batch.

    Each top-layer unit contributes its batch-mean activation, binned into
    equal-width bins on [0, 1]; counts therefore sum to the unit count.
    Writes CSV rows bin_low,bin_high,count and returns (counts, edges).
    """
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[0] == 0:
        raise ValueError("batch must be a non-empty 2-D array")
    means = forward(d, batch).mean(axis=0)
    counts, edges = np.histogram(means, bins=bins, range=(0.0, 1.0))
    write_csv(out_path, HISTOGRAM_COLUMNS, zip(edges[:-1], edges[1:], counts))
    return counts, edges


def _table_rows(records, include_reference: bool) -> list[tuple[str, ...]]:
    """The measured runs, then the references (blank run), in one format."""
    rows = [
        (r.run, r.architecture, r.dataset, r.accuracy_pct,
         None if r.cpu_seconds is None else r.cpu_seconds / 3600.0, "measured")
        for r in records
    ]
    if include_reference:
        rows += [("", *ref, "reference") for ref in REFERENCE_RESULTS]
    return [
        (run, arch, dataset, f"{acc:.2f}", "" if hours is None else f"{hours:.2f}", source)
        for run, arch, dataset, acc, hours, source in rows
    ]


def results_table(records, out_csv, out_txt, include_reference: bool = True):
    """Write accuracy/CPU-hours tables as CSV and aligned text.

    One row per completed run (CPU hours, 2 decimals, or blank), followed
    by the published reference annotations unless suppressed.
    Returns the row tuples that were written.
    """
    rows = _table_rows(records, include_reference)
    write_csv(out_csv, TABLE_COLUMNS, rows)
    all_rows = [TABLE_COLUMNS] + rows
    widths = [max(len(r[c]) for r in all_rows) for c in range(len(TABLE_COLUMNS))]
    lines = []
    for r, row in enumerate(all_rows):
        lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
        if r == 0:
            lines.append("  ".join("-" * widths[c] for c in range(len(widths))))
    with atomic_write(out_txt) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))
    return rows
