"""Spans and counts recorded around calls into the mndbn modules.

Nothing inside the library is instrumented. `patched` replaces each traced
function with a wrapper in every loaded ``mndbn`` module that binds it:
``from .rbm import prob_h_given_x`` gives `mixed_norm` and `dbn` their own
name for the function, so patching only `rbm.prob_h_given_x` would miss
their calls. The wrappers cost one flag test while no span is open.

Spans stay in memory. Each records its name, start, end, the index of the
span that caused it and the job it belongs to; a span's self time is its
duration minus the durations of its direct children.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time

import numpy as np


def _rows_arg1(args, kwargs, result):
    shape = np.shape(args[1])
    return {"rows": shape[0] if len(shape) == 2 else 1}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _search_failed(args, kwargs, result):
    return {"failed": int(result[0] is None)}


# span name -> (module, function, extra counts taken from the call)
TRACED = {
    "core.sigmoid": ("core", "sigmoid", None),
    "core.sample_bernoulli": ("core", "sample_bernoulli", None),
    "rbm.cd_step": ("rbm", "cd_step", None),
    "rbm.prob_h_given_x": ("rbm", "prob_h_given_x", _rows_arg1),
    "rbm.prob_x_given_h": ("rbm", "prob_x_given_h", _rows_arg1),
    "rbm.apply_update": ("rbm", "apply_update", None),
    "groups.expand": ("groups", "expand", None),
    "groups.accumulate": ("groups", "accumulate", None),
    "mixed_norm.train_mnrbm": ("mixed_norm", "train_mnrbm", None),
    "mixed_norm.regularized_update": ("mixed_norm", "regularized_update", None),
    "mixed_norm.penalty_grad": ("mixed_norm", "penalty_grad", None),
    "mixed_norm.epoch_metrics": ("mixed_norm", "_epoch_metrics", None),
    "mixed_norm.mixed_norm": ("mixed_norm", "mixed_norm", None),
    "dbn.fine_tune": ("dbn", "fine_tune", None),
    "dbn.loss_and_grad": ("dbn", "loss_and_grad", None),
    "dbn.line_search": ("dbn", "_armijo", _search_failed),
    "dbn.evaluate": ("dbn", "evaluate", None),
    "dbn.mean_loss": ("dbn", "_mean_loss", None),
    "data.shuffle_split": ("data", "shuffle_split", None),
    "synth.make_synthetic": ("synth", "make_synthetic", None),
    "model_io.save_dbn": ("model_io", "save_dbn", _file_bytes),
    "model_io.load_dbn": ("model_io", "load_dbn", None),
}

# A `_loss_only` call made directly by the line search is one Armijo trial.
TRIAL = ("dbn", "_loss_only", "dbn.line_search")


class Tracer:
    """In-memory span recorder. Records only while a root span is open."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def root(self, job: str, name: str):
        """Open the span that every span of one job descends from."""
        idx = self._open(name, job)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str, job: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"job": job, "name": name, "parent": parent, "start": time.perf_counter(), "child_s": 0.0}
        )
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        rec = self.spans[idx]
        rec["end"] = time.perf_counter()
        self._stack.pop()
        if rec["parent"] is not None:
            self.spans[rec["parent"]]["child_s"] += rec["end"] - rec["start"]

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._open(name, self.spans[self._stack[0]]["job"])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counts is not None:
                self.spans[idx].update(counts(args, kwargs, result))
            return result

        return traced

    def trial_counter(self, fn, parent_name: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack:
                top = self.spans[self._stack[-1]]
                if top["name"] == parent_name:
                    top["trials"] = top.get("trials", 0) + 1
            return fn(*args, **kwargs)

        return counted

    def job_totals(self, job: str) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed self time and summed extra counts."""
        totals: dict[str, dict[str, float]] = {}
        for rec in self.spans:
            if rec["job"] != job or rec["parent"] is None:
                continue
            agg = totals.setdefault(rec["name"], {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += rec["end"] - rec["start"] - rec["child_s"]
            for key in ("rows", "bytes", "trials", "failed"):
                if key in rec:
                    agg[key] = agg.get(key, 0) + rec[key]
        return totals


def _mndbn_modules():
    return [m for n, m in list(sys.modules.items()) if n == "mndbn" or n.startswith("mndbn.")]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the wrappers of TRACED and TRIAL; restore the originals on exit."""
    targets = [
        (getattr(importlib.import_module(f"mndbn.{mod}"), attr), name, counts)
        for name, (mod, attr, counts) in TRACED.items()
    ]
    restore = []
    try:
        replacements = {id(fn): (fn, tracer.wrap(name, fn, counts)) for fn, name, counts in targets}
        trial_fn = getattr(importlib.import_module(f"mndbn.{TRIAL[0]}"), TRIAL[1])
        replacements[id(trial_fn)] = (trial_fn, tracer.trial_counter(trial_fn, TRIAL[2]))
        for module in _mndbn_modules():
            for key, value in list(vars(module).items()):
                original, wrapper = replacements.get(id(value), (None, None))
                if original is not None and value is original:
                    restore.append((module, key, value))
                    setattr(module, key, wrapper)
        yield
    finally:
        for module, key, value in reversed(restore):
            setattr(module, key, value)
