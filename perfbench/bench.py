"""Workloads, timed jobs, correctness gates and metrics of the training benchmark.

Import this module only after the BLAS thread-count variables are pinned
(see run.py): it imports numpy.

A run repeats one job (the timed training call, then a save and a load
of the trained model) until the time budget is spent, and times the
set-up of the job's inputs several times, before and between jobs. Every
job of a run trains from the same inputs and seed, so every job must
produce the same model bytes. A job that breaks a correctness gate counts
as a failed operation.
"""
from __future__ import annotations

import contextlib
import copy
import hashlib
import os
import platform
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mndbn
from mndbn import core, dbn, groups, mixed_norm, model_io, rbm, synth
from mndbn.cli import THREAD_ENV_VARS
from tracing import TRACED, Tracer, patched

# Set-up runs SETUP_REPS times before the first job, then again between
# jobs until set-up has taken SETUP_SHARE of the run so far. A set-up of
# 50 ms thus runs several times before every job, and its samples cover
# the host's speed across the whole run: on a shared VM, the speed of this
# Python-loop code changes by up to 1.6x from one second to the next.
SETUP_REPS = 3
SETUP_SHARE = 0.2
MIN_JOBS = 4
BATCH = 100
FINETUNE = dbn.FineTuneConfig(batch_size=1000, cg_iters=3)
# Gates. Layer 1 counts as collapsed below this mean hidden activation
# (the default lr=0.1 at 784 inputs drives it to 0.002-0.006). Fine-tuning
# must fit its data: over 43 seeds it reached 97-100% held-out accuracy
# and a training loss of 0.0003-0.14, where chance is 10% and ln 10 = 2.3.
ACTIVATION_FLOOR = 0.01
ACCURACY_FLOOR = 0.9
LOSS_CEILING = 0.5


@dataclass(frozen=True)
class Workload:
    """Synthetic-digit training problem. With finetune_epochs = 0 the job
    pretrains the stack; otherwise set-up pretrains it and the job
    fine-tunes it with a softmax head."""

    side: int
    layers: tuple[int, ...]
    lam: float
    group_size: int
    overlap: float
    lr: float
    pretrain_epochs: int
    n_train: int
    n_test: int = 0
    momentum_switch_epoch: int = mixed_norm.TrainConfig.momentum_switch_epoch
    finetune_epochs: int = 0


WORKLOADS = {
    "pretrain-mn784": Workload(
        side=28, layers=(500, 500), lam=0.1, group_size=10, overlap=0.0,
        lr=0.01, pretrain_epochs=2, n_train=1000,
    ),
    "pretrain-overlap2000": Workload(
        side=8, layers=(2000,), lam=0.1, group_size=10, overlap=0.5,
        lr=0.05, pretrain_epochs=2, n_train=2000,
    ),
    # Momentum 0.9 from the first epoch and lr=0.05 let two set-up epochs
    # learn features on which one fine-tuning epoch fits every seed tried.
    "finetune-cg784": Workload(
        side=28, layers=(500, 500), lam=0.0, group_size=10, overlap=0.0,
        lr=0.05, pretrain_epochs=2, n_train=2000, n_test=500,
        momentum_switch_epoch=0, finetune_epochs=1,
    ),
}


@dataclass
class Inputs:
    train: object
    test: object
    stack: dbn.Dbn | None


@dataclass
class Job:
    model: dbn.Dbn
    train_s: float
    io_s: float
    image_epochs: int
    model_bytes: bytes
    resaved_bytes: bytes
    log: list


def fast(samples) -> float:
    """10th percentile of a run's timings. On a shared host, interference
    only adds time, and the host's speed can change by 1.5x for seconds or
    minutes at a time; the median then flips with the share of slow
    seconds in a run, while a low quantile stays near the undisturbed time.
    """
    samples = list(samples)
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[0]


def _train_config(w: Workload, seed: int) -> mixed_norm.TrainConfig:
    return mixed_norm.TrainConfig(
        lr=w.lr, epochs=w.pretrain_epochs, batch_size=BATCH,
        momentum_switch_epoch=w.momentum_switch_epoch, seed=seed,
    )


def _penalties(w: Workload) -> list:
    return [
        mixed_norm.PenaltyConfig(w.lam, groups.make_partition(size, w.group_size, w.overlap))
        for size in w.layers
    ]


def set_up(w: Workload, seed: int) -> Inputs:
    """Make the inputs of every job: the data, and for fine-tuning the
    pretrained stack with a zero softmax head."""
    train, test = synth.make_synthetic(w.n_train, w.n_test, side=w.side, seed=seed)
    stack = None
    if w.finetune_epochs:
        stack, _ = dbn.pretrain_greedy(
            train, w.layers, _penalties(w), _train_config(w, seed), core.Rng(seed).spawn(0)
        )
        dbn.attach_head(stack, n_classes=10)
    return Inputs(train, test, stack)


def _inputs_digest(inputs: Inputs, scratch: Path) -> str:
    h = hashlib.sha256()
    for ds in (inputs.train, inputs.test):
        h.update(ds.images.tobytes())
        h.update(ds.labels.tobytes())
    if inputs.stack is not None:
        path = scratch / "setup.mndbn"
        model_io.save_dbn(inputs.stack, path)
        h.update(path.read_bytes())
    return h.hexdigest()


def run_job(w: Workload, inputs: Inputs, seed: int, scratch: Path) -> Job:
    """The timed training call, then save, load and save again."""
    rng = core.Rng(seed)
    if w.finetune_epochs:
        start_model = copy.deepcopy(inputs.stack)
        t0 = time.perf_counter()
        model, log = dbn.fine_tune(
            start_model, inputs.train, w.finetune_epochs, FINETUNE, rng.spawn(1),
            eval_dataset=inputs.test,
        )
        train_s = time.perf_counter() - t0
        image_epochs = w.n_train * w.finetune_epochs
    else:
        t0 = time.perf_counter()
        model, log = dbn.pretrain_greedy(
            inputs.train, w.layers, _penalties(w), _train_config(w, seed), rng.spawn(0)
        )
        train_s = time.perf_counter() - t0
        image_epochs = w.n_train * w.pretrain_epochs * len(w.layers)
    path = scratch / "model.mndbn"
    t0 = time.perf_counter()
    model_io.save_dbn(model, path)
    loaded, _ = model_io.load_dbn(path)
    io_s = time.perf_counter() - t0
    model_bytes = path.read_bytes()
    model_io.save_dbn(loaded, path)
    return Job(model, train_s, io_s, image_epochs, model_bytes, path.read_bytes(), log)


def final_recon_error(w: Workload, inputs: Inputs, job: Job) -> float:
    """Mean squared error of the one-step mean-field reconstruction of the
    training images through layer 1. Pretraining logs it after its last
    epoch; fine-tuning logs no reconstruction, so it is computed here."""
    if not w.finetune_epochs:
        return job.log[0][-1].recon_error
    layer = job.model.layers[0]
    images = inputs.train.images
    xhat = rbm.prob_x_given_h(layer, rbm.prob_h_given_x(layer, images))
    return float(np.mean((images - xhat) ** 2))


def gate_failures(w: Workload, job: Job) -> list[str]:
    """Correctness checks on one job's model; empty when all pass."""
    failures = []
    arrays = [a for layer in job.model.layers for a in (layer.w, layer.b_vis, layer.a_hid)]
    if job.model.head is not None:
        arrays += [job.model.head.w_out, job.model.head.b_out]
    if not all(np.all(np.isfinite(a)) for a in arrays):
        failures.append("non-finite parameters")
    if job.model_bytes != job.resaved_bytes:
        failures.append("save -> load -> save changed the model bytes")
    if w.finetune_epochs:
        accuracy, loss = job.log[-1].test_accuracy, job.log[-1].loss
        if not accuracy >= ACCURACY_FLOOR:
            failures.append(f"test accuracy {accuracy:.3f} below {ACCURACY_FLOOR}")
        if not loss <= LOSS_CEILING:
            failures.append(f"training loss {loss:.3f} above {LOSS_CEILING}")
    else:
        activation = job.log[0][-1].mean_hidden_activation
        if not activation >= ACTIVATION_FLOOR:
            failures.append(f"layer-1 mean activation {activation:.4f} below {ACTIVATION_FLOOR}")
    return failures


def environment() -> dict:
    """What the timings depend on besides the code: threads, builds, cores."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_ENV_VARS},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "mndbn": mndbn.__version__,
    }


def _per_layer(tracer: Tracer, traced_jobs: list[str], setups: list[str], image_epochs: int):
    """Per-job counts (checked identical across jobs) and median self times."""
    fields = ("calls", "self_s", "rows", "bytes", "trials", "failed")
    per_job = []
    for job in traced_jobs:
        totals = tracer.job_totals(job)
        per_job.append(
            {f"{name}.{f}": totals.get(name, {}).get(f, 0) for name in TRACED for f in fields}
        )
    counts = {k: v for k, v in per_job[0].items() if not k.endswith(".self_s")}
    repeat = all({k: v for k, v in row.items() if k in counts} == counts for row in per_job)
    values = dict(counts)
    for key in per_job[0]:
        if key.endswith(".self_s"):
            values[key] = statistics.median(row[key] for row in per_job)
    # make_synthetic runs only in set-up.
    values["synth.make_synthetic.self_s"] = statistics.median(
        tracer.job_totals(s).get("synth.make_synthetic", {}).get("self_s", 0.0) for s in setups
    )
    calls = values["dbn.line_search.calls"]
    values["train.image_epochs"] = image_epochs
    values["rbm.forward_rows_per_sample"] = values["rbm.prob_h_given_x.rows"] / image_epochs
    values["dbn.line_search.trials_per_call"] = values["dbn.line_search.trials"] / calls if calls else 0.0
    values["dbn.line_search.fail_ratio"] = values["dbn.line_search.failed"] / calls if calls else 0.0
    values["trace.spans_per_job"] = sum(1 for s in tracer.spans if s["job"] == traced_jobs[0]) - 1
    return values, repeat


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path, workload: Workload | None = None):
    """One benchmark run. Returns (summary, metrics by name, spans or None).

    Only the first passing job keeps its model; later jobs keep only their
    timings, so memory does not grow with the number of jobs. In a traced run, jobs alternate between
    untraced and traced, so the tracing overhead is measured against jobs
    of the same run.
    """
    w = workload or WORKLOADS[name]
    tracer = Tracer()
    out_dir.mkdir(parents=True, exist_ok=True)
    setup_s, digests, setups = [], [], []
    first: Job | None = None
    timings: list[tuple[float, float, bool]] = []  # (train_s, io_s, traced) of passing jobs
    traced_ids: list[str] = []
    failures: list[str] = []
    attempted = failed = 0
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp, (
        patched(tracer) if trace else contextlib.nullcontext()
    ):
        scratch = Path(tmp)

        def timed_set_up():
            setups.append(f"setup{len(setups)}")
            t0 = time.perf_counter()
            with tracer.root(setups[-1], "setup") if trace else contextlib.nullcontext():
                made = set_up(w, seed)
            setup_s.append(time.perf_counter() - t0)
            digests.append(_inputs_digest(made, scratch))
            return made

        start = time.perf_counter()
        for _ in range(SETUP_REPS):
            inputs = timed_set_up()
        deadline = time.perf_counter() + seconds
        while attempted < MIN_JOBS or time.perf_counter() < deadline:
            while sum(setup_s) < SETUP_SHARE * (time.perf_counter() - start):
                inputs = timed_set_up()
            traced = trace and attempted % 2 == 1
            job_id = f"job{attempted}"
            attempted += 1
            try:
                with tracer.root(job_id, "job") if traced else contextlib.nullcontext():
                    job = run_job(w, inputs, seed, scratch)
                problems = gate_failures(w, job)
            except Exception as exc:  # a job that raises is a failed operation
                job, problems = None, [f"{type(exc).__name__}: {exc}"]
            if job is not None and first is not None and job.model_bytes != first.model_bytes:
                problems.append("model bytes differ from the first job of this run")
            if problems:
                failed += 1
                failures.append(f"{job_id}: " + "; ".join(problems))
                continue
            if first is None:
                first = job
            timings.append((job.train_s, job.io_s, traced))
            if traced:
                traced_ids.append(job_id)

    if len(set(digests)) != 1:
        failures.append("set-up repetitions made different inputs")
    metrics: dict[str, float] = {}
    untraced = [t for t in timings if not t[2]]
    if first is None or not untraced:
        failures.append("no untraced job passed its gates")
    else:
        train_s = fast(t[0] for t in untraced)
        metrics.update(
            setup_s=fast(setup_s),
            train_samples_per_s=first.image_epochs / train_s,
            total_s=fast(setup_s) + train_s + fast(t[1] for t in untraced),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            final_recon_error=final_recon_error(w, inputs, first),
        )
        if trace and traced_ids:
            values, repeat = _per_layer(tracer, traced_ids, setups, first.image_epochs)
            if not repeat:
                failures.append("per-job counts differ between traced jobs")
            traced_s = fast(t[0] for t in timings if t[2])
            values["trace.overhead_pct"] = 100.0 * (traced_s / train_s - 1.0)
            metrics.update(values)
        elif trace:
            failures.append("no traced job passed its gates")

    summary = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "setup_reps": len(setup_s),
        "correct": not failures,
        "failures": failures,
        "environment": environment(),
    }
    if first is not None and w.finetune_epochs:
        summary["final_train_loss"] = first.log[-1].loss
        summary["test_accuracy_pct"] = 100.0 * first.log[-1].test_accuracy
    return summary, metrics, (tracer.spans if trace else None)
