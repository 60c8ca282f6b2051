"""Command-line interface for training, evaluation, and reporting.

Every command reads one JSON config, materializes all defaults, and writes
a manifest.json into the output directory capturing the resolved config
(a seed is set only in its train or finetune block) and a sha256 per
artifact. A manifest can be fed back through --config to replay the run.

The config dataclasses are the schema: the keys, defaults and types of a
"train" or "finetune" block are the fields of TrainConfig or
FineTuneConfig, and those of a synthetic dataset the parameters of
make_synthetic. Each block is built into its dataclass before any data is
loaded, so the dataclasses' own checks are the config checks. The checks of
a model against its data live in fine_tune and evaluate, and reach the user
as "config error: <model path>: ..."; evaluate's also name the split.

Besides the error types (mndbn.errors, standard library only), the library
is reached only through the package's public names, read as mndbn.<name>
when a command runs. The package loads each submodule on its first use, so
importing this module loads no numpy, and --threads pins the BLAS
thread-count environment variables before numpy comes in.

Exit codes: 0 success, 1 completed with warnings (e.g. empty report
directory), 2 configuration error or out of memory (the config asks for
more data than the machine holds), 3 data error, 4 numeric failure.

Every file replaces its old version atomically (core.atomic_write) and the
manifest is written last, so a run cut short never leaves a manifest beside
a truncated model or log. timings.json (see _write_manifest) is the one
file a run writes that is not deterministic, and no manifest lists it.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

import mndbn

from .errors import ConfigError, DataError, NumericError

THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# The public JSON key of each config field whose key is not its name.
_JSON_KEYS = {"batch_size": "batch"}
_FIELD_NAMES = {key: name for name, key in _JSON_KEYS.items()}

_REQUIRED = object()
_KINDS = {"int": "an integer", "float": "a finite number", "bool": "true or false", "str": "a string"}


def _coerce(value, kind: str, field: str):
    """Check a JSON value against a field type ("int", "float", "bool" or
    "str"); integral floats pass as ints and ints as floats. A float must
    be finite: JSON's NaN and Infinity, and an int too large for a float,
    are rejected."""
    if kind in ("bool", "str"):
        ok = isinstance(value, bool if kind == "bool" else str)
    else:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        ok = ok and (kind == "float" or isinstance(value, int) or value.is_integer())
        ok = ok and (kind != "float" or abs(value) <= sys.float_info.max)  # NaN fails too
    if not ok:
        raise ConfigError(f"config field '{field}' must be {_KINDS[kind]}, got {value!r}")
    return int(value) if kind == "int" else float(value) if kind == "float" else value


def _check_keys(block: dict, allowed, ctx: str) -> None:
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown config field(s) in '{ctx}': {', '.join(unknown)}")


def _require(block: dict, field: str, ctx: str):
    if field not in block:
        dotted = f"{ctx}.{field}" if ctx else field
        raise ConfigError(f"config missing required field '{dotted}'")
    return block[field]


def _fields(schema) -> list:
    """(JSON key, type, default) of each field of a config dataclass, or of
    each parameter of a function; _REQUIRED marks a missing default."""
    if dataclasses.is_dataclass(schema):
        items = [(f.name, f.type, f.default) for f in dataclasses.fields(schema)]
    else:
        params = inspect.signature(schema).parameters.values()
        items = [(p.name, p.annotation, p.default) for p in params]
    return [
        (
            _JSON_KEYS.get(name, name),
            getattr(kind, "__name__", kind),
            _REQUIRED if default in (dataclasses.MISSING, inspect.Parameter.empty) else default,
        )
        for name, kind, default in items
    ]


def _resolve_fields(cfg, fields, ctx: str) -> dict:
    """Resolve a JSON block against (key, type, default) triples: unknown
    keys are rejected, omitted keys take their default, and values are
    type-checked. A None default also admits null."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"config field '{ctx}' must be an object")
    _check_keys(cfg, [key for key, _, _ in fields], ctx)
    resolved = {}
    for key, kind, default in fields:
        value = _require(cfg, key, ctx) if default is _REQUIRED else cfg.get(key, default)
        if value is not None or default is not None:
            value = _coerce(value, kind, f"{ctx}.{key}")
        resolved[key] = value
    return resolved


def _build(ctx: str, make, *args, **kwargs):
    """Call a config constructor, naming the config block it rejects."""
    try:
        return make(*args, **kwargs)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def _resolve_block(schema, cfg, ctx: str):
    """(JSON block, config dataclass) of a train or finetune block."""
    resolved = _resolve_fields({} if cfg is None else cfg, _fields(schema), ctx)
    return resolved, _build(ctx, schema, **{_FIELD_NAMES.get(k, k): v for k, v in resolved.items()})


def _load_config(path, command: str) -> dict:
    if path is None:
        raise ConfigError(f"'{command}' needs --config PATH")
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, or bytes that are not UTF-8
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    if "command" in raw and "config" in raw:
        # A manifest from an earlier run; replay its resolved config.
        if raw["command"] != command:
            raise ConfigError(
                f"manifest {path} was written by '{raw['command']}', not '{command}'"
            )
        if not isinstance(raw["config"], dict):
            raise ConfigError(f"manifest {path} has a malformed 'config' block")
        return raw["config"]
    return raw


def _resolve_path(given, config: dict, key: str, default=None):
    """A path key: the command-line value when one is given, otherwise the
    config's, checked as a "str" field (null counts as absent), otherwise
    default."""
    if not given and config.get(key) is not None:
        given = _coerce(config[key], "str", key)
    given = given or default
    if not given:
        raise ConfigError(f"config missing required field '{key}' (or pass it on the command line)")
    return given


def _resolve_out_dir(args, config: dict, default=None) -> str:
    """The "out_dir" path key (see _resolve_path), checked before anything
    is loaded or written: it must not be a file or lie under one, and a
    manifest.json already in it must name this same command, so a run
    never overwrites another command's run. Reading that one file is the
    check's only disk access besides looking up the path."""
    out = Path(_resolve_path(args.out, config, "out_dir", default))
    manifest = out / "manifest.json"
    try:
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"output directory {out} is not a directory: {existing} is a file")
        blob = manifest.read_bytes() if manifest.exists() else None
    except OSError as exc:
        raise ConfigError(f"cannot read output directory {out}: {exc}") from exc
    if blob is not None:
        try:
            command = json.loads(blob)["command"]
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ConfigError(
                f"{manifest} is not a manifest; pick another output directory"
            ) from exc
        if command != args.command:
            raise ConfigError(
                f"output directory {out} holds a '{command}' run, which "
                f"'{args.command}' would overwrite; pick another output directory"
            )
    return str(out)


def _make_dir(path) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _write_json(path: Path, value) -> None:
    """The one writer of a run's JSON files: indent 2, sorted keys, final newline."""
    with mndbn.atomic_write(path) as fh:
        fh.write((json.dumps(value, indent=2, sort_keys=True) + "\n").encode("utf-8"))


_TIMINGS = "timings.json"  # a run's clocks, beside its model and metrics


def _recorded_seconds(path, *keys: str):
    """The seconds under the first key set in the timings.json beside path:
    None when the file or all keys are absent, ValueError when malformed."""
    try:
        timings = json.loads(Path(path).with_name(_TIMINGS).read_bytes())
        key = next((k for k in keys if timings.get(k) is not None), keys[0])
    except FileNotFoundError:
        return None
    except (OSError, AttributeError, RecursionError) as exc:
        raise ValueError(exc) from exc
    value = timings.get(key)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if value is not None and not (number and 0.0 <= value <= sys.float_info.max):
        raise ValueError(f"'{key}' must be a finite number >= 0, got {value!r}")
    return value


def _write_manifest(args, out_dir: Path, config: dict, artifacts, model_path=None):
    """Write timings.json (the wall and CPU seconds since main dispatched),
    then manifest.json. A finetune's training_cpu_seconds adds the input
    model's training_cpu_seconds (else its cpu_seconds), and is left out
    where neither is known."""
    wall0, cpu0 = args.clock
    cpu = time.process_time() - cpu0
    timings = {"wall_seconds": time.perf_counter() - wall0, "cpu_seconds": cpu}
    if model_path is not None:
        with contextlib.suppress(TypeError, ValueError):  # None (absent) or unreadable
            timings["training_cpu_seconds"] = cpu + _recorded_seconds(
                model_path, "training_cpu_seconds", "cpu_seconds")
    _write_json(out_dir / _TIMINGS, timings)
    manifest = {
        "command": args.command,
        "config": config,
        "artifacts": {
            str(rel): hashlib.sha256((out_dir / rel).read_bytes()).hexdigest()
            for rel in sorted(artifacts)
        },
    }
    _write_json(out_dir / "manifest.json", manifest)


# ---------------------------------------------------------------- datasets


def _resolve_dataset(cfg) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config field 'dataset' must be an object")
    name = _coerce(_require(cfg, "name", "dataset"), "str", "dataset.name")
    if name == "synthetic":
        fields = _fields(mndbn.make_synthetic)
    elif name == "usps":
        fields = [("train_path", "str", _REQUIRED), ("test_path", "str", None)]
    elif name == "mnist":
        fields = [(f"train_{k}", "str", _REQUIRED) for k in ("images", "labels")]
        fields += [(f"test_{k}", "str", None) for k in ("images", "labels")]
    else:
        raise ConfigError(f"unknown dataset name '{name}' (expected synthetic, usps or mnist)")
    fields = [("name", "str", _REQUIRED), *fields, ("limit", "int", None)]
    resolved = _resolve_fields(cfg, fields, "dataset")
    if (resolved.get("test_images") is None) != (resolved.get("test_labels") is None):
        raise ConfigError("dataset.test_images and dataset.test_labels must come together")
    if resolved["limit"] is not None and resolved["limit"] < 1:
        raise ConfigError("config field 'dataset.limit' must be >= 1")
    return resolved


def _dataset_loader(resolved: dict):
    """load(split): the "train" or "test" split of a resolved dataset
    block, or None for an absent test split. A data file is read only when
    its split is loaded; a synthetic set draws both splits from one
    stream, once."""
    name, limit = resolved["name"], resolved["limit"]
    kwargs = {k: v for k, v in resolved.items() if k not in ("name", "limit")}
    synthetic = functools.cache(lambda: _build("dataset", mndbn.make_synthetic, **kwargs))

    def load(split):
        if name == "synthetic":
            ds = synthetic()[split == "test"] if split == "train" or kwargs["n_test"] else None
        elif name == "usps":
            path = kwargs[f"{split}_path"]
            ds = None if path is None else mndbn.load_usps(path)
        else:
            images, labels = kwargs[f"{split}_images"], kwargs[f"{split}_labels"]
            ds = None if images is None else mndbn.load_idx(images, labels)
        return ds.subset(limit) if split == "train" and limit is not None else ds

    return load


# ---------------------------------------------------------------- config blocks


def _resolve_penalty(cfg, layer_size: int, ctx: str):
    """Resolve a penalty block and build its PenaltyConfig; with lambda 0
    the group size defaults to the whole layer."""
    fields = [
        ("lambda", "float", 0.0),
        ("group_size", "int", None),
        ("overlap_pct", "float", 0.0),
    ]
    resolved = _resolve_fields({} if cfg is None else cfg, fields, ctx)
    if resolved["group_size"] is None:
        if resolved["lambda"] != 0.0:
            raise ConfigError(f"config missing required field '{ctx}.group_size'")
        resolved["group_size"] = layer_size
    partition = _build(ctx, mndbn.make_partition, layer_size, resolved["group_size"],
                       resolved["overlap_pct"] / 100.0)
    return resolved, _build(ctx, mndbn.PenaltyConfig, resolved["lambda"], partition)


def _architecture_tag(layer_sizes, penalties) -> str:
    sizes = "-".join(str(s) for s in layer_sizes)
    active = [p for p in penalties if p["lambda"] > 0.0]
    if not active:
        return f"dbn({sizes})" if len(layer_sizes) > 1 else f"rbm({sizes})"
    p = active[0]
    if p["overlap_pct"] > 0.0:
        return f"mn-dbn-overlap(g{p['group_size']}/{p['overlap_pct']:g}%,{sizes})"
    return f"mn-dbn(g{p['group_size']},{sizes})"


def _write_metrics(out_dir: Path, tag: str, resolved: dict, split: str, acc, confusion,
                   n_samples: int, **extra) -> None:
    """metrics.json, and confusion.csv (rows true class, columns predicted)."""
    metrics = {
        "architecture": tag,
        "dataset": resolved["dataset"]["name"],
        "split": split,
        "accuracy_pct": 100.0 * acc,
        "n_samples": n_samples,
        **extra,
    }
    _write_json(out_dir / "metrics.json", metrics)
    header = ["true", *(f"pred_{c}" for c in range(len(confusion)))]
    mndbn.write_csv(out_dir / "confusion.csv", header, ([r, *row] for r, row in enumerate(confusion)))


# ---------------------------------------------------------------- commands

# The bins and the training images of the activation histogram that
# pretrain-dbn and finetune write beside their model, and the report's
# weight-tile grid (rows, cols).
_HISTOGRAM_BINS, _HISTOGRAM_IMAGES, _TILE_GRID = 20, 1000, (10, 10)


def _histogram_path(model_path: Path) -> Path:
    """Where a run writes its model's histogram, and the report finds it."""
    return model_path.with_name(f"{model_path.stem}_activations.csv")


def _resolve_pretrain(args, config: dict):
    """A stack of "layer_sizes" (one layer or more), with one shared
    "penalty" or per-layer "penalties". Returns (resolved config,
    PenaltyConfigs, TrainConfig)."""
    _check_keys(config, {"dataset", "layer_sizes", "penalty", "penalties", "train", "out_dir"},
                "config")
    if "penalty" in config and "penalties" in config:
        raise ConfigError("config holds both 'penalty' and 'penalties'; give one of them")
    resolved = {"dataset": _resolve_dataset(_require(config, "dataset", ""))}
    raw_sizes = _require(config, "layer_sizes", "")
    if not isinstance(raw_sizes, list) or not raw_sizes:
        raise ConfigError("config field 'layer_sizes' must be a non-empty list")
    sizes = [_coerce(s, "int", f"layer_sizes[{i}]") for i, s in enumerate(raw_sizes)]
    for i, size in enumerate(sizes):
        if size < 1:
            raise ConfigError(f"config field 'layer_sizes[{i}]' must be >= 1, got {size}")
    raw_pens = config.get("penalties", [config.get("penalty")] * len(sizes))
    if not isinstance(raw_pens, list):
        raise ConfigError("config field 'penalties' must be a list (one block per layer)")
    # pretrain_greedy counts the blocks too, but the zip below would drop extras first.
    if len(raw_pens) != len(sizes):
        raise ConfigError(f"got {len(raw_pens)} penalty blocks for {len(sizes)} layers")
    ctxs = [f"penalties[{i}]" if "penalties" in config else "penalty" for i in range(len(sizes))]
    pens, pcfgs = zip(*(_resolve_penalty(*a) for a in zip(raw_pens, sizes, ctxs)))
    resolved["layer_sizes"], resolved["penalties"] = sizes, list(pens)
    resolved["train"], tcfg = _resolve_block(mndbn.TrainConfig, config.get("train"), "train")
    resolved["out_dir"] = _resolve_out_dir(args, config)
    return resolved, list(pcfgs), tcfg


def cmd_pretrain(args) -> int:
    """Writes dbn.mndbn, its activation histogram dbn_activations.csv and
    one layer<i>_log.csv per layer."""
    resolved, pcfgs, tcfg = _resolve_pretrain(args, _load_config(args.config, args.command))
    sizes = resolved["layer_sizes"]
    train = _dataset_loader(resolved["dataset"])("train")
    tag = _architecture_tag(sizes, resolved["penalties"])
    model, logs = mndbn.pretrain_greedy(train, sizes, pcfgs, tcfg, mndbn.Rng(tcfg.seed))
    log_names = [f"layer{i}_log.csv" for i in range(1, len(logs) + 1)]
    meta = {
        "architecture": tag,
        "dataset": resolved["dataset"]["name"],
        "penalties": resolved["penalties"],
        "train": resolved["train"],
    }
    out_dir = _make_dir(resolved["out_dir"])
    mndbn.save_dbn(model, out_dir / "dbn.mndbn", meta=meta)
    hist = _histogram_path(out_dir / "dbn.mndbn")
    mndbn.activation_histogram(model, train.images[:_HISTOGRAM_IMAGES], _HISTOGRAM_BINS, hist)
    for name, log in zip(log_names, logs):
        mndbn.write_training_log(out_dir / name, log)
    artifacts = ["dbn.mndbn", hist.name, *log_names]
    _write_manifest(args, out_dir, resolved, artifacts)
    print(f"{tag}: {len(sizes)}-layer stack pretrained on {len(train)} images")
    for i, log in enumerate(logs, 1):
        if log:
            print(
                f"layer {i}: {len(log)} epochs, final reconstruction error "
                f"{log[-1].recon_error:.6f}, mean activation {log[-1].mean_hidden_activation:.4f}"
            )
    print(f"wrote {out_dir / 'dbn.mndbn'}")
    return 0


def _resolve_model_run(args, config: dict, blocks=()) -> dict:
    """The keys that finetune and evaluate share: model_path, dataset, out_dir."""
    _check_keys(config, {"model_path", "dataset", "out_dir", *blocks}, "config")
    return {
        "model_path": _resolve_path(args.model, config, "model_path"),
        "dataset": _resolve_dataset(_require(config, "dataset", "")),
        "out_dir": _resolve_out_dir(args, config),
    }


def _resolve_finetune(args, config: dict):
    """Returns (resolved config, FineTuneConfig)."""
    resolved = _resolve_model_run(args, config, ["finetune"])
    resolved["finetune"], ft = _resolve_block(mndbn.FineTuneConfig, config.get("finetune"),
                                              "finetune")
    return resolved, ft


def _model_tag(meta: dict, d) -> str:
    return meta.get("architecture") or _architecture_tag([m.n_hidden for m in d.layers], [])


def cmd_finetune(args) -> int:
    resolved, ft = _resolve_finetune(args, _load_config(args.config, "finetune"))
    path = resolved["model_path"]
    d, meta = mndbn.load_dbn(path)
    train, test = map(_dataset_loader(resolved["dataset"]), ("train", "test"))
    mndbn.attach_head(d, mndbn.NUM_CLASSES)
    d, log = _build(path, mndbn.fine_tune, d, train, ft.epochs, ft, mndbn.Rng(ft.seed),
                    eval_dataset=test)
    tag = _model_tag(meta, d)
    split, reported = ("test", test) if test is not None else ("train", train)
    acc, confusion = _evaluate(path, d, split, reported)
    # The last epoch measured the final model on the train split.
    train_acc = log[-1].train_accuracy if log else _evaluate(path, d, "train", train)[0]
    dataset = resolved["dataset"]["name"]
    meta = {"architecture": tag, "dataset": dataset, "finetune": resolved["finetune"]}
    out_dir = _make_dir(resolved["out_dir"])
    mndbn.save_dbn(d, out_dir / "dbn_finetuned.mndbn", meta=meta)
    hist = _histogram_path(out_dir / "dbn_finetuned.mndbn")
    mndbn.activation_histogram(d, train.images[:_HISTOGRAM_IMAGES], _HISTOGRAM_BINS, hist)
    mndbn.write_training_log(out_dir / "finetune_log.csv", log, mndbn.FineTuneEpoch)
    _write_metrics(out_dir, tag, resolved, split, acc, confusion, len(reported),
                   train_accuracy_pct=100.0 * train_acc)
    artifacts = ["dbn_finetuned.mndbn", hist.name, "finetune_log.csv", "metrics.json",
                 "confusion.csv"]
    _write_manifest(args, out_dir, resolved, artifacts, path)
    print(f"{tag}: {split} accuracy {100.0 * acc:.2f}% after {ft.epochs} epochs")
    print(f"wrote {out_dir / 'dbn_finetuned.mndbn'}")
    return 0


def _evaluate(path, model, split: str, dataset):
    """mndbn.evaluate, naming the model file and the split it rejects."""
    return _build(f"{path} ({split} split)", mndbn.evaluate, model, dataset)


def cmd_evaluate(args) -> int:
    """Reports the test split if the dataset has one, else the train split; loads only that."""
    resolved = _resolve_model_run(args, _load_config(args.config, "evaluate"))
    path = resolved["model_path"]
    model, meta = mndbn.load_dbn(path)
    load = _dataset_loader(resolved["dataset"])
    split, dataset = "test", load("test")
    if dataset is None:
        split, dataset = "train", load("train")
    acc, confusion = _evaluate(path, model, split, dataset)
    out_dir = _make_dir(resolved["out_dir"])
    tag = _model_tag(meta, model)
    _write_metrics(out_dir, tag, resolved, split, acc, confusion, len(dataset))
    _write_manifest(args, out_dir, resolved, ["metrics.json", "confusion.csv"])
    print(f"{tag}: {split} accuracy {100.0 * acc:.2f}% on {len(dataset)} samples")
    return 0


def cmd_report(args) -> int:
    """Tiles each model's first layer, copies the activation histogram its
    run wrote beside it, and tabulates every metrics.json under run_dir,
    costed by the training_cpu_seconds in the timings.json beside it."""
    config = {} if args.config is None else _load_config(args.config, "report")
    _check_keys(config, {"run_dir", "out_dir"}, "config")
    run_dir = Path(_resolve_path(args.run_dir, config, "run_dir"))
    if not run_dir.is_dir():
        raise ConfigError(f"run directory {run_dir} does not exist")
    out_dir = Path(_resolve_out_dir(args, config, run_dir / "report"))
    if out_dir.resolve() in (run_dir.resolve(), *run_dir.resolve().parents):
        raise ConfigError(f"output directory {out_dir} holds the run directory {run_dir}")
    resolved = {"run_dir": str(run_dir), "out_dir": str(out_dir)}

    warnings = []
    artifacts = []
    model_paths = sorted(p for p in run_dir.rglob("*.mndbn") if out_dir not in p.parents)
    # Each model's report files are named after its path under run_dir.
    stems = {}
    for path in model_paths:
        stem = "_".join(path.relative_to(run_dir).with_suffix("").parts)
        if stems.setdefault(stem, path) != path:
            raise ConfigError(f"models {stems[stem]} and {path} would both report as '{stem}'")
    # A malformed model fails the run before it makes the output directory.
    models = [mndbn.load_dbn(path)[0] for path in model_paths]
    _make_dir(out_dir)
    for (stem, path), model in zip(stems.items(), models):
        layer = model.layers[0]
        cols = min(_TILE_GRID[1], layer.n_hidden)
        rows = min(_TILE_GRID[0], layer.n_hidden // cols)
        name = f"{stem}_tiles.pgm"
        try:
            mndbn.weight_tiles(layer, (rows, cols), out_dir / name)
        except ConfigError as exc:
            warnings.append(f"{path}: {exc}, skipping tiles")
        else:
            artifacts.append(name)
            print(f"wrote {out_dir / name}")
        try:
            hist = _histogram_path(path).read_bytes()
        except OSError as exc:
            warnings.append(f"{path}: no readable histogram beside it, skipping it ({exc})")
        else:
            name = f"{stem}_activations.csv"
            with mndbn.atomic_write(out_dir / name) as fh:
                fh.write(hist)
            artifacts.append(name)
            print(f"wrote {out_dir / name}")
    records = []
    for path in sorted(p for p in run_dir.rglob("metrics.json") if out_dir not in p.parents):
        try:
            blob = json.loads(path.read_text(encoding="utf-8"))
            record = mndbn.RunRecord(path.parent.relative_to(run_dir).as_posix(),
                                     blob["architecture"], blob["dataset"],
                                     blob["accuracy_pct"], None)
        except (OSError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            warnings.append(f"{path}: unreadable metrics ({exc})")
            continue
        try:
            record.cpu_seconds = _recorded_seconds(path, "training_cpu_seconds")
        except ValueError as exc:
            warnings.append(f"{path.with_name(_TIMINGS)}: unreadable, cost left blank ({exc})")
        records.append(record)
    empty = not records and not model_paths
    mndbn.results_table(records, out_dir / "results.csv", out_dir / "results.txt",
                        include_reference=not empty)
    artifacts.extend(["results.csv", "results.txt"])
    print(f"wrote {out_dir / 'results.csv'}")
    _write_manifest(args, out_dir, resolved, artifacts)
    for line in warnings:
        print(f"warning: {line}", file=sys.stderr)
    if empty:
        print(f"warning: no run artifacts found under {run_dir}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mndbn",
        description="Group-sparse RBM / deep belief network training toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = [
        ("pretrain-dbn", cmd_pretrain, None, "greedy layer-wise pretraining of one or more layers"),
        ("finetune", cmd_finetune, ("model", "path to a pretrained model file"),
         "attach a softmax head and fine-tune"),
        ("evaluate", cmd_evaluate, ("model", "path to a fine-tuned model file"),
         "accuracy and confusion matrix of a fine-tuned model"),
        ("report", cmd_report, ("run_dir", "directory holding run artifacts"),
         "weight tiles, activation histograms, results tables"),
    ]
    for name, func, positional, help_text in commands:
        sp = sub.add_parser(name, help=help_text)
        if positional is not None:
            sp.add_argument(positional[0], nargs="?", help=positional[1])
        sp.add_argument("--config", metavar="PATH", help="JSON config or a manifest.json to replay")
        sp.add_argument("--out", metavar="DIR", help="output directory (overrides config out_dir)")
        sp.add_argument("--threads", type=int, metavar="N", help="BLAS/OpenMP thread count")
        sp.set_defaults(func=func)
    return parser


# A contract violation (ValueError) inside a command comes from a config
# value, and so does an allocation too large for the machine: a synthetic
# dataset's size, or a real dataset that needs a smaller "limit".
_EXIT_CODES = {
    ConfigError: ("config", 2),
    DataError: ("data", 3),
    NumericError: ("numeric", 4),
    ValueError: ("config", 2),
    MemoryError: ("memory", 2),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be >= 1", file=sys.stderr)
            return 2
        for var in THREAD_ENV_VARS:
            os.environ[var] = str(args.threads)
    args.clock = (time.perf_counter(), time.process_time())
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        label, code = next(v for cls, v in _EXIT_CODES.items() if isinstance(exc, cls))
        print(f"{label} error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
