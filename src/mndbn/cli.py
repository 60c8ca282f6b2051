"""Command-line interface for training, evaluation, and reporting.

Every command reads one JSON config, materializes all defaults, and writes
a manifest.json into the output directory capturing the resolved config,
the effective seed, and a sha256 per artifact. A manifest can be fed back
through --config to replay the run.

The config dataclasses are the schema: the keys, defaults and types of a
"train" or "finetune" block are the fields of TrainConfig or
FineTuneConfig, those of a report config (beside its paths) the fields of
ReportConfig, and those of a synthetic dataset the parameters of
make_synthetic. Each block is built into its dataclass before any data is
loaded, so the dataclasses' own checks are the config checks.

Only the standard library is imported at module load so that --threads can
pin the BLAS thread-count environment variables before numpy comes in;
the numeric modules are imported inside the command handlers.

Exit codes: 0 success, 1 completed with warnings (e.g. empty report
directory), 2 configuration error, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import json
import math
import sys
import time
from pathlib import Path

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
    """Check a JSON value against a field type ("int", "float", "bool",
    "str", or a "tuple[...]" of them, given as a list); integral floats
    pass as ints and ints as floats. A float must be finite: JSON's NaN
    and Infinity, and an int too large for a float, are rejected."""
    if kind.startswith("tuple["):
        kinds = kind[len("tuple[") : -1].split(", ")
        if isinstance(value, (list, tuple)) and len(value) == len(kinds):
            return [_coerce(v, k, f"{field}[{i}]") for i, (v, k) in enumerate(zip(value, kinds))]
        raise ConfigError(f"config field '{field}' must be a list of {len(kinds)} values, got {value!r}")
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


def _resolve_block(schema, cfg, ctx: str, seed):
    """Resolve a block into its config dataclass; a seed given on the
    command line replaces the block's. Returns (JSON block, dataclass)."""
    resolved = _resolve_fields({} if cfg is None else cfg, _fields(schema), ctx)
    if seed is not None:
        resolved["seed"] = int(seed)
    return resolved, _build(ctx, schema, **{_FIELD_NAMES.get(k, k): v for k, v in resolved.items()})


def _load_config(path, command: str) -> dict:
    if path is None:
        raise ConfigError(f"'{command}' needs --config PATH")
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
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


def _make_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out_dir: Path, command: str, config: dict, seed: int, artifacts) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "out_dir": str(out_dir),
        "artifacts": {
            str(rel): hashlib.sha256((out_dir / rel).read_bytes()).hexdigest()
            for rel in sorted(artifacts)
        },
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- datasets


def _resolve_dataset(cfg) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config field 'dataset' must be an object")
    name = _coerce(_require(cfg, "name", "dataset"), "str", "dataset.name")
    if name == "synthetic":
        from .synth import make_synthetic

        fields = _fields(make_synthetic)
    elif name == "usps":
        fields = [("train_path", "str", _REQUIRED), ("test_path", "str", None)]
    elif name in ("mnist", "idx"):
        fields = [(f"train_{k}", "str", _REQUIRED) for k in ("images", "labels")]
        fields += [(f"test_{k}", "str", None) for k in ("images", "labels")]
    else:
        raise ConfigError(
            f"unknown dataset name '{name}' (expected synthetic, usps, mnist, or idx)"
        )
    fields = [("name", "str", _REQUIRED), *fields, ("limit", "int", None)]
    resolved = _resolve_fields(cfg, fields, "dataset")
    if (resolved.get("test_images") is None) != (resolved.get("test_labels") is None):
        raise ConfigError("dataset.test_images and dataset.test_labels must come together")
    if resolved["limit"] is not None and resolved["limit"] < 1:
        raise ConfigError("config field 'dataset.limit' must be >= 1")
    return resolved


def _build_datasets(resolved: dict):
    """Load (train, test-or-None) from a resolved dataset block."""
    name = resolved["name"]
    if name == "synthetic":
        from .synth import make_synthetic

        kwargs = {k: v for k, v in resolved.items() if k not in ("name", "limit")}
        train, test = make_synthetic(**kwargs)
        if resolved["n_test"] == 0:
            test = None
    else:
        from .data import load_idx, load_usps

        def load(split):
            if name == "usps":
                path = resolved[f"{split}_path"]
                return None if path is None else load_usps(path, split=split)
            images, labels = resolved[f"{split}_images"], resolved[f"{split}_labels"]
            return None if images is None else load_idx(images, labels, name=name, split=split)

        train, test = load("train"), load("test")
    if resolved["limit"] is not None:
        train = train.subset(resolved["limit"])
    return train, test


# ---------------------------------------------------------------- config blocks


def _resolve_penalty(cfg, layer_size: int, ctx: str):
    """Resolve a penalty block and build its PenaltyConfig; with lambda 0
    the group size defaults to the whole layer."""
    from .groups import make_partition
    from .mixed_norm import PenaltyConfig

    fields = [
        ("lambda", "float", 0.0),
        ("group_size", "int", None),
        ("overlap_pct", "float", 0.0),
        ("epsilon", "float", PenaltyConfig.epsilon),
    ]
    resolved = _resolve_fields({} if cfg is None else cfg, fields, ctx)
    if resolved["group_size"] is None:
        if resolved["lambda"] != 0.0:
            raise ConfigError(f"config missing required field '{ctx}.group_size'")
        resolved["group_size"] = layer_size
    partition = _build(
        ctx, make_partition, layer_size, resolved["group_size"], resolved["overlap_pct"] / 100.0
    )
    return resolved, _build(ctx, PenaltyConfig, resolved["lambda"], partition, resolved["epsilon"])


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
                   n_samples: int, elapsed: float, **extra) -> None:
    """metrics.json, and confusion.csv (rows true class, columns predicted)."""
    metrics = {
        "architecture": tag,
        "dataset": resolved["dataset"]["name"],
        "split": split,
        "accuracy_pct": 100.0 * acc,
        "n_samples": n_samples,
        "wall_seconds": elapsed,
        **extra,
    }
    (out_dir / "metrics.json").write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    n = confusion.shape[0]
    lines = ["true," + ",".join(f"pred_{c}" for c in range(n))]
    for r in range(n):
        lines.append(str(r) + "," + ",".join(str(int(v)) for v in confusion[r]))
    (out_dir / "confusion.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- commands


def _resolve_pretrain(args, config: dict):
    """A stack of "layer_sizes" (one layer or more), with one shared
    "penalty" or per-layer "penalties". Returns (resolved config, sizes,
    penalty blocks, PenaltyConfigs, TrainConfig)."""
    from .mixed_norm import TrainConfig

    _check_keys(config, {"dataset", "layer_sizes", "penalty", "penalties", "train", "out_dir"},
                "config")
    if "penalty" in config and "penalties" in config:
        raise ConfigError("config holds both 'penalty' and 'penalties'; give one of them")
    resolved = {"dataset": _resolve_dataset(_require(config, "dataset", ""))}
    raw_sizes = _require(config, "layer_sizes", "")
    if not isinstance(raw_sizes, list) or not raw_sizes:
        raise ConfigError("config field 'layer_sizes' must be a non-empty list")
    sizes = [_coerce(s, "int", f"layer_sizes[{i}]") for i, s in enumerate(raw_sizes)]
    raw_pens = config.get("penalties", [config.get("penalty")] * len(sizes))
    if not isinstance(raw_pens, list):
        raise ConfigError("config field 'penalties' must be a list (one block per layer)")
    if len(raw_pens) != len(sizes):
        raise ConfigError(f"got {len(raw_pens)} penalty blocks for {len(sizes)} layers")
    ctxs = [f"penalties[{i}]" if "penalties" in config else "penalty" for i in range(len(sizes))]
    pens, pcfgs = zip(*(_resolve_penalty(*a) for a in zip(raw_pens, sizes, ctxs)))
    resolved["layer_sizes"], resolved["penalties"] = sizes, list(pens)
    resolved["train"], tcfg = _resolve_block(TrainConfig, config.get("train"), "train", args.seed)
    resolved["out_dir"] = str(Path(_resolve_path(args.out, config, "out_dir")))
    return resolved, sizes, list(pens), list(pcfgs), tcfg


def cmd_pretrain(args) -> int:
    """Writes dbn.mndbn and one layer<i>_log.csv per layer."""
    resolved, sizes, pens, pcfgs, tcfg = _resolve_pretrain(
        args, _load_config(args.config, args.command)
    )

    from .core import Rng
    from .dbn import pretrain_greedy
    from .mixed_norm import write_training_log
    from .model_io import save_dbn

    train, _ = _build_datasets(resolved["dataset"])
    tag = _architecture_tag(sizes, pens)
    model, logs = pretrain_greedy(train, sizes, pcfgs, tcfg, Rng(tcfg.seed))
    log_names = [f"layer{i}_log.csv" for i in range(1, len(logs) + 1)]
    meta = {
        "architecture": tag,
        "dataset": resolved["dataset"]["name"],
        "penalties": resolved["penalties"],
        "train": resolved["train"],
    }
    out_dir = _make_dir(resolved["out_dir"])
    save_dbn(model, out_dir / "dbn.mndbn", meta=meta)
    for name, log in zip(log_names, logs):
        write_training_log(out_dir / name, log)
    _write_manifest(out_dir, args.command, resolved, tcfg.seed, ["dbn.mndbn", *log_names])
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
        "out_dir": str(Path(_resolve_path(args.out, config, "out_dir"))),
    }


def _resolve_finetune(args, config: dict):
    """Returns (resolved config, FineTuneConfig)."""
    from .dbn import FineTuneConfig

    resolved = _resolve_model_run(args, config, ["finetune"])
    resolved["finetune"], ft = _resolve_block(
        FineTuneConfig, config.get("finetune"), "finetune", args.seed
    )
    return resolved, ft


def _model_tag(meta: dict, d) -> str:
    return meta.get("architecture") or _architecture_tag([m.n_hidden for m in d.layers], [])


def _load_run(resolved: dict):
    """(network, meta, train, test-or-None) of a finetune or evaluate run,
    each split's image size checked against the network's input size."""
    from .model_io import load_dbn

    path = resolved["model_path"]
    d, meta = load_dbn(path)
    train, test = _build_datasets(resolved["dataset"])
    for ds in (train, test):
        if ds is not None and ds.images.shape[1] != d.n_visible:
            raise ConfigError(
                f"{path} takes {d.n_visible} pixels per image, but the dataset's "
                f"{ds.split} images have {ds.images.shape[1]}"
            )
    return d, meta, train, test


def cmd_finetune(args) -> int:
    resolved, ft = _resolve_finetune(args, _load_config(args.config, "finetune"))

    from .core import Rng
    from .dbn import FineTuneEpoch, attach_head, evaluate, fine_tune
    from .mixed_norm import write_training_log
    from .model_io import save_dbn

    d, meta, train, test = _load_run(resolved)
    attach_head(d, ft.n_classes)
    t0 = time.perf_counter()
    d, log = fine_tune(d, train, ft.epochs, ft, Rng(ft.seed), eval_dataset=test)
    elapsed = time.perf_counter() - t0
    tag = _model_tag(meta, d)
    split, reported = ("test", test) if test is not None else ("train", train)
    acc, confusion = evaluate(d, reported)
    # The last epoch measured the final model on the train split.
    train_acc = log[-1].train_accuracy if log else evaluate(d, train)[0]
    dataset = resolved["dataset"]["name"]
    meta = {"architecture": tag, "dataset": dataset, "finetune": resolved["finetune"]}
    out_dir = _make_dir(resolved["out_dir"])
    save_dbn(d, out_dir / "dbn_finetuned.mndbn", meta=meta)
    write_training_log(out_dir / "finetune_log.csv", log, FineTuneEpoch)
    _write_metrics(out_dir, tag, resolved, split, acc, confusion, len(reported), elapsed,
                   train_accuracy_pct=100.0 * train_acc)
    _write_manifest(
        out_dir,
        "finetune",
        resolved,
        ft.seed,
        ["dbn_finetuned.mndbn", "finetune_log.csv", "metrics.json", "confusion.csv"],
    )
    print(f"{tag}: {split} accuracy {100.0 * acc:.2f}% after {ft.epochs} epochs")
    print(f"wrote {out_dir / 'dbn_finetuned.mndbn'}")
    return 0


def cmd_evaluate(args) -> int:
    resolved = _resolve_model_run(args, _load_config(args.config, "evaluate"))

    from .dbn import evaluate

    model, meta, train, test = _load_run(resolved)
    if model.head is None:
        raise ConfigError(
            f"{resolved['model_path']} has no classification head; run finetune first"
        )
    split, dataset = ("test", test) if test is not None else ("train", train)
    t0 = time.perf_counter()
    acc, confusion = evaluate(model, dataset)
    elapsed = time.perf_counter() - t0
    out_dir = _make_dir(resolved["out_dir"])
    tag = _model_tag(meta, model)
    _write_metrics(out_dir, tag, resolved, split, acc, confusion, len(dataset), elapsed)
    _write_manifest(out_dir, "evaluate", resolved, 0, ["metrics.json", "confusion.csv"])
    print(f"{tag}: {split} accuracy {100.0 * acc:.2f}% on {len(dataset)} samples")
    return 0


def _histogram_batch(model_path: Path, batch_limit: int, batches: dict):
    """The first training images of the dataset recorded in the manifest
    next to a model file. `batches` holds the batches already built in this
    report, keyed by resolved dataset block, so each dataset loads once."""
    manifest_path = model_path.parent / "manifest.json"
    if not manifest_path.exists():
        return None, f"{model_path}: no manifest.json beside it, skipping histogram"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        block = _resolve_dataset(manifest["config"]["dataset"])
        key = json.dumps(block, sort_keys=True)
        if key not in batches:
            train, _ = _build_datasets(block)
            batches[key] = train.images[:batch_limit].copy()
    except (OSError, KeyError, TypeError, ValueError, RecursionError, ConfigError,
            DataError) as exc:
        return None, f"{model_path}: cannot reload dataset for histogram ({exc})"
    return batches[key], None


def cmd_report(args) -> int:
    from .model_io import load_dbn
    from .report import ReportConfig, RunRecord, activation_histogram, results_table, weight_tiles

    config = {} if args.config is None else _load_config(args.config, "report")
    block = {k: v for k, v in config.items() if k not in ("run_dir", "out_dir")}
    resolved, rcfg = _resolve_block(ReportConfig, block, "report", None)
    run_dir = Path(_resolve_path(args.run_dir, config, "run_dir"))
    if not run_dir.is_dir():
        raise ConfigError(f"run directory {run_dir} does not exist")
    out_dir = Path(_resolve_path(args.out, config, "out_dir", run_dir / "report"))
    resolved.update(run_dir=str(run_dir), out_dir=str(out_dir))

    warnings = []
    artifacts = []
    batches = {}
    model_paths = sorted(p for p in run_dir.rglob("*.mndbn") if out_dir not in p.parents)
    # A malformed model fails the run before it makes the output directory.
    models = [load_dbn(path)[0] for path in model_paths]
    _make_dir(out_dir)
    for path, model in zip(model_paths, models):
        rel = path.relative_to(run_dir)
        stem = "_".join(rel.with_suffix("").parts)
        layer = model.layers[0]
        side = math.isqrt(layer.n_visible)
        if side * side == layer.n_visible:
            cols = min(rcfg.grid[1], layer.n_hidden)
            rows = min(rcfg.grid[0], layer.n_hidden // cols)
            name = f"{stem}_tiles.pgm"
            weight_tiles(layer, (rows, cols), out_dir / name)
            artifacts.append(name)
            print(f"wrote {out_dir / name}")
        else:
            warnings.append(f"{path}: visible size {layer.n_visible} is not square, skipping tiles")
        batch, problem = _histogram_batch(path, rcfg.batch_limit, batches)
        if batch is None:
            warnings.append(problem)
        else:
            name = f"{stem}_activations.csv"
            activation_histogram(model, batch, rcfg.bins, out_dir / name)
            artifacts.append(name)
            print(f"wrote {out_dir / name}")
    records = []
    for path in sorted(p for p in run_dir.rglob("metrics.json") if out_dir not in p.parents):
        try:
            blob = json.loads(path.read_text(encoding="utf-8"))
            records.append(
                RunRecord(
                    architecture=blob["architecture"],
                    dataset=blob["dataset"],
                    accuracy_pct=blob["accuracy_pct"],
                    wall_seconds=blob["wall_seconds"],
                )
            )
        except (OSError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            warnings.append(f"{path}: unreadable metrics ({exc})")
    empty = not records and not model_paths
    results_table(records, out_dir / "results.csv", out_dir / "results.txt", include_reference=not empty)
    artifacts.extend(["results.csv", "results.txt"])
    print(f"wrote {out_dir / 'results.csv'}")
    _write_manifest(out_dir, "report", resolved, 0, artifacts)
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
        if func in (cmd_pretrain, cmd_finetune):  # the only commands that read a seed
            sp.add_argument("--seed", type=int, metavar="N", help="seed override")
        sp.add_argument("--threads", type=int, metavar="N", help="BLAS/OpenMP thread count")
        sp.set_defaults(func=func)
    return parser


# A contract violation (ValueError) inside a command comes from a config value.
_EXIT_CODES = {
    ConfigError: ("config", 2),
    DataError: ("data", 3),
    NumericError: ("numeric", 4),
    ValueError: ("config", 2),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be >= 1", file=sys.stderr)
            return 2
        import os

        for var in THREAD_ENV_VARS:
            os.environ[var] = str(args.threads)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        label, code = next(v for cls, v in _EXIT_CODES.items() if isinstance(exc, cls))
        print(f"{label} error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
