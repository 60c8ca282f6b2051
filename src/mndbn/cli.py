"""Command-line interface for training, evaluation, and reporting.

Every command reads one JSON config, materializes all defaults, and writes
a manifest.json into the output directory capturing the resolved config,
the effective seed, and a sha256 per artifact. A manifest can be fed back
through --config to replay the run.

Only the standard library is imported at module load so that --threads can
pin the BLAS thread-count environment variables before numpy comes in;
the numeric modules are imported inside the command handlers.

Exit codes: 0 success, 1 completed with warnings (e.g. empty report
directory), 2 configuration error, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import hashlib
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

_MISSING = object()


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
        raise ConfigError(f"config field '{field}' must be an integer, got {value!r}")
    return int(value)


def _as_float(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config field '{field}' must be a number, got {value!r}")
    return float(value)


def _as_bool(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"config field '{field}' must be true or false, got {value!r}")
    return value


def _as_str(value, field: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"config field '{field}' must be a string, got {value!r}")
    return value


def _check_keys(block: dict, allowed, ctx: str) -> None:
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown config field(s) in {ctx}: {', '.join(unknown)}")


def _require(block: dict, field: str, ctx: str):
    if field not in block:
        dotted = f"{ctx}.{field}" if ctx else field
        raise ConfigError(f"config missing required field '{dotted}'")
    return block[field]


def _load_config(path, command: str) -> dict:
    if path is None:
        raise ConfigError(f"'{command}' needs --config PATH")
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
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


def _resolve_out(args, config: dict) -> Path:
    out = args.out or config.get("out_dir")
    if not out:
        raise ConfigError("config missing required field 'out_dir' (or pass --out DIR)")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, seed: int, artifacts) -> Path:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "out_dir": str(out_dir),
        "artifacts": {str(rel): _sha256(out_dir / rel) for rel in sorted(artifacts)},
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------- datasets

_SYNTH_DEFAULTS = {"n_test": 0, "side": 8, "seed": 0, "noise": 0.1, "max_shift": 1}


def _resolve_dataset(cfg) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config field 'dataset' must be an object")
    name = _as_str(_require(cfg, "name", "dataset"), "dataset.name")
    if name == "synthetic":
        _check_keys(cfg, {"name", "n_train", "limit"} | set(_SYNTH_DEFAULTS), "'dataset'")
        resolved = {
            "name": "synthetic",
            "n_train": _as_int(_require(cfg, "n_train", "dataset"), "dataset.n_train"),
        }
        for key, default in _SYNTH_DEFAULTS.items():
            value = cfg.get(key, default)
            resolved[key] = (
                _as_float(value, f"dataset.{key}") if key == "noise" else _as_int(value, f"dataset.{key}")
            )
    elif name == "usps":
        _check_keys(cfg, {"name", "train_path", "test_path", "limit"}, "'dataset'")
        resolved = {
            "name": "usps",
            "train_path": _as_str(_require(cfg, "train_path", "dataset"), "dataset.train_path"),
            "test_path": None
            if cfg.get("test_path") is None
            else _as_str(cfg["test_path"], "dataset.test_path"),
        }
    elif name in ("mnist", "idx"):
        _check_keys(
            cfg,
            {"name", "train_images", "train_labels", "test_images", "test_labels", "limit"},
            "'dataset'",
        )
        resolved = {"name": name}
        for key in ("train_images", "train_labels"):
            resolved[key] = _as_str(_require(cfg, key, "dataset"), f"dataset.{key}")
        for key in ("test_images", "test_labels"):
            resolved[key] = None if cfg.get(key) is None else _as_str(cfg[key], f"dataset.{key}")
        if (resolved["test_images"] is None) != (resolved["test_labels"] is None):
            raise ConfigError("dataset.test_images and dataset.test_labels must come together")
    else:
        raise ConfigError(
            f"unknown dataset name '{name}' (expected synthetic, usps, mnist, or idx)"
        )
    limit = cfg.get("limit")
    resolved["limit"] = None if limit is None else _as_int(limit, "dataset.limit")
    return resolved


def _build_datasets(resolved: dict):
    """Load (train, test-or-None) from a resolved dataset block."""
    name = resolved["name"]
    if name == "synthetic":
        from .synth import make_synthetic

        train, test = make_synthetic(
            resolved["n_train"],
            resolved["n_test"],
            side=resolved["side"],
            seed=resolved["seed"],
            noise=resolved["noise"],
            max_shift=resolved["max_shift"],
        )
        if resolved["n_test"] == 0:
            test = None
    elif name == "usps":
        from .data import load_usps

        train = load_usps(resolved["train_path"], split="train")
        test = (
            None
            if resolved["test_path"] is None
            else load_usps(resolved["test_path"], split="test")
        )
    else:
        from .data import load_idx

        train = load_idx(resolved["train_images"], resolved["train_labels"], name=name, split="train")
        test = None
        if resolved["test_images"] is not None:
            test = load_idx(resolved["test_images"], resolved["test_labels"], name=name, split="test")
    if resolved["limit"] is not None:
        if resolved["limit"] < 1:
            raise ConfigError("config field 'dataset.limit' must be >= 1")
        train = train.subset(resolved["limit"])
    return train, test


# ---------------------------------------------------------------- config blocks

_TRAIN_DEFAULTS = {
    "lr": 0.1,
    "momentum": 0.5,
    "final_momentum": 0.9,
    "momentum_switch_epoch": 5,
    "batch": 100,
    "epochs": 30,
    "cd_k": 1,
    "seed": 0,
}

_FINETUNE_DEFAULTS = {
    "epochs": 30,
    "batch": 1000,
    "cg_iters": 3,
    "method": "cg",
    "lr": 0.1,
    "c1": 1e-4,
    "backtrack": 0.5,
    "max_backtracks": 30,
    "head_only": False,
    "n_classes": 10,
    "seed": 0,
}


def _resolve_train(cfg, seed_override) -> dict:
    cfg = cfg or {}
    if not isinstance(cfg, dict):
        raise ConfigError("config field 'train' must be an object")
    _check_keys(cfg, set(_TRAIN_DEFAULTS), "'train'")
    resolved = {}
    for key, default in _TRAIN_DEFAULTS.items():
        value = cfg.get(key, default)
        if key in ("lr", "momentum", "final_momentum"):
            resolved[key] = _as_float(value, f"train.{key}")
        else:
            resolved[key] = _as_int(value, f"train.{key}")
    if seed_override is not None:
        resolved["seed"] = int(seed_override)
    return resolved


def _resolve_penalty(cfg, layer_size: int, ctx: str = "penalty") -> dict:
    cfg = cfg or {}
    if not isinstance(cfg, dict):
        raise ConfigError(f"config field '{ctx}' must be an object")
    _check_keys(cfg, {"lambda", "group_size", "overlap_pct", "epsilon"}, f"'{ctx}'")
    lam = _as_float(cfg.get("lambda", 0.0), f"{ctx}.lambda")
    if lam < 0.0:
        raise ConfigError(f"config field '{ctx}.lambda' must be >= 0")
    if "group_size" in cfg:
        group_size = _as_int(cfg["group_size"], f"{ctx}.group_size")
    elif lam == 0.0:
        group_size = layer_size
    else:
        raise ConfigError(f"config missing required field '{ctx}.group_size'")
    overlap_pct = _as_float(cfg.get("overlap_pct", 0.0), f"{ctx}.overlap_pct")
    if not 0.0 <= overlap_pct < 100.0:
        raise ConfigError(f"config field '{ctx}.overlap_pct' must be in [0, 100)")
    epsilon = _as_float(cfg.get("epsilon", 1e-8), f"{ctx}.epsilon")
    return {"lambda": lam, "group_size": group_size, "overlap_pct": overlap_pct, "epsilon": epsilon}


def _resolve_finetune(cfg, seed_override) -> dict:
    cfg = cfg or {}
    if not isinstance(cfg, dict):
        raise ConfigError("config field 'finetune' must be an object")
    _check_keys(cfg, set(_FINETUNE_DEFAULTS), "'finetune'")
    resolved = {}
    for key, default in _FINETUNE_DEFAULTS.items():
        value = cfg.get(key, default)
        if key in ("lr", "c1", "backtrack"):
            resolved[key] = _as_float(value, f"finetune.{key}")
        elif key == "head_only":
            resolved[key] = _as_bool(value, f"finetune.{key}")
        elif key == "method":
            resolved[key] = _as_str(value, f"finetune.{key}")
        else:
            resolved[key] = _as_int(value, f"finetune.{key}")
    if seed_override is not None:
        resolved["seed"] = int(seed_override)
    return resolved


def _build_penalty_config(layer_size: int, pres: dict):
    from .groups import make_partition
    from .mixed_norm import PenaltyConfig

    partition = make_partition(layer_size, pres["group_size"], pres["overlap_pct"] / 100.0)
    return PenaltyConfig(lam=pres["lambda"], partition=partition, epsilon=pres["epsilon"])


def _build_train_config(tres: dict):
    from .mixed_norm import TrainConfig

    return TrainConfig(
        lr=tres["lr"],
        momentum=tres["momentum"],
        final_momentum=tres["final_momentum"],
        momentum_switch_epoch=tres["momentum_switch_epoch"],
        batch_size=tres["batch"],
        epochs=tres["epochs"],
        cd_k=tres["cd_k"],
        seed=tres["seed"],
    )


def _architecture_tag(layer_sizes, penalties) -> str:
    sizes = "-".join(str(s) for s in layer_sizes)
    active = [p for p in penalties if p["lambda"] > 0.0]
    if not active:
        return f"dbn({sizes})" if len(layer_sizes) > 1 else f"rbm({sizes})"
    p = active[0]
    if p["overlap_pct"] > 0.0:
        return f"mn-dbn-overlap(g{p['group_size']}/{p['overlap_pct']:g}%,{sizes})"
    return f"mn-dbn(g{p['group_size']},{sizes})"


def _write_confusion(path: Path, confusion) -> None:
    n = confusion.shape[0]
    lines = ["true," + ",".join(f"pred_{c}" for c in range(n))]
    for r in range(n):
        lines.append(str(r) + "," + ",".join(str(int(v)) for v in confusion[r]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- commands


def cmd_train_rbm(args) -> int:
    config = _load_config(args.config, "train-rbm")
    _check_keys(config, {"dataset", "layer_size", "penalty", "train", "out_dir"}, "config")
    dres = _resolve_dataset(_require(config, "dataset", ""))
    layer_size = _as_int(_require(config, "layer_size", ""), "layer_size")
    pres = _resolve_penalty(config.get("penalty"), layer_size)
    tres = _resolve_train(config.get("train"), args.seed)
    out_dir = _resolve_out(args, config)
    resolved = {
        "dataset": dres,
        "layer_size": layer_size,
        "penalty": pres,
        "train": tres,
        "out_dir": str(out_dir),
    }

    from .core import Rng
    from .mixed_norm import train_mnrbm, write_training_log
    from .model_io import save_rbm

    train, _ = _build_datasets(dres)
    pcfg = _build_penalty_config(layer_size, pres)
    tcfg = _build_train_config(tres)
    tag = _architecture_tag([layer_size], [pres])
    model, log = train_mnrbm(train, layer_size, pcfg, tcfg, Rng(tres["seed"]))
    meta = {"architecture": tag, "dataset": dres["name"], "penalty": pres, "train": tres}
    save_rbm(model, out_dir / "model.mndbn", meta=meta)
    write_training_log(out_dir / "training_log.csv", log)
    _write_manifest(out_dir, "train-rbm", resolved, tres["seed"], ["model.mndbn", "training_log.csv"])
    final = log[-1] if log else None
    if final is not None:
        print(
            f"{tag}: {len(log)} epochs, final reconstruction error "
            f"{final.recon_error:.6f}, mean activation {final.mean_hidden_activation:.4f}"
        )
    print(f"wrote {out_dir / 'model.mndbn'}")
    return 0


def cmd_pretrain_dbn(args) -> int:
    config = _load_config(args.config, "pretrain-dbn")
    _check_keys(config, {"dataset", "layer_sizes", "penalties", "penalty", "train", "out_dir"}, "config")
    dres = _resolve_dataset(_require(config, "dataset", ""))
    raw_sizes = _require(config, "layer_sizes", "")
    if not isinstance(raw_sizes, list) or not raw_sizes:
        raise ConfigError("config field 'layer_sizes' must be a non-empty list")
    layer_sizes = [_as_int(s, f"layer_sizes[{i}]") for i, s in enumerate(raw_sizes)]
    raw_pens = config.get("penalties")
    if raw_pens is None:
        raw_pens = [config.get("penalty")] * len(layer_sizes)
    if not isinstance(raw_pens, list):
        raise ConfigError("config field 'penalties' must be a list (one block per layer)")
    if len(raw_pens) != len(layer_sizes):
        raise ConfigError(
            f"got {len(raw_pens)} penalty blocks for {len(layer_sizes)} layers"
        )
    penalties = [
        _resolve_penalty(p, layer_sizes[i], ctx=f"penalties[{i}]") for i, p in enumerate(raw_pens)
    ]
    tres = _resolve_train(config.get("train"), args.seed)
    out_dir = _resolve_out(args, config)
    resolved = {
        "dataset": dres,
        "layer_sizes": layer_sizes,
        "penalties": penalties,
        "train": tres,
        "out_dir": str(out_dir),
    }

    from .core import Rng
    from .dbn import pretrain_greedy
    from .mixed_norm import write_training_log
    from .model_io import save_dbn

    train, _ = _build_datasets(dres)
    pcfgs = [_build_penalty_config(layer_sizes[i], penalties[i]) for i in range(len(layer_sizes))]
    tcfg = _build_train_config(tres)
    tag = _architecture_tag(layer_sizes, penalties)
    d, logs = pretrain_greedy(train, layer_sizes, pcfgs, tcfg, Rng(tres["seed"]))
    meta = {
        "architecture": tag,
        "dataset": dres["name"],
        "penalties": penalties,
        "train": tres,
    }
    save_dbn(d, out_dir / "dbn.mndbn", meta=meta)
    artifacts = ["dbn.mndbn"]
    for i, log in enumerate(logs, start=1):
        name = f"layer{i}_log.csv"
        write_training_log(out_dir / name, log)
        artifacts.append(name)
    _write_manifest(out_dir, "pretrain-dbn", resolved, tres["seed"], artifacts)
    print(f"{tag}: pretrained {len(layer_sizes)} layers on {len(train)} images")
    print(f"wrote {out_dir / 'dbn.mndbn'}")
    return 0


def cmd_finetune(args) -> int:
    config = _load_config(args.config, "finetune")
    _check_keys(config, {"model_path", "dataset", "finetune", "out_dir"}, "config")
    model_path = args.model or config.get("model_path")
    if not model_path:
        raise ConfigError("finetune needs a model path (positional argument or 'model_path')")
    dres = _resolve_dataset(_require(config, "dataset", ""))
    fres = _resolve_finetune(config.get("finetune"), args.seed)
    out_dir = _resolve_out(args, config)
    resolved = {
        "model_path": str(model_path),
        "dataset": dres,
        "finetune": fres,
        "out_dir": str(out_dir),
    }

    from .core import Rng
    from .dbn import (
        Dbn,
        FineTuneConfig,
        attach_head,
        evaluate,
        fine_tune,
        write_finetune_log,
    )
    from .model_io import load_model, save_dbn

    model, meta = load_model(model_path)
    d = model if isinstance(model, Dbn) else Dbn([model])
    attach_head(d, fres["n_classes"])
    train, test = _build_datasets(dres)
    ft_cfg = FineTuneConfig(
        batch_size=fres["batch"],
        cg_iters=fres["cg_iters"],
        method=fres["method"],
        lr=fres["lr"],
        c1=fres["c1"],
        backtrack=fres["backtrack"],
        max_backtracks=fres["max_backtracks"],
    )
    t0 = time.perf_counter()
    d, log = fine_tune(
        d,
        train,
        fres["epochs"],
        ft_cfg,
        Rng(fres["seed"]),
        head_only=fres["head_only"],
        eval_dataset=test,
    )
    elapsed = time.perf_counter() - t0
    tag = meta.get("architecture") or _architecture_tag(
        [m.n_hidden for m in d.layers], [{"lambda": 0.0}]
    )
    split, reported = ("test", test) if test is not None else ("train", train)
    acc, confusion = evaluate(d, reported)
    n_samples = len(reported)
    if test is None:
        train_acc = acc
    elif log:  # the last epoch measured the final model on the train split
        train_acc = log[-1].train_accuracy
    else:
        train_acc, _ = evaluate(d, train)
    save_dbn(
        d,
        out_dir / "dbn_finetuned.mndbn",
        meta={"architecture": tag, "dataset": dres["name"], "finetune": fres},
    )
    write_finetune_log(out_dir / "finetune_log.csv", log)
    metrics = {
        "architecture": tag,
        "dataset": dres["name"],
        "split": split,
        "accuracy_pct": 100.0 * acc,
        "train_accuracy_pct": 100.0 * train_acc,
        "n_samples": n_samples,
        "wall_seconds": elapsed,
    }
    (out_dir / "metrics.json").write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _write_confusion(out_dir / "confusion.csv", confusion)
    _write_manifest(
        out_dir,
        "finetune",
        resolved,
        fres["seed"],
        ["dbn_finetuned.mndbn", "finetune_log.csv", "metrics.json", "confusion.csv"],
    )
    print(f"{tag}: {split} accuracy {100.0 * acc:.2f}% after {fres['epochs']} epochs")
    print(f"wrote {out_dir / 'dbn_finetuned.mndbn'}")
    return 0


def cmd_evaluate(args) -> int:
    config = _load_config(args.config, "evaluate")
    _check_keys(config, {"model_path", "dataset", "out_dir"}, "config")
    model_path = args.model or config.get("model_path")
    if not model_path:
        raise ConfigError("evaluate needs a model path (positional argument or 'model_path')")
    dres = _resolve_dataset(_require(config, "dataset", ""))
    out_dir = _resolve_out(args, config)
    resolved = {"model_path": str(model_path), "dataset": dres, "out_dir": str(out_dir)}

    from .dbn import Dbn, evaluate
    from .model_io import load_model

    model, meta = load_model(model_path)
    if not isinstance(model, Dbn) or model.head is None:
        raise ConfigError(
            f"{model_path} has no classification head; run finetune first"
        )
    train, test = _build_datasets(dres)
    dataset = test if test is not None else train
    split = "test" if test is not None else "train"
    t0 = time.perf_counter()
    acc, confusion = evaluate(model, dataset)
    elapsed = time.perf_counter() - t0
    tag = meta.get("architecture") or f"dbn({'-'.join(str(m.n_hidden) for m in model.layers)})"
    metrics = {
        "architecture": tag,
        "dataset": dres["name"],
        "split": split,
        "accuracy_pct": 100.0 * acc,
        "n_samples": len(dataset),
        "wall_seconds": elapsed,
    }
    (out_dir / "metrics.json").write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _write_confusion(out_dir / "confusion.csv", confusion)
    _write_manifest(out_dir, "evaluate", resolved, 0, ["metrics.json", "confusion.csv"])
    print(f"{tag}: {split} accuracy {100.0 * acc:.2f}% on {len(dataset)} samples")
    return 0


def _histogram_batch(model_path: Path, batch_limit: int):
    """Training images recorded in the manifest next to a model file."""
    manifest_path = model_path.parent / "manifest.json"
    if not manifest_path.exists():
        return None, f"{model_path}: no manifest.json beside it, skipping histogram"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        dres = manifest["config"]["dataset"]
        train, _ = _build_datasets(dres)
    except (OSError, KeyError, TypeError, ValueError, ConfigError, DataError) as exc:
        return None, f"{model_path}: cannot reload dataset for histogram ({exc})"
    return train.images[: max(1, batch_limit)], None


def cmd_report(args) -> int:
    config = {}
    if args.config is not None:
        config = _load_config(args.config, "report")
        _check_keys(config, {"run_dir", "bins", "grid", "batch_limit", "out_dir"}, "config")
    run_dir = args.run_dir or config.get("run_dir")
    if not run_dir:
        raise ConfigError("report needs a run directory (positional argument or 'run_dir')")
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise ConfigError(f"run directory {run_dir} does not exist")
    bins = _as_int(config.get("bins", 20), "bins")
    grid = config.get("grid", [10, 10])
    if not isinstance(grid, list) or len(grid) != 2:
        raise ConfigError("config field 'grid' must be [rows, cols]")
    grid = [_as_int(grid[0], "grid[0]"), _as_int(grid[1], "grid[1]")]
    batch_limit = _as_int(config.get("batch_limit", 1000), "batch_limit")
    out = args.out or config.get("out_dir") or (run_dir / "report")
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = {
        "run_dir": str(run_dir),
        "bins": bins,
        "grid": grid,
        "batch_limit": batch_limit,
        "out_dir": str(out_dir),
    }

    from .dbn import Dbn
    from .model_io import load_model
    from .report import RunRecord, activation_histogram, results_table, weight_tiles

    warnings = []
    artifacts = []
    model_paths = sorted(p for p in run_dir.rglob("*.mndbn") if out_dir not in p.parents)
    for path in model_paths:
        rel = path.relative_to(run_dir)
        stem = "_".join(rel.with_suffix("").parts)
        model, _ = load_model(path)
        layer = model.layers[0] if isinstance(model, Dbn) else model
        side = math.isqrt(layer.n_visible)
        if side * side == layer.n_visible:
            cols = min(grid[1], layer.n_hidden)
            rows = min(grid[0], layer.n_hidden // cols)
            name = f"{stem}_tiles.pgm"
            weight_tiles(layer, (rows, cols), out_dir / name)
            artifacts.append(name)
            print(f"wrote {out_dir / name}")
        else:
            warnings.append(f"{path}: visible size {layer.n_visible} is not square, skipping tiles")
        batch, problem = _histogram_batch(path, batch_limit)
        if batch is None:
            warnings.append(problem)
        else:
            name = f"{stem}_activations.csv"
            activation_histogram(model, batch, bins, out_dir / name)
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
                    accuracy_pct=float(blob["accuracy_pct"]),
                    wall_seconds=float(blob["wall_seconds"]),
                )
            )
        except (OSError, KeyError, TypeError, ValueError) as exc:
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

    def common(sp):
        sp.add_argument("--config", metavar="PATH", help="JSON config or a manifest.json to replay")
        sp.add_argument("--out", metavar="DIR", help="output directory (overrides config out_dir)")
        sp.add_argument("--seed", type=int, metavar="N", help="seed override")
        sp.add_argument("--threads", type=int, metavar="N", help="BLAS/OpenMP thread count")

    sp = sub.add_parser("train-rbm", help="train one (optionally group-sparse) feature layer")
    common(sp)
    sp.set_defaults(func=cmd_train_rbm)

    sp = sub.add_parser("pretrain-dbn", help="greedy layer-wise pretraining of a layer stack")
    common(sp)
    sp.set_defaults(func=cmd_pretrain_dbn)

    sp = sub.add_parser("finetune", help="attach a softmax head and fine-tune")
    sp.add_argument("model", nargs="?", help="path to a pretrained model file")
    common(sp)
    sp.set_defaults(func=cmd_finetune)

    sp = sub.add_parser("evaluate", help="accuracy and confusion matrix of a fine-tuned model")
    sp.add_argument("model", nargs="?", help="path to a fine-tuned model file")
    common(sp)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("report", help="weight tiles, activation histograms, results tables")
    sp.add_argument("run_dir", nargs="?", help="directory holding run artifacts")
    common(sp)
    sp.set_defaults(func=cmd_report)

    return parser


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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
