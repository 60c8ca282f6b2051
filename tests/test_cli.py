"""End-to-end command-line workflows on the synthetic dataset."""

import argparse
import ast
import csv
import gzip
import inspect
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import idx_bytes, random_rbm, src_env
import mndbn
from mndbn import cli, report, synth
from mndbn.cli import main
from mndbn.dbn import Dbn, FineTuneConfig, attach_head
from mndbn.mixed_norm import TrainConfig
from mndbn.model_io import load_dbn, save_dbn


def synth_block(n_train=120, n_test=0, side=4, seed=0):
    return {"name": "synthetic", "n_train": n_train, "n_test": n_test,
            "side": side, "seed": seed}


def write_config(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload, indent=2))
    return p


def rbm_config(tmp_path, out_dir, lam=0.1, group_size=6, overlap_pct=0.0,
               layer_size=24, name="rbm.json"):
    """A pretrain-dbn config of one feature layer."""
    payload = {
        "dataset": synth_block(),
        "layer_sizes": [layer_size],
        "penalty": {"lambda": lam, "group_size": group_size, "overlap_pct": overlap_pct},
        "train": {"epochs": 2, "batch": 40, "seed": 0},
        "out_dir": str(out_dir),
    }
    return write_config(tmp_path, name, payload)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("command", ["pretrain-dbn", "finetune", "evaluate", "report"])
@pytest.mark.parametrize("blob", [b"{not json", b"[" * 100000, b'{"a": ' * 100000, b"\xff\xfe{"],
                         ids=["not-json", "deep-array", "deep-object", "not-utf8"])
def test_malformed_config_is_config_error(tmp_path, capsys, command, blob):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(blob)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: config {cfg} is not valid JSON: ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, config", [
    ("pretrain-dbn", {"dataset": synth_block(), "layer_sizes": [8], "out_dir": 5}),
    ("finetune", {"model_path": "m.mndbn", "dataset": synth_block(), "out_dir": 5}),
    ("evaluate", {"model_path": "m.mndbn", "dataset": synth_block(), "out_dir": 5}),
    ("report", {"run_dir": ".", "out_dir": 5}),
    ("report", {"run_dir": 5, "out_dir": "report"}),
    ("finetune", {"model_path": ["a"], "dataset": synth_block(), "out_dir": "ft"}),
    ("evaluate", {"model_path": ["a"], "dataset": synth_block(), "out_dir": "ev"}),
], ids=["pretrain-dbn", "finetune", "evaluate", "report", "report-run_dir",
        "finetune-model_path", "evaluate-model_path"])
def test_path_key_of_wrong_type_is_config_error(tmp_path, monkeypatch, capsys, command, config):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "bad.json", config)
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    key = next(k for k in ("out_dir", "run_dir", "model_path")
               if not isinstance(config.get(k, ""), str))
    assert err.startswith("config error:") and f"'{key}'" in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def _float_keys(schema):
    return [key for key, kind, _ in cli._fields(schema) if kind == "float"]


# Every float field of the blocks a run reads: (block, key). The penalty
# block's fields are listed in cli._resolve_penalty, not in a dataclass.
_FLOAT_FIELDS = (
    [("train", k) for k in _float_keys(TrainConfig)]
    + [("penalty", k) for k in ("lambda", "overlap_pct")]
    + [("finetune", k) for k in _float_keys(FineTuneConfig)]
    + [("dataset", k) for k in _float_keys(synth.make_synthetic)]
)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("block, key", _FLOAT_FIELDS,
                         ids=[f"{b}.{k}" for b, k in _FLOAT_FIELDS])
def test_non_finite_float_is_config_error(tmp_path, capsys, block, key, value):
    out = tmp_path / "run"
    payload = {"dataset": synth_block(), "out_dir": str(out)}
    if block == "finetune":
        command = ["finetune", str(tmp_path / "m.mndbn")]
        save_dbn(Dbn([random_rbm(0, 16, 8)]), tmp_path / "m.mndbn")
        payload["finetune"] = {"epochs": 1}
    else:
        command = ["pretrain-dbn"]
        payload.update(layer_sizes=[8], penalty={"lambda": 0.1, "group_size": 4},
                       train={"epochs": 1, "batch": 40})
    payload[block][key] = value
    cfg = write_config(tmp_path, "bad.json", payload)   # json writes NaN, Infinity
    assert main([*command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"'{block}.{key}' must be a finite number" in err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # lr 1e308 overflows on purpose
@pytest.mark.parametrize("command", ["pretrain-dbn"])
def test_numeric_failure_leaves_no_out_dir(tmp_path, capsys, command):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "big.json", {
        "dataset": synth_block(), "layer_sizes": [8], "train": {"epochs": 2, "lr": 1e308},
        "out_dir": str(out),
    })
    assert main([command, "--config", str(cfg)]) == 4
    assert capsys.readouterr().err.startswith("numeric error:")
    assert not out.exists()


@pytest.mark.parametrize("command", ["pretrain-dbn"])
def test_overflow_in_first_epoch_is_numeric_error(tmp_path, capsys, command):
    # One epoch at lr 1e308 overflows the forward pass without making a
    # parameter infinite; it must fail like a non-finite parameter does.
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "big.json", {
        "dataset": synth_block(), "layer_sizes": [8], "train": {"epochs": 1, "lr": 1e308},
        "out_dir": str(out),
    })
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(cfg)]) == 4
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err.startswith("numeric error: overflow")
    assert not out.exists()


@pytest.mark.parametrize("command", ["pretrain-dbn", "finetune"])
def test_out_of_memory_is_config_error_exit(tmp_path, monkeypatch, capsys, command):
    # A synthetic block of side 100000 asks _prototypes for 745 GiB. The
    # failure is simulated on a small block: an overcommitting host grants
    # the real request, and the process is killed while the array fills.
    def oversized(side, rng):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape "
                          "(10, 100000, 100000) and data type float64")

    monkeypatch.setattr(synth, "_prototypes", oversized)
    out = tmp_path / "run"
    payload = {"dataset": synth_block(), "out_dir": str(out)}
    args = [command]
    if command == "pretrain-dbn":
        payload["layer_sizes"] = [8]
    else:
        save_dbn(attach_head(Dbn([random_rbm(0, 16, 8)]), 10), tmp_path / "m.mndbn")
        args.append(str(tmp_path / "m.mndbn"))
    cfg = write_config(tmp_path, "big.json", payload)
    assert main([*args, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("memory error: Unable to allocate 745. GiB") and err.count("\n") == 1
    assert not out.exists()


def test_layer_beyond_physical_memory_is_config_error(tmp_path, capsys):
    # At lambda 0 the one group spans the layer; its 256 TiB cover table is
    # refused from the sizes, not left to the allocator.
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "big.json", {"dataset": synth_block(),
                                              "layer_sizes": [2**45], "out_dir": str(out)})
    assert main(["pretrain-dbn", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: penalty: layer size 35184372088832") \
        and err.count("\n") == 1
    assert not out.exists()

class TestTrainRbm:
    """One feature layer: pretrain-dbn with a one-element layer_sizes."""

    def test_group_sparse_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = rbm_config(tmp_path, out)
        assert main(["pretrain-dbn", "--config", str(cfg)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "dbn.mndbn", "dbn_activations.csv", "layer1_log.csv", "manifest.json",
            "timings.json"]
        model, meta = load_dbn(out / "dbn.mndbn")
        assert len(model.layers) == 1 and model.head is None
        assert (model.n_visible, model.n_features) == (16, 24)
        assert meta["architecture"] == "mn-dbn(g6,24)"
        log = read_csv(out / "layer1_log.csv")
        assert log[0] == ["epoch", "recon_error", "mean_hidden_activation", "mixed_norm_value"]
        assert len(log) == 3   # header + one row per epoch
        # The console shows each layer's last epoch, as logged.
        recon, act = float(log[-1][1]), float(log[-1][2])
        assert (f"layer 1: 2 epochs, final reconstruction error {recon:.6f}, "
                f"mean activation {act:.4f}") in capsys.readouterr().out

    def test_lambda_zero_is_tagged_vanilla(self, tmp_path):
        out = tmp_path / "run"
        cfg = rbm_config(tmp_path, out, lam=0.0)
        assert main(["pretrain-dbn", "--config", str(cfg)]) == 0
        _, meta = load_dbn(out / "dbn.mndbn")
        assert meta["architecture"] == "rbm(24)"

    def test_invalid_overlap_layout_is_config_error(self, tmp_path, capsys):
        # groups of 50 at 20% overlap stride 40: (500 - 50) % 40 != 0
        out = tmp_path / "run"
        cfg = rbm_config(tmp_path, out, lam=0.1, group_size=50, overlap_pct=20.0,
                         layer_size=500)
        assert main(["pretrain-dbn", "--config", str(cfg)]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_unknown_dataset_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {
            "dataset": {"name": "imagenet"},
            "layer_sizes": [8],
            "out_dir": str(tmp_path / "run"),
        })
        assert main(["pretrain-dbn", "--config", str(cfg)]) == 2

    def test_idx_dataset_name_is_config_error(self, tmp_path, capsys):
        # "idx" was an alias of "mnist"; the files are good, so only the
        # name can be at fault.
        (tmp_path / "im.idx").write_bytes(_GOOD_IMAGES)
        (tmp_path / "lb.idx").write_bytes(_GOOD_LABELS)
        out = tmp_path / "run"
        cfg = write_config(tmp_path, "bad.json", {
            "dataset": {"name": "idx", "train_images": str(tmp_path / "im.idx"),
                        "train_labels": str(tmp_path / "lb.idx")},
            "layer_sizes": [4],
            "out_dir": str(out),
        })
        assert main(["pretrain-dbn", "--config", str(cfg)]) == 2
        assert "unknown dataset name 'idx' (expected synthetic, usps or mnist)" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_negative_synthetic_setting_is_named(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, "bad.json", {
            "dataset": {**synth_block(), "max_shift": -2},
            "layer_sizes": [4],
            "out_dir": str(out),
        })
        assert main(["pretrain-dbn", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "config error: dataset: max_shift must be >= 0, got -2\n"
        assert not out.exists()

    def test_missing_required_field_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {
            "dataset": synth_block(),
            "out_dir": str(tmp_path / "run"),
        })
        assert main(["pretrain-dbn", "--config", str(cfg)]) == 2
        assert "'layer_sizes'" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {
            "dataset": synth_block(),
            "layer_sizes": [8],
            "learning_rate": 0.1,
            "out_dir": str(tmp_path / "run"),
        })
        assert main(["pretrain-dbn", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("train", [
        {"epochs": -2}, {"batch": 0}, {"epochs": 1.5}, {"epochs": float("inf")},
        {"epochs": 1, "lr": -1}, {"epochs": 0, "lr": -1}, {"lr": 0}, {"lr": float("nan")},
        # keys the block held, at their last defaults, before CD-1 and the
        # momentum values became constants
        {"momentum": 0.5}, {"final_momentum": 0.9}, {"cd_k": 1},
        {"momentum_switch_epoch": 2.5}, {"batch": "100"}, {"seed": -1},
        {"momentum_switch_epoch": -1},
    ])
    def test_invalid_schedule_is_config_error(self, tmp_path, capsys, train):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, "bad.json", {
            "dataset": synth_block(),
            "layer_sizes": [8],
            "train": train,
            "out_dir": str(out),
        })
        assert main(["pretrain-dbn", "--config", str(cfg)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("penalty", [
        {"lambda": -0.1, "group_size": 4},
        {"lambda": 0.1, "group_size": 4, "overlap_pct": 100.0},
        {"lambda": 0.1, "group_size": 4, "overlap_pct": -50.0},
        {"lambda": 0.1, "group_size": 3},
        {"lambda": 0.1},
    ])
    def test_invalid_penalty_is_config_error(self, tmp_path, capsys, penalty):
        cfg = write_config(tmp_path, "bad.json", {
            "dataset": synth_block(),
            "layer_sizes": [8],
            "penalty": penalty,
            "out_dir": str(tmp_path / "run"),
        })
        assert main(["pretrain-dbn", "--config", str(cfg)]) == 2
        assert "penalty" in capsys.readouterr().err

    def test_missing_data_file_is_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {
            "dataset": {"name": "usps", "train_path": str(tmp_path / "nope.txt")},
            "layer_sizes": [8],
            "out_dir": str(tmp_path / "run"),
        })
        assert main(["pretrain-dbn", "--config", str(cfg)]) == 3
        assert "data error:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_manifest_replay_reproduces_model_bytes(self, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        cfg = rbm_config(tmp_path, out1)
        assert main(["pretrain-dbn", "--config", str(cfg)]) == 0
        assert main(["pretrain-dbn", "--config", str(out1 / "manifest.json"),
                     "--out", str(out2)]) == 0
        assert (out1 / "dbn.mndbn").read_bytes() == (out2 / "dbn.mndbn").read_bytes()
        manifests = [json.loads((out / "manifest.json").read_text()) for out in (out1, out2)]
        assert manifests[0]["artifacts"] == manifests[1]["artifacts"]

    def test_manifest_with_top_level_seed_and_out_dir_replays(self, tmp_path):
        # Manifests once repeated the seed and out_dir beside their config
        # block; replay reads only the block, so such a manifest still replays.
        out = tmp_path / "run1"
        assert main(["pretrain-dbn", "--config", str(rbm_config(tmp_path, out))]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest.update(seed=0, out_dir=str(out))
        old, replay = write_config(tmp_path, "old_manifest.json", manifest), tmp_path / "replay"
        assert main(["pretrain-dbn", "--config", str(old), "--out", str(replay)]) == 0
        assert json.loads((replay / "manifest.json").read_text())["artifacts"] == \
            manifest["artifacts"]

    def test_manifest_replay_rejects_wrong_command(self, tmp_path, capsys):
        out1 = tmp_path / "run1"
        cfg = rbm_config(tmp_path, out1)
        assert main(["pretrain-dbn", "--config", str(cfg)]) == 0
        assert main(["finetune", "--config", str(out1 / "manifest.json")]) == 2
        assert "written by 'pretrain-dbn', not 'finetune'" in capsys.readouterr().err

    def test_thread_flag_validation(self, tmp_path, capsys):
        assert main(["pretrain-dbn", "--threads", "0",
                     "--config", str(rbm_config(tmp_path, tmp_path / "r"))]) == 2


def _usps_text(label="3", pixel="0.5"):
    return " ".join([label] + [pixel] * 256) + "\n"


_GOOD_IMAGES = idx_bytes(0x803, 2, 2, 2, payload=bytes(8))
_GOOD_LABELS = idx_bytes(0x801, 2, payload=bytes([1, 2]))

# case -> (dataset kind, files in config order, where the message points).
_BAD_DATA_FILES = {
    "idx-empty": ("idx", {"im.idx": idx_bytes(0x803, 0, 2, 2),
                          "lb.idx": idx_bytes(0x801, 0)}, "im.idx"),
    "idx-0x4-images": ("idx", {"im.idx": idx_bytes(0x803, 6, 0, 4),
                               "lb.idx": idx_bytes(0x801, 6, payload=bytes(6))}, "im.idx"),
    "idx-label-12": ("idx", {"im.idx": _GOOD_IMAGES,
                             "lb.idx": idx_bytes(0x801, 2, payload=b"\x01\x0c")}, "lb.idx"),
    "truncated-gz": ("idx", {"im.idx.gz": gzip.compress(_GOOD_IMAGES)[:-6],
                             "lb.idx": _GOOD_LABELS}, "im.idx.gz"),
    "gz-not-gzip": ("idx", {"im.idx.gz": _GOOD_IMAGES, "lb.idx": _GOOD_LABELS}, "im.idx.gz"),
    "idx-huge-header": ("idx", {"im.idx": idx_bytes(0x803, *[0xFFFFFFFF] * 3),
                                "lb.idx": _GOOD_LABELS}, "im.idx"),
    "idx-large-header": ("idx", {"im.idx": idx_bytes(0x803, 100000, 1000, 1000),
                                 "lb.idx": _GOOD_LABELS}, "im.idx"),
    "usps-inf-label": ("usps", {"u.txt": _usps_text(label="inf").encode()}, "u.txt:1:"),
    "usps-nan-label": ("usps", {"u.txt": _usps_text(label="nan").encode()}, "u.txt:1:"),
    "usps-label-3.4": ("usps", {"u.txt": _usps_text(label="3.4").encode()}, "u.txt:1:"),
    "usps-label-minus-0.4": ("usps", {"u.txt": _usps_text(label="-0.4").encode()}, "u.txt:1:"),
    "usps-not-utf8": ("usps", {"u.txt": b"\xff\xfe" + _usps_text().encode()}, "u.txt"),
    "usps-nan-pixels": ("usps", {"u.txt": (_usps_text() + _usps_text(pixel="nan")).encode()},
                        "u.txt:2:"),
}


@pytest.mark.parametrize("case", sorted(_BAD_DATA_FILES))
def test_malformed_data_file_is_data_error(tmp_path, capsys, case):
    kind, files, where = _BAD_DATA_FILES[case]
    paths = []
    for name, blob in files.items():
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_bytes(blob)
    if kind == "usps":
        dataset = {"name": "usps", "train_path": paths[0]}
    else:
        dataset = {"name": "mnist", "train_images": paths[0], "train_labels": paths[1]}
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "bad.json", {"dataset": dataset, "layer_sizes": [4],
                                              "out_dir": str(out)})
    assert main(["pretrain-dbn", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert str(tmp_path / where) in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["pretrain-dbn", "finetune", "evaluate", "report"])
def test_seed_flag_rejected_where_no_seed_is_read(tmp_path, capsys, command):
    # A seed comes only from the config's train or finetune block.
    positional = [] if command == "pretrain-dbn" else [str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main([command, *positional, "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


class TestPretrainDbn:
    def dbn_config(self, tmp_path, out_dir, penalties=None):
        payload = {
            "dataset": synth_block(),
            "layer_sizes": [16, 12],
            "train": {"epochs": 2, "batch": 40, "seed": 0},
            "out_dir": str(out_dir),
        }
        if penalties is not None:
            payload["penalties"] = penalties
        return write_config(tmp_path, "dbn.json", payload)

    def test_two_layer_run(self, tmp_path):
        out = tmp_path / "run"
        cfg = self.dbn_config(
            tmp_path, out,
            penalties=[{"lambda": 0.1, "group_size": 4},
                       {"lambda": 0.05, "group_size": 3}],
        )
        assert main(["pretrain-dbn", "--config", str(cfg)]) == 0
        model, meta = load_dbn(out / "dbn.mndbn")
        assert isinstance(model, Dbn)
        assert [m.n_hidden for m in model.layers] == [16, 12]
        assert model.head is None
        assert meta["architecture"] == "mn-dbn(g4,16-12)"
        assert (out / "layer1_log.csv").is_file()
        assert (out / "layer2_log.csv").is_file()

    @pytest.mark.parametrize("sizes, bad", [([0], 0), ([-3], 0), ([4, 0], 1)])
    def test_non_positive_layer_size_is_config_error(self, tmp_path, capsys, sizes, bad):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, "dbn.json", {
            "dataset": synth_block(), "layer_sizes": sizes, "out_dir": str(out),
        })
        assert main(["pretrain-dbn", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config error: config field 'layer_sizes[{bad}]' must be >= 1" in err
        assert "penalty" not in err
        assert not out.exists()

    def test_penalty_list_length_mismatch_rejected(self, tmp_path, capsys):
        cfg = self.dbn_config(tmp_path, tmp_path / "run",
                              penalties=[{"lambda": 0.1, "group_size": 4}])
        assert main(["pretrain-dbn", "--config", str(cfg)]) == 2

    def test_shared_penalty_block_replicates(self, tmp_path):
        out = tmp_path / "run"
        payload = {
            "dataset": synth_block(),
            "layer_sizes": [16, 12],
            "penalty": {"lambda": 0.0},
            "train": {"epochs": 1, "batch": 40},
            "out_dir": str(out),
        }
        cfg = write_config(tmp_path, "dbn.json", payload)
        assert main(["pretrain-dbn", "--config", str(cfg)]) == 0
        _, meta = load_dbn(out / "dbn.mndbn")
        assert meta["architecture"] == "dbn(16-12)"

    def test_shared_and_per_layer_penalty_together_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, "dbn.json", {
            "dataset": synth_block(),
            "layer_sizes": [8],
            "penalty": {"lambda": 0.5, "group_size": 2},
            "penalties": [{"lambda": 0.0}],
            "out_dir": str(out),
        })
        assert main(["pretrain-dbn", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'penalty'" in err and "'penalties'" in err
        assert not out.exists()

    # Keys, at their last defaults, that a manifest held before CD-1, the
    # momentum values and the penalty's norm floor became constants.
    REMOVED = [("train", "cd_k", 1), ("train", "momentum", 0.5),
               ("train", "final_momentum", 0.9), ("penalties[1]", "epsilon", 1e-8)]

    @pytest.mark.parametrize("ctx, key, value", REMOVED, ids=[key for _, key, _ in REMOVED])
    def test_manifest_with_removed_key_is_config_error(self, tmp_path, pretrained_run, capsys,
                                                       ctx, key, value):
        manifest = json.loads((pretrained_run / "manifest.json").read_text())
        config = manifest["config"]
        (config["train"] if ctx == "train" else config["penalties"][1])[key] = value
        old, replay = write_config(tmp_path, "old_manifest.json", manifest), tmp_path / "replay"
        assert main(["pretrain-dbn", "--config", str(old), "--out", str(replay)]) == 2
        assert f"config error: unknown config field(s) in '{ctx}': {key}" in \
            capsys.readouterr().err
        assert not replay.exists()


def pretrain_run(tmp_path):
    out = tmp_path / "pre"
    payload = {
        "dataset": synth_block(),
        "layer_sizes": [16, 12],
        "penalty": {"lambda": 0.1, "group_size": 4},
        "train": {"epochs": 2, "batch": 40, "seed": 0},
        "out_dir": str(out),
    }
    cfg = write_config(tmp_path, "pre.json", payload)
    assert main(["pretrain-dbn", "--config", str(cfg)]) == 0
    return out


@pytest.fixture()
def pretrained_run(tmp_path):
    return pretrain_run(tmp_path)


def command_tree(tmp_path, pretrained_run) -> dict:
    """Finetune the pretrained run, evaluate the result and report over
    tmp_path; returns each command's output directory."""
    runs = {"pretrain-dbn": pretrained_run, "finetune": tmp_path / "ft",
            "evaluate": tmp_path / "ev", "report": tmp_path / "report"}
    dataset = synth_block(n_test=40)
    for command, model, block in [
        ("finetune", pretrained_run / "dbn.mndbn", {"finetune": {"epochs": 2, "batch": 60}}),
        ("evaluate", runs["finetune"] / "dbn_finetuned.mndbn", {}),
    ]:
        cfg = write_config(tmp_path, f"{command}.json",
                           {"dataset": dataset, "out_dir": str(runs[command]), **block})
        assert main([command, str(model), "--config", str(cfg)]) == 0
    assert main(["report", str(tmp_path), "--out", str(runs["report"])]) == 0
    return runs


def test_every_manifest_holds_command_config_and_artifacts(tmp_path, pretrained_run):
    # The seed and out_dir live in the config block only.
    for out in command_tree(tmp_path, pretrained_run).values():
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest) == ["artifacts", "command", "config"]


def test_every_csv_parses_into_rows_as_wide_as_its_header(tmp_path, pretrained_run):
    command_tree(tmp_path, pretrained_run)
    written = {}
    for path in sorted(tmp_path.rglob("*.csv")):
        rows = read_csv(path)
        assert len(rows) > 1 and {len(row) for row in rows} == {len(rows[0])}, path
        written.setdefault(path.parent.name, set()).add(path.name)
    assert written == {
        "pre": {"layer1_log.csv", "layer2_log.csv", "dbn_activations.csv"},
        "ft": {"finetune_log.csv", "dbn_finetuned_activations.csv", "confusion.csv"},
        "ev": {"confusion.csv"},
        "report": {"pre_dbn_activations.csv", "ft_dbn_finetuned_activations.csv",
                   "results.csv"},
    }


class TestFinetune:
    def ft_config(self, tmp_path, out_dir, extra=None, n_test=40, name="ft.json"):
        block = {"epochs": 3, "batch": 60, "seed": 1}
        block.update(extra or {})
        payload = {
            "dataset": synth_block(n_test=n_test),
            "finetune": block,
            "out_dir": str(out_dir),
        }
        return write_config(tmp_path, name, payload)

    def test_negative_epochs_is_config_error_before_load(self, tmp_path, capsys):
        # The model file is missing, so a block checked only after loading
        # would exit 3.
        out = tmp_path / "ft"
        cfg = self.ft_config(tmp_path, out, extra={"epochs": -1})
        assert main(["finetune", str(tmp_path / "missing.mndbn"), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: finetune: need epochs >= 0")
        assert not out.exists()

    def test_full_run_writes_metrics(self, tmp_path, pretrained_run):
        out = tmp_path / "ft"
        cfg = self.ft_config(tmp_path, out)
        assert main(["finetune", str(pretrained_run / "dbn.mndbn"),
                     "--config", str(cfg)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["split"] == "test"
        assert metrics["n_samples"] == 40
        assert 0.0 <= metrics["accuracy_pct"] <= 100.0
        conf = read_csv(out / "confusion.csv")
        assert conf[0][0] == "true"
        body = np.array([[int(v) for v in row[1:]] for row in conf[1:]])
        assert body.sum() == 40
        model, _ = load_dbn(out / "dbn_finetuned.mndbn")
        assert model.head is not None

    def test_head_only_freezes_pretrained_stack(self, tmp_path, pretrained_run):
        out = tmp_path / "ft"
        cfg = self.ft_config(tmp_path, out, extra={"head_only": True})
        assert main(["finetune", str(pretrained_run / "dbn.mndbn"),
                     "--config", str(cfg)]) == 0
        pre, _ = load_dbn(pretrained_run / "dbn.mndbn")
        post, _ = load_dbn(out / "dbn_finetuned.mndbn")
        for a, b in zip(pre.layers, post.layers):
            assert (a.w == b.w).all()
            assert (a.a_hid == b.a_hid).all()
        assert not (post.head.w_out == 0.0).all()

    def test_single_rbm_model_accepted(self, tmp_path):
        rbm_out = tmp_path / "rbm"
        cfg = rbm_config(tmp_path, rbm_out)
        assert main(["pretrain-dbn", "--config", str(cfg)]) == 0
        out = tmp_path / "ft"
        ft = self.ft_config(tmp_path, out)
        assert main(["finetune", str(rbm_out / "dbn.mndbn"),
                     "--config", str(ft)]) == 0
        model, _ = load_dbn(out / "dbn_finetuned.mndbn")
        assert len(model.layers) == 1 and model.head is not None

    def test_same_seed_reproduces_model_and_accuracy(self, tmp_path, pretrained_run):
        outs = []
        for i, name in enumerate(["a", "b"]):
            out = tmp_path / name
            cfg = self.ft_config(tmp_path, out, name=f"ft{i}.json")
            assert main(["finetune", str(pretrained_run / "dbn.mndbn"),
                         "--config", str(cfg)]) == 0
            outs.append(out)
        m0 = (outs[0] / "dbn_finetuned.mndbn").read_bytes()
        m1 = (outs[1] / "dbn_finetuned.mndbn").read_bytes()
        assert m0 == m1
        acc0 = json.loads((outs[0] / "metrics.json").read_text())["accuracy_pct"]
        acc1 = json.loads((outs[1] / "metrics.json").read_text())["accuracy_pct"]
        assert acc0 == acc1

    def test_chained_finetune_counts_the_whole_training_cost(self, tmp_path, pretrained_run):
        # pretrain, finetune a, then finetune b from a's model: b's cost adds
        # everything a's model cost, pretraining included.
        a, b = tmp_path / "a", tmp_path / "b"
        for model, out in ((pretrained_run / "dbn.mndbn", a), (a / "dbn_finetuned.mndbn", b)):
            cfg = self.ft_config(tmp_path, out, name=f"{out.name}.json")
            assert main(["finetune", str(model), "--config", str(cfg)]) == 0
        pre, ft_a, ft_b = (json.loads((run / "timings.json").read_text())
                           for run in (pretrained_run, a, b))
        assert ft_a["training_cpu_seconds"] == ft_a["cpu_seconds"] + pre["cpu_seconds"]
        assert ft_b["training_cpu_seconds"] == ft_b["cpu_seconds"] + ft_a["training_cpu_seconds"]

    # The last six rows are the keys, at their last defaults, that a block
    # held while fine-tuning had a gradient-descent path and line-search
    # settings; a block or manifest that still holds one is rejected.
    REMOVED = [{"method": "cg"}, {"lr": 0.1}, {"c1": 1e-4}, {"backtrack": 0.5},
               {"max_backtracks": 30}, {"n_classes": 10}]

    @pytest.mark.parametrize("block", [{"batch": 0}, {"head_only": 1}, {"cg_iters": "3"},
                                       {"momentum": 0.5}, {"seed": -1}, *REMOVED])
    def test_invalid_block_is_config_error(self, tmp_path, pretrained_run, capsys, block):
        out = tmp_path / "ft"
        cfg = self.ft_config(tmp_path, out, extra=block)
        assert main(["finetune", str(pretrained_run / "dbn.mndbn"),
                     "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "finetune" in err and next(iter(block)) in err
        assert not out.exists()

    @pytest.mark.parametrize("block", REMOVED, ids=[next(iter(b)) for b in REMOVED])
    def test_manifest_with_removed_key_is_config_error(self, tmp_path, pretrained_run, capsys,
                                                       block):
        out, replay = tmp_path / "ft", tmp_path / "replay"
        assert main(["finetune", str(pretrained_run / "dbn.mndbn"),
                     "--config", str(self.ft_config(tmp_path, out))]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"]["finetune"].update(block)
        old = write_config(tmp_path, "old_manifest.json", manifest)
        assert main(["finetune", "--config", str(old), "--out", str(replay)]) == 2
        assert f"unknown config field(s) in 'finetune': {next(iter(block))}" in \
            capsys.readouterr().err
        assert not replay.exists()

    def test_malformed_model_header_is_data_error(self, tmp_path, capsys):
        header = json.dumps({"kind": "dbn", "version": 1}).encode()
        model = tmp_path / "bad.mndbn"
        model.write_bytes(b"MNDBN1" + len(header).to_bytes(4, "little") + header)
        cfg = self.ft_config(tmp_path, tmp_path / "ft")
        assert main(["finetune", str(model), "--config", str(cfg)]) == 3
        assert "data error:" in capsys.readouterr().err
        assert not (tmp_path / "ft").exists()

    def test_legacy_rbm_model_is_data_error(self, tmp_path, capsys):
        # A model of the retired single-layer kind, payload complete: rerun
        # pretraining to get a model finetune reads.
        header = json.dumps({"kind": "rbm", "version": 1, "n_visible": 16, "n_hidden": 8}).encode()
        model = tmp_path / "old.mndbn"
        model.write_bytes(b"MNDBN1" + len(header).to_bytes(4, "little") + header
                          + b"\x00" * 8 * (16 * 8 + 16 + 8))
        cfg = self.ft_config(tmp_path, tmp_path / "ft")
        assert main(["finetune", str(model), "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "found kind 'rbm'" in err
        assert not (tmp_path / "ft").exists()

    def test_model_path_required(self, tmp_path, capsys):
        cfg = self.ft_config(tmp_path, tmp_path / "ft")
        assert main(["finetune", "--config", str(cfg)]) == 2


# A seed's one source is the config, which the ids name.
@pytest.mark.parametrize("command, block", [("pretrain-dbn", "train"), ("finetune", "finetune")],
                         ids=["pretrain-dbn-train-config", "finetune-finetune-config"])
def test_negative_seed_is_config_error_before_data_loads(tmp_path, capsys, command, block):
    # The model and data files are missing: reading either would be a data error.
    out = tmp_path / "out"
    payload = {"dataset": {"name": "usps", "train_path": str(tmp_path / "nope.txt")},
               "out_dir": str(out)}
    argv = [command]
    if command == "pretrain-dbn":
        payload["layer_sizes"] = [8]
    else:
        argv.append(str(tmp_path / "nope.mndbn"))
    payload[block] = {"seed": -1}
    assert main([*argv, "--config", str(write_config(tmp_path, "c.json", payload))]) == 2
    assert f"config error: {block}: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["finetune", "evaluate"])
def test_image_size_mismatch_is_config_error(tmp_path, pretrained_run, capsys, command):
    # A 16-input model on 5x5 images fails before any output is made.
    model, _ = load_dbn(pretrained_run / "dbn.mndbn")
    path = tmp_path / "headed.mndbn"
    save_dbn(attach_head(model, 10), path)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "c.json", {
        "dataset": synth_block(n_test=40, side=5),
        "out_dir": str(out),
    })
    assert main([command, str(path), "--config", str(cfg)]) == 2
    # fine_tune checks its training split first; evaluate reports the test split.
    context, split = (path, "training") if command == "finetune" else \
        (f"{path} (test split)", "evaluation")
    assert capsys.readouterr().err == (
        f"config error: {context}: the network takes 16 pixels per image, "
        f"but the {split} images have 25\n")
    assert not out.exists()


class TestEvaluate:
    def test_headless_model_rejected(self, tmp_path, pretrained_run, capsys):
        out = tmp_path / "ev"
        cfg = write_config(tmp_path, "ev.json", {
            "dataset": synth_block(n_test=40),
            "out_dir": str(out),
        })
        path = pretrained_run / "dbn.mndbn"
        assert main(["evaluate", str(path), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {path} (test split): model has no classification head; "
            "fine-tune the model first (attach_head adds one)\n")
        assert not out.exists()

    @pytest.mark.parametrize("with_test", [True, False], ids=["test-split", "train-only"])
    @pytest.mark.parametrize("kind", ["usps", "mnist"])
    def test_loads_only_the_reported_split(self, tmp_path, monkeypatch, kind, with_test):
        if kind == "usps":
            loader, n_visible = "load_usps", 28 * 28   # load_usps frames 16x16 at 28x28
            for split in ("train", "test"):
                (tmp_path / f"{split}.txt").write_text(_usps_text() * 3)
            dataset = {"name": "usps", "train_path": str(tmp_path / "train.txt"),
                       "test_path": str(tmp_path / "test.txt")}
        else:
            loader, n_visible = "load_idx", 2 * 2
            dataset = {"name": "mnist"}
            for split in ("train", "test"):
                (tmp_path / f"{split}_im.idx").write_bytes(_GOOD_IMAGES)
                (tmp_path / f"{split}_lb.idx").write_bytes(_GOOD_LABELS)
                dataset[f"{split}_images"] = str(tmp_path / f"{split}_im.idx")
                dataset[f"{split}_labels"] = str(tmp_path / f"{split}_lb.idx")
        if not with_test:
            dataset = {k: v for k, v in dataset.items() if not k.startswith("test_")}
        real, calls = getattr(mndbn, loader), []

        def counting(path, *more):
            calls.append(Path(path).name.split(".")[0])
            return real(path, *more)

        monkeypatch.setattr(f"mndbn.data.{loader}", counting)
        save_dbn(attach_head(Dbn([random_rbm(0, n_visible, 3)]), 10), tmp_path / "m.mndbn")
        out = tmp_path / "ev"
        cfg = write_config(tmp_path, "ev.json", {"dataset": dataset, "out_dir": str(out)})
        assert main(["evaluate", str(tmp_path / "m.mndbn"), "--config", str(cfg)]) == 0
        split = "test" if with_test else "train"
        assert calls == [split if kind == "usps" else f"{split}_im"]
        assert json.loads((out / "metrics.json").read_text())["split"] == split

    def test_too_few_head_classes_for_the_labels_is_config_error(self, tmp_path, pretrained_run,
                                                                  capsys):
        model, _ = load_dbn(pretrained_run / "dbn.mndbn")
        save_dbn(attach_head(model, 5), tmp_path / "five.mndbn")
        out = tmp_path / "ev"
        cfg = write_config(tmp_path, "ev.json", {
            "dataset": synth_block(n_test=40),
            "out_dir": str(out),
        })
        assert main(["evaluate", str(tmp_path / "five.mndbn"), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        top = int(synth.make_synthetic(120, 40, side=4, seed=0)[1].labels.max())
        assert "config error:" in err and "head has 5 classes" in err
        assert f"largest label is {top}" in err
        assert not out.exists()

    def test_non_finite_model_is_data_error(self, tmp_path, pretrained_run, capsys):
        model, _ = load_dbn(pretrained_run / "dbn.mndbn")
        attach_head(model, 10).layers[0].w[0, 0] = np.nan
        save_dbn(model, tmp_path / "nan.mndbn")
        out = tmp_path / "ev"
        cfg = write_config(tmp_path, "ev.json", {
            "dataset": synth_block(n_test=40),
            "out_dir": str(out),
        })
        assert main(["evaluate", str(tmp_path / "nan.mndbn"), "--config", str(cfg)]) == 3
        assert "data error:" in capsys.readouterr().err
        assert not out.exists()

    def test_finetuned_model_evaluates(self, tmp_path, pretrained_run):
        ft_out = tmp_path / "ft"
        ft_cfg = write_config(tmp_path, "ft.json", {
            "dataset": synth_block(n_test=40),
            "finetune": {"epochs": 3, "batch": 60, "seed": 1},
            "out_dir": str(ft_out),
        })
        assert main(["finetune", str(pretrained_run / "dbn.mndbn"),
                     "--config", str(ft_cfg)]) == 0
        ev_out = tmp_path / "ev"
        ev_cfg = write_config(tmp_path, "ev.json", {
            "dataset": synth_block(n_test=40),
            "out_dir": str(ev_out),
        })
        assert main(["evaluate", str(ft_out / "dbn_finetuned.mndbn"),
                     "--config", str(ev_cfg)]) == 0
        metrics = json.loads((ev_out / "metrics.json").read_text())
        ft_metrics = json.loads((ft_out / "metrics.json").read_text())
        assert metrics["split"] == "test"
        assert metrics["accuracy_pct"] == ft_metrics["accuracy_pct"]
        assert (ev_out / "confusion.csv").is_file()


class TestReport:
    def populated_run(self, tmp_path, pretrained_run):
        ft_out = tmp_path / "ft"
        ft_cfg = write_config(tmp_path, "ft.json", {
            "dataset": synth_block(n_test=40),
            "finetune": {"epochs": 2, "batch": 60, "seed": 1},
            "out_dir": str(ft_out),
        })
        assert main(["finetune", str(pretrained_run / "dbn.mndbn"),
                     "--config", str(ft_cfg)]) == 0
        return tmp_path

    def test_report_over_run_tree(self, tmp_path, pretrained_run):
        root = self.populated_run(tmp_path, pretrained_run)
        out = tmp_path / "report"
        assert main(["report", str(root), "--out", str(out)]) == 0
        tiles = sorted(out.glob("*_tiles.pgm"))
        hists = sorted(out.glob("*_activations.csv"))
        assert len(tiles) == 2   # pretrained stack + finetuned stack
        assert len(hists) == 2
        table = read_csv(out / "results.csv")
        measured = [r for r in table[1:] if r[5] == "measured"]
        reference = [r for r in table[1:] if r[5] == "reference"]
        assert len(measured) == 1 and measured[0][4] == "0.00"   # CPU hours of both runs
        assert measured[0][0] == "ft" and {r[0] for r in reference} == {""}
        assert len(reference) > 0
        assert (out / "results.txt").is_file()
        assert (out / "manifest.json").is_file()

    def test_rows_name_their_run(self, tmp_path, pretrained_run):
        # Two finetunes of one model score alike; the run column, each
        # metrics.json's directory under the tree, tells their rows apart.
        for name in ("a", "nested/b"):
            cfg = write_config(tmp_path, "ft.json", {
                "dataset": synth_block(n_test=40),
                "finetune": {"epochs": 1, "batch": 60, "seed": 1},
                "out_dir": str(tmp_path / "runs" / name),
            })
            assert main(["finetune", str(pretrained_run / "dbn.mndbn"),
                         "--config", str(cfg)]) == 0
        assert main(["report", str(tmp_path / "runs"), "--out", str(tmp_path / "report")]) == 0
        table = read_csv(tmp_path / "report" / "results.csv")
        measured = [r for r in table[1:] if r[-1] == "measured"]
        assert [r[0] for r in measured] == ["a", "nested/b"]
        assert measured[0][1:4] == measured[1][1:4]

    def test_report_rerun_is_idempotent(self, tmp_path, pretrained_run):
        root = self.populated_run(tmp_path, pretrained_run)
        out = tmp_path / "report"
        assert main(["report", str(root), "--out", str(out)]) == 0
        first = (out / "results.csv").read_bytes()
        first_tiles = {p.name: p.read_bytes() for p in out.glob("*_tiles.pgm")}
        assert main(["report", str(root), "--out", str(out)]) == 0
        assert (out / "results.csv").read_bytes() == first
        assert {p.name: p.read_bytes() for p in out.glob("*_tiles.pgm")} == first_tiles

    def test_default_output_inside_run_dir_is_excluded_from_scan(
            self, tmp_path, pretrained_run):
        root = self.populated_run(tmp_path, pretrained_run)
        assert main(["report", str(root)]) == 0
        out = root / "report"
        n_first = len(list(out.glob("*_tiles.pgm")))
        assert main(["report", str(root)]) == 0
        assert len(list(out.glob("*_tiles.pgm"))) == n_first

    def test_report_builds_no_dataset(self, tmp_path, pretrained_run, monkeypatch):
        root = self.populated_run(tmp_path, pretrained_run)

        def unreachable(*args, **kwargs):
            raise AssertionError("the report built a dataset")

        monkeypatch.setattr(cli, "_dataset_loader", unreachable)
        monkeypatch.setattr(synth, "make_synthetic", unreachable)
        out = tmp_path / "report"
        assert main(["report", str(root), "--out", str(out)]) == 0
        for run, stem in [(root / "pre", "dbn"), (root / "ft", "dbn_finetuned")]:
            copied = out / f"{run.name}_{stem}_activations.csv"
            assert copied.read_bytes() == (run / f"{stem}_activations.csv").read_bytes()

    def test_report_reaches_no_data_loader(self):
        # Every name cmd_report reads, and those of the cli functions it
        # calls, transitively.
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
        seen, todo, names = set(), ["cmd_report"], set()
        while todo:
            name = todo.pop()
            seen.add(name)
            for node in ast.walk(functions[name]):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                    if node.id in functions and node.id not in seen:
                        todo.append(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
        loaders = {"_dataset_loader", "_resolve_dataset", "load_idx", "load_usps", "make_synthetic"}
        assert not names & loaders

    def test_report_over_idx_run_without_its_data(self, tmp_path, capsys):
        images = tmp_path / "im.idx"
        labels = tmp_path / "lb.idx"
        images.write_bytes(idx_bytes(0x803, 6, 2, 2, payload=bytes(range(0, 240, 10))))
        labels.write_bytes(idx_bytes(0x801, 6, payload=bytes(range(6))))
        run = tmp_path / "run"
        cfg = write_config(tmp_path, "pre.json", {
            "dataset": {"name": "mnist", "train_images": str(images),
                        "train_labels": str(labels)},
            "layer_sizes": [4],
            "train": {"epochs": 1, "batch": 3},
            "out_dir": str(run),
        })
        assert main(["pretrain-dbn", "--config", str(cfg)]) == 0
        images.unlink()
        labels.unlink()
        capsys.readouterr()
        out = tmp_path / "report"
        assert main(["report", str(run), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert (out / "dbn_activations.csv").read_bytes() == \
            (run / "dbn_activations.csv").read_bytes()

    def test_model_without_histogram_warns_once(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        save_dbn(Dbn([random_rbm(0, 16, 8)]), run / "m.mndbn")
        out = tmp_path / "report"
        assert main(["report", str(run), "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"warning: {run / 'm.mndbn'}: no readable histogram")
        assert not (out / "m_activations.csv").exists()
        artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
        assert sorted(artifacts) == ["m_tiles.pgm", "results.csv", "results.txt"]

    @pytest.mark.parametrize("out", [".", "..", "../pre", "../.."])
    def test_output_holding_the_run_dir_is_config_error(self, tmp_path, pretrained_run, capsys,
                                                        monkeypatch, out):
        monkeypatch.chdir(pretrained_run)
        before = sorted(tmp_path.rglob("*"))
        assert main(["report", str(pretrained_run), "--out", out]) == 2
        assert "config error: output directory" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_empty_directory_warns_and_fails(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        out = tmp_path / "report"
        assert main(["report", str(empty), "--out", str(out)]) == 1
        assert "warning" in capsys.readouterr().err
        table = read_csv(out / "results.csv")
        assert len(table) == 1   # header only, no reference rows for empty runs

    def test_unreadable_metrics_warn_and_manifest_is_not_read(self, tmp_path, pretrained_run,
                                                              capsys):
        (pretrained_run / "manifest.json").write_text("[" * 100000)
        (pretrained_run / "metrics.json").write_text("[" * 100000)
        out = tmp_path / "report"
        assert main(["report", str(pretrained_run), "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "unreadable metrics" in err[0]
        assert (out / "dbn_activations.csv").read_bytes() == \
            (pretrained_run / "dbn_activations.csv").read_bytes()

    @pytest.mark.parametrize("field, value", [
        ("architecture", 5), ("dataset", ["u"]), ("accuracy_pct", float("nan")),
        ("accuracy_pct", float("-inf")), ("accuracy_pct", "12.5"), ("accuracy_pct", 150),
    ])
    def test_malformed_metrics_are_warnings(self, tmp_path, pretrained_run, capsys, field,
                                            value):
        metrics = {"architecture": "rbm(16)", "dataset": "synthetic", "accuracy_pct": 50.0,
                   field: value}
        (pretrained_run / "metrics.json").write_text(json.dumps(metrics))
        out = tmp_path / "report"
        assert main(["report", str(pretrained_run), "--out", str(out)]) == 0
        assert "unreadable metrics" in capsys.readouterr().err
        table = read_csv(out / "results.csv")
        assert [row[-1] for row in table[1:]] == ["reference"] * len(report.REFERENCE_RESULTS)

    @pytest.mark.parametrize("timings", [
        *(json.dumps({"training_cpu_seconds": v}) for v in (float("inf"), True, 10**400)),
        "[" * 100000, '["training_cpu_seconds"]',
    ], ids=["inf", "True", "10**400", "deep", "list"])
    def test_malformed_timings_leave_cost_blank(self, tmp_path, pretrained_run, capsys,
                                                timings):
        (pretrained_run / "metrics.json").write_text(json.dumps(
            {"architecture": "rbm(16)", "dataset": "synthetic", "accuracy_pct": 50.0}))
        (pretrained_run / "timings.json").write_text(timings)
        assert main(["report", str(pretrained_run), "--out", str(tmp_path / "report")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"warning: {pretrained_run / 'timings.json'}")
        table = read_csv(tmp_path / "report" / "results.csv")
        assert table[1] == [".", "rbm(16)", "synthetic", "50.00", "", "measured"]

    def test_model_without_timings_has_no_cost(self, tmp_path, pretrained_run, capsys):
        (pretrained_run / "timings.json").unlink()
        root = self.populated_run(tmp_path, pretrained_run)
        assert "training_cpu_seconds" not in json.loads((root / "ft" / "timings.json").read_text())
        assert main(["report", str(root), "--out", str(tmp_path / "report")]) == 0
        assert capsys.readouterr().err == ""
        table = read_csv(tmp_path / "report" / "results.csv")
        assert [row[4] for row in table[1:] if row[5] == "measured"] == [""]

    def test_missing_run_dir_rejected(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "ghost")]) == 2

    def test_models_sharing_a_report_name_are_config_error(self, tmp_path, pretrained_run,
                                                           capsys):
        # runs/a_b/dbn.mndbn and runs/a/b/dbn.mndbn both name their tiles
        # a_b_dbn_tiles.pgm.
        runs = tmp_path / "runs"
        for rel in ("a_b", "a/b"):
            (runs / rel).mkdir(parents=True)
            (runs / rel / "dbn.mndbn").write_bytes((pretrained_run / "dbn.mndbn").read_bytes())
        assert main(["report", str(runs)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert str(runs / "a_b" / "dbn.mndbn") in err[0]
        assert str(runs / "a" / "b" / "dbn.mndbn") in err[0]
        assert not (runs / "report").exists()

    def test_malformed_model_is_data_error_and_writes_nothing(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "bad.mndbn").write_bytes(b"MNDBN1" + b"\xff" * 8)
        out = tmp_path / "report"
        assert main(["report", str(run), "--out", str(out)]) == 3
        assert "data error:" in capsys.readouterr().err
        assert not out.exists()

    def test_fixed_settings_take_effect(self, tmp_path, monkeypatch):
        # A run's histogram takes the first _HISTOGRAM_IMAGES training images
        # (7 here, of the run's 120) into 20 bins; the report's tiles fill
        # up to a 10x10 grid, so the first layer's 16 units make one row of 10.
        monkeypatch.setattr(cli, "_HISTOGRAM_IMAGES", 7)
        rows = []
        real = report.activation_histogram

        def recorded(model, batch, bins, out_path):
            rows.append(len(batch))
            return real(model, batch, bins, out_path)

        monkeypatch.setattr(report, "activation_histogram", recorded)
        pretrained_run = pretrain_run(tmp_path)
        out = tmp_path / "report"
        cfg = write_config(tmp_path, "report.json", {
            "run_dir": str(pretrained_run), "out_dir": str(out)})
        assert main(["report", "--config", str(cfg)]) == 0
        assert rows == [7]
        assert len(read_csv(out / "dbn_activations.csv")) == 1 + 20
        assert report.read_pgm(out / "dbn_tiles.pgm").shape == (1 * 4, 10 * 4)
        resolved = json.loads((out / "manifest.json").read_text())["config"]
        assert resolved == {"run_dir": str(pretrained_run), "out_dir": str(out)}

    # The first three are the settings, at their last defaults, that a report
    # config held before they became constants.
    @pytest.mark.parametrize("block", [{"bins": 20}, {"grid": [10, 10]}, {"batch_limit": 1000},
                                       {"outdir": "typo"}, {"layer_sizes": [8]}])
    def test_invalid_block_is_config_error(self, tmp_path, pretrained_run, capsys, block):
        out = tmp_path / "report"
        cfg = write_config(tmp_path, "report.json", {
            "run_dir": str(pretrained_run), "out_dir": str(out), **block})
        assert main(["report", "--config", str(cfg)]) == 2
        assert f"config error: unknown config field(s) in 'config': {next(iter(block))}" in \
            capsys.readouterr().err
        assert not out.exists()


def snapshot(root):
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestOutDir:
    """Every command checks --out before it loads data or writes a file."""

    COMMANDS = ["pretrain-dbn", "finetune", "evaluate", "report"]

    def argv(self, tmp_path, command, out):
        if command == "report":
            runs = tmp_path / "runs"
            runs.mkdir(exist_ok=True)
            (runs / "m.mndbn").write_bytes(b"")
            return ["report", str(runs), "--out", str(out)]
        if command == "pretrain-dbn":
            return ["pretrain-dbn", "--config", str(rbm_config(tmp_path, out))]
        cfg = write_config(tmp_path, "c.json", {"dataset": synth_block(n_test=40),
                                                "out_dir": str(out)})
        return [command, str(tmp_path / "m.mndbn"), "--config", str(cfg)]

    def refused(self, argv, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("data loaded before --out was checked")

        monkeypatch.setattr(cli, "_dataset_loader", unreachable)
        monkeypatch.setattr("mndbn.model_io.load_dbn", unreachable)
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_at_a_file_is_config_error(self, tmp_path, capsys, monkeypatch, command, under):
        afile = tmp_path / "afile"
        afile.write_bytes(b"not a directory\n")
        argv = self.argv(tmp_path, command, afile / "sub" if under else afile)
        self.refused(argv, capsys, monkeypatch)
        assert afile.read_bytes() == b"not a directory\n"

    @pytest.mark.parametrize("manifest", [b'{"command": "other", "config": {}}\n', b"[",
                                          b"[1]", b"{}"], ids=["other", "json", "list", "empty"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_holding_another_run_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                     command, manifest):
        out = tmp_path / "other"
        out.mkdir()
        (out / "manifest.json").write_bytes(manifest)
        (out / "metrics.json").write_bytes(b"{}")
        before = snapshot(out)
        self.refused(self.argv(tmp_path, command, out), capsys, monkeypatch)
        assert snapshot(out) == before

    @pytest.mark.parametrize("command", ["report", "finetune"])
    def test_pretrain_run_is_not_overwritten(self, tmp_path, pretrained_run, capsys, command):
        before = snapshot(pretrained_run)
        if command == "report":
            argv = ["report", str(tmp_path), "--out", str(pretrained_run)]
        else:
            cfg = write_config(tmp_path, "ft.json", {
                "dataset": synth_block(n_test=40),
                "finetune": {"epochs": 1, "batch": 60, "seed": 1},
                "out_dir": str(pretrained_run),
            })
            argv = ["finetune", str(pretrained_run / "dbn.mndbn"), "--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"holds a 'pretrain-dbn' run, which '{command}' would overwrite" in err
        assert snapshot(pretrained_run) == before

    def test_same_command_reruns_in_its_own_directory(self, tmp_path, pretrained_run):
        model = (pretrained_run / "dbn.mndbn").read_bytes()
        assert main(["pretrain-dbn", "--config", str(tmp_path / "pre.json")]) == 0
        assert main(["pretrain-dbn", "--config", str(pretrained_run / "manifest.json")]) == 0
        assert (pretrained_run / "dbn.mndbn").read_bytes() == model
        cfg = write_config(tmp_path, "ft.json", {"dataset": synth_block(n_test=40),
                                                 "finetune": {"epochs": 1, "batch": 60},
                                                 "out_dir": str(tmp_path / "ft")})
        argv = ["finetune", str(pretrained_run / "dbn.mndbn"), "--config", str(cfg)]
        assert main(argv) == 0
        assert main(argv) == 0


class TestEntryPoint:
    def test_cli_import_leaves_numpy_out_and_threads_pin_blas(self):
        # --threads works only because importing the CLI and building its
        # parser import no numpy; perfbench/run.py relies on the same.
        script = (
            "import os, sys\n"
            "import mndbn, mndbn.cli\n"
            "mndbn.cli.build_parser()\n"
            "assert 'numpy' not in sys.modules, 'numpy imported with the CLI'\n"
            "assert mndbn.cli.main(['evaluate', '--threads', '3']) == 2\n"
            "pinned = {v: os.environ.get(v) for v in mndbn.cli.THREAD_ENV_VARS}\n"
            "assert pinned == dict.fromkeys(mndbn.cli.THREAD_ENV_VARS, '3'), pinned\n"
        )
        env = {k: v for k, v in src_env().items() if k not in cli.THREAD_ENV_VARS}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr

    def test_console_script_usage_error(self):
        proc = subprocess.run([sys.executable, "-m", "mndbn.cli"],
                              capture_output=True, text=True, env=src_env())
        assert proc.returncode == 2

    def test_console_script_runs_module(self, tmp_path, tmp_path_factory, pretrained_run):
        # The module runs as a console script, and the manifest of every
        # command replays in a second process, at one thread, to every
        # digest it records. The replays land outside the reported tree.
        replays = tmp_path_factory.mktemp("replays")
        for command, run in command_tree(tmp_path, pretrained_run).items():
            replay = replays / command
            proc = subprocess.run(
                [sys.executable, "-m", "mndbn.cli", command, "--config",
                 str(run / "manifest.json"), "--out", str(replay), "--threads", "1"],
                capture_output=True, text=True, env=src_env())
            assert proc.returncode == 0, proc.stderr
            manifests = [json.loads((d / "manifest.json").read_text()) for d in (run, replay)]
            assert manifests[0]["artifacts"] == manifests[1]["artifacts"]

    def test_train_rbm_is_a_usage_error(self, capsys):
        # One layer trains as a one-layer pretrain-dbn stack.
        with pytest.raises(SystemExit) as exc:
            main(["train-rbm", "--config", "rbm.json"])
        assert exc.value.code == 2
        assert "invalid choice: 'train-rbm'" in capsys.readouterr().err


class TestConfigSchemaDocs:
    README = Path(__file__).resolve().parent.parent / "README.md"

    def readme_block(self, heading):
        """The JSON object under a '// heading' line of the README schema."""
        text = self.README.read_text(encoding="utf-8").split(f"// {heading}\n", 1)[1]
        return json.loads(text[: text.index("}") + 1])

    def test_readme_cli_table_lists_every_subcommand(self):
        text = self.README.read_text(encoding="utf-8")
        table = text.split("| command | does | writes |\n", 1)[1].split("\n\n", 1)[0]
        documented = [row.split("`")[1] for row in table.splitlines()[1:]]
        commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
        assert documented == list(commands)

    def test_readme_penalty_block_lists_the_resolved_keys(self):
        resolved, _ = cli._resolve_penalty({}, 8, "penalty")
        documented = self.readme_block("penalty (per layer): lambda 0 disables the regularizer")
        assert sorted(documented) == sorted(resolved)

    def test_readme_cli_flags_are_the_parser_options(self):
        text = self.README.read_text(encoding="utf-8")
        section = text.split("## CLI reference\n", 1)[1].split("\n### ", 1)[0]
        documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
        commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
        registered = {option for sp in commands.values() for action in sp._actions
                      if not isinstance(action, argparse._HelpAction)
                      for option in action.option_strings}
        assert documented == registered

    @pytest.mark.parametrize("name", ["load_idx", "load_usps"])
    def test_readme_loader_signature_matches(self, name):
        text = self.README.read_text(encoding="utf-8")
        documented = " ".join(re.search(rf"`{name}(\([^)]*\))`", text).group(1).split())
        params = inspect.signature(getattr(mndbn, name)).parameters.values()
        shown = [p.name if p.default is p.empty else f"{p.name}={p.default!r}" for p in params]
        assert documented == f"({', '.join(shown)})"

    @pytest.mark.parametrize("heading, block, schema", [
        ("train (CD pretraining)", "train", TrainConfig),
        ("finetune (conjugate-gradient softmax training)", "finetune", FineTuneConfig),
    ])
    def test_readme_defaults_match_resolver(self, heading, block, schema):
        resolved, _ = cli._resolve_block(schema, {}, block)
        documented = self.readme_block(heading)
        assert json.dumps(documented, sort_keys=True) == json.dumps(resolved, sort_keys=True)
