"""End-to-end command-line workflows on the synthetic dataset."""

import csv
import functools
import gzip
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import idx_bytes, random_rbm, src_env
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


def rows_without_wall(path):
    rows = read_csv(path)
    header = rows[0]
    drop = header.index("wall_seconds")
    return [[c for i, c in enumerate(row) if i != drop] for row in rows]


@pytest.mark.parametrize("command", ["pretrain-dbn", "finetune", "evaluate", "report"])
@pytest.mark.parametrize("text", ["{not json", "[" * 100000, '{"a": ' * 100000],
                         ids=["not-json", "deep-array", "deep-object"])
def test_malformed_config_is_config_error(tmp_path, capsys, command, text):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert "is not valid JSON" in capsys.readouterr().err
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
    + [("penalty", k) for k in ("lambda", "overlap_pct", "epsilon")]
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


class TestTrainRbm:
    """One feature layer: pretrain-dbn with a one-element layer_sizes."""

    def test_group_sparse_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = rbm_config(tmp_path, out)
        assert main(["pretrain-dbn", "--config", str(cfg)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["dbn.mndbn", "layer1_log.csv",
                                                         "manifest.json"]
        model, meta = load_dbn(out / "dbn.mndbn")
        assert len(model.layers) == 1 and model.head is None
        assert (model.n_visible, model.n_features) == (16, 24)
        assert meta["architecture"] == "mn-dbn(g6,24)"
        log = read_csv(out / "layer1_log.csv")
        assert log[0] == ["epoch", "recon_error", "mean_hidden_activation",
                          "mixed_norm_value", "wall_seconds"]
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
        {"momentum": 1.0}, {"momentum": -0.1}, {"final_momentum": 1.0},
        {"final_momentum": -0.5}, {"cd_k": 0}, {"seed": -1},
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
        {"lambda": 0.1, "group_size": 4, "epsilon": 0.0},
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
        assert rows_without_wall(out1 / "layer1_log.csv") == \
            rows_without_wall(out2 / "layer1_log.csv")

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
        dataset = {"name": "idx", "train_images": paths[0], "train_labels": paths[1]}
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "bad.json", {"dataset": dataset, "layer_sizes": [4],
                                              "out_dir": str(out)})
    assert main(["pretrain-dbn", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "Traceback" not in err
    assert str(tmp_path / where) in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "report"])
def test_seed_flag_rejected_where_no_seed_is_read(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, str(tmp_path), "--seed", "7"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


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


@pytest.fixture()
def pretrained_run(tmp_path):
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

    @pytest.mark.parametrize("block", [{"method": "newton"}, {"batch": 0}, {"head_only": 1},
                                       {"cg_iters": "3"}, {"momentum": 0.5},
                                       {"c1": float("nan")}, {"lr": float("nan")},
                                       {"max_backtracks": 0}, {"c1": 1.0}, {"c1": 1e300},
                                       {"seed": -1}])
    def test_invalid_block_is_config_error(self, tmp_path, pretrained_run, capsys, block):
        out = tmp_path / "ft"
        cfg = self.ft_config(tmp_path, out, extra=block)
        assert main(["finetune", str(pretrained_run / "dbn.mndbn"),
                     "--config", str(cfg)]) == 2
        assert "finetune" in capsys.readouterr().err
        assert not out.exists()

    def test_too_few_classes_for_the_labels_is_config_error(self, tmp_path, pretrained_run,
                                                             capsys):
        out = tmp_path / "ft"
        cfg = self.ft_config(tmp_path, out, extra={"n_classes": 5})
        assert main(["finetune", str(pretrained_run / "dbn.mndbn"),
                     "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        top = int(synth.make_synthetic(120, 40, side=4, seed=0)[0].labels.max())
        assert "config error:" in err and f"largest label is {top}" in err
        assert not out.exists()

    def test_malformed_model_header_is_data_error(self, tmp_path, capsys):
        header = json.dumps({"kind": "dbn", "version": 1}).encode()
        model = tmp_path / "bad.mndbn"
        model.write_bytes(b"MNDBN1" + len(header).to_bytes(4, "little") + header)
        cfg = self.ft_config(tmp_path, tmp_path / "ft")
        assert main(["finetune", str(model), "--config", str(cfg)]) == 3
        assert "data error:" in capsys.readouterr().err
        assert not (tmp_path / "ft").exists()

    def test_model_path_required(self, tmp_path, capsys):
        cfg = self.ft_config(tmp_path, tmp_path / "ft")
        assert main(["finetune", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("from_flag", [False, True], ids=["config", "flag"])
@pytest.mark.parametrize("command, block", [("pretrain-dbn", "train"), ("finetune", "finetune")])
def test_negative_seed_is_config_error_before_data_loads(tmp_path, capsys, command, block,
                                                         from_flag):
    # The model and data files are missing: reading either would be a data error.
    out = tmp_path / "out"
    payload = {"dataset": {"name": "usps", "train_path": str(tmp_path / "nope.txt")},
               "out_dir": str(out)}
    argv = [command]
    if command == "pretrain-dbn":
        payload["layer_sizes"] = [8]
    else:
        argv.append(str(tmp_path / "nope.mndbn"))
    if from_flag:
        argv += ["--seed", "-1"]
    else:
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
    err = capsys.readouterr().err
    assert f"config error: {path} takes 16 pixels per image" in err
    assert "train images have 25" in err
    assert not out.exists()


class TestEvaluate:
    def test_headless_model_rejected(self, tmp_path, pretrained_run, capsys):
        cfg = write_config(tmp_path, "ev.json", {
            "dataset": synth_block(n_test=40),
            "out_dir": str(tmp_path / "ev"),
        })
        assert main(["evaluate", str(pretrained_run / "dbn.mndbn"),
                     "--config", str(cfg)]) == 2
        assert "no classification head" in capsys.readouterr().err

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
        measured = [r for r in table[1:] if r[4] == "measured"]
        reference = [r for r in table[1:] if r[4] == "reference"]
        assert len(measured) == 1
        assert len(reference) > 0
        assert (out / "results.txt").is_file()
        assert (out / "manifest.json").is_file()

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

    def test_each_dataset_builds_once(self, tmp_path, monkeypatch):
        configs = Path(__file__).resolve().parent.parent / "configs"
        runs = tmp_path / "runs"
        pre = json.loads((configs / "synthetic_smoke.json").read_text())
        pre.update(out_dir=str(runs / "pretrain"), train={**pre["train"], "epochs": 1})
        ft = json.loads((configs / "synthetic_smoke_finetune.json").read_text())
        ft.update(model_path=str(runs / "pretrain" / "dbn.mndbn"), out_dir=str(runs / "finetune"),
                  finetune={**ft["finetune"], "epochs": 1})
        assert main(["pretrain-dbn", "--config", str(write_config(tmp_path, "pre.json", pre))]) == 0
        assert main(["finetune", "--config", str(write_config(tmp_path, "ft.json", ft))]) == 0
        calls = []
        real = synth.make_synthetic

        @functools.wraps(real)   # the CLI reads the dataset schema from the signature
        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(synth, "make_synthetic", counted)
        assert main(["report", str(runs), "--out", str(tmp_path / "report")]) == 0
        assert len(list((tmp_path / "report").glob("*_activations.csv"))) == 2
        assert len(calls) == 1

    def test_empty_directory_warns_and_fails(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        out = tmp_path / "report"
        assert main(["report", str(empty), "--out", str(out)]) == 1
        assert "warning" in capsys.readouterr().err
        table = read_csv(out / "results.csv")
        assert len(table) == 1   # header only, no reference rows for empty runs

    def test_unreadable_metrics_and_manifest_are_warnings(self, tmp_path, pretrained_run,
                                                          capsys):
        (pretrained_run / "manifest.json").write_text("[" * 100000)
        (pretrained_run / "metrics.json").write_text("[" * 100000)
        assert main(["report", str(pretrained_run), "--out", str(tmp_path / "report")]) == 0
        err = capsys.readouterr().err
        assert "cannot reload dataset for histogram" in err
        assert "unreadable metrics" in err

    @pytest.mark.parametrize("field, value", [
        ("architecture", 5), ("dataset", ["u"]), ("accuracy_pct", float("nan")),
        ("accuracy_pct", float("-inf")), ("wall_seconds", float("inf")),
        ("accuracy_pct", "12.5"), ("wall_seconds", True), ("wall_seconds", 10**400),
    ])
    def test_malformed_metrics_are_warnings(self, tmp_path, pretrained_run, capsys, field,
                                            value):
        metrics = {"architecture": "rbm(16)", "dataset": "synthetic", "accuracy_pct": 50.0,
                   "wall_seconds": 1.0, field: value}
        (pretrained_run / "metrics.json").write_text(json.dumps(metrics))
        out = tmp_path / "report"
        assert main(["report", str(pretrained_run), "--out", str(out)]) == 0
        assert "unreadable metrics" in capsys.readouterr().err
        table = read_csv(out / "results.csv")
        assert [row[-1] for row in table[1:]] == ["reference"] * len(report.REFERENCE_RESULTS)

    def test_missing_run_dir_rejected(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "ghost")]) == 2

    def test_malformed_model_is_data_error_and_writes_nothing(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "bad.mndbn").write_bytes(b"MNDBN1" + b"\xff" * 8)
        out = tmp_path / "report"
        assert main(["report", str(run), "--out", str(out)]) == 3
        assert "data error:" in capsys.readouterr().err
        assert not out.exists()

    def test_block_values_take_effect(self, tmp_path, pretrained_run, monkeypatch):
        rows = []
        real = report.activation_histogram

        def recorded(model, batch, bins, out_path):
            rows.append(len(batch))
            return real(model, batch, bins, out_path)

        monkeypatch.setattr(report, "activation_histogram", recorded)
        out = tmp_path / "report"
        cfg = write_config(tmp_path, "report.json", {
            "run_dir": str(pretrained_run), "bins": 5, "grid": [2, 3], "batch_limit": 7,
            "out_dir": str(out),
        })
        assert main(["report", "--config", str(cfg)]) == 0
        assert rows == [7]
        assert len(read_csv(out / "dbn_activations.csv")) == 1 + 5
        assert report.read_pgm(out / "dbn_tiles.pgm").shape == (2 * 4, 3 * 4)
        resolved = json.loads((out / "manifest.json").read_text())["config"]
        assert (resolved["bins"], resolved["grid"], resolved["batch_limit"]) == (5, [2, 3], 7)

    @pytest.mark.parametrize("block", [{"bins": 1}, {"grid": [2, 0]}, {"grid": [0, 2]},
                                       {"batch_limit": -5}, {"batch_limit": 0}])
    def test_invalid_block_is_config_error(self, tmp_path, pretrained_run, capsys, block):
        out = tmp_path / "report"
        cfg = write_config(tmp_path, "report.json", {
            "run_dir": str(pretrained_run), "out_dir": str(out), **block})
        assert main(["report", "--config", str(cfg)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()


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

    def test_console_script_runs_module(self, tmp_path):
        # The module runs as a console script, and the manifest of one run
        # replays in a second process, at the same thread count, to the same
        # model bytes and log rows.
        run1, run2 = tmp_path / "run1", tmp_path / "run2"
        cfg = write_config(tmp_path, "dbn.json", {
            "dataset": synth_block(), "layer_sizes": [16, 12],
            "penalty": {"lambda": 0.1, "group_size": 4},
            "train": {"epochs": 2, "batch": 40, "seed": 0}, "out_dir": str(run1),
        })
        for args in (["--config", str(cfg)],
                     ["--config", str(run1 / "manifest.json"), "--out", str(run2)]):
            proc = subprocess.run(
                [sys.executable, "-m", "mndbn.cli", "pretrain-dbn", *args, "--threads", "1"],
                capture_output=True, text=True, env=src_env())
            assert proc.returncode == 0, proc.stderr
        assert (run1 / "dbn.mndbn").read_bytes() == (run2 / "dbn.mndbn").read_bytes()
        for name in ("layer1_log.csv", "layer2_log.csv"):
            assert rows_without_wall(run1 / name) == rows_without_wall(run2 / name)

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

    @pytest.mark.parametrize("heading, block, schema", [
        ("train (CD pretraining)", "train", TrainConfig),
        ("finetune (conjugate-gradient softmax training)", "finetune", FineTuneConfig),
        ("report (top-level keys beside run_dir and out_dir)", "report", report.ReportConfig),
    ])
    def test_readme_defaults_match_resolver(self, heading, block, schema):
        resolved, _ = cli._resolve_block(schema, {}, block, None)
        documented = self.readme_block(heading)
        assert json.dumps(documented, sort_keys=True) == json.dumps(resolved, sort_keys=True)
