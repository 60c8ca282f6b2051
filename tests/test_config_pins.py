"""Pins of config resolution and of the bytes every CLI command writes.

The literals below were recorded before the CLI derived its config schema
from the config dataclasses, and the refactor must not move them; the
report digests were recorded before the report block went through
ReportConfig. The resolved blocks are exactly what each shipped config's
manifest records under "config". The run digests come from the synthetic
smoke configs (numpy 2.4.6 with OpenBLAS 0.3.31 on x86-64; another BLAS
build may round the model digests differently). Wall-clock durations are
masked.
"""

import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from mndbn import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Artifacts that record a wall-clock duration.
TIMED = ("_log.csv", "metrics.json")


def _masked(path: Path) -> bytes:
    if path.suffix == ".csv" and path.name.endswith("_log.csv"):
        rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
        drop = rows[0].index("wall_seconds")
        return json.dumps([[c for i, c in enumerate(r) if i != drop] for r in rows]).encode()
    if path.suffix == ".json":
        blob = json.loads(path.read_text(encoding="utf-8"))
        blob.pop("wall_seconds", None)
        for name in blob.get("artifacts", {}):
            if name.endswith(TIMED):
                blob["artifacts"][name] = "masked"
        return json.dumps(blob, sort_keys=True).encode()
    return path.read_bytes()


def digests(out_dir: Path) -> dict:
    """sha256 of every file a command wrote, durations masked."""
    return {
        p.name: hashlib.sha256(_masked(p)).hexdigest()[:16]
        for p in sorted(out_dir.iterdir())
    }


def _smoke(name: str, block: str, epochs: int) -> dict:
    config = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    config[block]["epochs"] = epochs
    return config


def run_smoke(root: Path) -> dict:
    """Run every command on the synthetic smoke configs (six pretraining and
    five fine-tuning epochs) with relative output paths under root, then
    report over the whole run tree; returns the digests per command."""
    runs = {
        "pretrain-dbn": _smoke("synthetic_smoke.json", "train", 6),
        "finetune": _smoke("synthetic_smoke_finetune.json", "finetune", 5),
    }
    pretrain = runs["pretrain-dbn"]
    runs["train-rbm"] = {
        "dataset": pretrain["dataset"],
        "layer_size": 100,
        "penalty": pretrain["penalty"],
        "train": pretrain["train"],
        "out_dir": "runs/synthetic_smoke/rbm",
    }
    runs["evaluate"] = {
        "model_path": "runs/synthetic_smoke/finetune/dbn_finetuned.mndbn",
        "dataset": pretrain["dataset"],
        "out_dir": "runs/synthetic_smoke/evaluate",
    }
    runs["report"] = {"run_dir": "runs/synthetic_smoke", "out_dir": "runs/synthetic_smoke/report"}
    out = {}
    for command, config in runs.items():
        path = root / f"{command}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main([command, "--config", str(path)]) == 0
        out[command] = digests(root / config["out_dir"])
    return out


RESOLVED = {'mnist_dbn_full.json': ['pretrain-dbn',
                         {'dataset': {'limit': None,
                                      'name': 'mnist',
                                      'test_images': 'data/t10k-images-idx3-ubyte.gz',
                                      'test_labels': 'data/t10k-labels-idx1-ubyte.gz',
                                      'train_images': 'data/train-images-idx3-ubyte.gz',
                                      'train_labels': 'data/train-labels-idx1-ubyte.gz'},
                          'layer_sizes': [500, 500, 2000],
                          'out_dir': 'runs/mnist_full/pretrain',
                          'penalties': [{'epsilon': 1e-08,
                                         'group_size': 500,
                                         'lambda': 0.0,
                                         'overlap_pct': 0.0},
                                        {'epsilon': 1e-08,
                                         'group_size': 500,
                                         'lambda': 0.0,
                                         'overlap_pct': 0.0},
                                        {'epsilon': 1e-08,
                                         'group_size': 2000,
                                         'lambda': 0.0,
                                         'overlap_pct': 0.0}],
                          'train': {'batch': 100,
                                    'cd_k': 1,
                                    'epochs': 50,
                                    'final_momentum': 0.9,
                                    'lr': 0.1,
                                    'momentum': 0.5,
                                    'momentum_switch_epoch': 5,
                                    'seed': 0}}],
 'mnist_dbn_full_finetune.json': ['finetune',
                                  {'dataset': {'limit': None,
                                               'name': 'mnist',
                                               'test_images': 'data/t10k-images-idx3-ubyte.gz',
                                               'test_labels': 'data/t10k-labels-idx1-ubyte.gz',
                                               'train_images': 'data/train-images-idx3-ubyte.gz',
                                               'train_labels': 'data/train-labels-idx1-ubyte.gz'},
                                   'finetune': {'backtrack': 0.5,
                                                'batch': 1000,
                                                'c1': 0.0001,
                                                'cg_iters': 3,
                                                'epochs': 100,
                                                'head_only': False,
                                                'lr': 0.1,
                                                'max_backtracks': 30,
                                                'method': 'cg',
                                                'n_classes': 10,
                                                'seed': 1},
                                   'model_path': 'runs/mnist_full/pretrain/dbn.mndbn',
                                   'out_dir': 'runs/mnist_full/finetune'}],
 'synthetic_smoke.json': ['pretrain-dbn',
                          {'dataset': {'limit': None,
                                       'max_shift': 1,
                                       'n_test': 400,
                                       'n_train': 2000,
                                       'name': 'synthetic',
                                       'noise': 0.1,
                                       'seed': 0,
                                       'side': 8},
                           'layer_sizes': [100, 100],
                           'out_dir': 'runs/synthetic_smoke/pretrain',
                           'penalties': [{'epsilon': 1e-08,
                                          'group_size': 20,
                                          'lambda': 0.1,
                                          'overlap_pct': 0.0},
                                         {'epsilon': 1e-08,
                                          'group_size': 20,
                                          'lambda': 0.1,
                                          'overlap_pct': 0.0}],
                           'train': {'batch': 100,
                                     'cd_k': 1,
                                     'epochs': 15,
                                     'final_momentum': 0.9,
                                     'lr': 0.1,
                                     'momentum': 0.5,
                                     'momentum_switch_epoch': 5,
                                     'seed': 0}}],
 'synthetic_smoke_finetune.json': ['finetune',
                                   {'dataset': {'limit': None,
                                                'max_shift': 1,
                                                'n_test': 400,
                                                'n_train': 2000,
                                                'name': 'synthetic',
                                                'noise': 0.1,
                                                'seed': 0,
                                                'side': 8},
                                    'finetune': {'backtrack': 0.5,
                                                 'batch': 1000,
                                                 'c1': 0.0001,
                                                 'cg_iters': 3,
                                                 'epochs': 30,
                                                 'head_only': True,
                                                 'lr': 0.1,
                                                 'max_backtracks': 30,
                                                 'method': 'cg',
                                                 'n_classes': 10,
                                                 'seed': 1},
                                    'model_path': 'runs/synthetic_smoke/pretrain/dbn.mndbn',
                                    'out_dir': 'runs/synthetic_smoke/finetune'}],
 'usps_dbn_desk.json': ['pretrain-dbn',
                        {'dataset': {'limit': None,
                                     'name': 'usps',
                                     'test_path': 'data/zip.test',
                                     'train_path': 'data/zip.train'},
                         'layer_sizes': [100, 100],
                         'out_dir': 'runs/usps_desk/pretrain',
                         'penalties': [{'epsilon': 1e-08,
                                        'group_size': 20,
                                        'lambda': 0.1,
                                        'overlap_pct': 0.0},
                                       {'epsilon': 1e-08,
                                        'group_size': 20,
                                        'lambda': 0.1,
                                        'overlap_pct': 0.0}],
                         'train': {'batch': 100,
                                   'cd_k': 1,
                                   'epochs': 15,
                                   'final_momentum': 0.9,
                                   'lr': 0.1,
                                   'momentum': 0.5,
                                   'momentum_switch_epoch': 5,
                                   'seed': 0}}],
 'usps_dbn_desk_finetune.json': ['finetune',
                                 {'dataset': {'limit': None,
                                              'name': 'usps',
                                              'test_path': 'data/zip.test',
                                              'train_path': 'data/zip.train'},
                                  'finetune': {'backtrack': 0.5,
                                               'batch': 1000,
                                               'c1': 0.0001,
                                               'cg_iters': 3,
                                               'epochs': 30,
                                               'head_only': True,
                                               'lr': 0.1,
                                               'max_backtracks': 30,
                                               'method': 'cg',
                                               'n_classes': 10,
                                               'seed': 1},
                                  'model_path': 'runs/usps_desk/pretrain/dbn.mndbn',
                                  'out_dir': 'runs/usps_desk/finetune'}],
 'usps_dbn_full.json': ['pretrain-dbn',
                        {'dataset': {'limit': None,
                                     'name': 'usps',
                                     'test_path': 'data/zip.test',
                                     'train_path': 'data/zip.train'},
                         'layer_sizes': [500, 500, 2000],
                         'out_dir': 'runs/usps_full/pretrain',
                         'penalties': [{'epsilon': 1e-08,
                                        'group_size': 500,
                                        'lambda': 0.0,
                                        'overlap_pct': 0.0},
                                       {'epsilon': 1e-08,
                                        'group_size': 500,
                                        'lambda': 0.0,
                                        'overlap_pct': 0.0},
                                       {'epsilon': 1e-08,
                                        'group_size': 2000,
                                        'lambda': 0.0,
                                        'overlap_pct': 0.0}],
                         'train': {'batch': 100,
                                   'cd_k': 1,
                                   'epochs': 50,
                                   'final_momentum': 0.9,
                                   'lr': 0.1,
                                   'momentum': 0.5,
                                   'momentum_switch_epoch': 5,
                                   'seed': 0}}],
 'usps_dbn_full_finetune.json': ['finetune',
                                 {'dataset': {'limit': None,
                                              'name': 'usps',
                                              'test_path': 'data/zip.test',
                                              'train_path': 'data/zip.train'},
                                  'finetune': {'backtrack': 0.5,
                                               'batch': 1000,
                                               'c1': 0.0001,
                                               'cg_iters': 3,
                                               'epochs': 100,
                                               'head_only': False,
                                               'lr': 0.1,
                                               'max_backtracks': 30,
                                               'method': 'cg',
                                               'n_classes': 10,
                                               'seed': 1},
                                  'model_path': 'runs/usps_full/pretrain/dbn.mndbn',
                                  'out_dir': 'runs/usps_full/finetune'}],
 'usps_mndbn_full.json': ['pretrain-dbn',
                          {'dataset': {'limit': None,
                                       'name': 'usps',
                                       'test_path': 'data/zip.test',
                                       'train_path': 'data/zip.train'},
                           'layer_sizes': [500, 500, 2000],
                           'out_dir': 'runs/usps_mn_full/pretrain',
                           'penalties': [{'epsilon': 1e-08,
                                          'group_size': 10,
                                          'lambda': 0.1,
                                          'overlap_pct': 0.0},
                                         {'epsilon': 1e-08,
                                          'group_size': 10,
                                          'lambda': 0.1,
                                          'overlap_pct': 0.0},
                                         {'epsilon': 1e-08,
                                          'group_size': 10,
                                          'lambda': 0.1,
                                          'overlap_pct': 0.0}],
                           'train': {'batch': 100,
                                     'cd_k': 1,
                                     'epochs': 50,
                                     'final_momentum': 0.9,
                                     'lr': 0.1,
                                     'momentum': 0.5,
                                     'momentum_switch_epoch': 5,
                                     'seed': 0}}],
 'usps_mndbn_full_finetune.json': ['finetune',
                                   {'dataset': {'limit': None,
                                                'name': 'usps',
                                                'test_path': 'data/zip.test',
                                                'train_path': 'data/zip.train'},
                                    'finetune': {'backtrack': 0.5,
                                                 'batch': 1000,
                                                 'c1': 0.0001,
                                                 'cg_iters': 3,
                                                 'epochs': 100,
                                                 'head_only': False,
                                                 'lr': 0.1,
                                                 'max_backtracks': 30,
                                                 'method': 'cg',
                                                 'n_classes': 10,
                                                 'seed': 1},
                                    'model_path': 'runs/usps_mn_full/pretrain/dbn.mndbn',
                                    'out_dir': 'runs/usps_mn_full/finetune'}]}

RUN_DIGESTS = {'evaluate': {'confusion.csv': '0f0cf689d9cc1439',
              'manifest.json': 'e979b4aca9f58275',
              'metrics.json': 'f19c96741eb939e8'},
 'finetune': {'confusion.csv': '0f0cf689d9cc1439',
              'dbn_finetuned.mndbn': 'ebc08bbb60559f74',
              'finetune_log.csv': 'af94add168b8a9b5',
              'manifest.json': 'e72f936ec9066077',
              'metrics.json': '95a02d0f7a9ef6ff'},
 'pretrain-dbn': {'dbn.mndbn': '532c7e24ba1dbda3',
                  'layer1_log.csv': 'a285b2bc194c3fdf',
                  'layer2_log.csv': '52c8c32208432e56',
                  'manifest.json': '5fc4cabb08919f62'},
 'report': {'finetune_dbn_finetuned_activations.csv': 'ffb80f85ba1e81a2',
            'finetune_dbn_finetuned_tiles.pgm': '86bbc4fd4a073bdf',
            'manifest.json': '8572208824f00863',
            'pretrain_dbn_activations.csv': 'ffb80f85ba1e81a2',
            'pretrain_dbn_tiles.pgm': '86bbc4fd4a073bdf',
            'rbm_model_activations.csv': '590d66f1b51782a0',
            'rbm_model_tiles.pgm': '0d27ba7b41136bae',
            'results.csv': 'a481e38be8a44022',
            'results.txt': '30550122e909b55e'},
 'train-rbm': {'manifest.json': '85a6f3090478f6f0',
               'model.mndbn': '10763262dd13e22c',
               'training_log.csv': '66bbcd8911428ff3'}}


def test_every_shipped_config_is_pinned():
    assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(RESOLVED)


@pytest.mark.parametrize("name", sorted(RESOLVED))
def test_shipped_config_resolves_to_pinned_block(name, tmp_path, monkeypatch):
    # Resolution reads no data, so configs for absent USPS/MNIST files work.
    monkeypatch.chdir(tmp_path)
    command, expected = RESOLVED[name]
    args = cli.build_parser().parse_args([command, "--config", str(CONFIGS / name)])
    resolve = cli._resolve_finetune if command == "finetune" else cli._resolve_pretrain
    resolved = resolve(args, cli._load_config(args.config, command))[0]
    # Compared as JSON text, so an int turning into a float shows too.
    assert json.dumps(resolved, sort_keys=True) == json.dumps(expected, sort_keys=True)
    assert not list(tmp_path.iterdir())


def test_commands_write_pinned_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_smoke(tmp_path) == RUN_DIGESTS
