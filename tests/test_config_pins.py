"""Pins of config resolution and of the bytes every CLI command writes.

The literals below were recorded before the CLI derived its config schema
from the config dataclasses, and the refactor must not move them. Each
re-recording since, and why:

- The report manifest, when the single-layer run left the smoke tree and
  took its tiles and histogram out of the artifact list.
- The fine-tune model and manifest, when the fine-tune block lost its
  gradient-descent and line-search keys; the model's float payload kept
  its bytes.
- Six digests, when the suite pinned BLAS to one thread (see conftest.py),
  because a two-thread gemm rounds differently: pretrain-dbn's dbn.mndbn
  and layer2_log.csv (layer 2's weights and metrics) and its manifest.json
  (their digests), and finetune's dbn_finetuned.mndbn, finetune_log.csv
  and manifest.json, which start from that model.
- The pretrain-dbn model and manifest and the report manifest, when CD-1,
  the momentum values, the penalty's norm floor and the report's grid,
  bins and image count became constants: the model header's meta and the
  resolved blocks lost those keys, and the model's float payload kept its
  bytes.
- The pretrain-dbn and finetune manifests, when each run began to write
  its model's activation histogram beside the model and list it as an
  artifact. The histograms carry the digest the report's copies had when
  the report recomputed them, and every report digest kept its value.
- Every log, metrics, manifest and results digest, when the clocks moved
  out of them into each run's timings.json and the pins stopped masking
  them: both layer logs, finetune_log.csv, both metrics.json, all four
  manifests, and results.csv and results.txt (the evaluate row lost its
  cost). Every model, histogram, confusion matrix and tile kept its digest.
- All four manifests, when a manifest stopped repeating the seed and
  out_dir that its config block holds, and evaluate and report stopped
  recording a seed of 0 they never read; it now holds only command,
  config and artifacts.
- results.csv and results.txt, and the report manifest again (their
  digests), when the results table gained a leading run column naming
  each measured row's directory under the run tree.

The resolved blocks are exactly what each shipped config's manifest
records under "config". The run digests come from the synthetic smoke
configs at one BLAS thread (numpy 2.4.6 with OpenBLAS 0.3.31 on x86-64;
another BLAS build may round the model digests differently). Each run's
timings.json, the one file that holds clock readings, is left out.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mndbn import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def digests(out_dir: Path) -> dict:
    """sha256 of the raw bytes of every file a command wrote but its timings."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
        for p in sorted(out_dir.iterdir()) if p.name != "timings.json"
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
                          'penalties': [{'group_size': 500,
                                         'lambda': 0.0,
                                         'overlap_pct': 0.0},
                                        {'group_size': 500,
                                         'lambda': 0.0,
                                         'overlap_pct': 0.0},
                                        {'group_size': 2000,
                                         'lambda': 0.0,
                                         'overlap_pct': 0.0}],
                          'train': {'batch': 100,
                                    'epochs': 50,
                                    'lr': 0.1,
                                    'momentum_switch_epoch': 5,
                                    'seed': 0}}],
 'mnist_dbn_full_finetune.json': ['finetune',
                                  {'dataset': {'limit': None,
                                               'name': 'mnist',
                                               'test_images': 'data/t10k-images-idx3-ubyte.gz',
                                               'test_labels': 'data/t10k-labels-idx1-ubyte.gz',
                                               'train_images': 'data/train-images-idx3-ubyte.gz',
                                               'train_labels': 'data/train-labels-idx1-ubyte.gz'},
                                   'finetune': {'batch': 1000,
                                                'cg_iters': 3,
                                                'epochs': 100,
                                                'head_only': False,
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
                           'penalties': [{'group_size': 20,
                                          'lambda': 0.1,
                                          'overlap_pct': 0.0},
                                         {'group_size': 20,
                                          'lambda': 0.1,
                                          'overlap_pct': 0.0}],
                           'train': {'batch': 100,
                                     'epochs': 15,
                                     'lr': 0.1,
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
                                    'finetune': {'batch': 1000,
                                                 'cg_iters': 3,
                                                 'epochs': 30,
                                                 'head_only': True,
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
                         'penalties': [{'group_size': 20,
                                        'lambda': 0.1,
                                        'overlap_pct': 0.0},
                                       {'group_size': 20,
                                        'lambda': 0.1,
                                        'overlap_pct': 0.0}],
                         'train': {'batch': 100,
                                   'epochs': 15,
                                   'lr': 0.1,
                                   'momentum_switch_epoch': 5,
                                   'seed': 0}}],
 'usps_dbn_desk_finetune.json': ['finetune',
                                 {'dataset': {'limit': None,
                                              'name': 'usps',
                                              'test_path': 'data/zip.test',
                                              'train_path': 'data/zip.train'},
                                  'finetune': {'batch': 1000,
                                               'cg_iters': 3,
                                               'epochs': 30,
                                               'head_only': True,
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
                         'penalties': [{'group_size': 500,
                                        'lambda': 0.0,
                                        'overlap_pct': 0.0},
                                       {'group_size': 500,
                                        'lambda': 0.0,
                                        'overlap_pct': 0.0},
                                       {'group_size': 2000,
                                        'lambda': 0.0,
                                        'overlap_pct': 0.0}],
                         'train': {'batch': 100,
                                   'epochs': 50,
                                   'lr': 0.1,
                                   'momentum_switch_epoch': 5,
                                   'seed': 0}}],
 'usps_dbn_full_finetune.json': ['finetune',
                                 {'dataset': {'limit': None,
                                              'name': 'usps',
                                              'test_path': 'data/zip.test',
                                              'train_path': 'data/zip.train'},
                                  'finetune': {'batch': 1000,
                                               'cg_iters': 3,
                                               'epochs': 100,
                                               'head_only': False,
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
                           'penalties': [{'group_size': 10,
                                          'lambda': 0.1,
                                          'overlap_pct': 0.0},
                                         {'group_size': 10,
                                          'lambda': 0.1,
                                          'overlap_pct': 0.0},
                                         {'group_size': 10,
                                          'lambda': 0.1,
                                          'overlap_pct': 0.0}],
                           'train': {'batch': 100,
                                     'epochs': 50,
                                     'lr': 0.1,
                                     'momentum_switch_epoch': 5,
                                     'seed': 0}}],
 'usps_mndbn_full_finetune.json': ['finetune',
                                   {'dataset': {'limit': None,
                                                'name': 'usps',
                                                'test_path': 'data/zip.test',
                                                'train_path': 'data/zip.train'},
                                    'finetune': {'batch': 1000,
                                                 'cg_iters': 3,
                                                 'epochs': 100,
                                                 'head_only': False,
                                                 'seed': 1},
                                    'model_path': 'runs/usps_mn_full/pretrain/dbn.mndbn',
                                    'out_dir': 'runs/usps_mn_full/finetune'}]}

RUN_DIGESTS = {'evaluate': {'confusion.csv': '0f0cf689d9cc1439',
              'manifest.json': '1347ea0116a3c4bf',
              'metrics.json': '9a7f805b7be23843'},
 'finetune': {'confusion.csv': '0f0cf689d9cc1439',
              'dbn_finetuned.mndbn': '064b1548d56e72c3',
              'dbn_finetuned_activations.csv': 'ffb80f85ba1e81a2',
              'finetune_log.csv': 'ff438089f439d255',
              'manifest.json': '07dcbcc9c244309c',
              'metrics.json': '5eb23643a04db252'},
 'pretrain-dbn': {'dbn.mndbn': 'e494d5618aeb1822',
                  'dbn_activations.csv': 'ffb80f85ba1e81a2',
                  'layer1_log.csv': '431602df206c6813',
                  'layer2_log.csv': '693bd2defca02502',
                  'manifest.json': '2486fe9674b1869b'},
 'report': {'finetune_dbn_finetuned_activations.csv': 'ffb80f85ba1e81a2',
            'finetune_dbn_finetuned_tiles.pgm': '86bbc4fd4a073bdf',
            'manifest.json': '8c4350fae294d797',
            'pretrain_dbn_activations.csv': 'ffb80f85ba1e81a2',
            'pretrain_dbn_tiles.pgm': '86bbc4fd4a073bdf',
            'results.csv': 'c97f2464924064de',
            'results.txt': '21f91fa5f3eadbe1'}}


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
    # The fine-tuned model's cost adds its pretraining's CPU time; an
    # evaluate run trains nothing, so its row's cost (pinned above) is blank.
    runs = tmp_path / "runs" / "synthetic_smoke"
    pre, ft, ev = (json.loads((runs / run / "timings.json").read_text())
                   for run in ("pretrain", "finetune", "evaluate"))
    assert ft["training_cpu_seconds"] == ft["cpu_seconds"] + pre["cpu_seconds"]
    assert "training_cpu_seconds" not in ev
