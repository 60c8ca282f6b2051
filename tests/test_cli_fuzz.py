"""Fuzz the config boundary: mutated configs and manifests of every command
exit with a documented code, and an error exit makes no output directory
and prints one line that starts with its label.

The bases are each configs/*.json, shrunk so that a valid run takes
milliseconds, and a real manifest of each command. A case applies one to
three mutations: drop an entry, add a key (one of the schema's own keys
or an unknown one), or set an entry to another type or an extreme value.

Oversized values are drawn but never allocated: the library's allocation
points are wrapped so that a request over _BUDGET bytes raises the
MemoryError numpy raises on a machine that cannot hold it (a request too
large for any machine still reaches numpy, which rejects it unallocated). Epoch and
iteration counts are capped at 2, so a huge count is resolved and checked
but runs for two epochs.
"""

import contextlib
import copy
import dataclasses
import functools
import io
import json
import os
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_rbm
from mndbn import cli, dbn, groups, rbm, synth
from mndbn.dbn import Dbn, FineTuneConfig
from mndbn.mixed_norm import TrainConfig
from mndbn.model_io import save_dbn

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# A simulated machine: an allocation above this many bytes fails.
_BUDGET = 1 << 21
_CAP = 2

_LABELS = {2: ("config error: ", "memory error: "), 3: ("data error: ",),
           4: ("numeric error: ",)}

VALUES = [
    None, True, False, "", "x", "data/none", -1, 0, 1, 2, 0.5, -0.5, 1e-300, 100000,
    2**31, 2**70, -(2**70), 1e308, -1e308, float("nan"), float("inf"), float("-inf"),
    [], {}, [1], ["x"], {"x": 1},
]

PENALTY_KEYS = ["lambda", "group_size", "overlap_pct"]
DATASET_KEYS = ["name", "limit", "train_path", "test_path", "train_images", "train_labels",
                "test_images", "test_labels"]
TOP_KEYS = ["dataset", "layer_sizes", "penalty", "penalties", "train", "finetune", "out_dir",
            "model_path", "run_dir", "command", "config", "seed", "artifacts"]
SCHEMA_KEYS = sorted(
    {key for schema in (TrainConfig, FineTuneConfig, synth.make_synthetic)
     for key, _, _ in cli._fields(schema)}
    | set(PENALTY_KEYS) | set(DATASET_KEYS) | set(TOP_KEYS) | {"unknown"}
)

TINY_SYNTH = {"name": "synthetic", "n_train": 40, "n_test": 10, "side": 4, "seed": 0}


def _over_budget(*arrays):
    """Fail as numpy would if any of the arrays, each given as a number of
    bytes, is too large for the simulated machine. numpy itself rejects,
    with a ValueError, an array that does not fit in its address range, so
    that case is left to the real allocation."""
    for nbytes in arrays:
        if _BUDGET < nbytes < 2**63:
            raise MemoryError(f"Unable to allocate {nbytes} bytes (fuzz budget {_BUDGET})")


def _guarded(mp):
    """Wrap the allocations whose size a config sets, and cap the loops
    whose length it sets."""
    make_synthetic = synth.make_synthetic

    @functools.wraps(make_synthetic)
    def guarded_synthetic(n_train, n_test=0, side=8, *args, **kwargs):
        pixels = max(side, 0) ** 2
        _over_budget(80 * pixels, 8 * max(n_train, 0) * pixels, 8 * max(n_test, 0) * pixels)
        return make_synthetic(n_train, n_test, side, *args, **kwargs)

    init_random = rbm.Rbm.init_random.__func__

    def guarded_init(cls, n_visible, n_hidden, rng, std=0.01):
        _over_budget(8 * n_visible * n_hidden)
        return init_random(cls, n_visible, n_hidden, rng, std)

    make_partition = groups.make_partition

    @functools.wraps(make_partition)
    def guarded_partition(j, group_size, overlap_fraction=0.0):
        # unit indices, then a cover table of at most min(group_size, j) rows
        j_ = max(j, 0)
        _over_budget(8 * j_, 8 * j_ * min(max(group_size, 1), j_))
        return make_partition(j, group_size, overlap_fraction)

    pretrain_greedy, fine_tune = dbn.pretrain_greedy, dbn.fine_tune

    def capped_pretrain(dataset, sizes, cfgs, params, rng):
        params = dataclasses.replace(params, epochs=min(params.epochs, _CAP))
        return pretrain_greedy(dataset, sizes, cfgs, params, rng)

    def capped_fine_tune(d, dataset, epochs, cfg, rng, eval_dataset=None):
        cfg = dataclasses.replace(cfg, cg_iters=min(cfg.cg_iters, _CAP))
        return fine_tune(d, dataset, min(epochs, _CAP), cfg, rng, eval_dataset=eval_dataset)

    mp.setattr(synth, "make_synthetic", guarded_synthetic)
    mp.setattr(rbm.Rbm, "init_random", classmethod(guarded_init))
    mp.setattr(groups, "make_partition", guarded_partition)
    mp.setattr(dbn, "pretrain_greedy", capped_pretrain)
    mp.setattr(dbn, "fine_tune", capped_fine_tune)


def _run(argv):
    """(exit code, stderr) of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _shrink(config: dict, model_path: str) -> dict:
    """A configs/*.json config made small: 20-unit layers, at most one
    epoch, a tiny synthetic dataset, and its output in the working
    directory. USPS and MNIST blocks stay, pointing at files that are not
    there."""
    config = copy.deepcopy(config)
    if config["dataset"]["name"] == "synthetic":
        config["dataset"] = dict(TINY_SYNTH)
    if "layer_sizes" in config:
        config["layer_sizes"] = [20] * len(config["layer_sizes"])
    for block in ("train", "finetune"):
        if block in config:
            config[block]["epochs"] = 1
    if "model_path" in config:
        config["model_path"] = model_path
    config["out_dir"] = "out"
    return config


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    """(command, config or manifest) pairs to mutate."""
    root = tmp_path_factory.mktemp("fuzz-bases")
    model = str(root / "pretrained.mndbn")
    save_dbn(Dbn([random_rbm(0, 16, 20), random_rbm(1, 20, 20)]), model)
    out = []
    for path in sorted(CONFIGS.glob("*.json")):
        config = json.loads(path.read_text(encoding="utf-8"))
        out.append(("finetune" if "model_path" in config else "pretrain-dbn",
                    _shrink(config, model)))
    runs = root / "runs"
    steps = [
        ("pretrain-dbn", {"dataset": TINY_SYNTH, "layer_sizes": [20],
                          "penalty": {"lambda": 0.1, "group_size": 10, "overlap_pct": 50},
                          "train": {"epochs": 1, "batch": 20}}, "pretrain"),
        ("finetune", {"model_path": model, "dataset": TINY_SYNTH,
                      "finetune": {"epochs": 1, "batch": 20}}, "finetune"),
        ("evaluate", {"model_path": str(runs / "finetune" / "dbn_finetuned.mndbn"),
                      "dataset": TINY_SYNTH}, "evaluate"),
        ("report", {"run_dir": str(runs)}, "report"),
    ]
    for command, config, name in steps:
        config = {**config, "out_dir": str(runs / name)}
        cfg_path = root / f"{name}.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert _run([command, "--config", str(cfg_path)])[0] == 0
        manifest = json.loads((runs / name / "manifest.json").read_text(encoding="utf-8"))
        manifest["config"]["out_dir"] = "out"
        out.append((command, {**config, "out_dir": "out"}))
        out.append((command, manifest))
    return out


def _entries(node, parent=None, key=None):
    """(container, key, value) of every entry under node, with node itself
    as (None, None, node) first; containers are dicts and lists."""
    yield parent, key, node
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for k, child in list(items):
        yield from _entries(child, node, k)


# Values of an entry's own type that a config check must stop, or that
# must fail with a documented code further in.
EXTREMES = {
    int: [-1, 0, 100000, 2**31, 2**70],
    float: [-1.0, 0.0, 1e-300, 1e308, 100000.0],
    str: ["", "x", "data/none"],
    bool: [True, False],
}


def _value(data, old=None):
    """Half the time an extreme of old's own type, else any of VALUES."""
    pool = EXTREMES.get(type(old))
    if pool and data.draw(st.booleans(), label="same type"):
        return data.draw(st.sampled_from(pool), label="value")
    # a copy, so that a later mutation cannot change VALUES itself
    return copy.deepcopy(data.draw(st.sampled_from(VALUES), label="value"))


def _mutate(data, config):
    config = copy.deepcopy(config)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        entries = list(_entries(config))
        # "set" twice as often: it is the mutation that reaches training
        op = data.draw(st.sampled_from(["drop", "add", "set", "set"]), label="op")
        if op == "add":
            dicts = [node for _, _, node in entries if isinstance(node, dict)]
            target = data.draw(st.sampled_from(dicts), label="into")
            target[data.draw(st.sampled_from(SCHEMA_KEYS), label="key")] = _value(data)
            continue
        slots = [(parent, key) for parent, key, _ in entries if parent is not None]
        if not slots:
            continue
        parent, key = data.draw(st.sampled_from(slots), label="at")
        if op == "drop":
            del parent[key]
        else:
            parent[key] = _value(data, parent[key])
    return config


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_mutated_config_exits_with_a_documented_code(bases, tmp_path_factory, data):
    command, base = data.draw(st.sampled_from(bases), label="base")
    config = _mutate(data, base)
    case = tmp_path_factory.mktemp("case")
    cfg_path = case / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    before = sorted(os.listdir(case))
    cwd = os.getcwd()
    os.chdir(case)
    try:
        with pytest.MonkeyPatch.context() as mp:
            _guarded(mp)
            code, err = _run([command, "--config", str(cfg_path)])
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2, 3, 4)
    if code >= 2:
        assert sorted(os.listdir(case)) == before, err
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert err.startswith(_LABELS[code]), err
    shutil.rmtree(case)
