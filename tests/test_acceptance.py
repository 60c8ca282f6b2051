"""Acceptance gate: one test per shipped guarantee, each printing a verdict.

Real-data checks (criteria 5 and 6) run against USPS when MNDBN_DATA_DIR
points at the files (see conftest.usps_paths); a synthetic stand-in with the
same shape always runs so the logic is exercised either way.
"""

import itertools
import json
import time

import numpy as np
import pytest

from conftest import random_rbm, usps_paths
from mndbn.cli import main
from mndbn.core import Rng
from mndbn.dbn import (
    Dbn,
    FineTuneConfig,
    attach_head,
    evaluate,
    fine_tune,
    loss_and_grad,
    pretrain_greedy,
    _bind,
    _loss_only,
)
from mndbn.data import load_usps
from mndbn.groups import accumulate, divide_accumulate, expand, group_norms, make_partition
from mndbn.mixed_norm import PenaltyConfig, TrainConfig, mixed_norm, penalty_grad, train_mnrbm
from mndbn.rbm import (
    Rbm,
    cd_step,
    energy,
    exact_log_likelihood_grad,
    exact_log_partition_function,
    prob_h_given_x,
)
from mndbn.synth import make_synthetic


def verdict(number, ok, detail):
    import conftest

    state = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE criterion {number}: {state} ({detail})"
    print(line)
    conftest.ACCEPTANCE_VERDICTS.append(line)
    assert ok, f"criterion {number}: {detail}"


def record_skip(number, reason):
    import conftest

    line = f"ACCEPTANCE criterion {number}: NOT RUN ({reason})"
    conftest.ACCEPTANCE_VERDICTS.append(line)
    pytest.skip(reason)


def test_criterion_1_cd_ascent_direction_matches_exact_gradient():
    t0 = time.perf_counter()
    r = Rng(1000)
    m = Rbm(w=r.normal((3, 2)), b_vis=r.normal((3,)), a_hid=r.normal((2,)))
    x = np.array([1.0, 0.0, 1.0])
    exact = exact_log_likelihood_grad(m, x)
    stream = Rng(42)
    batch = x[None, :]
    acc = np.zeros((3, 2))
    n = 20000
    for _ in range(n):
        acc += cd_step(m, batch, stream).dw
    mean_dw = acc / n
    cos = float(
        (mean_dw.ravel() @ exact.dw.ravel())
        / (np.linalg.norm(mean_dw) * np.linalg.norm(exact.dw))
    )
    elapsed = time.perf_counter() - t0
    verdict(1, cos >= 0.9 and elapsed < 10.0,
            f"cosine {cos:.4f} >= 0.9, {elapsed:.1f}s < 10s")


def test_criterion_2_penalty_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    layouts = [
        PenaltyConfig(lam=1.0, partition=make_partition(6, 3)),
        PenaltyConfig(lam=1.0, partition=make_partition(6, 4, 0.5)),
    ]

    def fd_grad(m, x, cfg, eps=1e-5):
        gw = np.zeros_like(m.w)
        ga = np.zeros_like(m.a_hid)

        def val(model):
            return float(mixed_norm(prob_h_given_x(model, x), cfg))

        for i in range(m.n_visible):
            for j in range(m.n_hidden):
                mp = m.copy(); mp.w[i, j] += eps
                mm = m.copy(); mm.w[i, j] -= eps
                gw[i, j] = (val(mp) - val(mm)) / (2 * eps)
        for j in range(m.n_hidden):
            mp = m.copy(); mp.a_hid[j] += eps
            mm = m.copy(); mm.a_hid[j] -= eps
            ga[j] = (val(mp) - val(mm)) / (2 * eps)
        return gw, ga

    worst = 0.0
    checked = 0
    for seed in range(20):
        r = Rng(seed)
        m = Rbm(w=r.normal((6, 6)), b_vis=r.normal((6,)), a_hid=r.normal((6,)))
        x = r.uniform((6,))
        for cfg in layouts:
            part = cfg.partition
            p = prob_h_given_x(m, x)
            grouped = expand(p, part).reshape(part.num_groups, part.group_size)
            norms = np.linalg.norm(grouped, axis=1)
            # units whose every group copy sits in a vanishing group are
            # excluded; here all norms are far above the 1e-7 floor
            unit_ok = accumulate(
                np.repeat(norms > 1e-7, part.group_size).astype(float), part
            ) > 0.0
            gw, ga = penalty_grad(m, x, cfg)
            fw, fa = fd_grad(m, x, cfg)
            analytic = np.concatenate([gw[:, unit_ok].ravel(), ga[unit_ok]])
            numeric = np.concatenate([fw[:, unit_ok].ravel(), fa[unit_ok]])
            floor = np.abs(numeric).max()
            rel = np.abs(analytic - numeric) / np.maximum(
                np.maximum(np.abs(analytic), np.abs(numeric)), floor
            )
            worst = max(worst, float(rel.max()))
            checked += analytic.size
    elapsed = time.perf_counter() - t0
    verdict(2, worst < 1e-6 and elapsed < 5.0,
            f"worst rel err {worst:.2e} < 1e-6 over {checked} coords, {elapsed:.1f}s < 5s")


def test_criterion_3_joint_distribution_normalizes():
    t0 = time.perf_counter()
    worst = 0.0
    for seed, (nv, nh) in enumerate([(3, 2), (2, 3), (4, 2), (2, 2), (3, 3)]):
        m = random_rbm(seed, nv, nh)
        log_z = exact_log_partition_function(m)
        total = 0.0
        for x in itertools.product([0.0, 1.0], repeat=nv):
            for h in itertools.product([0.0, 1.0], repeat=nh):
                total += np.exp(-energy(m, np.array(x), np.array(h)) - log_z)
        worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - t0
    verdict(3, worst <= 1e-10 and elapsed < 1.0,
            f"max |sum p - 1| = {worst:.2e} <= 1e-10, {elapsed:.2f}s < 1s")


def test_criterion_4_overlap_algebra():
    shapes = [(6, 4, 0.5), (100, 20, 0.2), (100, 50, 0.5)]
    worst = 0.0
    kernels_exact = True
    for j, g, a in shapes:
        part = make_partition(j, g, a)
        for trial in range(100):
            r = Rng(j * 1000 + trial)
            v = r.normal((part.j_original,))
            u = r.normal((part.num_groups * g,))
            lhs = float(expand(v, part) @ u)
            rhs = float(v @ accumulate(u, part))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        # the index-table kernels against their augmented-axis compositions:
        # each group's l2 norm over its copies (members added in ascending
        # order), and the per-copy quotients summed back per unit
        r = Rng(j + g)
        v = r.normal((7, j))
        d = r.uniform((7, part.num_groups)) + 0.5
        copies = expand(v, part).reshape(7, part.num_groups, g)
        squares = copies[..., 0] * copies[..., 0]
        for i in range(1, g):
            squares = squares + copies[..., i] * copies[..., i]
        quotients = accumulate(expand(v, part) / np.repeat(d, g, axis=-1), part)
        kernels_exact = (kernels_exact
                         and np.array_equal(group_norms(v, part), np.sqrt(squares))
                         and np.array_equal(divide_accumulate(v, d, part), quotients))
    # zero overlap is the disjoint tiling written out: each unit is its own
    # single copy, so both maps are the identity
    zero_overlap = make_partition(12, 3, 0.0)
    v = Rng(0).normal((12,))
    u = Rng(1).normal((12,))
    bit_identical = (
        zero_overlap.stride == 3
        and zero_overlap.num_groups * zero_overlap.group_size == 12
        and (expand(np.arange(12, dtype=float), zero_overlap) == np.arange(12)).all()
        and zero_overlap.cover.shape == (1, 12)
        and (zero_overlap.cover[0] == np.arange(12) // 3).all()
        and (expand(v, zero_overlap) == v).all()
        and (accumulate(u, zero_overlap) == u).all()
    )
    verdict(4, worst <= 1e-12 and bit_identical and kernels_exact,
            f"adjointness error {worst:.2e} <= 1e-12 on 3 shapes x 100 pairs, "
            f"zero overlap is the disjoint tiling, maps the identity: {bit_identical}, "
            f"group_norms/divide_accumulate equal their augmented-axis compositions: "
            f"{kernels_exact}")


def _paired_sparsity_runs(train, number, context):
    t0 = time.perf_counter()
    activations = {}
    for lam in (0.0, 0.1):
        cfg = PenaltyConfig(lam=lam, partition=make_partition(100, 20))
        params = TrainConfig(epochs=10, seed=0)
        _, log = train_mnrbm(train.images, cfg, params, Rng(0))
        activations[lam] = log[-1].mean_hidden_activation
    elapsed = time.perf_counter() - t0
    verdict(number,
            activations[0.1] < activations[0.0] and elapsed < 300.0,
            f"{context}: regularized mean activation {activations[0.1]:.4f} "
            f"< vanilla {activations[0.0]:.4f}, {elapsed:.0f}s < 300s")


def test_criterion_5_sparsity_direction_synthetic_twin():
    train, _ = make_synthetic(1000, 0, side=8, seed=5)
    _paired_sparsity_runs(train, 5, "synthetic twin, 1000 images")


def test_criterion_5_sparsity_direction_usps():
    paths, reason = usps_paths()
    if paths is None:
        record_skip(5, f"usps variant skipped: {reason}")
    train = load_usps(paths[0]).subset(1000)
    _paired_sparsity_runs(train, 5, "usps, 1000 images")


def _desk_scale_classification(train, test, number, context):
    t0 = time.perf_counter()
    cfg = PenaltyConfig(lam=0.1, partition=make_partition(100, 20))
    params = TrainConfig(epochs=15, seed=0)
    d, _ = pretrain_greedy(train, [100, 100], [cfg, cfg], params, Rng(0))
    d = attach_head(d, 10)
    d, _ = fine_tune(d, train, 30, FineTuneConfig(head_only=True), Rng(1),
                     eval_dataset=test)
    acc, _ = evaluate(d, test)
    elapsed = time.perf_counter() - t0
    verdict(number, acc >= 0.88 and elapsed < 1800.0,
            f"{context}: test accuracy {100 * acc:.2f}% >= 88%, "
            f"{elapsed:.0f}s < 1800s")


def test_criterion_6_desk_scale_classification_synthetic_twin():
    train, test = make_synthetic(7280, 2000, side=8, seed=0)
    _desk_scale_classification(train, test, 6, "synthetic twin, 7280/2000")


def test_criterion_6_desk_scale_classification_usps():
    paths, reason = usps_paths()
    if paths is None:
        record_skip(6, f"usps variant skipped: {reason}")
    train = load_usps(paths[0])
    test = load_usps(paths[1])
    _desk_scale_classification(train, test, 6, "usps full")


def test_criterion_7_manifest_replay_is_byte_identical(tmp_path):
    # No artifact a manifest lists holds a clock reading (those go to the
    # unlisted timings.json), so a replay must reproduce every digest.
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({
        "dataset": {"name": "synthetic", "n_train": 300, "n_test": 80, "side": 4,
                    "seed": 0},
        "layer_sizes": [24, 12],
        "penalty": {"lambda": 0.1, "group_size": 6},
        "train": {"epochs": 3, "batch": 50, "seed": 0},
        "out_dir": str(tmp_path / "pre1"),
    }))
    assert main(["pretrain-dbn", "--config", str(cfg_path)]) == 0
    assert main(["pretrain-dbn", "--config", str(tmp_path / "pre1" / "manifest.json"),
                 "--out", str(tmp_path / "pre2")]) == 0

    ft_path = tmp_path / "ft.json"
    ft_path.write_text(json.dumps({
        "dataset": {"name": "synthetic", "n_train": 300, "n_test": 80, "side": 4,
                    "seed": 0},
        "finetune": {"epochs": 3, "batch": 100, "seed": 1},
        "out_dir": str(tmp_path / "ft1"),
    }))
    assert main(["finetune", str(tmp_path / "pre1" / "dbn.mndbn"),
                 "--config", str(ft_path)]) == 0
    assert main(["finetune", "--config", str(tmp_path / "ft1" / "manifest.json"),
                 "--out", str(tmp_path / "ft2")]) == 0

    problems = []
    for da, db in (("pre1", "pre2"), ("ft1", "ft2")):
        a, b = (json.loads((tmp_path / d / "manifest.json").read_text())["artifacts"]
                for d in (da, db))
        problems += [f"{name} differs between {da} and {db}"
                     for name in sorted(set(a) | set(b)) if a.get(name) != b.get(name)]
    verdict(7, not problems,
            "replayed pretrain-dbn and finetune manifests record identical digests, "
            "nothing masked" if not problems else "; ".join(problems))


def test_criterion_8_backprop_matches_finite_differences():
    t0 = time.perf_counter()
    rng = Rng(11)
    d = Dbn([Rbm(w=rng.normal((6, 4)), b_vis=rng.normal((6,)), a_hid=rng.normal((4,)))])
    d = attach_head(d, 3)
    d.head.w_out[:] = rng.normal((4, 3))
    d.head.b_out[:] = rng.normal((3,))
    x = rng.uniform((5, 6))
    y = rng.integers(0, 3, (5,))
    _, grad = loss_and_grad(d, x, y)
    params = _bind(d, False)
    theta = params.copy()
    eps = 1e-5
    worst = 0.0
    for i in Rng(12).integers(0, theta.size, (100,)):
        params[i] = theta[i] + eps
        lp = _loss_only(d, x, y)[0]
        params[i] = theta[i] - eps
        lm = _loss_only(d, x, y)[0]
        params[i] = theta[i]
        fd = (lp - lm) / (2 * eps)
        worst = max(worst, abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-12))
    elapsed = time.perf_counter() - t0
    verdict(8, worst < 1e-5 and elapsed < 5.0,
            f"worst rel err {worst:.2e} < 1e-5 over 100 coords, {elapsed:.1f}s < 5s")
