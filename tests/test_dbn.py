"""Greedy stack pre-training, softmax head, conjugate-gradient fine-tuning."""

import hashlib

import numpy as np
import pytest

from conftest import random_rbm
from mndbn import dbn as dbn_module
from mndbn import mixed_norm as mixed_norm_module
from mndbn import rbm as rbm_module
from mndbn.core import Rng
from mndbn.dbn import (
    Dbn,
    FineTuneConfig,
    SoftmaxLayer,
    attach_head,
    evaluate,
    fine_tune,
    forward,
    loss_and_grad,
    predict_labels,
    pretrain_greedy,
    softmax_predict,
    _bind,
    _loss_only,
)
from mndbn.errors import ConfigError
from mndbn.groups import make_partition
from mndbn.mixed_norm import PenaltyConfig, TrainConfig, train_mnrbm
from mndbn.rbm import Rbm, prob_h_given_x
from mndbn.synth import make_synthetic


def penalty(j, g=None, lam=0.0):
    return PenaltyConfig(lam=lam, partition=make_partition(j, g if g else j))


def stack_params(d):
    parts = []
    for m in d.layers:
        parts.extend([m.w.ravel(), m.b_vis, m.a_hid])
    return np.concatenate(parts)


class TestPretrainGreedy:
    def test_single_layer_equals_direct_training(self):
        train, _ = make_synthetic(80, 0, side=4, seed=2)
        cfg = penalty(6, 3, lam=0.1)
        params = TrainConfig(epochs=3, batch_size=20, seed=0)
        d, logs = pretrain_greedy(train, [6], [cfg], params, Rng(9))
        direct, direct_log = train_mnrbm(train, 6, cfg, params, Rng(9).spawn(0))
        assert (d.layers[0].w == direct.w).all()
        assert (d.layers[0].b_vis == direct.b_vis).all()
        assert (d.layers[0].a_hid == direct.a_hid).all()
        assert len(logs) == 1 and len(logs[0]) == 3

    def test_second_layer_trains_on_recomputed_activations(self):
        train, _ = make_synthetic(60, 0, side=4, seed=4)   # 16 visible units
        cfg = [penalty(3), penalty(2)]
        params = TrainConfig(epochs=2, batch_size=30, seed=0)
        root = Rng(11)
        d, _ = pretrain_greedy(train, [3, 2], cfg, params, root)

        m1, _ = train_mnrbm(train, 3, cfg[0], params, Rng(11).spawn(0))
        x2 = prob_h_given_x(m1, train.images)
        m2, _ = train_mnrbm(x2, 2, cfg[1], params, Rng(11).spawn(1))
        assert (d.layers[0].w == m1.w).all()
        assert (d.layers[1].w == m2.w).all()
        assert (d.layers[1].b_vis == m2.b_vis).all()

    def test_greedy_never_revisits_lower_layers(self):
        train, _ = make_synthetic(60, 0, side=4, seed=4)
        params = TrainConfig(epochs=2, batch_size=30, seed=0)
        solo, _ = pretrain_greedy(train, [3], [penalty(3)], params, Rng(11))
        deep, _ = pretrain_greedy(train, [3, 2], [penalty(3), penalty(2)], params, Rng(11))
        assert (deep.layers[0].w == solo.layers[0].w).all()
        assert (deep.layers[0].a_hid == solo.layers[0].a_hid).all()

    def test_forward_rows_per_layer(self, monkeypatch):
        # Three layers of distinct widths, the middle one without a penalty;
        # 60 images in batches of 25, 25 and 10.
        train, _ = make_synthetic(60, 0, side=4, seed=4)
        sizes, lams = [12, 8, 6], [0.1, 0.0, 0.1]
        cfg = [penalty(j, 2, lam) for j, lam in zip(sizes, lams)]
        params = TrainConfig(epochs=2, batch_size=25, seed=0)
        real = rbm_module.prob_h_given_x
        rows = dict.fromkeys(sizes, 0)  # layer width -> rows forwarded

        def prob(m, x, out=None):
            rows[m.n_hidden] += x.shape[0]
            return real(m, x, out=out)

        for module in (rbm_module, mixed_norm_module, dbn_module):
            monkeypatch.setattr(module, "prob_h_given_x", prob)
        pretrain_greedy(train, sizes, cfg, params, Rng(11))
        n, epochs = len(train), params.epochs
        # Per epoch: CD's two passes and the penalty's one over every batch,
        # then the metrics pass; below the top, one pass feeds the next layer.
        expected = [
            epochs * n * (2 + (lam > 0)) + epochs * n + n * (j != sizes[-1])
            for j, lam in zip(sizes, lams)
        ]
        assert [rows[j] for j in sizes] == expected

    def test_config_list_length_mismatch_rejected(self):
        train, _ = make_synthetic(20, 0, side=4, seed=0)
        with pytest.raises(ConfigError):
            pretrain_greedy(train, [3, 2], [penalty(3)], TrainConfig(epochs=1), Rng(0))


class TestForward:
    def test_zero_stack_gives_half(self):
        d = Dbn([Rbm(w=np.zeros((4, 3)), b_vis=np.zeros(4), a_hid=np.zeros(3)),
                 Rbm(w=np.zeros((3, 2)), b_vis=np.zeros(3), a_hid=np.zeros(2))])
        out = forward(d, Rng(0).uniform((5, 4)))
        assert (out == 0.5).all()

    def test_hidden_unit_permutation_invariance(self):
        d = Dbn([random_rbm(0, 4, 3, std=0.5), random_rbm(1, 3, 2, std=0.5)])
        x = Rng(2).uniform((6, 4))
        base = forward(d, x)
        perm = Rng(3).permutation(3)
        p1 = d.layers[0]
        p2 = d.layers[1]
        permuted = Dbn([
            Rbm(w=p1.w[:, perm], b_vis=p1.b_vis.copy(), a_hid=p1.a_hid[perm]),
            Rbm(w=p2.w[perm, :], b_vis=p2.b_vis[perm], a_hid=p2.a_hid.copy()),
        ])
        assert np.allclose(forward(permuted, x), base, rtol=0, atol=1e-12)

    def test_layer_width_chain_validated(self):
        with pytest.raises(ValueError):
            Dbn([random_rbm(0, 4, 3), random_rbm(1, 2, 2)])


class TestSoftmaxHead:
    def test_zero_head_predicts_uniform(self):
        d = attach_head(Dbn([random_rbm(0, 4, 3)]), 10)
        p = softmax_predict(d, Rng(1).uniform((5, 4)))
        assert p.shape == (5, 10)
        assert np.allclose(p, 0.1, rtol=0, atol=1e-15)
        assert np.allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_logit_shift_invariance(self):
        d = attach_head(Dbn([random_rbm(2, 4, 3)]), 4)
        d.head.w_out[:] = Rng(3).normal((3, 4))
        d.head.b_out[:] = Rng(4).normal((4,))
        x = Rng(5).uniform((6, 4))
        base = softmax_predict(d, x)
        d.head.b_out += 123.0   # constant shift of every logit
        assert np.allclose(softmax_predict(d, x), base, rtol=0, atol=1e-12)

    def test_predict_labels_is_argmax(self):
        d = attach_head(Dbn([random_rbm(6, 4, 3)]), 5)
        d.head.w_out[:] = Rng(7).normal((3, 5))
        x = Rng(8).uniform((10, 4))
        assert (predict_labels(d, x) == softmax_predict(d, x).argmax(axis=1)).all()

    def test_head_requires_at_least_two_classes(self):
        with pytest.raises(ValueError):
            attach_head(Dbn([random_rbm(0, 4, 3)]), 1)

    def test_headless_prediction_rejected(self):
        with pytest.raises(ValueError):
            softmax_predict(Dbn([random_rbm(0, 4, 3)]), np.ones((1, 4)))


class TestLossAndGrad:
    def test_matches_finite_differences(self):
        rng = Rng(11)
        d = Dbn([Rbm(w=rng.normal((6, 4)), b_vis=rng.normal((6,)), a_hid=rng.normal((4,)))])
        d = attach_head(d, 3)
        d.head.w_out[:] = rng.normal((4, 3))
        d.head.b_out[:] = rng.normal((3,))
        x = rng.uniform((5, 6))
        y = rng.integers(0, 3, (5,))
        _, g = loss_and_grad(d, x, y)
        params = _bind(d, False)
        theta = params.copy()
        eps = 1e-5
        for i in Rng(12).integers(0, theta.size, (60,)):
            params[i] = theta[i] + eps
            lp = _loss_only(d, x, y)[0]
            params[i] = theta[i] - eps
            lm = _loss_only(d, x, y)[0]
            params[i] = theta[i]
            fd = (lp - lm) / (2 * eps)
            assert abs(fd - g[i]) <= 1e-5 * max(abs(fd), abs(g[i]), 1e-10)

    def test_head_only_gradient_covers_head_coordinates(self):
        d = attach_head(Dbn([random_rbm(13, 5, 4)]), 3)
        x = Rng(14).uniform((7, 5))
        y = Rng(15).integers(0, 3, (7,))
        loss_full, g_full = loss_and_grad(d, x, y, head_only=False)
        loss_head, g_head = loss_and_grad(d, x, y, head_only=True)
        assert loss_full == loss_head
        assert g_head.size == 4 * 3 + 3
        assert np.allclose(g_head, g_full[-g_head.size:], rtol=0, atol=1e-14)


class TestFineTune:
    def small_problem(self, n=200):
        train, test = make_synthetic(n, 50, side=4, seed=6)
        d = attach_head(Dbn([Rbm.init_random(16, 12, Rng(0), std=0.1)]), 10)
        return train, test, d

    def test_zero_epochs_is_identity(self):
        train, _, d = self.small_problem()
        before = _bind(d, False).copy()
        tuned, log = fine_tune(d, train, 0, FineTuneConfig(), Rng(1))
        assert log == []
        assert (_bind(tuned, False) == before).all()

    def test_loss_non_increasing_with_single_batch(self):
        # one batch per epoch: every accepted line-search step lowers the
        # cross-entropy on exactly the data the epoch log measures
        train, _, d = self.small_problem(n=150)
        cfg = FineTuneConfig(batch_size=1000, cg_iters=3)
        tuned, log = fine_tune(d, train, 6, cfg, Rng(2))
        losses = [e.loss for e in log]
        for prev, cur in zip(losses, losses[1:]):
            assert cur <= prev + 1e-12

    def test_single_sample_memorized_quickly(self):
        train, _, _ = self.small_problem(n=1)
        d = attach_head(Dbn([Rbm.init_random(16, 8, Rng(3), std=0.1)]), 10)
        tuned, log = fine_tune(d, train, 50, FineTuneConfig(batch_size=10), Rng(4))
        accs = [e.train_accuracy for e in log]
        assert max(accs) == 1.0
        assert accs.index(1.0) <= 49

    def test_head_only_freezes_stack(self):
        train, _, d = self.small_problem()
        stack_before = stack_params(d).copy()
        tuned, _ = fine_tune(d, train, 3, FineTuneConfig(head_only=True), Rng(5))
        assert (stack_params(tuned) == stack_before).all()
        assert not (tuned.head.w_out == 0.0).all()

    def test_full_fine_tune_moves_stack(self):
        train, _, d = self.small_problem()
        stack_before = stack_params(d).copy()
        tuned, _ = fine_tune(d, train, 3, FineTuneConfig(), Rng(6))
        assert not (stack_params(tuned) == stack_before).all()

    def test_gradient_descent_fallback_reduces_loss(self):
        train, _, d = self.small_problem()
        cfg = FineTuneConfig(method="gd", lr=0.5)
        tuned, log = fine_tune(d, train, 5, cfg, Rng(7))
        assert log[-1].loss < log[0].loss

    def test_seeded_runs_identical(self):
        train, test, d = self.small_problem()
        t1, log1 = fine_tune(d, train, 3, FineTuneConfig(), Rng(8), eval_dataset=test)
        d2 = attach_head(Dbn([Rbm.init_random(16, 12, Rng(0), std=0.1)]), 10)
        t2, log2 = fine_tune(d2, train, 3, FineTuneConfig(), Rng(8), eval_dataset=test)
        assert (_bind(t1, False) == _bind(t2, False)).all()
        assert [e.test_accuracy for e in log1] == [e.test_accuracy for e in log2]

    def test_cg_matches_recorded_reference(self):
        # Recorded from the implementation that ran a fresh forward pass for
        # every gradient and for each end-of-epoch measurement (numpy 2.4,
        # OpenBLAS 0.3, x86-64); reusing passes must not move a single bit.
        # Batches of 80 give two full batches and a ragged one of 40.
        train, test, d = self.small_problem()
        tuned, log = fine_tune(
            d, train, 3, FineTuneConfig(batch_size=80), Rng(8), eval_dataset=test
        )
        digest = hashlib.sha256(_bind(tuned, False).tobytes()).hexdigest()
        assert digest == "f8d6485ec7eb78839329b7b22c412778f34d262677fa1af9819c65daa5d13f59"
        assert [e.loss for e in log] == [2.546131261279972, 2.465030264368071, 2.6918449524165435]
        assert [e.train_accuracy for e in log] == [0.1, 0.1, 0.13]
        assert [e.test_accuracy for e in log] == [0.1, 0.1, 0.14]

    def test_one_pass_per_batch_trial_and_split(self, monkeypatch):
        # Two feature layers; 200 images in batches of 80, 80 and 40.
        train, test = make_synthetic(200, 50, side=4, seed=6)
        d = attach_head(
            Dbn([Rbm.init_random(16, 12, Rng(0), std=0.1), Rbm.init_random(12, 8, Rng(1), std=0.1)]),
            10,
        )
        cfg = FineTuneConfig(batch_size=80, cg_iters=3)
        real = {
            name: getattr(dbn_module, name)
            for name in ("prob_h_given_x", "_loss_only", "loss_and_grad", "_armijo", "_cg_batch")
        }
        rows = []  # rows of every layer forward
        batches = []  # per batch: rows, Armijo trials, accepted steps, gradients
        searching = [False]

        def prob(m, x):
            rows.append(x.shape[0])
            return real["prob_h_given_x"](m, x)

        def loss_only(*args):
            batches[-1]["trials"] += searching[0]
            return real["_loss_only"](*args)

        def loss_and_grad(*args, **kwargs):
            batches[-1]["grads"] += 1
            return real["loss_and_grad"](*args, **kwargs)

        def armijo(*args):
            searching[0] = True
            try:
                result = real["_armijo"](*args)
            finally:
                searching[0] = False
            batches[-1]["accepted"] += result[0] is not None
            return result

        def cg_batch(d, theta, x, *rest):
            batches.append({"rows": x.shape[0], "trials": 0, "accepted": 0, "grads": 0})
            return real["_cg_batch"](d, theta, x, *rest)

        for name, fake in [("prob_h_given_x", prob), ("_loss_only", loss_only),
                           ("loss_and_grad", loss_and_grad), ("_armijo", armijo),
                           ("_cg_batch", cg_batch)]:
            monkeypatch.setattr(dbn_module, name, fake)
        fine_tune(d, train, 1, cfg, Rng(8), eval_dataset=test)
        assert [b["rows"] for b in batches] == [80, 80, 40]
        assert all(b["accepted"] >= 1 for b in batches)
        # One forward per batch start and per trial, then one per split.
        layers = len(d.layers)
        per_batch = sum((1 + b["trials"]) * b["rows"] * layers for b in batches)
        per_split = (len(train) + len(test)) * layers
        assert sum(rows) == per_batch + per_split
        # A gradient at the batch start and after each accepted step but
        # the batch's last iteration.
        for b in batches:
            assert b["grads"] == 1 + b["accepted"] - (b["accepted"] == cfg.cg_iters)

    def test_gd_matches_recorded_reference(self):
        # Recorded from the implementation that also took a gradient after
        # each batch's last step (numpy 2.4, OpenBLAS 0.3, x86-64).
        train, test, d = self.small_problem()
        cfg = FineTuneConfig(batch_size=80, method="gd", lr=0.5)
        tuned, log = fine_tune(d, train, 3, cfg, Rng(8), eval_dataset=test)
        digest = hashlib.sha256(_bind(tuned, False).tobytes()).hexdigest()
        assert digest == "ee0e4165fa91857326c0fc1f29961935a31e62d261befff272269e6ec07a3049"
        assert [e.loss for e in log] == [2.325496665922025, 2.3513612929616867, 2.3251083262745396]

    def test_gd_takes_one_gradient_per_step(self, monkeypatch):
        # Two feature layers; 200 images in batches of 80, 80 and 40.
        train, test = make_synthetic(200, 50, side=4, seed=6)
        d = attach_head(
            Dbn([Rbm.init_random(16, 12, Rng(0), std=0.1), Rbm.init_random(12, 8, Rng(1), std=0.1)]),
            10,
        )
        real_prob, real_grad = dbn_module.prob_h_given_x, dbn_module.loss_and_grad
        rows = []  # rows of every layer forward
        grads = []  # rows of every gradient

        def prob(m, x):
            rows.append(x.shape[0])
            return real_prob(m, x)

        def loss_and_grad(d, x, *args, **kwargs):
            grads.append(x.shape[0])
            return real_grad(d, x, *args, **kwargs)

        monkeypatch.setattr(dbn_module, "prob_h_given_x", prob)
        monkeypatch.setattr(dbn_module, "loss_and_grad", loss_and_grad)
        fine_tune(d, train, 1, FineTuneConfig(batch_size=80, cg_iters=3, method="gd"), Rng(8),
                  eval_dataset=test)
        assert grads == [80] * 3 + [80] * 3 + [40] * 3
        # Each gradient's forward, then one pass per split.
        assert sum(rows) == (sum(grads) + len(train) + len(test)) * len(d.layers)

    def test_eval_dataset_reported(self):
        train, test, d = self.small_problem()
        _, log = fine_tune(d, train, 2, FineTuneConfig(), Rng(9), eval_dataset=test)
        assert all(0.0 <= e.test_accuracy <= 1.0 for e in log)
        _, log_none = fine_tune(d, train, 2, FineTuneConfig(), Rng(9))
        assert all(np.isnan(e.test_accuracy) for e in log_none)

    def test_headless_fine_tune_rejected(self):
        train, _, _ = self.small_problem()
        with pytest.raises(ValueError):
            fine_tune(Dbn([random_rbm(0, 16, 4)]), train, 1, FineTuneConfig(), Rng(0))

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            FineTuneConfig(method="newton")
        with pytest.raises(ConfigError):
            FineTuneConfig(cg_iters=0)
        with pytest.raises(ConfigError):
            FineTuneConfig(backtrack=1.0)


class TestEvaluate:
    def test_perfect_predictor_scores_one(self):
        # hand-built lookup network: one-hot input i lights hidden unit i,
        # and the head maps hidden unit i to class i
        from mndbn.data import Dataset
        ds = Dataset(images=np.eye(10), labels=np.arange(10), name="onehot")
        stack = Rbm(w=60.0 * np.eye(10), b_vis=np.zeros(10), a_hid=np.full(10, -30.0))
        d = attach_head(Dbn([stack]), 10)
        d.head.w_out[:] = 60.0 * np.eye(10)
        acc, conf = evaluate(d, ds)
        assert acc == 1.0
        assert np.trace(conf) == 10

    def test_uniform_head_near_chance(self):
        train, _ = make_synthetic(10000, 0, side=4, seed=13)
        d = attach_head(Dbn([Rbm.init_random(16, 6, Rng(14))]), 10)
        acc, _ = evaluate(d, train)
        assert 0.08 <= acc <= 0.12

    def test_confusion_rows_sum_to_class_counts(self):
        train, _ = make_synthetic(500, 0, side=4, seed=15)
        d = attach_head(Dbn([Rbm.init_random(16, 6, Rng(16))]), 10)
        _, conf = evaluate(d, train)
        assert conf.shape == (10, 10)
        assert (conf.sum(axis=1) == np.bincount(train.labels, minlength=10)).all()
        assert conf.dtype == np.int64

    def test_head_with_fewer_classes_than_labels_rejected_before_forward(self, monkeypatch):
        train, _ = make_synthetic(40, 0, side=4, seed=0)
        d = attach_head(Dbn([Rbm.init_random(16, 6, Rng(1))]), 5)

        def no_forward(*args, **kwargs):
            raise AssertionError("forward pass before the label check")

        monkeypatch.setattr(dbn_module, "forward", no_forward)
        top = int(train.labels.max())
        with pytest.raises(ValueError, match=f"5 classes, but the largest label is {top}"):
            evaluate(d, train)

    def test_empty_dataset_rejected(self):
        d = attach_head(Dbn([random_rbm(0, 4, 3)]), 10)
        from mndbn.data import Dataset
        with pytest.raises(ValueError):
            evaluate(d, Dataset(images=np.zeros((0, 4)), labels=np.zeros(0, dtype=int), name="e"))
