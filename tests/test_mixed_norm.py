"""Group-sparsity penalty: value, analytic gradient, two-step training."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from conftest import (
    ORACLE_LAYOUTS,
    flat_params,
    random_rbm,
    reference_group_norm_sums,
)
from mndbn.core import _BLOCK_VALUES, Rng, block_rows
from mndbn.errors import NumericError
from mndbn.groups import accumulate, divide_accumulate, expand, group_norms, make_partition
from mndbn.mixed_norm import (
    _EPSILON,
    PenaltyConfig,
    TrainConfig,
    _epoch_metrics,
    mixed_norm,
    penalty_grad,
    regularized_update,
    train_mnrbm,
)
from mndbn.rbm import (
    CdStats,
    Rbm,
    _CdBuffers,
    apply_update,
    cd_step,
    exact_log_likelihood,
    exact_log_likelihood_grad,
    prob_h_given_x,
    prob_x_given_h,
)
from mndbn.data import shuffle_split
from mndbn.synth import make_synthetic


def cfg_for(j, g, a=0.0, lam=1.0):
    return PenaltyConfig(lam=lam, partition=make_partition(j, g, a))


class TestMixedNormValue:
    def test_all_zero_probabilities(self):
        assert mixed_norm(np.zeros(6), cfg_for(6, 3)) == 0.0

    def test_single_active_group(self):
        h = np.array([0.6, 0.8, 0.0, 0.0])
        assert mixed_norm(h, cfg_for(4, 2)) == pytest.approx(1.0, rel=1e-15)

    def test_whole_layer_group_is_l2_norm(self):
        h = Rng(0).uniform((8,))
        val = mixed_norm(h, cfg_for(8, 8))
        assert val == pytest.approx(float(np.linalg.norm(h)), rel=1e-15)

    def test_batch_returns_per_sample_values(self):
        batch = Rng(1).uniform((5, 6))
        vals = mixed_norm(batch, cfg_for(6, 3))
        assert vals.shape == (5,)
        for i in range(5):
            assert vals[i] == mixed_norm(batch[i], cfg_for(6, 3))

    def test_overlap_counts_shared_units_in_both_groups(self):
        # groups [0..3] and [2..5]; unit 2 contributes to both norms
        h = np.zeros(6)
        h[2] = 0.5
        val = mixed_norm(h, cfg_for(6, 4, 0.5))
        assert val == pytest.approx(1.0, rel=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            mixed_norm(np.array([0.5, 1.5]), cfg_for(2, 2))

    @pytest.mark.parametrize("at", [0, 3])
    def test_rejects_nan(self, at):
        h = np.full(4, 0.5)
        h[at] = np.nan
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            mixed_norm(h, cfg_for(4, 2))

    @pytest.mark.parametrize("lam", [-0.1, float("nan"), float("inf")])
    def test_config_rejects_negative_or_non_finite_lambda(self, lam):
        with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
            cfg_for(6, 3, lam=lam)


def fd_penalty_grad(m, x, cfg, eps=1e-5):
    """Central finite differences of mixed_norm(prob_h_given_x(.)) in
    every weight and hidden-bias coordinate."""
    gw = np.zeros_like(m.w)
    ga = np.zeros_like(m.a_hid)

    def value(model):
        return float(mixed_norm(prob_h_given_x(model, x), cfg))

    for i in range(m.n_visible):
        for j in range(m.n_hidden):
            mp = m.copy(); mp.w[i, j] += eps
            mm = m.copy(); mm.w[i, j] -= eps
            gw[i, j] = (value(mp) - value(mm)) / (2 * eps)
    for j in range(m.n_hidden):
        mp = m.copy(); mp.a_hid[j] += eps
        mm = m.copy(); mm.a_hid[j] -= eps
        ga[j] = (value(mp) - value(mm)) / (2 * eps)
    return gw, ga


def assert_grad_close(analytic, numeric, tol=1e-6):
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    mask = scale > 1e-12
    rel = np.abs(analytic - numeric)[mask] / scale[mask]
    assert rel.max() < tol


class TestPenaltyGrad:
    def test_matches_finite_differences_nonoverlapping(self):
        m = random_rbm(0, 6, 6)
        x = Rng(1).uniform((6,))
        cfg = cfg_for(6, 3)
        gw, ga = penalty_grad(m, x, cfg)
        fw, fa = fd_penalty_grad(m, x, cfg)
        assert_grad_close(gw, fw)
        assert_grad_close(ga, fa)

    def test_matches_finite_differences_overlapping(self):
        m = random_rbm(2, 6, 6)
        x = Rng(3).uniform((6,))
        cfg = cfg_for(6, 4, 0.5)
        gw, ga = penalty_grad(m, x, cfg)
        fw, fa = fd_penalty_grad(m, x, cfg)
        assert_grad_close(gw, fw)
        assert_grad_close(ga, fa)

    def test_silenced_units_give_vanishing_gradient(self):
        m = random_rbm(4, 6, 6)
        m.a_hid[:] = -50.0   # activations effectively 0
        gw, ga = penalty_grad(m, np.ones(6), cfg_for(6, 3))
        assert np.abs(gw).max() < 1e-15
        assert np.abs(ga).max() < 1e-15

    def test_saturated_unit_contributes_nothing(self):
        # p = 1 has zero slope, so a fully-on unit adds no gradient
        m = random_rbm(5, 6, 6)
        m.w[:, 0] = 0.0
        m.a_hid[0] = 600.0   # clamps to p = 1 exactly after clipping
        gw, ga = penalty_grad(m, np.ones(6), cfg_for(6, 6))
        p = prob_h_given_x(m, np.ones(6))
        norm = float(np.linalg.norm(p))
        expected0 = p[0] ** 2 * (1.0 - p[0]) / norm
        assert abs(ga[0] - expected0) < 1e-12
        assert abs(ga[0]) < 1e-12

    def test_size_one_groups_reduce_to_bernoulli_slope(self):
        m = random_rbm(6, 5, 4)
        x = Rng(7).uniform((5,))
        gw, ga = penalty_grad(m, x, cfg_for(4, 1))
        p = prob_h_given_x(m, x)
        s = p * (1.0 - p)
        assert np.allclose(ga, s, rtol=0, atol=1e-12)
        assert np.allclose(gw, np.outer(x, s), rtol=0, atol=1e-12)

    def test_batch_of_identical_samples_equals_single_sample(self):
        m = random_rbm(8, 5, 6)
        x = Rng(9).uniform((5,))
        cfg = cfg_for(6, 3)
        gw1, ga1 = penalty_grad(m, x, cfg)
        gwL, gaL = penalty_grad(m, np.tile(x, (4, 1)), cfg)
        assert np.allclose(gwL, gw1, rtol=0, atol=1e-15)
        assert np.allclose(gaL, ga1, rtol=0, atol=1e-15)

    def test_batch_averages_per_sample_gradients(self):
        m = random_rbm(10, 5, 6)
        batch = Rng(11).uniform((3, 5))
        cfg = cfg_for(6, 2)
        gw, ga = penalty_grad(m, batch, cfg)
        parts = [penalty_grad(m, batch[i], cfg) for i in range(3)]
        assert np.allclose(gw, np.mean([p[0] for p in parts], axis=0), rtol=0, atol=1e-14)
        assert np.allclose(ga, np.mean([p[1] for p in parts], axis=0), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("j,g,a", ORACLE_LAYOUTS)
    def test_vector_is_a_one_row_batch(self, j, g, a):
        # The vector's bits and shapes equal the one-row batch's and the
        # outer-product form computed on the vector itself.
        cfg = cfg_for(j, g, a)
        m = random_rbm(j, 8, j)
        x = Rng(4).uniform((8,))
        p = prob_h_given_x(m, x)
        s = divide_accumulate(p * p * (1.0 - p), np.maximum(group_norms(p, cfg.partition),
                                                            _EPSILON), cfg.partition)
        got = penalty_grad(m, x, cfg)
        for want in (penalty_grad(m, x[None, :], cfg), (np.outer(x, s), s)):
            for g_, w_ in zip(got, want):
                assert g_.shape == w_.shape and np.array_equal(g_, w_)


def _grouped(h, part):
    """The probabilities copied onto the augmented axis, one row per group."""
    pe = expand(h, part)
    return pe.reshape(pe.shape[:-1] + (part.num_groups, part.group_size))


def reference_mixed_norm(h, cfg):
    grouped = _grouped(h, cfg.partition)
    return np.sqrt((grouped * grouped).sum(axis=-1)).sum(axis=-1)


def reference_penalty_grad(m, x, cfg):
    """The penalty gradient on the augmented axis: per-copy quotients,
    summed back per unit by the per-group loop."""
    p = prob_h_given_x(m, x)
    grouped = _grouped(p, cfg.partition)
    norms = np.sqrt((grouped * grouped).sum(axis=-1, keepdims=True))
    s = grouped * grouped * (1.0 - grouped) / np.maximum(norms, _EPSILON)
    s_orig = accumulate(s.reshape(s.shape[:-2] + (-1,)), cfg.partition)
    if x.ndim == 1:
        return np.outer(x, s_orig), s_orig
    return x.T @ s_orig / x.shape[0], s_orig.mean(axis=0)


class TestKernelsMatchAugmentedReference:
    """Batches give the reference's bits. A single vector or a one-row batch
    only agrees to rounding: numpy sums those contiguously, pairwise, in
    the reference, so its bits there depend on memory layout.

    The third batch size spans two `penalty_grad` row blocks and one more
    row, so the last block holds a single row."""

    @pytest.mark.parametrize("j,g,a", ORACLE_LAYOUTS)
    def test_batches_are_bit_identical(self, j, g, a):
        cfg = cfg_for(j, g, a)
        m = random_rbm(j, 8, j)
        for rows in (7, 100, 2 * max(1, _BLOCK_VALUES // j) + 1):
            x = Rng(rows).uniform((rows, 8))
            for got, want in zip(penalty_grad(m, x, cfg), reference_penalty_grad(m, x, cfg)):
                assert np.array_equal(got, want)
            p = prob_h_given_x(m, x)
            assert np.array_equal(mixed_norm(p, cfg), reference_mixed_norm(p, cfg))
            assert np.array_equal(mixed_norm(p, cfg), reference_group_norm_sums(p, cfg.partition))

    @pytest.mark.parametrize("j,g,a", ORACLE_LAYOUTS)
    def test_lone_rows_match_their_batch(self, j, g, a):
        # A sample's value has the same bits whether it arrives alone, as a
        # vector (a 0-d result) or a one-row batch, or inside a batch.
        cfg = cfg_for(j, g, a)
        p = prob_h_given_x(random_rbm(j, 8, j), Rng(3).uniform((20, 8)))
        batch = mixed_norm(p, cfg)
        for i in range(p.shape[0]):
            alone = mixed_norm(p[i], cfg)
            assert alone.shape == () and alone.tobytes() == batch[i : i + 1].tobytes()
            assert mixed_norm(p[i : i + 1], cfg).tobytes() == batch[i : i + 1].tobytes()

    @pytest.mark.parametrize("j,g,a", ORACLE_LAYOUTS)
    def test_single_samples_agree_to_rounding(self, j, g, a):
        cfg = cfg_for(j, g, a)
        m = random_rbm(j, 8, j)
        for x in (Rng(1).uniform((8,)), Rng(2).uniform((1, 8))):
            for got, want in zip(penalty_grad(m, x, cfg), reference_penalty_grad(m, x, cfg)):
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
            p = prob_h_given_x(m, x)
            np.testing.assert_allclose(mixed_norm(p, cfg), reference_mixed_norm(p, cfg),
                                       rtol=1e-14, atol=0)


class TestRegularizedUpdate:
    def test_lambda_zero_is_bit_identical_to_vanilla(self):
        m_reg = random_rbm(12, 6, 4, std=0.1)
        m_van = m_reg.copy()
        batch = (Rng(13).uniform((8, 6)) < 0.5).astype(float)
        v_reg = CdStats.zeros(m_reg)
        v_van = CdStats.zeros(m_van)
        r_reg = Rng(14)
        r_van = Rng(14)
        cfg = cfg_for(4, 2, lam=0.0)
        for _ in range(3):
            regularized_update(m_reg, batch, cfg, 0.1, 0.5, v_reg, r_reg)
            stats = cd_step(m_van, batch, r_van)
            apply_update(m_van, stats, 0.1, 0.5, v_van)
        assert (flat_params(m_reg) == flat_params(m_van)).all()
        # streams stayed in lockstep
        assert (r_reg.uniform((4,)) == r_van.uniform((4,))).all()

    def test_penalty_step_subtracts_scaled_gradient(self):
        m = random_rbm(15, 6, 4, std=0.1)
        batch = (Rng(16).uniform((8, 6)) < 0.5).astype(float)
        cfg = cfg_for(4, 2, lam=0.3)
        base = m.copy()
        v_base = CdStats.zeros(base)
        stats = cd_step(base, batch, Rng(17))
        apply_update(base, stats, 0.1, 0.0, v_base)
        gw, ga = penalty_grad(base, batch, cfg)
        reg = m.copy()
        regularized_update(reg, batch, cfg, 0.1, 0.0, CdStats.zeros(reg), Rng(17))
        assert np.allclose(reg.w, base.w - 0.1 * 0.3 * gw, rtol=0, atol=1e-15)
        assert np.allclose(reg.a_hid, base.a_hid - 0.1 * 0.3 * ga, rtol=0, atol=1e-15)
        assert (reg.b_vis == base.b_vis).all()

    def test_one_step_lowers_mixed_norm_versus_vanilla(self):
        part = make_partition(20, 5)
        for seed in range(5):
            r = Rng(100 + seed)
            m0 = Rbm(w=r.normal((20, 20)) * 0.5, b_vis=r.normal((20,)) * 0.1,
                     a_hid=r.normal((20,)) * 0.1)
            batch = (Rng(200 + seed).uniform((30, 20)) < 0.5).astype(float)
            after = {}
            for lam in (0.0, 0.5):
                m = m0.copy()
                cfg = PenaltyConfig(lam=lam, partition=part)
                regularized_update(m, batch, cfg, 0.1, 0.0, CdStats.zeros(m), Rng(7))
                probe = PenaltyConfig(lam=1.0, partition=part)
                after[lam] = float(np.mean(mixed_norm(prob_h_given_x(m, batch), probe)))
            assert after[0.5] <= after[0.0]

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_exact_two_step_update_descends_the_penalised_objective(self, lam):
        # The paper's objective F = -mean log p(x) + lam * mean sum_G ||p_G(x)||,
        # with log p(x) and its gradient by enumeration. The two-step update
        # (an exact ascent step, then the penalty step at the new parameters)
        # must lower F at every step and end where the joint step ends.
        cfg = PenaltyConfig(lam=lam, partition=make_partition(8, 4))
        data = (Rng(1).uniform((60, 8)) < 0.5).astype(float)
        lr = 0.05

        def objective(m):
            ll = exact_log_likelihood(m, data).mean()
            return -ll + lam * mixed_norm(prob_h_given_x(m, data), cfg).mean()

        def step(m, joint):
            stats = exact_log_likelihood_grad(m, data)
            before = m.copy()
            apply_update(m, stats, lr, 0.0, CdStats.zeros(m))
            gw, ga = penalty_grad(before if joint else m, data, cfg)
            m.w -= lr * lam * gw
            m.a_hid -= lr * lam * ga

        m0 = Rbm.init_random(8, 8, Rng(0), std=0.1)
        two_step, joint = m0.copy(), m0.copy()
        f = [objective(two_step)]
        for _ in range(200):
            step(two_step, joint=False)
            step(joint, joint=True)
            f.append(objective(two_step))
        assert (np.diff(f) < 0).all()
        assert abs(f[-1] - objective(joint)) <= 1e-3


# Kernels that average over a batch reject an empty one before any write.
_EMPTY_BATCH_CALLS = {
    "cd_step": lambda m, x: cd_step(m, x, Rng(0)),
    "cd_step-buffers": lambda m, x: cd_step(m, x, Rng(0), out=_CdBuffers.like(m, 2)),
    "penalty_grad": lambda m, x: penalty_grad(m, x, cfg_for(4, 2)),
    "regularized_update": lambda m, x: regularized_update(
        m, x, cfg_for(4, 2, lam=0.1), 0.1, 0.5, CdStats.zeros(m), Rng(0)),
    "exact_log_likelihood": exact_log_likelihood,
    "exact_log_likelihood_grad": exact_log_likelihood_grad,
}


@pytest.mark.parametrize("call", sorted(_EMPTY_BATCH_CALLS))
def test_empty_batch_is_rejected_before_any_write(call):
    m = random_rbm(0, 3, 4)
    before = flat_params(m).tobytes()
    with pytest.raises(ValueError):
        _EMPTY_BATCH_CALLS[call](m, np.zeros((0, 3)))
    assert flat_params(m).tobytes() == before


class TestTraining:
    def test_lambda_zero_training_matches_vanilla_loop(self):
        train, _ = make_synthetic(60, 0, side=4, seed=3)
        cfg = cfg_for(6, 3, lam=0.0)
        params = TrainConfig(lr=0.1, momentum_switch_epoch=2, batch_size=20, epochs=4, seed=0)
        m, log = train_mnrbm(train.images, cfg, params, Rng(21))

        # independent replay of the training loop without the penalty module
        r = Rng(21)
        ref = Rbm.init_random(16, 6, r)
        vel = CdStats.zeros(ref)
        for epoch in range(params.epochs):
            mom = 0.5 if epoch < params.momentum_switch_epoch else 0.9
            for idx in shuffle_split(train.images.shape[0], params.batch_size, r):
                stats = cd_step(ref, train.images[idx], r)
                apply_update(ref, stats, params.lr, mom, vel)
        assert (flat_params(m) == flat_params(ref)).all()

    def test_log_has_one_entry_per_epoch(self):
        train, _ = make_synthetic(50, 0, side=4, seed=1)
        cfg = cfg_for(5, 5, lam=0.1)
        m, log = train_mnrbm(train.images, cfg, TrainConfig(epochs=3, batch_size=25), Rng(0))
        assert [e.epoch for e in log] == [0, 1, 2]
        for e in log:
            assert np.isfinite([e.recon_error, e.mean_hidden_activation,
                                e.mixed_norm_value]).all()

    def test_zero_pixel_images_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            train_mnrbm(np.zeros((6, 0)), cfg_for(4, 2), TrainConfig(epochs=1), Rng(0))

    @pytest.mark.parametrize("scale", [255.0, -1.0, np.nan], ids=["times-255", "negated", "nan"])
    def test_pixels_outside_unit_interval_rejected(self, scale):
        train, _ = make_synthetic(200, 0, side=4, seed=0)
        with pytest.raises(ValueError, match=r"pixel values must lie in \[0, 1\]"):
            train_mnrbm(train.images * scale, cfg_for(8, 4), TrainConfig(epochs=2), Rng(0))

    def test_overlap_run_matches_recorded_digest(self):
        # sha256 of the parameters and of the logged metrics after two epochs
        # on 2000 units in groups of 10 with 50% overlap, recorded before the
        # penalty was computed without the augmented axis (numpy 2.4.6 with
        # OpenBLAS 0.3.31 on x86-64; another BLAS build may round differently).
        # The parameter digest was re-recorded once, at the one BLAS thread
        # the suite pins; the metrics digest is the same at one and two threads.
        train, _ = make_synthetic(200, side=8, seed=5)
        cfg = PenaltyConfig(lam=0.1, partition=make_partition(2000, 10, 0.5))
        params = TrainConfig(lr=0.05, epochs=2, batch_size=64)
        m, log = train_mnrbm(train.images, cfg, params, Rng(5))
        metrics = [(e.recon_error, e.mean_hidden_activation, e.mixed_norm_value) for e in log]
        assert hashlib.sha256(flat_params(m).tobytes()).hexdigest()[:16] == "ac796196b685fe62"
        assert hashlib.sha256(repr(metrics).encode()).hexdigest()[:16] == "1e06abc343cc54fc"


def reference_epoch_metrics(m, images, cfg, chunk):
    """The metrics pass written with full-size temporaries."""
    sq_err = act_sum = mn_sum = 0.0
    n = images.shape[0]
    for lo in range(0, n, chunk):
        xb = images[lo : lo + chunk]
        p = prob_h_given_x(m, xb)
        xhat = prob_x_given_h(m, p)
        sq_err += float(((xb - xhat) ** 2).sum())
        act_sum += float(p.sum())
        mn_sum += float(np.sum(reference_group_norm_sums(p, cfg.partition)))
    return sq_err / (n * m.n_visible), act_sum / (n * m.n_hidden), mn_sum / n


class TestEpochMetrics:
    @pytest.mark.parametrize("overlap", [0.0, 0.5])
    def test_bits_match_full_size_temporaries(self, overlap):
        # 2000 units take 32 rows per row block; 225 images leave a one-row
        # last block. The buffers are a training step's, sized for a batch
        # of 100 rows, of which each block uses the first 32.
        m = random_rbm(4, 16, 2000, std=0.5)
        cfg = cfg_for(2000, 10, overlap)
        buf = _CdBuffers.like(m, 100)
        for n in (32, 100, 225):
            images = Rng(5).uniform((n, 16))
            got = _epoch_metrics(m, images, cfg, buf)
            assert got == reference_epoch_metrics(m, images, cfg, 32)

    @pytest.mark.parametrize("overlap", [0.0, 0.5])
    def test_peak_memory_is_about_one_chunk(self, overlap):
        # 784 pixels into 500 units: the default chunk is one row block of
        # 83 rows. The pass works in the step's buffers, which hold two
        # blocks (the caller's and the one the worker lane fills next), and
        # makes only group-sized temporaries, so its peak does not grow
        # with the number of images and stays below one block's hidden array.
        m = random_rbm(6, 784, 500, std=0.05)
        cfg = cfg_for(500, 10, overlap)
        rows = block_rows(784)
        buf = _CdBuffers.like(m, 2 * rows)
        peaks = []
        for n in (1000, 8000):
            images = Rng(7).uniform((n, 784))
            tracemalloc.start()
            try:
                _epoch_metrics(m, images, cfg, buf)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 64 * 1024
        assert max(peaks) <= rows * 500 * 8


class TestRowBlockSize:
    """The penalty step treats each row alone, so one-row blocks and a
    single block give the bits of the default row blocks."""

    @pytest.mark.parametrize("block_values", [1, 1 << 30], ids=["one-row", "one-block"])
    @pytest.mark.parametrize("j, g, overlap", [(2000, 10, 0.5), (500, 10, 0.0)])
    def test_penalty_step_bits_do_not_depend_on_block_size(
        self, monkeypatch, block_values, j, g, overlap
    ):
        rows = 70
        m = random_rbm(24, 16, j, std=0.3)
        x = Rng(25).uniform((rows, 16))
        cfg = cfg_for(j, g, overlap, lam=0.1)

        def bits():
            out = [a.tobytes() for a in penalty_grad(m, x, cfg)]
            out += [a.tobytes() for a in penalty_grad(m, x, cfg, out=_CdBuffers.like(m, rows))]
            for buf in (None, _CdBuffers.like(m, rows)):
                stepped = m.copy()
                regularized_update(
                    stepped, x, cfg, 0.05, 0.5, CdStats.zeros(stepped), Rng(26), out=buf
                )
                out.append(flat_params(stepped).tobytes())
            return out

        default = bits()
        monkeypatch.setattr("mndbn.core._BLOCK_VALUES", block_values)
        assert bits() == default


class TestBatchBuffers:
    def test_buffered_steps_match_fresh_arrays_bit_for_bit(self):
        # buffers for 25 rows take batches of 25, 25 and 10.
        fresh = random_rbm(18, 16, 12, std=0.3)
        kept = fresh.copy()
        images = Rng(19).uniform((60, 16))
        cfg = cfg_for(12, 4, 0.5, lam=0.3)
        buf = _CdBuffers.like(kept, 25)
        v_fresh, v_kept = CdStats.zeros(fresh), CdStats.zeros(kept)
        r_fresh, r_kept = Rng(20), Rng(20)
        for lo in (0, 25, 50):
            batch = images[lo : lo + 25]
            regularized_update(fresh, batch, cfg, 0.1, 0.5, v_fresh, r_fresh)
            regularized_update(kept, batch, cfg, 0.1, 0.5, v_kept, r_kept, out=buf)
            assert flat_params(kept).tobytes() == flat_params(fresh).tobytes()
        assert (r_fresh.uniform((4,)) == r_kept.uniform((4,))).all()

    @pytest.mark.parametrize(
        "n_visible, j, g, overlap",
        [(64, 2000, 10, 0.5), (784, 500, 10, 0.0)],
        ids=["2000-units-50pct", "784-500-disjoint"],
    )
    def test_step_allocates_nothing_batch_sized(self, n_visible, j, g, overlap):
        rows = 100
        m = random_rbm(21, n_visible, j, std=0.05)
        images = Rng(22).uniform((6 * rows, n_visible))
        cfg = cfg_for(j, g, overlap, lam=0.1)
        buf = _CdBuffers.like(m, rows)
        velocity, rng = CdStats.zeros(m), Rng(23)

        def step(i):
            batch = images[i * rows : (i + 1) * rows]
            regularized_update(m, batch, cfg, 0.05, 0.5, velocity, rng, out=buf)

        step(0)   # warm-up
        tracemalloc.start()
        try:
            for i in range(1, 6):
                step(i)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows * j * 8

    def test_training_epoch_holds_two_hidden_arrays_and_one_block(self):
        # 64 inputs into 2000 units, 50% overlap, batches of 100. A step
        # keeps four weight-sized arrays (w, the velocity, stats.dw and
        # scratch), two batch x hidden arrays (h0 and chain), x_tilde and
        # the batch; beyond those, one 32-row block of hidden values (the
        # quotient temporary of divide_accumulate) and group-sized
        # temporaries. The metrics pass borrows the step's buffers.
        n_visible, j, rows = 64, 2000, 100
        images = Rng(27).uniform((3 * rows, n_visible))
        cfg = cfg_for(j, 10, 0.5, lam=0.1)
        params = TrainConfig(lr=0.05, epochs=1, batch_size=rows)
        tracemalloc.start()
        try:
            train_mnrbm(images, cfg, params, Rng(28))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        weights, hidden, visible = n_visible * j * 8, rows * j * 8, rows * n_visible * 8
        block = block_rows(j) * j * 8
        assert peak <= 4 * weights + 2 * hidden + 2 * visible + block + 512 * 1024

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_is_a_numeric_error(self):
        train, _ = make_synthetic(40, side=4, seed=0)
        params = TrainConfig(lr=1e308, epochs=1, batch_size=20)
        with pytest.raises(NumericError, match="overflow"):
            train_mnrbm(train.images, cfg_for(8, 4, lam=0.1), params, Rng(0))
