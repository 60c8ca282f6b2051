"""RBM energies, conditionals, CD statistics, and enumeration oracles."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import flat_params, random_rbm
from mndbn.core import Rng, sigmoid
from mndbn.rbm import (
    CdStats,
    Rbm,
    apply_update,
    cd_step,
    energy,
    exact_log_likelihood,
    exact_log_likelihood_grad,
    exact_log_partition_function,
    gibbs_chain,
    prob_h_given_x,
    prob_x_given_h,
)


def zero_rbm(n_visible, n_hidden):
    return Rbm(
        w=np.zeros((n_visible, n_hidden)),
        b_vis=np.zeros(n_visible),
        a_hid=np.zeros(n_hidden),
    )


def peak_bytes(call, *args):
    """The tracemalloc peak while call(*args) runs, and its result or the
    exception it raised."""
    tracemalloc.start()
    try:
        try:
            out = call(*args)
        except Exception as exc:
            out = exc
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def visible_side_oracle(m):
    """log Z and the model's E[x h^T], E[x] and E[h] from the free energy
    summed over the 2^I visible states: independent of the library's
    hidden-side sum."""
    xs = np.array(list(itertools.product([0.0, 1.0], repeat=m.n_visible)))
    act = xs @ m.w + m.a_hid
    neg_f = xs @ m.b_vis + np.logaddexp(0.0, act).sum(axis=1)
    top = neg_f.max()
    log_z = top + np.log(np.exp(neg_f - top).sum())
    px = np.exp(neg_f - log_z)
    ph = 0.5 * (1.0 + np.tanh(0.5 * act))
    return log_z, (xs * px[:, None]).T @ ph, px @ xs, px @ ph


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), \
        np.max(np.abs(got - want))


class TestEnergy:
    def test_hand_value(self):
        m = Rbm(w=np.array([[1.0], [2.0]]), b_vis=np.zeros(2), a_hid=np.array([3.0]))
        assert energy(m, np.array([1.0, 1.0]), np.array([1.0])) == -6.0

    def test_zero_configuration_zero_energy(self):
        m = random_rbm(0, 3, 2)
        assert energy(m, np.zeros(3), np.zeros(2)) == 0.0


class TestConditionals:
    def test_zero_model_gives_half(self):
        m = zero_rbm(4, 3)
        assert (prob_h_given_x(m, np.ones(4)) == 0.5).all()
        assert (prob_x_given_h(m, np.ones(3)) == 0.5).all()

    def test_strong_negative_bias_silences_unit(self):
        m = zero_rbm(4, 3)
        m.a_hid[1] = -40.0
        p = prob_h_given_x(m, np.ones(4))
        assert p[1] < 1e-15

    def test_batch_matches_scalar_loop(self):
        m = random_rbm(1, 4, 3)
        batch = Rng(2).uniform((5, 4))
        p = prob_h_given_x(m, batch)
        assert p.shape == (5, 3)
        for i in range(5):
            for j in range(3):
                manual = sigmoid(m.a_hid[j] + batch[i] @ m.w[:, j])
                assert np.isclose(p[i, j], manual, rtol=0, atol=1e-15)

    def test_vector_input_gives_vector(self):
        m = random_rbm(3, 4, 3)
        assert prob_h_given_x(m, np.ones(4)).shape == (3,)

    def test_wrong_width_rejected(self):
        m = random_rbm(4, 4, 3)
        with pytest.raises(ValueError):
            prob_h_given_x(m, np.ones(5))


class TestGibbsChain:
    def test_zero_model_reconstructs_half(self):
        m = zero_rbm(3, 2)
        x0 = np.array([[1.0, 0.0, 1.0]])
        xt, h0, ht = gibbs_chain(m, x0, Rng(0))
        assert (xt == 0.5).all()
        assert (h0 == 0.5).all() and (ht == 0.5).all()

    def test_seed_determinism(self):
        m = random_rbm(5, 3, 2)
        x0 = Rng(6).uniform((4, 3))
        a = gibbs_chain(m, x0, Rng(42))
        b = gibbs_chain(m, x0, Rng(42))
        for left, right in zip(a, b):
            assert (left == right).all()

    def test_one_step_distribution_matches_exact_mixture(self):
        # k=1 reconstruction takes one of 2^J values, one per hidden
        # configuration; empirical frequencies over 1e5 seeded chains must
        # match the exact conditional mixture within 0.01 total variation.
        m = random_rbm(7, 3, 2)
        x0 = np.array([1.0, 0.0, 1.0])
        ph = prob_h_given_x(m, x0)
        hs = np.array(list(itertools.product([0.0, 1.0], repeat=2)))
        atom_probs = np.prod(np.where(hs == 1.0, ph, 1.0 - ph), axis=1)
        atoms = sigmoid(hs @ m.w.T + m.b_vis)
        n = 10**5
        xt, _, _ = gibbs_chain(m, np.tile(x0, (n, 1)), Rng(99))
        d2 = ((xt[:, None, :] - atoms[None, :, :]) ** 2).sum(-1)
        freq = np.bincount(d2.argmin(1), minlength=4) / n
        tv = 0.5 * np.abs(freq - atom_probs).sum()
        assert tv <= 0.01


class TestCdStep:
    def test_zero_model_constant_batch_gives_zero_stats(self):
        m = zero_rbm(4, 3)
        batch = np.full((10, 4), 0.5)
        stats = cd_step(m, batch, Rng(0))
        assert (stats.dw == 0.0).all()
        assert (stats.db_vis == 0.0).all()
        assert (stats.da_hid == 0.0).all()

    def test_batch_average_matches_hand_replay(self):
        # Replay the single block uniform draw by hand and recompute the
        # per-sample statistics; their average must equal the batch result.
        m = Rbm(w=Rng(6).normal((4, 3)), b_vis=np.zeros(4), a_hid=np.zeros(3))
        batch = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 1.0]])
        stats = cd_step(m, batch, Rng(9))
        u = Rng(9).uniform((2, 3))
        h0 = prob_h_given_x(m, batch)
        h_sample = (u < h0).astype(float)
        xt = prob_x_given_h(m, h_sample)
        ht = prob_h_given_x(m, xt)
        assert (stats.dw == (batch.T @ h0 - xt.T @ ht) / 2).all()
        assert (stats.db_vis == (batch - xt).mean(axis=0)).all()
        assert (stats.da_hid == (h0 - ht).mean(axis=0)).all()

    def test_single_row_uses_prefix_of_batch_stream(self):
        # With one C-order block draw per step, the first sample of a batch
        # sees the same uniforms as a batch of just that sample.
        m = random_rbm(8, 4, 3)
        row = Rng(1).uniform((1, 4))
        pair = np.vstack([row, Rng(2).uniform((1, 4))])
        xt_pair, _, _ = gibbs_chain(m, pair, Rng(33))
        xt_single, _, _ = gibbs_chain(m, row, Rng(33))
        assert (xt_single[0] == xt_pair[0]).all()


class TestApplyUpdate:
    def test_no_momentum_unit_lr_adds_stats(self):
        m = zero_rbm(3, 2)
        stats = CdStats(
            dw=Rng(0).normal((3, 2)),
            db_vis=Rng(1).normal((3,)),
            da_hid=Rng(2).normal((2,)),
        )
        apply_update(m, stats, lr=1.0, momentum=0.0, velocity=CdStats.zeros(m))
        assert (m.w == stats.dw).all()
        assert (m.b_vis == stats.db_vis).all()
        assert (m.a_hid == stats.da_hid).all()

    def test_zero_stats_zero_velocity_is_identity(self):
        m = random_rbm(3, 3, 2)
        before = flat_params(m.copy())
        zero = CdStats(dw=np.zeros((3, 2)), db_vis=np.zeros(3), da_hid=np.zeros(2))
        apply_update(m, zero, lr=0.1, momentum=0.9, velocity=CdStats.zeros(m))
        assert (flat_params(m) == before).all()

    def test_constant_stats_momentum_recurrence(self):
        # v1 = lr*g, v2 = 0.5*v1 + lr*g = 1.5*lr*g; total change 2.5*lr*g.
        m = zero_rbm(2, 2)
        g = np.array([[1.0, -2.0], [3.0, 0.5]])
        stats = CdStats(dw=g, db_vis=np.zeros(2), da_hid=np.zeros(2))
        v = CdStats.zeros(m)
        apply_update(m, stats, lr=0.1, momentum=0.5, velocity=v)
        apply_update(m, stats, lr=0.1, momentum=0.5, velocity=v)
        assert np.allclose(m.w, 2.5 * 0.1 * g, rtol=0, atol=1e-15)

    def test_scratch_out_gives_same_bits_and_leaves_stats_unwritten(self):
        fresh = random_rbm(4, 5, 3, std=0.3)
        kept = fresh.copy()
        v_fresh, v_kept = CdStats.zeros(fresh), CdStats.zeros(kept)
        scratch = np.empty_like(kept.w)
        for seed in (5, 6):
            stats = CdStats(dw=Rng(seed).normal((5, 3)), db_vis=Rng(seed + 10).normal((5,)),
                            da_hid=Rng(seed + 20).normal((3,)))
            dw = stats.dw.copy()
            apply_update(fresh, stats, lr=0.3, momentum=0.7, velocity=v_fresh)
            apply_update(kept, stats, lr=0.3, momentum=0.7, velocity=v_kept, out=scratch)
            assert (stats.dw == dw).all()
            assert flat_params(kept).tobytes() == flat_params(fresh).tobytes()

    def test_invalid_hyperparameters_rejected(self):
        m = zero_rbm(2, 2)
        stats = CdStats(dw=np.zeros((2, 2)), db_vis=np.zeros(2), da_hid=np.zeros(2))
        with pytest.raises(ValueError):
            apply_update(m, stats, lr=0.0, momentum=0.5, velocity=CdStats.zeros(m))
        with pytest.raises(ValueError):
            apply_update(m, stats, lr=0.1, momentum=1.0, velocity=CdStats.zeros(m))

    def test_nan_lr_rejected_before_anything_changes(self):
        m = random_rbm(3, 4, 3, std=0.3)
        v = CdStats(dw=Rng(4).normal((4, 3)), db_vis=Rng(5).normal((4,)),
                     da_hid=Rng(6).normal((3,)))
        stats = CdStats(dw=np.ones((4, 3)), db_vis=np.ones(4), da_hid=np.ones(3))
        before = [a.tobytes() for a in (m.w, m.b_vis, m.a_hid, v.dw, v.db_vis, v.da_hid)]
        with pytest.raises(ValueError, match="lr must be positive"):
            apply_update(m, stats, lr=float("nan"), momentum=0.5, velocity=v)
        after = [a.tobytes() for a in (m.w, m.b_vis, m.a_hid, v.dw, v.db_vis, v.da_hid)]
        assert after == before


class TestEnumerationOracles:
    def test_zero_model_partition_function_counts_states(self):
        assert exact_log_partition_function(zero_rbm(2, 2)) == pytest.approx(np.log(16.0),
                                                                            rel=1e-12)

    def test_single_coupling_hand_value(self):
        m = Rbm(w=np.array([[np.log(2.0)]]), b_vis=np.zeros(1), a_hid=np.zeros(1))
        assert exact_log_partition_function(m) == pytest.approx(np.log(5.0), rel=1e-12)

    def test_shuffled_enumeration_agrees(self):
        # Independent oracle: re-sum e^{-E} over explicitly enumerated
        # configurations in a shuffled order, in log space.
        m = random_rbm(13, 3, 2)
        log_z = exact_log_partition_function(m)
        states_x = list(itertools.product([0.0, 1.0], repeat=3))
        states_h = list(itertools.product([0.0, 1.0], repeat=2))
        pairs = list(itertools.product(states_x, states_h))
        order = Rng(5).permutation(len(pairs))
        logs = np.array(
            [-energy(m, np.array(pairs[i][0]), np.array(pairs[i][1])) for i in order]
        )
        mx = logs.max()
        log_z_ref = float(mx + np.log(np.exp(logs - mx).sum()))
        assert abs(log_z - log_z_ref) <= 1e-12

    def test_probabilities_sum_to_one(self):
        for seed in range(5):
            m = random_rbm(seed, 3, 2)
            log_z = exact_log_partition_function(m)
            total = 0.0
            for x in itertools.product([0.0, 1.0], repeat=3):
                for h in itertools.product([0.0, 1.0], repeat=2):
                    total += np.exp(-energy(m, np.array(x), np.array(h)) - log_z)
            assert abs(total - 1.0) <= 1e-10

    def test_factorization_invariant(self):
        # log p(x,h) must equal log p(x) + log p(h|x) for every configuration.
        m = random_rbm(21, 3, 2)
        log_z = exact_log_partition_function(m)
        for x in itertools.product([0.0, 1.0], repeat=3):
            xv = np.array(x)
            ph = prob_h_given_x(m, xv)
            for h in itertools.product([0.0, 1.0], repeat=2):
                hv = np.array(h)
                joint = -energy(m, xv, hv) - log_z
                cond = np.sum(np.where(hv == 1.0, np.log(ph), np.log(1.0 - ph)))
                split = exact_log_likelihood(m, xv) + cond
                assert abs(joint - split) <= 1e-12 * max(1.0, abs(joint))

    def test_enumeration_size_limit(self):
        # The bound is 2^J * max(I, J) values, checked in integers before
        # anything is allocated: no OverflowError or MemoryError, even for
        # a million hidden units.
        for nv, nh in [(1, 24), (784, 16), (1, 10**6)]:
            m = zero_rbm(nv, nh)
            for oracle, args in [(exact_log_partition_function, (m,)),
                                 (exact_log_likelihood, (m, np.zeros(nv))),
                                 (exact_log_likelihood_grad, (m, np.zeros(nv)))]:
                peak, out = peak_bytes(oracle, *args)
                assert type(out) is ValueError and "too large" in str(out), (nv, nh, out)
                assert peak < 2**20, (nv, nh, peak)

    @pytest.mark.parametrize("std", [0.1, 1.0, 3.0])
    def test_hidden_side_matches_visible_side_enumeration(self, std):
        # Twelve models per weight scale, I, J <= 12, the extremes included.
        r = Rng(int(10 * std))
        shapes = [(1, 12), (12, 1), (12, 12)] + [tuple(r.integers(1, 13, 2)) for _ in range(9)]
        for seed, (nv, nh) in enumerate(shapes):
            m = random_rbm(seed, nv, nh, std=std)
            log_z, exh, ex, eh = visible_side_oracle(m)
            assert_close(exact_log_partition_function(m), log_z)
            batch = Rng(seed).uniform((6, nv))
            batch[:3] = batch[:3] < 0.5
            act = batch @ m.w + m.a_hid
            ll = batch @ m.b_vis + np.logaddexp(0.0, act).sum(axis=1) - log_z
            assert_close(exact_log_likelihood(m, batch), ll)
            assert_close(exact_log_likelihood(m, batch[0]), ll[0])
            ph = 0.5 * (1.0 + np.tanh(0.5 * act))
            g = exact_log_likelihood_grad(m, batch)
            assert_close(g.dw, batch.T @ ph / 6 - exh)
            assert_close(g.db_vis, batch.mean(axis=0) - ex)
            assert_close(g.da_hid, ph.mean(axis=0) - eh)

    def test_log_partition_function_past_float_range(self):
        # log Z = 770.77 > 709.78, so Z itself overflows a float; log Z and
        # log p(x) come out without a RuntimeWarning.
        m = zero_rbm(64, 4)
        m.b_vis[:] = 12.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            log_z = exact_log_partition_function(m)
            ll = exact_log_likelihood(m, np.ones(64))
        softplus = np.logaddexp(0.0, 12.0)
        assert log_z == pytest.approx(64 * softplus + 4 * np.log(2.0), rel=1e-12)
        assert ll == pytest.approx(64 * (12.0 - softplus), rel=1e-9)

    def test_sixteen_by_sixteen_normalizes_in_one_batch(self):
        # I + J = 32, beyond a joint table: p(x) over all 2^16 visible
        # states, scored in one call, sums to 1.
        m = random_rbm(16, 16, 16)
        states = np.array(list(itertools.product([0.0, 1.0], repeat=16)))
        assert abs(np.exp(exact_log_likelihood(m, states)).sum() - 1.0) <= 1e-12

    def test_gradient_memory_scales_with_hidden_states_only(self):
        # A 20x16 joint table would hold 2^36 values; the hidden-side sum
        # keeps a 100-row gradient under 64 MB.
        m = random_rbm(20, 20, 16)
        batch = (Rng(21).uniform((100, 20)) < 0.5).astype(float)
        peak, out = peak_bytes(exact_log_likelihood_grad, m, batch)
        assert isinstance(out, CdStats) and peak < 64 * 2**20

    def test_batch_log_likelihood_normalizes(self):
        # One call scores every visible state; p(x) must sum to 1 over them.
        for seed, (nv, nh) in enumerate([(3, 2), (5, 4), (8, 8)]):
            m = random_rbm(seed, nv, nh)
            states = np.array(list(itertools.product([0.0, 1.0], repeat=nv)))
            ll = exact_log_likelihood(m, states)
            assert ll.shape == (2**nv,)
            assert abs(np.exp(ll).sum() - 1.0) <= 1e-12

    def test_wrong_column_count_rejected(self):
        m = random_rbm(0, 3, 2)
        for oracle in (exact_log_likelihood, exact_log_likelihood_grad):
            with pytest.raises(ValueError, match="expected rows of length 3"):
                oracle(m, np.ones((4, 2)))


class TestExactGradient:
    def test_zero_model_hidden_gradient_vanishes(self):
        m = zero_rbm(3, 2)
        g = exact_log_likelihood_grad(m, np.array([1.0, 0.0, 1.0]))
        assert np.allclose(g.da_hid, 0.0, rtol=0, atol=1e-14)

    def test_matches_finite_differences(self):
        m = random_rbm(17, 3, 2)
        x = np.array([1.0, 0.0, 1.0])
        g = exact_log_likelihood_grad(m, x)
        eps = 1e-5

        def ll(model):
            return exact_log_likelihood(model, x)

        for i in range(3):
            for j in range(2):
                mp = m.copy(); mp.w[i, j] += eps
                mm = m.copy(); mm.w[i, j] -= eps
                fd = (ll(mp) - ll(mm)) / (2 * eps)
                assert abs(fd - g.dw[i, j]) <= 1e-6 * max(abs(fd), abs(g.dw[i, j]), 1e-12)
        for i in range(3):
            mp = m.copy(); mp.b_vis[i] += eps
            mm = m.copy(); mm.b_vis[i] -= eps
            fd = (ll(mp) - ll(mm)) / (2 * eps)
            assert abs(fd - g.db_vis[i]) <= 1e-6 * max(abs(fd), abs(g.db_vis[i]), 1e-12)
        for j in range(2):
            mp = m.copy(); mp.a_hid[j] += eps
            mm = m.copy(); mm.a_hid[j] -= eps
            fd = (ll(mp) - ll(mm)) / (2 * eps)
            assert abs(fd - g.da_hid[j]) <= 1e-6 * max(abs(fd), abs(g.da_hid[j]), 1e-12)

    def test_batch_is_the_mean_of_its_rows(self):
        m = random_rbm(5, 4, 3)
        batch = Rng(6).uniform((7, 4))
        batch[:4] = batch[:4] < 0.5
        g = exact_log_likelihood_grad(m, batch)
        rows = [exact_log_likelihood_grad(m, x[None, :]) for x in batch]
        for field in ("dw", "db_vis", "da_hid"):
            mean = np.mean([getattr(r, field) for r in rows], axis=0)
            np.testing.assert_allclose(getattr(g, field), mean, rtol=0, atol=1e-12)

    def test_ascent_converges_to_stationary_point(self):
        # Maximum-likelihood fit of a single repeated sample: after 1e4 exact
        # gradient ascent steps the gradient norm has collapsed.
        r = Rng(3)
        m = Rbm(w=r.normal((3, 2)) * 0.1, b_vis=np.zeros(3), a_hid=np.zeros(2))
        x = np.array([1.0, 0.0, 1.0])
        lr = 0.5
        for _ in range(10000):
            g = exact_log_likelihood_grad(m, x)
            m.w += lr * g.dw
            m.b_vis += lr * g.db_vis
            m.a_hid += lr * g.da_hid
        g = exact_log_likelihood_grad(m, x)
        norm = np.sqrt((g.dw**2).sum() + (g.db_vis**2).sum() + (g.da_hid**2).sum())
        assert norm < 1e-3
