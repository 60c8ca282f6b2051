"""Numeric primitives: sigmoid, seeded RNG, Bernoulli sampling, finiteness."""

import numpy as np
import pytest

from mndbn.core import Rng, require_finite, sample_bernoulli, sigmoid
from mndbn.errors import NumericError


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert sigmoid(0.0) == 0.5

    def test_large_positive_saturates(self):
        assert sigmoid(40.0) > 1.0 - 1e-15

    def test_symmetry(self):
        assert sigmoid(1.7) + sigmoid(-1.7) == 1.0

    def test_extreme_inputs_stay_finite_and_inside_unit_interval(self):
        z = np.array([-1e10, -710.0, 0.0, 710.0, 1e10])
        out = sigmoid(z)
        assert np.isfinite(out).all()
        assert (out > 0.0).all() and (out < 1.0).all()

    def test_elementwise_matches_scalar(self):
        z = Rng(0).normal((7,), std=3.0)
        out = sigmoid(z)
        for i in range(7):
            assert out[i] == sigmoid(z[i])

    def test_in_place_matches_reference_formula_bit_for_bit(self):
        z = Rng(1).normal((50, 40), std=20.0)
        z[0, :4] = [-1e10, -600.0, 600.0, 1e10]
        clipped = np.clip(z, -500.0, 500.0)
        expected = np.minimum(1.0 / (1.0 + np.exp(-clipped)), np.nextafter(1.0, 0.0))
        assert sigmoid(z).tobytes() == expected.tobytes()
        out = sigmoid(z, out=z)
        assert out is z
        assert out.tobytes() == expected.tobytes()

    def test_without_out_leaves_input_untouched(self):
        z = Rng(2).normal((6, 5), std=3.0)
        before = z.copy()
        out = sigmoid(z)
        assert out is not z
        assert (z == before).all()
        assert sigmoid(0.25) == sigmoid(np.array([0.25]))[0]


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(123).uniform((100,))
        b = Rng(123).uniform((100,))
        assert (a == b).all()

    def test_different_seeds_differ(self):
        a = Rng(1).uniform((100,))
        b = Rng(2).uniform((100,))
        assert not (a == b).all()

    def test_spawn_streams_are_distinct_and_reproducible(self):
        root = Rng(9)
        s0 = root.spawn(0).uniform((50,))
        s1 = root.spawn(1).uniform((50,))
        again = Rng(9).spawn(0).uniform((50,))
        assert (s0 == again).all()
        assert not (s0 == s1).all()

    def test_block_draw_prefix_property(self):
        # One C-order block draw: the single-row block is a prefix of the
        # two-row block from the same seed.
        one = Rng(5).uniform((1, 3))
        two = Rng(5).uniform((2, 3))
        assert (one[0] == two[0]).all()

    def test_permutation_is_bijection(self):
        p = Rng(4).permutation(257)
        assert sorted(p.tolist()) == list(range(257))

    def test_integers_range(self):
        v = Rng(3).integers(2, 7, (1000,))
        assert v.min() >= 2 and v.max() <= 6


class TestSampleBernoulli:
    def test_p_zero_always_zero(self):
        assert (sample_bernoulli(np.zeros(100), Rng(0)) == 0.0).all()

    def test_p_one_always_one(self):
        assert (sample_bernoulli(np.ones(100), Rng(0)) == 1.0).all()

    def test_fair_coin_mean(self):
        draws = sample_bernoulli(np.full(10**6, 0.5), Rng(11))
        assert 0.497 <= draws.mean() <= 0.503

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sample_bernoulli(np.array([0.5, 1.2]), Rng(0))
        with pytest.raises(ValueError):
            sample_bernoulli(-0.1, Rng(0))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            sample_bernoulli(np.array([0.5, np.nan, 0.2]), Rng(0))
        with pytest.raises(ValueError):
            sample_bernoulli(float("nan"), Rng(0))

    def test_matches_threshold_replay(self):
        p = Rng(6).uniform((4, 5))
        drawn = sample_bernoulli(p, Rng(7))
        u = Rng(7).uniform((4, 5))
        assert (drawn == (u < p).astype(float)).all()

    def test_into_out_takes_the_same_draws(self):
        p = Rng(6).uniform((4, 5))
        out = np.full((4, 5), np.nan)
        rng, ref = Rng(7), Rng(7)
        assert sample_bernoulli(p, rng, out=out) is out
        assert out.tobytes() == sample_bernoulli(p, ref).tobytes()
        # one draw per element, so the streams stay in step
        assert (rng.uniform((3,)) == ref.uniform((3,))).all()


class TestArrayOps:
    def test_require_finite_raises_on_nan_and_inf(self):
        require_finite("ok", np.ones(3))
        with pytest.raises(NumericError):
            require_finite("bad", np.array([1.0, np.nan]))
        with pytest.raises(NumericError):
            require_finite("bad", np.array([np.inf]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("shape", [(7,), (3, 5)], ids=["1d", "2d"])
    def test_require_finite_finds_a_bad_entry_anywhere(self, shape, bad):
        arr = np.arange(np.prod(shape), dtype=float).reshape(shape) - 3.0
        require_finite("ok", arr)
        for pos in (0, arr.size // 2, arr.size - 1):   # first, middle, last
            spoiled = arr.copy()
            spoiled.flat[pos] = bad
            with pytest.raises(NumericError):
                require_finite("bad", spoiled)

    def test_require_finite_accepts_empty_and_extreme_finite(self):
        require_finite("empty", np.empty((0, 3)))
        big = np.finfo(float).max
        require_finite("edges", np.array([[big, -big], [0.0, -0.0]]))
