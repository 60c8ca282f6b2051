"""Hidden-unit group partitions: layout math, expand/accumulate pair."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import ORACLE_LAYOUTS
from mndbn.core import Rng
from mndbn.errors import ConfigError
from mndbn.groups import GroupPartition, accumulate, divide_accumulate, expand, make_partition


class TestNonOverlapping:
    def test_500_units_groups_of_5(self):
        p = make_partition(500, 5)
        assert (p.num_groups, p.num_groups * p.group_size, p.stride) == (100, 500, 5)
        assert (expand(np.arange(500, dtype=float), p) == np.arange(500)).all()
        assert (p.cover == np.arange(500) // 5).all() and p.cover.shape == (1, 500)

    def test_whole_layer_single_group(self):
        p = make_partition(8, 8)
        assert p.num_groups == 1

    def test_indivisible_layer_rejected(self):
        with pytest.raises(ConfigError):
            make_partition(6, 4)

    def test_bad_group_size_rejected(self):
        with pytest.raises(ConfigError):
            make_partition(10, 0)


class TestOverlapping:
    def test_layout_100_20_20pct(self):
        p = make_partition(100, 20, 0.2)
        assert (p.num_groups, p.num_groups * p.group_size, p.stride) == (6, 120, 16)
        # group k covers units [16 k, 16 k + 20)
        assert (expand(np.arange(100, dtype=float), p)
                == (16 * np.arange(6)[:, None] + np.arange(20)).ravel()).all()

    def test_layout_100_50_50pct(self):
        p = make_partition(100, 50, 0.5)
        assert (p.num_groups, p.num_groups * p.group_size, p.stride) == (3, 150, 25)

    def test_layout_100_50_20pct_rejected(self):
        # stride 40 does not tile 100 units with groups of 50
        with pytest.raises(ConfigError):
            make_partition(100, 50, 0.2)

    def test_layout_6_4_50pct(self):
        p = make_partition(6, 4, 0.5)
        assert (p.num_groups, p.num_groups * p.group_size, p.stride) == (2, 8, 2)
        assert expand(np.arange(6, dtype=float), p).tolist() == [0, 1, 2, 3, 2, 3, 4, 5]
        # units 2 and 3 lie in both groups; the padding index 2 marks "none"
        assert p.cover.tolist() == [[0, 0, 0, 0, 1, 1], [2, 2, 1, 1, 2, 2]]

    def test_cover_lists_every_covering_group_in_order(self):
        for j, g, a in ORACLE_LAYOUTS:
            p = make_partition(j, g, a)
            starts = p.stride * np.arange(p.num_groups)
            for unit in range(j):
                covering = np.flatnonzero((starts <= unit) & (unit < starts + g)).tolist()
                listed = [int(k) for k in p.cover[:, unit] if k < p.num_groups]
                assert listed == covering
            # one row per window over the most-covered unit
            units = np.arange(j)
            counts = ((starts[:, None] <= units) & (units < starts[:, None] + g)).sum(axis=0)
            assert p.cover.shape[0] == counts.max()

    def test_non_integral_stride_rejected(self):
        with pytest.raises(ConfigError):
            make_partition(100, 20, 0.27)

    def test_group_larger_than_layer_rejected(self):
        with pytest.raises(ConfigError):
            make_partition(4, 8, 0.5)

    def test_full_overlap_rejected(self):
        # a=1 gives stride 0
        with pytest.raises(ConfigError):
            make_partition(8, 4, 1.0)


class TestMakePartition:
    @pytest.mark.parametrize(
        "j, group_size, overlap",
        [
            (10, 0, 0.0),            # empty groups
            (4, 8, 0.0),             # group larger than the layer
            (6, 4, 0.0),             # disjoint groups that do not tile the layer
            (8, 4, -0.5),            # negative overlap
            (8, 4, 1.0),             # full overlap: stride 0
            (8, 4, float("nan")),
            (100, 20, 0.27),         # stride 14.6 is not an integer
            (100, 50, 0.2),          # stride 40 does not divide 100 - 50
        ],
        ids=["size-0", "size-over-j", "indivisible", "negative", "full", "nan",
             "fractional-stride", "ragged-tail"],
    )
    def test_invalid_layouts_rejected(self, j, group_size, overlap):
        with pytest.raises(ConfigError):
            make_partition(j, group_size, overlap)

    @pytest.mark.parametrize("j, group_size, overlap, table_bytes", [
        (2**45, 2**45, 0.0, 2**48),   # one row of 2^45 int64 entries
        (2**40, 2**20, 0.5, 2**44),   # two rows: each unit lies in two groups
    ], ids=["whole-layer", "overlap"])
    def test_table_beyond_physical_memory_rejected_before_allocating(self, j, group_size,
                                                                     overlap, table_bytes):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"needs a {table_bytes}-byte"):
                make_partition(j, group_size, overlap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_partition_holds_only_the_window_layout(self):
        names = [f.name for f in dataclasses.fields(GroupPartition)]
        assert names == ["j_original", "group_size", "num_groups", "stride", "cover"]

    def test_overlap_defaults_to_disjoint(self):
        p = make_partition(12, 3)
        assert (p.stride, p.num_groups) == (3, 4) and p.stride == p.group_size
        assert p.cover.tolist() == [(np.arange(12) // 3).tolist()]


class TestExpandAccumulate:
    def test_expand_example(self):
        p = make_partition(4, 2, 0.5)   # stride 1, groups [0,1],[1,2],[2,3]
        v = np.array([10.0, 11.0, 12.0, 13.0])
        out = expand(v, p)
        assert out.tolist() == [10.0, 11.0, 11.0, 12.0, 12.0, 13.0]

    def test_accumulate_counts_copies(self):
        p = make_partition(4, 2, 0.5)
        out = accumulate(np.ones(6), p)
        assert out.tolist() == [1.0, 2.0, 2.0, 1.0]

    def test_expand_batch_rows_independent(self):
        p = make_partition(6, 4, 0.5)
        batch = Rng(0).uniform((5, 6))
        out = expand(batch, p)
        assert out.shape == (5, 8)
        for i in range(5):
            assert (out[i] == expand(batch[i], p)).all()

    def test_adjointness(self):
        shapes = [(6, 4, 0.5), (100, 20, 0.2), (100, 50, 0.5)]
        for j, g, a in shapes:
            p = make_partition(j, g, a)
            for trial in range(20):
                r = Rng(1000 * j + trial)
                v = r.normal((p.j_original,))
                u = r.normal((p.num_groups * g,))
                lhs = float(expand(v, p) @ u)
                rhs = float(v @ accumulate(u, p))
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_identity_on_trivial_partition(self):
        p = make_partition(10, 5)
        v = Rng(2).normal((10,))
        assert (expand(v, p) == v).all()
        assert (accumulate(v, p) == v).all()

    def test_wrong_length_rejected(self):
        p = make_partition(6, 4, 0.5)
        with pytest.raises(ValueError):
            expand(np.ones(7), p)
        with pytest.raises(ValueError):
            accumulate(np.ones(6), p)

    def test_divide_accumulate_equals_accumulate_of_copy_quotients(self):
        for j, g, a in ORACLE_LAYOUTS:
            p = make_partition(j, g, a)
            r = Rng(j * g)
            for rows in [(), (1,), (7,)]:
                u = r.normal(rows + (j,))
                d = r.uniform(rows + (p.num_groups,)) + 0.5
                copies = expand(u, p) / np.repeat(d, g, axis=-1)
                assert np.array_equal(divide_accumulate(u, d, p), accumulate(copies, p))

    def test_divide_accumulate_into_out_across_row_blocks(self):
        # divide_accumulate takes all the rows it is given at once; 70 rows of
        # 2000 units are two 32-row blocks of penalty_grad and a short one
        for j, g, a in [(2000, 10, 0.5), (2000, 20, 0.25), (500, 10, 0.0)]:
            p = make_partition(j, g, a)
            r = Rng(j + g)
            for rows in [(), (70,)]:
                u = r.normal(rows + (j,))
                d = r.uniform(rows + (p.num_groups,)) + 0.5
                want = accumulate(expand(u, p) / np.repeat(d, g, axis=-1), p)
                out = np.full_like(u, np.nan)
                assert divide_accumulate(u, d, p, out=out) is out
                assert np.array_equal(out, want)
                assert np.array_equal(divide_accumulate(u, d, p), want)
