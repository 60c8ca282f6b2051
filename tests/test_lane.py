"""The worker lane beside the caller (`core.matmul_beside`): a product
handed to it keeps every bit the caller would have computed, and its errors
surface in the caller when the block exits."""

import subprocess
import sys

import numpy as np
import pytest

from conftest import src_env
from mndbn.cli import THREAD_ENV_VARS
from mndbn.core import _overflow_raises, matmul_beside
from mndbn.errors import NumericError

# cd_step and the epoch metrics, each against the same numpy calls made
# one after another on one thread, in the process that runs this. The
# buffers are sized as train_mnrbm sizes them: a 100-row batch holds one
# 83-row metrics block.
SERIAL_VS_LANE = """
import numpy as np
from mndbn.core import Rng, row_blocks, sample_bernoulli
from mndbn.groups import make_partition
from mndbn.mixed_norm import PenaltyConfig, _epoch_metrics, _group_norm_sums
from mndbn.rbm import Rbm, _CdBuffers, cd_step, prob_h_given_x, prob_x_given_h

m = Rbm.init_random(784, 500, Rng(1), std=0.05)
cfg = PenaltyConfig(0.1, make_partition(500, 10, 0.5))
images = Rng(2).uniform((1000, 784))
buf = _CdBuffers.like(m, 100)

batch = images[:100]
stats = cd_step(m, batch, Rng(3), out=buf)
rng = Rng(3)
h0 = prob_h_given_x(m, batch)
dw = batch.T @ h0
xt = prob_x_given_h(m, sample_bernoulli(h0, rng))
ht = prob_h_given_x(m, xt)
dw -= xt.T @ ht
dw /= 100
serial = [dw, np.mean(batch - xt, axis=0), np.mean(h0 - ht, axis=0)]
lane = [stats.dw, stats.db_vis, stats.da_hid]
assert all(a.tobytes() == b.tobytes() for a, b in zip(lane, serial)), "cd_step"

sums = [0.0, 0.0, 0.0]
for block in row_blocks(1000, 784):
    xb = images[block]
    p = prob_h_given_x(m, xb)
    sums[0] += float(((xb - prob_x_given_h(m, p)) ** 2).sum())
    sums[1] += float(p.sum())
    sums[2] += float(np.sum(_group_norm_sums(p, cfg.partition)))
serial = (sums[0] / (1000 * 784), sums[1] / (1000 * 500), sums[2] / 1000)
assert _epoch_metrics(m, images, cfg, buf) == serial, "epoch metrics"
print("match")
"""

# Python threads alive after the import, after a small product and after
# a large one (100 x 784 x 500, over the lane's threshold).
LANE_THREADS = """
import threading
import numpy as np
import mndbn
from mndbn.core import matmul_beside

counts = [threading.active_count()]
with matmul_beside(np.ones((4, 3)), np.ones((3, 2)), np.empty((4, 2))):
    counts.append(threading.active_count())
with matmul_beside(np.ones((100, 784)), np.ones((784, 500)), np.empty((100, 500))):
    pass
counts.append(threading.active_count())
print(*counts, *sorted(t.name for t in threading.enumerate()))
"""


def large_operands():
    # 100 x 784 x 500: CD's positive statistic on a 784x500 layer.
    rng = np.random.default_rng(0)
    return rng.random((100, 784)), rng.random((784, 500))


def test_lane_keeps_the_bits_of_serial_calls_at_two_blas_threads():
    # Two BLAS threads is where a gemm's bits could move if running two
    # at once changed either one's thread count or blocking.
    env = {**src_env(), **dict.fromkeys(THREAD_ENV_VARS, "2")}
    proc = subprocess.run([sys.executable, "-c", SERIAL_VS_LANE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "match"


def test_lane_thread_starts_at_the_first_large_product():
    proc = subprocess.run([sys.executable, "-c", LANE_THREADS], capture_output=True,
                          text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1", "2", "MainThread", "mndbn-lane_0"]


def test_small_products_are_formed_on_the_caller_before_the_body():
    a, b = np.ones((4, 3)), np.ones((3, 2))
    out = np.full((4, 2), np.nan)
    with matmul_beside(a, b, out) as product:
        assert product is out
        assert (out == 3.0).all()


def test_large_products_run_on_the_lane_with_the_callers_bits():
    a, b = large_operands()
    out = np.empty((100, 500))
    with matmul_beside(a, b, out) as product:
        assert product is out
    assert out.tobytes() == (a @ b).tobytes()


def test_overflow_on_the_lane_is_a_numeric_error_in_the_caller():
    a, b = np.full((100, 784), 1e300), np.full((784, 500), 1e10)
    bodies = []
    with pytest.raises(NumericError, match="overflow in lane work"):
        with _overflow_raises("lane work"):
            with matmul_beside(a, b, np.empty((100, 500))):
                bodies.append("ran")
    assert bodies == ["ran"]


def test_lane_follows_the_callers_error_state():
    a, b = np.full((100, 784), 1e300), np.full((784, 500), 1e10)
    out = np.empty((100, 500))
    with np.errstate(over="ignore"):
        with matmul_beside(a, b, out):
            pass
    assert (out == np.inf).all()


def test_other_errors_on_the_lane_reraise_in_the_caller():
    a, b = large_operands()
    bodies = []
    with pytest.raises(ValueError):
        with matmul_beside(a, b, np.empty((100, 499))):
            bodies.append("ran")
    assert bodies == ["ran"]


def test_a_body_error_propagates_once_the_lane_has_joined():
    a, b = large_operands()
    out = np.full((100, 500), np.nan)
    with pytest.raises(KeyError, match="in the body"):
        with matmul_beside(a, b, out):
            raise KeyError("in the body")
    assert out.tobytes() == (a @ b).tobytes()
    # A lane error as well: the body's is the one that propagates.
    with pytest.raises(KeyError, match="in the body"):
        with matmul_beside(a, b, np.empty((100, 499))):
            raise KeyError("in the body")
