"""The worker lane beside the caller (`core.beside`): the work handed to it
keeps every bit the caller would have computed, and its errors surface in
the caller."""

import subprocess
import sys
from concurrent.futures import Future

import numpy as np
import pytest

from conftest import src_env
from mndbn.cli import THREAD_ENV_VARS
from mndbn.core import _overflow_raises, beside, matmul_beside
from mndbn.errors import NumericError

# cd_step and the epoch metrics, each against the same numpy calls made
# one after another on one thread, in the process that runs this.
SERIAL_VS_LANE = """
import numpy as np
from mndbn.core import Rng, row_blocks, sample_bernoulli
from mndbn.groups import make_partition
from mndbn.mixed_norm import PenaltyConfig, _epoch_metrics, _group_norm_sums
from mndbn.rbm import Rbm, _CdBuffers, cd_step, prob_h_given_x, prob_x_given_h

m = Rbm.init_random(784, 500, Rng(1), std=0.05)
cfg = PenaltyConfig(0.1, make_partition(500, 10, 0.5))
images = Rng(2).uniform((1000, 784))
buf = _CdBuffers.like(m, 166)

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


def test_lane_keeps_the_bits_of_serial_calls_at_two_blas_threads():
    # Two BLAS threads is where a gemm's bits could move if running two
    # at once changed either one's thread count or blocking.
    env = {**src_env(), **dict.fromkeys(THREAD_ENV_VARS, "2")}
    proc = subprocess.run([sys.executable, "-c", SERIAL_VS_LANE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "match"


def test_overflow_on_the_lane_is_a_numeric_error_in_the_caller():
    with pytest.raises(NumericError, match="overflow in lane work"):
        with _overflow_raises("lane work"):
            beside(np.multiply, np.array([1e308]), 10.0).result()


def test_lane_follows_the_callers_error_state():
    with np.errstate(over="ignore"):
        assert beside(np.multiply, np.array([1e308]), 10.0).result()[0] == np.inf


def test_other_errors_on_the_lane_reraise_in_the_caller():
    def fail(key):
        raise KeyError(key)

    with pytest.raises(KeyError, match="on the lane"):
        beside(fail, "on the lane").result()


def test_lane_runs_its_jobs_in_order_and_returns_their_values():
    order = []
    jobs = [beside(order.append, i) for i in range(5)]
    assert [job.result() for job in jobs] == [None] * 5
    assert order == list(range(5))
    assert beside(max, 3, 7, key=lambda v: -v).result() == 3


def test_small_products_are_formed_on_the_caller_when_it_joins():
    a, b = np.ones((4, 3)), np.ones((3, 2))
    out = np.full((4, 2), np.nan)
    job = matmul_beside(a, b, out)
    assert np.isnan(out).all()
    assert job.result() is out
    assert (out == 3.0).all()


def test_large_products_run_on_the_lane_with_the_callers_bits():
    # 100 x 784 x 500: CD's positive statistic on a 784x500 layer.
    rng = np.random.default_rng(0)
    a, b = rng.random((100, 784)), rng.random((784, 500))
    out = np.empty((100, 500))
    job = matmul_beside(a, b, out)
    assert isinstance(job, Future)
    assert job.result() is out
    assert out.tobytes() == (a @ b).tobytes()
