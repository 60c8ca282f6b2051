"""Synthetic digit sets: recorded bytes, the per-image reference, the contract."""

import hashlib

import numpy as np
import pytest

from mndbn.core import Rng
from mndbn.synth import make_synthetic

# (n_train, n_test, side, seed, noise, max_shift) -> sha256 of the train
# images, train labels, test images and test labels, in that order.
# Recorded from the per-image implementation (`reference` below) with
# numpy 2.4 on x86-64.
RECORDED = [
    (25, 7, 4, 0, 0.1, 1, "2a75811e8bd0cdf6aea42e4fd7ab420bb42ba9d8bf53f1529af4c66b9d9c3d17"),
    (30, 0, 8, 3, 0.1, 1, "93bcee24f03b71839a218bb46e7d96d9efc585d1a0e689f5eaea7d4fd9728a48"),
    (40, 13, 8, 11, 0.3, 2, "0d83de40a2920ffdc94a128472594d02c232b76cb570f14a6de52d0f3f04e64a"),
    (20, 5, 8, 5, 0.0, 0, "8433dbd42d59d442c040e8a5c5b9169f00ba5878fb70356645e24f3fca8e9299"),
    (12, 4, 9, 7, 0.0, 2, "e94a4d0bf382c889572fdeb4a251314a0661d3dcb40e7b402bda4a22bedab659"),
    (11, 2, 6, 2, 0.3, 2, "dd78f4ad2432f4e9b49a08e89815675b2d41406184923c561909b642e3d4b6a4"),
    (15, 6, 28, 1, 0.1, 1, "750ba94f78764e89e01fc1845797e112b460b1ef3a07ef9a6be0d256f7fb358f"),
    (10, 3, 28, 12, 0.3, 0, "657663918f4d55ab9d6f566038193a8850536650ac5b3fdcb82d1d4b8de32f21"),
    # Several blocks of the vectorised pass, the last one partial.
    (200, 30, 28, 9, 0.3, 2, "b03ba8da01f3d516852aad726affb4c67c7e46b970c885266b8e5055aa69d7fd"),
    # The set-ups of the perfbench workloads (pretrain-mn784,
    # pretrain-overlap2000, finetune-cg784) at seed 1.
    (1000, 0, 28, 1, 0.1, 1, "a219fc9826a976ed751d4bc97a60770f4e6afdde9990b79469c0799ee0deac34"),
    (2000, 0, 8, 1, 0.1, 1, "48135b108d2f39c7523d43ed70e93008a46947a2c0f4162882f89712866c569b"),
    (2000, 500, 28, 1, 0.1, 1, "8a88ee876efead40ac01828e4a588bc030781b2b5ef96ff946fcf8a679327133"),
]


def digest(train, test):
    h = hashlib.sha256()
    for a in (train.images, train.labels, test.images, test.labels):
        h.update(a.tobytes())
    return h.hexdigest()


def blur(img, passes):
    """Average each pixel with its 4-neighborhood, wrapping around."""
    for _ in range(passes):
        img = (img + np.roll(img, 1, 0) + np.roll(img, -1, 0)
               + np.roll(img, 1, 1) + np.roll(img, -1, 1)) / 5.0
    return img


def reference(n_train, n_test, side, seed, noise, max_shift):
    """One class, then one image at a time: blur and threshold each class's
    uniform draws into its prototype; roll the prototype, add noise, clip."""
    rng = Rng(seed)
    protos = np.empty((10, side, side))
    for c in range(10):
        sm = blur(rng.uniform((side, side)), passes=2)
        protos[c] = blur((sm > np.median(sm)).astype(float), passes=1)
    out = []
    for n in (n_train, n_test):
        images = np.empty((n, side * side))
        labels = np.arange(n, dtype=np.int64) % 10
        for i in range(n):
            dr = int(rng.integers(-max_shift, max_shift + 1))
            dc = int(rng.integers(-max_shift, max_shift + 1))
            img = np.roll(np.roll(protos[labels[i]], dr, axis=0), dc, axis=1)
            img = img + rng.normal((side, side), std=noise)
            images[i] = np.clip(img, 0.0, 1.0).ravel()
        out.append((images, labels))
    return out


@pytest.mark.parametrize("args", [case[:-1] for case in RECORDED], ids=str)
def test_matches_per_image_reference(args):
    train, test = make_synthetic(*args)
    (ref_train, ref_train_labels), (ref_test, ref_test_labels) = reference(*args)
    assert train.images.tobytes() == ref_train.tobytes()
    assert test.images.tobytes() == ref_test.tobytes()
    assert (train.labels == ref_train_labels).all()
    assert (test.labels == ref_test_labels).all()


@pytest.mark.parametrize("case", RECORDED, ids=lambda c: str(c[:-1]))
def test_bytes_match_recorded_digest(case):
    *args, expected = case
    assert digest(*make_synthetic(*args)) == expected


@pytest.mark.parametrize("n_train, n_test, side", [(23, 7, 4), (30, 0, 8), (5, 12, 28)])
def test_shapes_range_and_labels(n_train, n_test, side):
    train, test = make_synthetic(n_train, n_test, side=side, seed=1, noise=0.3, max_shift=2)
    for ds, n in ((train, n_train), (test, n_test)):
        assert ds.images.shape == (n, side * side)
        assert ds.images.dtype == np.float64
        assert ds.labels.dtype == np.int64
        assert ((ds.images >= 0.0) & (ds.images <= 1.0)).all()
        assert (ds.labels == np.arange(n) % 10).all()


@pytest.mark.parametrize("kwargs", [
    {"n_train": 10, "side": 3},
    {"n_train": 10, "side": 0},
    {"n_train": 0},
    {"n_train": -1},
    {"n_train": 10, "n_test": -1},
    {"n_train": 10, "noise": -0.5},
    {"n_train": 10, "noise": float("inf")},
    {"n_train": 10, "noise": float("nan")},
    {"n_train": 10, "max_shift": -2},
])
def test_invalid_arguments_rejected(kwargs):
    # The message names the setting at fault: the one besides n_train.
    name = next((key for key in kwargs if key != "n_train"), "training sample")
    with pytest.raises(ValueError, match=name):
        make_synthetic(**kwargs)
