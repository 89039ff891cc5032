"""tools/hotpath.py: the step timings run on the path training takes."""

import importlib.util
import math
from pathlib import Path

import pytest

from unlearnkit import UnlearnConfig
from unlearnkit.unlearn import loss_and_grad

TOOL = Path(__file__).resolve().parents[1] / "tools" / "hotpath.py"


@pytest.fixture(scope="module")
def hotpath():
    spec = importlib.util.spec_from_file_location("hotpath", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("k", [1, 2])
def test_step_us_times_a_stack_of_k(hotpath, k):
    assert 0 < hotpath.step_us(UnlearnConfig(), k, 1) < math.inf


def test_the_wide_batch_is_a_stack_of_one(hotpath):
    model, x, y, _ = hotpath.lockstep_batch(hotpath.WIDE, 1)
    assert x.shape == (1, 256, 64) and y.shape == (1, 256)
    assert model.forward_cache(x)[0].shape == (1, 256, 10)


def test_superloss_us_times_the_wide_batch(hotpath):
    assert 0 < hotpath.superloss_us(hotpath.WIDE_CURRICULUM, 1) < math.inf


def test_step_us_gives_each_member_its_curriculum(hotpath):
    assert 0 < hotpath.step_us(UnlearnConfig(curriculum=True), 2, 1) < math.inf


@pytest.mark.parametrize("k", [1, 2])
def test_peak_mb_traces_one_whole_step(hotpath, k):
    assert 0 < hotpath.peak_mb(hotpath.lockstep_step(UnlearnConfig(), k)) < 1.0


def test_one_wide_loss_and_grad_holds_at_most_1_6_mb_of_temporaries(hotpath):
    """The activation backward writes into a gradient backprop made: one ``wide``
    ``loss_and_grad`` (stack of one, batch 256, ``mlp:256,256``) peaked at 2.30 MB
    when every layer's backward allocated a fresh ``(1, 256, 256)`` array, and 1.31 MB
    with the gradient written in place."""
    model, x, y, _ = hotpath.lockstep_batch(hotpath.WIDE, 1)
    assert hotpath.peak_mb(lambda: loss_and_grad(model, x, labels=y)) <= 1.6
