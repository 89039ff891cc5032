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


def test_one_wide_loss_and_grad_holds_at_most_0_8_mb_of_temporaries(hotpath):
    """Backprop writes each activation's gradient over the activation: one ``wide``
    ``loss_and_grad`` (stack of one, batch 256, ``mlp:256,256``) peaked at 2.30 MB
    when every layer's backward allocated a fresh ``(1, 256, 256)`` array, at 1.31 MB
    with the gradient written into the input gradient ``g @ W``, which then lived
    beside the next one, and at 0.72 MB with it written over the activation."""
    model, x, y, _ = hotpath.lockstep_batch(hotpath.WIDE, 1)
    assert hotpath.peak_mb(lambda: loss_and_grad(model, x, labels=y)) <= 0.8


@pytest.mark.parametrize("masked", [False, True], ids=["dense", "masked"])
def test_a_wide_adam_update_is_traced(hotpath, masked):
    assert 0 < hotpath.peak_mb(hotpath.adam_update(hotpath.WIDE, 1, masked)) <= 0.3


@pytest.mark.parametrize("wide", [False, True], ids=["default", "wide"])
def test_a_snapshot_is_timed_and_traced(hotpath, wide):
    fn = hotpath.snapshot(hotpath.WIDE if wide else UnlearnConfig())
    assert 0 < hotpath.median_us(fn, 1) < math.inf
    assert 0 < hotpath.peak_mb(fn) < 1.0


def test_a_save_is_timed_and_traced(hotpath, tmp_path):
    fn = hotpath.save(UnlearnConfig(), tmp_path / "model.json")
    assert 0 < hotpath.median_us(fn, 1) < math.inf
    assert 0 < hotpath.peak_mb(fn) < 1.0


def test_one_wide_save_traces_at_most_2_5_mb(hotpath, tmp_path):
    """``Model.save`` streams its JSON into the file: one ``wide`` save
    (``mlp:256,256``, a 0.91 MB checkpoint) traced 2.73 MB when it built the whole
    JSON text and its UTF-8 bytes before writing, and 2.32 MB streamed, which
    holds the base64 strings of ``to_dict`` and one array's text at a time."""
    path = tmp_path / "model.json"
    fn = hotpath.save(hotpath.WIDE, path)
    assert hotpath.peak_mb(fn) <= 2.5
    assert path.stat().st_size > 900_000
