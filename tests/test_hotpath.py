"""tools/hotpath.py: the step timings run on the path training takes."""

import importlib.util
import math
from pathlib import Path

import pytest

from unlearnkit import UnlearnConfig

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
