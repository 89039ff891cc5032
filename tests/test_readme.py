"""README's Python blocks run as written."""

import ast
import builtins
import re
from pathlib import Path

import pytest

from unlearnkit import UnlearnConfig, build_model
from unlearnkit.data import generate

BLOCKS = re.findall(r"^```python\n(.*?)^```",
                    (Path(__file__).resolve().parents[1] / "README.md").read_text(),
                    re.MULTILINE | re.DOTALL)


def _free_names(source: str) -> set[str]:
    """The names ``source`` reads and neither binds, imports nor gets from builtins."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    bound |= {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return read - bound - set(dir(builtins))


def _default_batch() -> dict:
    """A default-config model and one batch of its training rows, as ``model``, ``x``
    and ``y``."""
    cfg = UnlearnConfig()
    split = generate(cfg.data_spec())
    model = build_model(split.train_x.shape[1], cfg.data_spec().num_classes, cfg.backbone)
    rows = slice(0, cfg.batch_size)
    return {"model": model, "x": split.train_x[rows], "y": split.train_y[rows]}


def test_readme_has_a_self_contained_block_and_a_loss_and_grad_fragment():
    assert [_free_names(block) for block in BLOCKS].count(set()) >= 2
    assert {"model", "x", "y"} in [_free_names(block) for block in BLOCKS]


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_a_readme_python_block_runs_in_a_fresh_namespace(index):
    """A block runs as written; a fragment that reads ``model``, ``x`` and ``y``
    gets them from :func:`_default_batch`."""
    block = BLOCKS[index]
    free = _free_names(block)
    assert free in (set(), {"model", "x", "y"}), free
    namespace = _default_batch() if free else {}
    exec(compile(block, f"README.md python block {index}", "exec"), namespace)
