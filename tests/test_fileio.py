"""The bytes each artifact writer puts on disk, pinned.

Each case writes one file the way the toolkit writes that artifact and
checks the sha256 of its bytes. The digests were recorded when each writer
still built its whole file as one string, so a writer that streams into its
file must reproduce those bytes exactly. Checkpoint bytes are pinned in
``test_nn.py`` (``test_version_2_checkpoint_bytes_are_pinned``, an adapted
model, and ``test_save_writes_the_bytes_of_json_dumps``).
"""

import hashlib

import pytest

from unlearnkit import EvalReport, UnlearnConfig, fileio
from unlearnkit.unlearn import TraceRow, write_trace_csv

CONFIG = UnlearnConfig(data_name="gaussian_blobs:c3:s30:d4:noise0.1", backbone="mlp:12",
                       unlearn_method="scrub", del_ratio=4, seed=7, curriculum=True)
META = {"train_seconds": 0.15234375, "test_acc": 96.66666666666667,
        "train_config": CONFIG.train_dict(), "flos": 1234567.0}
MANIFEST = {
    "b" * 16: {"kind": "unlearn", "dir": "artifacts/runs/" + "b" * 16, "status": "failed",
               "started_at": "2026-01-02T03:04:05", "finished_at": "2026-01-02T03:04:06",
               "message": "BudgetError: unlearning exceeded its budget of 1e-06 s – "
                          "after epoch 1"},
    "a" * 16: {"kind": "train", "dir": "artifacts/checkpoints/" + "a" * 16, "status": "done",
               "started_at": "2026-01-02T03:04:05", "finished_at": None},
}
TRACE = [TraceRow(0, None, 0.9876543210987654, 80.0, None, 85.0, 0.0, 0.001, "init"),
         TraceRow(1, 1.5, 0.25, 91.66666666666667, 33.333333333333336, 98.24561403508773,
                  123456.0, 0.0123, "train"),
         TraceRow(2, 2.0, 0.125, 93.0, 0.0, 100.0, 246912.0, 0.025, "ascend")]

WRITERS = {
    "meta": (lambda path: fileio.write_json(path, META),
             "cb9713316fc960e8abda3121ce31a2376bc74b766c313ab8604866a39a914f09"),
    "config": (lambda path: fileio.write_json(path, CONFIG.resolved_dict()),
               "ca3df0112f4891d575ffb623d30ab1d7fe56dce8e13cbb402030140f24f6eb4d"),
    "manifest": (lambda path: fileio.write_json(path, MANIFEST),
                 "5389085cfc23e5598b70b0240d0764850474502e03240b81c37d2d3714edc2d3"),
    "report": (lambda path: EvalReport(91.66666666666667, None, 98.24561403508773, 0.0123,
                                       246912.0, None, None, "c" * 16, 7).save(path),
               "405bd61072efe8855826555e31800ece6dbab8c8ac268cbf40eb6e6770571b82"),
    "trace": (lambda path: write_trace_csv(TRACE, path),
              "71c47999872c94b822483c0ce93f0116342a825ca254a4838c1472763e4c85c0"),
}


@pytest.mark.parametrize("name", WRITERS)
def test_each_writer_writes_its_pinned_bytes(tmp_path, name):
    write, digest = WRITERS[name]
    path = tmp_path / name
    write(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_a_writer_makes_its_missing_directories_and_leaves_only_its_file(tmp_path):
    path = tmp_path / "runs" / "abc" / "trace.csv"
    write_trace_csv(TRACE, path)
    assert [p.name for p in path.parent.iterdir()] == ["trace.csv"]
    assert path.read_bytes().startswith(b"epoch,loss_f,")
