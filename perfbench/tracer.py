"""Run one unlearnkit CLI command with spans recorded around its layers.

Usage (from the repository root, with ``PYTHONPATH=src``):

    python perfbench/tracer.py SPANS_FILE [unlearnkit CLI arguments ...]

The tracer imports ``unlearnkit.cli`` inside a ``cli.import`` span, then
replaces the public functions of each module with timing wrappers from the
outside: no file under ``src/`` changes. A function imported by name into
another module (``from .optim import optimizer_step``) is replaced in every
``unlearnkit`` module that binds it, because the caller looks the name up in
its own module. Spans are kept in memory as parallel arrays (name, tag,
parent, run, start, end) and written once, when the command ends:
``SPANS_FILE`` gets a JSON header and ``SPANS_FILE.bin`` the arrays.

Worker processes forked by ``sweep --workers N`` restore the original
functions at fork, so they run untraced and the spans cover the parent only.
A target that a later version of the program no longer has is skipped; its
metrics then read 0.
"""

from __future__ import annotations

import array
import functools
import json
import os
import sys
import time

clock = time.perf_counter

# The span columns, in file order, with their array type codes.
COLUMNS = (("name", "i"), ("tag", "i"), ("parent", "i"), ("run", "i"),
           ("start", "d"), ("end", "d"))

# (module, function, span name). ``unlearnkit.unlearn`` is reached through
# sys.modules: on the package, that attribute is the function, not the module.
FUNCTIONS = [
    ("unlearnkit.cli", "cmd_train", "cli.command"),
    ("unlearnkit.cli", "cmd_unlearn", "cli.command"),
    ("unlearnkit.cli", "cmd_evaluate", "cli.command"),
    ("unlearnkit.cli", "cmd_sweep", "cli.command"),
    ("unlearnkit.cli", "cmd_report", "cli.command"),
    ("unlearnkit.cli", "ensure_checkpoint", "cli.ensure_checkpoint"),
    ("unlearnkit.cli", "execute_unlearn", "cli.execute_unlearn"),
    ("unlearnkit.data", "generate", "data.generate"),
    ("unlearnkit.unlearn", "train_original", "unlearn.train_original"),
    ("unlearnkit.unlearn", "unlearn", "unlearn.unlearn"),
    ("unlearnkit.unlearn", "write_trace_csv", "unlearn.write_trace_csv"),
    ("unlearnkit.nn", "cross_entropy", "nn.loss"),
    ("unlearnkit.nn", "kl_loss", "nn.loss"),
    ("unlearnkit.nn", "backward", "nn.backward"),
    ("unlearnkit.optim", "optimizer_step", "optim.optimizer_step"),
    ("unlearnkit.curriculum", "apply_curriculum", "curriculum.apply_curriculum"),
    ("unlearnkit.lora", "attach_adapter", "lora.attach_adapter"),
    ("unlearnkit.metrics", "build_report", "metrics.build_report"),
    ("unlearnkit.metrics", "mia_success", "metrics.mia_success"),
    ("unlearnkit.report", "collect_runs", "report.collect_runs"),
    ("unlearnkit.report", "write_leaderboard", "report.write_leaderboard"),
]

# (module, class, method, span name). Model.forward delegates to
# forward_hidden, so wrapping forward_hidden counts every forward pass once.
METHODS = [
    ("unlearnkit.nn", "Model", "forward_hidden", "nn.forward"),
    ("unlearnkit.nn", "Model", "save", "nn.Model.save"),
    ("unlearnkit.nn", "Model", "load", "nn.Model.load"),
    ("unlearnkit.tensor", "Tensor", "backward", "tensor.Tensor.backward"),
    ("unlearnkit.unlearn", "RunRecorder", "snapshot", "unlearn.snapshot"),
    ("unlearnkit.manifest", "Manifest", "save", "manifest.save"),
]

# Spans that start a new run id: one training or unlearning run each.
RUN_BOUNDARIES = {"cli.ensure_checkpoint", "cli.execute_unlearn"}


def _first_arg_tag(args, kwargs):
    return args[0] if args and isinstance(args[0], str) else ""


def _command_tag(fn):
    return lambda args, kwargs: fn.__name__[len("cmd_"):]


class Tracer:
    def __init__(self):
        self.names: list[str] = [""]
        self.name_ids = {"": 0}
        for key, code in COLUMNS:
            setattr(self, key, array.array(code))
        self.stack = [-1]
        self.current_run = 0
        self.run_count = 0
        self.counters = {"unlearn.steps": 0, "unlearn.sample_steps": 0,
                         "nn.Model.save.bytes": 0, "nn.Model.load.bytes": 0,
                         "manifest.bytes_written": 0}
        self.restores: list[tuple[object, str, object]] = []

    def intern(self, text: str) -> int:
        if text not in self.name_ids:
            self.name_ids[text] = len(self.names)
            self.names.append(text)
        return self.name_ids[text]

    def wrap(self, fn, name: str, tag_of=None, on_exit=None):
        """Return ``fn`` wrapped in a span named ``name``."""
        name_id = self.intern(name)
        new_run = name in RUN_BOUNDARIES
        names, tags, parents, runs = self.name, self.tag, self.parent, self.run
        starts, ends, stack, intern = self.start, self.end, self.stack, self.intern

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            tags.append(intern(tag_of(args, kwargs)) if tag_of else 0)
            parents.append(stack[-1])
            if new_run:
                previous = self.current_run
                self.run_count += 1
                self.current_run = self.run_count
            runs.append(self.current_run)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                if new_run:
                    self.current_run = previous
                if on_exit is not None:
                    on_exit(args, kwargs)

        return functools.update_wrapper(traced, fn)

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "unlearnkit" and not mod_name.startswith("unlearnkit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.restores.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _add_bytes(self, counter: str, path_of):
        def on_exit(args, kwargs):
            try:
                self.counters[counter] += os.path.getsize(path_of(args))
            except OSError:
                pass
        return on_exit

    def install(self) -> None:
        on_exit = {
            "nn.Model.save": self._add_bytes("nn.Model.save.bytes", lambda a: a[1]),
            "nn.Model.load": self._add_bytes("nn.Model.load.bytes", lambda a: a[1]),
            "manifest.save": self._add_bytes("manifest.bytes_written", lambda a: a[0].path),
        }
        for mod_name, attr, name in FUNCTIONS:
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if not callable(fn):
                continue
            tag_of = None
            if name == "cli.command":
                tag_of = _command_tag(fn)
            elif name == "unlearn.unlearn":
                tag_of = _first_arg_tag
            self._replace_everywhere(fn, self.wrap(fn, name, tag_of))
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            raw = vars(cls).get(attr) if isinstance(cls, type) else None
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(raw.__func__, name, on_exit=on_exit.get(name)))
            else:
                wrapped = self.wrap(raw, name, on_exit=on_exit.get(name))
            self.restores.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
        self._count_steps()
        self._time_pool_waits()
        os.register_at_fork(after_in_child=self.restore)

    def _count_steps(self) -> None:
        """Every optimizer step reports its batch to RunRecorder.add_samples."""
        cls = getattr(sys.modules.get("unlearnkit.unlearn"), "RunRecorder", None)
        raw = vars(cls).get("add_samples") if isinstance(cls, type) else None
        if raw is None:
            return
        counters = self.counters

        def add_samples(recorder, model, num_samples, *rest):
            counters["unlearn.steps"] += 1
            counters["unlearn.sample_steps"] += num_samples
            return raw(recorder, model, num_samples, *rest)

        self.restores.append((cls, "add_samples", raw))
        cls.add_samples = add_samples

    def _time_pool_waits(self) -> None:
        """Span the parent's blocking ``future.result()`` calls in a parallel sweep."""
        cli = sys.modules.get("unlearnkit.cli")
        pool_cls = getattr(cli, "ProcessPoolExecutor", None)
        if not isinstance(pool_cls, type):
            return
        tracer = self

        class TracedPool(pool_cls):
            def submit(self, *args, **kwargs):
                future = super().submit(*args, **kwargs)
                future.result = tracer.wrap(future.result, "cli.pool.wait")
                return future

        self.restores.append((cli, "ProcessPoolExecutor", pool_cls))
        cli.ProcessPoolExecutor = TracedPool

    def restore(self) -> None:
        for owner, attr, original in reversed(self.restores):
            setattr(owner, attr, original)
        self.restores.clear()

    def dump(self, path: str) -> None:
        header = {"names": self.names, "counters": self.counters, "spans": len(self.start)}
        with open(path + ".bin", "wb") as fh:
            for key, _ in COLUMNS:
                getattr(self, key).tofile(fh)
        with open(path, "w") as fh:
            json.dump(header, fh)


def read_spans(path: str) -> tuple[dict, dict[str, array.array]]:
    """Load a spans file written by ``Tracer.dump``: (header, columns)."""
    with open(path) as fh:
        header = json.load(fh)
    columns = {}
    with open(path + ".bin", "rb") as fh:
        for key, code in COLUMNS:
            columns[key] = array.array(code)
            columns[key].fromfile(fh, header["spans"])
    return header, columns


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    import_span = tracer.wrap(__import__, "cli.import")
    import_span("unlearnkit.cli")
    cli = sys.modules["unlearnkit.cli"]
    tracer.install()
    try:
        return tracer.wrap(cli.main, "cli.main")(cli_args)
    finally:
        tracer.restore()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
