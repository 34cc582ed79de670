"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of skdlab at the binding each caller
resolves (``skdlab.training.backward``, not ``skdlab.network.backward``,
because training imports it by name).  Each call records a span: id,
parent id, name, start, end and the benchmark operation it belongs to.
Spans stay in memory and are written out when the benchmark ends; per-name
call counts, total time and self time (span minus its direct children) are
kept alongside so per-layer metrics need no second pass.

Nothing is patched until ``install()``; ``uninstall()`` restores every
original, so traced and untraced operations can alternate in one process.
"""
from __future__ import annotations

import functools
import json
import os
from pathlib import Path
from time import perf_counter

# stats entry: [calls, total_s, self_s, raised]
CALLS, TOTAL, SELF, RAISED = range(4)


def _train_teacher_name(args, kwargs):
    level = kwargs.get("label_level", args[3] if len(args) > 3 else "subclass")
    return f"train:teacher_{level}"


def _train_student_name(args, kwargs):
    cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
    mode = cfg.distill.mode if cfg is not None and cfg.distill is not None else "baseline"
    return f"train:student_{mode}"


def _targets():
    """(owner, attribute, span name or namer, skip when directly under) per boundary."""
    from skdlab import capacity, cli, experiment, losses, training

    io = ("save_dataset", "load_dataset", "save_hierarchy", "load_hierarchy")
    return [
        (training, "backward", "backward", None),
        (training, "optimizer_step", "optimizer_step", None),
        (training, "forward", "forward", None),
        # CE inside CombinedObjective is part of the combined span, not a top-level CE call
        (losses.CrossEntropyOnLabels, "loss_and_logit_grad", "ce", "combined"),
        (losses.CombinedObjective, "loss_and_logit_grad", "combined", None),
        (capacity, "blahut_arimoto", "ba", None),
        (capacity, "qsc_capacity", "closed_form", None),
        (capacity, "bac_capacity", "closed_form", None),
        (capacity, "label_bits_report", "bits_report", None),
        *[
            (module, name, span, None)
            for module in (experiment, cli)
            for name, span in (
                ("train_teacher", _train_teacher_name),
                ("train_student", _train_student_name),
                ("evaluate", "evaluate"),
                ("generate_synthetic", "generate"),
                ("split_dataset", "generate"),
            )
        ],
        (cli, "save_checkpoint", "checkpoint", None),
        (cli, "load_checkpoint", "checkpoint", None),
        *[(cli, name, "io", None) for name in io],
        (cli, "blahut_arimoto", "ba", None),
    ]


class Tracer:
    def __init__(self, op: int = 0, worker_dir: Path | None = None):
        """worker_dir, when given, is where forked seed workers write their spans."""
        self.op = op
        self.worker_dir = worker_dir
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}
        self._stack: list[list] = []  # open spans: [id, name, child_s]
        self._next_id = 1
        self._patched: list[tuple] = []
        self._pid = os.getpid()

    # -- spans ------------------------------------------------------------

    def _wrap(self, fn, name, skip_under):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip_under is not None and stack and stack[-1][1] == skip_under:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            frame = [self._next_id, label, 0.0]
            self._next_id += 1
            stack.append(frame)
            raised = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                self._close(frame, start, end, raised)

        return traced

    def _close(self, frame, start, end, raised):
        span_id, label, child_s = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        stat = self.stats.get(label)
        if stat is None:
            stat = self.stats[label] = [0, 0.0, 0.0, 0]
        stat[CALLS] += 1
        stat[TOTAL] += duration
        stat[SELF] += duration - child_s
        stat[RAISED] += raised
        self.spans.append((span_id, parent[0] if parent else 0, label, start, end, self.op))

    def _wrap_worker(self, fn):
        """Seed worker that, in a forked pool process, dumps its own spans per seed."""

        @functools.wraps(fn)
        def traced_worker(task):
            if os.getpid() == self._pid:
                return fn(task)
            self.spans, self.stats = [], {}  # drop what the fork copied from the parent
            try:
                return fn(task)
            finally:
                self.dump(self.worker_dir / f"worker-{os.getpid()}-{task[1]}.json")

        return traced_worker

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        from skdlab import experiment

        for owner, attr, name, skip_under in _targets():
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, skip_under))
        if self.worker_dir is not None:
            original = experiment._seed_worker
            self._patched.append((experiment, "_seed_worker", original))
            experiment._seed_worker = self._wrap_worker(original)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def take_stats(self) -> dict[str, list]:
        """Return the per-name stats gathered so far and start a fresh set."""
        stats, self.stats = self.stats, {}
        return stats

    def dump(self, path) -> None:
        payload = {"pid": os.getpid(), "stats": self.stats, "spans": self.spans}
        Path(path).write_text(json.dumps(payload))


def merge_stats(into: dict, other: dict) -> None:
    for name, stat in other.items():
        mine = into.setdefault(name, [0, 0.0, 0.0, 0])
        for k in range(4):
            mine[k] += stat[k]


def write_spans(path, parent_spans, child_dumps) -> None:
    """One JSON array per line: [pid, id, parent id, name, start, end, op]."""
    with open(path, "w") as fh:
        pid = os.getpid()
        for span in parent_spans:
            fh.write(json.dumps([pid, *span]) + "\n")
        for dump in child_dumps:
            for span in dump["spans"]:
                fh.write(json.dumps([dump["pid"], *span]) + "\n")
