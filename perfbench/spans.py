"""Span tracing of `men` from outside the package.

A `Tracer` replaces public functions with timing wrappers on the module
attribute through which their caller looks them up (for example
`men.pipeline.solve_column`, which `fit` calls, or `men.cli.save_model`,
which the CLI calls). Nothing inside `men` changes; removing the wrappers
restores the original functions.

Every span carries a name, start, end, parent span and operation id. The
benchmark runs one operation at a time (a closed loop). Parents are
tracked per thread: a span opened on a thread with no open span of its
own (a worker of an `evaluate` thread pool) takes as parent the innermost
span open on the thread that started the operation, which is blocked
waiting for its workers at that moment. Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# Span name for each wrapped attribute, keyed by "module:attribute". A
# function imported by name into several modules is wrapped in each, since
# each caller looks it up in its own module.
WRAPPED = {
    "men.pipeline:fit": "pipeline.fit",
    "men.evaluation:fit": "pipeline.fit",
    "men.cli:fit": "pipeline.fit",
    "men.pipeline:project": "pipeline.project",
    "men.evaluation:project": "pipeline.project",
    "men.cli:project": "pipeline.project",
    "men.pipeline:pca_preprocess": "pipeline.pca_preprocess",
    "men.pipeline:build_patch": "alignment.build_patch",
    "men.pipeline:accumulate_alignment": "alignment.accumulate_alignment",
    "men.pipeline:build_indicator": "indicator.build_indicator",
    "men.pipeline:build_a": "transform.build_a",
    "men.pipeline:spectral_factor": "transform.spectral_factor",
    "men.pipeline:build_augmented": "transform.build_augmented",
    "men.pipeline:solve_column": "lars.solve_column",
    "men.lars:extend_active": "lars.extend_active",
    "men.lars:lars_step": "lars.lars_step",
    "men.lars:direction": "lars.direction",
    "men.lars:step_length": "lars.step_search",
    "men.lars:drop_length": "lars.step_search",
    "men.lars:correlations": "lars.correlations",
    "men.lars:gram_update": "lars.gram_update",
    "men.lars:gram_downdate": "lars.gram_downdate",
    "men.evaluation:evaluate": "evaluation.evaluate",
    "men.evaluation:split_indices": "evaluation.split_indices",
    "men.evaluation:nn_classify": "evaluation.nn_classify",
    "men.cli:export_paths": "evaluation.export_paths",
    "men.cli:save_model": "model_io.save_model",
    "men.cli:load_model": "model_io.load_model",
    "men.cli:ingest": "datasets.ingest",
    "men.cli:main": "cli.main",
}


def _spectral_counts(info, args, factor):
    info["retained_rows"] = factor.root.shape[0]
    info["dropped_eigs"] = factor.n_dropped


def _augmented_bytes(info, args, problem):
    rows, cols = problem.xstar.shape  # (n' + p) x p float64
    info["augmented_bytes"] = rows * cols * 8


def _path_counts(info, args, result):
    _, path = result
    info["breakpoints"] = len(path.breakpoints)
    info["drops"] = sum(1 for bp in path.breakpoints if bp.event == "drop")
    # each breakpoint stores a dense float64 coefficient vector
    info["breakpoint_bytes"] = len(path.breakpoints) * path.n_variables * 8


def _export_bytes(info, args, paths):
    info["bytes"] = sum(os.path.getsize(p) for p in paths)


def _saved_bytes(info, args, result):
    info["bytes"] = os.path.getsize(args[1])


def _ingested_bytes(info, args, result):
    info["bytes"] = os.path.getsize(args[0])


# Counts read at a span's boundary from its arguments and result. Byte
# counts derived from array shapes are labelled "computed"; the others are
# file sizes on disk.
RECORDERS = {
    "transform.spectral_factor": _spectral_counts,
    "transform.build_augmented": _augmented_bytes,
    "lars.solve_column": _path_counts,
    "evaluation.export_paths": _export_bytes,
    "model_io.save_model": _saved_bytes,
    "datasets.ingest": _ingested_bytes,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    thread: int
    info: dict = field(default_factory=dict)


class Tracer:
    """Holds the spans of one run and installs the timing wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._op = -1
        self._op_thread: int | None = None

    def _open(self, name: str) -> int:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            outer = self._stacks.get(self._op_thread)
            parent = outer[-1] if outer and tid != self._op_thread else None
        start = time.perf_counter()
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, start, start, parent, self._op, tid))
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def _wrapper(self, name, original):
        record = RECORDERS.get(name)

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                self.spans[index].info["raised"] = type(exc).__name__
                raise
            finally:
                self._close(index)
            if record is not None:
                record(self.spans[index].info, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, modules):
        """Put the wrappers in place for the body, then restore the originals.

        `modules` maps a module name ("men.lars") to the imported module.
        """
        saved = []
        try:
            for key, name in WRAPPED.items():
                module_name, attr = key.split(":")
                module = modules[module_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def operation(self, op: int):
        """Attribute the spans opened in the body to operation `op`."""
        self._op = op
        self._op_thread = threading.get_ident()
        try:
            yield
        finally:
            self._op = -1
            self._op_thread = None

    def to_json(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "thread": s.thread,
                **s.info,
            }
            for s in self.spans
        ]


def _union_length(intervals, low: float, high: float) -> float:
    total = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def _children(spans: list[Span]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            out.setdefault(s.parent, []).append(i)
    return out


def self_times(spans: list[Span], children: dict[int, list[int]]) -> list[float]:
    """Each span's duration minus the part of it that child spans cover.

    Children on worker threads may overlap each other; their union is
    subtracted once.
    """
    return [
        (s.end - s.start)
        - _union_length(
            [(spans[c].start, spans[c].end) for c in children.get(i, ())], s.start, s.end
        )
        for i, s in enumerate(spans)
    ]


def _repeat_busy(calls: list[Span]) -> float:
    """Busy time of the repeats one thread ran: each repeat lasts from its
    `split_indices` call to the last call before the next one."""
    busy = 0.0
    first = last = None
    for c in sorted(calls, key=lambda c: c.start):
        if c.name == "evaluation.split_indices":
            if first is not None:
                busy += last - first
            first = c.start
        if first is not None:
            last = c.end
    if first is not None:
        busy += last - first
    return busy


def parallel_efficiency(spans, children, indices, threads: int) -> float:
    """Per-repeat busy time summed over the `evaluate` spans among
    `indices`, divided by threads x their wall time; 0 without one."""
    busy = 0.0
    wall = 0.0
    for i in indices:
        s = spans[i]
        if s.name != "evaluation.evaluate":
            continue
        wall += s.end - s.start
        by_thread: dict[int, list[Span]] = {}
        for c in children.get(i, ()):
            by_thread.setdefault(spans[c].thread, []).append(spans[c])
        busy += sum(_repeat_busy(calls) for calls in by_thread.values())
    return busy / (threads * wall) if wall > 0 else 0.0


# Layer spans reported as total self time ("<span>.self_s") per operation.
SELF_TIMED = [
    "pipeline.fit",
    "pipeline.project",
    "pipeline.pca_preprocess",
    "alignment.build_patch",
    "alignment.accumulate_alignment",
    "indicator.build_indicator",
    "transform.build_a",
    "transform.spectral_factor",
    "transform.build_augmented",
    "lars.solve_column",
    "lars.extend_active",
    "lars.direction",
    "lars.step_search",
    "lars.correlations",
    "lars.lars_step",
    "evaluation.evaluate",
    "evaluation.split_indices",
    "evaluation.nn_classify",
    "evaluation.export_paths",
    "model_io.save_model",
    "model_io.load_model",
    "datasets.ingest",
    "cli.main",
]
# Layer spans reported as call counts ("<span>.calls") per operation.
COUNTED = [
    "pipeline.fit",
    "alignment.build_patch",
    "transform.build_augmented",
    "lars.solve_column",
    "lars.extend_active",
    "lars.correlations",
    "lars.lars_step",
    "lars.gram_update",
    "lars.gram_downdate",
    "evaluation.nn_classify",
]
# (metric, span, recorded key, unit): recorded counts summed per operation.
RECORDED = [
    ("transform.retained_rows", "transform.spectral_factor", "retained_rows", "count"),
    ("transform.dropped_eigs", "transform.spectral_factor", "dropped_eigs", "count"),
    ("transform.augmented_bytes", "transform.build_augmented", "augmented_bytes", "bytes-computed"),
    ("lars.breakpoints", "lars.solve_column", "breakpoints", "count"),
    ("lars.drops", "lars.solve_column", "drops", "count"),
    ("lars.breakpoint_bytes", "lars.solve_column", "breakpoint_bytes", "bytes-computed"),
    ("evaluation.export_paths.bytes", "evaluation.export_paths", "bytes", "bytes"),
    ("model_io.save_model.bytes", "model_io.save_model", "bytes", "bytes"),
    ("datasets.ingest.bytes", "datasets.ingest", "bytes", "bytes"),
]


def layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    units = {f"{name}.self_s": "s" for name in SELF_TIMED}
    units.update({f"{name}.calls": "count" for name in COUNTED})
    units.update({metric: unit for metric, _, _, unit in RECORDED})
    # Gram update/downdate calls that raised and fell back to re-factorization
    units["lars.gram_refactor"] = "count"
    units["evaluation.parallel_efficiency"] = "fraction"
    return units


def layer_metrics(spans: list[Span], threads: int) -> dict[int, dict[str, float]]:
    """Per-layer metrics of every traced operation, keyed by operation id."""
    children = _children(spans)
    selfs = self_times(spans, children)
    by_op: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.op >= 0:
            by_op.setdefault(s.op, []).append(i)
    result = {}
    for op, indices in by_op.items():
        out = dict.fromkeys(layer_units(), 0)
        for i in indices:
            s = spans[i]
            if f"{s.name}.self_s" in out:
                out[f"{s.name}.self_s"] += selfs[i]
            if f"{s.name}.calls" in out:
                out[f"{s.name}.calls"] += 1
            if s.name in ("lars.gram_update", "lars.gram_downdate") and s.info.get(
                "raised"
            ) == "NumericalError":
                out["lars.gram_refactor"] += 1
            for metric, name, recorded, _ in RECORDED:
                if s.name == name:
                    out[metric] += s.info.get(recorded, 0)
        out["evaluation.parallel_efficiency"] = parallel_efficiency(
            spans, children, indices, threads
        )
        result[op] = out
    return result
