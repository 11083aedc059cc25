"""Probes the benchmark installs around onlinekd's public functions.

Nothing here edits the program: each probe replaces a function at the site
where another module looks it up (``pipeline.next_batch``,
``ranker.mlp_forward``, ``LabelStore.open_snapshot``, ...) for the duration
of a ``with`` block and puts the original back afterwards.

``Tracer`` records spans. Every wrapped call becomes a span with a name,
start, end, parent span and step id. The parent comes from a thread-local
stack, so cells that run on pool threads nest under their own steps; a span
opened on a thread with an empty stack takes the innermost open span of the
thread that entered the tracer as its parent. Spans stay in memory until the
tracer is analysed or written out. The end-to-end runs install it with
``steps_only``: one timestamp per training step, at the stream draw of the
cell's own world, and one span per cell.

``ReferenceSampler`` times the reference kernel (``reference_s``) on a
thread of its own, in the benchmark process, whatever runs the cells; the
end-to-end timings are converted to units of that kernel.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from onlinekd import cli, labelstore, pipeline, ranker

clock = time.perf_counter

SAMPLE_EVERY_S = 0.04  # reference kernel period of ReferenceSampler

RUN_ONLINE = "pipeline.run_online"
STEP = "pipeline.step"
NEXT_BATCH = "datagen.next_batch"
APPEND = "labelstore.append"
OPEN_SNAPSHOT = "labelstore.open_snapshot"
LOOKUP_BATCH = "labelstore.lookup_batch"
STORE_SPANS = (APPEND, OPEN_SNAPSHOT, LOOKUP_BATCH)
EVAL_METRIC_SPANS = (
    "metrics.rank_auc",
    "metrics.rmse",
    "metrics.calibration_ratio",
    "metrics.draw_slates",
    "metrics.policy_metrics",
)
LAYERS = ("datagen", "nncore", "ranker", "labelstore", "metrics", "pipeline", "cli")

# (owner, attribute, span name). The owner is the module or class through
# which the caller looks the function up; the span name carries the layer
# that implements it, which is how self time is attributed. The steps and
# the store boundary have wrappers of their own in Tracer.installed.
SITES = (
    (cli, "load_config", "cli.load_config"),
    (cli, "build_report", "cli.build_report"),
    (cli, "run_experiment", "pipeline.run_experiment"),
    (cli, "write_metrics_csv", "pipeline.write_metrics_csv"),
    (pipeline, "init_world", "datagen.init_world"),
    (pipeline, "fork", "datagen.fork"),
    (pipeline, "true_task_value", "datagen.true_task_value"),
    (pipeline, "build_model", "ranker.build_model"),
    (pipeline, "compute_loss_and_grads", "ranker.compute_loss_and_grads"),
    (pipeline, "apply_gradients", "ranker.apply_gradients"),
    (pipeline, "model_forward", "ranker.model_forward"),
    (ranker, "mlp_forward", "nncore.mlp_forward"),
    (ranker, "mlp_backward", "nncore.mlp_backward"),
    (ranker, "optimizer_step", "nncore.optimizer_step"),
    (pipeline, "rank_auc", "metrics.rank_auc"),
    (pipeline, "rmse", "metrics.rmse"),
    (pipeline, "calibration_ratio", "metrics.calibration_ratio"),
    (pipeline, "draw_slates", "metrics.draw_slates"),
    (pipeline, "policy_metrics", "metrics.policy_metrics"),
)


@contextmanager
def _patched(replacements):
    """Install (owner, attr, function) replacements; restore on exit."""
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, fn in replacements:
            setattr(owner, attr, fn)
        yield
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def reference_s() -> float:
    """Seconds taken by a fixed pure-Python kernel (about 0.3 ms).

    The end-to-end timings are reported in units of this kernel, timed in
    the benchmark process while the program runs. The shared machine this
    benchmark was tuned on runs the same code up to twice as fast or slow
    from one second to the next, and the kernel slows with it, so the ratio
    holds still where raw seconds do not. The program is bound by
    interpreter and call overhead, which is what the kernel exercises. The
    switch interval is raised while it runs so that another thread cannot
    take the interpreter lock mid-kernel.
    """
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1.0)
    try:
        t0 = clock()
        acc = 0
        for i in range(3000):
            acc = (acc * 31 + i) % 1000003
        return clock() - t0
    finally:
        sys.setswitchinterval(interval)


class ReferenceSampler:
    """Times reference_s() every SAMPLE_EVERY_S on a thread of its own, for
    the duration of a ``with`` block, and converts intervals of that block
    into reference units.

    The kernel runs in the benchmark process, so the conversion does not
    depend on which thread or process runs a cell. While it runs it holds
    the interpreter lock, which stalls cells on threads of this process;
    that busy time is left out of every converted interval.
    """

    def __init__(self) -> None:
        self._samples: list[tuple[float, float]] = []  # (start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="reference-sampler")
        self.start = self.seconds = self._busy = np.zeros(0)

    def _sample(self) -> None:
        self._samples.append((clock(), reference_s()))

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            self._sample()

    def __enter__(self) -> "ReferenceSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()
        self.start, self.seconds = (np.asarray(c) for c in zip(*self._samples))
        self._busy = np.concatenate([[0.0], np.cumsum(self.seconds)])

    def busy_before(self, when: np.ndarray) -> np.ndarray:
        """Kernel seconds spent before each instant."""
        i = np.searchsorted(self.start, when, side="right")
        prev = np.maximum(i - 1, 0)
        partial = np.where(i > 0, np.clip(when - self.start[prev], 0.0, self.seconds[prev]), 0.0)
        return self._busy[prev] + partial

    def in_reference_units(self, starts, ends) -> np.ndarray:
        """Each interval, less the kernel's busy time inside it, divided by
        the reference sampled nearest to its middle."""
        starts, ends = np.asarray(starts, dtype=float), np.asarray(ends, dtype=float)
        busy = self.busy_before(ends) - self.busy_before(starts)
        edges = (self.start[1:] + self.start[:-1]) / 2
        nearest = self.seconds[np.searchsorted(edges, (starts + ends) / 2)]
        return (ends - starts - busy) / nearest

    def span_in_reference_units(self, start: float, end: float) -> float:
        """A long interval in reference units: cut where the nearest sample
        changes, each piece converted by its own nearest reference."""
        edges = (self.start[1:] + self.start[:-1]) / 2
        cuts = np.concatenate([[start], edges[(edges > start) & (edges < end)], [end]])
        return float(self.in_reference_units(cuts[:-1], cuts[1:]).sum())


# span record fields
_ID, _NAME, _START, _END, _PARENT, _CELL, _T = range(7)


def _thread_wchar() -> int:
    """Bytes this thread has passed to write() so far."""
    with open("/proc/thread-self/io", "rb") as f:
        for line in f:
            if line.startswith(b"wchar:"):
                return int(line.split()[1])
    raise OSError("no wchar line in /proc/thread-self/io")


class Tracer:
    """Span recorder plus the counters taken at the store boundary."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list[list]] = []
        self._cells: dict[int, int] = {}
        self._cell_ids = itertools.count()
        self._home_stack: list[list] = []
        self.lookup_rows = 0
        self.lookup_present = 0
        self.commit_bytes: list[int] = []
        self.last_snapshot_segments: dict[int, int] = {}

    # -- recording -------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = []
            local.cell = -1
            local.t = -1
            with self._lock:
                self._threads.append(local.spans)
        return local

    def _open(self, name: str, local, start: float | None = None) -> list:
        stack = local.stack
        if stack:
            parent = stack[-1][_ID]
        else:
            home = self._home_stack
            parent = home[-1][_ID] if home and home is not stack else -1
        span = [next(self._ids), name, 0.0, None, parent, local.cell, local.t]
        stack.append(span)
        local.spans.append(span)
        span[_START] = clock() if start is None else start
        return span

    @staticmethod
    def _close(span: list, local, now: float | None = None) -> None:
        """End span, and any span still open above it on this thread."""
        now = clock() if now is None else now
        stack = local.stack
        while stack:
            top = stack.pop()
            if top[_END] is None:
                top[_END] = now
            if top is span:
                break

    def span(self, name: str, fn):
        """Wrap fn so that each call records one span called name."""

        def traced(*args, **kwargs):
            local = self._state()
            span = self._open(name, local)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span, local)

        return traced

    def _run_online(self, fn):
        def traced(world, *args, **kwargs):
            local = self._state()
            cell = next(self._cell_ids)
            with self._lock:
                self._cells[id(world)] = cell
            local.cell, local.t = cell, -1
            span = self._open(RUN_ONLINE, local)
            try:
                return fn(world, *args, **kwargs)
            finally:
                self._close(span, local)  # also ends the cell's last step
                local.cell, local.t = -1, -1
                with self._lock:
                    del self._cells[id(world)]

        return traced

    def _next_batch(self, fn, steps_only: bool):
        def traced(world, n):
            local = self._state()
            cell = self._cells.get(id(world))
            if cell is not None:
                now = clock()
                stack = local.stack
                if stack and stack[-1][_NAME] == STEP:
                    self._close(stack[-1], local, now)
                local.cell, local.t = cell, world.t
                self._open(STEP, local, start=now)
            if steps_only:
                return fn(world, n)
            span = self._open(NEXT_BATCH, local)
            try:
                return fn(world, n)
            finally:
                self._close(span, local)

        return traced

    def _append(self, fn):
        def traced(writer, *args, **kwargs):
            local = self._state()
            before = _thread_wchar()
            span = self._open(APPEND, local)
            try:
                return fn(writer, *args, **kwargs)
            finally:
                self._close(span, local)
                self.commit_bytes.append(_thread_wchar() - before)

        return traced

    def _lookup_batch(self, fn):
        def traced(snapshot, example_ids):
            local = self._state()
            span = self._open(LOOKUP_BATCH, local)
            try:
                present, values = fn(snapshot, example_ids)
            finally:
                self._close(span, local)
            with self._lock:
                self.lookup_rows += int(present.shape[0])
                self.lookup_present += int(present.sum())
            return present, values

        return traced

    def _open_snapshot(self, fn):
        traced_open = self.span(OPEN_SNAPSHOT, fn)

        def traced(store):
            snap = traced_open(store)
            self.last_snapshot_segments[self._state().cell] = len(snap.segments)
            return snap

        return traced

    @contextmanager
    def installed(self, steps_only: bool = False):
        """For the duration of the block, record one span per cell and per
        training step and, unless steps_only, trace every site."""
        self._home_stack = self._state().stack
        replacements = [
            (pipeline, "run_online", self._run_online(pipeline.run_online)),
            (pipeline, "next_batch", self._next_batch(pipeline.next_batch, steps_only)),
        ]
        if not steps_only:
            replacements += [
                (owner, attr, self.span(name, getattr(owner, attr)))
                for owner, attr, name in SITES
            ]
            replacements += [
                (labelstore.LabelStore, "open_snapshot",
                 self._open_snapshot(labelstore.LabelStore.open_snapshot)),
                (labelstore.SegmentWriter, "append",
                 self._append(labelstore.SegmentWriter.append)),
                (labelstore.Snapshot, "lookup_batch",
                 self._lookup_batch(labelstore.Snapshot.lookup_batch)),
            ]
        with _patched(replacements):
            yield self

    @contextmanager
    def root(self, name: str):
        """Record the block itself as a span (the benchmark's call of cli.main)."""
        local = self._state()
        span = self._open(name, local)
        try:
            yield
        finally:
            self._close(span, local)

    # -- analysis --------------------------------------------------------

    def spans(self) -> "Spans":
        with self._lock:
            rows = [s for spans in self._threads for s in spans]
        return Spans.from_rows(rows)


@dataclass
class Spans:
    """Column view of recorded spans, with self time per span."""

    names: np.ndarray  # object array of span names
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray  # row index of the parent span, -1 for roots
    cell: np.ndarray
    t: np.ndarray
    self_s: np.ndarray

    @classmethod
    def from_rows(cls, rows: list[list]) -> "Spans":
        n = len(rows)
        ids = np.fromiter((r[_ID] for r in rows), dtype=np.int64, count=n)
        start = np.fromiter((r[_START] for r in rows), dtype=np.float64, count=n)
        end = np.fromiter((r[_END] for r in rows), dtype=np.float64, count=n)
        parent_id = np.fromiter((r[_PARENT] for r in rows), dtype=np.int64, count=n)
        row_of = np.full(int(ids.max()) + 1 if n else 1, -1, dtype=np.int64)
        row_of[ids] = np.arange(n)
        parent = np.where(parent_id >= 0, row_of[np.maximum(parent_id, 0)], -1)
        # Self time is duration minus the union of the children's intervals;
        # children on pool threads may overlap each other, so merge them.
        covered = np.zeros(n)
        order = np.lexsort((start, parent))
        cur_parent, cur_end = -1, -np.inf
        for p, s, e in zip(parent[order].tolist(), start[order].tolist(), end[order].tolist()):
            if p < 0:
                continue
            if p != cur_parent:
                cur_parent, cur_end = p, -np.inf
            lo = s if s > cur_end else cur_end
            if e > lo:
                covered[p] += e - lo
                cur_end = e
        return cls(
            names=np.array([r[_NAME] for r in rows], dtype=object),
            start=start,
            end=end,
            parent=parent,
            cell=np.fromiter((r[_CELL] for r in rows), dtype=np.int64, count=n),
            t=np.fromiter((r[_T] for r in rows), dtype=np.int64, count=n),
            self_s=(end - start) - covered,
        )

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def named(self, *names: str) -> np.ndarray:
        return np.isin(self.names, names)

    def layer_self_s(self) -> dict[str, float]:
        layer = np.array([n.partition(".")[0] for n in self.names], dtype=object)
        return {name: float(self.self_s[layer == name].sum()) for name in LAYERS}

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("name,start_s,end_s,parent,cell,step\n")
            t0 = float(self.start.min()) if self.start.size else 0.0
            for row in zip(
                self.names, self.start - t0, self.end - t0, self.parent, self.cell, self.t
            ):
                f.write("%s,%.9f,%.9f,%d,%d,%d\n" % row)
