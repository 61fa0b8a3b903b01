"""Self-time spans around the program's public entry points.

The benchmark traces the program from outside: :func:`instrument`
replaces a fixed list of entry points (:data:`ENTRY_POINTS`) with
wrappers that open a span, and restores the originals on exit.  Nothing
inside ``src/`` changes.

A span's *self* time is its duration minus the durations of the spans
it encloses, so the self times of all spans add up to the duration of
the outermost ones, never more.  Each span is booked under one layer
(:data:`LAYERS`); the benchmark reports whatever part of a pass no
listed layer claims as ``unattributed_s``.

Forked workers: a pool worker inherits the patched functions when it is
forked after :func:`instrument` took effect.  Each task it runs resets
the worker's books, runs under an ``exec.task`` span, and ships its
books back inside the task's result message.  The parent folds them
into the ``TrialRunner.run`` span that dispatched the task along the
critical path: the layer self times of the busiest worker become
children of that span (they are the part of its wall time the parent
waited on), while the per-span totals of every worker add up as work
done.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layers the benchmark reports self time for, named after the
#: program's packages (``repro.<layer>``).
LAYERS: Tuple[str, ...] = ("sim", "radio", "aff", "core", "flow", "exec", "obs")

#: Message key carrying a worker's books back to the parent.
REPORT_KEY = "perfbench"

_clock = time.perf_counter


def layer_of(module: Optional[str]) -> str:
    """Layer of a ``repro.<layer>...`` module; ``other`` for the rest."""
    parts = (module or "").split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


class Tracer:
    """Span stack, per-layer self time and per-span totals.

    ``spans[name]`` is ``[inclusive_s, self_s, calls]``.  A span entered
    while the innermost open span has the same name (``emit`` calling
    ``write``) is folded into it.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.stack: List[List[Any]] = []
        self.layer_self: Dict[str, float] = {}
        self.spans: Dict[str, List[float]] = {}
        #: one entry per ``TrialRunner.run`` call: wall, task durations,
        #: worker count, failed tasks, pool respawns
        self.runs: List[Dict[str, Any]] = []
        self.worker_reports: List[Tuple[Any, Dict[str, Any]]] = []
        self._callbacks: Dict[str, Tuple[str, str]] = {}

    def reset(self) -> None:
        """Forget every span (the stack list object is kept: wrappers hold it)."""
        self.stack.clear()
        self.layer_self.clear()
        self.spans.clear()
        self.runs.clear()
        self.worker_reports.clear()

    # -- spans ---------------------------------------------------------
    def _close(self, frame: List[Any], layer: str, seconds: float) -> None:
        self.stack.pop()
        own = seconds - frame[1]
        self.layer_self[layer] = self.layer_self.get(layer, 0.0) + own
        stats = self.spans.get(frame[0])
        if stats is None:
            stats = self.spans[frame[0]] = [0.0, 0.0, 0]
        stats[0] += seconds
        stats[1] += own
        stats[2] += 1
        if self.stack:
            self.stack[-1][1] += seconds

    def wrap(self, name: str, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` under a span called ``name`` booked to ``layer``."""
        stack = self.stack
        close = self._close

        def traced(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, layer, _clock() - start)

        return functools.wraps(fn)(traced)

    def callback(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        """A scheduled event callback under its defining module's layer.

        Lighter than :meth:`wrap` (no ``functools.wraps``), because it runs
        once per scheduled event.
        """
        module = getattr(callback, "__module__", None) or ""
        named = self._callbacks.get(module)
        if named is None:
            layer = layer_of(module)
            named = self._callbacks[module] = (layer + ".dispatch", layer)
        name, layer = named
        stack = self.stack
        close = self._close

        def dispatched(*args: Any) -> Any:
            frame = [name, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                return callback(*args)
            finally:
                close(frame, layer, _clock() - start)

        return dispatched

    # -- worker books ----------------------------------------------------
    def export(self) -> Dict[str, Any]:
        return {
            "wall": self.spans.get("exec.task", [0.0])[0],
            "layers": dict(self.layer_self),
            "spans": {name: list(stats) for name, stats in self.spans.items()},
        }

    def fold_workers(self, reports: List[Tuple[Any, Dict[str, Any]]]) -> float:
        """Fold worker books into this process's; returns the critical wall.

        Every worker's span totals are added.  Only the busiest worker's
        layer self times are added to the layers, since the wall time
        of the dispatching span covers that worker's tasks alone.
        """
        per_worker: Dict[Any, Dict[str, Any]] = {}
        for worker, report in reports:
            books = per_worker.setdefault(worker, {"wall": 0.0, "layers": {}})
            books["wall"] += report["wall"]
            for layer, seconds in report["layers"].items():
                books["layers"][layer] = books["layers"].get(layer, 0.0) + seconds
            for name, (inclusive, own, calls) in report["spans"].items():
                stats = self.spans.setdefault(name, [0.0, 0.0, 0])
                stats[0] += inclusive
                stats[1] += own
                stats[2] += calls
        if not per_worker:
            return 0.0
        critical = max(per_worker.values(), key=lambda books: books["wall"])
        for layer, seconds in critical["layers"].items():
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + seconds
        return critical["wall"]

    # -- report helpers --------------------------------------------------
    def inclusive(self, name: str) -> float:
        return self.spans.get(name, [0.0, 0.0, 0])[0]

    def own(self, name: str) -> float:
        return self.spans.get(name, [0.0, 0.0, 0])[1]

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, [0.0, 0.0, 0])[2])


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
#: ``(module, owner, attribute, span name, layer)``; ``owner`` is a class
#: name or None for a module-level function.  Functions are patched in
#: every loaded ``repro`` module that holds them, so call sites that
#: imported them by name see the wrapper too.
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, str, str], ...] = (
    ("repro.sim.engine", "Simulator", "run", "sim.run", "sim"),
    ("repro.radio.medium", "BroadcastMedium", "transmit", "radio.transmit", "radio"),
    ("repro.radio.radio", "Radio", "send", "radio.send", "radio"),
    ("repro.aff.driver", "AffDriver", "send", "aff.send", "aff"),
    ("repro.aff.wire", "FragmentCodec", "decode", "aff.decode", "aff"),
    ("repro.aff.reassembler", "Reassembler", "accept", "aff.reassembly", "aff"),
    ("repro.core.identifiers", "UniformSelector", "select", "core.select", "core"),
    ("repro.core.identifiers", "ListeningSelector", "select", "core.select", "core"),
    ("repro.core.identifiers", "OracleSelector", "select", "core.select", "core"),
    ("repro.core.identifiers", "ListeningSelector", "observe", "core.observe", "core"),
    ("repro.flow.hybrid", None, "frame_window", "core.replay", "core"),
    ("repro.flow.sampler", None, "sample_window", "flow.sample", "flow"),
    ("repro.flow.sampler", None, "window_plan", "flow.plan", "flow"),
    ("repro.flow.shard", None, "partition_plan", "flow.partition", "flow"),
    ("repro.flow.shard", None, "merge_range_values", "flow.merge", "flow"),
    ("repro.obs.envelope", "TraceWriter", "write", "obs.write", "obs"),
    ("repro.obs.envelope", "TraceWriter", "emit", "obs.write", "obs"),
    ("repro.obs.envelope", "TraceWriter", "close", "obs.write", "obs"),
    ("repro.obs.merge", None, "merge_shards", "obs.merge", "obs"),
    ("repro.obs.forensics", "TraceForensics", "from_trace", "obs.read", "obs"),
    ("repro.obs.metrics", None, "write_snapshot", "obs.snapshot", "obs"),
    ("repro.obs.metrics", None, "read_snapshot", "obs.snapshot", "obs"),
)


def _patch_function(module_name: str, attr: str, replacement: Any,
                    undo: List[Tuple[Any, str, Any]]) -> None:
    original = getattr(sys.modules[module_name], attr)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro" or module is None:
            continue
        if module.__dict__.get(attr) is original:
            undo.append((module, attr, original))
            setattr(module, attr, replacement)


def _patch_attribute(owner: Any, attr: str, replacement: Any,
                     undo: List[Tuple[Any, str, Any]]) -> None:
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, replacement)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every entry point to record into ``tracer``; undo on exit.

    Import the workload's modules first: only loaded modules are patched.
    """
    import importlib

    undo: List[Tuple[Any, str, Any]] = []
    try:
        for module_name, owner_name, attr, name, layer in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if owner_name is None:
                original = getattr(module, attr)
                _patch_function(module_name, attr, tracer.wrap(name, layer, original), undo)
            else:
                owner = getattr(module, owner_name)
                original = getattr(owner, attr)
                _patch_attribute(owner, attr, tracer.wrap(name, layer, original), undo)
        _patch_scheduler(tracer, undo)
        _patch_exec(tracer, undo)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def _patch_scheduler(tracer: Tracer, undo: List[Tuple[Any, str, Any]]) -> None:
    """``Simulator.schedule``: its own span, plus a span per callback."""
    from repro.sim.engine import Simulator

    schedule = Simulator.schedule
    wrap_callback = tracer.callback

    def scheduling(sim: Any, delay: float, callback: Callable[..., Any], *args: Any) -> Any:
        return schedule(sim, delay, wrap_callback(callback), *args)

    _patch_attribute(
        Simulator,
        "schedule",
        tracer.wrap("sim.schedule", "sim", functools.wraps(schedule)(scheduling)),
        undo,
    )


def _patch_exec(tracer: Tracer, undo: List[Tuple[Any, str, Any]]) -> None:
    """``TrialRunner.run``, task execution, and the worker-books return path."""
    from repro.exec import pool as pool_module
    from repro.exec import runner as runner_module

    execute_call = runner_module.execute_call
    in_process = tracer.wrap("exec.task", "exec", execute_call)

    def traced_execute_call(*args: Any, **kwargs: Any) -> Dict[str, Any]:
        if os.getpid() == tracer.pid:
            return in_process(*args, **kwargs)
        # Forked worker: fresh books per task, shipped in the message.
        tracer.reset()
        message = in_process(*args, **kwargs)
        message[REPORT_KEY] = tracer.export()
        return message

    traced_execute_call = functools.wraps(execute_call)(traced_execute_call)
    _patch_function("repro.exec.runner", "execute_call", traced_execute_call, undo)

    run_specs = pool_module.WorkerPool.run_specs

    def collecting_run_specs(pool: Any, *args: Any, **kwargs: Any) -> Any:
        messages, unpooled = run_specs(pool, *args, **kwargs)
        for message in messages.values():
            report = message.pop(REPORT_KEY, None)
            if report is not None:
                tracer.worker_reports.append((message.get("worker"), report))
        return messages, unpooled

    _patch_attribute(
        pool_module.WorkerPool,
        "run_specs",
        functools.wraps(run_specs)(collecting_run_specs),
        undo,
    )

    run = runner_module.TrialRunner.run
    stack = tracer.stack

    def traced_run(runner: Any, specs: Any) -> Any:
        frame = ["exec.run", 0.0]
        stack.append(frame)
        mark = len(tracer.worker_reports)
        outcomes: List[Any] = []
        start = _clock()
        try:
            outcomes = run(runner, specs)
            return outcomes
        finally:
            seconds = _clock() - start
            frame[1] += tracer.fold_workers(tracer.worker_reports[mark:])
            del tracer.worker_reports[mark:]
            tracer._close(frame, "exec", seconds)
            tracer.runs.append(
                {
                    "wall": seconds,
                    "workers": runner.workers,
                    "tasks": [o.duration for o in outcomes if not o.cached],
                    "failed": sum(1 for o in outcomes if not o.ok),
                    "respawns": runner.last_telemetry.pool_respawns,
                }
            )

    _patch_attribute(
        runner_module.TrialRunner, "run", functools.wraps(run)(traced_run), undo
    )
