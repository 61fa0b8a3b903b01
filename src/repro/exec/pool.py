"""Persistent prefork worker pool.

:class:`TrialRunner` forks a fresh set of workers for every
:meth:`~repro.exec.runner.TrialRunner.run` call, which is the right
trade for a handful of long trials but pure overhead for
many-small-trial workloads (``repro report`` runs dozens of short
sweeps back to back).  :class:`WorkerPool` keeps a fixed set of forked
workers alive across runs and feeds them tasks over pipes.

Because pool workers are forked *before* the tasks exist, they cannot
inherit trial closures by memory the way the per-run fork path does.
Tasks therefore cross the pipe **by name**: the trial function as a
``module:qualname`` reference and its kwargs in an extended canonical
JSON encoding (:func:`encode_pool_value`) that also carries
module-level callables and dataclasses registered with
:func:`register_pool_dataclass`.  Specs that cannot be encoded that
way — lambdas, closures, exotic kwargs — are returned to the runner,
which falls back to its classic fork path for them (and counts them in
telemetry as ``pool_fallbacks``).  Either way the result transport is
the same canonical JSON, so pooled, forked, and serial execution stay
bit-identical.

Crash handling mirrors the per-run path: a worker that dies mid-batch
surfaces as per-trial ``WorkerCrashed`` failures for its unreported
tasks, and the pool forks a replacement before the next batch
(``pool_respawns`` in telemetry).  Use the pool as a context manager —
``close()`` sends every worker a shutdown frame and reaps it.

This module is one of the two allowed process-management sites in the
tree (lint rule DET007/DET006 — see :mod:`repro.analysis.determinism`).
"""

from __future__ import annotations

import importlib
import json
import os
import selectors
import struct
import time
from dataclasses import fields, is_dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Type

from ..analysis.sanitizer.runtime import active_sanitizer
from .runner import TrialSpec, encode_float, execute_call

__all__ = [
    "NotPoolable",
    "WorkerPool",
    "decode_pool_value",
    "encode_pool_value",
    "register_pool_dataclass",
]


class NotPoolable(Exception):
    """A spec cannot cross the pool's by-name task transport."""


# ----------------------------------------------------------------------
# Task transport: canonical JSON + by-name callables and dataclasses
# ----------------------------------------------------------------------
#: Dataclasses allowed to cross the task pipe, keyed by module:qualname.
_POOL_DATACLASSES: Dict[str, Type[Any]] = {}


def register_pool_dataclass(cls: Type[Any]) -> Type[Any]:
    """Allow instances of dataclass ``cls`` in pool task kwargs.

    Registration is an explicit opt-in (usable as a class decorator):
    the pool reconstructs instances by calling ``cls(**fields)`` in the
    worker, so only dataclasses whose constructor round-trips their
    field dict should be registered.  Import of the defining module in
    the worker happens through the same reference, so registration at
    module scope makes the class available on both ends.
    """
    if not (is_dataclass(cls) and isinstance(cls, type)):
        raise TypeError(f"{cls!r} is not a dataclass type")
    _POOL_DATACLASSES[_ref_of(cls)] = cls
    return cls


def _ref_of(obj: Any) -> str:
    return f"{obj.__module__}:{obj.__qualname__}"


def _resolve_ref(ref: str) -> Any:
    module_name, _, qualname = ref.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def encode_pool_value(value: Any) -> Any:
    """Encode a task kwarg for the pool pipe; raise :class:`NotPoolable`.

    Extends the result transport's encoding (non-finite floats as
    tagged dicts) with two *input-side* forms: module-level callables
    as ``{"__callable__": ref}`` and registered dataclass instances as
    ``{"__dataclass__": ref, "fields": {...}}``.  Anything that does
    not round-trip exactly — unresolvable callables, unregistered
    dataclasses, arbitrary objects — is rejected rather than
    approximated: a silently lossy transport would break the
    determinism contract between pooled and unpooled runs.
    """
    if value is None or isinstance(value, (str, int, bool)):
        return value
    if isinstance(value, float):
        return encode_float(value)
    if isinstance(value, (list, tuple)):
        return [encode_pool_value(item) for item in value]
    if isinstance(value, dict):
        out: Dict[str, Any] = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise NotPoolable(f"non-string dict key {key!r}")
            out[key] = encode_pool_value(item)
        return out
    if is_dataclass(value) and not isinstance(value, type):
        ref = _ref_of(type(value))
        if ref not in _POOL_DATACLASSES:
            raise NotPoolable(
                f"dataclass {ref} not registered with register_pool_dataclass"
            )
        return {
            "__dataclass__": ref,
            "fields": {
                f.name: encode_pool_value(getattr(value, f.name))
                for f in fields(value)
            },
        }
    if callable(value):
        ref = _callable_ref(value)
        if ref is None:
            raise NotPoolable(f"callable {value!r} is not importable by name")
        return {"__callable__": ref}
    raise NotPoolable(f"cannot transport {type(value).__name__} value {value!r}")


def _callable_ref(fn: Any) -> Optional[str]:
    """``module:qualname`` if importing it yields ``fn`` itself, else None."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        return None  # lambdas and locals render as <lambda> / <locals>
    ref = f"{module}:{qualname}"
    try:
        resolved = _resolve_ref(ref)
    except Exception:
        return None
    return ref if resolved is fn else None


def decode_pool_value(value: Any) -> Any:
    """Invert :func:`encode_pool_value` (runs in the worker)."""
    if isinstance(value, dict):
        if set(value) == {"__float__"}:
            return float(value["__float__"])
        if set(value) == {"__callable__"}:
            return _resolve_ref(value["__callable__"])
        if set(value) == {"__dataclass__", "fields"}:
            cls = _POOL_DATACLASSES.get(value["__dataclass__"])
            if cls is None:
                cls = _resolve_ref(value["__dataclass__"])
            return cls(
                **{
                    key: decode_pool_value(item)
                    for key, item in value["fields"].items()
                }
            )
        return {key: decode_pool_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_pool_value(item) for item in value]
    return value


def spec_payload(
    spec: TrialSpec,
    timeout: Optional[float],
    retries: int,
    profile: bool = False,
    metrics: bool = False,
) -> Optional[Dict[str, Any]]:
    """The task frame for ``spec``, or None if it cannot be pooled."""
    fn_ref = _callable_ref(spec.fn)
    if fn_ref is None:
        return None
    try:
        kwargs = {
            key: encode_pool_value(item) for key, item in dict(spec.kwargs).items()
        }
    except NotPoolable:
        return None
    payload: Dict[str, Any] = {
        "op": "task",
        "fn": fn_ref,
        "kwargs": kwargs,
        "timeout": timeout,
        "retries": retries,
    }
    if profile:
        payload["profile"] = True
    if metrics:
        payload["metrics"] = True
    return payload


# ----------------------------------------------------------------------
# Frames: 4-byte big-endian length prefix + UTF-8 JSON, both directions
# ----------------------------------------------------------------------
def _frame(message: Mapping[str, Any]) -> bytes:
    data = json.dumps(message, allow_nan=False).encode("utf-8")
    return struct.pack(">I", len(data)) + data


def _worker_main(reader_fd: int, writer_fd: int, worker_id: int) -> None:
    """Forked worker loop: read task frames, write result frames, forever.

    Runs on the child's main thread, so SIGALRM deadlines work here
    exactly as they do in per-run forked workers.
    """
    san = active_sanitizer()
    if san is not None:
        # This IS the fork point for a pool worker: drop observations
        # inherited from the parent and snapshot module state here, so
        # DetSan's fork-state differ compares against what the worker
        # actually started with (see runtime.DetSanContext.after_fork).
        san.after_fork()
    buffer = b""
    with os.fdopen(reader_fd, "rb", buffering=0) as inp, os.fdopen(
        writer_fd, "wb", buffering=0
    ) as out:
        while True:
            while len(buffer) < 4 or len(buffer) < 4 + struct.unpack(
                ">I", buffer[:4]
            )[0]:
                chunk = inp.read(1 << 16)
                if not chunk:
                    return  # parent closed the task pipe: shut down
                buffer += chunk
            size = struct.unpack(">I", buffer[:4])[0]
            task = json.loads(buffer[4 : 4 + size].decode("utf-8"))
            buffer = buffer[4 + size :]
            if task.get("op") == "shutdown":
                return
            index = task["index"]
            try:
                fn = _resolve_ref(task["fn"])
                kwargs = {
                    key: decode_pool_value(item)
                    for key, item in task["kwargs"].items()
                }
            except Exception as exc:
                message: Dict[str, Any] = {
                    "ok": False,
                    "error_type": type(exc).__name__,
                    "message": f"task transport failed in worker: {exc}",
                    "traceback": "",
                    "duration": 0.0,
                    "attempts": 0,
                }
            else:
                message = execute_call(
                    fn,
                    kwargs,
                    task.get("timeout"),
                    int(task.get("retries", 0)),
                    profile=bool(task.get("profile", False)),
                    metrics=bool(task.get("metrics", False)),
                )
            message["index"] = index
            message["worker"] = worker_id
            out.write(_frame(message))


class _Worker:
    """Parent-side handle for one live pool worker."""

    __slots__ = ("pid", "task_fd", "result_fd", "tasks_done")

    def __init__(self, pid: int, task_fd: int, result_fd: int) -> None:
        self.pid = pid
        self.task_fd = task_fd
        self.result_fd = result_fd
        self.tasks_done = 0

    def alive(self) -> bool:
        try:
            pid, _ = os.waitpid(self.pid, os.WNOHANG)
        except ChildProcessError:
            return False
        return pid == 0

    def reap(self) -> None:
        for fd in (self.task_fd, self.result_fd):
            try:
                os.close(fd)
            except OSError:
                pass
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:
            pass


class WorkerPool:
    """A fixed-size set of long-lived forked trial workers.

    Workers are forked lazily on first use and reused across
    :meth:`run_specs` calls; ``runs_served`` / ``tasks_done`` /
    ``respawns`` count the amortization.  The pool is single-client and
    not thread-safe — one :class:`~repro.exec.runner.TrialRunner` drives
    it at a time.

    >>> from repro.exec import TrialRunner, TrialSpec  # doctest: +SKIP
    >>> with WorkerPool(workers=4) as pool:            # doctest: +SKIP
    ...     runner = TrialRunner(workers=4, pool=pool)
    ...     runner.run(specs_a)
    ...     runner.run(specs_b)   # same workers, no new forks
    """

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only repo
            raise RuntimeError("WorkerPool requires os.fork")
        self.workers = workers
        self._slots: List[Optional[_Worker]] = [None] * workers
        self._closed = False
        #: lifetime counters (telemetry reads these)
        self.forks = 0
        self.respawns = 0
        self.runs_served = 0
        self.tasks_done = 0
        self._unclaimed_respawns = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, slot: int) -> _Worker:
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # worker child
            status = 0
            try:
                os.close(task_w)
                os.close(result_r)
                # Drop inherited sibling pipes: holding a sibling's
                # result-pipe write end would mask its EOF when it
                # crashes, breaking the parent's crash detection.
                for sibling in self._slots:
                    if sibling is not None:
                        for fd in (sibling.task_fd, sibling.result_fd):
                            try:
                                os.close(fd)
                            except OSError:
                                pass
                _worker_main(task_r, result_w, slot)
            except BaseException:
                status = 1
            finally:
                os._exit(status)
        os.close(task_r)
        os.close(result_w)
        os.set_blocking(task_w, False)  # parent writes are multiplexed
        worker = _Worker(pid, task_w, result_r)
        self._slots[slot] = worker
        self.forks += 1
        return worker

    def _ensure(self, slot: int) -> _Worker:
        """The live worker for ``slot``, respawning a dead/missing one."""
        worker = self._slots[slot]
        if worker is not None and worker.alive():
            return worker
        if worker is not None:
            worker.reap()
            self._slots[slot] = None
            self.respawns += 1
            self._unclaimed_respawns += 1
        return self._spawn(slot)

    def healthy_workers(self) -> int:
        """How many slots currently hold a live worker (no respawning)."""
        return sum(
            1 for worker in self._slots if worker is not None and worker.alive()
        )

    def take_respawns(self) -> int:
        """Respawns since the last call (runner telemetry drains this)."""
        count = self._unclaimed_respawns
        self._unclaimed_respawns = 0
        return count

    def close(self) -> None:
        """Shut every worker down cleanly and reap it."""
        if self._closed:
            return
        self._closed = True
        shutdown = _frame({"op": "shutdown"})
        for worker in self._slots:
            if worker is None:
                continue
            try:
                os.set_blocking(worker.task_fd, True)
                os.write(worker.task_fd, shutdown)
            except OSError:
                pass  # already dead; reap below
            worker.reap()
        self._slots = [None] * self.workers

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def run_specs(
        self,
        specs: Sequence[TrialSpec],
        pending: Sequence[int],
        timeout: Optional[float] = None,
        retries: int = 0,
        profile: bool = False,
        metrics: bool = False,
    ) -> Tuple[Dict[int, Dict[str, Any]], List[int]]:
        """Run the poolable subset of ``pending``; return the rest.

        Returns ``(messages, unpoolable)``: result messages keyed by
        spec index (the same shape the classic fork path produces, so
        the runner's ``_collect`` handles both), plus the indices whose
        specs could not cross the transport.  Tasks shard round-robin
        over worker slots — a pure function of the poolable list and
        the pool size, never of worker health history.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        poolable: List[Tuple[int, Dict[str, Any]]] = []
        unpoolable: List[int] = []
        for index in pending:
            payload = spec_payload(
                specs[index], timeout, retries, profile=profile, metrics=metrics
            )
            if payload is None:
                unpoolable.append(index)
            else:
                payload["index"] = index
                poolable.append((index, payload))
        messages: Dict[int, Dict[str, Any]] = {}
        if poolable:
            self.runs_served += 1
            messages = self._exchange(poolable)
            self.tasks_done += len(messages)
        return messages, unpoolable

    def _exchange(
        self, tasks: List[Tuple[int, Dict[str, Any]]]
    ) -> Dict[int, Dict[str, Any]]:
        """Feed task frames out and drain result frames, multiplexed.

        Both directions go through one selector loop so a worker with a
        full task pipe can never deadlock against a worker with a full
        result pipe.  A result fd hitting EOF means that worker died;
        its unreported tasks stay absent from the returned mapping (the
        runner synthesizes ``WorkerCrashed`` failures) and its slot is
        respawned on the next batch.
        """
        slots = min(self.workers, len(tasks))
        outbox: Dict[int, bytes] = {}
        expect: Dict[int, int] = {}
        workers: Dict[int, _Worker] = {}
        for slot in range(slots):
            shard = tasks[slot::slots]
            if not shard:
                continue
            worker = self._ensure(slot)
            workers[slot] = worker
            outbox[slot] = b"".join(_frame(payload) for _, payload in shard)
            expect[slot] = len(shard)

        messages: Dict[int, Dict[str, Any]] = {}
        buffers: Dict[int, bytes] = {slot: b"" for slot in workers}
        selector = selectors.DefaultSelector()
        for slot, worker in workers.items():
            selector.register(worker.result_fd, selectors.EVENT_READ, slot)
            selector.register(worker.task_fd, selectors.EVENT_WRITE, slot)

        writing = set(workers)
        reading = set(workers)
        try:
            while reading:
                for key, events in selector.select():
                    slot = key.data
                    worker = workers[slot]
                    if events & selectors.EVENT_WRITE and slot in writing:
                        try:
                            sent = os.write(worker.task_fd, outbox[slot])
                            outbox[slot] = outbox[slot][sent:]
                        except BlockingIOError:
                            pass
                        except (BrokenPipeError, OSError):
                            # Worker died with tasks unsent; its EOF on
                            # the result fd does the bookkeeping.
                            outbox[slot] = b""
                        if not outbox[slot]:
                            writing.discard(slot)
                            selector.unregister(worker.task_fd)
                    if events & selectors.EVENT_READ and slot in reading:
                        chunk = os.read(worker.result_fd, 1 << 16)
                        if not chunk:
                            # EOF: the worker crashed mid-batch.
                            reading.discard(slot)
                            selector.unregister(worker.result_fd)
                            if slot in writing:
                                writing.discard(slot)
                                selector.unregister(worker.task_fd)
                            worker.reap()
                            self._slots[slot] = None
                            self.respawns += 1
                            self._unclaimed_respawns += 1
                            continue
                        buffers[slot] += chunk
                        while len(buffers[slot]) >= 4:
                            size = struct.unpack(">I", buffers[slot][:4])[0]
                            if len(buffers[slot]) < 4 + size:
                                break
                            frame = buffers[slot][4 : 4 + size]
                            buffers[slot] = buffers[slot][4 + size :]
                            message = json.loads(frame.decode("utf-8"))
                            messages[message.pop("index")] = message
                            worker.tasks_done += 1
                            expect[slot] -= 1
                        if expect[slot] <= 0 and slot in reading:
                            reading.discard(slot)
                            selector.unregister(worker.result_fd)
        finally:
            selector.close()
        return messages
