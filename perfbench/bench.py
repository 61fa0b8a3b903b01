"""One benchmark run: set-up, reference, closed-loop passes, report.

A run builds the workload from its seed, computes the reference outside
the timed region, then runs passes back to back for ``--seconds`` (one
client; each pass starts when the previous one ends) and checks each
against the reference.  With ``--trace 1`` a traced run follows on
freshly patched entry points and the report is the per-layer table;
otherwise it is the end-to-end table.  The last line of standard output
is the JSON result.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy

from .tracer import LAYERS, Tracer
from .workloads import WORKLOADS, TracedRun, Workload

_clock = time.perf_counter

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Passes a run makes even past ``--seconds``, so the tail exists.
MIN_PASSES = TAIL_BEYOND + 1
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Passes stop here whatever ``MIN_PASSES`` says (runs must end in 180 s).
PASS_TIME_CAP = 90.0
#: Iterations of the calibration loop, a fixed pure-Python loop timed
#: in this process before every pass and every set-up.
CALIBRATION_LOOPS = 100_000
#: The loop's wall time on the reference host that the time metrics are
#: scaled to (a 2-core Xeon virtual machine at its usual speed).
REFERENCE_CALIBRATION_S = 0.01

Metrics = Dict[str, Tuple[float, str]]


def host_nproc() -> int:
    """Processors this process may run on (what ``nproc`` prints)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def calibration_s() -> float:
    """Wall time of the fixed calibration loop, timed in this process."""
    start = _clock()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return _clock() - start


def import_seconds(modules: Tuple[str, ...], root: pathlib.Path) -> float:
    """Import time of ``modules`` in a fresh interpreter, as it reports it."""
    code = (
        "import sys, time\nstart = time.perf_counter()\n"
        + "".join(f"import {module}\n" for module in modules)
        + "sys.stdout.write(repr(time.perf_counter() - start))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def tail(values: List[float]) -> Tuple[float, float]:
    """Value at the highest percentile with ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile)``; needs ``TAIL_BEYOND + 1`` samples.
    """
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND - 1
    if rank < 0:
        raise ValueError(f"need at least {MIN_PASSES} samples, got {len(ordered)}")
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Ledger:
    """Operations attempted and failed; every failure is reported."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def note(self, label: str, problems: List[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"perfbench: FAILED {label}: {problem}", file=sys.stderr)
        return not problems

    def guard(self, label: str, fn: Callable[[], Any]) -> Tuple[bool, Any]:
        """Run ``fn``; an exception counts as one failed operation."""
        try:
            return True, fn()
        except Exception as exc:  # a failing pass is data, not a crash
            self.note(label, [f"{type(exc).__name__}: {exc}"])
            return False, None

    @property
    def failed_frac(self) -> float:
        return _ratio(self.failed, self.attempted)


class Passes:
    """Walls and throughput of the timed passes, and calibration samples."""

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.rates: List[float] = []
        self.by_kind: Dict[int, List[float]] = {}
        self.calibrations: List[float] = []

    def add(self, kind: int, wall: float, transactions: int) -> None:
        self.walls.append(wall)
        self.rates.append(transactions / wall)
        self.by_kind.setdefault(kind, []).append(wall)

    def median_wall(self, kinds: List[int]) -> float:
        """Summed median wall of the given pass kinds (0 if one never passed)."""
        if not all(kind in self.by_kind for kind in kinds):
            return 0.0
        return sum(statistics.median(self.by_kind[kind]) for kind in kinds)


def measure(workload: Workload, seconds: float, ledger: Ledger, passes: Passes) -> None:
    """Closed loop: one pass after another, each checked after it ends."""
    start = _clock()
    count = 0
    while True:
        elapsed = _clock() - start
        if elapsed >= PASS_TIME_CAP or (elapsed >= seconds and count >= MIN_PASSES):
            break
        count += 1
        label = f"pass {count}"
        passes.calibrations.append(calibration_s())
        began = _clock()
        ok, result = ledger.guard(label, workload.run_pass)
        wall = _clock() - began
        if not ok:
            continue
        ok, problems = ledger.guard(label, lambda: workload.check(result))
        if ok and ledger.note(label, problems):
            passes.add(workload.kind(result), wall, workload.transactions(result))


def host_factor(passes: Passes) -> float:
    """How much slower this host ran than the reference host (1 = as fast)."""
    return statistics.median(passes.calibrations) / REFERENCE_CALIBRATION_S


def end_to_end(passes: Passes, setup_s: float, rss_mb: float, factor: float) -> Metrics:
    """End-to-end metrics; times are scaled to the reference host by ``factor``."""
    tail_s, _percentile = tail(passes.walls)
    return {
        "txn_per_s": (statistics.median(passes.rates) * factor, "txn/s"),
        "pass_s.tail": (tail_s / factor, "s"),
        "setup_s": (setup_s / factor, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def per_layer(
    workload: Workload,
    tracer: Tracer,
    traced: TracedRun,
    passes: Passes,
    pool_start_s: float,
    ledger: Ledger,
) -> Metrics:
    """The per-layer table of one traced run (see CATALOGUE.md)."""
    counts = traced.registry
    extra = traced.extra
    layer = tracer.layer_self
    out: Metrics = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (value, unit)

    events = counts.counter("engine.events")
    put("sim.events", events, "count")
    put("sim.queue_depth_max", counts.gauge("engine.queue_depth"), "count")
    put("sim.ns_per_event", _ratio(layer.get("sim", 0.0), events) * 1e9, "ns")

    frames_rx = counts.counter("radio.frames_rx")
    put("radio.frames_tx", counts.counter("radio.frames_tx"), "count")
    put("radio.frames_rx", frames_rx, "count")
    put("radio.us_per_frame_rx", _ratio(layer.get("radio", 0.0), frames_rx) * 1e6, "us")

    packets_tx = counts.counter("aff.packets_tx")
    fragments_rx = counts.counter("aff.fragments_rx")
    put("aff.packets_tx", packets_tx, "count")
    put("aff.fragments_rx", fragments_rx, "count")
    for name in ("packets_delivered", "checksum_failures", "id_collisions"):
        put(f"aff.{name}", counts.counter(f"aff.{name}"), "count")
    put("aff.decode_s", tracer.inclusive("aff.decode"), "s")
    put("aff.decode_us_per_fragment", _ratio(tracer.inclusive("aff.decode"), fragments_rx) * 1e6, "us")
    put(
        "aff.reassembly_us_per_fragment",
        _ratio(tracer.own("aff.reassembly"), fragments_rx) * 1e6,
        "us",
    )
    put("aff.send_us_per_packet", _ratio(tracer.own("aff.send"), packets_tx) * 1e6, "us")
    put("aff.delivery_ratio", extra.get("aff.delivery_ratio", 0.0), "ratio")

    replayed = extra.get("core.replayed_txns", 0.0)
    put(
        "core.select_us_per_draw",
        _ratio(tracer.own("core.select"), tracer.calls("core.select")) * 1e6,
        "us",
    )
    put("core.replayed_txns", replayed, "count")
    put("core.replay_s", tracer.own("core.replay"), "s")
    put("core.replay_us_per_txn", _ratio(tracer.own("core.replay"), replayed) * 1e6, "us")

    transactions = counts.counter("flow.transactions")
    for name in ("windows", "escalations", "transactions", "collisions"):
        put(f"flow.{name}", counts.counter(f"flow.{name}"), "count")
    put("flow.plan_s", tracer.inclusive("flow.plan"), "s")
    put("flow.sample_s", tracer.inclusive("flow.sample"), "s")
    put(
        "flow.sample_ns_per_txn",
        _ratio(tracer.inclusive("flow.sample"), transactions - replayed) * 1e9,
        "ns",
    )
    put("flow.merge_s", tracer.inclusive("flow.merge"), "s")

    runs = tracer.runs
    busy = sum(sum(run["tasks"]) for run in runs)
    capacity = sum(run["workers"] * run["wall"] for run in runs)
    imbalance = [max(run["tasks"]) / statistics.mean(run["tasks"]) for run in runs if any(run["tasks"])]
    put("exec.tasks", counts.counter("exec.trials"), "count")
    put("exec.failed", sum(run["failed"] for run in runs), "count")
    put("exec.retries", counts.counter("exec.retries"), "count")
    put("exec.respawns", sum(run["respawns"] for run in runs), "count")
    put("exec.busy_s", busy, "s")
    put("exec.idle_frac", 1.0 - _ratio(busy, capacity) if capacity else 0.0, "ratio")
    put(
        "exec.overhead_s",
        sum(run["wall"] - max(run["tasks"], default=0.0) for run in runs),
        "s",
    )
    put("exec.shard_imbalance", max(imbalance, default=0.0), "ratio")
    put(
        "exec.parallel_efficiency",
        _ratio(extra.get("serial_wall", 0.0), workload.workers * passes.median_wall([0]))
        if "serial_wall" in extra
        else 0.0,
        "ratio",
    )
    put("exec.pool_start_s", pool_start_s, "s")

    records = extra.get("obs.trace_records", 0.0)
    put("obs.trace_records", records, "count")
    put("obs.trace_bytes", extra.get("obs.trace_bytes", 0.0), "B")
    put("obs.write_s", tracer.inclusive("obs.write"), "s")
    put("obs.merge_us_per_record", _ratio(tracer.inclusive("obs.merge"), records) * 1e6, "us")
    put("obs.read_us_per_record", _ratio(tracer.inclusive("obs.read"), records) * 1e6, "us")
    put("obs.snapshot_s", tracer.inclusive("obs.snapshot"), "s")

    attributed = 0.0
    for name in LAYERS:
        put(f"{name}.self_s", layer.get(name, 0.0), "s")
        attributed += layer.get(name, 0.0)
    put("unattributed_s", traced.wall - attributed, "s")
    put("traced_wall_s", traced.wall, "s")
    put("trace_overhead", _ratio(traced.wall, passes.median_wall(traced.kinds)), "ratio")
    put("failed_frac", ledger.failed_frac, "ratio")
    return out


def _setup_once(workload: Workload, passes: Passes) -> Tuple[float, float]:
    """Build the workload and start its pool; returns (total, pool) seconds."""
    passes.calibrations.append(calibration_s())
    start = _clock()
    workload.build()
    pool_s = workload.start_pool()
    return _clock() - start, pool_s


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: pathlib.Path,
    out: Any = None,
) -> Optional[Dict[str, Any]]:
    """Run one workload; print the report; return the JSON result.

    Returns None, after saying why on stderr, when fewer than
    ``MIN_PASSES`` passes (or no traced run) succeeded, so there is
    nothing to report.
    """
    out = out if out is not None else sys.stdout
    nproc = host_nproc()
    workdir = root / ".perfbench-work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(name, seed, seconds, trace, root, out, nproc, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone


def _run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: pathlib.Path,
    out: Any,
    nproc: int,
    workdir: pathlib.Path,
) -> Optional[Dict[str, Any]]:
    workload = WORKLOADS[name](seed, nproc, workdir)
    if workload.workers > nproc:
        raise RuntimeError(f"{workload.workers} workers exceed nproc={nproc}")
    ledger = Ledger()
    passes = Passes()
    constructions: List[float] = []
    pool_starts: List[float] = []
    try:
        total, pool_s = _setup_once(workload, passes)
        constructions.append(total)
        pool_starts.append(pool_s)
        ok, problems = ledger.guard("reference", workload.reference)
        if ok:
            ledger.note("reference", problems)
        measure(workload, seconds, ledger, passes)
    finally:
        workload.close()
    rss_mb = peak_rss_mb()

    tracer: Optional[Tracer] = None
    traced: Optional[TracedRun] = None
    if trace:
        tracer = Tracer()
        ok, traced = ledger.guard("traced run", lambda: workload.trace(tracer))
        if ok:
            for index, problems in enumerate(traced.checks):
                ledger.note(f"traced pass {index + 1}", problems)

    for _ in range(SETUP_REPS - 1):
        try:
            total, pool_s = _setup_once(workload, passes)
        finally:
            workload.close()
        constructions.append(total)
        pool_starts.append(pool_s)
    imports = [import_seconds(workload.imports, root) for _ in range(SETUP_REPS)]
    setup_s = statistics.median(i + c for i, c in zip(imports, constructions))

    if len(passes.walls) < MIN_PASSES or (trace and traced is None):
        print(
            f"perfbench: {name}: {len(passes.walls)} successful pass(es), "
            f"{ledger.failed} failure(s); no result",
            file=sys.stderr,
        )
        return None

    print(f"# perfbench workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}", file=out)
    factor = host_factor(passes) if workload.host_scaled else 1.0
    print(
        f"# host nproc={nproc} workers={workload.workers} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"calibration_s={statistics.median(passes.calibrations):.6f} "
        f"({len(passes.calibrations)} samples; reference {REFERENCE_CALIBRATION_S}) "
        f"host_factor={host_factor(passes):.4f} "
        f"({'applied' if workload.host_scaled else 'not applied'})",
        file=out,
    )
    tail_s, percentile = tail(passes.walls)
    print(
        f"# passes={len(passes.walls)} pass_s.tail=p{percentile:.1f} of "
        f"{len(passes.walls)} samples ({TAIL_BEYOND} beyond); setup reps={SETUP_REPS}",
        file=out,
    )
    print(
        f"# host seconds: txn_per_s={statistics.median(passes.rates)!r} "
        f"pass_s.median={statistics.median(passes.walls)!r} pass_s.tail={tail_s!r} "
        f"setup_s={setup_s!r}",
        file=out,
    )
    e2e = end_to_end(passes, setup_s, rss_mb, factor)
    report = e2e
    if tracer is not None and traced is not None:
        report = per_layer(
            workload, tracer, traced, passes, statistics.median(pool_starts), ledger
        )
    shown = {**e2e, "failed_frac": (ledger.failed_frac, "ratio"), **report}
    for metric, (value, unit) in shown.items():
        print(f"{metric} = {value!r} {unit}", file=out)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            metric: {"value": value, "unit": unit} for metric, (value, unit) in report.items()
        },
    }
    print(json.dumps(result), file=out)
    return result
