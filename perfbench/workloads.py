"""The benchmark's workloads: inputs from a seed, one pass, its checks.

Each workload builds its inputs from ``--seed`` alone, computes a
reference outside the timed region, runs passes back to back (a closed
loop of one client), and checks every pass against the reference.  The
sizes below are part of the benchmark's definition; ``CATALOGUE.md``
says why each workload exists and why it has the size it has.
"""

from __future__ import annotations

import hashlib
import pathlib
import time
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.core import model
from repro.exec import TrialRunner, TrialSpec
from repro.exec.pool import WorkerPool
from repro.experiments import harness
from repro.flow import hybrid, shard, streams
from repro.flow.sampler import FlowResult, window_plan
from repro.obs import forensics, metrics

from .tracer import Tracer, instrument

_clock = time.perf_counter

#: fig4-testbed: the paper's Section 5.1 testbed (5 senders, 80-byte
#: packets, 27-byte MTU) at both selectors, a contended 4-bit width and
#: the paper's typical 8 bits.  One pass is one trial of one config.
FIG4_CONFIGS: Tuple[Tuple[str, int], ...] = (
    ("uniform", 4),
    ("listening", 4),
    ("uniform", 8),
    ("listening", 8),
)
#: Simulated seconds per trial (the paper runs 120; see CATALOGUE.md).
FIG4_DURATION = 10.0
#: Transaction density of the testbed (five concurrent senders).
FIG4_DENSITY = 5
#: Slack allowed above Eq. 4, which is the worst case for uniform draws.
EQ4_SLACK = 0.05

HYBRID_NODES = 10_000
SWITCH_THRESHOLD = 70.0

MASSIVE_NODES = 1_000_000
#: Bits of payload per transaction that identifier widths are sized for.
MASSIVE_DATA_BITS = 16 * 8
MASSIVE_HORIZON = 120.0

#: hybrid-traced keeps hybrid-burst's node count and burst density but a
#: shorter horizon with narrower windows, so one pass stays under a second.
TRACED_HORIZON = 60.0
TRACED_WINDOW = 3.0


@dataclass
class TracedRun:
    """What a traced run hands back to the report.

    ``checks`` holds one list of problems per pass the traced run made
    (traced passes and the serial pass), each checked as soon as it
    ended, so files a later pass overwrites are checked first.
    """

    wall: float
    kinds: List[int]
    checks: List[List[str]]
    registry: metrics.MetricsRegistry
    extra: Dict[str, float]


class Workload:
    """One benchmark workload; subclasses fill in the hooks."""

    name = ""
    #: modules a user of this workload imports (timed as part of setup)
    imports: Tuple[str, ...] = ()
    #: whether passes fan out over a persistent worker pool
    pooled = False
    #: whether the time metrics are scaled to the reference host by the
    #: calibration loop (see bench.host_factor)
    host_scaled = True

    def __init__(self, seed: int, nproc: int, workdir: pathlib.Path) -> None:
        self.seed = seed
        self.workers = nproc if self.pooled else 1
        self.workdir = workdir
        self.pool: Optional[WorkerPool] = None
        self.runner = TrialRunner()

    # -- set-up ----------------------------------------------------------
    def build(self) -> None:
        """Construct configs or scenarios and the window plan."""

    def _warm_specs(self) -> List[TrialSpec]:
        return []

    def start_pool(self) -> float:
        """Start the worker pool with every worker forked; returns seconds."""
        if not self.pooled:
            return 0.0
        start = _clock()
        self.pool, self.runner = self._new_pool()
        return _clock() - start

    def _new_pool(self) -> Tuple[WorkerPool, TrialRunner]:
        pool = WorkerPool(self.workers)
        runner = TrialRunner(workers=self.workers, pool=pool)
        outcomes = runner.run(self._warm_specs())
        if not all(outcome.ok for outcome in outcomes):
            pool.close()
            raise RuntimeError(f"{self.name}: worker pool failed to start")
        return pool, runner

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        self.runner = TrialRunner()

    # -- passes ----------------------------------------------------------
    def reference(self) -> List[str]:
        """Compute the reference outside the timed region; model checks."""
        raise NotImplementedError

    def run_pass(self) -> Any:
        raise NotImplementedError

    def transactions(self, result: Any) -> int:
        raise NotImplementedError

    def check(self, result: Any) -> List[str]:
        """Mismatches between ``result`` and the reference (empty: correct)."""
        raise NotImplementedError

    def kind(self, result: Any) -> int:
        """Which pass variant ``result`` came from (fig4: its config)."""
        return 0

    def trace(self, tracer: Tracer) -> TracedRun:
        raise NotImplementedError


def _trial_observables(result: harness.TrialResult) -> Dict[str, Any]:
    return {f.name: getattr(result, f.name) for f in fields(result) if f.name != "config"}


def _diff(label: str, got: Any, want: Any) -> List[str]:
    return [] if got == want else [f"{label}: got {got!r}, reference {want!r}"]


class Fig4Testbed(Workload):
    """``replicate`` on the Section 5.1 config, serial runner, no cache."""

    name = "fig4-testbed"
    imports = ("repro.experiments.harness", "repro.exec", "repro.core.model")

    def build(self) -> None:
        self.configs = [
            harness.CollisionTrialConfig(
                id_bits=bits, selector=selector, duration=FIG4_DURATION, seed=self.seed
            )
            for selector, bits in FIG4_CONFIGS
        ]
        self._turn = 0

    def _trial(self, index: int, runner: TrialRunner) -> Tuple[int, Dict[str, Any]]:
        _mean, _stdev, results = harness.replicate(self.configs[index], trials=1, runner=runner)
        return index, _trial_observables(results[0])

    def reference(self) -> List[str]:
        self.ref = [self._trial(i, TrialRunner())[1] for i in range(len(self.configs))]
        problems = []
        loss = {key: ref["collision_loss_rate"] for key, ref in zip(FIG4_CONFIGS, self.ref)}
        for (selector, bits), rate in loss.items():
            limit = model.collision_probability(bits, FIG4_DENSITY) + EQ4_SLACK
            if selector == "uniform" and not rate <= limit:
                problems.append(
                    f"uniform {bits}-bit loss {rate:.4f} above Eq. 4 + {EQ4_SLACK} = {limit:.4f}"
                )
        if not loss[("listening", 4)] < loss[("uniform", 4)]:
            problems.append(
                f"listening 4-bit loss {loss[('listening', 4)]:.4f} not below "
                f"uniform {loss[('uniform', 4)]:.4f}"
            )
        return problems

    def run_pass(self) -> Tuple[int, Dict[str, Any]]:
        index = self._turn % len(self.configs)
        self._turn += 1
        return self._trial(index, self.runner)

    def transactions(self, result: Tuple[int, Dict[str, Any]]) -> int:
        return int(result[1]["packets_offered"])

    def kind(self, result: Tuple[int, Dict[str, Any]]) -> int:
        return result[0]

    def check(self, result: Tuple[int, Dict[str, Any]]) -> List[str]:
        index, observed = result
        want = self.ref[index]
        return [
            problem
            for key in sorted(set(observed) | set(want))
            for problem in _diff(f"{FIG4_CONFIGS[index]} {key}", observed.get(key), want.get(key))
        ]

    def trace(self, tracer: Tracer) -> TracedRun:
        registry = metrics.MetricsRegistry()
        results = []
        wall = 0.0
        with instrument(tracer):
            tracer.reset()
            for index in range(len(self.configs)):
                with metrics.collecting(registry):
                    start = _clock()
                    results.append(self._trial(index, self.runner))
                    wall += _clock() - start
        offered = sum(observed["packets_offered"] for _, observed in results)
        delivered = sum(observed["received_aff"] for _, observed in results)
        return TracedRun(
            wall=wall,
            kinds=list(range(len(self.configs))),
            checks=[self.check(result) for result in results],
            registry=registry,
            extra={"aff.delivery_ratio": delivered / offered if offered else 0.0},
        )


class _FlowWorkload(Workload):
    fidelity = "flow"

    def _simulate_serial(self) -> FlowResult:
        return hybrid.simulate(
            self.scenario,
            self.seed,
            fidelity=self.fidelity,
            switch_threshold=SWITCH_THRESHOLD,
        )

    def _check_flow(self, result: FlowResult) -> List[str]:
        if result == self.ref:
            return []
        return [
            f"flow result differs from the serial reference: "
            f"{result.transactions} txns / {result.collisions} collisions vs "
            f"{self.ref.transactions} / {self.ref.collisions}"
        ]

    def _warm_specs(self) -> List[TrialSpec]:
        # An empty window range per worker forks every pool slot.
        return [
            TrialSpec(
                fn=shard.window_range_trial,
                kwargs={"scenario": self.scenario, "seed": self.seed, "lo": 0, "hi": 0},
                label=f"warm:{slot}",
            )
            for slot in range(self.workers)
        ]

    def _traced_pool_run(self, tracer: Tracer, run: Any) -> Tuple[float, Any]:
        """Run ``run(runner)`` once, traced, on a pool forked under the patches."""
        with instrument(tracer):
            pool, runner = self._new_pool()
            try:
                tracer.reset()
                start = _clock()
                result = run(runner)
                return _clock() - start, result
            finally:
                pool.close()

    def _serial_pass_wall(self, run: Any) -> Tuple[float, Any]:
        """Wall of the same pass on one in-process worker (untraced)."""
        start = _clock()
        result = run(TrialRunner())
        return _clock() - start, result


class HybridBurst(_FlowWorkload):
    """``flow.hybrid.simulate`` on the 10k-node burst scenario, serial."""

    name = "hybrid-burst"
    fidelity = "hybrid"
    imports = ("repro.flow.hybrid", "repro.flow.streams")

    def build(self) -> None:
        self.scenario = streams.massive_scenario(HYBRID_NODES)
        window_plan(self.scenario)  # planning is part of set-up (setup_s)

    def reference(self) -> List[str]:
        self.ref = self._simulate_serial()
        if self.ref.frame_windows == 0:
            return ["no window escalated to frame fidelity"]
        return []

    def run_pass(self) -> FlowResult:
        return self._simulate_serial()

    def transactions(self, result: FlowResult) -> int:
        return result.transactions

    def check(self, result: FlowResult) -> List[str]:
        return self._check_flow(result)

    def trace(self, tracer: Tracer) -> TracedRun:
        registry = metrics.MetricsRegistry()
        with instrument(tracer):
            tracer.reset()
            with metrics.collecting(registry):
                start = _clock()
                result = self._simulate_serial()
                wall = _clock() - start
        return TracedRun(wall, [0], [self.check(result)], registry, _replayed(result))


def _replayed(result: FlowResult) -> Dict[str, float]:
    return {
        "core.replayed_txns": float(
            sum(w.transactions for w in result.windows if w.fidelity == "frame")
        )
    }


class FlowMassive(_FlowWorkload):
    """``simulate_sharded`` on the 1M-node scenario across the pool."""

    name = "flow-massive"
    pooled = True
    #: NumPy in the workers does this workload's work; host speed swings
    #: move the pure-Python calibration loop more than these passes
    #: (ten runs: 0.05 quartile spread unscaled, 0.10 scaled)
    host_scaled = False
    imports = ("repro.flow.shard", "repro.flow.streams", "repro.core.model", "repro.exec")

    def build(self) -> None:
        density = streams.scenario_peak_density(streams.massive_scenario(MASSIVE_NODES))
        id_bits, _efficiency = model.optimal_identifier_bits(MASSIVE_DATA_BITS, density)
        self.scenario = streams.massive_scenario(
            MASSIVE_NODES, id_bits=id_bits, horizon=MASSIVE_HORIZON
        )
        window_plan(self.scenario)  # planning is part of set-up (setup_s)

    def reference(self) -> List[str]:
        self.ref = self._simulate_serial()
        return []

    def _sharded(self, runner: TrialRunner) -> FlowResult:
        return shard.simulate_sharded(
            self.scenario, self.seed, fidelity=self.fidelity, runner=runner
        )

    def run_pass(self) -> FlowResult:
        return self._sharded(self.runner)

    def transactions(self, result: FlowResult) -> int:
        return result.transactions

    def check(self, result: FlowResult) -> List[str]:
        problems = self._check_flow(result)
        respawns = self.runner.last_telemetry.pool_respawns
        if respawns:
            problems.append(f"{respawns} worker(s) respawned")
        return problems

    def trace(self, tracer: Tracer) -> TracedRun:
        serial_wall, serial = self._serial_pass_wall(self._sharded)
        checks = [self.check(serial)]
        registry = metrics.MetricsRegistry()

        def traced(runner: TrialRunner) -> FlowResult:
            with metrics.collecting(registry):
                return self._sharded(runner)

        wall, result = self._traced_pool_run(tracer, traced)
        checks.append(self.check(result))
        return TracedRun(wall, [0], checks, registry, {"serial_wall": serial_wall})


@dataclass
class TracedOutput:
    """One hybrid-traced pass: the result and what was read back."""

    flow: FlowResult
    registry: metrics.MetricsRegistry
    readback: metrics.MetricsRegistry
    lost: int


class HybridTraced(_FlowWorkload):
    """The burst scenario through ``simulate_traced`` with metrics on."""

    name = "hybrid-traced"
    fidelity = "hybrid"
    pooled = True
    imports = (
        "repro.flow.shard",
        "repro.flow.streams",
        "repro.obs.forensics",
        "repro.obs.metrics",
        "repro.exec",
    )

    def build(self) -> None:
        self.scenario = streams.massive_scenario(
            HYBRID_NODES, horizon=TRACED_HORIZON, window=TRACED_WINDOW
        )
        window_plan(self.scenario)  # planning is part of set-up (setup_s)
        self.trace_path = self.workdir / "hybrid-traced.jsonl"
        self.snapshot_path = self.workdir / "hybrid-traced.metrics.jsonl"

    def _pass(self, runner: TrialRunner) -> TracedOutput:
        with metrics.collecting(metrics.MetricsRegistry()) as registry:
            result = shard.simulate_traced(
                self.scenario,
                self.seed,
                self.trace_path,
                fidelity=self.fidelity,
                switch_threshold=SWITCH_THRESHOLD,
                runner=runner,
            )
        metrics.write_snapshot(self.snapshot_path, registry)
        lost = forensics.TraceForensics.from_trace(self.trace_path).lost()
        readback, _meta = metrics.read_snapshot(self.snapshot_path)
        return TracedOutput(result, registry, readback, len(lost))

    def _digest(self) -> str:
        return hashlib.sha256(self.trace_path.read_bytes()).hexdigest()

    def reference(self) -> List[str]:
        self.ref = self._simulate_serial()
        self.ref_digest = None
        problems = self.check(self._pass(TrialRunner()))
        self.ref_digest = self._digest()
        if self.ref.frame_windows == 0:
            problems.append("no window escalated to frame fidelity")
        return problems

    def run_pass(self) -> TracedOutput:
        return self._pass(self.runner)

    def transactions(self, result: TracedOutput) -> int:
        return result.flow.transactions

    def check(self, result: TracedOutput) -> List[str]:
        flow = result.flow
        problems = self._check_flow(flow)
        frame_collisions = sum(w.collisions for w in flow.windows if w.fidelity == "frame")
        problems += _diff("lost transactions", result.lost, frame_collisions)
        problems += _diff("snapshot read back", result.readback.to_json(), result.registry.to_json())
        counts = result.registry
        problems += _diff("flow.transactions", counts.counter("flow.transactions"), flow.transactions)
        problems += _diff("flow.collisions", counts.counter("flow.collisions"), flow.collisions)
        problems += _diff("flow.windows", counts.counter("flow.windows"), len(flow.windows))
        problems += _diff("flow.escalations", counts.counter("flow.escalations"), flow.frame_windows)
        if self.ref_digest is not None:
            problems += _diff("trace sha256", self._digest(), self.ref_digest)
        if self.runner.last_telemetry.pool_respawns:
            problems.append("worker respawned")
        return problems

    def trace(self, tracer: Tracer) -> TracedRun:
        serial_wall, serial = self._serial_pass_wall(self._pass)
        checks = [self.check(serial)]
        wall, output = self._traced_pool_run(tracer, self._pass)
        checks.append(self.check(output))
        extra = _replayed(output.flow)
        extra["serial_wall"] = serial_wall
        extra["obs.trace_bytes"] = float(self.trace_path.stat().st_size)
        with self.trace_path.open("rb") as trace:
            # Every line but the header and the footer is one record.
            extra["obs.trace_records"] = float(sum(1 for _ in trace) - 2)
        return TracedRun(wall, [0], checks, output.registry, extra)


WORKLOADS = {
    workload.name: workload
    for workload in (Fig4Testbed, HybridBurst, FlowMassive, HybridTraced)
}
