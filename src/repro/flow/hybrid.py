"""Hybrid fidelity: frame-level simulation inside contended windows.

The flow sampler is exact in expectation but summarises each window by
its analytic collision probability; inside heavily contended
neighbourhoods (density near or past the identifier space's capacity)
the frame-level discrete-event core is the ground truth worth paying
for.  :func:`simulate` runs one scenario at a chosen fidelity:

``flow``
    every window sampled analytically (:mod:`repro.flow.sampler`);
``frame``
    every window replayed transaction by transaction: real Poisson
    arrivals and real identifier draws, judged by the paper's success
    criterion (§4.1) in the vectorised collision kernel
    :func:`repro.core.collisions.collided_flags` — arrival-ordered
    ``a`` before ``b`` with the same identifier both collide iff
    ``end_a > start_b``, so an end at exactly a begin's timestamp does
    not contend (the discrete event core's tie rule);
``hybrid``
    windows whose offered density reaches ``switch_threshold`` drop to
    frame fidelity, the rest stay flow-level, and the outcomes stitch
    back into one timeline.

The stitching contract is seed isolation: every window — flow or frame
— draws only from its own ``RngRegistry(seed)`` streams
(``flow.window.<k>`` for sampling, ``flow.frame.<k>.*`` for the
discrete replay), so a hybrid run's frame windows are **bit-identical**
to the same windows of an all-frame run of the same ``(scenario,
seed)``, and escalating one window never perturbs another.  The one
approximation hybrid accepts is the window boundary itself: a
transaction spanning a cut contends only inside its own window, so
windows should be sized at least several transaction durations wide
(the default scenarios are hundreds of durations wide).

Serial and sharded runs share one per-window loop,
:func:`run_window_range`: a serial run is the range ``[0, len(plan))``,
a sharded one runs each of its ranges in
:func:`repro.flow.shard.window_range_trial`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..core.collisions import collided_flags
from ..core.identifiers import IdentifierSpace
from ..core.montecarlo import FixedDuration, _generate_arrivals
from ..obs.envelope import TraceWriter
from ..obs.metrics import active_metrics
from ..obs.spans import span
from ..sim.rng import RngRegistry
from .fastpath import sample_identifiers_fast
from .sampler import FlowResult, WindowOutcome, WindowSpec, sample_window, window_plan
from .streams import FlowScenario

__all__ = [
    "FIDELITY_MODES",
    "frame_window",
    "run_window_range",
    "simulate",
    "wants_frame",
]

#: Supported fidelity modes, in increasing cost order.
FIDELITY_MODES: Tuple[str, ...] = ("flow", "hybrid", "frame")

#: Default density at which hybrid escalates a window to frame
#: fidelity: past ~8 concurrent transactions, small identifier spaces
#: are deep into the collision knee where the analytic model's
#: worst-case overlap count matters most.
DEFAULT_SWITCH_THRESHOLD = 8.0


def frame_window(
    scenario: FlowScenario,
    spec: WindowSpec,
    registry: RngRegistry,
    writer: Optional[TraceWriter] = None,
) -> WindowOutcome:
    """Replay one window at frame-level fidelity.

    Per-stream Poisson arrivals are generated inside the window's
    active overlap from the stream ``flow.frame.<k>.arrivals.<label>``
    and merged in time order (ties break by the scenario's stream
    order, then by arrival within a stream).  Identifiers are drawn in
    merged arrival order from ``flow.frame.<k>.identifiers`` — through
    the MT19937 state transplant of :mod:`repro.flow.fastpath` where
    eligible, else the scalar ``IdentifierSpace.sample`` loop, with
    identical draws either way.  The collision kernel
    (:func:`repro.core.collisions.collided_flags`) then flags every
    transaction that shares its identifier with an overlapping one:
    ``a`` before ``b`` collide iff ``a.start + a.duration > b.start``,
    the same criterion and tie rule as the Monte Carlo ground truth.

    With ``writer`` the window writes one ``flow.txn`` record per
    transaction in arrival order, all through one
    :meth:`~repro.obs.envelope.TraceWriter.emit_columns` call (times
    strictly inside ``(t0, t1)``, so a range shard's records stay
    time-sorted around the window boundary records the caller emits at
    ``t0``/``t1``).
    """
    arrivals: List[float] = []
    durations: List[float] = []
    stream_order: List[int] = []
    for order, stream in enumerate(scenario.streams):
        lo = max(spec.t0, stream.start)
        hi = min(spec.t1, stream.stop)
        if hi <= lo or stream.arrival_rate <= 0:
            continue
        rng = registry.stream(f"flow.frame.{spec.index}.arrivals.{stream.label}")
        starts, lengths = _generate_arrivals(
            stream.arrival_rate, FixedDuration(stream.duration), rng, lo, hi
        )
        arrivals += starts
        durations += lengths
        stream_order += [order] * len(starts)
    # Time order, ties by stream order; lexsort is stable, so arrivals
    # tied within one stream keep their draw order.
    merged = np.lexsort((stream_order, arrivals))
    start = np.array(arrivals, dtype=np.float64)[merged]
    end = start + np.array(durations, dtype=np.float64)[merged]
    n = len(arrivals)
    id_rng = registry.stream(f"flow.frame.{spec.index}.identifiers")
    identifiers: Any = sample_identifiers_fast(scenario.id_bits, id_rng, n)
    if identifiers is None:
        sample = IdentifierSpace(scenario.id_bits).sample
        identifiers = np.array([sample(id_rng) for _ in range(n)], dtype=np.int64)
    flags = collided_flags(start, end, identifiers)
    if writer is not None:
        writer.emit_columns(
            start.tolist(),
            "flow.txn",
            window=[spec.index] * n,
            identifier=identifiers.tolist(),
            collided=flags.tolist(),
        )
    return WindowOutcome(
        index=spec.index,
        fidelity="frame",
        transactions=n,
        collisions=int(np.count_nonzero(flags)),
        density=spec.density,
    )


def wants_frame(
    fidelity: str, spec: WindowSpec, switch_threshold: float
) -> bool:
    """Whether ``spec`` escalates to frame fidelity under ``fidelity``.

    Shared with the shard partitioner's cost model
    (:func:`repro.flow.shard.window_cost`), so partitioning and
    execution always agree on which windows pay the frame-replay cost.
    """
    if fidelity == "frame":
        return True
    if fidelity == "hybrid":
        return spec.density >= switch_threshold
    return False


def run_window_range(
    scenario: FlowScenario,
    seed: int,
    specs: Sequence[WindowSpec],
    fidelity: str,
    switch_threshold: float,
    model: str,
    writer: Optional[TraceWriter] = None,
) -> List[WindowOutcome]:
    """Execute a contiguous range of the window plan: the one per-window loop.

    Every window draws only from its own ``RngRegistry(seed)`` streams
    and bumps the ``flow.*`` counters once, so the ranges of any
    decomposition add up to the serial run exactly.

    With ``writer`` each window emits a ``flow.window`` record at
    ``t0`` (offered load and the fidelity decision), frame windows
    their ``flow.txn`` records, and a ``flow.outcome`` record at ``t1``
    carrying the window's counts.
    """
    registry = RngRegistry(seed)
    metrics = active_metrics()
    outcomes: List[WindowOutcome] = []
    for spec in specs:
        escalate = wants_frame(fidelity, spec, switch_threshold)
        if metrics is not None:
            metrics.inc("flow.windows")
            if escalate:
                metrics.inc("flow.escalations")
        if writer is not None:
            writer.emit(
                spec.t0,
                "flow.window",
                window=spec.index,
                fidelity="frame" if escalate else "flow",
                arrival_rate=spec.arrival_rate,
                density=spec.density,
            )
        # Both calls go through module globals, which profilers patch.
        if escalate:
            with span("flow.frame"):
                outcome = frame_window(scenario, spec, registry, writer)
        else:
            with span("flow.sample"):
                rng = registry.stream(f"flow.window.{spec.index}")
                outcome = sample_window(spec, scenario.id_bits, rng, model)
        if metrics is not None:
            metrics.inc("flow.transactions", outcome.transactions)
            metrics.inc("flow.collisions", outcome.collisions)
        if writer is not None:
            writer.emit(
                spec.t1,
                "flow.outcome",
                window=spec.index,
                transactions=outcome.transactions,
                collisions=outcome.collisions,
            )
        outcomes.append(outcome)
    return outcomes


def simulate(
    scenario: FlowScenario,
    seed: int,
    fidelity: str = "flow",
    switch_threshold: float = DEFAULT_SWITCH_THRESHOLD,
    model: str = "mixed",
) -> FlowResult:
    """Run ``scenario`` at the requested fidelity.

    The result is a pure function of every argument; worker count,
    profiling, and which *other* windows escalated never change a
    window's outcome (see module docstring).  ``switch_threshold`` only
    participates under ``fidelity="hybrid"`` but is always part of the
    run's identity — cache keys must include both (satellite rule
    SEED002 covers the wiring in :mod:`repro.flow.calibrate`).
    """
    if fidelity not in FIDELITY_MODES:
        raise ValueError(f"unknown fidelity {fidelity!r}")
    if switch_threshold <= 0:
        raise ValueError("switch_threshold must be positive")
    outcomes = run_window_range(
        scenario, seed, window_plan(scenario), fidelity, switch_threshold, model
    )
    return FlowResult(
        transactions=sum(w.transactions for w in outcomes),
        collisions=sum(w.collisions for w in outcomes),
        windows=tuple(outcomes),
    )

