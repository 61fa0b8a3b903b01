"""Monte Carlo validation of the collision models.

A lightweight sampler that needs no radio stack: Poisson transaction
arrivals, per-transaction durations from a caller-supplied sampler,
uniform identifier choice, and the same ground-truth collision criterion
the paper's model uses ("unique with respect to all other transactions
... for the entire duration").  Used to check Eq. 4 and the
mixed-duration extension (:func:`repro.core.model.p_success_mixed`)
against brute-force truth.

One collision engine serves every shard count: a time slice's arrivals
and identifiers are drawn from one stream, then the vectorised kernel
:func:`repro.core.collisions.collided_flags` flags every transaction
that shares its identifier with an overlapping one.

* ``shards=1`` (default) draws the whole horizon from one stream and
  measures the density with :func:`repro.core.collisions.mean_concurrency`,
  so results are bit-for-bit those of the historical event replay
  against a :class:`~repro.core.transactions.TransactionLog` (kept in
  ``tests/oracles.py`` as the equivalence oracle).
* ``shards=N`` splits ``[0, horizon)`` into ``N`` time segments, each
  generating arrivals from an independent stream seeded with
  ``derive_seed(seed, f"segment:{i}")`` and flagging locally; the
  parent then stitches segment boundaries by checking every carried
  (boundary-crossing) transaction against later segments' arrivals, so
  cross-boundary collisions are counted exactly once.  Results are a
  pure function of ``(seed, shards)``; segments fan out across a
  :class:`repro.exec.TrialRunner`'s workers when one is passed.

See ``docs/parallel.md`` for the sharding determinism contract.
"""

from __future__ import annotations

import base64
import bisect
import heapq
import math
import pathlib
import random
import struct
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.spans import span
from ..sim.rng import fallback_stream
from ..sim.trace import TraceRecord
from .collisions import collided_flags, mean_concurrency
from .identifiers import IdentifierSpace

__all__ = [
    "ExponentialDuration",
    "FixedDuration",
    "MonteCarloResult",
    "replicate_collision_rate",
    "simulate_collision_rate",
]

DurationSampler = Callable[[random.Random], float]


@dataclass(frozen=True)
class FixedDuration:
    """Constant-duration sampler (the paper's same-length assumption).

    A frozen dataclass rather than a lambda so the sampler has a stable
    canonical form (its field dict) for cache keys and can cross the
    worker-pool's JSON task transport.
    """

    seconds: float = 1.0

    def __call__(self, rng: random.Random) -> float:
        return self.seconds


@dataclass(frozen=True)
class ExponentialDuration:
    """Exponentially distributed durations with the given mean."""

    mean: float = 1.0

    def __call__(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean)


@dataclass
class MonteCarloResult:
    """Outcome of one Monte Carlo run."""

    transactions: int
    collision_rate: float
    measured_density: float


# ----------------------------------------------------------------------
# Sampling and collision flags
# ----------------------------------------------------------------------
def _generate_arrivals(
    arrival_rate: float,
    duration_sampler: DurationSampler,
    rng: random.Random,
    start: float,
    stop: float,
) -> Tuple[List[float], List[float]]:
    """Poisson arrivals in ``[start, stop)``: ``(start_times, durations)``.

    Draw order (inter-arrival gap, then duration, repeated) is part of
    the determinism contract — reordering it re-rolls every recorded
    experiment.
    """
    starts: List[float] = []
    durations: List[float] = []
    expovariate = rng.expovariate
    time = start
    while True:
        time += expovariate(arrival_rate)
        if time >= stop:
            break
        duration = duration_sampler(rng)
        if duration < 0:
            raise ValueError("duration sampler returned a negative duration")
        starts.append(time)
        durations.append(duration)
    return starts, durations


def _sample_and_flag(
    id_bits: int,
    arrival_rate: float,
    duration_sampler: DurationSampler,
    rng: random.Random,
    start: float,
    stop: float,
) -> Tuple[List[float], List[float], List[int], List[int]]:
    """Draw ``[start, stop)`` from ``rng`` and flag its collisions.

    Arrivals first, then one identifier per arrival in arrival order —
    the draw order every recorded experiment depends on.  Returns
    ``(starts, ends, identifiers, flagged)``, ``flagged`` being the
    ascending indices :func:`repro.core.collisions.collided_flags`
    marks collided.
    """
    with span("core.sample"):
        starts, durations = _generate_arrivals(
            arrival_rate, duration_sampler, rng, start, stop
        )
        sample = IdentifierSpace(id_bits).sample
        identifiers = [sample(rng) for _ in starts]
    with span("core.replay"):
        ends = [when + length for when, length in zip(starts, durations)]
        flagged = np.flatnonzero(collided_flags(starts, ends, identifiers)).tolist()
    return starts, ends, identifiers, flagged


def _tracked_counts(
    starts: Sequence[float], flagged: Iterable[int], warmup: float
) -> Tuple[int, int]:
    """``(tracked, collided)``: transactions starting at or after ``warmup``."""
    first = bisect.bisect_left(starts, warmup)
    return len(starts) - first, sum(1 for k in flagged if k >= first)


def _result(tracked: int, collided: int, density: float) -> MonteCarloResult:
    return MonteCarloResult(
        transactions=tracked,
        collision_rate=collided / tracked if tracked else float("nan"),
        measured_density=density,
    )


# ----------------------------------------------------------------------
# Trace export (observational; see repro.obs)
# ----------------------------------------------------------------------
def _segment_records(
    starts: Sequence[float],
    ends: Sequence[float],
    identifiers: Sequence[int],
    segment: int,
) -> Iterator[TraceRecord]:
    """One segment's ``txn.begin`` / ``txn.end`` records, in event order.

    Events sort by ``(time, kind)`` with ends before same-time begins —
    the historical reference pipeline's stable sort — so the exported
    stream is a pure function of the segment's arrivals, independent of
    which worker (or how many) computed it.
    """
    events: List[Tuple[float, int, int]] = []
    for seq in range(len(starts)):
        events.append((starts[seq], 1, seq))
        events.append((ends[seq], 0, seq))
    events.sort(key=lambda event: (event[0], event[1]))
    for when, kind, seq in events:
        if kind == 1:
            yield TraceRecord(
                when,
                "txn.begin",
                {"segment": segment, "owner": seq, "id": identifiers[seq]},
            )
        else:
            yield TraceRecord(
                when, "txn.end", {"segment": segment, "owner": seq}
            )


def _collision_records(
    segments: Sequence[Dict[str, object]]
) -> Iterator[TraceRecord]:
    """``txn.collision`` records for every flagged transaction.

    Emitted from the parent's post-stitch flag sets (local flags plus
    cross-boundary ones), in (segment, index) order — which is also
    time order, since segment windows and within-segment starts both
    ascend.
    """
    for index, segment in enumerate(segments):
        starts = segment["starts"]
        identifiers = segment["identifiers"]
        for k in sorted(segment["flagged"]):  # type: ignore[arg-type]
            yield TraceRecord(
                starts[k],  # type: ignore[index]
                "txn.collision",
                {"segment": index, "owner": k, "id": identifiers[k]},  # type: ignore[index]
            )


def _write_merged_trace(
    spool: pathlib.Path,
    sources: Sequence[object],
    meta: Dict[str, object],
) -> None:
    """Merge shard files and record streams into ``<spool>/trace.jsonl``.

    The merged order is keyed ``(time, source rank, position)`` — see
    :mod:`repro.obs.merge` — so the bytes depend only on the sources'
    contents, never on worker scheduling.  Shard lines are copied as
    they are; in-memory records are encoded once, as they merge.  Meta
    deliberately excludes worker/pool configuration: traces from a
    serial and a pooled run of the same scenario must be byte-identical,
    header included.
    """
    from ..obs.merge import merge_shards

    merge_shards(sources, spool / "trace.jsonl", meta=meta)  # type: ignore[arg-type]


def _trace_meta(
    id_bits: int,
    arrival_rate: float,
    duration_sampler: DurationSampler,
    horizon: float,
    warmup: float,
    seed: Optional[int],
    shards: int,
) -> Dict[str, object]:
    return {
        "scenario": "montecarlo",
        "id_bits": id_bits,
        "arrival_rate": arrival_rate,
        "duration_sampler": repr(duration_sampler),
        "horizon": horizon,
        "warmup": warmup,
        "seed": seed,
        "shards": shards,
    }


# ----------------------------------------------------------------------
# Horizon sharding
# ----------------------------------------------------------------------
def _pack_floats(values: Sequence[float]) -> str:
    """Exact, compact transport form of a float list (base64 of f64le).

    Segments return tens of thousands of timestamps; packing them as
    one string keeps the canonical-JSON transport but makes its cost
    per-array instead of per-element — and IEEE doubles round-trip
    bit-exactly, which per-element JSON also guarantees but much more
    slowly.
    """
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


def _unpack_floats(blob: str) -> List[float]:
    raw = base64.b64decode(blob.encode("ascii"))
    return list(struct.unpack(f"<{len(raw) // 8}d", raw))


def _segment_bounds(horizon: float, shards: int, index: int) -> Tuple[float, float]:
    """Segment ``index``'s half-open time window ``[lo, hi)``."""
    return (horizon * index) / shards, (horizon * (index + 1)) / shards


def _montecarlo_segment(
    id_bits: int,
    arrival_rate: float,
    duration_sampler: DurationSampler,
    horizon: float,
    shards: int,
    index: int,
    seed: int,
    trace_path: Optional[str] = None,
) -> Dict[str, object]:
    """Generate one horizon segment and flag its local collisions.

    Runs from its own derived stream (``derive_seed(seed,
    f"segment:{index}")``, derived by the caller), so segments are
    independent of each other and of how many workers computed them.
    Returns a JSON-transportable summary: packed start times and
    identifiers, the indices the collision kernel
    (:func:`repro.core.collisions.collided_flags`) flags within the
    segment, the boundary-crossing tail, and density aggregates.
    Cross-segment collisions are the parent's stitching job.

    With ``trace_path`` the segment also streams its begin/end records
    into a trace shard there (see :mod:`repro.obs.envelope`) —
    observational only, and written by whichever process computes the
    segment.
    """
    lo, hi = _segment_bounds(horizon, shards, index)
    starts, ends, identifiers, flagged = _sample_and_flag(
        id_bits, arrival_rate, duration_sampler, random.Random(seed), lo, hi
    )
    if trace_path is not None:
        from ..obs.envelope import write_trace

        write_trace(
            trace_path,
            _segment_records(starts, ends, identifiers, index),
            meta={"segment": index, "shards": shards},
        )
    # Everything O(n) that the parent would otherwise do per segment is
    # done here, where segments run in parallel: the boundary-crossing
    # tail scan and the density aggregates.  Only the (small) tails and
    # the packed arrays the stitch scan needs travel back.
    tails = [
        [ends[seq], identifiers[seq], seq]
        for seq in range(len(starts))
        if ends[seq] > hi
    ]
    packed_ids: object
    if id_bits <= 64:
        packed_ids = base64.b64encode(
            struct.pack(f"<{len(identifiers)}Q", *identifiers)
        ).decode("ascii")
    else:  # pragma: no cover - identifier spaces past 64 bits
        packed_ids = list(identifiers)
    return {
        "n": len(starts),
        "starts": _pack_floats(starts),
        "identifiers": packed_ids,
        "flagged": flagged,
        "tails": tails,
        "sum_duration": sum(ends) - sum(starts),
        "max_end": max(ends) if ends else 0.0,
    }


def _unpack_segment(value: Dict[str, object]) -> Dict[str, object]:
    """Decode a segment summary back into plain Python arrays."""
    identifiers = value["identifiers"]
    if isinstance(identifiers, str):
        raw = base64.b64decode(identifiers.encode("ascii"))
        identifiers = list(struct.unpack(f"<{len(raw) // 8}Q", raw))
    return {
        "starts": _unpack_floats(value["starts"]),  # type: ignore[arg-type]
        "identifiers": identifiers,
        "flagged": set(value["flagged"]),  # type: ignore[arg-type]
        "tails": value["tails"],
        "sum_duration": value["sum_duration"],
        "max_end": value["max_end"],
    }


def _stitch_segments(segments: List[Dict[str, object]], cuts: Sequence[float]) -> None:
    """Flag cross-boundary collisions, mutating segment ``flagged`` sets.

    The boundary-stitch rule: every transaction still open at a cut is
    *carried* into later segments; a carried transaction and a later
    arrival collide iff they share an identifier and the carry is still
    open when the arrival begins (``carry.end > arrival.start`` — an
    end at exactly the begin's timestamp does not contend, matching the
    kernel's tie rule).  Both parties are flagged; flags are sets, so a
    transaction already flagged within its own segment is counted exactly
    once.  Owner checks are unnecessary: every transaction has a fresh
    owner, so cross-segment pairs are always distinct nodes.

    Exact by construction: an overlapping pair either begins in the
    same segment (caught by that segment's kernel pass) or spans the
    cut between their segments (so the earlier one is in the carry set
    when the later one begins).
    """
    live: List[tuple] = []  # (end, identifier, segment, index), heap by end
    for seg_index, segment in enumerate(segments):
        starts = segment["starts"]
        identifiers = segment["identifiers"]
        flagged = segment["flagged"]
        if live:
            for k in range(len(starts)):  # type: ignore[arg-type]
                when = starts[k]  # type: ignore[index]
                while live and live[0][0] <= when:
                    heapq.heappop(live)
                if not live:
                    break
                ident = identifiers[k]  # type: ignore[index]
                for _, carry_ident, carry_seg, carry_idx in live:
                    if carry_ident == ident:
                        segments[carry_seg]["flagged"].add(carry_idx)  # type: ignore[union-attr]
                        flagged.add(k)  # type: ignore[union-attr]
        if seg_index + 1 < len(segments):
            next_cut = cuts[seg_index + 1]
            live = [carry for carry in live if carry[0] > next_cut]
            # The segment pre-computed its own boundary-crossing tail
            # (``end > its upper cut``), so extending the carry set is
            # O(tail), not O(segment).
            for end, ident, k in segment["tails"]:  # type: ignore[union-attr]
                live.append((end, ident, seg_index, k))
            heapq.heapify(live)


def _simulate_sharded(
    id_bits: int,
    arrival_rate: float,
    duration_sampler: DurationSampler,
    horizon: float,
    warmup: float,
    seed: int,
    shards: int,
    runner,
    trace_spool: Optional[str] = None,
) -> MonteCarloResult:
    """Sharded trial: fan segments out, stitch boundaries, aggregate."""
    from ..exec import ExecError, TrialRunner, TrialSpec
    from ..exec.keys import segment_seed

    runner = runner if runner is not None else TrialRunner()
    spool: Optional[pathlib.Path] = None
    if trace_spool is not None:
        spool = pathlib.Path(trace_spool)
        spool.mkdir(parents=True, exist_ok=True)
    specs = []
    for index in range(shards):
        kwargs = dict(
            id_bits=id_bits,
            arrival_rate=arrival_rate,
            duration_sampler=duration_sampler,
            horizon=horizon,
            shards=shards,
            index=index,
            seed=segment_seed(seed, index),
        )
        if spool is not None:
            kwargs["trace_path"] = str(spool / f"segment-{index:04d}.jsonl")
        specs.append(
            TrialSpec(
                fn=_montecarlo_segment,
                kwargs=kwargs,
                label=f"segment:{index}",
            )
        )
    outcomes = runner.run(specs)
    failed = [o.failure for o in outcomes if not o.ok]
    if failed:
        raise ExecError(
            f"sharded trial lost {len(failed)}/{shards} segments; "
            f"first: {failed[0].render() if failed[0] else 'unknown'}"
        )
    segments = [_unpack_segment(outcome.value) for outcome in outcomes]
    cuts = [(horizon * index) / shards for index in range(shards + 1)]
    _stitch_segments(segments, cuts)
    if spool is not None:
        sources: List[object] = [
            spool / f"segment-{index:04d}.jsonl" for index in range(shards)
        ]
        sources.append(_collision_records(segments))
        _write_merged_trace(
            spool,
            sources,
            _trace_meta(
                id_bits,
                arrival_rate,
                duration_sampler,
                horizon,
                warmup,
                seed,
                shards,
            ),
        )

    # Aggregate from the segments' pre-computed sums/maxima — a Python
    # per-transaction loop here would eat the latency the sharding just
    # saved, and even C-level re-sums would redo work the workers
    # already did in parallel.
    tracked = 0
    collided = 0
    duration_sum = 0.0
    last_time = 0.0
    for segment in segments:
        starts = segment["starts"]
        if not starts:
            continue
        duration_sum += segment["sum_duration"]  # type: ignore[operator]
        last_time = max(last_time, segment["max_end"])  # type: ignore[type-var]
        counts = _tracked_counts(starts, segment["flagged"], warmup)  # type: ignore[arg-type]
        tracked += counts[0]
        collided += counts[1]
    density = duration_sum / last_time if last_time > 0 else 0.0
    return _result(tracked, collided, density)


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def simulate_collision_rate(
    id_bits: int,
    arrival_rate: float,
    duration_sampler: DurationSampler,
    horizon: float = 1000.0,
    rng: Optional[random.Random] = None,
    warmup: float = 0.0,
    shards: int = 1,
    seed: Optional[int] = None,
    runner=None,
    trace_spool: Optional[str] = None,
) -> MonteCarloResult:
    """Ground-truth collision rate under Poisson arrivals.

    Parameters
    ----------
    id_bits:
        Identifier space size ``H``.
    arrival_rate:
        Poisson arrival rate λ (transactions/second), network-wide as
        seen at one point.
    duration_sampler:
        ``rng -> duration``; e.g. :class:`FixedDuration` for the
        paper's same-length assumption, or :class:`ExponentialDuration`
        / a bimodal sampler for the mixed-length extension.
    horizon:
        Simulated seconds of arrivals.
    warmup:
        Transactions starting before this time are excluded from the
        rate (edge effects: early transactions see a half-empty world).
    shards:
        Time segments to split the horizon into.  ``1`` draws the
        whole horizon from ``rng`` (or ``random.Random(seed)``),
        bit-identically to every release since the sampler existed.
        ``shards > 1`` requires ``seed`` (per-segment streams are
        derived from it; passing ``rng`` is an error because a shared
        stream cannot be split) and produces results that are a pure
        function of ``(seed, shards)``.
    runner:
        Optional :class:`repro.exec.TrialRunner`; with ``shards > 1``
        segments fan out across its workers.  Worker count never
        changes the result.
    trace_spool:
        Optional directory; when given, the run exports its transaction
        stream as a versioned trace at ``<trace_spool>/trace.jsonl``
        (plus per-segment shards when sharded) — see :mod:`repro.obs`.
        Observational only: the returned result is bit-identical with
        tracing on or off, and the trace bytes are a pure function of
        ``(seed, shards)``, never of worker count or pooling.

    Each transaction gets a fresh owner id, so same-owner reuse (which
    the success criterion exempts) never occurs — matching the model's
    assumption of distinct contending nodes.
    """
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if shards > 1:
        if rng is not None:
            raise ValueError(
                "pass seed=..., not rng=, when shards > 1: per-segment "
                "streams are derived from the seed"
            )
        if seed is None:
            raise ValueError("shards > 1 requires seed=")
        return _simulate_sharded(
            id_bits,
            arrival_rate,
            duration_sampler,
            horizon,
            warmup,
            seed,
            shards,
            runner,
            trace_spool=trace_spool,
        )

    if rng is None:
        rng = random.Random(seed) if seed is not None else fallback_stream(
            "core.montecarlo"
        )
    starts, ends, identifiers, flagged = _sample_and_flag(
        id_bits, arrival_rate, duration_sampler, rng, 0.0, horizon
    )
    if trace_spool is not None:
        spool = pathlib.Path(trace_spool)
        spool.mkdir(parents=True, exist_ok=True)
        whole: Dict[str, object] = dict(
            starts=starts, identifiers=identifiers, flagged=flagged
        )
        _write_merged_trace(
            spool,
            [
                _segment_records(starts, ends, identifiers, 0),
                _collision_records([whole]),
            ],
            _trace_meta(
                id_bits, arrival_rate, duration_sampler, horizon, warmup, seed, 1
            ),
        )
    tracked, collided = _tracked_counts(starts, flagged, warmup)
    return _result(tracked, collided, mean_concurrency(starts, ends))


def _montecarlo_trial(
    id_bits: int,
    arrival_rate: float,
    duration_sampler: DurationSampler,
    horizon: float,
    warmup: float,
    seed: int,
    shards: int = 1,
) -> dict:
    """One seeded Monte Carlo replicate, as a JSON-safe dict."""
    result = simulate_collision_rate(
        id_bits,
        arrival_rate,
        duration_sampler,
        horizon=horizon,
        warmup=warmup,
        seed=seed,
        shards=shards,
    )
    return {
        "transactions": result.transactions,
        "collision_rate": result.collision_rate,
        "measured_density": result.measured_density,
    }


def replicate_collision_rate(
    id_bits: int,
    arrival_rate: float,
    duration_sampler: DurationSampler,
    trials: int = 4,
    base_seed: int = 0,
    horizon: float = 1000.0,
    warmup: float = 0.0,
    runner=None,
    shards: int = 1,
) -> Tuple[float, float, List[MonteCarloResult]]:
    """Replicated Monte Carlo: ``(mean, stddev, results)`` over seeds.

    Replicate ``k`` draws from ``random.Random(derive_seed(base_seed,
    f"trial:{point}:{k}"))`` — the same convention the experiment
    harness uses — and the replicates fan out across the optional
    :class:`repro.exec.TrialRunner`'s workers.  Empty replicates (NaN
    collision rate) are excluded from the aggregate, mirroring
    :func:`repro.experiments.results.aggregate_trials`.

    ``shards`` splits each replicate's horizon into derived-seed time
    segments (see :func:`simulate_collision_rate`).  It is folded into
    the canonical point — and therefore into derived seeds and cache
    keys — only when it differs from 1, so ``shards=1`` replays are
    bit-identical to runs recorded before sharding existed.
    """
    from .. import __version__
    from ..exec import (
        TrialRunner,
        TrialSpec,
        canonical_point,
        derive_trial_seed,
        trial_key,
    )

    if trials < 1:
        raise ValueError("need at least one trial")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    runner = runner if runner is not None else TrialRunner()
    point_params = {
        "id_bits": id_bits,
        "arrival_rate": arrival_rate,
        "duration_sampler": duration_sampler,
        "horizon": horizon,
        "warmup": warmup,
    }
    if shards != 1:
        point_params["shards"] = shards
    point = canonical_point(point_params)
    specs = []
    for k in range(trials):
        seed = derive_trial_seed(base_seed, point, k)
        key = None
        if runner.cache is not None:
            key = trial_key(
                "repro.core.montecarlo.simulate_collision_rate",
                dict(point_params),
                seed,
                __version__,
            )
        specs.append(
            TrialSpec(
                fn=_montecarlo_trial,
                kwargs=dict(
                    id_bits=id_bits,
                    arrival_rate=arrival_rate,
                    duration_sampler=duration_sampler,
                    horizon=horizon,
                    warmup=warmup,
                    seed=seed,
                    shards=shards,
                ),
                label=f"montecarlo#{k}",
                cache_key=key,
            )
        )
    outcomes = runner.run(specs)
    results = [
        MonteCarloResult(**outcome.value) for outcome in outcomes if outcome.ok
    ]
    rates = [r.collision_rate for r in results if not math.isnan(r.collision_rate)]
    if not rates:
        return float("nan"), float("nan"), results
    mean = sum(rates) / len(rates)
    if len(rates) > 1:
        var = sum((r - mean) ** 2 for r in rates) / (len(rates) - 1)
        stdev = math.sqrt(var)
    else:
        stdev = 0.0
    return mean, stdev, results


# The named samplers may travel as kwargs to persistent pool workers
# (which reconstruct them by reference); opt them into that transport.
from ..exec.pool import register_pool_dataclass as _register  # noqa: E402

_register(FixedDuration)
_register(ExponentialDuration)
del _register
