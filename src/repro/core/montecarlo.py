"""Monte Carlo validation of the collision models.

A lightweight sampler that needs no radio stack: Poisson transaction
arrivals, per-transaction durations from a caller-supplied sampler,
uniform identifier choice, and the same ground-truth collision criterion
the paper's model uses ("unique with respect to all other transactions
... for the entire duration").  Used to check Eq. 4 and the
mixed-duration extension (:func:`repro.core.model.p_success_mixed`)
against brute-force truth.

A trial draws its whole horizon's arrivals and identifiers from one
stream, then the vectorised kernel
:func:`repro.core.collisions.collided_flags` flags every transaction
that shares its identifier with an overlapping one, and
:func:`repro.core.collisions.mean_concurrency` measures the density.
Results are bit-for-bit those of the historical event replay against a
:class:`~repro.core.transactions.TransactionLog` (kept in
``tests/oracles.py`` as the equivalence oracle).

Parallelism is across replicates: :func:`replicate_collision_rate` fans
seeded trials out over a :class:`repro.exec.TrialRunner`'s workers.
See ``docs/parallel.md``.
"""

from __future__ import annotations

import bisect
import math
import pathlib
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

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
    horizon: float,
) -> Tuple[List[float], List[float], List[int], List[int]]:
    """Draw ``[0, horizon)`` from ``rng`` and flag its collisions.

    Arrivals first, then one identifier per arrival in arrival order —
    the draw order every recorded experiment depends on.  Returns
    ``(starts, ends, identifiers, flagged)``, ``flagged`` being the
    ascending indices :func:`repro.core.collisions.collided_flags`
    marks collided.
    """
    with span("core.sample"):
        starts, durations = _generate_arrivals(
            arrival_rate, duration_sampler, rng, 0.0, horizon
        )
        sample = IdentifierSpace(id_bits).sample
        identifiers = [sample(rng) for _ in starts]
    with span("core.replay"):
        ends = [when + length for when, length in zip(starts, durations)]
        flagged = np.flatnonzero(collided_flags(starts, ends, identifiers)).tolist()
    return starts, ends, identifiers, flagged


# ----------------------------------------------------------------------
# Trace export (observational; see repro.obs)
# ----------------------------------------------------------------------
def _transaction_records(
    starts: Sequence[float], ends: Sequence[float], identifiers: Sequence[int]
) -> Iterator[TraceRecord]:
    """The ``txn.begin`` / ``txn.end`` records, in event order.

    Events sort by ``(time, kind)`` with ends before same-time begins —
    the historical reference pipeline's stable sort.  Every record
    carries ``"segment": 0``, so traces keep the format (and the
    ``segment:owner`` ids of ``repro obs why``) they had when a trial's
    horizon could be split.
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
                {"segment": 0, "owner": seq, "id": identifiers[seq]},
            )
        else:
            yield TraceRecord(when, "txn.end", {"segment": 0, "owner": seq})


def _collision_records(
    starts: Sequence[float], identifiers: Sequence[int], flagged: Sequence[int]
) -> Iterator[TraceRecord]:
    """``txn.collision`` records for every flagged transaction, in time order."""
    for k in flagged:
        yield TraceRecord(
            starts[k],
            "txn.collision",
            {"segment": 0, "owner": k, "id": identifiers[k]},
        )


def _write_trace(
    trace_path: Union[str, pathlib.Path],
    starts: Sequence[float],
    ends: Sequence[float],
    identifiers: Sequence[int],
    flagged: Sequence[int],
    meta: Dict[str, object],
) -> None:
    """Merge the transaction and collision streams into ``trace_path``.

    The merged order is keyed ``(time, stream rank, position)`` — see
    :mod:`repro.obs.merge` — so a collision record follows the begin it
    flags.  Meta holds the scenario only, never the execution setup.
    """
    from ..obs.merge import merge_shards

    merge_shards(
        [
            _transaction_records(starts, ends, identifiers),
            _collision_records(starts, identifiers, flagged),
        ],
        trace_path,
        meta=meta,
    )


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
    seed: Optional[int] = None,
    trace_path: Optional[Union[str, pathlib.Path]] = None,
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
    rng, seed:
        The stream the whole horizon is drawn from: ``rng`` if given,
        else ``random.Random(seed)``, else a fallback stream.
    warmup:
        Transactions starting before this time are excluded from the
        rate (edge effects: early transactions see a half-empty world).
    trace_path:
        Optional file; when given, the run exports its transaction
        stream there as a versioned trace — see :mod:`repro.obs`.
        Observational only: the returned result is bit-identical with
        tracing on or off.

    Each transaction gets a fresh owner id, so same-owner reuse (which
    the success criterion exempts) never occurs — matching the model's
    assumption of distinct contending nodes.
    """
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if rng is None:
        rng = random.Random(seed) if seed is not None else fallback_stream(
            "core.montecarlo"
        )
    starts, ends, identifiers, flagged = _sample_and_flag(
        id_bits, arrival_rate, duration_sampler, rng, horizon
    )
    if trace_path is not None:
        _write_trace(
            trace_path,
            starts,
            ends,
            identifiers,
            flagged,
            {
                "scenario": "montecarlo",
                "id_bits": id_bits,
                "arrival_rate": arrival_rate,
                "duration_sampler": repr(duration_sampler),
                "horizon": horizon,
                "warmup": warmup,
                "seed": seed,
                # Traces recorded while the horizon could be split carry
                # the split count; one range keeps their bytes.
                "shards": 1,
            },
        )
    first = bisect.bisect_left(starts, warmup)
    tracked = len(starts) - first
    collided = sum(1 for k in flagged if k >= first)
    return MonteCarloResult(
        transactions=tracked,
        collision_rate=collided / tracked if tracked else float("nan"),
        measured_density=mean_concurrency(starts, ends),
    )


def _montecarlo_trial(
    id_bits: int,
    arrival_rate: float,
    duration_sampler: DurationSampler,
    horizon: float,
    warmup: float,
    seed: int,
) -> dict:
    """One seeded Monte Carlo replicate, as a JSON-safe dict."""
    result = simulate_collision_rate(
        id_bits,
        arrival_rate,
        duration_sampler,
        horizon=horizon,
        warmup=warmup,
        seed=seed,
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
) -> Tuple[float, float, List[MonteCarloResult]]:
    """Replicated Monte Carlo: ``(mean, stddev, results)`` over seeds.

    Replicate ``k`` draws from ``random.Random(derive_seed(base_seed,
    f"trial:{point}:{k}"))`` — the same convention the experiment
    harness uses — and the replicates fan out across the optional
    :class:`repro.exec.TrialRunner`'s workers.  Empty replicates (NaN
    collision rate) are excluded from the aggregate, mirroring
    :func:`repro.experiments.results.aggregate_trials`.
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
    runner = runner if runner is not None else TrialRunner()
    point_params = {
        "id_bits": id_bits,
        "arrival_rate": arrival_rate,
        "duration_sampler": duration_sampler,
        "horizon": horizon,
        "warmup": warmup,
    }
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
