"""Test oracles: implementations the package retired, kept to compare against.

Monte Carlo event replays
-------------------------
:func:`repro.core.montecarlo.simulate_collision_rate` judges collisions
with the vectorised kernel (:mod:`repro.core.collisions`).  The two
replays below reach the same verdicts through a
:class:`~repro.core.transactions.TransactionLog`, one begin and one end
event at a time, and measure the density with its
:class:`~repro.sim.monitor.TimeWeightedValue`; the equivalence tests
compare the kernel against them bit for bit.

* :func:`_replay` — a heap merge of the time-ordered arrivals against
  their pending ends.
* :func:`_simulate_collision_rate_reference` — the historical
  build-list/double/sort pipeline, from draw to result.  Its sort puts
  a zero-duration transaction's end before its own begin, so such a
  transaction never closes; compare it only on positive durations.

Byte-at-a-time bit codec
------------------------
:class:`BitWriter` and :class:`BitReader` are the bit streams
:mod:`repro.util.bits` had before it moved to word-level extraction:
the reader walks the buffer one byte chunk per loop step and
``read_bytes`` reads one byte at a time; the writer drains its
accumulator one byte per loop step.  The equivalence properties in
``tests/test_util_bits.py`` drive both with the same operations and
compare values, counters and errors.
"""

from __future__ import annotations

import heapq
import random
from typing import List, Optional, Sequence

from repro.core.identifiers import IdentifierSpace
from repro.core.montecarlo import DurationSampler, MonteCarloResult
from repro.core.transactions import TransactionLog
from repro.sim.rng import fallback_stream
from repro.util.bits import BitstreamError


def _replay(
    starts: Sequence[float],
    durations: Sequence[float],
    identifiers: Sequence[int],
    log: TransactionLog,
    warmup: float,
) -> list:
    """Replay arrivals against ``log``: the discrete event core.

    A single merge of the (already time-ordered) arrival stream against
    a min-heap of pending end events.  Ends at exactly a begin's
    timestamp are processed first — a finished transaction no longer
    contends — and end-time ties break by arrival order, matching the
    stable ``(time, kind)`` sort of the historical pipeline.  Collision
    detection itself stays in :meth:`TransactionLog.begin`, whose
    open-by-identifier index makes each begin O(open transactions with
    that identifier).

    Returns the transactions that started at or after ``warmup``.
    """
    tracked = []
    track = tracked.append
    pending: List[tuple] = []  # (end_time, arrival_seq, txn)
    push, pop = heapq.heappush, heapq.heappop
    begin, end = log.begin, log.end
    inf = float("inf")
    next_end = inf  # cached pending[0][0]: one float compare per arrival
    seq = 0
    for when, duration, ident in zip(starts, durations, identifiers):
        while next_end <= when:
            ended = pop(pending)
            end(ended[2], ended[0])
            next_end = pending[0][0] if pending else inf
        txn = begin(seq, ident, when)
        ends_at = when + duration
        push(pending, (ends_at, seq, txn))
        if ends_at < next_end:
            next_end = ends_at
        if when >= warmup:
            track(txn)
        seq += 1
    while pending:
        ended = pop(pending)
        end(ended[2], ended[0])
    return tracked


def _simulate_collision_rate_reference(
    id_bits: int,
    arrival_rate: float,
    duration_sampler: DurationSampler,
    horizon: float = 1000.0,
    rng: Optional[random.Random] = None,
    warmup: float = 0.0,
) -> MonteCarloResult:
    """The historical build-list/double/sort pipeline, kept verbatim.

    ``simulate_collision_rate`` at ``shards=1`` must stay bit-identical
    to this.
    """
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rng = rng if rng is not None else fallback_stream("core.montecarlo")
    space = IdentifierSpace(id_bits)
    log = TransactionLog()

    events = []  # (time, kind, txn_record)
    time = 0.0
    owner = 0
    while True:
        time += rng.expovariate(arrival_rate)
        if time >= horizon:
            break
        duration = duration_sampler(rng)
        if duration < 0:
            raise ValueError("duration sampler returned a negative duration")
        events.append((time, 0, owner, duration))
        owner += 1
    stream = []
    for start, _, who, duration in events:
        stream.append((start, 1, who, duration))
        stream.append((start + duration, 0, who, duration))
    stream.sort(key=lambda e: (e[0], e[1]))

    open_txns = {}
    tracked = []
    for when, kind, who, duration in stream:
        if kind == 1:
            txn = log.begin(owner=who, identifier=space.sample(rng), time=when)
            open_txns[who] = txn
            if when >= warmup:
                tracked.append(txn)
        else:
            txn = open_txns.pop(who, None)
            if txn is not None:
                log.end(txn, when)

    if not tracked:
        return MonteCarloResult(
            transactions=0,
            collision_rate=float("nan"),
            measured_density=log.measured_density(),
        )
    collided = sum(1 for t in tracked if log.collided(t))
    return MonteCarloResult(
        transactions=len(tracked),
        collision_rate=collided / len(tracked),
        measured_density=log.measured_density(),
    )



class BitWriter:
    """Accumulates values MSB-first into a byte string.

    ``write(value, bits)`` appends the ``bits`` low-order bits of
    ``value``.  ``getvalue()`` zero-pads the final partial byte.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._accum = 0
        self._accum_bits = 0
        self.bits_written = 0

    def write(self, value: int, bits: int) -> "BitWriter":
        """Append ``bits`` bits of ``value`` (must fit)."""
        if bits < 0:
            raise BitstreamError("bit count must be >= 0")
        if value < 0 or (bits < 63 and value >= (1 << bits)):
            raise BitstreamError(f"value {value} does not fit in {bits} bits")
        self._accum = (self._accum << bits) | value
        self._accum_bits += bits
        self.bits_written += bits
        while self._accum_bits >= 8:
            self._accum_bits -= 8
            self._buffer.append((self._accum >> self._accum_bits) & 0xFF)
        self._accum &= (1 << self._accum_bits) - 1
        return self

    def write_bytes(self, data: bytes) -> "BitWriter":
        """Append whole bytes (8 bits each, preserving bit alignment)."""
        for byte in data:
            self.write(byte, 8)
        return self

    def getvalue(self) -> bytes:
        """The packed bytes, final partial byte zero-padded on the right."""
        out = bytes(self._buffer)
        if self._accum_bits:
            out += bytes([(self._accum << (8 - self._accum_bits)) & 0xFF])
        return out


class BitReader:
    """Reads values MSB-first from a byte string."""

    def __init__(self, data: bytes):
        self._data = data
        self._bit_pos = 0

    @property
    def bits_remaining(self) -> int:
        return 8 * len(self._data) - self._bit_pos

    def read(self, bits: int) -> int:
        """Read ``bits`` bits as an unsigned integer."""
        if bits < 0:
            raise BitstreamError("bit count must be >= 0")
        if bits > self.bits_remaining:
            raise BitstreamError(
                f"read of {bits} bits with only {self.bits_remaining} remaining"
            )
        value = 0
        remaining = bits
        while remaining > 0:
            byte_index, bit_offset = divmod(self._bit_pos, 8)
            available = 8 - bit_offset
            take = min(available, remaining)
            chunk = self._data[byte_index]
            chunk >>= available - take
            chunk &= (1 << take) - 1
            value = (value << take) | chunk
            self._bit_pos += take
            remaining -= take
        return value

    def read_bytes(self, count: int) -> bytes:
        """Read ``count`` whole bytes."""
        return bytes(self.read(8) for _ in range(count))
