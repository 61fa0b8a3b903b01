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

Record-at-a-time trace codec
----------------------------
:func:`_record_line`, :func:`emit`, :func:`read_trace`,
:func:`merge_streams` and :func:`merge_shards` are the trace path of
:mod:`repro.obs` before records were written by column, read a chunk
at a time and merged line by line: every record is encoded with its own
``json.dumps``, parsed with its own ``json.loads`` and, in a merge,
decoded into a :class:`~repro.sim.trace.TraceRecord` and encoded again.
``tests/test_obs_trace_equivalence.py`` compares the bytes, records and
errors of the two paths.
"""

from __future__ import annotations

import heapq
import json
import pathlib
import random
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

from repro.core.identifiers import IdentifierSpace
from repro.core.montecarlo import DurationSampler, MonteCarloResult
from repro.core.transactions import TransactionLog
from repro.exec.runner import decode_jsonable, encode_jsonable
from repro.obs.envelope import TraceReadError, TraceWriter, _parse_header
from repro.sim.rng import fallback_stream
from repro.sim.trace import TraceRecord
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


# ----------------------------------------------------------------------
# Record-at-a-time trace codec
# ----------------------------------------------------------------------
PathLike = Union[str, pathlib.Path]


def _record_line(record: TraceRecord) -> str:
    """The canonical one-line form of a record (deterministic bytes)."""
    body = {
        "t": encode_jsonable(record.time),
        "c": record.category,
        "f": encode_jsonable(dict(record.fields)),
    }
    return json.dumps(body, sort_keys=True, separators=(",", ":"), allow_nan=False)


def emit(out: TextIO, time: float, category: str, **fields: Any) -> None:
    """Write one record line to ``out`` (``TraceWriter.emit``'s bytes)."""
    out.write(_record_line(TraceRecord(time=time, category=category, fields=fields)) + "\n")


def read_trace(path: PathLike) -> Iterator[TraceRecord]:
    """Stream the records of a trace, verifying header and footer.

    Raises :class:`TraceReadError` for a wrong kind/schema, a malformed
    line, or a missing/disagreeing footer (truncation).  The error for
    a truncated file surfaces only after the intact prefix has been
    yielded — callers that must not observe partial traces should drain
    into a list (:func:`load_trace`) or pre-validate.
    """
    target = pathlib.Path(path)
    with target.open("r", encoding="utf-8") as inp:
        first = inp.readline()
        if not first:
            raise TraceReadError(f"{target}: empty file")
        _parse_header(target, first)
        count = 0
        footer: Optional[Dict[str, Any]] = None
        for lineno, line in enumerate(inp, start=2):
            line = line.strip()
            if not line:
                continue
            if footer is not None:
                raise TraceReadError(f"{target}:{lineno}: data after footer")
            try:
                body = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceReadError(
                    f"{target}:{lineno}: not valid JSON ({exc})"
                ) from exc
            if not isinstance(body, dict):
                raise TraceReadError(f"{target}:{lineno}: not an object")
            if body.get("end") is True:
                footer = body
                continue
            if not {"t", "c", "f"} <= set(body):
                raise TraceReadError(f"{target}:{lineno}: malformed record")
            fields = decode_jsonable(body["f"])
            if not isinstance(fields, dict):
                raise TraceReadError(f"{target}:{lineno}: fields not an object")
            count += 1
            yield TraceRecord(
                time=float(decode_jsonable(body["t"])),
                category=str(body["c"]),
                fields=fields,
            )
        if footer is None:
            raise TraceReadError(
                f"{target}: no footer — file truncated after {count} record(s)"
            )
        declared = footer.get("records")
        if declared != count:
            raise TraceReadError(
                f"{target}: footer declares {declared!r} records, read {count}"
            )


_Keyed = Tuple[Tuple[float, int, int], TraceRecord]


def _keyed_records(
    rank: int, records: Iterable[TraceRecord]
) -> Iterator[_Keyed]:
    for position, record in enumerate(records):
        yield (record.time, rank, position), record


def merge_streams(
    streams: Sequence[Iterable[TraceRecord]],
) -> Iterator[TraceRecord]:
    """Merge already-time-ordered record streams into one.

    Equal-time records keep stream order (earlier stream first), then
    within-stream order — the total order every trace export uses.
    """
    keyed = [_keyed_records(rank, stream) for rank, stream in enumerate(streams)]
    for _, record in heapq.merge(*keyed):
        yield record


def merge_records(shard_paths: Sequence[PathLike]) -> Iterator[TraceRecord]:
    """Stream the records of several shards in merged ``(time, shard)`` order."""
    return merge_streams([read_trace(path) for path in shard_paths])


def merge_shards(
    shard_paths: Sequence[PathLike],
    out_path: PathLike,
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Merge shard traces into one trace at ``out_path``; returns record count."""
    with TraceWriter(out_path, meta=meta) as writer:
        for record in merge_records(shard_paths):
            writer.write(record)
        return writer.records
