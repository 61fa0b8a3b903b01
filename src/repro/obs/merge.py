"""Merge per-worker trace shards into one ordered trace, line by line.

Each flow window range streams its records into its own shard file,
in whichever worker computes it; the parent folds the shards into a single
trace with :func:`heapq.merge`, a streaming k-way merge that holds one
chunk of lines (:data:`~repro.obs.envelope.CHUNK_LINES`) per shard in
memory, never a whole shard.

Ordering must be total and independent of worker scheduling for the
merged trace to be byte-identical to a serial export.  Records are
keyed ``(time, shard_rank, position)``: shard rank is the shard's index
in the sorted shard list (which encodes range order in its file
names), position the record's index within its shard.  Equal-time
records therefore keep shard-major, then FIFO, order — exactly the
order a serial run emits them in.

Each record is encoded once.  Shards are read by the envelope's chunked
reader, and a chunk's lines are copied verbatim when one ``json.dumps``
of their decoded records equals their joined text.  Lines the reader
already knows to differ (an int time, ``"t":0``) stay out of that
comparison and are re-encoded alone; a chunk that fails it is
re-encoded whole.  So every line that is not already canonical — a
tagged float, an extra key, other spacing — is re-encoded from its
decoded record, exactly as a record-level merge would write it.
In-memory record streams (a Monte Carlo trial's begin/end and
``txn.collision`` streams) join the merge as further ranks, encoded as they are merged.
"""

from __future__ import annotations

import heapq
import json
import os
import pathlib
from itertools import count, repeat
from operator import itemgetter
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..sim.trace import TraceRecord
from .envelope import TraceWriter, _record_chunks, _record_line

__all__ = ["collect_shards", "merge_shards"]

PathLike = Union[str, pathlib.Path]

#: A shard to merge: a trace file, or records already in memory.
Source = Union[PathLike, Iterable[TraceRecord]]

_Keyed = Tuple[float, int, int, str]


def _canonical_lines(
    lines: List[Optional[str]], bodies: List[Dict[str, Any]]
) -> List[str]:
    """Each body's :func:`_record_line`: its source line where that is.

    The source lines not already known to differ are checked at once: one
    ``json.dumps`` of their bodies must equal their text joined.  If it
    does not, the whole chunk is re-encoded.
    """
    kept = [line for line in lines if line is not None]
    if kept:
        try:
            encoded: Optional[str] = json.dumps(
                [body for line, body in zip(lines, bodies) if line is not None],
                sort_keys=True,
                separators=(",", ":"),
                allow_nan=False,
            )
        except ValueError:  # a non-finite float: its line must carry a tag
            encoded = None
        if encoded != "[" + ",".join(kept) + "]":
            lines = [None] * len(bodies)
    return [
        line
        if line is not None
        else _record_line(TraceRecord(body["t"], body["c"], body["f"]))
        for line, body in zip(lines, bodies)
    ]


def _shard_lines(rank: int, path: PathLike) -> Iterator[_Keyed]:
    position = 0
    for lines, bodies in _record_chunks(path):
        yield from zip(
            map(itemgetter("t"), bodies),
            repeat(rank),
            count(position),
            _canonical_lines(lines, bodies),
        )
        position += len(bodies)


def _memory_lines(rank: int, records: Iterable[TraceRecord]) -> Iterator[_Keyed]:
    for position, record in enumerate(records):
        yield record.time, rank, position, _record_line(record)


def collect_shards(spool_dir: PathLike, pattern: str = "*.jsonl") -> List[pathlib.Path]:
    """The complete shard files of a spool directory, in sorted order.

    Only finalized shards match: a worker that crashed mid-trace leaves
    a ``*.tmp`` (never renamed into place), which the pattern excludes —
    partial shards are dropped whole, never half-read.
    """
    spool = pathlib.Path(spool_dir)
    return sorted(p for p in spool.glob(pattern) if not p.name.endswith(".tmp"))


def merge_shards(
    shards: Sequence[Source],
    out_path: PathLike,
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Merge time-ordered shards into one trace at ``out_path``.

    ``shards`` are ranked in order; each is a shard trace file or an
    iterable of records already in memory.  Returns the record count.
    """
    keyed = [
        _shard_lines(rank, shard)
        if isinstance(shard, (str, os.PathLike))
        else _memory_lines(rank, shard)
        for rank, shard in enumerate(shards)
    ]
    with TraceWriter(out_path, meta=meta) as writer:
        writer.write_lines(map(itemgetter(3), heapq.merge(*keyed)))
        return writer.records
