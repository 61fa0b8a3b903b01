"""Versioned JSONL envelope for :class:`repro.sim.trace.TraceRecord` streams.

Layout (one JSON object per line):

* line 1 — header: ``{"kind": "repro.obs/trace", "schema": 1,
  "writer": <repro version>, "meta": {...}}``;
* lines 2..N+1 — records: ``{"t": time, "c": category, "f": fields}``
  with keys sorted and non-finite floats tagged the same way the exec
  transport tags them (``{"__float__": "nan"}``), so a record has
  exactly one serialized form;
* last line — footer: ``{"end": true, "records": N}``.

The writer streams: each record goes to disk as it is written, so
million-event runs never buffer a trace in RAM.  Writes go to
``<path>.tmp`` and the file is renamed into place only by a successful
:meth:`TraceWriter.close` — a worker that crashes mid-trace leaves an
orphan ``.tmp`` that shard collection ignores, so shards are always
complete-or-excluded, never truncated mid-record.  The footer guards
the remaining window (a complete-looking file that lost its tail some
other way): readers raise :class:`TraceReadError` when it is missing
or disagrees with the record count.

Each record is encoded once.  :meth:`TraceWriter.emit` encodes one
record through :func:`_record_line`; :meth:`TraceWriter.emit_columns`
writes a whole batch of same-shaped records (a frame window's
``flow.txn`` records) from their columns with one ``%`` template and
one ``write``, producing the same bytes, and writes any batch it cannot
format exactly (mixed column types, non-finite floats) record by record.

Reading parses :data:`CHUNK_LINES` lines at a time with one
``json.loads`` of the chunk joined into a JSON array, and skips the
float-tag decoding when the chunk holds no tag.  A chunk that fails the
bulk parse or any shape check is re-read line by line by the reference
rules, which raise the same :class:`TraceReadError` (message and line
number) at the same point of the stream a line-at-a-time reader would.
Memory is bounded by the chunk, not the trace.

Comparability is the point of the format: two traces of the same
scenario serialize identically byte for byte iff they recorded the
same events, which is what ``python -m repro obs diff`` checks.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
from itertools import chain, islice, repeat
from operator import eq, itemgetter
from types import TracebackType
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from ..exec.runner import decode_jsonable, encode_float, encode_jsonable
from ..sim.trace import TraceRecord

__all__ = [
    "CHUNK_LINES",
    "SCHEMA_VERSION",
    "TRACE_KIND",
    "TraceReadError",
    "TraceWriter",
    "canonical_number",
    "read_header",
    "read_trace",
    "load_trace",
    "write_trace",
]

#: Bump when a line format changes incompatibly; readers reject unknown
#: versions outright instead of mis-parsing them.
SCHEMA_VERSION = 1

TRACE_KIND = "repro.obs/trace"

PathLike = Union[str, pathlib.Path]

#: Lines the reader parses per bulk ``json.loads``: bounds its memory.
CHUNK_LINES = 4096


class TraceReadError(ValueError):
    """A file is not a complete, readable trace of the expected schema."""


def canonical_number(
    value: Union[int, float]
) -> Union[int, float, Dict[str, str]]:
    """One canonical JSON form for every number the obs layer emits.

    Span tables, metric snapshots and trace records must all serialize
    a given value to the same bytes, or byte-comparison of artifacts
    becomes format trivia instead of a determinism check.  The rules:

    * ints stay ints (never widened to ``1.0``);
    * finite floats pass through — ``json.dumps`` emits the shortest
      round-tripping decimal, which is already canonical;
    * non-finite floats are tagged exactly the way the exec transport
      and trace lines tag them: ``{"__float__": "nan" | "inf" | "-inf"}``
      (``allow_nan=False`` would otherwise refuse to serialize them).
    """
    if isinstance(value, bool) or not isinstance(value, float):
        return value
    return encode_float(value)


def _record_line(record: TraceRecord) -> str:
    """The canonical one-line form of a record (deterministic bytes)."""
    body = {
        "t": encode_jsonable(record.time),
        "c": record.category,
        "f": encode_jsonable(dict(record.fields)),
    }
    return json.dumps(body, sort_keys=True, separators=(",", ":"), allow_nan=False)


#: ``json.dumps`` spellings of the two booleans, indexed by the bool.
_JSON_BOOLS = ("false", "true")


def _column_conversion(column: Sequence[Any]) -> Optional[str]:
    """The ``%`` conversion that spells every value as ``json.dumps`` does.

    ``None`` when no single conversion is exact: mixed types, a type
    other than ``bool``/``int``/``float`` (subclasses included), or a
    non-finite float, which only :func:`encode_float`'s tag can carry.
    """
    kinds = set(map(type, column))
    if kinds == {float}:
        return "%r" if all(map(math.isfinite, column)) else None
    if kinds == {int}:
        return "%d"
    if kinds == {bool}:
        return "%s"  # the caller maps each value through _JSON_BOOLS
    return None


class TraceWriter:
    """Streaming trace writer with atomic finalization.

    Use as a context manager; the target file appears only when the
    ``with`` block exits cleanly (or :meth:`close` is called).  An
    exception mid-write leaves just the ``.tmp``, which readers and
    shard collection ignore.
    """

    def __init__(self, path: PathLike, meta: Optional[Dict[str, Any]] = None):
        from .. import __version__

        self.path = pathlib.Path(path)
        self._tmp = self.path.with_name(self.path.name + ".tmp")
        self._records = 0
        self._closed = False
        self._out = self._tmp.open("w", encoding="utf-8")
        header = {
            "kind": TRACE_KIND,
            "schema": SCHEMA_VERSION,
            "writer": __version__,
            "meta": encode_jsonable(dict(meta or {})),
        }
        self._out.write(
            json.dumps(header, sort_keys=True, separators=(",", ":"), allow_nan=False)
            + "\n"
        )

    @property
    def records(self) -> int:
        return self._records

    def write(self, record: TraceRecord) -> None:
        self._out.write(_record_line(record) + "\n")
        self._records += 1

    def emit(self, time: float, category: str, **fields: Any) -> None:
        """Recorder-shaped convenience: write one record."""
        self.write(TraceRecord(time=time, category=category, fields=fields))

    def emit_columns(
        self, times: Sequence[Any], category: str, **columns: Sequence[Any]
    ) -> None:
        """Write one ``category`` record per entry of ``times``, from columns.

        Record ``k`` is ``emit(times[k], category, name=columns[name][k],
        ...)``, and the bytes are exactly those of that ``emit`` loop, but
        the batch is formatted with one ``%`` template (keys sorted,
        ``%r`` floats, ``%d`` ints, ``true``/``false``) and written with
        one ``write``.  Columns are plain lists, e.g. a NumPy array's
        ``tolist()``.  A batch the template cannot spell exactly — a
        column of mixed or other types, a non-finite time or float — is
        written record by record instead, through :meth:`write` as
        ``emit`` does, so its float tags come from the one rule in
        :func:`repro.exec.runner.encode_float`.
        """
        n = len(times)
        names = sorted(columns)
        values = [columns[name] for name in names] + [times]
        if any(len(column) != n for column in values):
            raise ValueError("emit_columns: columns differ in length from times")
        if n == 0:
            return
        conversions = [_column_conversion(column) for column in values]
        if None in conversions or not isinstance(category, str):
            for row in zip(times, *values[:-1]):
                self.write(TraceRecord(row[0], category, dict(zip(names, row[1:]))))
            return
        values = [
            list(map(_JSON_BOOLS.__getitem__, column)) if conversion == "%s" else column
            for column, conversion in zip(values, conversions)
        ]
        fields = ",".join(
            json.dumps(name).replace("%", "%%") + ":" + conversion
            for name, conversion in zip(names, conversions)
        )
        template = (
            '{"c":' + json.dumps(category).replace("%", "%%")
            + ',"f":{' + fields + '},"t":' + conversions[-1] + "}\n"
        )
        self._out.write((template * n) % tuple(chain.from_iterable(zip(*values))))
        self._records += n

    def write_lines(self, lines: Iterable[str]) -> None:
        """Append record lines already in canonical form, without re-encoding.

        Each line must be exactly what :func:`_record_line` produces for
        its record (no newline): the shard merge copies verified shard
        lines through here verbatim.
        """
        it = iter(lines)
        while True:
            batch = list(islice(it, CHUNK_LINES))
            if not batch:
                return
            self._out.write("\n".join(batch) + "\n")
            self._records += len(batch)

    def close(self) -> None:
        """Write the footer and atomically rename the trace into place."""
        if self._closed:
            return
        self._closed = True
        self._out.write(
            json.dumps(
                {"end": True, "records": self._records},
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
        )
        self._out.close()
        self._tmp.replace(self.path)

    def abort(self) -> None:
        """Drop the partial trace (leaves no file behind)."""
        if self._closed:
            return
        self._closed = True
        self._out.close()
        self._tmp.unlink(missing_ok=True)

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def write_trace(
    path: PathLike,
    records: Iterator[TraceRecord],
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write an iterable of records as one trace; returns the count."""
    with TraceWriter(path, meta=meta) as writer:
        for record in records:
            writer.write(record)
        return writer.records


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def _parse_header(path: pathlib.Path, line: str) -> Dict[str, Any]:
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceReadError(f"{path}: header is not valid JSON ({exc})") from exc
    if not isinstance(header, dict) or header.get("kind") != TRACE_KIND:
        raise TraceReadError(f"{path}: not a {TRACE_KIND} file")
    if header.get("schema") != SCHEMA_VERSION:
        raise TraceReadError(
            f"{path}: schema {header.get('schema')!r} != {SCHEMA_VERSION}"
        )
    return header


def read_header(path: PathLike) -> Dict[str, Any]:
    """The trace's header object (kind/schema/writer/meta), validated."""
    target = pathlib.Path(path)
    with target.open("r", encoding="utf-8") as inp:
        first = inp.readline()
    if not first:
        raise TraceReadError(f"{target}: empty file")
    return _parse_header(target, first)


#: Two JSON objects side by side inside one line: ``}`` then ``,`` then
#: ``{`` with only non-newline JSON whitespace between.  The bulk parse
#: joins lines with ``",\n"``, so this never matches a join, and (JSON
#: strings cannot hold a raw newline) a chunk without a match whose
#: array has one object per line has exactly one object *on* each line.
_ADJACENT_OBJECTS = re.compile(r"\}[ \t\r]*,[ \t\r]*\{")

_RECORD_KEYS = frozenset(("t", "c", "f"))


def _bulk_records(
    raw: List[str],
) -> Optional[
    Tuple[List[Optional[str]], List[Dict[str, Any]], Optional[Dict[str, Any]]]
]:
    """Parse a chunk of lines at once: ``(lines, bodies, footer)`` or None.

    ``lines`` are the chunk's non-blank lines, stripped, one per body,
    with ``None`` for a record whose int time was widened to a float (its
    line is not the record's canonical form); a footer is accepted only
    as the chunk's last line.  ``None`` means the chunk needs the
    line-by-line rules: a line that is not one JSON object, a record
    that is not exactly ``{"t": float | int, "c": str, "f": object}``,
    or a footer with lines after it.
    """
    stripped = [line.strip() for line in raw]
    if "" in stripped:
        stripped = [line for line in stripped if line]
    lines: List[Optional[str]] = list(stripped)
    if not lines:
        return lines, [], None
    text = ",\n".join(stripped)
    if _ADJACENT_OBJECTS.search(text) is not None:
        return None
    try:
        bodies = json.loads("[" + text + "]")
    except (ValueError, RecursionError):
        return None
    if len(bodies) != len(lines):
        return None
    footer = None
    last = bodies[-1]
    if type(last) is dict and last.get("end") is True:
        footer = bodies.pop()
        lines.pop()
    if not bodies:
        return lines, bodies, footer
    # Shape checks as C-level passes over the chunk, one per condition.
    if (
        set(map(type, bodies)) != {dict}
        or not all(map(eq, repeat(_RECORD_KEYS), map(dict.keys, bodies)))
        or set(map(type, map(itemgetter("c"), bodies))) != {str}
        or set(map(type, map(itemgetter("f"), bodies))) != {dict}
    ):
        return None
    time_types = set(map(type, map(itemgetter("t"), bodies)))
    if time_types != {float}:
        if not time_types <= {float, int}:
            return None
        for index, body in enumerate(bodies):
            if type(body["t"]) is int:
                try:
                    body["t"] = float(body["t"])
                except OverflowError:
                    return None
                lines[index] = None
    # A tag key is spelled "__float__", or hidden in \u escapes; with
    # neither in the text decoding is the identity, as in the exec
    # transport's ``plain`` payloads.
    if "__float__" in text or "\\u" in text:
        for index, body in enumerate(bodies):
            fields = decode_jsonable(body["f"])
            if not isinstance(fields, dict):
                return None
            bodies[index] = {"c": body["c"], "f": fields, "t": body["t"]}
    return lines, bodies, footer


def _record_chunks(
    path: PathLike,
) -> Iterator[Tuple[List[Optional[str]], List[Dict[str, Any]]]]:
    """The validated records of a trace, a bounded chunk at a time.

    Yields ``(lines, bodies)``.  Each body is ``{"t": float, "c": str,
    "f": dict}`` with floats decoded.  ``lines`` holds each body's
    stripped source line, or ``None`` where that line is known not to
    be the canonical form (an int time) or the line-by-line rules
    produced the record (one per yield, so an error surfaces after
    exactly the records before it).
    Raises :class:`TraceReadError` for a wrong kind/schema, a malformed
    line, or a missing/disagreeing footer.
    """
    target = pathlib.Path(path)
    with target.open("r", encoding="utf-8") as inp:
        first = inp.readline()
        if not first:
            raise TraceReadError(f"{target}: empty file")
        _parse_header(target, first)
        count = 0
        footer: Optional[Dict[str, Any]] = None
        lineno = 2
        while True:
            raw = list(islice(inp, CHUNK_LINES))
            if not raw:
                break
            start, lineno = lineno, lineno + len(raw)
            bulk = _bulk_records(raw) if footer is None else None
            if bulk is not None:
                lines, bodies, end = bulk
                count += len(bodies)
                if end is not None:
                    footer = end
                if bodies:
                    yield lines, bodies
                continue
            for number, line in enumerate(raw, start=start):
                line = line.strip()
                if not line:
                    continue
                if footer is not None:
                    raise TraceReadError(f"{target}:{number}: data after footer")
                try:
                    body = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceReadError(
                        f"{target}:{number}: not valid JSON ({exc})"
                    ) from exc
                if not isinstance(body, dict):
                    raise TraceReadError(f"{target}:{number}: not an object")
                if body.get("end") is True:
                    footer = body
                    continue
                if not {"t", "c", "f"} <= set(body):
                    raise TraceReadError(f"{target}:{number}: malformed record")
                fields = decode_jsonable(body["f"])
                if not isinstance(fields, dict):
                    raise TraceReadError(f"{target}:{number}: fields not an object")
                count += 1
                yield [None], [
                    {
                        "c": str(body["c"]),
                        "f": fields,
                        "t": float(decode_jsonable(body["t"])),
                    }
                ]
        if footer is None:
            raise TraceReadError(
                f"{target}: no footer — file truncated after {count} record(s)"
            )
        declared = footer.get("records")
        if declared != count:
            raise TraceReadError(
                f"{target}: footer declares {declared!r} records, read {count}"
            )


def read_trace(path: PathLike) -> Iterator[TraceRecord]:
    """Stream the records of a trace, verifying header and footer.

    Raises :class:`TraceReadError` for a wrong kind/schema, a malformed
    line, or a missing/disagreeing footer (truncation).  The error for
    a truncated file surfaces only after the intact prefix has been
    yielded — callers that must not observe partial traces should drain
    into a list (:func:`load_trace`) or pre-validate.
    """
    for _, bodies in _record_chunks(path):
        for body in bodies:
            yield TraceRecord(body["t"], body["c"], body["f"])


def load_trace(path: PathLike) -> Tuple[Dict[str, Any], List[TraceRecord]]:
    """``(header, records)`` of a trace, fully validated before return."""
    header = read_header(path)
    return header, list(read_trace(path))
