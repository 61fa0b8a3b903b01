"""The trace codec against its record-at-a-time oracle (``tests/oracles.py``).

Three properties, each driven by hypothesis and pinned by examples:

* :meth:`TraceWriter.emit_columns` writes exactly the bytes of a loop of
  per-record ``emit`` calls — including the batches it hands back to
  ``emit`` (mixed column types, non-finite floats);
* the chunked reader yields the same records and raises the same
  exception (type and message, line number included) after the same
  records as the line-at-a-time reader, wherever in a chunk a fault is;
* the line-level merge writes the same bytes as the record-level merge,
  for shard lines that are canonical and for ones that are not.
"""

import io
import json
import pathlib
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import envelope
from repro.obs.envelope import TraceWriter, read_trace, write_trace
from repro.obs.merge import merge_shards
from repro.sim.trace import TraceRecord

from . import oracles

#: Names ``emit(time, category, **fields)`` cannot take as a field.
_RESERVED = {"self", "time", "times", "category"}

_names = st.text(max_size=6).filter(lambda name: name not in _RESERVED)
_floats = st.floats(allow_nan=True, allow_infinity=True)
_ints = st.integers(min_value=-(2**64), max_value=2**64)
_scalars = st.one_of(st.booleans(), _ints, _floats)


def _column(n):
    return st.one_of(
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.lists(_ints, min_size=n, max_size=n),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n),
        st.lists(_floats, min_size=n, max_size=n),
        st.lists(_scalars, min_size=n, max_size=n),
    )


@st.composite
def _batches(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    names = draw(st.lists(_names, max_size=4, unique=True))
    columns = {name: draw(_column(n)) for name in names}
    return draw(_column(n)), draw(st.text(max_size=8)), columns


def _record_lines(path):
    """The record lines of a trace file (header and footer dropped)."""
    lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    return lines[1:-1], json.loads(lines[-1])


def _emit_both(times, category, columns):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "trace.jsonl"
        with TraceWriter(path) as writer:
            writer.emit_columns(times, category, **columns)
        lines, footer = _record_lines(path)
    expected = io.StringIO()
    for k, when in enumerate(times):
        oracles.emit(expected, when, category, **{n: c[k] for n, c in columns.items()})
    return "".join(lines), expected.getvalue(), footer


class TestColumnarEmit:
    @settings(max_examples=300, deadline=None)
    @given(_batches())
    def test_matches_per_record_emit(self, batch):
        times, category, columns = batch
        got, expected, footer = _emit_both(times, category, columns)
        assert got == expected
        assert footer == {"end": True, "records": len(times)}

    @pytest.mark.parametrize(
        "times, columns",
        [
            ([], {"window": [], "collided": []}),
            ([0.5, 1.5], {"collided": [True, False], "identifier": [0, 2**64]}),
            ([-0.0, 0.0], {"value": [-0.0, 1e-310]}),
            ([1.0, float("nan")], {"window": [3, 3]}),
            ([1.0, 2.0], {"value": [float("inf"), -float("inf")]}),
            ([0, 1], {"window": [7, 7]}),
            ([0.5, 1], {"window": [7, 7]}),
            ([0.5], {"mixed": [True], "other": [1]}),
            ([0.5, 0.75], {"mixed": [True, 1]}),
            ([0.5], {"é%s": [1], "名": [2.5]}),
        ],
    )
    def test_pinned_batches(self, times, columns):
        for category in ("flow.txn", "kätegorie%d"):
            got, expected, footer = _emit_both(times, category, columns)
            assert got == expected
            assert footer["records"] == len(times)

    def test_ragged_columns_rejected(self, tmp_path):
        with TraceWriter(tmp_path / "trace.jsonl") as writer:
            with pytest.raises(ValueError, match="differ in length"):
                writer.emit_columns([1.0, 2.0], "flow.txn", window=[1])


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
_field_values = st.recursive(
    st.one_of(st.none(), st.booleans(), _ints, _floats, st.text(max_size=5)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
_records = st.builds(
    TraceRecord,
    st.one_of(_floats, st.integers(min_value=-10, max_value=10)),
    st.text(max_size=6),
    st.dictionaries(_names, _field_values, max_size=3),
)


def _mutate(lines, op, index, text):
    """Apply one fault (or harmless oddity) to the lines of a trace."""
    k = 1 + index % max(1, len(lines) - 1)  # never the header
    if k >= len(lines):  # earlier faults left only the header
        return lines
    try:
        body = json.loads(lines[k])
    except ValueError:  # an earlier fault already broke this line
        body = None
    if not isinstance(body, dict) or "end" in body:
        body = None  # only record lines take the record-shaped faults
    if op == "truncate":
        lines[k] = lines[k][: len(lines[k]) // 2]
    elif op == "garbage":
        lines[k] = lines[k] + text
    elif op == "blank":
        lines.insert(k, " " * (index % 3))
    elif op == "after_footer":
        lines.append(lines[1] if len(lines) > 2 else "{}")
    elif op == "non_object":
        lines[k] = ["[1, 2]", "7", '"s"', "null"][index % 4]
    elif op == "drop_key" and body is not None:
        body.pop(["t", "c", "f"][index % 3], None)
        lines[k] = json.dumps(body)
    elif op == "int_time" and body is not None:
        body["t"] = index
        lines[k] = json.dumps(body, sort_keys=True, separators=(",", ":"))
    elif op == "odd_time" and body is not None:
        body["t"] = ["abc", "1.5", [1], True, 10**400, {"__float__": "inf"}][index % 6]
        lines[k] = json.dumps(body)
    elif op == "tag_fields" and body is not None:
        body["f"] = [{"__float__": "nan"}, {"x": {"__float__": "NaN"}}, []][index % 3]
        lines[k] = json.dumps(body)
    elif op == "extra_key" and body is not None:
        body["end"] = index % 2 == 0  # a record that also says "end": true is a footer
        lines[k] = json.dumps(body)
    elif op == "two_objects":
        lines[k] = lines[k] + ", " + lines[k]
    elif op == "split_object":
        line = lines[k]
        lines[k : k + 1] = [line[: len(line) // 2], line[len(line) // 2 :]]
    elif op == "spaced" and body is not None:
        lines[k] = json.dumps(body, indent=None, separators=(", ", ": "))
    elif op == "drop_footer":
        lines.pop()
    elif op == "miscount":
        lines[-1] = json.dumps({"end": True, "records": index})
    return lines


_OPS = [
    "truncate", "garbage", "blank", "after_footer", "non_object", "drop_key",
    "int_time", "odd_time", "tag_fields", "extra_key", "two_objects",
    "split_object", "spaced", "drop_footer", "miscount",
]


def _outcome(reader, path):
    seen = []
    try:
        for record in reader(path):
            seen.append(repr((record.time, record.category, record.fields)))
    except Exception as exc:  # the exact exception is what is compared
        return seen, (type(exc), str(exc))
    return seen, None


def _assert_readers_agree(path, chunk):
    with mock.patch.object(envelope, "CHUNK_LINES", chunk):
        got = _outcome(read_trace, path)
    assert got == _outcome(oracles.read_trace, path)
    return got


class TestChunkedReader:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_records, max_size=12),
        st.lists(
            st.tuples(st.sampled_from(_OPS), st.integers(0, 50), st.text(max_size=3)),
            max_size=3,
        ),
        st.sampled_from([1, 2, 3, 4, 5, 4096]),
    )
    def test_matches_line_reader(self, records, faults, chunk):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "trace.jsonl"
            write_trace(path, iter(records))
            lines = path.read_text(encoding="utf-8").splitlines()
            for op, index, text in faults:
                lines = _mutate(lines, op, index, text)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            _assert_readers_agree(path, chunk)

    # Ten records (lines 2-11), footer on line 12; chunks of four lines
    # are lines 2-5, 6-9 (the one with a tagged float) and 10-12.  Fault
    # ``index`` i lands on line i + 2.
    @pytest.mark.parametrize(
        "op, index",
        [
            ("garbage", 1),  # line 3: inside the first chunk
            ("garbage", 3),  # line 5: last line of a chunk
            ("garbage", 4),  # line 6: first line of the next chunk
            ("truncate", 8),  # line 10: in the last chunk
            ("after_footer", 0),
            ("non_object", 6),
            ("drop_key", 0),
            ("drop_key", 1),
            ("drop_key", 2),
            ("tag_fields", 3),
            ("tag_fields", 4),
            ("int_time", 7),
            ("odd_time", 0),
            ("odd_time", 4),
            ("extra_key", 2),
            ("extra_key", 3),
            ("blank", 4),
            ("two_objects", 3),
            ("split_object", 3),
            ("spaced", 8),
            ("drop_footer", 0),
            ("miscount", 9),
        ],
    )
    def test_pinned_faults(self, tmp_path, op, index):
        path = tmp_path / "trace.jsonl"
        records = [
            TraceRecord(
                0.5 * k,
                "flow.txn",
                {"window": 1, "identifier": k, "x": float("inf") if k == 6 else 0.5},
            )
            for k in range(10)
        ]
        write_trace(path, iter(records))
        lines = _mutate(path.read_text().splitlines(), op, index, "}{")
        path.write_text("\n".join(lines) + "\n")
        _assert_readers_agree(path, 4)

    def test_balanced_misalignment_is_caught(self, tmp_path):
        # One line holding two records and one record split over two
        # lines: the joined chunk parses to one object per line, but the
        # line reader rejects the first line outright.
        path = tmp_path / "trace.jsonl"
        records = [TraceRecord(float(k), "a", {"v": [1, 2]}) for k in range(4)]
        write_trace(path, iter(records))
        lines = path.read_text().splitlines()
        lines[1] = lines[1] + "," + lines[2]
        head, _, tail = lines[3].partition("[1,")
        lines[2:4] = [head + "[1", tail]
        path.write_text("\n".join(lines) + "\n")
        seen, error = _assert_readers_agree(path, 4096)
        assert seen == [] and "line 2" not in error[1] and ":2: not valid JSON" in error[1]

    def test_tagged_and_escaped_chunks_decode(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(
            path,
            iter([
                TraceRecord(1.0, "名", {"v": float("nan")}),
                TraceRecord(2.0, "b", {"w": float("-inf"), "ü": 1}),
            ]),
        )
        seen, error = _assert_readers_agree(path, 4096)
        assert error is None and len(seen) == 2


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
_shard_times = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=6),
        st.sampled_from([0.5, 1.0, 2.5, 3.0, -0.0]),
    ),
    max_size=8,
)


def _shard_records(times, rank):
    return [
        TraceRecord(when, ["a", "ö"][k % 2], {"rank": rank, "k": k, "v": [1.5, float("nan")][k % 2]})
        for k, when in enumerate(sorted(times))
    ]


def _oddify(path, how):
    """Rewrite a shard's record lines into a valid but non-canonical form."""
    lines = path.read_text().splitlines()
    for k in range(1, len(lines) - 1):
        body = json.loads(lines[k])
        if how == "spaced":
            lines[k] = json.dumps(body)
        elif how == "unsorted":
            lines[k] = json.dumps(dict(reversed(list(body.items()))), separators=(",", ":"))
        elif how == "extra":
            body["x"] = 1
            lines[k] = json.dumps(body, sort_keys=True, separators=(",", ":"))
        elif how == "raw_unicode":
            lines[k] = json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    path.write_text("\n".join(lines) + "\n")


class TestLineMerge:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(_shard_times, min_size=1, max_size=3),
        st.lists(st.sampled_from(["", "spaced", "unsorted", "extra", "raw_unicode"]), min_size=3, max_size=3),
        st.sampled_from([1, 3, 4096]),
    )
    def test_matches_record_merge(self, shard_times, odd, chunk):
        with tempfile.TemporaryDirectory() as tmp:
            spool = pathlib.Path(tmp)
            shards = []
            for rank, times in enumerate(shard_times):
                shard = spool / f"segment-{rank:04d}.jsonl"
                write_trace(shard, iter(_shard_records(times, rank)))
                if odd[rank]:
                    _oddify(shard, odd[rank])
                shards.append(shard)
            with mock.patch.object(envelope, "CHUNK_LINES", chunk):
                count = merge_shards(shards, spool / "new.jsonl", meta={"m": 1})
            expected = oracles.merge_shards(shards, spool / "old.jsonl", meta={"m": 1})
            assert count == expected
            assert (spool / "new.jsonl").read_bytes() == (spool / "old.jsonl").read_bytes()

    def test_memory_sources_match_record_merge(self, tmp_path):
        shard = tmp_path / "segment-0000.jsonl"
        write_trace(shard, iter(_shard_records([0, 1, 1.0, 2.5, 3], 0)))
        extra = _shard_records([1, 2.5, 2.5], 1)
        merge_shards([shard, extra], tmp_path / "new.jsonl")
        with TraceWriter(tmp_path / "old.jsonl") as writer:
            for record in oracles.merge_streams([oracles.read_trace(shard), extra]):
                writer.write(record)
        assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()

    def test_corrupt_shard_leaves_no_output(self, tmp_path):
        shard = tmp_path / "segment-0000.jsonl"
        write_trace(shard, iter(_shard_records([0.5, 1.0], 0)))
        shard.write_text(shard.read_text().replace('"records":2', '"records":3'))
        with pytest.raises(envelope.TraceReadError, match="footer declares 3"):
            merge_shards([shard], tmp_path / "merged.jsonl")
        assert not (tmp_path / "merged.jsonl").exists()
