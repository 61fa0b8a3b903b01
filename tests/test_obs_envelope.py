"""Tests for the trace envelope, shard merge, and trace diff (repro.obs).

The envelope's load-bearing property is canonical bytes: two traces of
the same scenario are byte-identical iff they recorded the same events,
which is what ``repro obs diff`` checks.  The failure-mode tests pin
the complete-or-excluded story: a writer that dies mid-trace leaves an
orphan ``.tmp`` (ignored by shard collection) and a file that lost its
footer is rejected whole, never half-read.
"""

import json
import math

import pytest

from repro.obs.diff import diff_traces
from repro.obs.envelope import (
    SCHEMA_VERSION,
    TRACE_KIND,
    TraceReadError,
    TraceWriter,
    load_trace,
    read_header,
    read_trace,
    write_trace,
)
from repro.obs.merge import collect_shards, merge_shards
from repro.obs.record import summarize_trace
from repro.sim.trace import TraceRecord


def sample_records():
    return [
        TraceRecord(0.5, "txn.begin", {"owner": 0, "id": 13}),
        TraceRecord(1.25, "txn.end", {"owner": 0}),
        TraceRecord(2.0, "txn.collision", {"owner": 1, "id": 13}),
    ]


class TestEnvelopeRoundTrip:
    def test_header_records_footer_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        count = write_trace(path, iter(sample_records()), meta={"seed": 7})
        assert count == 3
        header, records = load_trace(path)
        assert header["kind"] == TRACE_KIND
        assert header["schema"] == SCHEMA_VERSION
        assert header["meta"] == {"seed": 7}
        assert records == sample_records()

    def test_nonfinite_fields_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(
            path,
            iter([TraceRecord(0.0, "odd", {"nan": math.nan, "inf": math.inf})]),
        )
        # The file itself stays strict JSON (no bare NaN tokens).
        for line in path.read_text().splitlines():
            json.loads(line)
        (record,) = list(read_trace(path))
        assert math.isnan(record.fields["nan"])
        assert record.fields["inf"] == math.inf

    def test_bytes_are_canonical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(a, iter(sample_records()), meta={"seed": 7})
        write_trace(b, iter(sample_records()), meta={"seed": 7})
        assert a.read_bytes() == b.read_bytes()

    def test_emit_convenience_matches_write(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        with TraceWriter(a) as writer:
            writer.emit(0.5, "txn.begin", owner=0, id=13)
        write_trace(b, iter([TraceRecord(0.5, "txn.begin", {"owner": 0, "id": 13})]))
        assert a.read_bytes() == b.read_bytes()


class TestEnvelopeFailureModes:
    def test_missing_footer_is_truncation(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, iter(sample_records()))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the footer
        with pytest.raises(TraceReadError, match="no footer"):
            list(read_trace(path))

    def test_footer_count_mismatch_detected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, iter(sample_records()))
        text = path.read_text().replace('"records":3', '"records":2')
        path.write_text(text)
        with pytest.raises(TraceReadError, match="footer declares"):
            list(read_trace(path))

    def test_wrong_kind_and_schema_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind":"something/else","schema":1}\n')
        with pytest.raises(TraceReadError, match="not a repro.obs/trace"):
            read_header(path)
        path.write_text(
            json.dumps({"kind": TRACE_KIND, "schema": 99, "meta": {}}) + "\n"
        )
        with pytest.raises(TraceReadError, match="schema"):
            read_header(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("")
        with pytest.raises(TraceReadError, match="empty"):
            read_header(path)

    def test_aborted_writer_leaves_no_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with pytest.raises(RuntimeError):
            with TraceWriter(path) as writer:
                writer.write(TraceRecord(0.0, "txn.begin", {}))
                raise RuntimeError("simulated crash")
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []  # .tmp dropped too

    def test_file_appears_only_on_close(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = TraceWriter(path)
        writer.write(TraceRecord(0.0, "txn.begin", {}))
        assert not path.exists()  # still only the .tmp
        writer.close()
        assert path.exists()


class TestMerge:
    def test_equal_times_keep_stream_order(self, tmp_path):
        first = [TraceRecord(1.0, "a", {"s": 0}), TraceRecord(2.0, "a", {"s": 0})]
        second = [TraceRecord(1.0, "b", {"s": 1}), TraceRecord(1.5, "b", {"s": 1})]
        write_trace(tmp_path / "first.jsonl", iter(first))
        # One source a shard file, one in memory: both kinds rank alike.
        merge_shards([tmp_path / "first.jsonl", second], tmp_path / "merged.jsonl")
        merged = list(read_trace(tmp_path / "merged.jsonl"))
        assert [(r.time, r.category) for r in merged] == [
            (1.0, "a"),  # stream 0 wins the tie at t=1.0
            (1.0, "b"),
            (1.5, "b"),
            (2.0, "a"),
        ]

    def test_collect_shards_excludes_tmp(self, tmp_path):
        write_trace(tmp_path / "segment-0001.jsonl", iter([]))
        write_trace(tmp_path / "segment-0000.jsonl", iter([]))
        (tmp_path / "segment-0002.jsonl.tmp").write_text("partial")
        shards = collect_shards(tmp_path)
        assert [p.name for p in shards] == [
            "segment-0000.jsonl",
            "segment-0001.jsonl",
        ]

    def test_merge_shards_matches_serial_bytes(self, tmp_path):
        records = sample_records()
        write_trace(tmp_path / "segment-0000.jsonl", iter(records[:2]))
        write_trace(tmp_path / "segment-0001.jsonl", iter(records[2:]))
        merged = tmp_path / "merged.jsonl"
        count = merge_shards(collect_shards(tmp_path, "segment-*.jsonl"),
                             merged, meta={"seed": 7})
        assert count == 3
        reference = tmp_path / "reference.jsonl"
        write_trace(reference, iter(records), meta={"seed": 7})
        assert merged.read_bytes() == reference.read_bytes()


class TestDiff:
    def test_identical_traces(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(a, iter(sample_records()))
        write_trace(b, iter(sample_records()))
        diff = diff_traces(a, b)
        assert diff.identical
        assert diff.records == 3
        assert "identical: 3 records" in diff.render()

    def test_first_divergence_is_pinpointed(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(a, iter(sample_records()))
        perturbed = sample_records()
        perturbed[1] = TraceRecord(1.25, "txn.endX", {"owner": 0})
        write_trace(b, iter(perturbed))
        diff = diff_traces(a, b)
        assert not diff.identical
        assert diff.first.index == 1
        assert diff.first.differing_fields() == ["category"]
        assert "record #1 diverges: category" in diff.render()

    def test_field_level_divergence_named(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(a, iter([TraceRecord(0.5, "txn.begin", {"owner": 0})]))
        write_trace(b, iter([TraceRecord(0.5, "txn.begin", {"owner": 1})]))
        diff = diff_traces(a, b)
        assert diff.first.differing_fields() == ["fields.owner"]

    def test_length_mismatch_is_divergence(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(a, iter(sample_records()))
        write_trace(b, iter(sample_records()[:2]))
        diff = diff_traces(a, b)
        assert not diff.identical
        assert diff.first.index == 2
        assert diff.first.right is None
        assert diff.first.differing_fields() == ["<record missing>"]

    def test_meta_difference_is_a_note_not_divergence(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(a, iter(sample_records()), meta={"seed": 7})
        write_trace(b, iter(sample_records()), meta={"seed": 8})
        diff = diff_traces(a, b)
        assert diff.identical
        assert any("meta" in note for note in diff.notes)


class TestSummarize:
    def test_streaming_summary(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, iter(sample_records()), meta={"seed": 7})
        summary = summarize_trace(path)
        assert summary["meta"] == {"seed": 7}
        assert summary["records"] == 3
        assert summary["categories"] == {
            "txn.begin": 1,
            "txn.collision": 1,
            "txn.end": 1,
        }
        assert summary["time_span"] == {"first": 0.5, "last": 2.0}
