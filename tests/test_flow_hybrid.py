"""The hybrid fidelity switch.

The stitching contract under test (ISSUE 7 satellite): a hybrid run's
frame-level windows are bit-identical to the same windows of a pure
frame-level run of the same ``(scenario, seed)`` — escalation is
per-window and seed-isolated, so fidelity routing never perturbs a
window's draws.  The frame windows themselves are also checked against
a direct discrete-core replay of the same arrivals.
"""

import pytest

from repro.core.model import collision_probability_mixed
from repro.flow.hybrid import FIDELITY_MODES, frame_window, simulate
from repro.flow.sampler import sample_flow, window_plan
from repro.flow.streams import FlowScenario, TransactionStream, figure4_scenario
from repro.sim.rng import RngRegistry


def _burst_scenario() -> FlowScenario:
    """Low baseline + one contended phase that crosses the threshold."""
    streams = (
        TransactionStream("base", 2.0, 1.0),
        TransactionStream("burst", 18.0, 1.0, start=40.0, stop=60.0),
    )
    return FlowScenario(id_bits=4, horizon=100.0, window=10.0, streams=streams)


class TestFidelityRouting:
    def test_flow_mode_equals_pure_sampler(self):
        scenario = figure4_scenario(4, 5.0, horizon=100.0, window=10.0)
        assert simulate(scenario, 11, fidelity="flow") == sample_flow(
            scenario, 11
        )

    def test_hybrid_escalates_only_contended_windows(self):
        scenario = _burst_scenario()
        result = simulate(scenario, 3, fidelity="hybrid", switch_threshold=8.0)
        by_fidelity = {w.index: w.fidelity for w in result.windows}
        # Burst spans [40, 60): windows 4 and 5 carry density 20, the
        # rest stay at the baseline's density 2.
        assert by_fidelity[4] == "frame" and by_fidelity[5] == "frame"
        assert result.frame_windows == 2
        assert all(
            fidelity == "flow"
            for index, fidelity in by_fidelity.items()
            if index not in (4, 5)
        )

    def test_frame_mode_escalates_everything(self):
        scenario = _burst_scenario()
        result = simulate(scenario, 3, fidelity="frame")
        assert result.frame_windows == len(result.windows)

    def test_rejects_unknown_fidelity(self):
        scenario = _burst_scenario()
        with pytest.raises(ValueError):
            simulate(scenario, 0, fidelity="fluid")
        with pytest.raises(ValueError):
            simulate(scenario, 0, fidelity="hybrid", switch_threshold=0.0)

    def test_fidelity_modes_constant(self):
        assert set(FIDELITY_MODES) == {"flow", "frame", "hybrid"}


class TestFrameWindowBitIdentity:
    """Satellite: hybrid frame windows == pure frame run, bit for bit."""

    def test_hybrid_frame_windows_match_pure_frame_run(self):
        scenario = _burst_scenario()
        hybrid = simulate(scenario, 7, fidelity="hybrid", switch_threshold=8.0)
        frame = simulate(scenario, 7, fidelity="frame")
        frame_by_index = {w.index: w for w in frame.windows}
        escalated = [w for w in hybrid.windows if w.fidelity == "frame"]
        assert escalated, "burst must escalate at least one window"
        for window in escalated:
            assert window == frame_by_index[window.index]

    def test_hybrid_flow_windows_match_pure_flow_run(self):
        scenario = _burst_scenario()
        hybrid = simulate(scenario, 7, fidelity="hybrid", switch_threshold=8.0)
        flow = simulate(scenario, 7, fidelity="flow")
        flow_by_index = {w.index: w for w in flow.windows}
        for window in hybrid.windows:
            if window.fidelity == "flow":
                assert window == flow_by_index[window.index]

    def test_frame_window_is_pure_function_of_seed(self):
        scenario = _burst_scenario()
        spec = window_plan(scenario)[4]
        first = frame_window(scenario, spec, RngRegistry(9))
        again = frame_window(scenario, spec, RngRegistry(9))
        assert first == again
        other = frame_window(scenario, spec, RngRegistry(10))
        assert first != other

    def test_frame_window_independent_of_consumption_order(self):
        # Drawing another window first must not shift this window's
        # streams: registry streams are keyed by name, not call order.
        scenario = _burst_scenario()
        plan = window_plan(scenario)
        registry = RngRegistry(21)
        frame_window(scenario, plan[5], registry)  # consume a neighbour
        perturbed = frame_window(scenario, plan[4], registry)
        fresh = frame_window(scenario, plan[4], RngRegistry(21))
        assert perturbed == fresh


def _dense_scenario() -> FlowScenario:
    """Two streams dense enough for the vectorised identifier draws."""
    streams = (
        TransactionStream("a", 300.0, 0.05),
        TransactionStream("b", 200.0, 0.02, start=2.0),
    )
    return FlowScenario(id_bits=8, horizon=10.0, window=5.0, streams=streams)


class _Recorder:
    """Stands in for a TraceWriter: keeps every emitted record."""

    def __init__(self):
        self.records = []

    def emit(self, when, category, **fields):
        self.records.append((when, category, fields))

    def emit_columns(self, times, category, **columns):
        names = sorted(columns)
        for k, when in enumerate(times):
            self.emit(when, category, **{name: columns[name][k] for name in names})


class TestFrameWindowPaths:
    """The identifier fast path and the scalar loop give the same window."""

    def _run(self, spec, monkeypatch):
        from repro.core.identifiers import IdentifierSpace

        calls = []
        original = IdentifierSpace.sample

        def counting(space, rng):
            calls.append(1)
            return original(space, rng)

        monkeypatch.setattr(IdentifierSpace, "sample", counting)
        recorder = _Recorder()
        outcome = frame_window(_dense_scenario(), spec, RngRegistry(5), recorder)
        monkeypatch.setattr(IdentifierSpace, "sample", original)
        return outcome, recorder.records, len(calls)

    def test_scalar_loop_under_pure_sampling_and_sanitizer(self, monkeypatch):
        from repro.analysis.sanitizer.runtime import sanitizing
        from repro.flow.fastpath import pure_sampling

        spec = window_plan(_dense_scenario())[1]
        fast, fast_records, fast_calls = self._run(spec, monkeypatch)
        assert fast.transactions > 1024 and fast_calls == 0
        with pure_sampling():
            pure, pure_records, pure_calls = self._run(spec, monkeypatch)
        with sanitizing():
            sanitized, sanitized_records, sanitized_calls = self._run(
                spec, monkeypatch
            )
        assert pure_calls == sanitized_calls == fast.transactions
        assert pure == sanitized == fast
        assert pure_records == sanitized_records == fast_records

    @pytest.mark.parametrize("seed", [1, 9001])
    @pytest.mark.parametrize("scenario", [_burst_scenario(), _dense_scenario()])
    def test_matches_discrete_event_replay(self, scenario, seed):
        # Reference pipeline: a Python tuple sort of the arrivals, one
        # scalar identifier draw per transaction, and the discrete event
        # replay against a TransactionLog.
        from repro.core.identifiers import IdentifierSpace
        from repro.core.montecarlo import FixedDuration, _generate_arrivals
        from repro.core.transactions import TransactionLog

        from .oracles import _replay

        for spec in window_plan(scenario):
            registry = RngRegistry(seed)
            arrivals = []
            for order, stream in enumerate(scenario.streams):
                lo, hi = max(spec.t0, stream.start), min(spec.t1, stream.stop)
                if hi <= lo:
                    continue
                rng = registry.stream(
                    f"flow.frame.{spec.index}.arrivals.{stream.label}"
                )
                starts, durations = _generate_arrivals(
                    stream.arrival_rate, FixedDuration(stream.duration), rng, lo, hi
                )
                arrivals += [(t, order, d) for t, d in zip(starts, durations)]
            arrivals.sort(key=lambda event: (event[0], event[1]))
            id_rng = registry.stream(f"flow.frame.{spec.index}.identifiers")
            space = IdentifierSpace(scenario.id_bits)
            identifiers = [space.sample(id_rng) for _ in arrivals]
            log = TransactionLog()
            tracked = _replay(
                [a[0] for a in arrivals], [a[2] for a in arrivals],
                identifiers, log, warmup=0.0,
            )
            expected = [
                (a[0], "flow.txn",
                 {"window": spec.index, "identifier": ident,
                  "collided": log.collided(txn)})
                for a, ident, txn in zip(arrivals, identifiers, tracked)
            ]
            recorder = _Recorder()
            outcome = frame_window(scenario, spec, RngRegistry(seed), recorder)
            assert recorder.records == expected
            assert outcome.collisions == log.collision_count

    def test_trace_fields_are_plain_python_scalars(self):
        scenario = _dense_scenario()
        recorder = _Recorder()
        outcome = frame_window(
            scenario, window_plan(scenario)[0], RngRegistry(5), recorder
        )
        assert len(recorder.records) == outcome.transactions
        assert sum(f["collided"] for _, _, f in recorder.records) == outcome.collisions
        for when, category, fields in recorder.records:
            assert category == "flow.txn"
            assert type(when) is float
            assert type(fields["identifier"]) is int
            assert type(fields["collided"]) is bool
            assert type(fields["window"]) is int
        times = [when for when, _, _ in recorder.records]
        assert times == sorted(times)


class TestFrameAccuracy:
    def test_frame_rate_tracks_model_in_stationary_window(self):
        scenario = figure4_scenario(4, 5.0, horizon=300.0, window=50.0)
        result = simulate(scenario, 13, fidelity="frame")
        expected = collision_probability_mixed(4, 5.0, [1.0])
        assert result.collision_rate == pytest.approx(expected, abs=0.06)
