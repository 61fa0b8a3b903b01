"""Golden-value regression tests.

The reproduction's selling point is bit-for-bit determinism; these tests
pin exact seeded outputs of the main pipelines so any unintended
behavioural change — a reordered RNG draw, a changed tie-break, a codec
tweak — fails loudly rather than silently shifting every published
number.

If a change is *intentional* (a bug fix that legitimately alters
results), update the constants here and note it in EXPERIMENTS.md.
"""

import pytest

from repro.core import model
from repro.exec import canonical_point, derive_trial_seed
from repro.experiments.harness import CollisionTrialConfig, replicate, run_collision_trial


class TestAnalyticGoldenValues:
    """Closed forms: these must never drift at all."""

    def test_eq4_values(self):
        assert float(model.p_success(9, 16)) == pytest.approx(
            0.9430357887310378, abs=1e-15
        )
        assert float(model.p_success(4, 5)) == pytest.approx(
            (15 / 16) ** 8, abs=1e-15
        )

    def test_figure1_optima(self):
        assert model.optimal_identifier_bits(16, 16) == (
            9,
            pytest.approx(0.6035429047878642, abs=1e-12),
        )
        assert model.optimal_identifier_bits(16, 256)[0] == 13
        assert model.optimal_identifier_bits(16, 65536)[0] == 22
        assert model.optimal_identifier_bits(128, 16)[0] == 12

    def test_crossover_value(self):
        assert model.crossover_density(16, 16) == pytest.approx(529.7, abs=1.0)

    def test_lifetime_gains(self):
        assert model.network_lifetime_gain(16, 32, 16) == pytest.approx(
            1.8106, abs=1e-3
        )

    def test_mixed_model_value(self):
        assert model.p_success_mixed(6, 5.0, [1.0]) == pytest.approx(
            0.8553453273074225, abs=1e-12
        )


class TestSimulationGoldenValues:
    """Seeded end-to-end runs: pin the exact counters.

    These encode the whole stack's determinism — kernel ordering, RNG
    stream derivation, MAC timing, codec layout, reassembly semantics.
    """

    @pytest.fixture(scope="class")
    def trial(self):
        return run_collision_trial(
            CollisionTrialConfig(
                id_bits=4, n_senders=5, duration=10.0, selector="uniform", seed=7
            )
        )

    def test_traffic_counters(self, trial):
        assert trial.packets_offered == 356
        assert trial.received_unique == 356

    def test_collision_counters(self, trial):
        assert trial.would_be_lost == 113
        assert trial.received_aff == 243

    def test_density(self, trial):
        assert trial.measured_density == pytest.approx(4.6679, abs=1e-3)

    def test_listening_variant(self):
        result = run_collision_trial(
            CollisionTrialConfig(
                id_bits=4, n_senders=5, duration=10.0, selector="listening", seed=7
            )
        )
        assert result.would_be_lost == 46
        assert result.received_unique == 356

    def test_observability_changes_no_result_bit(self, trial):
        """Tracing and span profiling are observational only.

        The same seeded trial run with a live TraceRecorder on the
        medium *and* a span profiler active must reproduce every golden
        counter exactly — observability must never perturb a simulated
        result.
        """
        from repro.obs.spans import SpanProfiler, profiling
        from repro.sim.trace import TraceRecorder

        recorder = TraceRecorder()
        profiler = SpanProfiler()
        with profiling(profiler):
            observed = run_collision_trial(
                CollisionTrialConfig(
                    id_bits=4, n_senders=5, duration=10.0,
                    selector="uniform", seed=7,
                ),
                recorder=recorder,
            )
        assert observed.packets_offered == trial.packets_offered == 356
        assert observed.received_unique == trial.received_unique
        assert observed.would_be_lost == trial.would_be_lost == 113
        assert observed.received_aff == trial.received_aff == 243
        assert observed.measured_density == trial.measured_density
        # ... and both instruments actually observed the run.
        assert recorder.recorded_counts()["frame.tx"] > 0
        assert any(name.startswith("radio.") for name, _ in profiler.top(50))


class TestSingleShardMonteCarloTraceGolden:
    """Pin a one-shard Monte Carlo trace and its result.

    Exponential durations and a non-zero warmup, so the pins cover the
    arrival and identifier draws, the kernel's collision flags (the
    ``txn.collision`` records), the warmup cut and the time-weighted
    density, which must round exactly as before.
    """

    RESULT = {
        "transactions": 866,
        "collision_rate": "0x1.279caca32d863p-2",
        "measured_density": "0x1.728cf6f297d46p+2",
    }
    TRACE_SHA256 = "15d6f9047485ca889b42c9300bc690eb4da39247a51196ca2c74a1e239fc9745"

    def test_result_and_trace_bytes(self, tmp_path):
        import hashlib

        from repro.obs.record import record_montecarlo

        path = tmp_path / "trace.jsonl"
        result = record_montecarlo(
            path, id_bits=5, rate=6.0, horizon=150.0, warmup=4.0, seed=11,
            shards=1,
        )
        assert {
            "transactions": result["transactions"],
            "collision_rate": float.hex(result["collision_rate"]),
            "measured_density": float.hex(result["measured_density"]),
        } == self.RESULT
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.TRACE_SHA256


class TestTrialSeedDerivation:
    """Pin the replicate-seed convention itself.

    Replicate ``k`` of a grid point runs with
    ``derive_seed(base_seed, f"trial:{point}:{k}")`` where ``point`` is
    the canonical JSON of the point's parameters (the former additive
    ``base_seed + 1000*k`` convention aliased across points and base
    seeds).  These integers are part of the published-results contract:
    a drift here re-rolls every replicated experiment.
    """

    def test_simple_point_seeds(self):
        point = canonical_point({"a": 1})
        assert point == '{"a":1}'
        assert derive_trial_seed(0, point, 0) == 6542360885815430476
        assert derive_trial_seed(0, point, 1) == 674222218145868809

    def test_seeds_depend_on_point_base_seed_and_k(self):
        point_a = canonical_point({"a": 1})
        point_b = canonical_point({"a": 2})
        assert derive_trial_seed(0, point_a, 0) != derive_trial_seed(0, point_b, 0)
        assert derive_trial_seed(0, point_a, 0) != derive_trial_seed(1, point_a, 0)
        assert derive_trial_seed(0, point_a, 0) != derive_trial_seed(0, point_a, 1)

    def test_replicate_pins_derived_seeds_and_mean(self):
        config = CollisionTrialConfig(
            id_bits=4, n_senders=3, duration=5.0, selector="uniform", seed=7
        )
        mean, stdev, results = replicate(config, trials=2)
        assert [r.config.seed for r in results] == [
            3034131586988643165,
            14558277552572621749,
        ]
        assert mean == pytest.approx(0.20833333333333331, abs=1e-12)
        assert stdev == pytest.approx(0.032736425054932766, abs=1e-12)


class TestEscalatedFrameWindowGolden:
    """Pin a seeded hybrid run whose burst windows escalate to frame fidelity.

    Frame windows replay every transaction through the collision kernel,
    so these values encode the arrival merge, the identifier draws and
    the collision criterion (tie rule included).  The serial and the
    two-worker runs must produce the same result, the same counters and
    the same trace bytes.
    """

    SCENARIO = dict(n_nodes=10_000, horizon=60, window=3)
    SEED = 3
    THRESHOLD = 70
    TRACE_SHA256 = "21420975ee830ab7a69aefabbfae03d89902fa5106cb5cf3194e37eaca6cd7af"
    WINDOWS_SHA256 = "5040b85e21adbcd1c7df4168670172094e4aae77b846025e65f89e947678b210"
    FRAME_WINDOWS = [(9, 8352, 1898), (10, 8292, 1857)]
    COUNTERS = {
        "flow.collisions": 15658,
        "flow.escalations": 2,
        "flow.transactions": 124495,
        "flow.windows": 20,
    }

    @pytest.fixture(scope="class")
    def scenario(self):
        from repro.flow.streams import massive_scenario

        return massive_scenario(**self.SCENARIO)

    def _check(self, result):
        import hashlib

        assert result.transactions == 124495
        assert result.collisions == 15658
        frames = [
            (w.index, w.transactions, w.collisions)
            for w in result.windows
            if w.fidelity == "frame"
        ]
        assert frames == self.FRAME_WINDOWS
        digest = hashlib.sha256(repr(result.windows).encode()).hexdigest()
        assert digest == self.WINDOWS_SHA256

    def test_serial_result(self, scenario):
        from repro.flow.hybrid import simulate

        self._check(
            simulate(
                scenario, self.SEED, fidelity="hybrid",
                switch_threshold=self.THRESHOLD,
            )
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_traced_result_counters_and_bytes(self, scenario, tmp_path, workers):
        import hashlib

        from repro.exec import TrialRunner
        from repro.flow.shard import simulate_traced
        from repro.obs.metrics import MetricsRegistry, collecting

        path = tmp_path / "trace.jsonl"
        with collecting(MetricsRegistry()) as registry:
            result = simulate_traced(
                scenario, self.SEED, path, fidelity="hybrid",
                switch_threshold=self.THRESHOLD,
                runner=TrialRunner(workers=workers),
            )
        self._check(result)
        for name, value in self.COUNTERS.items():
            assert registry.counter(name) == value
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.TRACE_SHA256


class TestWireFragmentBytesGolden:
    """Pin the encoded bytes of every AFF fragment kind.

    Intro, data and notify fragments at identifier widths from 0 to 62
    bits, so the fields start at every bit offset within a byte; data
    payloads of 0, 1 and 255 bytes at byte offsets that are odd, large
    and at the 16-bit limit.  The digest covers the bit codec's layout
    (MSB-first packing, zero padding of the final byte); every frame
    must also decode back to the fragment that made it.
    """

    ID_BITS = (0, 1, 4, 8, 9, 16, 30, 62)
    OFFSETS = (0, 1, 27, 4097, 65535)
    PAYLOAD_SIZES = (0, 1, 255)
    SHA256 = "f78fa59ddf64b32bcc0b24b9ca8eef0252841c9b82bc3db7c308a5d4426b1dcc"

    def _fragments(self, bits):
        from repro.aff.wire import DataFragment, IntroFragment, NotifyFragment

        top = (1 << bits) - 1
        for identifier in sorted({0, top // 3, top}):
            yield IntroFragment(
                identifier=identifier, total_length=80 + bits, checksum=0xA5C3 ^ bits
            )
            for offset in self.OFFSETS:
                for size in self.PAYLOAD_SIZES:
                    payload = bytes((offset + 37 * i + bits) & 0xFF for i in range(size))
                    yield DataFragment(
                        identifier=identifier, offset=offset, payload=payload
                    )
            yield NotifyFragment(identifier=identifier)

    def test_encoded_bytes(self):
        import hashlib

        from repro.aff.wire import FragmentCodec

        digest = hashlib.sha256()
        for bits in self.ID_BITS:
            codec = FragmentCodec(bits)
            for fragment in self._fragments(bits):
                frame = codec.encode(fragment)
                assert codec.decode(frame) == fragment
                digest.update(len(frame).to_bytes(2, "big") + frame)
        assert digest.hexdigest() == self.SHA256


class TestFigure4TrialGolden:
    """Pin every observable of the Figure-4 testbed trials.

    The four configs of the §5.1 testbed (uniform and listening
    selectors at 4 and 8 bits, 10 simulated seconds), run through
    ``replicate`` with base seed 1 as the repository benchmark runs
    them.  A trial drives the event kernel, the radio, the MAC, the
    AFF codec and reassembly, so any reordering or codec change shows
    up here.  Floats are compared by ``float.hex``.
    """

    OBSERVABLES = {
        ("uniform", 4): {
            "received_unique": 357,
            "received_aff": 242,
            "would_be_lost": 115,
            "collision_loss_rate": "0x1.49dc2549dc255p-2",
            "e2e_loss_rate": "0x1.49dc2549dc255p-2",
            "measured_density": "0x1.2b60a59690617p+2",
            "packets_offered": 357,
            "ground_truth_collision_rate": "0x1.7d7d7d7d7d7d8p-2",
            "frames_delivered": 8925,
            "frames_dropped_rf": 0,
            "frames_dropped_channel": 0,
        },
        ("listening", 4): {
            "received_unique": 356,
            "received_aff": 334,
            "would_be_lost": 22,
            "collision_loss_rate": "0x1.fa3f47e8fd1fap-5",
            "e2e_loss_rate": "0x1.fa3f47e8fd1fap-5",
            "measured_density": "0x1.2b1378609292ep+2",
            "packets_offered": 356,
            "ground_truth_collision_rate": "0x1.fa3f47e8fd1fap-5",
            "frames_delivered": 8900,
            "frames_dropped_rf": 0,
            "frames_dropped_channel": 0,
        },
        ("uniform", 8): {
            "received_unique": 358,
            "received_aff": 354,
            "would_be_lost": 4,
            "collision_loss_rate": "0x1.6e1f76b4337c7p-7",
            "e2e_loss_rate": "0x1.6e1f76b4337c7p-7",
            "measured_density": "0x1.2e8dc57a65aa5p+2",
            "packets_offered": 358,
            "ground_truth_collision_rate": "0x1.c9a75461405b8p-6",
            "frames_delivered": 8950,
            "frames_dropped_rf": 0,
            "frames_dropped_channel": 0,
        },
        ("listening", 8): {
            "received_unique": 355,
            "received_aff": 349,
            "would_be_lost": 6,
            "collision_loss_rate": "0x1.14e9a52355d06p-6",
            "e2e_loss_rate": "0x1.14e9a52355d06p-6",
            "measured_density": "0x1.2dbf2e4f1c939p+2",
            "packets_offered": 355,
            "ground_truth_collision_rate": "0x1.14e9a52355d06p-6",
            "frames_delivered": 8875,
            "frames_dropped_rf": 0,
            "frames_dropped_channel": 0,
        },
    }

    @pytest.mark.parametrize(
        "selector, id_bits",
        [("uniform", 4), ("listening", 4), ("uniform", 8), ("listening", 8)],
    )
    def test_trial_observables(self, selector, id_bits):
        from dataclasses import fields

        config = CollisionTrialConfig(
            id_bits=id_bits, selector=selector, duration=10.0, seed=1
        )
        _mean, _stdev, results = replicate(config, trials=1)
        observed = {}
        for f in fields(results[0]):
            if f.name == "config":
                continue
            value = getattr(results[0], f.name)
            observed[f.name] = float.hex(value) if isinstance(value, float) else value
        assert observed == self.OBSERVABLES[(selector, id_bits)]


class TestMergedTraceBytesGolden:
    """Pin the merged trace bytes of a range-sharded trace export.

    The hybrid run has frame windows, so its trace holds ~17k
    ``flow.txn`` records between the ``flow.window`` / ``flow.outcome``
    records; one shard and three shards must merge to the same bytes.
    The pin covers the whole pipeline: record encoding, shard reading
    and the k-way merge.
    """

    HYBRID_TRACE_SHA256 = (
        "99a4596572b3129b7a5bd5a90f2a0d7f665339f91907f68593f9d2c4511de8c2"
    )

    @pytest.mark.parametrize("shards", [1, 3])
    def test_hybrid_merged_trace(self, tmp_path, shards):
        import hashlib

        from repro.flow.shard import simulate_traced
        from repro.flow.streams import massive_scenario

        path = tmp_path / "trace.jsonl"
        result = simulate_traced(
            massive_scenario(10_000, horizon=60, window=3),
            1,
            path,
            fidelity="hybrid",
            switch_threshold=70,
            shards=shards,
        )
        assert (result.transactions, result.collisions) == (124780, 16034)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.HYBRID_TRACE_SHA256
