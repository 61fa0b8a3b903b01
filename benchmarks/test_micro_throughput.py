"""Microbenchmarks: throughput of the core primitives.

Not a paper figure — these time the building blocks so performance
regressions in the simulator or codec are caught: event-queue rate,
fragmentation/reassembly throughput, AFF frame decoding (the word-level
bit codec vs the byte-at-a-time one it replaced), the trace pipeline
(columnar write, line merge and chunked read vs the record-at-a-time
path in ``tests/oracles.py``), selector draw rate,
the analytic model's sweep speed, and the Monte Carlo single-trial path
(the collision-kernel path vs the pre-optimisation implementation, plus
horizon-shard scaling).  The Monte Carlo benchmark publishes
``micro_throughput`` (→ ``micro_throughput.txt`` +
``BENCH_micro_throughput.json``), which ``python -m repro bench-trend``
tracks across runs.
"""

import itertools
import random
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.aff.fragmenter import Fragmenter
from repro.aff.reassembler import Reassembler
from repro.aff.wire import DataFragment, FragmentCodec, IntroFragment, NotifyFragment
from repro.core import model
from repro.core.identifiers import IdentifierSpace, ListeningSelector, UniformSelector
from repro.sim.engine import Simulator
from repro.util.bits import BitstreamError


def test_event_queue_throughput(benchmark):
    def run():
        sim = Simulator()
        counter = [0]

        def tick():
            counter[0] += 1
            if counter[0] < 10_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return counter[0]

    assert benchmark(run) == 10_000


def test_fragmentation_throughput(benchmark):
    frag = Fragmenter(FragmentCodec(9), mtu_bytes=27)
    payload = bytes(range(256)) * 4  # 1 KiB

    def run():
        plan = frag.fragment(payload, identifier=13)
        return sum(len(frag.codec.encode(f)) for f in plan.fragments)

    assert benchmark(run) > 0


def test_reassembly_throughput(benchmark):
    frag = Fragmenter(FragmentCodec(9), mtu_bytes=27)
    payload = bytes(range(256)) * 4
    fragments = frag.fragment(payload, identifier=13).fragments

    def run():
        reasm = Reassembler()
        out = None
        for f in fragments:
            result = reasm.accept(f, now=0.0)
            if result is not None:
                out = result
        return out

    assert benchmark(run) == payload


# ----------------------------------------------------------------------
# AFF frame decoding: word-level bit codec vs the byte-at-a-time one
# ----------------------------------------------------------------------
# Baseline: a frozen replica of the bit reader as it stood before the
# word-level codec, and of FragmentCodec.decode running on it.  Embedded
# here, like the Monte Carlo baseline below, so the package can keep
# improving without dragging the baseline along with it.


class _SeedBitReader:
    def __init__(self, data: bytes):
        self._data = data
        self._bit_pos = 0

    @property
    def bits_remaining(self) -> int:
        return 8 * len(self._data) - self._bit_pos

    def read(self, bits: int) -> int:
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
        return bytes(self.read(8) for _ in range(count))


def _seed_decode(id_bits: int, data: bytes):
    """FragmentCodec.decode on the byte-at-a-time reader (well-formed input)."""
    reader = _SeedBitReader(data)
    kind = reader.read(2)
    identifier = reader.read(id_bits)
    if kind == 0:
        total_length = reader.read(16)
        checksum = reader.read(16)
        return IntroFragment(
            identifier=identifier, total_length=total_length, checksum=checksum
        )
    if kind == 1:
        offset = reader.read(16)
        length = reader.read(8)
        return DataFragment(
            identifier=identifier, offset=offset, payload=reader.read_bytes(length)
        )
    return NotifyFragment(identifier=identifier)


def test_codec_decode_ratio():
    """Decode the frames of an 80-byte packet, old reader vs new.

    The Figure-4 testbed's packet (80 bytes over 27-byte frames) at 4,
    8 and 9 identifier bits, 400 times over, best of 5.  Both decoders
    must return the same fragments, and the word-level codec must be at
    least 3x faster in this process.
    """
    payload = bytes(range(80))
    frames = []
    for id_bits in (4, 8, 9):
        codec = FragmentCodec(id_bits)
        plan = Fragmenter(codec, mtu_bytes=27).fragment(payload, identifier=11)
        frames += [(codec, codec.encode(f)) for f in plan.fragments]

    def run_old():
        out = []
        for _ in range(400):
            out = [_seed_decode(codec.id_bits, frame) for codec, frame in frames]
        return out

    def run_new():
        out = []
        for _ in range(400):
            out = [codec.decode(frame) for codec, frame in frames]
        return out

    old_wall, old_result = _best_of(run_old, repeats=5)
    new_wall, new_result = _best_of(run_new, repeats=5)
    assert new_result == old_result
    ratio = old_wall / new_wall
    print(
        f"AFF decode, {len(frames)} frames x 400: byte-at-a-time "
        f"{old_wall * 1000:.1f} ms, word-level {new_wall * 1000:.1f} ms ({ratio:.2f}x)"
    )
    assert ratio >= 3.0, f"codec decode speedup {ratio:.2f}x below the 3.0x floor"


def _trace_oracles():
    """``tests/oracles.py``, loaded by path (``benchmarks/`` is no package)."""
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("trace_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_shard(path, records, columnar):
    """Write ``records`` as one shard, as a traced window range writes it.

    Columnar: each window's run of ``flow.txn`` records goes through one
    ``emit_columns`` call, everything else through ``emit``.  Otherwise
    every record is one ``emit``.
    """
    from repro.obs.envelope import TraceWriter

    with TraceWriter(path) as writer:
        for _, group in itertools.groupby(
            records, key=lambda r: (r.category, r.fields.get("window"))
        ):
            group = list(group)
            if columnar and group[0].category == "flow.txn":
                writer.emit_columns(
                    [r.time for r in group],
                    "flow.txn",
                    window=[r["window"] for r in group],
                    identifier=[r["identifier"] for r in group],
                    collided=[r["collided"] for r in group],
                )
            else:
                for r in group:
                    writer.emit(r.time, r.category, **r.fields)


def test_trace_pipeline_ratio(tmp_path):
    """Write, merge and read one hybrid trace, record-at-a-time vs now.

    The trace is the ~17k-record hybrid run of the merged-trace golden
    pin, split into two shards at its middle window.  The old pipeline
    writes each record with its own ``emit``, merges through
    ``TraceRecord`` and reads line by line (``tests/oracles.py``); the
    new one writes each window's ``flow.txn`` records by column, merges
    lines and reads a chunk at a time.  Both must produce the same shard
    bytes, merged bytes and records; the new one must be at least 2x
    faster in this process, best of 3.
    """
    from repro.flow.shard import simulate_traced
    from repro.flow.streams import massive_scenario
    from repro.obs.envelope import read_trace
    from repro.obs.merge import merge_shards

    oracles = _trace_oracles()
    source = tmp_path / "source.jsonl"
    simulate_traced(
        massive_scenario(10_000, horizon=60, window=3),
        1,
        source,
        fidelity="hybrid",
        switch_threshold=70,
    )
    records = list(read_trace(source))
    cut = next(k for k, r in enumerate(records) if r.fields.get("window") == 10)
    halves = (records[:cut], records[cut:])

    def pipeline(columnar, merge, read, tag):
        shards = [tmp_path / f"{tag}-{k}.jsonl" for k in range(2)]
        for shard, half in zip(shards, halves):
            _write_shard(shard, half, columnar)
        merge(shards, tmp_path / f"{tag}.jsonl")
        return list(read(tmp_path / f"{tag}.jsonl"))

    old_wall, old_records = _best_of(
        lambda: pipeline(False, oracles.merge_shards, oracles.read_trace, "old"),
        repeats=3,
    )
    new_wall, new_records = _best_of(
        lambda: pipeline(True, merge_shards, read_trace, "new"), repeats=3
    )
    for name in ("-0.jsonl", "-1.jsonl", ".jsonl"):
        assert (tmp_path / f"new{name}").read_bytes() == (tmp_path / f"old{name}").read_bytes()
    assert [repr(r) for r in new_records] == [repr(r) for r in old_records]
    # The same records and bytes as the trace they came from, header aside.
    merged = (tmp_path / "new.jsonl").read_bytes()
    assert merged.partition(b"\n")[2] == source.read_bytes().partition(b"\n")[2]
    ratio = old_wall / new_wall
    print(
        f"trace write+merge+read, {len(records)} records: record-at-a-time "
        f"{old_wall * 1000:.1f} ms, columnar/chunked {new_wall * 1000:.1f} ms "
        f"({ratio:.2f}x)"
    )
    assert ratio >= 2.0, f"trace pipeline speedup {ratio:.2f}x below the 2.0x floor"


def test_uniform_selector_rate(benchmark):
    selector = UniformSelector(IdentifierSpace(9), random.Random(1))

    def run():
        return [selector.select() for _ in range(1000)]

    assert len(benchmark(run)) == 1000


def test_listening_selector_rate(benchmark):
    selector = ListeningSelector(
        IdentifierSpace(9), random.Random(1), density_hint=16
    )
    for i in range(64):
        selector.observe(i % 512)

    def run():
        return [selector.select() for _ in range(1000)]

    assert len(benchmark(run)) == 1000


def test_model_sweep_rate(benchmark):
    def run():
        total = 0.0
        for density in (4, 16, 64, 256, 1024):
            _, eff = model.sweep_aff_efficiency(16, density, (1, 48))
            total += float(eff.sum())
        return total

    assert benchmark(run) > 0


# ----------------------------------------------------------------------
# Monte Carlo single-trial throughput: kernel path + horizon shards
# ----------------------------------------------------------------------
# Baseline: a frozen replica of the Monte Carlo path as it stood before
# the fast event core landed — dict-backed field-equality Transaction,
# delegating TimeWeightedValue.adjust, and the build-list/double/sort
# replay.  Embedded here (rather than imported) so the current package
# can keep improving without dragging the baseline along with it.

_seed_txn_seq = itertools.count(1)


@dataclass
class _SeedTransaction:
    owner: int
    identifier: int
    start: float
    audience: Optional[frozenset] = None
    end: Optional[float] = None
    uid: int = field(default_factory=lambda: next(_seed_txn_seq))

    @property
    def open(self) -> bool:
        return self.end is None

    def shares_audience(self, other: "_SeedTransaction") -> bool:
        if self.audience is None or other.audience is None:
            return True
        return bool(self.audience & other.audience)


class _SeedTimeWeightedValue:
    def __init__(self, time: float = 0.0, value: float = 0.0):
        self._start = time
        self._last_time = time
        self._value = value
        self._integral = 0.0

    def set(self, time: float, value: float) -> None:
        if time < self._last_time:
            raise ValueError("TimeWeightedValue updates must be time-ordered")
        self._integral += self._value * (time - self._last_time)
        self._last_time = time
        self._value = value

    def adjust(self, time: float, delta: float) -> None:
        self.set(time, self._value + delta)

    def average(self, now: float) -> float:
        integral = self._integral + self._value * (now - self._last_time)
        span = now - self._start
        return integral / span if span > 0 else self._value


class _SeedTransactionLog:
    def __init__(self) -> None:
        self._all: List[_SeedTransaction] = []
        self._open_by_id: Dict[int, List[_SeedTransaction]] = {}
        self._collided: Set[int] = set()
        self._density = _SeedTimeWeightedValue()
        self._last_time = 0.0

    def begin(self, owner, identifier, time, audience=None):
        txn = _SeedTransaction(
            owner=owner,
            identifier=identifier,
            start=time,
            audience=frozenset(audience) if audience is not None else None,
        )
        for peer in self._open_by_id.get(identifier, ()):
            if peer.owner != owner and txn.shares_audience(peer):
                self._collided.add(txn.uid)
                self._collided.add(peer.uid)
        self._all.append(txn)
        self._open_by_id.setdefault(identifier, []).append(txn)
        self._density.adjust(time, +1)
        self._last_time = max(self._last_time, time)
        return txn

    def end(self, txn, time):
        if not txn.open:
            raise ValueError("already ended")
        txn.end = time
        open_list = self._open_by_id.get(txn.identifier, [])
        if txn in open_list:
            open_list.remove(txn)
            if not open_list:
                del self._open_by_id[txn.identifier]
        self._density.adjust(time, -1)
        self._last_time = max(self._last_time, time)

    def collided(self, txn) -> bool:
        return txn.uid in self._collided

    def measured_density(self) -> float:
        return self._density.average(self._last_time)


def _seed_simulate(id_bits, arrival_rate, duration_sampler, horizon, rng, warmup=0.0):
    """The pre-fast-core simulate_collision_rate, verbatim semantics."""
    space = IdentifierSpace(id_bits)
    log = _SeedTransactionLog()
    events = []
    time = 0.0
    owner = 0
    while True:
        time += rng.expovariate(arrival_rate)
        if time >= horizon:
            break
        duration = duration_sampler(rng)
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
    collided = sum(1 for t in tracked if log.collided(t))
    return len(tracked), collided / len(tracked), log.measured_density()


_MC_ID_BITS = 10
_MC_RATE = 12.0
_MC_HORIZON = 2000.0
_MC_SEED = 9


def _best_of(fn, repeats=3):
    """(best_wall_seconds, last_result) over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = _time.perf_counter()
        result = fn()
        wall = _time.perf_counter() - t0
        if wall < best:
            best = wall
    return best, result


def test_montecarlo_trial_throughput(benchmark, publish):
    """Kernel path vs the pre-change baseline.

    Two measurements on one long-horizon trial (~24k transactions):

    * the frozen pre-optimisation implementation above;
    * the current kernel path (also timed by pytest-benchmark, so
      its mean feeds ``bench-trend``) — asserted bit-identical to the
      baseline.
    """
    from repro.core.montecarlo import ExponentialDuration, simulate_collision_rate

    sampler = ExponentialDuration(1.0)

    def run_seed():
        return _seed_simulate(
            _MC_ID_BITS, _MC_RATE, sampler, _MC_HORIZON, random.Random(_MC_SEED)
        )

    def run_fast():
        r = simulate_collision_rate(
            _MC_ID_BITS, _MC_RATE, sampler, horizon=_MC_HORIZON, seed=_MC_SEED
        )
        return r.transactions, r.collision_rate, r.measured_density

    seed_wall, seed_result = _best_of(run_seed)
    fast_wall, fast_result = _best_of(run_fast)
    assert fast_result == seed_result, "fast core must be bit-identical"
    speedup = seed_wall / fast_wall

    # timing stream for bench-trend: the kernel path, measured properly
    bench_result = benchmark(run_fast)
    assert bench_result == seed_result

    lines = [
        "Monte Carlo single-trial throughput "
        f"(id_bits={_MC_ID_BITS}, rate={_MC_RATE}, horizon={_MC_HORIZON}, "
        f"seed={_MC_SEED}, ~{seed_result[0]} transactions)",
        f"  pre-change baseline : {seed_wall * 1000:8.1f} ms",
        f"  kernel path         : {fast_wall * 1000:8.1f} ms  "
        f"({speedup:.2f}x, bit-identical)",
    ]
    publish(
        "micro_throughput",
        "\n".join(lines),
        metrics={
            "transactions": seed_result[0],
            "collision_rate": seed_result[1],
            "seed_wall": seed_wall,
            "fast_wall": fast_wall,
            "fast_core_speedup": speedup,
        },
    )
    assert speedup >= 1.3, f"fast core speedup {speedup:.2f}x below the 1.3x floor"
