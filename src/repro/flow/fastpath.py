"""Vectorised window sampling, bit-identical to the pure path.

The flow sampler's cost is dominated by two uniform-draw loops per
window — the chunked-Knuth Poisson count and the per-transaction
Bernoulli collision draws (:mod:`repro.flow.sampler`).  Both consume
doubles from a ``random.Random`` (CPython's Mersenne Twister), whose
``random()`` is byte-for-byte the same ``genrand_res53`` recurrence
NumPy's legacy ``RandomState.random_sample`` implements.  That makes
the loops vectorisable *exactly*: transplant the stream's MT19937
state into a ``RandomState``, draw the same uniform sequence in
blocks, and write the advanced state back — every count, every
comparison, and the stream's final state come out identical to the
scalar loop, so fast and pure runs (and therefore serial and sharded
runs at any worker count) agree bit for bit.

Exactness rests on three facts, each pinned by
``tests/test_flow_fastpath.py``:

* ``RandomState.random_sample`` and ``random.Random.random`` produce
  the same doubles from the same MT19937 state (both are two 32-bit
  words folded to 53 bits);
* ``numpy.cumprod`` over a float64 vector performs the same sequential
  rounding as the scalar ``product *= u`` loop, so the Knuth
  termination index is the same draw the scalar loop stops on (each
  chunk's product starts fresh at its first uniform — there is no
  carried partial product whose rounding could differ);
* the final state is reconstructed by advancing a pristine copy of the
  initial state by exactly the number of *consumed* draws, discarding
  the lookahead overdraw the block probing needed.

Frame-fidelity windows draw their identifiers through the same
transplant (:func:`sample_identifiers_fast`): ``randrange`` rejects on
whole 32-bit words, which ``RandomState.randint`` over ``[0, 2**32)``
yields one per draw from the same state.

The fast path steps aside — returning ``None`` so callers fall back to
the scalar loop — when NumPy is unavailable, when a DetSan sanitizer is
active (SAN001's draw ledger must observe every scalar draw), when the
stream is not a plain ``random.Random`` (e.g. an instrumented proxy),
or inside a :func:`pure_sampling` block (used by the equivalence tests
and the ``flow_scaling`` benchmark to measure the speedup).
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the package
    _np = None  # type: ignore[assignment]

from ..analysis.sanitizer.runtime import active_sanitizer
from .sampler import (
    _POISSON_CHUNK,
    WindowOutcome,
    WindowSpec,
    window_collision_probability,
)

__all__ = [
    "HAVE_NUMPY",
    "fastpath_stats",
    "pure_sampling",
    "sample_identifiers_fast",
    "sample_window_fast",
]

#: Whether the vectorised path can exist at all in this environment.
HAVE_NUMPY = _np is not None

#: ``random.Random.getstate()`` tuple version this module understands.
_MT_VERSION = 3

#: Minimum uniforms drawn per lookahead refill (amortises call overhead).
_BLOCK = 8192

#: Cap on one Bernoulli block (bounds peak memory at ~8 MiB of doubles).
_BERNOULLI_BLOCK = 1 << 20

#: Below this expected draw count the scalar loop beats the transplant
#: overhead (state rebuild + write-back are ~100 µs per window); the
#: scalar and fast paths are bit-identical, so the cut-over is purely a
#: performance decision.
_MIN_FAST_MEAN = 4096.0

_forced_pure = False


@contextmanager
def pure_sampling() -> Iterator[None]:
    """Force the scalar sampling path within the block (for tests/benchmarks)."""
    global _forced_pure
    previous = _forced_pure
    _forced_pure = True
    try:
        yield
    finally:
        _forced_pure = previous


def _eligible(rng: random.Random, draws: Tuple[str, ...] = ("random",)) -> bool:
    """Whether ``rng``'s state may be transplanted for the given draw methods."""
    if _np is None or _forced_pure:
        return False
    if active_sanitizer() is not None:
        return False
    if not isinstance(rng, random.Random):
        return False
    # An instrumented/overridden stream must keep drawing through its
    # own methods; only the plain C implementation is transplantable.
    cls = type(rng)
    return all(
        getattr(cls, name) is getattr(random.Random, name)
        for name in draws + ("getstate", "setstate")
    )


#: Reused ``RandomState`` instances (``set_state`` overwrites them
#: fully, and flow sampling is single-threaded per process), avoiding a
#: per-window construction that would read OS entropy just to be
#: discarded.
_tape_state: Any = None
_advance_state: Any = None


def _rebuild(rs: Any, state: Tuple[Any, ...]) -> Any:
    """Position a ``RandomState`` at the ``random.Random`` state tuple."""
    keys = state[1]
    if rs is None:
        rs = _np.random.RandomState(0)
    rs.set_state(("MT19937", _np.asarray(keys[:-1], dtype=_np.uint32), keys[-1]))
    return rs


def _store(rng: random.Random, rs: Any, state: Tuple[Any, ...]) -> None:
    """Move ``rng`` to ``rs``'s position (``state`` supplies the gauss slot)."""
    _kind, keys, pos, _has_gauss, _gauss = rs.get_state(legacy=True)
    rng.setstate((_MT_VERSION, tuple(keys.tolist()) + (int(pos),), state[2]))


def _writeback(rng: random.Random, state: Tuple[Any, ...], consumed: int) -> None:
    """Advance ``rng`` past exactly ``consumed`` draws from ``state``."""
    global _advance_state
    _advance_state = rs = _rebuild(_advance_state, state)
    if consumed:
        rs.random_sample(consumed)
    _store(rng, rs, state)


class _UniformTape:
    """The stream's uniform sequence, drawn in blocks with lookahead.

    ``random_sample(n)`` consumes the underlying state draw by draw, so
    the concatenation of refills is exactly the scalar draw sequence
    regardless of block sizes.  ``consumed`` counts only the draws the
    sampler committed to; lookahead beyond it is discarded by
    :func:`_writeback`.
    """

    def __init__(self, state: Any) -> None:
        self._state = state
        self._buf: Any = _np.empty(0, dtype=_np.float64)
        self._pos = 0
        self.consumed = 0

    def reserve(self, n: int) -> None:
        """Pre-draw so the next ``n`` uniforms need no refill."""
        self._ensure(n)

    def _ensure(self, n: int) -> None:
        available = int(self._buf.shape[0]) - self._pos
        if available >= n:
            return
        fresh = self._state.random_sample(max(n - available, _BLOCK))
        self._buf = _np.concatenate([self._buf[self._pos :], fresh])
        self._pos = 0

    def poisson_chunk(self, mean: float) -> int:
        """One Knuth chunk: the scalar ``while product > exp(-mean)`` loop.

        The chunk's running product starts at its own first uniform, so
        ``cumprod`` over the lookahead reproduces the scalar rounding
        sequence exactly; the first index at or under the limit is the
        draw the scalar loop stops on.
        """
        limit = math.exp(-mean)
        # ~8 sigma of lookahead finds the stop in one probe essentially
        # always; the loop doubles on the astronomical misses.
        need = int(mean + 8.0 * math.sqrt(mean + 1.0)) + 16
        while True:
            self._ensure(need)
            pos = self._pos
            cum = self._buf[pos : pos + need].cumprod()
            # cumprod of [0, 1) uniforms is non-increasing, so the tail
            # being under the limit guarantees a first crossing exists
            # and bool argmax finds it.
            if cum[-1] <= limit:
                count = int((cum <= limit).argmax())
                self._pos = pos + count + 1
                self.consumed += count + 1
                return count
            need *= 2

    def poisson(self, mean: float) -> int:
        """The chunked sampler, mirroring :func:`repro.flow.sampler.poisson`."""
        total = 0
        remaining = mean
        # One reserve for the whole draw: expected consumption is one
        # uniform past the mean per chunk, plus ~8 sigma of slack.
        chunks = int(mean // _POISSON_CHUNK) + 1
        self.reserve(int(mean + 8.0 * math.sqrt(mean + 1.0)) + chunks + 32)
        while remaining > _POISSON_CHUNK:
            total += self.poisson_chunk(_POISSON_CHUNK)
            remaining -= _POISSON_CHUNK
        if remaining > 0:
            total += self.poisson_chunk(remaining)
        return total


def sample_window_fast(
    window: WindowSpec,
    id_bits: int,
    rng: random.Random,
    model: str = "mixed",
) -> Optional[WindowOutcome]:
    """Vectorised :func:`repro.flow.sampler.sample_window`, or ``None``.

    ``None`` means "not eligible here — run the scalar path"; a
    returned outcome is bit-identical to the scalar path's, including
    the state ``rng`` is left in.
    """
    if window.arrival_rate * window.width < _MIN_FAST_MEAN:
        return None
    if not _eligible(rng):
        return None
    state = rng.getstate()
    if state[0] != _MT_VERSION or len(state[1]) != 625:
        return None
    global _tape_state, _advance_state
    _tape_state = source = _rebuild(_tape_state, state)
    tape = _UniformTape(source)
    n = tape.poisson(window.arrival_rate * window.width)
    if n == 0:
        _writeback(rng, state, tape.consumed)
        return WindowOutcome(window.index, "flow", 0, 0, window.density)
    try:
        p = float(window_collision_probability(id_bits, window, model))
    except ValueError:
        # Leave the stream where the scalar path would have left it
        # (past the Poisson draws) before propagating.
        _writeback(rng, state, tape.consumed)
        raise
    # Bernoulli phase: the draw count is known now, so draw the exact
    # ``n`` uniforms from a fresh state advanced past the Poisson
    # consumption — nothing here is lookahead, and the final stream
    # state falls out of this state without a second re-advance.
    _advance_state = rs = _rebuild(_advance_state, state)
    if tape.consumed:
        rs.random_sample(tape.consumed)
    collisions = 0
    remaining = n
    while remaining > 0:
        block = rs.random_sample(min(remaining, _BERNOULLI_BLOCK))
        collisions += int(_np.count_nonzero(block < p))
        remaining -= int(block.shape[0])
    _store(rng, rs, state)
    return WindowOutcome(window.index, "flow", n, collisions, window.density)


#: Below this many identifier draws the scalar loop beats the state
#: rebuild and write-back; both paths are bit-identical.
_MIN_FAST_IDS = 1024

#: The methods ``IdentifierSpace.sample`` draws through.
_ID_DRAWS = ("randrange", "_randbelow", "getrandbits")


def sample_identifiers_fast(id_bits: int, rng: random.Random, n: int) -> Optional[Any]:
    """``n`` draws of ``IdentifierSpace(id_bits).sample(rng)``, or ``None``.

    ``sample`` is ``rng.randrange(2**id_bits)``, which CPython draws by
    rejection on ``getrandbits(k)`` with ``k = (2**id_bits).bit_length()``:
    for ``k <= 32`` one MT19937 word shifted right by ``32 - k`` per
    attempt, kept when below the space size.  Each round here draws
    exactly as many words as identifiers are still missing — the scalar
    loop would consume at least that many — so nothing is overdrawn and
    the transplanted state's final position is the stream's.

    ``None`` means "not eligible here — run the scalar loop"; a
    returned ``int64`` array is bit-identical to the loop's draws, and
    ``rng`` is left where the loop would leave it.
    """
    size = 1 << id_bits
    k = size.bit_length()
    if n < _MIN_FAST_IDS or k > 32 or not _eligible(rng, _ID_DRAWS):
        return None
    state = rng.getstate()
    if state[0] != _MT_VERSION or len(state[1]) != 625:
        return None
    global _tape_state
    _tape_state = rs = _rebuild(_tape_state, state)
    shift = _np.uint32(32 - k)
    kept: List[Any] = []
    missing = n
    while missing:
        words = rs.randint(0, 1 << 32, size=missing, dtype=_np.uint32) >> shift
        accepted = words[words < size]
        kept.append(accepted)
        missing -= int(accepted.shape[0])
    _store(rng, rs, state)
    return _np.concatenate(kept).astype(_np.int64)


def fastpath_stats() -> Dict[str, bool]:
    """Why the fast path is (or is not) active right now — for summaries."""
    return {
        "numpy": HAVE_NUMPY,
        "forced_pure": _forced_pure,
        "sanitizer": active_sanitizer() is not None,
    }
