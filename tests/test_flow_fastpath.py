"""The vectorised sampling fast path is bit-identical to the scalar loop.

Three facts make the NumPy transplant exact (see the module docstring
of :mod:`repro.flow.fastpath`); each is pinned here directly, and then
the end-to-end guarantee — same outcomes *and* same final stream state
as the scalar loop — is checked on real windows, along with every
eligibility gate that makes the fast path step aside.
"""

import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.identifiers import IdentifierSpace
from repro.flow.fastpath import (
    HAVE_NUMPY,
    _MIN_FAST_IDS,
    _MIN_FAST_MEAN,
    fastpath_stats,
    pure_sampling,
    sample_identifiers_fast,
    sample_window_fast,
)
from repro.flow.sampler import WindowSpec, sample_window

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")

if HAVE_NUMPY:
    import numpy as np


def big_window(mean=8192.0, width=10.0, index=0):
    """A window whose expected draw count clears the fast-path gate."""
    rate = mean / width
    return WindowSpec(
        index=index,
        t0=index * width,
        t1=(index + 1) * width,
        arrival_rate=rate,
        durations=(0.05,),
        weights=(rate,),
        density=rate * 0.05,
    )


@needs_numpy
class TestTransplantFacts:
    def test_random_sample_matches_random_random(self):
        # Fact 1: both fold the same two MT19937 words into one double.
        rng = random.Random(123)
        state = rng.getstate()
        rs = np.random.RandomState(0)
        rs.set_state(
            ("MT19937", np.asarray(state[1][:-1], dtype=np.uint32), state[1][-1])
        )
        vector = rs.random_sample(1000)
        scalars = [rng.random() for _ in range(1000)]
        assert vector.tolist() == scalars

    def test_cumprod_matches_sequential_product(self):
        # Fact 2: cumprod rounds exactly like the scalar running product.
        rng = random.Random(7)
        draws = np.asarray([rng.random() for _ in range(5000)])
        running = []
        product = 1.0
        for value in draws.tolist():
            product *= value
            running.append(product)
        assert np.cumprod(draws).tolist() == running

    def test_final_state_equals_scalar_advance(self):
        # Fact 3: write-back leaves the stream exactly where the same
        # number of scalar draws would have.
        fast = random.Random(99)
        pure = random.Random(99)
        window = big_window()
        outcome = sample_window_fast(window, 10, fast)
        assert outcome is not None
        with pure_sampling():
            sample_window(window, 10, pure)
        assert fast.getstate() == pure.getstate()
        # The streams keep agreeing on every draw afterwards.
        assert [fast.random() for _ in range(10)] == [
            pure.random() for _ in range(10)
        ]


@needs_numpy
class TestBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**31])
    @pytest.mark.parametrize("mean", [4096.0, 8192.0, 100_000.0])
    def test_outcome_and_state_match_pure(self, seed, mean):
        window = big_window(mean=mean)
        fast_rng = random.Random(seed)
        pure_rng = random.Random(seed)
        fast = sample_window(window, 10, fast_rng)
        with pure_sampling():
            pure = sample_window(window, 10, pure_rng)
        assert fast == pure
        assert fast_rng.getstate() == pure_rng.getstate()

    def test_chunked_means_cross_poisson_chunks(self):
        # Means past _POISSON_CHUNK exercise the chunk loop; the draw
        # sequence must still be the scalar one.
        window = big_window(mean=1750.0 * 3)
        fast_rng = random.Random(5)
        pure_rng = random.Random(5)
        assert sample_window(window, 8, fast_rng) == _pure(window, 8, pure_rng)
        assert fast_rng.getstate() == pure_rng.getstate()

    def test_eq4_model_matches(self):
        window = big_window()
        fast_rng = random.Random(3)
        pure_rng = random.Random(3)
        fast = sample_window(window, 10, fast_rng, model="eq4")
        with pure_sampling():
            pure = sample_window(window, 10, pure_rng, model="eq4")
        assert fast == pure
        assert fast_rng.getstate() == pure_rng.getstate()

    def test_bad_model_raises_with_stream_advanced(self):
        window = big_window()
        fast_rng = random.Random(17)
        pure_rng = random.Random(17)
        with pytest.raises(ValueError):
            sample_window(window, 10, fast_rng, model="nope")
        with pure_sampling(), pytest.raises(ValueError):
            sample_window(window, 10, pure_rng, model="nope")
        # Both paths left the stream past the Poisson draws.
        assert fast_rng.getstate() == pure_rng.getstate()


def _pure(window, id_bits, rng):
    with pure_sampling():
        return sample_window(window, id_bits, rng)


class TestEligibilityGates:
    @needs_numpy
    def test_small_mean_uses_scalar_path(self):
        window = big_window(mean=_MIN_FAST_MEAN / 2)
        assert sample_window_fast(window, 10, random.Random(0)) is None

    @needs_numpy
    def test_pure_sampling_forces_scalar(self):
        with pure_sampling():
            assert sample_window_fast(big_window(), 10, random.Random(0)) is None
            assert fastpath_stats()["forced_pure"]
        assert not fastpath_stats()["forced_pure"]

    @needs_numpy
    def test_subclassed_rng_is_ineligible(self):
        class Counting(random.Random):
            calls = 0

            def random(self):
                type(self).calls += 1
                return super().random()

        rng = Counting(0)
        assert sample_window_fast(big_window(), 10, rng) is None
        # The scalar fallback keeps drawing through the override.
        sample_window(big_window(), 10, rng)
        assert Counting.calls > 0

    @needs_numpy
    def test_sanitizer_forces_scalar(self):
        from repro.analysis.sanitizer.runtime import sanitizing

        with sanitizing():
            assert fastpath_stats()["sanitizer"]
            assert sample_window_fast(big_window(), 10, random.Random(0)) is None
        assert not fastpath_stats()["sanitizer"]

    def test_sample_window_agrees_under_sanitizer(self):
        # DetSan runs must still produce the same numbers as plain
        # runs — the sanitizer only changes *how* draws happen.
        from repro.analysis.sanitizer.runtime import sanitizing

        window = big_window()
        plain = sample_window(window, 10, random.Random(8))
        with sanitizing():
            sanitized = sample_window(window, 10, random.Random(8))
        assert sanitized == plain


def _scalar_identifiers(id_bits, rng, n):
    sample = IdentifierSpace(id_bits).sample
    return [sample(rng) for _ in range(n)]


@needs_numpy
class TestIdentifierTransplant:
    """Vectorised identifier draws == the ``IdentifierSpace.sample`` loop."""

    @pytest.mark.parametrize("id_bits", [0, 1, 4, 10, 16, 21, 30])
    @pytest.mark.parametrize("n", [_MIN_FAST_IDS, 5000])
    def test_draws_and_final_state_match_scalar_loop(self, id_bits, n):
        fast_rng = random.Random(id_bits * 1000 + n)
        fast_rng.gauss(0.0, 1.0)  # populate the gauss slot the state carries
        pure_rng = random.Random()
        pure_rng.setstate(fast_rng.getstate())
        fast = sample_identifiers_fast(id_bits, fast_rng, n)
        assert fast is not None
        assert fast.tolist() == _scalar_identifiers(id_bits, pure_rng, n)
        assert fast_rng.getstate() == pure_rng.getstate()

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        id_bits=st.sampled_from([0, 1, 4, 10, 16, 21, 30, 31]),
        n=st.integers(_MIN_FAST_IDS, 3 * _MIN_FAST_IDS),
    )
    def test_any_seed(self, seed, id_bits, n):
        fast_rng, pure_rng = random.Random(seed), random.Random(seed)
        fast = sample_identifiers_fast(id_bits, fast_rng, n)
        assert fast.tolist() == _scalar_identifiers(id_bits, pure_rng, n)
        assert fast_rng.getstate() == pure_rng.getstate()

    def test_small_batches_use_scalar_loop(self):
        assert sample_identifiers_fast(10, random.Random(0), _MIN_FAST_IDS - 1) is None

    def test_identifiers_wider_than_one_word_use_scalar_loop(self):
        # randrange(2**31) already needs getrandbits(32); 2**32 needs 33.
        assert sample_identifiers_fast(31, random.Random(0), 5000) is not None
        assert sample_identifiers_fast(32, random.Random(0), 5000) is None

    def test_pure_sampling_forces_scalar(self):
        with pure_sampling():
            assert sample_identifiers_fast(10, random.Random(0), 5000) is None

    def test_sanitizer_forces_scalar(self):
        from repro.analysis.sanitizer.runtime import sanitizing

        with sanitizing():
            assert sample_identifiers_fast(10, random.Random(0), 5000) is None

    def test_subclassed_rng_is_ineligible(self):
        class Counting(random.Random):
            calls = 0

            def getrandbits(self, k):
                type(self).calls += 1
                return super().getrandbits(k)

        rng = Counting(0)
        assert sample_identifiers_fast(10, rng, 5000) is None
        _scalar_identifiers(10, rng, 10)
        assert Counting.calls > 0
