"""The vectorised collision kernel agrees with the discrete event replay.

:func:`repro.core.collisions.collided_flags` must flag exactly the
transactions that the oracle replay (:func:`tests.oracles._replay`)
against a :class:`~repro.core.transactions.TransactionLog` marks
collided — the same criterion and the same tie rule (an end at exactly
a begin's timestamp does not contend) — and
:func:`repro.core.collisions.mean_concurrency` must return the log's
``measured_density()`` as the very same float.  Interval sets are
generated with exact end==start ties, zero durations, equal starts,
single-member groups, empty input and a single shared identifier.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.collisions import collided_flags, mean_concurrency
from repro.core.transactions import TransactionLog

from .oracles import _replay


def replay(starts, durations, identifiers):
    """The oracle's verdicts: per-transaction flags and the log's density."""
    log = TransactionLog()
    tracked = _replay(starts, durations, identifiers, log, warmup=0.0)
    return [log.collided(txn) for txn in tracked], log.measured_density()


def replay_flags(starts, durations, identifiers):
    return replay(starts, durations, identifiers)[0]


def assert_matches_replay(starts, durations, identifiers):
    flags, density = replay(starts, durations, identifiers)
    assert kernel_flags(starts, durations, identifiers) == flags
    ends = [start + duration for start, duration in zip(starts, durations)]
    # Exact equality: the sum must be the log's, addition for addition.
    assert mean_concurrency(starts, ends) == density


def kernel_flags(starts, durations, identifiers):
    ends = [start + duration for start, duration in zip(starts, durations)]
    flags = collided_flags(starts, ends, identifiers)
    assert flags.dtype == np.bool_
    return flags.tolist()


#: Starts and durations on a binary grid, so ``start + duration`` lands
#: exactly on later starts and ties are common.
grid_starts = st.lists(st.integers(0, 24), max_size=40).map(
    lambda values: [v * 0.25 for v in sorted(values)]
)
grid_durations = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])


@st.composite
def grid_intervals(draw, max_ids=6):
    starts = draw(grid_starts)
    n = len(starts)
    durations = draw(st.lists(grid_durations, min_size=n, max_size=n))
    identifiers = draw(st.lists(st.integers(0, max_ids - 1), min_size=n, max_size=n))
    return starts, durations, identifiers


@st.composite
def float_intervals(draw):
    """Arbitrary float intervals whose later starts may hit earlier ends.

    A start chosen as an earlier transaction's ``start + duration``
    reproduces the tie with the very same float the replay computes.
    """
    n = draw(st.integers(0, 30))
    starts, durations = [], []
    time = draw(st.floats(0.0, 100.0, allow_nan=False))
    for _ in range(n):
        choice = draw(st.sampled_from(["gap", "same", "tie"]))
        if choice == "gap":
            time += draw(st.floats(0.0, 2.0, allow_nan=False))
        elif choice == "tie" and starts:
            k = draw(st.integers(0, len(starts) - 1))
            time = max(time, starts[k] + durations[k])
        starts.append(time)
        durations.append(draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0))))
    identifiers = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return starts, durations, identifiers


def merged_streams(streams):
    """Frame-window merge: time order, ties by stream order."""
    events = sorted(
        (start, order, duration, ident)
        for order, stream in enumerate(streams)
        for start, duration, ident in stream
    )
    return (
        [e[0] for e in events],
        [e[2] for e in events],
        [e[3] for e in events],
    )


class TestKernelMatchesReplay:
    @settings(max_examples=400, deadline=None)
    @given(grid_intervals())
    @example(([], [], []))
    @example(([0.0, 0.0], [0.0, 0.0], [1, 1]))
    def test_grid_intervals_with_ties(self, case):
        assert_matches_replay(*case)

    @settings(max_examples=400, deadline=None)
    @given(float_intervals())
    def test_float_intervals_with_exact_end_start_ties(self, case):
        assert_matches_replay(*case)

    @settings(max_examples=200, deadline=None)
    @given(grid_intervals(max_ids=1))
    def test_one_shared_identifier(self, case):
        assert_matches_replay(*case)

    @settings(max_examples=100, deadline=None)
    @given(grid_starts)
    def test_single_member_groups_never_collide(self, starts):
        n = len(starts)
        case = (starts, [1.0] * n, list(range(n)))
        assert replay_flags(*case) == [False] * n
        assert_matches_replay(*case)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 12).map(lambda v: v * 0.5),
                    grid_durations,
                    st.integers(0, 2),
                ),
                max_size=12,
            ),
            min_size=2,
            max_size=3,
        )
    )
    def test_equal_starts_from_different_streams(self, streams):
        case = merged_streams(streams)
        assert_matches_replay(*case)


class TestTieRule:
    def test_end_at_begin_does_not_contend(self):
        assert kernel_flags([0.0, 1.0], [1.0, 1.0], [5, 5]) == [False, False]

    def test_overlap_flags_both_parties(self):
        assert kernel_flags([0.0, 0.5], [1.0, 1.0], [5, 5]) == [True, True]

    def test_long_earlier_transaction_outlives_its_successor(self):
        # The third transaction overlaps only the first, whose end is
        # not its group predecessor's: the running maximum catches it.
        case = ([0.0, 1.0, 5.0], [10.0, 1.0, 1.0], [3, 3, 3])
        assert kernel_flags(*case) == replay_flags(*case) == [True, True, True]

    def test_zero_duration_at_shared_start(self):
        # A zero-length transaction ends at its own start, so a second
        # one starting at that instant does not contend with it, but a
        # transaction open across that instant does.
        case = ([0.0, 2.0, 2.0], [5.0, 0.0, 0.0], [1, 1, 1])
        assert kernel_flags(*case) == replay_flags(*case) == [True, True, True]
        case = ([2.0, 2.0], [0.0, 0.0], [1, 1])
        assert kernel_flags(*case) == replay_flags(*case) == [False, False]

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single(self, n):
        flags = collided_flags([0.0] * n, [1.0] * n, [0] * n)
        assert flags.shape == (n,) and not flags.any()

    def test_wide_identifiers(self):
        ids = [1 << 40, 7, 1 << 40, 7]
        case = ([0.0, 0.1, 0.2, 2.0], [1.0, 1.0, 1.0, 1.0], ids)
        assert kernel_flags(*case) == replay_flags(*case) == [True, False, True, False]


class TestMeanConcurrency:
    @pytest.mark.parametrize("seed", [1, 9001])
    def test_long_exponential_stream_matches_the_log(self, seed):
        # Thousands of irregular products: a sum in any other order
        # (pairwise, reversed, compensated) rounds differently here.
        rng = random.Random(seed)
        starts, durations, time = [], [], 0.0
        for _ in range(3000):
            time += rng.expovariate(5.0)
            starts.append(time)
            durations.append(rng.expovariate(1.0))
        identifiers = [rng.randrange(64) for _ in starts]
        assert_matches_replay(starts, durations, identifiers)
