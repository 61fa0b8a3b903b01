"""Unit tests for ground-truth transaction tracking."""

import math

import pytest

from repro.core.transactions import TransactionLog


class TestCollisionDetection:
    def test_same_id_overlapping_collides_both(self):
        log = TransactionLog()
        a = log.begin(owner=1, identifier=5, time=0.0)
        b = log.begin(owner=2, identifier=5, time=1.0)
        assert log.collided(a)
        assert log.collided(b)
        assert log.collision_count == 2

    def test_different_ids_never_collide(self):
        log = TransactionLog()
        a = log.begin(owner=1, identifier=5, time=0.0)
        b = log.begin(owner=2, identifier=6, time=0.0)
        assert not log.collided(a)
        assert not log.collided(b)

    def test_same_id_sequential_does_not_collide(self):
        """Ephemeral reuse over time is the whole point of RETRI."""
        log = TransactionLog()
        a = log.begin(owner=1, identifier=5, time=0.0)
        log.end(a, time=1.0)
        b = log.begin(owner=2, identifier=5, time=2.0)
        assert not log.collided(a)
        assert not log.collided(b)

    def test_same_owner_reuse_does_not_collide(self):
        """A node conflicting with itself is not an identifier collision
        (it would never confuse a receiver about *who* sent what)."""
        log = TransactionLog()
        a = log.begin(owner=1, identifier=5, time=0.0)
        b = log.begin(owner=1, identifier=5, time=0.5)
        assert not log.collided(a)
        assert not log.collided(b)

    def test_disjoint_audiences_do_not_collide(self):
        """Spatial reuse: far-apart nodes may share an identifier."""
        log = TransactionLog()
        a = log.begin(owner=1, identifier=5, time=0.0, audience={10, 11})
        b = log.begin(owner=2, identifier=5, time=0.0, audience={20, 21})
        assert not log.collided(a)
        assert not log.collided(b)

    def test_shared_receiver_collides(self):
        log = TransactionLog()
        a = log.begin(owner=1, identifier=5, time=0.0, audience={10, 11})
        b = log.begin(owner=2, identifier=5, time=0.0, audience={11, 12})
        assert log.collided(a) and log.collided(b)

    def test_none_audience_is_global(self):
        log = TransactionLog()
        a = log.begin(owner=1, identifier=5, time=0.0, audience=None)
        b = log.begin(owner=2, identifier=5, time=0.0, audience={99})
        assert log.collided(a) and log.collided(b)

    def test_three_way_collision_marks_all(self):
        log = TransactionLog()
        txns = [log.begin(owner=i, identifier=7, time=0.0) for i in range(3)]
        assert all(log.collided(t) for t in txns)
        assert log.collision_count == 3

    def test_collision_rate(self):
        log = TransactionLog()
        a = log.begin(owner=1, identifier=1, time=0.0)
        log.begin(owner=2, identifier=1, time=0.0)
        log.begin(owner=3, identifier=2, time=0.0)
        log.begin(owner=4, identifier=3, time=0.0)
        assert log.collision_rate() == pytest.approx(0.5)

    def test_empty_log_rate_is_nan(self):
        assert math.isnan(TransactionLog().collision_rate())

    def test_successes_and_failures_partition(self):
        log = TransactionLog()
        log.begin(owner=1, identifier=1, time=0.0)
        log.begin(owner=2, identifier=1, time=0.0)
        log.begin(owner=3, identifier=2, time=0.0)
        assert len(log.successes()) == 1
        assert len(log.failures()) == 2
        assert len(log.successes()) + len(log.failures()) == log.total


class TestLifecycle:
    def test_end_before_start_rejected(self):
        log = TransactionLog()
        t = log.begin(owner=1, identifier=1, time=5.0)
        with pytest.raises(ValueError):
            log.end(t, time=4.0)

    def test_double_end_rejected(self):
        log = TransactionLog()
        t = log.begin(owner=1, identifier=1, time=0.0)
        log.end(t, time=1.0)
        with pytest.raises(ValueError):
            log.end(t, time=2.0)

    def test_open_count(self):
        log = TransactionLog()
        a = log.begin(owner=1, identifier=1, time=0.0)
        log.begin(owner=2, identifier=2, time=0.0)
        assert log.open_count() == 2
        log.end(a, time=1.0)
        assert log.open_count() == 1


class TestDensityMeasurement:
    def test_sequential_transactions_density_one(self):
        log = TransactionLog()
        for i in range(4):
            t = log.begin(owner=1, identifier=i, time=float(i))
            log.end(t, time=float(i) + 1.0)
        assert log.measured_density() == pytest.approx(1.0)

    def test_fully_overlapping_density_n(self):
        log = TransactionLog()
        txns = [log.begin(owner=i, identifier=i, time=0.0) for i in range(5)]
        for t in txns:
            log.end(t, time=10.0)
        assert log.measured_density() == pytest.approx(5.0)

    def test_half_overlap(self):
        log = TransactionLog()
        a = log.begin(owner=1, identifier=1, time=0.0)
        b = log.begin(owner=2, identifier=2, time=5.0)
        log.end(a, time=10.0)
        log.end(b, time=10.0)
        # concurrency: 1 over [0,5), 2 over [5,10) -> 1.5 average
        assert log.measured_density() == pytest.approx(1.5)


class TestTransactionRepresentation:
    def test_slots_and_identity_equality(self):
        """The log allocates one Transaction per begin; __slots__ keeps
        them compact, and equality is identity (uids are unique, so
        field equality was identity in disguise anyway)."""
        log = TransactionLog()
        a = log.begin(owner=1, identifier=3, time=0.0)
        b = log.begin(owner=1, identifier=3, time=0.0)
        assert not hasattr(a, "__dict__")
        assert a == a
        assert a != b
        assert a.uid != b.uid

    def test_repr_reflects_state(self):
        log = TransactionLog()
        txn = log.begin(owner=2, identifier=7, time=1.0)
        assert "open" in repr(txn)
        log.end(txn, time=2.0)
        assert "end=2.000" in repr(txn)
