"""Vectorised ground truth for a batch of transactions.

With the full-mesh audience and a fresh owner per transaction, the
paper's success criterion (Section 4.1) reduces to a comparison of
intervals: a transaction collides iff another transaction holds the
same identifier over an overlapping interval.  For arrival-ordered
transactions ``a`` before ``b`` with the same identifier, both collide
iff ``end_a > start_b`` — an end at exactly a begin's timestamp does
not contend.  That is the verdict a discrete event replay against a
:class:`~repro.core.transactions.TransactionLog` reaches, tie rules and
all (``tests/oracles.py`` keeps that replay as the test oracle),
without a heap, an open-by-identifier index or one object per
transaction.

:func:`collided_flags` only *compares* and takes maxima of the floats
it is given, so its flags are exact: the only float arithmetic
anywhere is the caller's ``start + duration``, the same addition the
replay performs.  :func:`mean_concurrency` measures the realised
density ``T`` with the log's own float operations in the log's own
order, so it too agrees with the replay bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import numpy.typing as npt

__all__ = ["collided_flags", "mean_concurrency"]


def collided_flags(
    starts: npt.ArrayLike, ends: npt.ArrayLike, identifiers: npt.ArrayLike
) -> npt.NDArray[np.bool_]:
    """Boolean array: which transactions share an identifier with an overlap.

    ``starts`` must be in arrival order (non-decreasing; equal starts
    keep their given order), with ``ends[i] >= starts[i]`` and integer
    ``identifiers``.  A stable sort by identifier groups each
    identifier's transactions in arrival order; transaction ``k`` is
    then flagged when

    * the next member of its group starts before ``k`` ends (starts are
      non-decreasing, so the next member is the earliest later one), or
    * the running maximum of the ends of earlier group members exceeds
      ``k``'s start.

    The running maximum is a segmented prefix scan (doubling the reach
    each round, ``log2`` of the largest group rounds), so it takes
    maxima of existing floats and never rounds one.
    """
    start = np.asarray(starts, dtype=np.float64)
    end = np.asarray(ends, dtype=np.float64)
    ident = np.asarray(identifiers)
    n = int(start.shape[0])
    flags = np.zeros(n, dtype=bool)
    if n < 2:
        return flags
    order = np.argsort(ident, kind="stable")
    ident, start, end = ident[order], start[order], end[order]
    same = ident[1:] == ident[:-1]
    group = np.concatenate(([0], np.cumsum(~same)))
    # running[k]: the latest end among k and the group members before it.
    running = end.copy()
    reach = 1
    while reach < n:
        linked = group[reach:] == group[:-reach]
        if not linked.any():
            break
        running[reach:] = np.where(
            linked, np.maximum(running[reach:], running[:-reach]), running[reach:]
        )
        reach *= 2
    # k and its group successor k + 1 collide iff k + 1 starts before
    # k ends; k + 1 also collides with any earlier member still open.
    flags[order[:-1]] = same & (start[1:] < end[:-1])
    flags[order[1:]] |= same & (running[:-1] > start[1:])
    return flags


def mean_concurrency(starts: npt.ArrayLike, ends: npt.ArrayLike) -> float:
    """Time-weighted mean number of open transactions over ``[0, last]``.

    ``last`` is the latest begin or end; ``0.0`` when there is none.
    The result is bit-identical to
    :meth:`repro.core.transactions.TransactionLog.measured_density`
    after a replay of the same transactions: the 2n begin/end times are
    stably sorted, the open count before each event is multiplied by
    the gap since the previous event (the first gap counts from
    ``0.0``), and the products are added *sequentially* — ``np.sum``
    would add pairwise and round differently.  Events at equal times
    contribute ``level * 0.0``, which is why the order of ties does not
    matter.
    """
    start = np.asarray(starts, dtype=np.float64)
    end = np.asarray(ends, dtype=np.float64)
    n = int(start.shape[0])
    if n == 0:
        return 0.0
    times = np.concatenate((start, end))
    order = np.argsort(times, kind="stable")
    times = times[order]
    steps = np.repeat(np.array([1, -1], dtype=np.int64), n)[order]
    level_before = np.cumsum(steps) - steps
    gaps = np.diff(times, prepend=0.0)
    last = float(times[-1])
    if last <= 0.0:
        return 0.0
    return float(np.add.accumulate(level_before * gaps)[-1]) / last
