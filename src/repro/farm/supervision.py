"""Supervision primitives shared by the farm and the serving cluster.

Two restart idioms: a dead worker is *fenced* (its slot's epoch bumps,
so anything the corpse left in flight is recognisably stale) and its
work is *retried under a bounded budget* (so a poisoned task cannot
respawn workers forever).  The self-play farm retries each episode under
a :class:`RetryBudget`; it needs no fence, because a respawned farm
worker gets a fresh task pipe that nothing stale can reach.  The cluster
layer (:mod:`repro.cluster`) supervises whole gateway shards with both
moves, so they live here as two tiny, dependency-free classes instead of
being re-derived per subsystem.

Neither class is thread-safe by itself; both the farm supervisor and the
cluster router mutate them from a single supervising thread/task.
"""

from __future__ import annotations

__all__ = ["EpochFence", "RetryBudget"]


class EpochFence:
    """A monotonically-bumped epoch for one supervised slot.

    Every spawn hands the child the fence's current epoch; responses and
    shared-structure writes carry it back, and anything tagged with a
    stale epoch is discarded.  Bumping *before* respawning guarantees a
    corpse's in-flight output can never be mistaken for the successor's.
    """

    __slots__ = ("current",)

    def __init__(self, start: int = 0) -> None:
        self.current = int(start)

    def bump(self) -> int:
        """Advance to (and return) the next epoch -- call on every respawn."""
        self.current += 1
        return self.current

    def is_current(self, epoch: int) -> bool:
        return epoch == self.current

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EpochFence(current={self.current})"


class RetryBudget:
    """A bounded number of retries for one unit of supervised work.

    The first attempt is free; each *retry* spends one unit.  When
    :meth:`spend` returns ``False`` the budget is exhausted and the
    supervisor must fail the work instead of requeueing it -- the
    backstop that turns a deterministic crasher into a clean error
    rather than a respawn loop.
    """

    __slots__ = ("limit", "used")

    def __init__(self, limit: int) -> None:
        if limit < 0:
            raise ValueError("retry limit must be >= 0")
        self.limit = int(limit)
        self.used = 0

    @property
    def exhausted(self) -> bool:
        return self.used >= self.limit

    @property
    def attempts(self) -> int:
        """Total runs so far: the free first attempt plus spent retries."""
        return self.used + 1

    def spend(self) -> bool:
        """Consume one retry; ``False`` (and no change) when exhausted."""
        if self.used >= self.limit:
            return False
        self.used += 1
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RetryBudget(used={self.used}, limit={self.limit})"
