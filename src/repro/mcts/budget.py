"""Search budgets: playout counts, wall-clock deadlines, or both.

Every entry point in the repo historically budgeted search by playout
*count* -- nothing could answer "best move within 200 ms", the question
the paper's per-move latency evaluation (Figures 4/5) is actually about
and the one a request-serving front end has to answer.  A
:class:`SearchBudget` makes search **anytime**: it carries a playout
count and/or a wall-clock allowance, and search stops at whichever bound
binds first, returning the normalised root prior accumulated so far.

Design constraints (asserted by the property suite):

- **Count-parity.**  A budget whose deadline never fires must behave
  *bit-identically* to the plain integer-count API: deadline checks read
  the clock but never consume RNG or reorder work.
- **Anytime validity.**  However tight the deadline, at least
  :attr:`SearchBudget.min_playouts` playouts always complete, so the
  root prior is a valid distribution over legal moves.
- **Bounded overshoot.**  The deadline is checked between playouts
  (every :attr:`SearchBudget.check_interval` completions), so overshoot
  is bounded by one check interval's work plus one leaf evaluation.

Every scheme's ``search`` / ``get_action_prior`` accepts either the
historic ``int`` or a :class:`SearchBudget` in the same parameter, so the
Section-3.2 "program template" interchangeability carries over unchanged
to deadline-budgeted callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.clock import WALL_CLOCK, Clock

__all__ = [
    "SearchBudget",
    "BudgetClock",
    "BudgetSnapshot",
    "as_budget",
]

#: array-backend capacity hint when only a time bound is given (the tree
#: still grows by doubling, so this is a pre-allocation guess, not a cap)
_TIME_ONLY_CAPACITY_PLAYOUTS = 512

_UNSET = object()


@dataclass(frozen=True)
class SearchBudget:
    """How much search one move is allowed to consume.

    Parameters
    ----------
    num_playouts : playout-count bound; ``None`` means unbounded count
        (a time bound must then be given).
    time_budget_ms : wall-clock bound in milliseconds measured from
        :meth:`start`; ``None`` means no deadline (pure count budget,
        exactly the historic behaviour).
    check_interval : completed playouts between deadline checks; 1 (the
        default) checks after every playout.
    min_playouts : playouts guaranteed to complete even if the deadline
        has already passed on arrival -- keeps the root prior valid.
        The default is 2 because the first serial playout only *expands*
        the root; the second is the earliest that visits a child, and a
        root without visited children has no prior to normalise.
    clock : time source the armed :class:`BudgetClock` reads; ``None``
        (the default, and the production path) means :data:`WALL_CLOCK`.
        Virtual-time tests inject a
        :class:`~repro.utils.clock.VirtualClock` so deadlines fire on
        simulated time.  Excluded from equality: two budgets with the
        same bounds are the same budget whatever clock arms them.
    """

    num_playouts: int | None = None
    time_budget_ms: float | None = None
    check_interval: int = 1
    min_playouts: int = 2
    clock: Clock | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_playouts is None and self.time_budget_ms is None:
            raise ValueError(
                "SearchBudget needs num_playouts and/or time_budget_ms"
            )
        if self.num_playouts is not None and self.num_playouts < 1:
            raise ValueError("num_playouts must be >= 1")
        if self.time_budget_ms is not None and self.time_budget_ms < 0:
            raise ValueError("time_budget_ms must be >= 0")
        if self.check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        if self.min_playouts < 1:
            raise ValueError("min_playouts must be >= 1")

    @property
    def capacity_playouts(self) -> int:
        """Playout count to size array-tree pre-allocation from."""
        if self.num_playouts is not None:
            return self.num_playouts
        return _TIME_ONLY_CAPACITY_PLAYOUTS

    def start(self, target=_UNSET) -> "BudgetClock":
        """Begin the wall clock now; *target* overrides the count bound
        (used by tree reuse, where warm visits shrink the fresh-playout
        target)."""
        if target is _UNSET:
            target = self.num_playouts
        return BudgetClock(self, target)


def as_budget(budget: "int | SearchBudget") -> SearchBudget:
    """Coerce the historic integer playout count into a pure count budget."""
    if isinstance(budget, SearchBudget):
        return budget
    return SearchBudget(num_playouts=int(budget))


@dataclass(frozen=True)
class BudgetSnapshot:
    """One clock read, both deadline views.

    ``expired`` and ``remaining_ms`` are derived from the *same* instant
    (:attr:`at`), so within a snapshot ``remaining_ms > 0`` iff
    ``expired`` is False -- the consistency :meth:`BudgetClock.expired`
    and :meth:`BudgetClock.remaining_ms` cannot promise *across* two
    separate calls, each of which re-reads the clock.
    """

    at: float
    deadline: float | None

    @property
    def expired(self) -> bool:
        return self.deadline is not None and self.at >= self.deadline

    @property
    def remaining_ms(self) -> float | None:
        if self.deadline is None:
            return None
        return max(0.0, (self.deadline - self.at) * 1000.0)


class BudgetClock:
    """A started :class:`SearchBudget`: deadline timestamp + progress.

    One thread drives it: the search program notes each completed
    playout with :meth:`note`, launches no more leaves once :meth:`done`
    says so, and launches none past :attr:`target`.  It is not
    thread-safe and need not be -- schemes that fan out sub-searches
    (root-parallel) give each worker its own clock with the same
    absolute deadline via :meth:`split`.

    Time is read through the budget's injected
    :class:`~repro.utils.clock.Clock` (wall by default).  Every internal
    deadline decision reads the clock exactly once via :meth:`snapshot`;
    callers that need "remaining and expired" to agree must do the same
    rather than pairing :meth:`remaining_ms` with :meth:`expired`.
    """

    __slots__ = (
        "budget",
        "clock",
        "target",
        "deadline",
        "completed",
    )

    def __init__(
        self,
        budget: SearchBudget,
        target: int | None,
        deadline=_UNSET,
        clock: Clock | None = None,
    ) -> None:
        self.budget = budget
        self.clock = clock if clock is not None else (budget.clock or WALL_CLOCK)
        if deadline is _UNSET:
            deadline = (
                None
                if budget.time_budget_ms is None
                else self.clock.perf_counter() + budget.time_budget_ms / 1000.0
            )
        self.target = target
        self.deadline = deadline
        self.completed = 0

    def split(self, target: int | None) -> "BudgetClock":
        """A fresh clock with its own counters but the *same* absolute
        deadline (root-parallel workers race one shared wall clock)."""
        return BudgetClock(self.budget, target, self.deadline, self.clock)

    # -- time ---------------------------------------------------------------
    def snapshot(self) -> BudgetSnapshot:
        """Freeze the deadline state at one clock read."""
        return BudgetSnapshot(self.clock.perf_counter(), self.deadline)

    def expired(self) -> bool:
        """Has the deadline passed?  (Never true without one.)

        Convenience over a fresh :meth:`snapshot`; pair with
        :meth:`remaining_ms` only through one snapshot when the two
        answers must be mutually consistent.
        """
        return self.snapshot().expired

    def remaining_ms(self) -> float | None:
        return self.snapshot().remaining_ms

    # -- draining -------------------------------------------------------------
    def note(self, n: int = 1) -> None:
        """Record *n* completed playouts."""
        self.completed += n

    def done(self) -> bool:
        """Stop searching?  Count bound first (free), then -- only at
        check-interval boundaries, and never before ``min_playouts`` --
        the deadline."""
        if self.target is not None and self.completed >= self.target:
            return True
        if self.deadline is None or self.completed < self.budget.min_playouts:
            return False
        if self.completed % self.budget.check_interval != 0:
            return False
        return self.snapshot().expired
