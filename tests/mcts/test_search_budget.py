"""SearchBudget property suite: anytime search must be safe to deploy.

Two contracts guard the deadline plumbing threaded through every scheme:

(a) **Count parity.**  A budget whose deadline never fires is
    *bit-identical* to the historic integer-count API -- deadline checks
    read the clock but never consume RNG or reorder work.  Asserted for
    every scheme on both tree backends (worker counts chosen so the
    scheme itself is deterministic) -- the ``Node`` oracle
    (``tests/mcts/node_oracle.py``) standing in for the array tree on
    the ``node`` side -- plus a Hypothesis sweep over
    seeds/budgets/backends for the serial engine.

(b) **Anytime validity.**  However tight the deadline, search returns
    within budget + tolerance and still yields a valid normalised prior
    supported only on legal moves (the ``min_playouts`` floor).

A regression in either breaks the gateway's latency promise or silently
changes self-play data, so both are exact assertions, not approximate.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.games import TicTacToe
from repro.mcts import SearchBudget, SerialMCTS, UniformEvaluator, as_budget
from repro.mcts.budget import BudgetClock
from repro.mcts.reuse import TreeReuseMCTS
from repro.utils.clock import VirtualClock
from tests.mcts.node_oracle import node_trees, on_backend
from repro.parallel import (
    LeafParallelMCTS,
    LocalTreeMCTS,
    RootParallelMCTS,
    SharedTreeMCTS,
)

GENEROUS_MS = 120_000.0  # a deadline that can never fire in these tests

#: deterministic configuration per scheme: worker counts where the
#: scheme's transcript does not depend on thread interleaving (the same
#: degenerate-parity convention the scheme-equivalence suite uses).  The
#: two tree-parallel schemes run on the caller's thread and are
#: deterministic at any N, so they also appear with many leaves in flight,
#: where an expiring deadline must still drain every launched leaf.
SCHEME_FACTORIES = {
    "serial": lambda ev, rng: SerialMCTS(ev, rng=rng),
    "shared_tree": lambda ev, rng: SharedTreeMCTS(
        ev, num_workers=4, rng=rng
    ),
    "shared_tree_n8": lambda ev, rng: SharedTreeMCTS(
        ev, num_workers=8, rng=rng
    ),
    "local_tree": lambda ev, rng: LocalTreeMCTS(
        ev, num_workers=1, batch_size=1, rng=rng
    ),
    "local_tree_n4_b2": lambda ev, rng: LocalTreeMCTS(
        ev, num_workers=4, batch_size=2, rng=rng
    ),
    "leaf_parallel": lambda ev, rng: LeafParallelMCTS(
        ev, num_workers=2, rng=rng
    ),
    "root_parallel": lambda ev, rng: RootParallelMCTS(
        ev, num_workers=3, rng=rng
    ),
}


def _close(scheme) -> None:
    close = getattr(scheme, "close", None)
    if close is not None:
        close()


def _assert_valid_prior(prior: np.ndarray, game) -> None:
    assert prior.shape == (game.action_size,)
    assert np.all(prior >= 0)
    assert prior.sum() == pytest.approx(1.0)
    legal = game.legal_mask()
    assert np.all(prior[~legal] == 0), "prior mass on illegal moves"


class TestBudgetValidation:
    def test_needs_at_least_one_bound(self):
        with pytest.raises(ValueError, match="num_playouts and/or"):
            SearchBudget()

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SearchBudget(num_playouts=0)
        with pytest.raises(ValueError):
            SearchBudget(time_budget_ms=-1.0)
        with pytest.raises(ValueError):
            SearchBudget(num_playouts=8, check_interval=0)
        with pytest.raises(ValueError):
            SearchBudget(num_playouts=8, min_playouts=0)

    def test_as_budget_coerces_ints(self):
        budget = as_budget(40)
        assert budget.num_playouts == 40 and budget.time_budget_ms is None
        assert as_budget(budget) is budget
        with pytest.raises(ValueError):
            as_budget(0)


class TestBudgetClock:
    def test_count_target_is_exact(self):
        clock = SearchBudget(num_playouts=5).start()
        for _ in range(4):
            clock.note()
            assert not clock.done()
        clock.note()
        assert clock.done()

    def test_expired_deadline_still_grants_min_playouts(self):
        budget = SearchBudget(time_budget_ms=0.0)
        clock = budget.start()
        time.sleep(0.001)
        assert clock.expired()
        granted = 0
        while not clock.done():
            clock.note()
            granted += 1
        assert granted == budget.min_playouts

    def test_split_shares_the_absolute_deadline(self):
        clock = SearchBudget(num_playouts=9, time_budget_ms=50.0).start()
        child = clock.split(3)
        assert child.deadline == clock.deadline
        assert child.target == 3 and clock.target == 9

    def test_done_without_deadline_never_time_gates(self):
        clock = SearchBudget(num_playouts=10).start()
        clock.note(9)
        assert not clock.done()


class _SteppingClock:
    """Adversarial clock: every ``perf_counter`` read jumps time forward.

    Models the worst case of the historic bug where ``remaining_ms()``
    and ``expired()`` each re-read the clock: with enough drift between
    two reads the pair could report "time remains" *and* "expired".
    """

    def __init__(self, step_s: float) -> None:
        self.t = 0.0
        self.step_s = step_s
        self.reads = 0

    def monotonic(self) -> float:
        return self.perf_counter()

    def perf_counter(self) -> float:
        self.reads += 1
        now = self.t
        self.t += self.step_s
        return now

    async def sleep(self, seconds: float) -> None:  # pragma: no cover
        raise NotImplementedError


class TestBudgetSnapshot:
    """Satellite regression: one clock read per deadline decision."""

    @settings(max_examples=100, deadline=None)
    @given(
        budget_ms=st.floats(0.0, 100.0),
        step_ms=st.floats(0.0, 50.0),
        stray_reads=st.integers(0, 8),
    )
    def test_one_snapshot_never_disagrees_with_itself(
        self, budget_ms, step_ms, stray_reads
    ):
        clock = _SteppingClock(step_s=step_ms / 1e3)
        bc = SearchBudget(time_budget_ms=budget_ms, clock=clock).start()
        for _ in range(stray_reads):
            bc.expired()  # stray checks drift the clock arbitrarily
        snap = bc.snapshot()
        if snap.remaining_ms > 0:
            assert not snap.expired
        else:
            assert snap.expired and snap.remaining_ms == 0.0

    def test_separate_calls_can_disagree_a_snapshot_cannot(self):
        """The hazard the snapshot API exists for, made concrete: 6 ms of
        drift per read against a 10 ms budget makes the *paired* calls
        contradict each other, while any single snapshot stays coherent."""
        clock = _SteppingClock(step_s=0.006)
        bc = SearchBudget(time_budget_ms=10.0, clock=clock).start()
        remaining = bc.remaining_ms()  # read at t=6ms -> 4ms left
        expired = bc.expired()  # read at t=12ms -> past the deadline
        assert remaining > 0 and expired, "the adversarial setup regressed"
        snap = bc.snapshot()
        assert snap.expired and snap.remaining_ms == 0.0

    def test_done_reads_the_clock_exactly_once_per_check(self):
        clock = _SteppingClock(step_s=0.0)
        bc = SearchBudget(
            num_playouts=100, time_budget_ms=50.0, clock=clock
        ).start()
        bc.note(bc.budget.min_playouts)  # past the floor, at a boundary
        before = clock.reads
        bc.done()
        assert clock.reads - before == 1

    def test_deadline_on_a_virtual_clock(self):
        clock = VirtualClock()
        bc = SearchBudget(time_budget_ms=25.0, clock=clock).start()
        assert not bc.expired()
        assert bc.remaining_ms() == pytest.approx(25.0)
        clock.advance(0.025)
        snap = bc.snapshot()
        assert snap.expired and snap.remaining_ms == 0.0


class TestCountParity:
    """(a): generous-deadline anytime search == count-budgeted search,
    for every scheme on both tree backends."""

    @pytest.mark.parametrize("backend", ["node", "array"])
    @pytest.mark.parametrize("name", sorted(SCHEME_FACTORIES))
    def test_scheme_parity(self, name, backend):
        make = SCHEME_FACTORIES[name]
        game = TicTacToe()
        with on_backend(backend):
            counted = make(UniformEvaluator(), 123)
            try:
                reference = counted.get_action_prior(game.copy(), 48)
            finally:
                _close(counted)
            anytime = make(UniformEvaluator(), 123)
            try:
                budgeted = anytime.get_action_prior(
                    game.copy(),
                    SearchBudget(num_playouts=48, time_budget_ms=GENEROUS_MS),
                )
            finally:
                _close(anytime)
        np.testing.assert_array_equal(reference, budgeted)

    @pytest.mark.parametrize("backend", ["node", "array"])
    def test_tree_reuse_parity_across_moves(self, backend):
        """Reuse semantics (total-visit top-up) must survive budgeting:
        parity must hold move after move on the same warm tree."""
        counted = TreeReuseMCTS(UniformEvaluator(), rng=7)
        budgeted = TreeReuseMCTS(UniformEvaluator(), rng=7)
        game = TicTacToe()
        with on_backend(backend):
            for _ in range(3):
                a = counted.get_action_prior(game.copy(), 40)
                b = budgeted.get_action_prior(
                    game.copy(),
                    SearchBudget(num_playouts=40, time_budget_ms=GENEROUS_MS),
                )
                np.testing.assert_array_equal(a, b)
                action = int(np.argmax(a))
                game.step(action)
                counted.observe(action)
                budgeted.observe(action)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        playouts=st.integers(2, 64),
        backend=st.sampled_from(["node", "array"]),
        check_interval=st.integers(1, 8),
    )
    def test_serial_parity_property(self, seed, playouts, backend, check_interval):
        game = TicTacToe()
        with on_backend(backend):
            reference = SerialMCTS(UniformEvaluator(), rng=seed).get_action_prior(
                game.copy(), playouts
            )
            budgeted = SerialMCTS(UniformEvaluator(), rng=seed).get_action_prior(
                game.copy(),
                SearchBudget(
                    num_playouts=playouts,
                    time_budget_ms=GENEROUS_MS,
                    check_interval=check_interval,
                ),
            )
        np.testing.assert_array_equal(reference, budgeted)


class TestAnytimeValidity:
    """(b): tight deadlines return promptly with a valid prior."""

    #: wall-clock tolerance beyond the budget (scheduler jitter + one
    #: playout's overshoot; generous for loaded CI boxes)
    TOLERANCE_S = 0.5

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        deadline_ms=st.floats(0.0, 5.0),
    )
    def test_serial_tight_deadline_property(self, seed, deadline_ms):
        game = TicTacToe()
        budget = SearchBudget(time_budget_ms=deadline_ms)
        t0 = time.perf_counter()
        prior = SerialMCTS(UniformEvaluator(), rng=seed).get_action_prior(
            game, budget
        )
        elapsed = time.perf_counter() - t0
        assert elapsed <= deadline_ms / 1e3 + self.TOLERANCE_S
        _assert_valid_prior(prior, game)

    @pytest.mark.parametrize("backend", ["node", "array"])
    @pytest.mark.parametrize("name", sorted(SCHEME_FACTORIES))
    def test_all_schemes_tight_deadline(self, name, backend):
        game = TicTacToe()
        budget = SearchBudget(time_budget_ms=1.0)
        scheme = SCHEME_FACTORIES[name](UniformEvaluator(), 5)
        with on_backend(backend):
            try:
                t0 = time.perf_counter()
                prior = scheme.get_action_prior(game, budget)
                elapsed = time.perf_counter() - t0
            finally:
                _close(scheme)
        assert elapsed <= 1.0 / 1e3 + self.TOLERANCE_S, name
        _assert_valid_prior(prior, game)

    @pytest.mark.parametrize("name", sorted(SCHEME_FACTORIES))
    def test_deadline_actually_binds(self, name):
        """A deadline far below the count bound must cut the search
        short: the root accumulates fewer visits than the cap."""
        game = TicTacToe()

        class SlowUniform(UniformEvaluator):
            def evaluate(self, g):
                time.sleep(0.002)
                return super().evaluate(g)

        budget = SearchBudget(num_playouts=100_000, time_budget_ms=25.0)
        scheme = SCHEME_FACTORIES[name](SlowUniform(), 5)
        with node_trees():
            try:
                root = scheme.search(game.copy(), budget)
            finally:
                _close(scheme)
        assert 0 < root.visit_count < 100_000, name