"""Serial DNN-MCTS: the single-worker baseline every parallel scheme is
measured against (the paper's profiling baseline, Section 2.1).

One playout = Node Selection -> Node Expansion & Evaluation -> BackUp.
After ``num_playouts`` playouts the action prior is the normalised root
visit distribution.

The search is written once, as a program (:meth:`SerialMCTS.search_program`)
that yields each leaf it needs evaluated; :meth:`SerialMCTS.search` runs it
inline, tree reuse resumes it over a kept root, leaf-parallel runs it
inline through a same-leaf batch evaluator, and root-parallel and the
gateway's search master step it with their own evaluation schedules.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Generator

import numpy as np

from repro.games.base import Game
from repro.mcts.arraytree import ArrayNodeView
from repro.mcts.backend import TreeBackend, capacity_hint, make_root, resolve_backend
from repro.mcts.budget import BudgetClock, SearchBudget, as_budget
from repro.mcts.evaluation import Evaluation, Evaluator
from repro.mcts.node import Node
from repro.mcts.search import (
    action_prior_from_root,
    add_dirichlet_noise,
    backup,
    expand,
    select_leaf,
)
from repro.utils.rng import new_rng

__all__ = ["PhaseTime", "SearchStats", "SerialMCTS"]


@dataclass(frozen=True)
class PhaseTime:
    """One search phase's wall time over its operation count."""

    total_ns: int
    operations: int

    @property
    def total_time(self) -> float:
        return self.total_ns * 1e-9

    @property
    def amortized(self) -> float:
        """Total time divided by operation count: the paper's amortized
        per-playout latency (Section 5.3)."""
        return self.total_time / self.operations if self.operations else 0.0


@dataclass
class SearchStats:
    """Per-phase wall time collected during search (feeds the profiler).

    Plain integer ``perf_counter_ns`` totals and counts, bumped from one
    clock read per phase boundary.  ``evaluate`` is the paper's Node
    Expansion & Evaluation phase and counts only non-terminal leaves;
    ``select`` and ``backup`` run once per playout.  ``evaluate_ns`` runs
    from the yield of a leaf to the return of its expansion, so under a
    driver that steps several programs (root-parallel, the gateway's
    search master) it includes the driver's wait for the other programs.
    """

    select_ns: int = 0
    evaluate_ns: int = 0
    backup_ns: int = 0
    evaluations: int = 0
    playouts: int = 0
    total_path_length: int = 0

    @property
    def select(self) -> PhaseTime:
        return PhaseTime(self.select_ns, self.playouts)

    @property
    def evaluate(self) -> PhaseTime:
        return PhaseTime(self.evaluate_ns, self.evaluations)

    @property
    def backup(self) -> PhaseTime:
        return PhaseTime(self.backup_ns, self.playouts)

    @property
    def mean_path_length(self) -> float:
        return self.total_path_length / self.playouts if self.playouts else 0.0


class SerialMCTS:
    """Single-threaded DNN-guided MCTS.

    Parameters
    ----------
    evaluator : leaf evaluator (network, rollout or uniform).
    c_puct : exploration constant *c* of Equation 1.
    dirichlet_alpha / dirichlet_epsilon : root-noise parameters; set
        ``dirichlet_epsilon=0`` to disable (evaluation-time play).
    tree_backend : tree storage layout; the array backend (default) runs
        the identical algorithm over structure-of-arrays storage with
        vectorised PUCT selection -- exact same visit counts, much faster.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        c_puct: float = 5.0,
        dirichlet_alpha: float = 0.3,
        dirichlet_epsilon: float = 0.0,
        rng: np.random.Generator | int | None = None,
        tree_backend: TreeBackend | str | None = None,
    ) -> None:
        if c_puct <= 0:
            raise ValueError("c_puct must be positive")
        if not 0.0 <= dirichlet_epsilon <= 1.0:
            raise ValueError("dirichlet_epsilon must be in [0, 1]")
        self.evaluator = evaluator
        self.c_puct = c_puct
        self.dirichlet_alpha = dirichlet_alpha
        self.dirichlet_epsilon = dirichlet_epsilon
        self.rng = new_rng(rng)
        self.tree_backend = resolve_backend(tree_backend, TreeBackend.ARRAY)
        self.stats = SearchStats()

    def search(
        self, game: Game, num_playouts: "int | SearchBudget"
    ) -> Node | ArrayNodeView:
        """Run budgeted playouts from *game*'s state; returns the root.

        *num_playouts* is either the historic playout count or a
        :class:`~repro.mcts.budget.SearchBudget` (count and/or wall-clock
        deadline, whichever binds first).  Runs :meth:`search_program`
        inline, each leaf through ``evaluator.evaluate``.
        """
        return _run_inline(
            self.search_program(game, num_playouts), self.evaluator.evaluate
        )

    def search_program(
        self,
        game: Game,
        num_playouts: "int | SearchBudget",
        *,
        clock: BudgetClock | None = None,
    ) -> Generator[Game, Evaluation, Node | ArrayNodeView]:
        """The search as a generator: it yields each non-terminal leaf's
        state, is sent that leaf's :class:`Evaluation`, and returns the
        root.  Nothing happens until the driver first steps it.  *clock*
        lets a composing scheme (root-parallel) share one absolute
        deadline across sub-searches; when given it overrides the
        budget's own bounds."""
        root, clock = self._start(game, as_budget(num_playouts), clock)
        stats = self.stats
        first = True
        while True:
            t0 = time.perf_counter_ns()
            leaf, leaf_game, depth = select_leaf(
                root, game.copy(), self.c_puct, apply_virtual_loss=False
            )
            t1 = time.perf_counter_ns()
            stats.select_ns += t1 - t0
            stats.total_path_length += depth
            if leaf.is_terminal:
                value = leaf.terminal_value
                assert value is not None
            else:
                value = expand(leaf, leaf_game, (yield leaf_game))
                t2 = time.perf_counter_ns()
                stats.evaluate_ns += t2 - t1
                stats.evaluations += 1
                t1 = t2
            backup(leaf, value)
            stats.backup_ns += time.perf_counter_ns() - t1
            stats.playouts += 1
            clock.note()
            if first and self.dirichlet_epsilon > 0:
                add_dirichlet_noise(
                    root, self.rng, self.dirichlet_alpha, self.dirichlet_epsilon
                )
            first = False
            if clock.done():
                return root

    def get_action_prior(
        self, game: Game, num_playouts: "int | SearchBudget"
    ) -> np.ndarray:
        """The paper's ``get_action_prior``: normalised root visit counts.

        The root never leaves this call, so an array tree goes back to
        this thread's spare once the prior is read, and the next search
        on the thread reuses its storage."""
        root = self.search(game, num_playouts)
        prior = action_prior_from_root(root, game.action_size)
        if isinstance(root, ArrayNodeView):
            root.tree.give_back()
        return prior

    def _start(
        self, game: Game, budget: SearchBudget, clock: BudgetClock | None
    ) -> tuple[Node | ArrayNodeView, BudgetClock]:
        """The root to grow and the clock that bounds this search: a fresh
        root sized for the count target, and *clock* or the started
        *budget*."""
        if clock is None:
            clock = budget.start()
        if game.is_terminal:
            raise ValueError("cannot search from a terminal state")
        cap = clock.target if clock.target is not None else budget.capacity_playouts
        return make_root(self.tree_backend, capacity_hint(game.action_size, cap)), clock


def _run_inline(
    program: Generator[Game, Evaluation, Node | ArrayNodeView],
    evaluate: Callable[[Game], Evaluation],
) -> Node | ArrayNodeView:
    """Drive a search program on this thread, each leaf through
    *evaluate*; returns the root it ends on."""
    try:
        leaf = next(program)
        while True:
            leaf = program.send(evaluate(leaf))
    except StopIteration as stop:
        return stop.value
