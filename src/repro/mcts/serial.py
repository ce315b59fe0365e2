"""Serial DNN-MCTS, and the one search program every scheme runs.

One playout = Node Selection -> Node Expansion & Evaluation -> BackUp.
After ``num_playouts`` playouts the action prior is the normalised root
visit distribution; serial search is the single-worker baseline every
parallel scheme is measured against (the paper's profiling baseline,
Section 2.1).

The search is written once, as a program (:meth:`SerialMCTS.search_program`)
over three steps: a leaf hint, a flushed sub-batch and a wait that takes
back a finished sub-batch.  It keeps up to N leaves in flight under a
virtual-loss policy, in sub-batches of B; serial search is N = B = 1
without virtual loss, and the local-tree and shared-tree schemes
(:mod:`repro.parallel`) only choose N, B and the policy, as the paper's
program template does (Section 3.2).  Its drivers decide when a
sub-batch is evaluated and which one finishes next:
:meth:`SerialMCTS.search` runs it inline, oldest sub-batch first; tree
reuse resumes it over a kept root; :mod:`repro.mcts.master` steps
several in rounds, for root-parallel and the gateway's search master;
and the virtual-time simulation and profiler price each step.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from repro.games.base import Game
from repro.mcts.arraytree import ArrayNodeView, capacity_hint, make_root
from repro.mcts.budget import BudgetClock, SearchBudget, as_budget
from repro.mcts.evaluation import Evaluator
from repro.mcts.search import (
    action_prior_from_root,
    add_dirichlet_noise,
    backup,
    expand,
    select_leaf,
)
from repro.mcts.virtual_loss import NoVirtualLoss, VirtualLossPolicy
from repro.utils.rng import new_rng

__all__ = [
    "FLUSH",
    "LEAF",
    "WAIT",
    "PhaseTime",
    "SearchStats",
    "SerialMCTS",
    "SubBatch",
]

#: the steps :meth:`SerialMCTS.search_program` yields
LEAF, FLUSH, WAIT = "leaf", "flush", "wait"

#: leaves submitted for evaluation together, with their states
SubBatch = list[tuple[ArrayNodeView, Game]]


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
    ``select`` runs once per launched leaf and ``backup`` once per
    playout.  ``evaluate_ns`` runs from each wait to the take-back and
    expansion of a flushed sub-batch; with one leaf in flight the wait
    directly follows the leaf's flush.  So under the master round
    (:mod:`repro.mcts.master`: root-parallel, the gateway's search
    master) it includes the round's wait for the other programs.
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
    """Single-threaded DNN-guided MCTS, and the one search program every
    scheme runs.

    Parameters
    ----------
    evaluator : leaf evaluator (network, rollout or uniform).
    c_puct : exploration constant *c* of Equation 1.
    dirichlet_alpha / dirichlet_epsilon : root-noise parameters; set
        ``dirichlet_epsilon=0`` to disable (evaluation-time play).
    tree_backend : only ``"array"``, the one tree every search grows
        (:mod:`repro.mcts.arraytree`); accepted so that callers naming it
        (perfbench's workloads) still construct, and stored nowhere.
    """

    #: N, the most leaves in flight (Algorithm 3 line 12); B, the leaves
    #: per flushed sub-batch (Section 4.2); and the virtual loss that
    #: spreads the leaves in flight.  Serial search keeps one leaf in
    #: flight, which needs no virtual loss; the tree-parallel schemes set
    #: all three per instance.
    num_workers = 1
    batch_size = 1
    vl_policy: VirtualLossPolicy = NoVirtualLoss()

    def __init__(
        self,
        evaluator: Evaluator,
        c_puct: float = 5.0,
        dirichlet_alpha: float = 0.3,
        dirichlet_epsilon: float = 0.0,
        rng: np.random.Generator | int | None = None,
        tree_backend: str = "array",
    ) -> None:
        if tree_backend != "array":
            raise ValueError(
                f"unknown tree backend {tree_backend!r}: every search "
                "grows an array tree"
            )
        if c_puct <= 0:
            raise ValueError("c_puct must be positive")
        if not 0.0 <= dirichlet_epsilon <= 1.0:
            raise ValueError("dirichlet_epsilon must be in [0, 1]")
        self.evaluator = evaluator
        self.c_puct = c_puct
        self.dirichlet_alpha = dirichlet_alpha
        self.dirichlet_epsilon = dirichlet_epsilon
        self.rng = new_rng(rng)
        self.stats = SearchStats()

    def search(
        self, game: Game, num_playouts: "int | SearchBudget"
    ) -> ArrayNodeView:
        """Run budgeted playouts from *game*'s state; returns the root.

        *num_playouts* is either the historic playout count or a
        :class:`~repro.mcts.budget.SearchBudget` (count and/or wall-clock
        deadline, whichever binds first).  Runs :meth:`search_program` on
        this thread: each wait takes back the oldest flushed sub-batch
        (Algorithm 3's FIFO pipe), a one-row sub-batch through
        ``evaluator.evaluate`` and a wider one through ``evaluate_batch``.
        Draining in submission order makes the search deterministic at
        any N.
        """
        program = self.search_program(game, num_playouts)
        send = program.send
        evaluator = self.evaluator
        pipe: deque[SubBatch] = deque()
        reply = None
        try:
            while True:
                kind, payload = send(reply)
                if kind is WAIT:
                    batch = pipe.popleft()
                    if len(batch) == 1:
                        reply = batch, [evaluator.evaluate(batch[0][1])]
                    else:
                        games = [g for _, g in batch]
                        reply = batch, evaluator.evaluate_batch(games)
                else:
                    reply = None
                    if kind is FLUSH:
                        pipe.append(payload)
        except StopIteration as stop:
            return stop.value

    def search_program(
        self,
        game: Game,
        num_playouts: "int | SearchBudget",
        *,
        clock: BudgetClock | None = None,
    ) -> Generator[tuple[str, Any], Any, ArrayNodeView]:
        """The search as a generator over the steps its driver schedules.

        It yields ``(kind, payload)`` pairs:

        - ``(LEAF, (leaf, depth))`` for each selected leaf, before the
          leaf is backed up (terminal) or queued, so a cost model can
          price the descent;
        - ``(FLUSH, sub_batch)`` when a sub-batch of ``(leaf, game)``
          pairs leaves for evaluation;
        - ``(WAIT, None)`` when no more leaves may launch; the driver
          sends back ``(sub_batch, evaluations)`` for any flushed
          sub-batch not yet taken back, in any order.

        Up to :attr:`num_workers` leaves are in flight under
        :attr:`vl_policy`, flushed in sub-batches of :attr:`batch_size`.
        A fresh root is the first playout's leaf: it is flushed alone,
        with no ``LEAF`` hint, and expanded and backed up before any
        other leaf launches.  A root that is already expanded (tree
        reuse) starts with N leaves in flight.

        One stop rule: every completed playout is noted on the clock,
        and once :meth:`BudgetClock.done` says so, no more leaves launch;
        nor do they past the count target.  Leaves already in flight
        complete and shed their virtual loss, and the program returns the
        root.  At N = 1 that is serial search's rule exactly.

        Nothing happens until the driver first steps it.  *clock* lets a
        composing scheme (root-parallel) share one absolute deadline
        across sub-searches; when given it overrides the budget's own
        bounds.
        """
        root, clock = self._start(game, as_budget(num_playouts), clock)
        stats = self.stats
        c_puct, vl, batch_size = self.c_puct, self.vl_policy, self.batch_size
        noise = self.dirichlet_epsilon > 0
        clock_ns = time.perf_counter_ns
        target = clock.target
        # at most one leaf, the root itself, while the root is unexpanded
        width = 1 if root.is_leaf else self.num_workers
        launched = inflight = 0  # inflight: flushed, not yet taken back
        pending: SubBatch = []  # the sub-batch accumulating
        stop = False

        def complete() -> bool:
            """Count a finished playout; True once no more may launch."""
            stats.playouts += 1
            clock.note()
            if noise and clock.completed == 1:
                add_dirichlet_noise(
                    root, self.rng, self.dirichlet_alpha, self.dirichlet_epsilon
                )
            return clock.done()

        while True:
            # Select leaves while fewer than N are in flight (Algorithm 3
            # lines 7-11).
            while (
                not stop
                and inflight + len(pending) < width
                and (target is None or launched < target)
            ):
                t = clock_ns()
                leaf, leaf_game, depth = select_leaf(root, game.copy(), c_puct, vl)
                stats.select_ns += clock_ns() - t
                stats.total_path_length += depth
                launched += 1
                if depth:  # the root's own playout gives no hint
                    yield LEAF, (leaf, depth)
                if not leaf.is_terminal:
                    pending.append((leaf, leaf_game))
                    if len(pending) >= batch_size:
                        break
                    continue
                t = clock_ns()
                backup(leaf, leaf.terminal_value, vl)
                stats.backup_ns += clock_ns() - t
                stop = complete()
            # A full sub-batch goes out; so does a partial one when no more
            # leaves launch or none is in flight, so the tail of the move
            # cannot deadlock.
            if pending and (
                len(pending) >= batch_size
                or not inflight
                or stop
                or (target is not None and launched >= target)
            ):
                inflight += len(pending)
                yield FLUSH, pending
                pending = []
                continue
            if not inflight:
                return root
            # Take back a finished sub-batch (Algorithm 3 lines 12-16):
            # expand and back up its leaves in submission order, with no
            # locks, because only this program touches the tree.
            t = clock_ns()
            batch, evaluations = yield WAIT, None
            inflight -= len(batch)
            for (leaf, leaf_game), evaluation in zip(batch, evaluations):
                value = expand(leaf, leaf_game, evaluation)
                t1 = clock_ns()
                stats.evaluate_ns += t1 - t
                stats.evaluations += 1
                backup(leaf, value, vl)
                t = clock_ns()
                stats.backup_ns += t - t1
                stop = complete() or stop
            width = self.num_workers

    def get_action_prior(
        self, game: Game, num_playouts: "int | SearchBudget"
    ) -> np.ndarray:
        """The paper's ``get_action_prior``: normalised root visit counts.

        The root never leaves this call, so its tree goes back to this
        thread's spare once the prior is read, and the next search on the
        thread reuses its storage."""
        root = self.search(game, num_playouts)
        prior = action_prior_from_root(root, game.action_size)
        root.tree.give_back()
        return prior

    def _start(
        self, game: Game, budget: SearchBudget, clock: BudgetClock | None
    ) -> tuple[ArrayNodeView, BudgetClock]:
        """The root to grow and the clock that bounds this search: a fresh
        root sized for the count target, and *clock* or the started
        *budget*."""
        if clock is None:
            clock = budget.start()
        if game.is_terminal:
            raise ValueError("cannot search from a terminal state")
        cap = clock.target if clock.target is not None else budget.capacity_playouts
        return make_root(capacity_hint(game.action_size, cap)), clock

