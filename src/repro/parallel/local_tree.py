"""Local-tree tree-parallel MCTS (paper Algorithm 3, Section 3.1.2).

A centralised **master** owns the complete tree and executes *all*
in-tree operations -- selection, expansion, backup -- with no locks at
all.  Algorithm 3 hands node evaluation (DNN inference) to N workers
through FIFO pipes, so that inference overlaps the master's tree work.

The master is written once, as a program
(:meth:`LocalTreeMCTS.search_program`) that yields each selected leaf,
each flushed sub-batch and each wait for a finished sub-batch; its
driver decides when a sub-batch is evaluated and which one finishes
next.  :meth:`LocalTreeMCTS.search` drives it on the caller's thread,
evaluating the oldest sub-batch at each wait: under the GIL a worker
hand-off costs more than the forward it would overlap, and draining in
submission order makes the search deterministic at any N.
:class:`repro.simulator.local_tree_sim.LocalTreeSimulation` drives the
same program in virtual time, where N workers or an accelerator finish
the sub-batches, so the overlap of the paper's platform shows there.

The ``batch_size`` parameter implements the CUDA-stream sub-batching of
Sections 3.3/4.2: the master accumulates ``B`` evaluation requests before
submitting them as one batched inference, so with N leaves in flight
there are N/B sub-batches in the pipe -- the knob Algorithm 4 tunes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

import numpy as np

from repro.games.base import Game
from repro.mcts.arraytree import ArrayNodeView
from repro.mcts.backend import TreeBackend, resolve_backend
from repro.mcts.budget import SearchBudget, as_budget
from repro.mcts.evaluation import Evaluator
from repro.mcts.node import Node
from repro.mcts.search import (
    add_dirichlet_noise,
    backup,
    expand,
    select_leaf,
)
from repro.mcts.virtual_loss import VirtualLossPolicy, WUVirtualLoss
from repro.parallel.base import ParallelScheme, SchemeName
from repro.utils.rng import new_rng

__all__ = ["FLUSH", "LEAF", "WAIT", "LocalTreeMCTS", "SubBatch"]

#: the steps :meth:`LocalTreeMCTS.search_program` yields
LEAF, FLUSH, WAIT = "leaf", "flush", "wait"

#: leaves submitted for evaluation together, with their states
SubBatch = list[tuple[Node | ArrayNodeView, Game]]


class LocalTreeMCTS(ParallelScheme):
    """Master-owned tree with N leaves in flight in sub-batches of B.

    Parameters
    ----------
    evaluator : leaf evaluator; ``evaluate_batch`` is used, so a network
        evaluator performs genuinely batched inference.
    num_workers : N, the most evaluation requests in flight (leaves
        carrying virtual loss; Algorithm 3 line 12).
    batch_size : evaluation requests accumulated before submission
        (B of Section 4.2; 1, the CPU-only default, evaluates each leaf
        on its own).
    vl_policy : defaults to WU-UCT unobserved-sample tracking [Liu 2020],
        the style the local-tree lineage uses; constant VL also works.
    """

    name = SchemeName.LOCAL_TREE

    def __init__(
        self,
        evaluator: Evaluator,
        num_workers: int = 4,
        batch_size: int = 1,
        c_puct: float = 5.0,
        vl_policy: VirtualLossPolicy | None = None,
        dirichlet_alpha: float = 0.3,
        dirichlet_epsilon: float = 0.0,
        rng: np.random.Generator | int | None = None,
        tree_backend: TreeBackend | str | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if not 1 <= batch_size <= num_workers:
            raise ValueError(
                f"batch_size must be in [1, num_workers={num_workers}], got {batch_size}"
            )
        if c_puct <= 0:
            raise ValueError("c_puct must be positive")
        self.evaluator = evaluator
        self.num_workers = num_workers
        self.batch_size = batch_size
        self.c_puct = c_puct
        self.vl_policy = vl_policy or WUVirtualLoss()
        self.dirichlet_alpha = dirichlet_alpha
        self.dirichlet_epsilon = dirichlet_epsilon
        self.rng = new_rng(rng)
        self.tree_backend = resolve_backend(tree_backend)

    # -- search (Algorithm 3, rollout_n_times) -------------------------------
    def search(
        self, game: Game, num_playouts: "int | SearchBudget"
    ) -> "Node | ArrayNodeView":
        """Run :meth:`search_program` on this thread: each wait evaluates
        the oldest flushed sub-batch as one ``evaluate_batch``, so the
        sub-batches complete in submission order."""
        program = self.search_program(game, num_playouts)
        pipe: deque[SubBatch] = deque()  # Algorithm 3's FIFO pipe
        reply = None
        try:
            while True:
                kind, payload = program.send(reply)
                reply = None
                if kind is FLUSH:
                    pipe.append(payload)
                elif kind is WAIT:
                    batch = pipe.popleft()
                    games = [g for _, g in batch]
                    reply = batch, self.evaluator.evaluate_batch(games)
        except StopIteration as stop:
            return stop.value

    def search_program(
        self, game: Game, num_playouts: "int | SearchBudget"
    ) -> Generator[tuple[str, Any], Any, "Node | ArrayNodeView"]:
        """The master as a generator over the steps its driver schedules.

        It yields ``(kind, payload)`` pairs:

        - ``(LEAF, (leaf, depth))`` for each selected leaf, before the
          leaf is backed up (terminal) or queued, so a cost model can
          price the descent;
        - ``(FLUSH, sub_batch)`` when a sub-batch of ``(leaf, game)``
          pairs leaves for evaluation;
        - ``(WAIT, None)`` when the master may launch no more leaves; the
          driver sends back ``(sub_batch, evaluations)`` for any flushed
          sub-batch not yet taken back, in any order.

        The root is evaluated through ``evaluator.evaluate`` on the first
        step; the program returns the root.
        """
        budget = as_budget(num_playouts)
        if game.is_terminal:
            raise ValueError("cannot search from a terminal state")
        root = self._make_root(game, budget)
        expand(root, game, self.evaluator.evaluate(game))
        root.visit_count += 1
        if self.dirichlet_epsilon > 0:
            add_dirichlet_noise(
                root, self.rng, self.dirichlet_alpha, self.dirichlet_epsilon
            )

        pending: SubBatch = []  # accumulating sub-batch
        inflight = 0  # requests flushed and not yet taken back
        launched = 1  # the root evaluation
        completed = 1
        clock = budget.start()
        target = clock.target  # None with a pure time budget
        # the root expansion leaves the root's children unvisited, so the
        # deadline may only fire once min_playouts real rollouts launched
        min_launched = 1 + budget.min_playouts

        def reached(n: int) -> bool:
            return target is not None and n >= target

        def deadline_hit() -> bool:
            return launched >= min_launched and clock.expired()

        while True:
            # Anytime semantics: an expired deadline stops *launching*
            # playouts; everything already in flight still completes (and
            # recovers its virtual loss) before the move returns.
            expired = deadline_hit()
            # Master-thread in-tree operations: select new leaves while
            # fewer than N are in flight (Algorithm 3 lines 7-11).
            while (
                not expired
                and not reached(launched)
                and inflight + len(pending) < self.num_workers
            ):
                leaf, leaf_game, depth = select_leaf(
                    root, game.copy(), self.c_puct, self.vl_policy
                )
                launched += 1
                yield LEAF, (leaf, depth)
                if leaf.is_terminal:
                    value = leaf.terminal_value
                    assert value is not None
                    backup(leaf, value, self.vl_policy)
                    completed += 1
                    continue
                pending.append((leaf, leaf_game))
                if len(pending) >= self.batch_size:
                    inflight += len(pending)
                    yield FLUSH, pending
                    pending = []
                expired = deadline_hit()

            if completed == launched and (reached(completed) or expired):
                return root
            # All selections launched (or capacity full): force out any
            # partial sub-batch so the tail of the move cannot deadlock.
            if pending and (reached(launched) or expired or not inflight):
                inflight += len(pending)
                yield FLUSH, pending
                pending = []
            if not inflight:
                # every launched playout already completed via terminal
                # leaves and nothing is pending -- but the count says we
                # still owe playouts, so selection must continue.
                continue
            # Complete a finished sub-batch (Algorithm 3 lines 12-16):
            # expand and back up its leaves in submission order (no locks:
            # only the master touches the tree).
            batch, evaluations = yield WAIT, None
            inflight -= len(batch)
            for (leaf, leaf_game), ev in zip(batch, evaluations):
                value = expand(leaf, leaf_game, ev)
                backup(leaf, value, self.vl_policy)
                completed += 1
