"""Local-tree tree-parallel MCTS (paper Algorithm 3, Section 3.1.2).

A centralised **master thread** (the caller of :meth:`search`) owns the
complete tree and executes *all* in-tree operations -- selection,
expansion, backup -- with no locks at all.  Algorithm 3 hands node
evaluation (DNN inference) to N workers through FIFO pipes, so that
inference overlaps the master's tree work.  Here the pipe is a FIFO of
flushed sub-batches that the master drains itself: when it may launch no
more leaves, it evaluates the oldest sub-batch and backs its leaves up in
submission order.  Under the GIL a worker hand-off costs more than the
forward it would overlap, and draining in submission order makes the
search deterministic at any N.  The overlap on the paper's platform is
modelled by :mod:`repro.simulator.local_tree_sim`.

The ``batch_size`` parameter implements the CUDA-stream sub-batching of
Sections 3.3/4.2: the master accumulates ``B`` evaluation requests before
submitting them as one batched inference, so with N leaves in flight
there are N/B sub-batches in the pipe -- the knob Algorithm 4 tunes.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.games.base import Game
from repro.mcts.backend import TreeBackend
from repro.mcts.budget import SearchBudget, as_budget
from repro.mcts.evaluation import Evaluator
from repro.mcts.node import Node
from repro.mcts.search import (
    action_prior_from_root,
    add_dirichlet_noise,
    backup,
    expand,
    select_leaf,
)
from repro.mcts.virtual_loss import VirtualLossPolicy, WUVirtualLoss
from repro.parallel.base import ParallelScheme, SchemeName
from repro.utils.rng import new_rng

__all__ = ["LocalTreeMCTS"]


class LocalTreeMCTS(ParallelScheme):
    """Master-thread tree whose evaluation pipe the master drains in order.

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
        # only the master thread touches the tree (Algorithm 3), so the
        # array backend is exact here too; Node stays the default
        self._resolve_backend(tree_backend, TreeBackend.NODE)

    # -- search (Algorithm 3, rollout_n_times) -------------------------------
    def search(self, game: Game, num_playouts: "int | SearchBudget") -> Node:
        budget = as_budget(num_playouts)
        if game.is_terminal:
            raise ValueError("cannot search from a terminal state")
        root = self._make_root(game, budget)
        evaluation = self.evaluator.evaluate(game)
        expand(root, game, evaluation)
        root.visit_count += 1
        if self.dirichlet_epsilon > 0:
            add_dirichlet_noise(
                root, self.rng, self.dirichlet_alpha, self.dirichlet_epsilon
            )

        pending: list[tuple[Node, Game]] = []  # accumulating sub-batch
        # flushed sub-batches, oldest first: Algorithm 3's FIFO pipe
        inflight: deque[list[tuple[Node, Game]]] = deque()

        def inflight_requests() -> int:
            return sum(map(len, inflight))

        def flush() -> None:
            if pending:
                inflight.append(pending.copy())
                pending.clear()

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
                and inflight_requests() + len(pending) < self.num_workers
            ):
                leaf, leaf_game, _ = select_leaf(
                    root, game.copy(), self.c_puct, self.vl_policy
                )
                launched += 1
                if leaf.is_terminal:
                    value = leaf.terminal_value
                    assert value is not None
                    backup(leaf, value, self.vl_policy)
                    completed += 1
                    continue
                pending.append((leaf, leaf_game))
                if len(pending) >= self.batch_size:
                    flush()
                expired = deadline_hit()

            if completed == launched and (reached(completed) or expired):
                break
            # All selections launched (or capacity full): force out any
            # partial sub-batch so the tail of the move cannot deadlock.
            if pending and (reached(launched) or expired or not inflight):
                flush()
            if not inflight:
                # every launched playout already completed via terminal
                # leaves and nothing is pending -- but the count says we
                # still owe playouts, so selection must continue.
                continue
            # Complete the oldest sub-batch (Algorithm 3 lines 12-16): the
            # master evaluates it, then expands and backs up its leaves in
            # submission order (no locks: only this thread touches the tree).
            items = inflight.popleft()
            evaluations = self.evaluator.evaluate_batch([g for _, g in items])
            for (leaf, leaf_game), ev in zip(items, evaluations):
                value = expand(leaf, leaf_game, ev)
                backup(leaf, value, self.vl_policy)
                completed += 1
        return root

    def get_action_prior(
        self, game: Game, num_playouts: "int | SearchBudget"
    ) -> np.ndarray:
        root = self.search(game, num_playouts)
        return action_prior_from_root(root, game.action_size)
