"""Leaf-parallel MCTS baseline [Cazenave & Jouandeau 2007] (Section 2.2).

A single tree with serial in-tree operations; parallelism is spent running
N independent evaluations of the *same* selected leaf.  The paper notes
this "wastes parallelism due to the lack of diverse evaluation coverage on
different selected paths" -- it exists here as a baseline for the
related-work comparison benchmarks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.games.base import Game
from repro.mcts.backend import TreeBackend, resolve_backend
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
from repro.parallel.base import ParallelScheme, SchemeName
from repro.utils.rng import new_rng

__all__ = ["LeafParallelMCTS"]


class LeafParallelMCTS(ParallelScheme):
    """Serial tree, parallel same-leaf evaluations averaged into one backup.

    Each "playout" consumes ``num_workers`` evaluator calls but performs a
    single (averaged) backup -- the visit counts advance exactly as in the
    serial algorithm, only the leaf value estimate is lower-variance.  This
    matches the classical leaf-parallelisation semantics and is what makes
    the scheme waste parallel capacity on algorithmically-redundant work.
    """

    name = SchemeName.LEAF_PARALLEL

    def __init__(
        self,
        evaluator: Evaluator,
        num_workers: int = 4,
        c_puct: float = 5.0,
        dirichlet_alpha: float = 0.3,
        dirichlet_epsilon: float = 0.0,
        rng: np.random.Generator | int | None = None,
        tree_backend: TreeBackend | str | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if c_puct <= 0:
            raise ValueError("c_puct must be positive")
        self.evaluator = evaluator
        self.num_workers = num_workers
        self.c_puct = c_puct
        self.dirichlet_alpha = dirichlet_alpha
        self.dirichlet_epsilon = dirichlet_epsilon
        self.rng = new_rng(rng)
        self.tree_backend = resolve_backend(tree_backend)
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.num_workers, thread_name_prefix="leaf-parallel"
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def search(self, game: Game, num_playouts: "int | SearchBudget") -> Node:
        budget = as_budget(num_playouts)
        if game.is_terminal:
            raise ValueError("cannot search from a terminal state")
        pool = self._ensure_pool()
        root = self._make_root(game, budget)
        clock = budget.start()
        first = True
        while True:
            leaf, leaf_game, _ = select_leaf(
                root, game.copy(), self.c_puct, apply_virtual_loss=False
            )
            if leaf.is_terminal:
                value = leaf.terminal_value
                assert value is not None
            else:
                futures = [
                    pool.submit(self.evaluator.evaluate, leaf_game)
                    for _ in range(self.num_workers)
                ]
                evaluations = [f.result() for f in futures]
                value = float(np.mean([ev.value for ev in evaluations]))
                # priors averaged as well (identical for deterministic nets)
                priors = np.mean([ev.priors for ev in evaluations], axis=0)
                merged = evaluations[0].__class__(priors=priors, value=value)
                expand(leaf, leaf_game, merged)
            backup(leaf, value)
            clock.note()
            if first and self.dirichlet_epsilon > 0 and not root.is_leaf:
                add_dirichlet_noise(
                    root, self.rng, self.dirichlet_alpha, self.dirichlet_epsilon
                )
            first = False
            if clock.done():
                return root

    def get_action_prior(
        self, game: Game, num_playouts: "int | SearchBudget"
    ) -> np.ndarray:
        root = self.search(game, num_playouts)
        return action_prior_from_root(root, game.action_size)
