"""Leaf-parallel MCTS baseline [Cazenave & Jouandeau 2007] (Section 2.2).

A single tree with serial in-tree operations; parallelism is spent running
N independent evaluations of the *same* selected leaf.  The paper notes
this "wastes parallelism due to the lack of diverse evaluation coverage on
different selected paths" -- it exists here as a baseline for the
related-work comparison benchmarks.

The tree search is :class:`~repro.mcts.serial.SerialMCTS`'s search
program; the N evaluations of each leaf go to the evaluator as one
``evaluate_batch`` of N copies, on the caller's thread.  The fused
network plan can return a batched row that differs from a lone one in the
last float32 bits, so under a network evaluator the averaged value
matches N separate evaluations only to that rounding.
"""

from __future__ import annotations

import numpy as np

from repro.games.base import Game
from repro.mcts.arraytree import ArrayNodeView
from repro.mcts.budget import SearchBudget
from repro.mcts.evaluation import Evaluation, Evaluator
from repro.mcts.serial import SerialMCTS
from repro.parallel.base import ParallelScheme, SchemeName

__all__ = ["LeafParallelMCTS"]


class _SameLeafEvaluator(Evaluator):
    """Evaluates N copies of a leaf as one batch and averages them."""

    def __init__(self, evaluator: Evaluator, copies: int) -> None:
        self.evaluator = evaluator
        self.copies = copies

    def evaluate(self, game: Game) -> Evaluation:
        evaluations = self.evaluator.evaluate_batch([game] * self.copies)
        # priors averaged as well (identical for deterministic nets)
        return Evaluation(
            priors=np.mean([ev.priors for ev in evaluations], axis=0),
            value=float(np.mean([ev.value for ev in evaluations])),
        )


class LeafParallelMCTS(ParallelScheme):
    """Serial tree, N same-leaf evaluations averaged into one backup.

    Each "playout" consumes ``num_workers`` evaluations but performs a
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
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.evaluator = evaluator
        self.num_workers = num_workers
        self._serial = SerialMCTS(
            _SameLeafEvaluator(evaluator, num_workers),
            c_puct=c_puct,
            dirichlet_alpha=dirichlet_alpha,
            dirichlet_epsilon=dirichlet_epsilon,
            rng=rng,
        )

    def search(
        self, game: Game, num_playouts: "int | SearchBudget"
    ) -> ArrayNodeView:
        return self._serial.search(game, num_playouts)

    def get_action_prior(
        self, game: Game, num_playouts: "int | SearchBudget"
    ) -> np.ndarray:
        """The serial search's prior, which hands its tree back for the
        next search on this thread to reuse."""
        return self._serial.get_action_prior(game, num_playouts)
