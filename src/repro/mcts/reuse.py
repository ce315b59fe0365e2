"""Subtree reuse across moves (standard DNN-MCTS optimisation).

The paper's pipeline rebuilds the search tree from scratch every move
(Algorithms 2-3 start from a fresh root).  Production AlphaZero systems
instead *advance* the root along the played action, keeping the entire
explored subtree and its statistics warm.  This module provides that
optimisation as a wrapper agent, plus the bookkeeping to quantify how
many playouts it saves -- an ablation for the in-tree-cost models (a
reused tree starts deeper, so T_select grows and the shared-tree regime
arrives earlier, interacting with the adaptive choice).
"""

from __future__ import annotations

import numpy as np

from repro.games.base import Game
from repro.mcts.arraytree import ArrayNodeView, make_root
from repro.mcts.budget import BudgetClock, SearchBudget
from repro.mcts.evaluation import Evaluator
from repro.mcts.search import action_prior_from_root
from repro.mcts.serial import SerialMCTS

__all__ = ["TreeReuseMCTS"]


class TreeReuseMCTS(SerialMCTS):
    """Serial DNN-MCTS that keeps the tree across moves of one episode.

    Usage::

        agent = TreeReuseMCTS(evaluator)
        prior = agent.get_action_prior(game, 400)   # searches / resumes
        game.step(action)
        agent.observe(action)                       # advance the root
        ...
        agent.reset()                               # new episode

    ``observe`` must be called for *every* action applied to the game
    (own and opponent's) so the internal root tracks the game state.
    The search itself is :class:`SerialMCTS`'s, ``search_program``
    included; only the root it grows and its count target differ.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        c_puct: float = 5.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(evaluator, c_puct=c_puct, rng=rng)
        self._root: ArrayNodeView | None = None
        #: visits already in the root when a search starts (reused work)
        self.reused_visits = 0
        self.searches = 0

    def reset(self) -> None:
        """Drop the tree (start of a new episode)."""
        self._root = None

    def observe(self, action: int) -> None:
        """Advance the root along *action*; unexplored moves drop the tree."""
        if self._root is None:
            return
        child = self._root.children.get(action)
        if child is None:
            self._root = None
            return
        # compact the kept subtree into a fresh tree so the abandoned
        # siblings (the bulk of the rows) are freed each move instead of
        # accumulating over the episode
        self._root = ArrayNodeView(child.tree.extract_subtree(child.index), 0)

    def get_action_prior(
        self, game: Game, num_playouts: "int | SearchBudget"
    ) -> np.ndarray:
        """Normalised root visit counts; the kept tree is never given
        back, because the next move resumes it."""
        root = self.search(game, num_playouts)
        return action_prior_from_root(root, game.action_size)

    def _start(
        self, game: Game, budget: SearchBudget, clock: BudgetClock | None
    ) -> tuple[ArrayNodeView, BudgetClock]:
        """Resume the kept root.  The budget counts *total* root visits,
        so a warm tree needs fewer fresh playouts for the same
        statistics; with a deadline, a warm tree still gets at least one
        fresh playout.  The kept root sets its own count target, so a
        clock from outside is refused."""
        if clock is not None:
            raise ValueError("tree reuse sets its own budget target; pass no clock")
        if game.is_terminal:
            raise ValueError("cannot search from a terminal state")
        if self._root is None:
            self._root = make_root()
        root = self._root
        self.reused_visits += root.visit_count
        self.searches += 1
        needed = None
        if budget.num_playouts is not None:
            needed = max(1, budget.num_playouts - root.visit_count)
        return root, budget.start(target=needed)
