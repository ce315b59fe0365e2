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

from typing import Generator

import numpy as np

from repro.games.base import Game
from repro.mcts.arraytree import ArrayNodeView
from repro.mcts.backend import TreeBackend, make_root, resolve_backend
from repro.mcts.budget import BudgetClock, SearchBudget, as_budget
from repro.mcts.evaluation import Evaluation, Evaluator
from repro.mcts.node import Node
from repro.mcts.search import (
    action_prior_from_root,
    backup,
    expand,
    select_leaf,
)
from repro.utils.rng import new_rng

__all__ = ["TreeReuseMCTS"]


class TreeReuseMCTS:
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
    """

    def __init__(
        self,
        evaluator: Evaluator,
        c_puct: float = 5.0,
        rng: np.random.Generator | int | None = None,
        tree_backend: TreeBackend | str | None = None,
    ) -> None:
        if c_puct <= 0:
            raise ValueError("c_puct must be positive")
        self.evaluator = evaluator
        self.c_puct = c_puct
        self.rng = new_rng(rng)
        self.tree_backend = resolve_backend(tree_backend, TreeBackend.ARRAY)
        self._root: Node | ArrayNodeView | None = None
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
        if isinstance(child, ArrayNodeView):
            # compact the kept subtree into a fresh tree so the abandoned
            # siblings (the bulk of the rows) are freed each move instead
            # of accumulating over the episode
            child = ArrayNodeView(child.tree.extract_subtree(child.index), 0)
        else:
            child.parent = None  # detach: the rest of the tree is garbage
            child.action = -1
        self._root = child

    def get_action_prior(
        self, game: Game, num_playouts: "int | SearchBudget"
    ) -> np.ndarray:
        root = self.search(game, num_playouts)
        return action_prior_from_root(root, game.action_size)

    def search(self, game: Game, num_playouts: "int | SearchBudget") -> Node:
        """Top the reused tree up to the budget's total root visits.

        With a :class:`~repro.mcts.budget.SearchBudget` the deadline is
        checked between fresh playouts -- a warm tree under a tight
        deadline still returns a valid prior from its reused statistics
        plus at least one fresh playout.  Runs :meth:`search_program`
        inline, each leaf through ``evaluator.evaluate``.
        """
        root, clock = self._arm(game, as_budget(num_playouts))
        program = self._playouts(root, clock, game)
        evaluate = self.evaluator.evaluate
        # expose the armed deadline to the evaluator seam (observational
        # only -- see BudgetClock.activated)
        with clock.activated():
            try:
                leaf = next(program)
                while True:
                    leaf = program.send(evaluate(leaf))
            except StopIteration as stop:
                return stop.value

    def search_program(
        self, game: Game, num_playouts: "int | SearchBudget"
    ) -> Generator[Game, Evaluation, Node]:
        """The search as a generator: it yields each leaf state it needs
        evaluated, is sent that leaf's :class:`Evaluation`, and returns
        the root.  The budget is armed on the first step."""
        root, clock = self._arm(game, as_budget(num_playouts))
        return (yield from self._playouts(root, clock, game))

    def _arm(self, game: Game, budget: SearchBudget) -> tuple[Node, BudgetClock]:
        if game.is_terminal:
            raise ValueError("cannot search from a terminal state")
        if self._root is None:
            self._root = make_root(self.tree_backend)
        root = self._root
        self.reused_visits += root.visit_count
        self.searches += 1
        # reuse semantics: the budget counts *total* root visits, so a
        # warm tree needs fewer fresh playouts for the same statistics
        needed = None
        if budget.num_playouts is not None:
            needed = max(1, budget.num_playouts - root.visit_count)
        return root, budget.start(target=needed)

    def _playouts(
        self, root: Node, clock: BudgetClock, game: Game
    ) -> Generator[Game, Evaluation, Node]:
        while True:
            leaf, leaf_game, _ = select_leaf(
                root, game.copy(), self.c_puct, apply_virtual_loss=False
            )
            if leaf.is_terminal:
                value = leaf.terminal_value
                assert value is not None
            else:
                value = expand(leaf, leaf_game, (yield leaf_game))
            backup(leaf, value)
            clock.note()
            if clock.done():
                return root

