"""Common interface for every parallel search scheme.

The adaptive framework (Section 3.2) treats schemes as interchangeable
implementations of ``get_action_prior``; this module pins that contract
down so the design-configuration workflow can swap them at "compile time"
(here: object construction time).
"""

from __future__ import annotations

import abc
import enum

import numpy as np

from repro.games.base import Game
from repro.mcts.arraytree import ArrayNodeView
from repro.mcts.budget import SearchBudget
from repro.mcts.search import action_prior_from_root

__all__ = ["SchemeName", "ParallelScheme"]


class SchemeName(str, enum.Enum):
    """Identifiers used by the performance models and the adaptive selector."""

    SERIAL = "serial"
    SHARED_TREE = "shared_tree"
    LOCAL_TREE = "local_tree"
    LEAF_PARALLEL = "leaf_parallel"
    ROOT_PARALLEL = "root_parallel"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ParallelScheme(abc.ABC):
    """A search scheme that turns a game state into an action prior.

    Every scheme grows array trees (:mod:`repro.mcts.arraytree`) and runs
    its in-tree operations on its caller's thread.
    """

    name: SchemeName

    @abc.abstractmethod
    def search(
        self, game: Game, num_playouts: "int | SearchBudget"
    ) -> ArrayNodeView:
        """Run the tree-based search and return the root node.

        *num_playouts* is the historic playout count or a
        :class:`~repro.mcts.budget.SearchBudget`; with a deadline the
        search is *anytime* -- it stops launching playouts once the wall
        clock expires and returns the statistics accumulated so far.
        """

    def get_action_prior(
        self, game: Game, num_playouts: "int | SearchBudget"
    ) -> np.ndarray:
        """Normalised root visit counts over the full action space."""
        root = self.search(game, num_playouts)
        return action_prior_from_root(root, game.action_size)

    def close(self) -> None:
        """No-op: every scheme runs on its caller's thread and holds no
        resource.  Kept because perfbench's workloads still call it."""
