"""Shared search primitives: selection descent, expansion, backup, priors.

These are the building blocks of the one search program
(:meth:`repro.mcts.serial.SerialMCTS.search_program`) that every scheme
runs, and of the shared-tree simulation; keeping them here guarantees all
schemes run the *same algorithm* and differ only in scheduling -- the
property the paper's program template provides (Section 3.2: "a single
program template that allows compile-time adaptive selection of parallel
implementations").

Each primitive takes an :class:`~repro.mcts.arraytree.ArrayNodeView` and
runs the vectorised :class:`~repro.mcts.arraytree.ArrayTree` operation
on its tree: one-``argmax`` selection per level, slab expansion,
array-indexed backup.
"""

from __future__ import annotations

import numpy as np

from repro.games.base import Game
from repro.mcts.arraytree import ArrayNodeView
from repro.mcts.evaluation import Evaluation
from repro.mcts.virtual_loss import NoVirtualLoss, VirtualLossPolicy

__all__ = [
    "select_leaf",
    "expand",
    "backup",
    "action_prior_from_root",
    "add_dirichlet_noise",
    "sample_action",
]

_NO_VL = NoVirtualLoss()


def select_leaf(
    root: ArrayNodeView,
    game: Game,
    c_puct: float,
    vl_policy: VirtualLossPolicy | None = None,
) -> tuple[ArrayNodeView, Game, int]:
    """Descend from *root* following Equation 1 until reaching a leaf.

    Mutates *game* by executing the corresponding moves (Algorithm 2
    line 12 / Algorithm 3 line 10) and marks the traversed path via the
    VL policy (a no-op without one).

    Returns ``(leaf, game_at_leaf, path_length)``.
    """
    leaf_row, depth = root.tree.select_to_leaf(
        root.index, game, c_puct, vl_policy or _NO_VL
    )
    leaf = root if leaf_row == root.index else ArrayNodeView(root.tree, leaf_row)
    return leaf, game, depth


def expand(node: ArrayNodeView, game: Game, evaluation: Evaluation) -> float:
    """Node Expansion (paper Section 2.1, operation 2).

    Creates children for every legal action with priors from the
    evaluation; Q and N of new edges start at 0.  Returns the leaf value to
    back up (the game outcome for terminal states -- terminal nodes are
    never expanded).
    """
    if game.is_terminal:
        node.terminal_value = game.terminal_value
        return node.terminal_value
    if not node.is_leaf:
        # Concurrent workers may race to expand the same leaf; first one
        # wins, the value is still useful for backup.
        return float(evaluation.value)
    legal = game.legal_actions()
    if len(legal) == 0:
        raise RuntimeError("non-terminal state with no legal actions")
    priors = np.asarray(evaluation.priors, dtype=np.float64)[legal]
    node.tree.expand(node.index, legal, priors)
    return float(evaluation.value)


def backup(
    node: ArrayNodeView,
    value: float,
    vl_policy: VirtualLossPolicy | None = None,
) -> None:
    """BackUp (paper Section 2.1, operation 3).

    *value* is from the perspective of the player to move at *node*'s
    state; it is negated once per level so each edge accumulates the
    outcome for the player who took it.  Recovers virtual loss along the
    way (paper: "VL is recovered later in the BackUp phase").
    """
    node.tree.backup(node.index, value, vl_policy or _NO_VL)


def action_prior_from_root(root: ArrayNodeView, action_size: int) -> np.ndarray:
    """Normalised root visit counts (Algorithm 2 line 6 / Algorithm 3
    line 3): the action prior pi used both for move selection and as the
    policy training target."""
    return root.tree.action_prior(root.index, action_size)


def add_dirichlet_noise(
    root: ArrayNodeView,
    rng: np.random.Generator,
    alpha: float = 0.3,
    epsilon: float = 0.25,
) -> None:
    """Mix Dirichlet noise into root priors (AlphaZero exploration)."""
    root.tree.add_dirichlet_noise(root.index, rng, alpha, epsilon)


def sample_action(
    prior: np.ndarray,
    rng: np.random.Generator,
    temperature: float = 1.0,
) -> int:
    """Pick a move from the action prior.

    ``temperature -> 0`` is argmax (competitive play); ``1`` samples
    proportionally (self-play exploration, AlphaZero convention).
    """
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    if temperature < 1e-3:
        return int(np.argmax(prior))
    logits = np.power(prior, 1.0 / temperature)
    probs = logits / logits.sum()
    return int(rng.choice(len(prior), p=probs))
