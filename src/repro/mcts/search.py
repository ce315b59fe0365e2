"""Shared search primitives: selection descent, expansion, backup, priors.

These are the building blocks every scheme (serial, shared-tree,
local-tree) and the shared-tree simulation compose; keeping them here
guarantees all schemes run the *same algorithm* and differ only in
scheduling -- the property the paper's program template provides
(Section 3.2: "a single program template that allows compile-time adaptive
selection of parallel implementations").

Each primitive serves both tree backends: a ``Node`` root runs the
per-object reference path, an :class:`~repro.mcts.arraytree.ArrayNodeView`
root dispatches to the vectorised :class:`~repro.mcts.arraytree.ArrayTree`
operations (slab expansion, array-indexed backup, one-``argmax``
selection).  The two paths are exact-equivalent -- same visit counts,
same RNG consumption -- which the backend-equivalence property tests
assert.
"""

from __future__ import annotations

import numpy as np

from repro.games.base import Game
from repro.mcts.arraytree import ArrayNodeView
from repro.mcts.evaluation import Evaluation
from repro.mcts.node import Node
from repro.mcts.uct import select_child
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
    root: "Node | ArrayNodeView",
    game: Game,
    c_puct: float,
    vl_policy: VirtualLossPolicy | None = None,
) -> tuple["Node | ArrayNodeView", Game, int]:
    """Descend from *root* following Equation 1 until reaching a leaf.

    Mutates *game* by executing the corresponding moves (Algorithm 2
    line 12 / Algorithm 3 line 10) and marks the traversed path via the
    VL policy (a no-op without one).

    Returns ``(leaf, game_at_leaf, path_length)``.
    """
    vl = vl_policy or _NO_VL
    if isinstance(root, ArrayNodeView):
        leaf_row, depth = root.tree.select_to_leaf(root.index, game, c_puct, vl)
        leaf = root if leaf_row == root.index else ArrayNodeView(root.tree, leaf_row)
        return leaf, game, depth
    node = root
    depth = 0
    vl.on_descend(node)
    while not node.is_leaf and not node.is_terminal:
        node = select_child(node, c_puct, vl_policy)
        game.step(node.action)
        depth += 1
        vl.on_descend(node)
        if game.is_terminal:
            node.terminal_value = game.terminal_value
    return node, game, depth


def expand(
    node: "Node | ArrayNodeView", game: Game, evaluation: Evaluation
) -> float:
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
    if isinstance(node, ArrayNodeView):
        priors = np.asarray(evaluation.priors, dtype=np.float64)[legal]
        node.tree.expand(node.index, legal, priors)
        return float(evaluation.value)
    for a in legal:
        node.add_child(int(a), float(evaluation.priors[a]))
    return float(evaluation.value)


def backup(
    node: "Node | ArrayNodeView",
    value: float,
    vl_policy: VirtualLossPolicy | None = None,
) -> None:
    """BackUp (paper Section 2.1, operation 3).

    *value* is from the perspective of the player to move at *node*'s
    state; it is negated once per level so each edge accumulates the
    outcome for the player who took it.  Recovers virtual loss along the
    way (paper: "VL is recovered later in the BackUp phase").
    """
    vl = vl_policy or _NO_VL
    if isinstance(node, ArrayNodeView):
        node.tree.backup(node.index, value, vl)
        return
    current: Node | None = node
    v = value
    while current is not None:
        current.visit_count += 1
        current.value_sum += -v
        vl.on_backup(current)
        v = -v
        current = current.parent


def action_prior_from_root(
    root: "Node | ArrayNodeView", action_size: int
) -> np.ndarray:
    """Normalised root visit counts (Algorithm 2 line 6 / Algorithm 3
    line 3): the action prior pi used both for move selection and as the
    policy training target."""
    if isinstance(root, ArrayNodeView):
        return root.tree.action_prior(root.index, action_size)
    prior = np.zeros(action_size, dtype=np.float64)
    total = 0
    for action, child in root.children.items():
        prior[action] = child.visit_count
        total += child.visit_count
    if total == 0:
        raise ValueError("root has no visited children; run playouts first")
    return prior / total


def add_dirichlet_noise(
    root: "Node | ArrayNodeView",
    rng: np.random.Generator,
    alpha: float = 0.3,
    epsilon: float = 0.25,
) -> None:
    """Mix Dirichlet noise into root priors (AlphaZero exploration)."""
    if isinstance(root, ArrayNodeView):
        root.tree.add_dirichlet_noise(root.index, rng, alpha, epsilon)
        return
    if root.is_leaf:
        raise ValueError("expand the root before adding noise")
    actions = sorted(root.children)
    noise = rng.dirichlet([alpha] * len(actions))
    for a, n in zip(actions, noise):
        child = root.children[a]
        child.prior = (1 - epsilon) * child.prior + epsilon * float(n)


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
