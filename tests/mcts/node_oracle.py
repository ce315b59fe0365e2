"""``Node``: the object-per-node search tree, kept as the array tree's oracle.

Every search in ``repro`` grows an :class:`~repro.mcts.arraytree.ArrayTree`.
This module keeps the tree that the array tree replaced -- one heap object
per node, each child scored on its own -- because it is slow but
obviously right: the parity suites check that the array tree reproduces
it bit for bit (same visit counts, same value sums, same RNG consumption).

It holds ``Node`` and the ``Node`` half of every search primitive:
:func:`select_leaf`, :func:`expand`, :func:`backup`,
:func:`action_prior_from_root`, :func:`add_dirichlet_noise`, Equation-1
scoring (:func:`uct_scores`, :func:`select_child`) with each virtual-loss
policy's per-node statistics (:func:`effective_stats`), and tree reuse's
detach.  :func:`node_trees` runs the real search program, and so every
scheme built on it, over ``Node`` trees for the span of a ``with`` block:
it patches the primitives and the root factory where the program imports
them, as ``tests/nn/conv_oracle.py`` stands in for the fused forward.

Each node represents a game state; the edge statistics Q(s,a), N(s,a),
P(s,a) from Section 2.1 of the paper are stored on the *child* node reached
by taking action ``a``, which is the standard flattening (an edge and the
node under it are one-to-one in a tree).

Sign convention (important!): ``value_sum``/``q`` are from the perspective
of **the player who moved into this node** -- i.e. Q(s,a) for the player to
move at the parent.  Leaf evaluations arrive from the mover-at-leaf
perspective and are negated once per level in backup.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterator

import numpy as np
import pytest

from repro.games.base import Game
from repro.mcts import reuse, serial
from repro.mcts.evaluation import Evaluation
from repro.mcts.virtual_loss import (
    ConstantVirtualLoss,
    NoVirtualLoss,
    VirtualLossPolicy,
    WUVirtualLoss,
)
from repro.parallel import base

__all__ = [
    "Node",
    "action_prior_from_root",
    "add_dirichlet_noise",
    "backup",
    "effective_stats",
    "expand",
    "make_root",
    "node_trees",
    "on_backend",
    "select_child",
    "select_leaf",
    "uct_scores",
]

_NO_VL = NoVirtualLoss()


class Node:
    """A single tree node; plain attribute access, ``__slots__`` for density."""

    __slots__ = (
        "parent",
        "action",
        "prior",
        "visit_count",
        "value_sum",
        "virtual_loss",
        "children",
        "terminal_value",
    )

    def __init__(
        self,
        parent: "Node | None" = None,
        action: int = -1,
        prior: float = 1.0,
    ) -> None:
        self.parent = parent
        self.action = action
        self.prior = prior
        self.visit_count = 0
        self.value_sum = 0.0
        #: pending traversals through this node (units depend on VL policy)
        self.virtual_loss = 0.0
        self.children: dict[int, Node] = {}
        #: cached game outcome when this node's state is terminal, from the
        #: mover-at-this-state perspective; None for non-terminal states.
        self.terminal_value: float | None = None

    # -- structure -----------------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        """True until the node has been expanded (no children yet)."""
        return not self.children

    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def is_terminal(self) -> bool:
        return self.terminal_value is not None

    # -- statistics -----------------------------------------------------------
    @property
    def q(self) -> float:
        """Mean action value Q(s,a); 0 for unvisited edges (paper init)."""
        return self.value_sum / self.visit_count if self.visit_count else 0.0

    def add_child(self, action: int, prior: float) -> "Node":
        if action in self.children:
            raise ValueError(f"child for action {action} already exists")
        child = Node(parent=self, action=action, prior=prior)
        self.children[action] = child
        return child

    # -- traversal helpers -----------------------------------------------------
    def path_from_root(self) -> list[int]:
        """Action sequence from the root to this node."""
        actions: list[int] = []
        node: Node | None = self
        while node is not None and node.parent is not None:
            actions.append(node.action)
            node = node.parent
        return actions[::-1]

    def depth(self) -> int:
        d = 0
        node = self.parent
        while node is not None:
            d += 1
            node = node.parent
        return d

    def iter_subtree(self) -> Iterator["Node"]:
        """Pre-order iteration over this node's subtree (self included)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def subtree_size(self) -> int:
        return sum(1 for _ in self.iter_subtree())

    def max_depth(self) -> int:
        """Depth of the deepest descendant, relative to this node."""
        best = 0
        stack = [(self, 0)]
        while stack:
            node, d = stack.pop()
            best = max(best, d)
            stack.extend((c, d + 1) for c in node.children.values())
        return best

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Node(action={self.action}, N={self.visit_count}, "
            f"Q={self.q:+.3f}, P={self.prior:.3f}, VL={self.virtual_loss}, "
            f"children={len(self.children)})"
        )


def make_root(capacity: int = 1024) -> Node:
    """A fresh root; *capacity* is the array factory's hint, unused here."""
    return Node()


# -- each policy's per-node statistics -----------------------------------------
def _observed_stats(node: Node) -> tuple[float, float]:
    return float(node.visit_count), node.q


def _constant_stats(node: Node) -> tuple[float, float]:
    vl = node.virtual_loss
    n_eff = node.visit_count + vl
    if n_eff <= 0:
        return 0.0, 0.0
    # each pretended playout contributes a loss (-1) to the value sum
    return n_eff, (node.value_sum - vl) / n_eff


def _unobserved_stats(node: Node) -> tuple[float, float]:
    # Q uses only *observed* outcomes (the "watch the unobserved" rule)
    return node.visit_count + node.virtual_loss, node.q


def stats_rule(policy: VirtualLossPolicy) -> Callable[[Node], tuple[float, float]]:
    """*policy*'s map from one node's raw (N, W, VL) to the
    ``(effective_visits, effective_q)`` Equation 1 sees."""
    if isinstance(policy, ConstantVirtualLoss):
        return _constant_stats
    if isinstance(policy, WUVirtualLoss):
        return _unobserved_stats
    return _observed_stats


def effective_stats(policy: VirtualLossPolicy, node: Node) -> tuple[float, float]:
    """``(effective_visits, effective_q)`` of *node* under *policy*."""
    return stats_rule(policy)(node)


# -- Equation-1 selection -------------------------------------------------------
def uct_scores(
    node: Node, c_puct: float, vl_policy: VirtualLossPolicy | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """UCT scores of all children of *node*: ``(actions, scores)`` as
    parallel arrays, actions ascending."""
    vl = vl_policy or _NO_VL
    if node.is_leaf:
        raise ValueError("uct_scores on an unexpanded node")
    stats = stats_rule(vl)
    actions = np.array(sorted(node.children), dtype=np.int64)
    n_parent = vl.parent_visit_total(node.visit_count, node.virtual_loss)
    # Floor at 1 so that, before any child has been visited, selection
    # falls back to argmax of the priors instead of degenerating to ties.
    sqrt_parent = math.sqrt(max(n_parent, 1.0))
    scores = np.empty(len(actions), dtype=np.float64)
    for i, a in enumerate(actions):
        child = node.children[a]
        n_eff, q_eff = stats(child)
        scores[i] = q_eff + c_puct * child.prior * sqrt_parent / (1.0 + n_eff)
    return actions, scores


def select_child(
    node: Node, c_puct: float, vl_policy: VirtualLossPolicy | None = None
) -> Node:
    """Argmax of Equation 1 over *node*'s children (ties -> lowest action)."""
    actions, scores = uct_scores(node, c_puct, vl_policy)
    return node.children[int(actions[int(np.argmax(scores))])]


# -- the search primitives --------------------------------------------------------
def select_leaf(
    root: Node, game: Game, c_puct: float, vl_policy: VirtualLossPolicy | None = None
) -> tuple[Node, Game, int]:
    """Descend from *root* by Equation 1 to a leaf, stepping *game* and
    marking the path with *vl_policy*; ``(leaf, game_at_leaf, depth)``."""
    vl = vl_policy or _NO_VL
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


def expand(node: Node, game: Game, evaluation: Evaluation) -> float:
    """A child per legal action with the evaluation's prior; returns the
    value to back up (the outcome at a terminal state)."""
    if game.is_terminal:
        node.terminal_value = game.terminal_value
        return node.terminal_value
    if not node.is_leaf:
        return float(evaluation.value)
    legal = game.legal_actions()
    if len(legal) == 0:
        raise RuntimeError("non-terminal state with no legal actions")
    for a in legal:
        node.add_child(int(a), float(evaluation.priors[a]))
    return float(evaluation.value)


def backup(
    node: Node, value: float, vl_policy: VirtualLossPolicy | None = None
) -> None:
    """Add a visit and *value* (negated once per level) from *node* to the
    root, recovering virtual loss on the way."""
    vl = vl_policy or _NO_VL
    current: Node | None = node
    v = value
    while current is not None:
        current.visit_count += 1
        current.value_sum += -v
        vl.on_backup(current)
        v = -v
        current = current.parent


def action_prior_from_root(root: Node, action_size: int) -> np.ndarray:
    """Normalised root-child visit counts over the full action space."""
    prior = np.zeros(action_size, dtype=np.float64)
    total = 0
    for action, child in root.children.items():
        prior[action] = child.visit_count
        total += child.visit_count
    if total == 0:
        raise ValueError("root has no visited children; run playouts first")
    return prior / total


def add_dirichlet_noise(
    root: Node, rng: np.random.Generator, alpha: float = 0.3, epsilon: float = 0.25
) -> None:
    """Mix Dirichlet noise into the root's priors, one draw over the
    children in action order."""
    if root.is_leaf:
        raise ValueError("expand the root before adding noise")
    actions = sorted(root.children)
    noise = rng.dirichlet([alpha] * len(actions))
    for a, n in zip(actions, noise):
        child = root.children[a]
        child.prior = (1 - epsilon) * child.prior + epsilon * float(n)


# -- the search program on Node trees ---------------------------------------------
def _observe(self: reuse.TreeReuseMCTS, action: int) -> None:
    """``TreeReuseMCTS.observe`` on a ``Node`` tree: the kept child is
    detached in place, and the rest of the tree is garbage."""
    if self._root is None:
        return
    child = self._root.children.get(action)
    if child is not None:
        child.parent = None
        child.action = -1
    self._root = child


def _get_action_prior(self: serial.SerialMCTS, game: Game, num_playouts) -> np.ndarray:
    """``SerialMCTS.get_action_prior`` without the array tree's give-back:
    a ``Node`` tree has no storage to recycle."""
    return action_prior_from_root(self.search(game, num_playouts), game.action_size)


@contextmanager
def node_trees() -> Iterator[None]:
    """Search ``Node`` trees for the span of the ``with`` block.

    Patches the search program's primitives and root factory in
    :mod:`repro.mcts.serial`, tree reuse's root factory, detach and
    prior, and the schemes' prior, so everything that steps the program --
    the inline search, tree reuse and the parallel schemes -- runs
    unchanged.
    Build and run the searches to compare inside the block.
    """
    with pytest.MonkeyPatch.context() as mp:
        for name in ("select_leaf", "expand", "backup", "add_dirichlet_noise", "make_root"):
            mp.setattr(serial, name, globals()[name])
        mp.setattr(serial.SerialMCTS, "get_action_prior", _get_action_prior)
        mp.setattr(reuse, "make_root", make_root)
        mp.setattr(reuse, "action_prior_from_root", action_prior_from_root)
        mp.setattr(reuse.TreeReuseMCTS, "observe", _observe)
        mp.setattr(base, "action_prior_from_root", action_prior_from_root)
        yield


def on_backend(backend: str):
    """:func:`node_trees` for ``"node"``, nothing for ``"array"``."""
    if backend not in ("node", "array"):
        raise ValueError(f"unknown tree backend {backend!r}")
    return node_trees() if backend == "node" else nullcontext()
