"""Virtual-loss policies for tree-parallel MCTS.

The paper (Section 2.1): "after a worker traverses a certain node (path)
during Node Selection, a virtual loss VL is subtracted from U of the
traversed edges to lower their weights, thus encouraging other workers to
take different paths. ... VL can either be a pre-defined constant value
[Chaslot 2008], or a number tracking visit counts of child nodes
[WU-UCT, Liu 2020]."

Both styles are expressed through one interface so every search scheme
(serial, shared-tree, local-tree, simulated) is policy-agnostic:

- :meth:`on_descend` is called for each node on the selected path while
  descending (paper: Algorithm 2 line 14, "update node's UCT score with
  virtual loss");
- :meth:`on_backup` is called for each node on the path during BackUp
  (paper: "VL is recovered later in the BackUp phase").

The array tree (:mod:`repro.mcts.arraytree`) scores a whole child slab
at once, so each policy also states its rule over arrays:

- :attr:`descend_amount` -- the constant added to a node's virtual-loss
  counter per in-flight traversal (0 disables VL bookkeeping entirely);
- :meth:`effective_stats_arrays` -- maps raw (N, W, VL) columns of a
  child slab to the (N, Q) Equation 1 should see.  Q is ``value_sum / max(N, 1)``: only backup
  writes ``value_sum``, and it bumps ``N`` too, so an unvisited row's
  sum is exactly ``0.0`` and the quotient equals the masked
  ``N > 0 ? W / N : 0`` bit for bit without a mask or a zeroed buffer.
  The effective visit count may come back as the int64 column itself;
  Equation 1's ``1.0 + n`` promotes it exactly.  Constant VL keeps the
  masked divide, because its ``N + VL`` can lie in (0, 1);
- :meth:`parent_visit_total` -- the Equation-1 sqrt numerator derived
  from the *parent's own* counters instead of a per-child sum (every
  visit to an expanded non-terminal node except the one that expanded it
  descended into exactly one child, so ``sum_b N(s,b) == N(s) - 1``; the
  same derivation subtracts the caller's own pending descend from the
  virtual-loss total).  This is what makes selection O(children) in one
  numpy expression instead of two passes.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.mcts.arraytree import ArrayNodeView

__all__ = [
    "VirtualLossPolicy",
    "NoVirtualLoss",
    "ConstantVirtualLoss",
    "WUVirtualLoss",
]


class VirtualLossPolicy(abc.ABC):
    """Strategy interface for discouraging concurrent path collisions.

    An unbalanced descend/backup is a bug: a backup that would take a
    node's virtual-loss counter below zero raises ``RuntimeError``.
    """

    @property
    @abc.abstractmethod
    def descend_amount(self) -> float:
        """Virtual loss added to a node's counter per in-flight traversal."""

    @abc.abstractmethod
    def on_descend(self, node: ArrayNodeView) -> None:
        """Mark *node* as being traversed by an in-flight worker."""

    @abc.abstractmethod
    def on_backup(self, node: ArrayNodeView) -> None:
        """Recover the virtual loss applied by :meth:`on_descend`."""

    @abc.abstractmethod
    def effective_stats_arrays(
        self,
        visit_count: np.ndarray,
        value_sum: np.ndarray,
        virtual_loss: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(effective_visits, effective_q)`` over parallel stat arrays,
        for Equation 1."""

    def parent_visit_total(self, visit_count: float, virtual_loss: float) -> float:
        """Equation-1 sqrt numerator from the parent's *own* counters.

        ``sum_b N(s,b) == N(s) - 1`` for any expanded non-terminal node
        (every backup through the node continued into exactly one child,
        except the single playout that expanded it), and in-flight
        traversals past the node are its virtual-loss total minus the
        caller's own pending descend.  O(1) instead of a per-child sum.
        """
        return max(visit_count - 1.0, 0.0) + max(
            virtual_loss - self.descend_amount, 0.0
        )


class NoVirtualLoss(VirtualLossPolicy):
    """Identity policy: what serial MCTS uses."""

    @property
    def descend_amount(self) -> float:
        return 0.0

    def on_descend(self, node: ArrayNodeView) -> None:
        pass

    def on_backup(self, node: ArrayNodeView) -> None:
        pass

    def effective_stats_arrays(
        self,
        visit_count: np.ndarray,
        value_sum: np.ndarray,
        virtual_loss: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        return visit_count, value_sum / np.maximum(visit_count, 1)


class ConstantVirtualLoss(VirtualLossPolicy):
    """Classic constant virtual loss [Chaslot et al. 2008].

    Each in-flight traversal pretends to be ``weight`` lost playouts:
    N_eff = N + weight * inflight, W_eff = W - weight * inflight.  This both
    deflates Q and inflates the visit denominator, strongly repelling other
    workers from the path.
    """

    def __init__(self, weight: float = 3.0) -> None:
        if weight <= 0:
            raise ValueError(f"virtual-loss weight must be positive, got {weight}")
        self.weight = weight

    @property
    def descend_amount(self) -> float:
        return self.weight

    def on_descend(self, node: ArrayNodeView) -> None:
        node.virtual_loss += self.weight

    def on_backup(self, node: ArrayNodeView) -> None:
        node.virtual_loss -= self.weight
        if node.virtual_loss < -1e-9:
            raise RuntimeError("virtual loss went negative: unbalanced descend/backup")

    def effective_stats_arrays(
        self,
        visit_count: np.ndarray,
        value_sum: np.ndarray,
        virtual_loss: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        n_eff = visit_count + virtual_loss
        positive = n_eff > 0
        q_eff = np.zeros_like(n_eff, dtype=np.float64)
        np.divide(value_sum - virtual_loss, n_eff, out=q_eff, where=positive)
        return np.where(positive, n_eff, 0.0), q_eff


class WUVirtualLoss(VirtualLossPolicy):
    """WU-UCT style: track *unobserved samples* [Liu et al. 2020].

    In-flight traversals count toward the visit totals (both in the sqrt
    numerator and the per-edge denominator of Equation 1) but do **not**
    poison Q with fake losses -- the exploration term alone spreads the
    workers.  This is gentler than constant VL and was shown by WU-UCT to
    preserve the sequential algorithm's regret behaviour.
    """

    @property
    def descend_amount(self) -> float:
        return 1.0

    def on_descend(self, node: ArrayNodeView) -> None:
        node.virtual_loss += 1.0

    def on_backup(self, node: ArrayNodeView) -> None:
        node.virtual_loss -= 1.0
        if node.virtual_loss < -1e-9:
            raise RuntimeError(
                "unobserved count went negative: unbalanced descend/backup"
            )

    def effective_stats_arrays(
        self,
        visit_count: np.ndarray,
        value_sum: np.ndarray,
        virtual_loss: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        return visit_count + virtual_loss, value_sum / np.maximum(visit_count, 1)
