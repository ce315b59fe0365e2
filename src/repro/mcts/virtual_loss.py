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
  (paper: "VL is recovered later in the BackUp phase");
- :meth:`effective_stats` maps raw (N, W, VL) to the values Equation 1
  should see.

Array API
---------
The array-backed tree (:mod:`repro.mcts.arraytree`) never touches nodes
one at a time, so every policy additionally exposes a vectorised face:

- :attr:`descend_amount` -- the constant added to a node's virtual-loss
  counter per in-flight traversal (0 disables VL bookkeeping entirely);
- :meth:`effective_stats_arrays` -- :meth:`effective_stats` over whole
  child slices at once.  Q is ``value_sum / max(N, 1)``: only backup
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
  virtual-loss total).  Both tree backends use this, which is what makes
  selection O(children) in one numpy expression instead of two passes.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.mcts.node import Node

__all__ = [
    "VirtualLossPolicy",
    "NoVirtualLoss",
    "ConstantVirtualLoss",
    "WUVirtualLoss",
]


class VirtualLossPolicy(abc.ABC):
    """Strategy interface for discouraging concurrent path collisions."""

    #: treat an unbalanced descend/backup as a bug (overridden per instance
    #: by the concrete policies; lock-free schemes run non-strict)
    strict: bool = True

    @property
    @abc.abstractmethod
    def descend_amount(self) -> float:
        """Virtual loss added to a node's counter per in-flight traversal."""

    @abc.abstractmethod
    def on_descend(self, node: Node) -> None:
        """Mark *node* as being traversed by an in-flight worker."""

    @abc.abstractmethod
    def on_backup(self, node: Node) -> None:
        """Recover the virtual loss applied by :meth:`on_descend`."""

    @abc.abstractmethod
    def effective_stats(self, node: Node) -> tuple[float, float]:
        """Return ``(effective_visits, effective_q)`` for UCT scoring."""

    @abc.abstractmethod
    def effective_stats_arrays(
        self,
        visit_count: np.ndarray,
        value_sum: np.ndarray,
        virtual_loss: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`effective_stats` over parallel stat arrays."""

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

    def on_descend(self, node: Node) -> None:
        pass

    def on_backup(self, node: Node) -> None:
        pass

    def effective_stats(self, node: Node) -> tuple[float, float]:
        return float(node.visit_count), node.q

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

    def __init__(self, weight: float = 3.0, strict: bool = True) -> None:
        if weight <= 0:
            raise ValueError(f"virtual-loss weight must be positive, got {weight}")
        self.weight = weight
        #: strict policies treat an unbalanced descend/backup as a bug;
        #: lock-free schemes set strict=False because racy read-modify-
        #: write updates can legitimately lose increments.
        self.strict = strict

    @property
    def descend_amount(self) -> float:
        return self.weight

    def on_descend(self, node: Node) -> None:
        node.virtual_loss += self.weight

    def on_backup(self, node: Node) -> None:
        node.virtual_loss -= self.weight
        if node.virtual_loss < -1e-9:
            if self.strict:
                raise RuntimeError(
                    "virtual loss went negative: unbalanced descend/backup"
                )
            node.virtual_loss = 0.0

    def effective_stats(self, node: Node) -> tuple[float, float]:
        vl = node.virtual_loss
        n_eff = node.visit_count + vl
        if n_eff <= 0:
            return 0.0, 0.0
        # each pretended playout contributes a loss (-1) to the value sum
        q_eff = (node.value_sum - vl) / n_eff
        return n_eff, q_eff

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

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict

    @property
    def descend_amount(self) -> float:
        return 1.0

    def on_descend(self, node: Node) -> None:
        node.virtual_loss += 1.0

    def on_backup(self, node: Node) -> None:
        node.virtual_loss -= 1.0
        if node.virtual_loss < -1e-9:
            if self.strict:
                raise RuntimeError(
                    "unobserved count went negative: unbalanced descend/backup"
                )
            node.virtual_loss = 0.0

    def effective_stats(self, node: Node) -> tuple[float, float]:
        n_eff = node.visit_count + node.virtual_loss
        # Q uses only *observed* outcomes (the "watch the unobserved" rule).
        q = node.q
        return n_eff, q

    def effective_stats_arrays(
        self,
        visit_count: np.ndarray,
        value_sum: np.ndarray,
        virtual_loss: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        return visit_count + virtual_loss, value_sum / np.maximum(visit_count, 1)
