"""Array-backed MCTS tree: structure-of-arrays storage, vectorised PUCT.

The :class:`repro.mcts.node.Node` tree pays a heap allocation per node and
a Python attribute access per edge statistic; ``uct_scores`` then loops
over a ``dict[int, Node]`` at every level of every simulation.  This
module stores the whole tree as preallocated, growable numpy arrays
(``parent``, ``action``, ``prior``, ``visit_count``, ``value_sum``,
``virtual_loss``, ``terminal_value`` plus the ``child_start``/
``child_count`` slab index), the structure-of-arrays layout production
AlphaZero reimplementations use for 10-50x tree-op throughput.  A node is
just an integer row; the children of a node are a *contiguous* row range
(slabs are allocated whole at expansion, in ascending action order), so
``child_start``/``child_count`` slice the node arrays directly and
Equation-1 selection is one vectorised expression plus one ``np.argmax``
-- no ``sorted()`` allocation, no per-child ``effective_stats`` calls.
Virtual-loss policies score a slab through
:meth:`~repro.mcts.virtual_loss.VirtualLossPolicy.effective_stats_arrays`;
under :class:`~repro.mcts.virtual_loss.NoVirtualLoss` (serial search,
the hottest caller) :meth:`ArrayTree.select_to_leaf` instead runs an
inlined descent over the raw columns, with no policy calls and no
virtual-loss reads.  Both forms take Q as ``value_sum / max(N, 1)``,
which is bitwise the masked ``N > 0 ? W / N : 0`` because an unvisited
row's ``value_sum`` is exactly ``0.0``.

Sign convention (carried over from :mod:`repro.mcts.node`, important!):
``value_sum`` / Q are from the perspective of **the player who moved into
the node** -- i.e. Q(s,a) for the player to move at the parent.  Leaf
evaluations arrive from the mover-at-leaf perspective and are negated
once per level in :meth:`ArrayTree.backup` (the leaf's own row receives
``-value``, its parent ``+value``, and so on up the path).

Equivalence: for identical playout sequences the array tree reproduces
the ``Node`` backend's statistics *exactly* -- same float64 operation
order in scoring, same ascending-action tie-break under ``np.argmax``,
same RNG consumption for Dirichlet root noise.  The property tests in
``tests/mcts/test_backend_equivalence.py`` pin visit-count parity down to
the integer.

Thread safety: slab allocation (and therefore expansion) takes an
internal lock so concurrent expanders cannot interleave row ranges;
statistics updates are plain array read-modify-writes, which under
CPython's GIL lose increments only in the same weakly-consistent regime
the lock-free ``Node`` scheme already accepts.  Growth swaps in larger
arrays, so a racing writer holding a stale array reference can lose its
update -- serial, leaf-parallel, local-tree (master-thread in-tree ops),
root-parallel and speculative schemes never race and are exact; the
shared-tree/lock-free schemes treat the array backend as weakly
consistent (run non-strict virtual loss there).
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.mcts.virtual_loss import NoVirtualLoss, VirtualLossPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.games.base import Game

__all__ = ["ArrayTree", "ArrayNodeView"]

_NO_VL = NoVirtualLoss()

#: row id meaning "no parent" (the root) in the ``parent`` array
NO_PARENT = -1

#: per-node statistic columns copied verbatim by :meth:`ArrayTree.extract_subtree`
#: (structure columns -- ``parent``/``child_start``/``child_count`` -- are
#: rebuilt for the destination layout instead)
_NODE_COLUMNS = (
    "action",
    "prior",
    "visit_count",
    "value_sum",
    "virtual_loss",
    "terminal_value",
    "is_terminal_flag",
)


class ArrayTree:
    """Growable structure-of-arrays search tree.

    Parameters
    ----------
    capacity : initial number of node rows; the arrays double whenever a
        child slab would overflow, so this is a hint, not a limit.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._capacity = capacity
        self.size = 0
        self._alloc_lock = threading.Lock()
        self.parent = np.full(capacity, NO_PARENT, dtype=np.int64)
        self.action = np.full(capacity, -1, dtype=np.int64)
        self.prior = np.zeros(capacity, dtype=np.float64)
        self.visit_count = np.zeros(capacity, dtype=np.int64)
        self.value_sum = np.zeros(capacity, dtype=np.float64)
        self.virtual_loss = np.zeros(capacity, dtype=np.float64)
        self.terminal_value = np.zeros(capacity, dtype=np.float64)
        self.is_terminal_flag = np.zeros(capacity, dtype=bool)
        self.child_start = np.zeros(capacity, dtype=np.int64)
        self.child_count = np.zeros(capacity, dtype=np.int64)

    # -- allocation ----------------------------------------------------------
    def _grow_to(self, needed: int) -> None:
        """Swap in larger arrays (caller holds the allocation lock)."""
        new_cap = self._capacity
        while new_cap < needed:
            new_cap *= 2
        for name, fill in (
            ("parent", NO_PARENT),
            ("action", -1),
            ("prior", 0.0),
            ("visit_count", 0),
            ("value_sum", 0.0),
            ("virtual_loss", 0.0),
            ("terminal_value", 0.0),
            ("is_terminal_flag", False),
            ("child_start", 0),
            ("child_count", 0),
        ):
            old = getattr(self, name)
            fresh = np.full(new_cap, fill, dtype=old.dtype)
            fresh[: self.size] = old[: self.size]
            setattr(self, name, fresh)
        self._capacity = new_cap

    def _alloc(self, n: int) -> int:
        """Reserve *n* contiguous rows; returns the first row id."""
        with self._alloc_lock:
            start = self.size
            if start + n > self._capacity:
                self._grow_to(start + n)
            self.size = start + n
            return start

    def new_root(self, prior: float = 1.0) -> int:
        """Allocate a fresh root row (mirrors ``Node()``)."""
        idx = self._alloc(1)
        self.prior[idx] = prior
        return idx

    # -- structure -----------------------------------------------------------
    def is_leaf(self, idx: int) -> bool:
        return self.child_count[idx] == 0

    def is_terminal(self, idx: int) -> bool:
        return bool(self.is_terminal_flag[idx])

    def mark_terminal(self, idx: int, value: float) -> None:
        self.terminal_value[idx] = value
        self.is_terminal_flag[idx] = True

    def children_slice(self, idx: int) -> slice:
        start = int(self.child_start[idx])
        return slice(start, start + int(self.child_count[idx]))

    def child_actions(self, idx: int) -> np.ndarray:
        return self.action[self.children_slice(idx)]

    def detach(self, idx: int) -> None:
        """Make *idx* a root in place (discarded rows stay allocated).

        O(1), but the abandoned part of the tree is never freed -- use
        :meth:`extract_subtree` when the tree lives across many moves
        (subtree reuse), where the leak would compound.
        """
        self.parent[idx] = NO_PARENT
        self.action[idx] = -1

    def extract_subtree(self, idx: int) -> "ArrayTree":
        """Compact *idx*'s subtree into a fresh tree (row 0 = new root).

        Slab-by-slab BFS copy: child slabs are contiguous in the source,
        so each node's children transfer as one slice assignment and stay
        contiguous in the destination.  This is the re-root path for
        subtree reuse -- the abandoned siblings (the bulk of the old tree)
        are released with the old tree object instead of accumulating
        over an episode.
        """
        new = ArrayTree(capacity=max(256, int(self.child_count[idx]) + 1))
        new._alloc(1)
        for column in _NODE_COLUMNS:
            getattr(new, column)[0] = getattr(self, column)[idx]
        new.parent[0] = NO_PARENT
        new.action[0] = -1
        queue = [(idx, 0)]
        while queue:
            old_row, new_row = queue.pop()
            k = int(self.child_count[old_row])
            if k == 0:
                new.child_count[new_row] = 0
                continue
            old_start = int(self.child_start[old_row])
            new_start = new._alloc(k)
            for column in _NODE_COLUMNS:
                getattr(new, column)[new_start : new_start + k] = getattr(
                    self, column
                )[old_start : old_start + k]
            new.parent[new_start : new_start + k] = new_row
            new.child_start[new_row] = new_start
            new.child_count[new_row] = k
            queue.extend(
                (old_start + i, new_start + i) for i in range(k)
            )
        return new

    # -- expansion -----------------------------------------------------------
    def expand(self, idx: int, actions: np.ndarray, priors: np.ndarray) -> None:
        """Create the child slab of *idx* (one row per legal action).

        *actions* must be ascending (``Game.legal_actions`` guarantees it)
        so that ``np.argmax`` tie-breaking matches the ``Node`` backend's
        lowest-action rule.  Raises ``ValueError`` if *idx* already has
        children, mirroring ``Node.add_child`` on a duplicate insert (the
        lock-free scheme catches this to count expansion races).
        """
        k = len(actions)
        if k == 0:
            raise ValueError("expand with no actions")
        with self._alloc_lock:
            if self.child_count[idx] != 0:
                raise ValueError(f"node {idx} already expanded")
            start = self.size
            if start + k > self._capacity:
                self._grow_to(start + k)
            self.size = start + k
            sl = slice(start, start + k)
            self.parent[sl] = idx
            self.action[sl] = actions
            self.prior[sl] = priors
            self.child_start[idx] = start
            # publish last: concurrent readers see the slab only complete
            self.child_count[idx] = k

    # -- Equation-1 selection ------------------------------------------------
    def _child_scores(
        self, idx: int, c_puct: float, vl: VirtualLossPolicy
    ) -> tuple[int, np.ndarray]:
        """``(slab_start, Equation-1 scores)`` for the children of *idx*."""
        k = int(self.child_count[idx])
        if k == 0:
            raise ValueError("uct_scores on an unexpanded node")
        start = int(self.child_start[idx])
        sl = slice(start, start + k)
        n_eff, q_eff = vl.effective_stats_arrays(
            self.visit_count[sl], self.value_sum[sl], self.virtual_loss[sl]
        )
        total = vl.parent_visit_total(
            float(self.visit_count[idx]), float(self.virtual_loss[idx])
        )
        # Floor at 1 so that, before any child has been visited, selection
        # falls back to argmax of the priors instead of degenerating to ties.
        sqrt_parent = math.sqrt(max(total, 1.0))
        scores = q_eff + c_puct * self.prior[sl] * sqrt_parent / (1.0 + n_eff)
        return start, scores

    def uct_scores(
        self,
        idx: int,
        c_puct: float,
        vl_policy: VirtualLossPolicy | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised Equation 1 over the child slab of *idx*.

        Returns ``(actions, scores)`` parallel arrays in ascending-action
        order, numerically identical to the per-child ``Node`` loop.
        """
        start, scores = self._child_scores(idx, c_puct, vl_policy or _NO_VL)
        return self.action[start : start + len(scores)].copy(), scores

    def select_child_index(
        self,
        idx: int,
        c_puct: float,
        vl_policy: VirtualLossPolicy | None = None,
    ) -> int:
        """Row id of the Equation-1 argmax child (ties -> lowest action)."""
        start, scores = self._child_scores(idx, c_puct, vl_policy or _NO_VL)
        return start + int(np.argmax(scores))

    def select_to_leaf(
        self,
        idx: int,
        game: "Game",
        c_puct: float,
        vl_policy: VirtualLossPolicy | None = None,
        apply_virtual_loss: bool = True,
    ) -> tuple[int, int]:
        """Descend from *idx* following Equation 1 until reaching a leaf.

        Mutates *game* by stepping the selected actions and, when
        *apply_virtual_loss*, adds the policy's ``descend_amount`` along
        the path.  Returns ``(leaf_row, path_length)``.
        """
        vl = vl_policy or _NO_VL
        if type(vl) is NoVirtualLoss:
            return self._select_to_leaf_no_vl(idx, game, c_puct)
        amount = vl.descend_amount
        node = idx
        depth = 0
        if apply_virtual_loss and amount:
            self.virtual_loss[node] += amount
        while self.child_count[node] != 0 and not self.is_terminal_flag[node]:
            node = self.select_child_index(node, c_puct, vl)
            game.step(int(self.action[node]))
            depth += 1
            if apply_virtual_loss and amount:
                self.virtual_loss[node] += amount
            if game.is_terminal:
                self.mark_terminal(node, game.terminal_value)
        return node, depth

    def _select_to_leaf_no_vl(
        self, node: int, game: "Game", c_puct: float
    ) -> tuple[int, int]:
        """:meth:`select_to_leaf` under :class:`NoVirtualLoss`, inlined.

        Equation 1 with no virtual-loss terms: the parent total is
        ``max(N - 1, 0)`` floored at 1 and the child stats are the raw
        columns, so this performs the same float64 operations in the same
        order as :meth:`_child_scores` -- bit-identical scores -- without
        the policy calls and the virtual-loss reads.  Skipping the parent's
        virtual-loss counter is exact because a tree searched under this
        policy never carries any (its ``descend_amount`` is 0).
        """
        depth = 0
        while self.child_count[node] != 0 and not self.is_terminal_flag[node]:
            start = int(self.child_start[node])
            sl = slice(start, start + int(self.child_count[node]))
            n = self.visit_count[sl]
            sqrt_parent = math.sqrt(max(int(self.visit_count[node]) - 1, 1))
            scores = self.value_sum[sl] / np.maximum(n, 1) + (
                c_puct * self.prior[sl] * sqrt_parent / (1.0 + n)
            )
            node = start + int(scores.argmax())
            game.step(int(self.action[node]))
            depth += 1
            if game.is_terminal:
                self.mark_terminal(node, game.terminal_value)
        return node, depth

    # -- backup --------------------------------------------------------------
    def path_to_root(self, idx: int) -> np.ndarray:
        """Row ids from *idx* (inclusive) up to the root (inclusive)."""
        path = [idx]
        parent = self.parent
        node = int(parent[idx])
        while node != NO_PARENT:
            path.append(node)
            node = int(parent[node])
        return np.array(path, dtype=np.int64)

    def backup(
        self,
        idx: int,
        value: float,
        vl_policy: VirtualLossPolicy | None = None,
        revert_virtual_loss: bool = True,
    ) -> None:
        """BackUp with pure array indexing along the parent chain.

        *value* is from the perspective of the player to move at *idx*'s
        state; each level's edge accumulates the outcome for the player
        who took it, so contributions alternate ``-v, +v, -v, ...`` from
        the leaf upward.  Recovers virtual loss in the same pass.

        Paths are short (tree depth), so this walks them with scalar
        int-indexed array updates -- cheaper than materialising the path
        as an index array for a fancy-indexed write at every depth the
        benchmark games reach, though still costlier per level than a
        ``Node`` attribute bump (numpy scalar-indexing round-trips);
        backup is a few percent of end-to-end simulation time, which the
        selection/expansion wins dwarf.
        """
        vl = vl_policy or _NO_VL
        amount = vl.descend_amount if revert_virtual_loss else 0.0
        visit_count = self.visit_count
        value_sum = self.value_sum
        virtual_loss = self.virtual_loss
        parent = self.parent
        node = idx
        v = value
        while node != NO_PARENT:
            visit_count[node] += 1
            value_sum[node] += -v
            if amount:
                residue = virtual_loss[node] - amount
                if residue < -1e-9:
                    if vl.strict:
                        raise RuntimeError(
                            "virtual loss went negative: unbalanced descend/backup"
                        )
                    residue = 0.0
                virtual_loss[node] = residue
            v = -v
            node = int(parent[node])

    # -- root utilities ------------------------------------------------------
    def add_dirichlet_noise(
        self,
        idx: int,
        rng: np.random.Generator,
        alpha: float = 0.3,
        epsilon: float = 0.25,
    ) -> None:
        """Vectorised Dirichlet root-noise mixing (AlphaZero exploration)."""
        k = int(self.child_count[idx])
        if k == 0:
            raise ValueError("expand the root before adding noise")
        sl = self.children_slice(idx)
        # same RNG consumption as the Node backend: one dirichlet([alpha]*k)
        noise = rng.dirichlet([alpha] * k)
        self.prior[sl] = (1 - epsilon) * self.prior[sl] + epsilon * noise

    def action_prior(self, idx: int, action_size: int) -> np.ndarray:
        """Normalised root visit counts over the full action space."""
        sl = self.children_slice(idx)
        visits = self.visit_count[sl]
        total = int(visits.sum())
        if total == 0:
            raise ValueError("root has no visited children; run playouts first")
        prior = np.zeros(action_size, dtype=np.float64)
        prior[self.action[sl]] = visits
        return prior / total

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ArrayTree(size={self.size}, capacity={self._capacity})"


class ArrayNodeView:
    """A ``Node``-shaped handle onto one row of an :class:`ArrayTree`.

    Duck-types the read *and* write surface of :class:`repro.mcts.node.Node`
    (statistics properties, ``children``, traversal helpers) so every
    scheme, test and tool that walks a ``Node`` tree works unchanged on
    the array backend; the hot-path primitives in :mod:`repro.mcts.uct`
    and :mod:`repro.mcts.search` recognise the view and bypass it
    entirely, operating on the underlying arrays.
    """

    __slots__ = ("tree", "index")

    def __init__(self, tree: ArrayTree, index: int) -> None:
        self.tree = tree
        self.index = index

    # -- structure -----------------------------------------------------------
    @property
    def parent(self) -> "ArrayNodeView | None":
        p = int(self.tree.parent[self.index])
        return None if p == NO_PARENT else ArrayNodeView(self.tree, p)

    @property
    def action(self) -> int:
        return int(self.tree.action[self.index])

    @property
    def is_leaf(self) -> bool:
        return self.tree.is_leaf(self.index)

    @property
    def is_root(self) -> bool:
        return int(self.tree.parent[self.index]) == NO_PARENT

    @property
    def is_terminal(self) -> bool:
        return self.tree.is_terminal(self.index)

    @property
    def terminal_value(self) -> float | None:
        if not self.tree.is_terminal_flag[self.index]:
            return None
        return float(self.tree.terminal_value[self.index])

    @terminal_value.setter
    def terminal_value(self, value: float) -> None:
        self.tree.mark_terminal(self.index, value)

    @property
    def children(self) -> dict[int, "ArrayNodeView"]:
        tree = self.tree
        sl = tree.children_slice(self.index)
        return {
            int(tree.action[row]): ArrayNodeView(tree, row)
            for row in range(sl.start, sl.stop)
        }

    def add_child(self, action: int, prior: float) -> "ArrayNodeView":
        raise TypeError(
            "the array backend allocates child slabs whole; use "
            "repro.mcts.search.expand or ArrayTree.expand"
        )

    # -- statistics -----------------------------------------------------------
    @property
    def prior(self) -> float:
        return float(self.tree.prior[self.index])

    @prior.setter
    def prior(self, value: float) -> None:
        self.tree.prior[self.index] = value

    @property
    def visit_count(self) -> int:
        return int(self.tree.visit_count[self.index])

    @visit_count.setter
    def visit_count(self, value: int) -> None:
        self.tree.visit_count[self.index] = value

    @property
    def value_sum(self) -> float:
        return float(self.tree.value_sum[self.index])

    @value_sum.setter
    def value_sum(self, value: float) -> None:
        self.tree.value_sum[self.index] = value

    @property
    def virtual_loss(self) -> float:
        return float(self.tree.virtual_loss[self.index])

    @virtual_loss.setter
    def virtual_loss(self, value: float) -> None:
        self.tree.virtual_loss[self.index] = value

    @property
    def q(self) -> float:
        n = int(self.tree.visit_count[self.index])
        return float(self.tree.value_sum[self.index]) / n if n else 0.0

    # -- traversal helpers -----------------------------------------------------
    def path_from_root(self) -> list[int]:
        path = self.tree.path_to_root(self.index)
        return [int(self.tree.action[row]) for row in path[-2::-1]]

    def depth(self) -> int:
        return len(self.tree.path_to_root(self.index)) - 1

    def iter_subtree(self) -> Iterator["ArrayNodeView"]:
        tree = self.tree
        stack = [self.index]
        while stack:
            row = stack.pop()
            yield ArrayNodeView(tree, row)
            sl = tree.children_slice(row)
            stack.extend(range(sl.start, sl.stop))

    def subtree_size(self) -> int:
        return sum(1 for _ in self.iter_subtree())

    def max_depth(self) -> int:
        tree = self.tree
        best = 0
        stack = [(self.index, 0)]
        while stack:
            row, d = stack.pop()
            best = max(best, d)
            sl = tree.children_slice(row)
            stack.extend((c, d + 1) for c in range(sl.start, sl.stop))
        return best

    # -- identity -------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArrayNodeView)
            and other.tree is self.tree
            and other.index == self.index
        )

    def __hash__(self) -> int:
        return hash((id(self.tree), self.index))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ArrayNodeView(index={self.index}, action={self.action}, "
            f"N={self.visit_count}, Q={self.q:+.3f}, P={self.prior:.3f}, "
            f"children={int(self.tree.child_count[self.index])})"
        )
