"""Array-backed MCTS tree: structure-of-arrays storage, vectorised PUCT.

The search tree every scheme grows.  A tree of one object per node pays a
heap allocation per node and a Python attribute access per edge
statistic, and scores a level by looping over a ``dict`` of children at
every level of every simulation.  This module instead stores the whole
tree as preallocated, growable numpy arrays
(``parent``, ``action``, ``prior``, ``visit_count``, ``value_sum``,
``virtual_loss``, ``terminal_value`` plus the ``child_start``/
``child_count`` slab index), the structure-of-arrays layout production
AlphaZero reimplementations use for 10-50x tree-op throughput.  A node is
just an integer row; the children of a node are a *contiguous* row range
(slabs are allocated whole at expansion, in ascending action order), so
``child_start``/``child_count`` slice the node arrays directly and
Equation-1 selection is one vectorised expression plus one ``np.argmax``
-- no ``sorted()`` allocation, no per-child policy calls.
Virtual-loss policies score a slab through
:meth:`~repro.mcts.virtual_loss.VirtualLossPolicy.effective_stats_arrays`;
under :class:`~repro.mcts.virtual_loss.NoVirtualLoss` (serial search)
and :class:`~repro.mcts.virtual_loss.WUVirtualLoss` (local-tree's
default), whose Q is the observed mean, :meth:`ArrayTree.select_to_leaf`
instead scores each level inline from two cached columns plus the
virtual-loss column, with no policy calls; only constant virtual loss
(shared-tree) goes through the policy.  Without virtual loss, a slab of
at most :data:`NARROW_SLAB` children (Connect Four, TicTacToe) is scored
in one Python loop over ``tolist()`` values instead: at that width
NumPy's fixed per-call cost outweighs the arithmetic.  All forms take Q as
``value_sum / max(N, 1)``, which is bitwise the masked
``N > 0 ? W / N : 0`` because an unvisited row's ``value_sum`` is
exactly ``0.0``.

Cached columns: on every allocated row, ``q == value_sum / max(N, 1)``
and ``n1 == 1.0 + N`` (float64), bit for bit.  :meth:`ArrayTree.backup`
and the :class:`ArrayNodeView` ``visit_count`` / ``value_sum`` setters
keep them in step, and the allocating calls set ``n1`` to ``1.0``; code
that writes ``visit_count`` or ``value_sum`` directly must update both.

Recycled storage: :meth:`ArrayTree.take` hands out this thread's spare
tree when it is big enough, and :meth:`ArrayTree.give_back` empties a
tree and keeps it as the spare.  Only
:meth:`repro.mcts.serial.SerialMCTS.get_action_prior`, whose root never
leaves the call, gives a tree back, so at most one emptied tree is
retained per thread that called it.

Sign convention (important!):
``value_sum`` / Q are from the perspective of **the player who moved into
the node** -- i.e. Q(s,a) for the player to move at the parent.  Leaf
evaluations arrive from the mover-at-leaf perspective and are negated
once per level in :meth:`ArrayTree.backup` (the leaf's own row receives
``-value``, its parent ``+value``, and so on up the path).

Equivalence: for identical playout sequences the array tree reproduces
the object-per-node tree it replaced *exactly* -- same float64 operation
order in scoring, same ascending-action tie-break under ``np.argmax``,
same RNG consumption for Dirichlet root noise.  That tree lives on as the
test oracle ``tests/mcts/node_oracle.py``, and the parity suites (e.g.
``tests/mcts/test_backend_equivalence.py``) pin the two together down to
the integer.

Thread safety: none.  One thread owns a tree -- every scheme runs its
in-tree operations on one thread (root-parallel gives each worker its
own tree) -- so allocation, growth and statistics updates take no lock.
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.mcts.virtual_loss import NoVirtualLoss, VirtualLossPolicy, WUVirtualLoss

if TYPE_CHECKING:  # pragma: no cover
    from repro.games.base import Game

__all__ = ["ArrayTree", "ArrayNodeView", "capacity_hint", "make_root"]

_NO_VL = NoVirtualLoss()

#: policies whose effective Q is the observed mean, the cached ``q``
#: column, so :meth:`ArrayTree.select_to_leaf` scores them inline
_CACHED_Q_POLICIES = (NoVirtualLoss, WUVirtualLoss)

#: widest child slab that :meth:`ArrayTree.select_to_leaf` scores without
#: virtual loss in a Python loop rather than with NumPy, whose fixed
#: per-call cost dominates a narrow level (4-6 us against the loop's 2-4
#: us at 7 children).  Measured crossover on a 2-vCPU x86-64 host: 9-24
#: children, noisy.  Connect Four and TicTacToe loop; Gomoku keeps NumPy.
NARROW_SLAB = 12

#: row id meaning "no parent" (the root) in the ``parent`` array
NO_PARENT = -1

#: Every per-row column as ``(name, dtype, fill)``, where *fill* is the
#: value of a row no call has written.  This one table allocates, grows,
#: copies (:meth:`ArrayTree.extract_subtree`) and empties
#: (:meth:`ArrayTree.reset`) the tree.  ``q`` and ``n1`` are derived
#: caches of ``value_sum / max(N, 1)`` and ``1.0 + N`` (module docstring).
_COLUMNS = (
    ("parent", np.int64, NO_PARENT),
    ("action", np.int64, -1),
    ("prior", np.float64, 0.0),
    ("visit_count", np.int64, 0),
    ("value_sum", np.float64, 0.0),
    ("q", np.float64, 0.0),
    ("n1", np.float64, 0.0),
    ("virtual_loss", np.float64, 0.0),
    ("terminal_value", np.float64, 0.0),
    ("is_terminal_flag", np.bool_, False),
    ("child_start", np.int64, 0),
    ("child_count", np.int64, 0),
)

#: columns :meth:`ArrayTree.extract_subtree` rebuilds for the destination
#: layout instead of copying
_STRUCTURE = ("parent", "child_start", "child_count")

#: columns whose non-zero entries mark a row that :meth:`ArrayTree.reset`
#: must return to its fills; every other column of a row either follows
#: from these (``q``, ``terminal_value``, ``child_start``) or is written by
#: the call that allocates the row (``parent``, ``action``, ``prior``,
#: ``n1``).  ``value_sum`` is here because a view setter can write it on
#: an unvisited row.
_DIRTY_MARKS = (
    "visit_count",
    "value_sum",
    "virtual_loss",
    "is_terminal_flag",
    "child_count",
)


def _new_column(dtype: type, fill: object, n: int) -> np.ndarray:
    # np.zeros leaves its pages unmapped until written; np.full writes all
    return np.full(n, fill, dtype=dtype) if fill else np.zeros(n, dtype=dtype)


class _Spare(threading.local):
    """One emptied tree per thread, for :meth:`ArrayTree.take`."""

    tree: "ArrayTree | None" = None


_spare = _Spare()


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
        for name, dtype, fill in _COLUMNS:
            setattr(self, name, _new_column(dtype, fill, capacity))

    # -- storage recycling ---------------------------------------------------
    @classmethod
    def take(cls, capacity: int) -> "ArrayTree":
        """An empty tree of at least *capacity* rows: this thread's spare
        when it is big enough, else a fresh one.  The slot is emptied
        either way, so the caller owns what it gets."""
        tree, _spare.tree = _spare.tree, None
        if tree is None or tree._capacity < capacity:
            return cls(capacity)
        return tree

    def give_back(self) -> None:
        """Empty this tree and keep it as this thread's spare (replacing
        any other).  Only for a tree no one else holds a row of."""
        self.reset()
        _spare.tree = self

    def reset(self) -> None:
        """Empty the tree in place, keeping its storage.

        Returns each column to its fill on every row that a
        :data:`_DIRTY_MARKS` column marks, writing only entries that
        differ from the fill, so pages a search never wrote stay unmapped.
        Rows left unmarked hold only what the next allocation of the row
        writes.
        """
        n = self.size
        dirty = np.zeros(n, dtype=bool)
        for name in _DIRTY_MARKS:
            dirty |= getattr(self, name)[:n] != 0
        rows = np.flatnonzero(dirty)
        for name, _, fill in _COLUMNS:
            column = getattr(self, name)
            column[rows[column[rows] != fill]] = fill
        self.size = 0

    # -- allocation ----------------------------------------------------------
    def _grow_to(self, needed: int) -> None:
        """Swap in larger arrays of at least *needed* rows."""
        new_cap = self._capacity
        while new_cap < needed:
            new_cap *= 2
        for name, dtype, fill in _COLUMNS:
            fresh = _new_column(dtype, fill, new_cap)
            fresh[: self.size] = getattr(self, name)[: self.size]
            setattr(self, name, fresh)
        self._capacity = new_cap

    def _alloc(self, n: int) -> int:
        """Reserve *n* contiguous rows; returns the first row id."""
        start = self.size
        if start + n > self._capacity:
            self._grow_to(start + n)
        self.size = start + n
        return start

    def new_root(self, prior: float = 1.0) -> int:
        """Allocate a fresh root row."""
        idx = self._alloc(1)
        self.parent[idx] = NO_PARENT
        self.action[idx] = -1
        self.prior[idx] = prior
        self.n1[idx] = 1.0
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

        Slab-by-slab depth-first copy (the work list is a stack): child
        slabs are contiguous in the source,
        so each node's children transfer as one slice assignment and stay
        contiguous in the destination.  This is the re-root path for
        subtree reuse -- the abandoned siblings (the bulk of the old tree)
        are released with the old tree object instead of accumulating
        over an episode.
        """
        new = ArrayTree(capacity=max(256, int(self.child_count[idx]) + 1))
        new._alloc(1)
        copied = [name for name, _, _ in _COLUMNS if name not in _STRUCTURE]
        for column in copied:
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
            for column in copied:
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
        so that ``np.argmax`` tie-breaking picks the lowest action.
        Raises ``ValueError`` if *idx* already has children.
        """
        k = len(actions)
        if k == 0:
            raise ValueError("expand with no actions")
        if self.child_count[idx] != 0:
            raise ValueError(f"node {idx} already expanded")
        start = self._alloc(k)
        sl = slice(start, start + k)
        self.parent[sl] = idx
        self.action[sl] = actions
        self.prior[sl] = priors
        self.n1[sl] = 1.0
        self.child_start[idx] = start
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
        order, numerically identical to scoring the children one by one.
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
    ) -> tuple[int, int]:
        """Descend from *idx* following Equation 1 until reaching a leaf.

        Mutates *game* by stepping the selected actions and adds the
        policy's ``descend_amount`` along the path.  Returns
        ``(leaf_row, path_length)``.

        Under :class:`NoVirtualLoss` and :class:`WUVirtualLoss`, whose Q
        is the observed mean, a level is scored inline from the cached
        ``q`` and ``n1`` columns: ``c_puct * prior``, ``*= sqrt_parent``,
        ``/= n1 + VL``, ``+= q``, ``argmax``.  These are the float64
        operations of :meth:`_child_scores` in the same order, so the
        scores are bit-identical (the final ``q +`` commuted).  WU's
        ``1.0 + (N + VL)`` equals ``n1 + VL`` exactly because both are
        sums of integer-valued floats, and its parent total is
        ``max(N - 1, 0) + max(VL - 1, 0)``.  At ``descend_amount`` 0 the
        virtual-loss terms are skipped, which is exact because a tree
        searched without virtual loss never carries any.  There, a slab
        of at most :data:`NARROW_SLAB` children (serial search, the
        gateway, tree reuse on Connect Four or TicTacToe) is scored in a
        Python loop over ``tolist()`` values, ``q + c_puct * p *
        sqrt_parent / n1``, which skips NumPy's per-call cost: the same
        float64 operations in the same order, keeping the first maximum
        or first NaN as ``argmax`` does.  Wider slabs and WU levels stay
        on NumPy.  Any other policy (constant virtual loss) scores
        through :meth:`_child_scores`.
        """
        vl = vl_policy or _NO_VL
        cached = type(vl) in _CACHED_Q_POLICIES
        amount = vl.descend_amount
        child_start = self.child_start
        child_count = self.child_count
        is_terminal_flag = self.is_terminal_flag
        visit_count = self.visit_count
        virtual_loss = self.virtual_loss
        action = self.action
        prior = self.prior
        q = self.q
        n1 = self.n1
        node = idx
        depth = 0
        if amount:
            virtual_loss[node] += amount
        while child_count.item(node) and not is_terminal_flag.item(node):
            if not cached:
                start, scores = self._child_scores(node, c_puct, vl)
                node = start + int(scores.argmax())
            else:
                start = child_start.item(node)
                k = child_count.item(node)
                sl = slice(start, start + k)
                if amount or k > NARROW_SLAB:
                    scores = c_puct * prior[sl]
                    if amount:
                        total = max(visit_count.item(node) - 1, 0) + max(
                            virtual_loss.item(node) - amount, 0.0
                        )
                        scores *= math.sqrt(max(total, 1))
                        scores /= n1[sl] + virtual_loss[sl]
                    else:
                        scores *= math.sqrt(max(visit_count.item(node) - 1, 1))
                        scores /= n1[sl]
                    scores += q[sl]
                    node = start + int(scores.argmax())
                else:
                    sqrt_parent = math.sqrt(max(visit_count.item(node) - 1, 1))
                    best, node = -math.inf, start
                    for row, p, n, v in zip(
                        range(start, sl.stop),
                        prior[sl].tolist(),
                        n1[sl].tolist(),
                        q[sl].tolist(),
                    ):
                        score = v + c_puct * p * sqrt_parent / n
                        if score > best:
                            best, node = score, row
                        elif score != score:  # argmax takes the first NaN
                            node = row
                            break
            game.step(action.item(node))
            depth += 1
            if amount:
                virtual_loss[node] += amount
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
    ) -> None:
        """BackUp with pure array indexing along the parent chain.

        *value* is from the perspective of the player to move at *idx*'s
        state; each level's edge accumulates the outcome for the player
        who took it, so contributions alternate ``-v, +v, -v, ...`` from
        the leaf upward.  Recovers virtual loss in the same pass.

        Paths are short (tree depth), so this walks them with scalar
        int-indexed array updates -- cheaper than materialising the path
        as an index array for a fancy-indexed write at every depth the
        benchmark games reach, though still costlier per level than an
        object attribute bump (numpy scalar-indexing round-trips);
        backup is a few percent of end-to-end simulation time, which the
        selection/expansion wins dwarf.
        """
        vl = vl_policy or _NO_VL
        amount = vl.descend_amount
        visit_count = self.visit_count
        value_sum = self.value_sum
        q = self.q
        n1 = self.n1
        virtual_loss = self.virtual_loss
        parent = self.parent
        node = idx
        v = float(value)
        while node != NO_PARENT:
            n = visit_count.item(node) + 1
            w = value_sum.item(node) + -v
            visit_count[node] = n
            value_sum[node] = w
            q[node] = w / n
            n1[node] = 1.0 + n
            if amount:
                residue = virtual_loss[node] - amount
                if residue < -1e-9:
                    raise RuntimeError(
                        "virtual loss went negative: unbalanced descend/backup"
                    )
                virtual_loss[node] = residue
            v = -v
            node = parent.item(node)

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
        # one dirichlet([alpha]*k) draw over the children in action order
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
    """A node-shaped handle onto one row of an :class:`ArrayTree`.

    Reads and writes one node's statistics as attributes and walks the
    tree (``parent``, ``children``, traversal helpers), for the schemes,
    tests and tools that inspect a searched tree.  The hot-path
    primitives in :mod:`repro.mcts.search` take the view only to reach
    its tree and row, and operate on the underlying arrays.
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
        tree, i = self.tree, self.index
        tree.visit_count[i] = value
        tree.q[i] = tree.value_sum[i] / max(int(value), 1)
        tree.n1[i] = 1.0 + int(value)

    @property
    def value_sum(self) -> float:
        return float(self.tree.value_sum[self.index])

    @value_sum.setter
    def value_sum(self, value: float) -> None:
        tree, i = self.tree, self.index
        tree.value_sum[i] = value
        tree.q[i] = tree.value_sum[i] / max(int(tree.visit_count[i]), 1)

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

    def _levels(self) -> Iterator[np.ndarray]:
        """Row ids of this subtree, one array per depth, root first."""
        child_start, child_count = self.tree.child_start, self.tree.child_count
        rows = np.array([self.index], dtype=np.int64)
        while rows.size:
            yield rows
            counts = child_count[rows]
            starts = child_start[rows][counts > 0]
            counts = counts[counts > 0]
            ends = np.cumsum(counts)
            # the concatenated child slabs [start, start + count)
            rows = np.arange(ends[-1] if ends.size else 0) + np.repeat(
                starts - (ends - counts), counts
            )

    def subtree_size(self) -> int:
        return sum(rows.size for rows in self._levels())

    def max_depth(self) -> int:
        return sum(1 for _ in self._levels()) - 1

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


def make_root(capacity: int = 1024) -> ArrayNodeView:
    """A fresh search root: this thread's spare tree when it holds
    *capacity* rows (:meth:`ArrayTree.take`), else a new tree of that
    many.  *capacity* is a hint; the tree grows by doubling."""
    tree = ArrayTree.take(capacity)
    return ArrayNodeView(tree, tree.new_root())


def capacity_hint(action_size: int, num_playouts: int) -> int:
    """Row allocation that avoids growth copies for a one-move search.

    Each playout expands at most one leaf, adding at most *action_size*
    children, so ``1 + playouts * action_size`` rows always suffice;
    capped so a huge budget cannot demand gigabytes up front (the tree
    still grows by doubling past the cap).
    """
    return min(1 + num_playouts * action_size, 1 << 20)
