"""Tree-backend seam: one switch between ``Node`` and array storage.

Every search scheme builds its root through :func:`make_root` and runs
the shared primitives in :mod:`repro.mcts.uct` / :mod:`repro.mcts.search`,
which dispatch on the root's type.  That makes the storage layout a
configuration axis exactly like the paper's scheme selection (Section
3.2's "compile-time adaptive selection"): the algorithm is identical on
both backends -- the property tests assert exact visit-count parity --
and only the data structure underneath changes.

- ``TreeBackend.NODE``  -- heap-allocated :class:`repro.mcts.node.Node`
  objects; the reference implementation the parity suites compare
  against.
- ``TreeBackend.ARRAY`` -- :class:`repro.mcts.arraytree.ArrayTree`
  structure-of-arrays storage with vectorised PUCT selection; the
  default of every scheme, and the tree of the virtual-time simulations
  and the virtual profiler.
"""

from __future__ import annotations

import enum

from repro.mcts.arraytree import ArrayNodeView, ArrayTree
from repro.mcts.node import Node

__all__ = ["TreeBackend", "resolve_backend", "make_root", "capacity_hint"]


class TreeBackend(str, enum.Enum):
    """Identifier for the tree storage layout a scheme searches over."""

    NODE = "node"
    ARRAY = "array"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def resolve_backend(
    backend: "TreeBackend | str | None",
    default: TreeBackend = TreeBackend.ARRAY,
) -> TreeBackend:
    """Normalise a config/CLI backend spec (None means *default*)."""
    if backend is None:
        return default
    if isinstance(backend, TreeBackend):
        return backend
    try:
        return TreeBackend(backend)
    except ValueError:
        names = ", ".join(b.value for b in TreeBackend)
        raise ValueError(f"unknown tree backend {backend!r} (expected {names})")


def make_root(
    backend: "TreeBackend | str | None" = None,
    capacity: int = 1024,
) -> "Node | ArrayNodeView":
    """A fresh search root on the requested backend.

    *capacity* is the array backend's initial row allocation (a hint --
    the tree grows by doubling; the ``Node`` backend ignores it).  The
    array backend takes this thread's spare tree when it is big enough
    (:meth:`ArrayTree.take`).
    """
    resolved = resolve_backend(backend)
    if resolved is TreeBackend.NODE:
        return Node()
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
