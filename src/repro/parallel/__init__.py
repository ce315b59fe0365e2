"""Tree-parallel MCTS schemes (Section 3 of the paper).

- :mod:`repro.parallel.shared_tree` -- Algorithm 2: N workers select
  leaves under virtual loss on one shared tree; their N leaves are
  evaluated as one batch, then expanded and backed up in order.
- :mod:`repro.parallel.local_tree`  -- Algorithm 3: a master thread owns the
  tree and keeps N leaves in flight; its FIFO pipe of sub-batches is
  drained, in order, by the master itself.
- :mod:`repro.parallel.leaf_parallel`, :mod:`repro.parallel.root_parallel`
  -- the related-work baselines of Section 2.2.

GIL note: shared-tree and local-tree run every in-tree operation and
every evaluation on the caller's thread.  Under the GIL a worker
hand-off costs more than the forward it would overlap, so both schemes
keep the paper's schedule effects -- virtual loss, N leaves in flight,
batched evaluation -- without its threads, and both are deterministic
at any N.  Leaf- and root-parallel keep their thread pools.  The
parallel timing of the paper's platform (lock and DDR costs, evaluation
overlap) is reproduced by :mod:`repro.simulator`, which executes the
same algorithms in virtual time.
"""

from repro.parallel.base import ParallelScheme, SchemeName
from repro.parallel.leaf_parallel import LeafParallelMCTS
from repro.parallel.local_tree import LocalTreeMCTS
from repro.parallel.root_parallel import RootParallelMCTS
from repro.parallel.shared_tree import SharedTreeMCTS

__all__ = [
    "LeafParallelMCTS",
    "LocalTreeMCTS",
    "ParallelScheme",
    "RootParallelMCTS",
    "SchemeName",
    "SharedTreeMCTS",
]
