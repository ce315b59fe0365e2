"""Real-thread tree-parallel MCTS schemes (Section 3 of the paper).

- :mod:`repro.parallel.shared_tree` -- Algorithm 2: N worker threads share
  one lock-protected tree.
- :mod:`repro.parallel.local_tree`  -- Algorithm 3: a master thread owns the
  tree; N worker threads run DNN inference fed through FIFO pipes.
- :mod:`repro.parallel.leaf_parallel`, :mod:`repro.parallel.root_parallel`
  -- the related-work baselines of Section 2.2.
- :mod:`repro.parallel.locks`       -- striped per-node lock table.

GIL note: these implementations are *functionally* faithful (same
algorithm, same lock discipline, genuinely concurrent evaluation when the
evaluator releases the GIL inside BLAS).  Wall-clock scaling of the
in-tree operations is limited by the GIL; figure-level timing reproduction
therefore uses :mod:`repro.simulator`, which executes the same algorithms
in virtual time.  See DESIGN.md, "Substitutions".
"""

from repro.parallel.base import ParallelScheme, SchemeName
from repro.parallel.leaf_parallel import LeafParallelMCTS
from repro.parallel.local_tree import LocalTreeMCTS
from repro.parallel.lock_free import LockFreeSharedTreeMCTS
from repro.parallel.locks import StripedLockTable
from repro.parallel.root_parallel import RootParallelMCTS
from repro.parallel.shared_tree import SharedTreeMCTS
from repro.parallel.speculative import SpeculativeMCTS

__all__ = [
    "LeafParallelMCTS",
    "LocalTreeMCTS",
    "LockFreeSharedTreeMCTS",
    "ParallelScheme",
    "RootParallelMCTS",
    "SchemeName",
    "SharedTreeMCTS",
    "SpeculativeMCTS",
    "StripedLockTable",
]
