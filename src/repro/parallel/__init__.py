"""Tree-parallel MCTS schemes (Section 3 of the paper).

Every scheme runs the one search program,
:meth:`repro.mcts.serial.SerialMCTS.search_program`, which keeps N
leaves in flight under virtual loss in sub-batches of B; serial search
is N = B = 1.

- :mod:`repro.parallel.shared_tree` -- Algorithm 2: N leaves selected
  under virtual loss on one shared tree are evaluated as one batch, then
  expanded and backed up in order (B = N).
- :mod:`repro.parallel.local_tree`  -- Algorithm 3: a master owns the
  tree and keeps N leaves in flight in sub-batches of B; its FIFO pipe
  of sub-batches is drained, in order, by the master itself.
- :mod:`repro.parallel.leaf_parallel`, :mod:`repro.parallel.root_parallel`
  -- the related-work baselines of Section 2.2, both over the program at
  one leaf in flight: leaf-parallel evaluates N copies of each leaf as
  one batch, root-parallel steps N independent programs through the
  threadless master round (:class:`repro.mcts.master.Master`) and
  evaluates each round's leaves as one batch.

GIL note: no scheme starts a thread.  Every in-tree operation and every
evaluation runs on the caller's thread: under the GIL a worker hand-off
costs more than the work it would overlap.  On a 2-vCPU host, Connect
Four with a ``(16, 32, 32)`` network, one thread ran root-parallel at
1.3-3.3x and leaf-parallel at 3.9-7.7x the median playouts/s of the
thread pools they replaced (N = 2, 4, 8), with identical priors.  Every
scheme keeps the paper's schedule effects -- virtual loss, N leaves in
flight, batched evaluation -- and is deterministic at any N.  The
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
