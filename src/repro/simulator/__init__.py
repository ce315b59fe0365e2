"""Discrete-event hardware simulator (virtual-time execution substrate).

Why this exists: the paper's evaluation runs pthread-level tree-parallel
search on a 64-core Threadripper and offloads inference to an RTX A6000.
Python's GIL makes the in-tree thread scaling unobservable in wall clock,
so -- per the substitution policy in DESIGN.md -- the *figures* are
reproduced by executing the **same search algorithms** in virtual time
against a parameterised hardware model:

- :mod:`repro.simulator.engine`    -- the event loop; tasks are Python
  generators yielding :class:`Compute` / :class:`Acquire` / :class:`Put` /
  ... effects.
- :mod:`repro.simulator.resources` -- virtual locks, FIFOs, futures.
- :mod:`repro.simulator.hardware`  -- CPU/GPU/platform specs with presets
  mirroring the paper's testbed (Section 5.1).
- :mod:`repro.simulator.workload`  -- maps hardware + application
  parameters to per-operation latencies (the T_select, T_backup, T_DNN,
  T_access quantities of Equations 3-6).
- :mod:`repro.simulator.gpu`       -- accelerator with PCIe transfer model
  ``(N/B) * L + N/BW`` and monotone batched-compute model (Section 4.2).
- :mod:`repro.simulator.local_tree_sim` -- the virtual-time driver of
  the one search program
  (:meth:`~repro.mcts.serial.SerialMCTS.search_program`) as
  :class:`~repro.parallel.local_tree.LocalTreeMCTS` configures it
  (Algorithm 3): it prices each step the program yields and finishes its
  sub-batches on simulated workers or the accelerator.
- :mod:`repro.simulator.shared_tree_sim` -- threaded Algorithm 2 with its
  per-level lock interleaving, on an array tree
  (:class:`~repro.mcts.arraytree.ArrayTree`); one DES task per worker.

The algorithms are the genuine ones from :mod:`repro.mcts` and
:mod:`repro.parallel` -- selection with Equation-1 UCT, virtual loss,
expansion, backup on a real game -- only the *clock* is simulated.
Algorithmic effects the paper discusses (obsolete-tree information,
fewer node insertions at large batch size) therefore emerge instead of
being asserted.
"""

from repro.simulator.engine import (
    Acquire,
    Compute,
    Get,
    Put,
    Release,
    SimEngine,
    Wait,
)
from repro.simulator.gpu import SimGPU
from repro.simulator.hardware import (
    CPUSpec,
    GPUSpec,
    PlatformSpec,
    paper_platform,
)
from repro.simulator.local_tree_sim import LocalTreeSimulation
from repro.simulator.resources import SimFIFO, SimFuture, SimLock
from repro.simulator.result import SimResult
from repro.simulator.shared_tree_sim import SharedTreeSimulation
from repro.simulator.workload import LatencyModel

__all__ = [
    "Acquire",
    "CPUSpec",
    "Compute",
    "GPUSpec",
    "Get",
    "LatencyModel",
    "LocalTreeSimulation",
    "PlatformSpec",
    "Put",
    "Release",
    "SimEngine",
    "SimFIFO",
    "SimFuture",
    "SimGPU",
    "SimLock",
    "SimResult",
    "SharedTreeSimulation",
    "Wait",
    "paper_platform",
]
