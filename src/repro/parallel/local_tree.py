"""Local-tree tree-parallel MCTS (paper Algorithm 3, Section 3.1.2).

A centralised **master** owns the complete tree and executes *all*
in-tree operations -- selection, expansion, backup -- with no locks at
all.  Algorithm 3 hands node evaluation (DNN inference) to N workers
through FIFO pipes, so that inference overlaps the master's tree work.

The master is the one search program,
:meth:`~repro.mcts.serial.SerialMCTS.search_program`, with N leaves in
flight under virtual loss; this class only sets N, B and the policy.
Its inline driver, :meth:`~repro.mcts.serial.SerialMCTS.search`, takes
back the oldest flushed sub-batch at each wait: under the GIL a worker
hand-off costs more than the forward it would overlap, and draining in
submission order makes the search deterministic at any N.
:class:`repro.simulator.local_tree_sim.LocalTreeSimulation` drives the
same program in virtual time, where N workers or an accelerator finish
the sub-batches, so the overlap of the paper's platform shows there.

The ``batch_size`` parameter implements the CUDA-stream sub-batching of
Sections 3.3/4.2: the master accumulates ``B`` evaluation requests before
submitting them as one batched inference, so with N leaves in flight
there are N/B sub-batches in the pipe -- the knob Algorithm 4 tunes.
"""

from __future__ import annotations

import numpy as np

from repro.mcts.evaluation import Evaluator
from repro.mcts.serial import SerialMCTS
from repro.mcts.virtual_loss import VirtualLossPolicy, WUVirtualLoss
from repro.parallel.base import ParallelScheme, SchemeName

__all__ = ["LocalTreeMCTS"]


class LocalTreeMCTS(SerialMCTS, ParallelScheme):
    """Master-owned tree with N leaves in flight in sub-batches of B.

    Parameters
    ----------
    evaluator : leaf evaluator; a sub-batch of more than one leaf goes to
        ``evaluate_batch``, so a network evaluator performs genuinely
        batched inference.
    num_workers : N, the most evaluation requests in flight (leaves
        carrying virtual loss; Algorithm 3 line 12).
    batch_size : evaluation requests accumulated before submission
        (B of Section 4.2; 1, the CPU-only default, evaluates each leaf
        on its own).
    vl_policy : defaults to WU-UCT unobserved-sample tracking [Liu 2020],
        the style the local-tree lineage uses; constant VL also works.
    tree_backend : only ``"array"``, as for
        :class:`~repro.mcts.serial.SerialMCTS`.
    """

    name = SchemeName.LOCAL_TREE

    def __init__(
        self,
        evaluator: Evaluator,
        num_workers: int = 4,
        batch_size: int = 1,
        c_puct: float = 5.0,
        vl_policy: VirtualLossPolicy | None = None,
        dirichlet_alpha: float = 0.3,
        dirichlet_epsilon: float = 0.0,
        rng: np.random.Generator | int | None = None,
        tree_backend: str = "array",
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if not 1 <= batch_size <= num_workers:
            raise ValueError(
                f"batch_size must be in [1, num_workers={num_workers}], got {batch_size}"
            )
        super().__init__(
            evaluator, c_puct, dirichlet_alpha, dirichlet_epsilon, rng, tree_backend
        )
        self.num_workers = num_workers
        self.batch_size = batch_size
        self.vl_policy = vl_policy or WUVirtualLoss()
