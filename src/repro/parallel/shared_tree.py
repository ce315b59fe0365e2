"""Shared-tree tree-parallel MCTS (paper Algorithm 2, Section 3.1.1).

In Algorithm 2, N workers each run whole playouts against one shared
tree, taking per-node locks around the virtual-loss updates of their
descent and the statistics updates of their expansion and backup.  On
one thread the algorithm keeps that schedule's effects with none of its
locks: each of N workers selects a leaf under a virtual loss the later
workers see, the N leaves go to the evaluator as one ``evaluate_batch``
(the paper's shared-tree + accelerator configuration, batch == N), and
each leaf is then expanded and backed up in order.  That is local-tree
with ``batch_size == num_workers``, so this scheme is one.  The search
is deterministic at any N and equals serial search at N=1.

It runs the one search program,
:meth:`~repro.mcts.serial.SerialMCTS.search_program`, and its inline
driver, as local-tree does; this class only pins B to N and defaults
the policy to constant virtual loss.  The costs the threads would add
on the paper's platform -- lock acquisition and the DDR traffic of the
shared tree -- are modelled in virtual time by
:mod:`repro.simulator.shared_tree_sim`, which runs Algorithm 2's own
per-level lock schedule.
"""

from __future__ import annotations

import numpy as np

from repro.mcts.evaluation import Evaluator
from repro.mcts.virtual_loss import ConstantVirtualLoss, VirtualLossPolicy
from repro.parallel.base import SchemeName
from repro.parallel.local_tree import LocalTreeMCTS

__all__ = ["SharedTreeMCTS"]


class SharedTreeMCTS(LocalTreeMCTS):
    """N leaves in flight over one tree, evaluated as one batch.

    Parameters are :class:`LocalTreeMCTS`'s with ``batch_size`` pinned to
    ``num_workers``; *vl_policy* defaults to constant virtual loss
    [Chaslot 2008], the paper's primary choice.
    """

    name = SchemeName.SHARED_TREE

    def __init__(
        self,
        evaluator: Evaluator,
        num_workers: int = 4,
        c_puct: float = 5.0,
        vl_policy: VirtualLossPolicy | None = None,
        dirichlet_alpha: float = 0.3,
        dirichlet_epsilon: float = 0.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(
            evaluator,
            num_workers=num_workers,
            batch_size=num_workers,
            c_puct=c_puct,
            vl_policy=vl_policy or ConstantVirtualLoss(),
            dirichlet_alpha=dirichlet_alpha,
            dirichlet_epsilon=dirichlet_epsilon,
            rng=rng,
        )
