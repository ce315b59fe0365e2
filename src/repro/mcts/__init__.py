"""MCTS core: the array tree, virtual loss, the one search program.

This package contains everything the parallel schemes share:

- :mod:`repro.mcts.arraytree`    -- the structure-of-arrays search tree
  with vectorised Equation-1 (PUCT) selection, slab expansion and
  array-indexed backup, and its root factory.
- :mod:`repro.mcts.virtual_loss` -- constant virtual loss [Chaslot 2008] and
  WU-UCT unobserved-sample tracking [Liu 2020], the two VL styles the paper
  cites in Section 2.1.
- :mod:`repro.mcts.evaluation`   -- leaf evaluators (network, random
  rollout, uniform).
- :mod:`repro.mcts.search`       -- expansion/backup primitives, action
  priors, temperature and Dirichlet-noise utilities.
- :mod:`repro.mcts.serial`       -- the serial DNN-MCTS baseline, and
  the one search program every scheme runs.
- :mod:`repro.mcts.master`       -- the threadless master round that
  steps several search programs and batches their leaves
  (root-parallel's and the gateway's search master's).
"""

from repro.mcts.arraytree import ArrayNodeView, ArrayTree, capacity_hint, make_root
from repro.mcts.budget import BudgetClock, BudgetSnapshot, SearchBudget, as_budget
from repro.mcts.evaluation import (
    Evaluation,
    Evaluator,
    NetworkEvaluator,
    RandomRolloutEvaluator,
    UniformEvaluator,
)
from repro.mcts.search import (
    action_prior_from_root,
    add_dirichlet_noise,
    backup,
    expand,
    sample_action,
    select_leaf,
)
from repro.mcts.serial import SerialMCTS
from repro.mcts.virtual_loss import (
    ConstantVirtualLoss,
    NoVirtualLoss,
    VirtualLossPolicy,
    WUVirtualLoss,
)

__all__ = [
    "ArrayNodeView",
    "ArrayTree",
    "BudgetClock",
    "BudgetSnapshot",
    "ConstantVirtualLoss",
    "Evaluation",
    "Evaluator",
    "NetworkEvaluator",
    "NoVirtualLoss",
    "RandomRolloutEvaluator",
    "SearchBudget",
    "SerialMCTS",
    "UniformEvaluator",
    "VirtualLossPolicy",
    "WUVirtualLoss",
    "action_prior_from_root",
    "add_dirichlet_noise",
    "as_budget",
    "backup",
    "capacity_hint",
    "expand",
    "make_root",
    "sample_action",
    "select_leaf",
]
