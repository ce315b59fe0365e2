"""Design-time profiling (paper Section 4.2, first paragraph).

"We first obtain T_DNN, T_select and T_backup of a single worker on a
single thread by profiling their amortized execution time on the target
CPU for one iteration.  The DNN for profiling is filled with random
parameters and inputs of the same dimensions defined by the target
algorithm and application.  The T_select and T_backup are measured on a
synthetic tree constructed for one episode with random-generated UCT
scores, emulating the same fanout and depth limit defined by the DNN-MCTS
algorithm."

Two providers:

- :func:`profile_wallclock` -- measures the real Python implementation
  (SerialMCTS on a :class:`repro.games.synthetic.SyntheticTreeGame`), the
  literal analogue of the paper's procedure.  Useful for configuring the
  real-thread schemes on the actual host.
- :func:`profile_virtual` -- prices a single-worker episode with a
  :class:`repro.simulator.workload.LatencyModel`, yielding the profile the
  analytic models need to predict the *simulated* platform.  The episode
  is serial search's program
  (:meth:`~repro.mcts.serial.SerialMCTS.search_program`: one leaf in
  flight, no virtual loss), and the profiler prices each step it yields,
  as the virtual-time local-tree simulation does.  This is the provider
  the figure benchmarks use (deterministic).
"""

from __future__ import annotations

import numpy as np

from repro.games.base import Game
from repro.mcts.evaluation import Evaluator, UniformEvaluator
from repro.mcts.serial import FLUSH, LEAF, SerialMCTS
from repro.perfmodel.models import ProfiledLatencies
from repro.simulator.hardware import PlatformSpec
from repro.simulator.workload import LatencyModel

__all__ = ["profile_wallclock", "profile_virtual"]


def profile_wallclock(
    game: Game,
    evaluator: Evaluator,
    num_playouts: int = 400,
    c_puct: float = 5.0,
    ddr_cache_ratio: float = 4.0,
    t_access: float = 0.0,
) -> ProfiledLatencies:
    """Profile the real implementation's amortized per-playout latencies.

    A single wall-clock profile cannot distinguish the DDR and cache
    regimes (the Python process has one memory hierarchy), so the local
    -regime numbers are taken as measured and the shared-regime numbers
    scaled by *ddr_cache_ratio* -- callers targeting real hardware should
    substitute a measured ratio.
    """
    engine = SerialMCTS(evaluator, c_puct=c_puct)
    engine.search(game, num_playouts)
    stats = engine.stats
    t_select_local = stats.select.amortized
    t_backup_local = stats.backup.amortized
    return ProfiledLatencies(
        t_select_shared=t_select_local * ddr_cache_ratio,
        t_backup_shared=t_backup_local * ddr_cache_ratio,
        t_select_local=t_select_local,
        t_backup_local=t_backup_local,
        t_dnn_cpu=stats.evaluate.amortized,
        t_access=t_access,
    )


def profile_virtual(
    game: Game,
    platform: PlatformSpec,
    evaluator: Evaluator | None = None,
    num_playouts: int = 400,
    c_puct: float = 5.0,
) -> ProfiledLatencies:
    """Price a single-worker episode with the platform's latency model.

    Drives the serial search program -- so tree shape, path lengths and
    fanout are the real ones -- and accumulates what each
    step *would* cost in the two memory regimes.  ``t_access`` is derived
    from the serialised root handoff: one lock traversal plus one DDR
    node update for the descent and one for the backup -- the quantity
    Equation 3 multiplies by N.
    """
    if num_playouts < 1:
        raise ValueError("num_playouts must be >= 1")
    evaluator = evaluator or UniformEvaluator()
    lat = LatencyModel(platform)
    select_shared = 0.0
    select_local = 0.0
    backup_shared = 0.0
    backup_local = 0.0
    expand_children: list[int] = []

    def price_playout(widths: list[int], num_children: int | None, depth: int):
        """One playout: dispatch, descent, expansion (None for a terminal
        leaf) and the backup of a path of *depth* nodes."""
        nonlocal select_shared, select_local, backup_shared, backup_local
        # per-playout master overheads of the local scheme: the root VL
        # update and one FIFO dispatch to the worker pool
        select_local += lat.vl_update(False) + lat.pipe()
        # descend, pricing each level in both regimes
        for width in widths:
            select_shared += lat.select_node(width, shared=True) + lat.vl_update(True)
            select_local += lat.select_node(width, shared=False) + lat.vl_update(False)
        if num_children is not None:
            expand_children.append(num_children)
            select_shared += lat.expand(num_children, shared=True)
            select_local += lat.expand(num_children, shared=False)
        backup_shared += depth * (lat.backup_node(True) + lat.lock_overhead())
        backup_local += depth * lat.backup_node(False)

    program = SerialMCTS(evaluator, c_puct=c_puct).search_program(game, num_playouts)
    reply = None
    # playout 1 is the root's: a one-row flush with no leaf hint before it,
    # priced as a descent of no levels
    widths: list[int] = []
    depth = 0
    while True:
        try:
            kind, payload = program.send(reply)
        except StopIteration:
            break
        reply = None
        if kind is LEAF:
            leaf, depth = payload
            tree = leaf.tree
            widths = tree.child_count[tree.path_to_root(leaf.index)[:0:-1]].tolist()
            if leaf.is_terminal:
                price_playout(widths, None, depth + 1)
        elif kind is FLUSH:  # the one-leaf sub-batch the next WAIT takes back
            batch = payload
        else:  # WAIT: evaluate the leaf; the program expands and backs it up
            ((leaf, leaf_game),) = batch
            reply = batch, [evaluator.evaluate(leaf_game)]
            price_playout(widths, len(leaf_game.legal_actions()), depth + 1)

    n = num_playouts
    t_access = 2.0 * (lat.lock_overhead() + lat.vl_update(shared=True))
    return ProfiledLatencies(
        t_select_shared=select_shared / n,
        t_backup_shared=backup_shared / n,
        t_select_local=select_local / n,
        t_backup_local=backup_local / n,
        t_dnn_cpu=lat.dnn_cpu(),
        t_access=t_access,
        mean_expand_children=float(np.mean(expand_children)) if expand_children else 0.0,
    )
