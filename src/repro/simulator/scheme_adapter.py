"""Adapter exposing the DES scheme simulations as a ParallelScheme.

This lets the Algorithm-1 training pipeline (and the examples) generate
self-play data *through the simulator*: every move runs the genuine
parallel search algorithm in virtual time, so

- the algorithmic effects of parallelism (virtual loss, obsolete tree
  information) are present in the generated data, exactly as with the
  threaded schemes; and
- the run is bit-for-bit deterministic (the DES has no scheduler noise),
  which real threads cannot offer; and
- the accumulated virtual time *is* the platform time axis Figure 7
  plots -- no separate latency model needed.
"""

from __future__ import annotations

from repro.games.base import Game
from repro.mcts.evaluation import Evaluator
from repro.mcts.node import Node
from repro.mcts.virtual_loss import VirtualLossPolicy
from repro.parallel.base import ParallelScheme, SchemeName
from repro.simulator.hardware import PlatformSpec
from repro.simulator.local_tree_sim import LocalTreeSimulation
from repro.simulator.result import SimResult
from repro.simulator.shared_tree_sim import SharedTreeSimulation

__all__ = ["SimulatedScheme"]


class SimulatedScheme(ParallelScheme):
    """Run every ``get_action_prior`` through a virtual-time simulation.

    Parameters
    ----------
    scheme : which parallel scheme to simulate per move.
    evaluator : real evaluator (its results guide the search; its cost is
        modelled by the platform).
    batch_size : local-tree communication batch size B (ignored for the
        shared tree, which always full-batches on GPU).
    """

    def __init__(
        self,
        scheme: SchemeName,
        evaluator: Evaluator,
        platform: PlatformSpec,
        num_workers: int,
        batch_size: int = 1,
        c_puct: float = 5.0,
        vl_policy: VirtualLossPolicy | None = None,
        use_gpu: bool = False,
    ) -> None:
        if scheme not in (SchemeName.SHARED_TREE, SchemeName.LOCAL_TREE):
            raise ValueError(f"unsupported simulated scheme {scheme}")
        self.name = scheme
        self.evaluator = evaluator
        self.platform = platform
        self.num_workers = num_workers
        self.batch_size = batch_size
        self.c_puct = c_puct
        self.vl_policy = vl_policy
        self.use_gpu = use_gpu
        #: accumulated virtual platform time across all moves
        self.virtual_time = 0.0
        self.last_result: SimResult | None = None

    def _make_sim(self, game: Game):
        if self.name == SchemeName.SHARED_TREE:
            return SharedTreeSimulation(
                game,
                self.evaluator,
                self.platform,
                num_workers=self.num_workers,
                c_puct=self.c_puct,
                vl_policy=self.vl_policy,
                use_gpu=self.use_gpu,
            )
        return LocalTreeSimulation(
            game,
            self.evaluator,
            self.platform,
            num_workers=self.num_workers,
            batch_size=self.batch_size,
            c_puct=self.c_puct,
            vl_policy=self.vl_policy,
            use_gpu=self.use_gpu,
        )

    def search(self, game: Game, num_playouts: int) -> Node:
        result = self._make_sim(game).run(num_playouts)
        self.virtual_time += result.total_time
        self.last_result = result
        return result.root
