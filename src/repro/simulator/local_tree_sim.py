"""Local-tree scheme executed in virtual time (Algorithm 3 on the DES).

The search is :class:`~repro.parallel.local_tree.LocalTreeMCTS`'s
program, the one search program
(:meth:`~repro.mcts.serial.SerialMCTS.search_program`); this module is
only its virtual-time driver.  One simulated **master task** steps the
program and charges each step at cache-regime costs
(the paper's premise that the local tree fits in the master core's LLC):
the per-level selection and virtual-loss work of each leaf, the pipe
transfer of each flushed sub-batch, and the expansion and backup of each
finished one.  Evaluation requests leave the master through FIFO pipes:

- CPU mode: N simulated worker tasks each serve one sub-batch at a time,
  charging ``T_DNN`` per state (Algorithm 3's thread pool), so a short
  sub-batch may finish before an older, longer one;
- GPU mode: sub-batches of ``B`` go to the simulated accelerator; with
  B < N several are in flight at once, which is the CUDA-stream overlap
  of Section 4.2 (N/B streams).

The in-flight cap is ``num_workers`` requests in both modes (Algorithm 3
line 12: "if number of tasks in thread pool >= number of threads then wait
for a task to finish").
"""

from __future__ import annotations

import numpy as np

from repro.games.base import Game
from repro.mcts.evaluation import Evaluator
from repro.mcts.serial import FLUSH, LEAF
from repro.mcts.virtual_loss import VirtualLossPolicy
from repro.parallel.local_tree import LocalTreeMCTS
from repro.simulator.engine import Compute, Get, Put, SimEngine, Wait
from repro.simulator.gpu import SimGPU
from repro.simulator.hardware import PlatformSpec
from repro.simulator.resources import SimFIFO, SimFuture
from repro.simulator.result import SimResult
from repro.simulator.workload import LatencyModel

__all__ = ["LocalTreeSimulation"]

_STOP = object()  # worker-shutdown sentinel


class LocalTreeSimulation:
    """Virtual-time local-tree search on a real game.

    Parameters
    ----------
    num_workers : evaluation capacity N (worker threads on CPU; total
        requests in flight on GPU).
    batch_size : sub-batch size B (Section 4.2), in ``[1, num_workers]``
        in both modes; on CPU one worker evaluates a whole sub-batch.
    """

    def __init__(
        self,
        game: Game,
        evaluator: Evaluator,
        platform: PlatformSpec,
        num_workers: int,
        batch_size: int = 1,
        c_puct: float = 5.0,
        vl_policy: VirtualLossPolicy | None = None,
        use_gpu: bool = False,
    ) -> None:
        self.scheme = LocalTreeMCTS(
            evaluator, num_workers, batch_size, c_puct, vl_policy
        )
        if use_gpu and platform.gpu is None:
            raise ValueError("use_gpu=True requires a platform with a GPU spec")
        self.game = game
        self.platform = platform
        self.latency = LatencyModel(platform)
        self.num_workers = num_workers
        self.batch_size = batch_size
        self.use_gpu = use_gpu

    # -- entry point ----------------------------------------------------------
    def run(self, num_playouts: int) -> SimResult:
        """Search *num_playouts* playouts from the game's state in virtual
        time (the program rejects a count below 1 or a terminal state)."""
        engine = SimEngine()
        request_fifo = SimFIFO("requests")
        response_fifo = SimFIFO("responses")
        gpu = SimGPU(engine, self.latency) if self.use_gpu else None
        path_lengths: list[int] = []

        if gpu is None:
            for w in range(self.num_workers):
                engine.spawn(
                    self._cpu_worker(request_fifo, response_fifo), f"worker-{w}"
                )
        master = engine.spawn(
            self._master(
                engine, num_playouts, request_fifo, response_fifo, gpu,
                path_lengths,
            ),
            "master",
        )
        total_time = engine.run()
        total_time += (
            self.latency.dnn_cpu()
            if not self.use_gpu
            else (self.latency.gpu_transfer(1) + self.latency.gpu_compute(1))
        )
        return SimResult(
            scheme="local_tree",
            num_workers=self.num_workers,
            batch_size=self.batch_size,
            playouts=num_playouts,
            total_time=total_time,
            root=master.result,
            gpu_busy=gpu.busy_time if gpu else 0.0,
            gpu_batches=gpu.batches if gpu else 0,
            compute_by_tag=dict(engine.metrics.compute_by_tag),
            mean_path_length=float(np.mean(path_lengths)) if path_lengths else 0.0,
        )

    # -- CPU evaluation worker ---------------------------------------------
    def _cpu_worker(self, request_fifo: SimFIFO, response_fifo: SimFIFO):
        lat = self.latency
        while True:
            job = yield Get(request_fifo)
            if job is _STOP:
                return
            items, evaluations = job
            # one worker thread evaluates its sub-batch serially
            yield Compute(lat.dnn_cpu() * len(items), tag="dnn")
            yield Put(response_fifo, (items, evaluations))

    # -- master task: the scheme's search program, priced ----------------------
    def _master(
        self,
        engine: SimEngine,
        num_playouts: int,
        request_fifo: SimFIFO,
        response_fifo: SimFIFO,
        gpu: SimGPU | None,
        path_lengths: list[int],
    ):
        lat = self.latency
        vl_cost = lat.vl_update(shared=False)
        backup_cost = lat.backup_node(shared=False)
        program = self.scheme.search_program(self.game, num_playouts)
        reply = None
        # the root's one-row flush, the only one before any leaf hint, is
        # evaluated here unpriced; :meth:`run` charges it after the run
        root_job = None
        hinted = False
        while True:
            try:
                kind, payload = program.send(reply)
            except StopIteration as stop:
                root = stop.value
                break
            reply = None
            if kind is LEAF:
                # the descent: a virtual-loss write on every path node and
                # an Equation-1 scan of every expanded one
                leaf, depth = payload
                hinted = True
                path_lengths.append(depth)
                tree = leaf.tree
                path = tree.path_to_root(leaf.index)[:0:-1]
                yield Compute(vl_cost, tag="vl")
                for width in tree.child_count[path].tolist():
                    yield Compute(lat.select_node(width, shared=False), tag="select")
                    yield Compute(vl_cost, tag="vl")
                if leaf.is_terminal:
                    yield Compute((depth + 1) * backup_cost, tag="backup")
            elif kind is FLUSH and not hinted:
                ((_, root_game),) = payload
                root_job = payload, [self.scheme.evaluator.evaluate(root_game)]
            elif kind is FLUSH:
                # evaluate now, deliver at the modelled completion time
                games = [g for _, g in payload]
                job = (payload, self.scheme.evaluator.evaluate_batch(games))
                yield Compute(lat.pipe(), tag="pipe")
                if gpu is None:
                    yield Put(request_fifo, job)
                else:
                    future = gpu.submit(len(payload), job)
                    engine.spawn(_deliver(future, response_fifo), "gpu-deliver")
            elif root_job is not None:  # WAIT on the root's flush
                reply, root_job = root_job, None
            else:  # WAIT: take back whichever sub-batch finishes first
                reply = yield Get(response_fifo)
                for leaf, leaf_game in reply[0]:
                    yield Compute(
                        lat.expand(len(leaf_game.legal_actions()), shared=False),
                        tag="expand",
                    )
                    yield Compute(
                        (leaf.depth() + 1) * backup_cost, tag="backup"
                    )

        # shut the CPU worker pool down
        if gpu is None:
            for _ in range(self.num_workers):
                yield Put(request_fifo, _STOP)
        return root


def _deliver(future: SimFuture, fifo: SimFIFO):
    """Move an accelerator result into the master's response pipe."""
    result = yield Wait(future)
    yield Put(fifo, result)
