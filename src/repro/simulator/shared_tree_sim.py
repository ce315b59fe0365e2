"""Shared-tree scheme executed in virtual time (Algorithm 2 on the DES).

N simulated worker tasks run complete playouts against one real game tree
(an :class:`~repro.mcts.arraytree.ArrayTree`).  Every in-tree touch pays
the DDR-regime cost from the latency model; every node mutation happens
under that node's :class:`SimLock`, so the root-serialisation overhead the
paper models as ``T_shared-tree-access x N`` (Equation 3) *emerges* from
lock contention instead of being injected.

The per-level worker below is threaded Algorithm 2's lock interleaving,
which no runtime scheme runs (every scheme in :mod:`repro.parallel` keeps
its in-tree work on one thread), so it lives here as a DES task rather
than as a search program.

Evaluation is either per-worker CPU inference (``Compute(T_DNN)``) or a
batched accelerator submission with ``batch == N`` (the paper's
shared-tree GPU configuration, Section 3.3).
"""

from __future__ import annotations

import numpy as np

from repro.games.base import Game
from repro.mcts.arraytree import ArrayNodeView, capacity_hint, make_root
from repro.mcts.evaluation import Evaluator
from repro.mcts.search import backup, expand
from repro.mcts.virtual_loss import ConstantVirtualLoss, VirtualLossPolicy
from repro.simulator.engine import Acquire, Compute, Release, SimEngine, Wait
from repro.simulator.gpu import SimGPU
from repro.simulator.hardware import PlatformSpec
from repro.simulator.resources import SimFuture, SimLock
from repro.simulator.result import SimResult
from repro.simulator.workload import LatencyModel

__all__ = ["SharedTreeSimulation"]


class _PlayoutCounter:
    """Shared work counter the simulated workers draw playouts from."""

    __slots__ = ("remaining",)

    def __init__(self, total: int) -> None:
        self.remaining = total

    def take(self) -> bool:
        if self.remaining > 0:
            self.remaining -= 1
            return True
        return False


class _GPUBatch:
    """The accelerator batch the workers fill: their leaf states and the
    one future every worker in the batch waits on, taking its own row of
    the result."""

    def __init__(self, gpu: SimGPU, evaluator: Evaluator) -> None:
        self.gpu = gpu
        self.evaluator = evaluator
        self.games: list[Game] = []
        self.future = SimFuture()

    def flush(self) -> None:
        """Evaluate the pending states now and submit them as one batch;
        the future resolves when the batch's kernel finishes."""
        games, future = self.games, self.future
        if not games:
            return
        self.games, self.future = [], SimFuture()
        results = self.evaluator.evaluate_batch(games)
        if len(results) != len(games):
            raise RuntimeError("evaluator returned wrong number of results")
        engine = self.gpu.engine
        self.gpu.submit(len(games))
        engine.call_at(
            self.gpu.busy_until, lambda: engine.resolve_future(future, results)
        )


class SharedTreeSimulation:
    """Virtual-time shared-tree search on a real game.

    Parameters
    ----------
    game : root state (copied per playout, like the real implementation).
    evaluator : produces genuine priors/values; its *cost* is modelled,
        not measured.
    platform : hardware spec; ``use_gpu`` requires ``platform.gpu``.
    num_workers : simulated thread count N.
    """

    def __init__(
        self,
        game: Game,
        evaluator: Evaluator,
        platform: PlatformSpec,
        num_workers: int,
        c_puct: float = 5.0,
        vl_policy: VirtualLossPolicy | None = None,
        use_gpu: bool = False,
        lock_free: bool = False,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if use_gpu and platform.gpu is None:
            raise ValueError("use_gpu=True requires a platform with a GPU spec")
        self.game = game
        self.evaluator = evaluator
        self.platform = platform
        self.latency = LatencyModel(platform)
        self.num_workers = num_workers
        self.c_puct = c_puct
        self.vl_policy = vl_policy or ConstantVirtualLoss()
        self.use_gpu = use_gpu
        #: model the lock-free variant [Mirsoleimani 2018]: skip every
        #: mutex (no acquire/release cost, no contention wait).  The DES
        #: is single-threaded so statistics stay exact -- this isolates
        #: the pure synchronisation cost of the locked variant (E10).
        self.lock_free = lock_free
        self._locks: dict[int, SimLock] = {}  # by tree row

    def _lock(self, node: ArrayNodeView) -> SimLock:
        lock = self._locks.get(node.index)
        if lock is None:
            lock = SimLock(name=f"node-{len(self._locks)}")
            self._locks[node.index] = lock
        return lock

    # -- entry point ----------------------------------------------------------
    def run(self, num_playouts: int) -> SimResult:
        if num_playouts < 1:
            raise ValueError("num_playouts must be >= 1")
        if self.game.is_terminal:
            raise ValueError("cannot search from a terminal state")
        engine = SimEngine()
        self._locks = {}
        root = make_root(capacity_hint(self.game.action_size, num_playouts))
        # Warm-up: expand and back up the root once before the parallel
        # phase, charged as one serial evaluation (the search program's
        # first playout).
        evaluation = self.evaluator.evaluate(self.game)
        backup(root, expand(root, self.game, evaluation))

        counter = _PlayoutCounter(num_playouts - 1)
        path_lengths: list[int] = []
        gpu = SimGPU(engine, self.latency) if self.use_gpu else None
        batch = _GPUBatch(gpu, self.evaluator) if gpu is not None else None
        for w in range(self.num_workers):
            engine.spawn(
                self._worker(root, counter, batch, path_lengths), f"worker-{w}"
            )
        total_time = engine.run()
        # warm-up evaluation time is charged serially up front
        total_time += self.latency.dnn_cpu() if not self.use_gpu else (
            self.latency.gpu_transfer(1) + self.latency.gpu_compute(1)
        )
        return SimResult(
            scheme="shared_tree",
            num_workers=self.num_workers,
            batch_size=self.num_workers if self.use_gpu else 1,
            playouts=num_playouts,
            total_time=total_time,
            root=root,
            lock_wait=engine.metrics.total_lock_wait,
            gpu_busy=gpu.busy_time if gpu else 0.0,
            gpu_batches=gpu.batches if gpu else 0,
            compute_by_tag=dict(engine.metrics.compute_by_tag),
            mean_path_length=float(np.mean(path_lengths)) if path_lengths else 0.0,
        )

    # -- one simulated worker (Algorithm 2, threadsafe_rollout loop) -----------
    def _worker(self, root, counter, batch, path_lengths):
        lat = self.latency
        vl = self.vl_policy
        tree = root.tree
        lock_cost = 0.0 if self.lock_free else lat.lock_overhead()
        while counter.take():
            game = self.game.copy()
            node = root
            depth = 0
            # root virtual-loss update under the root lock
            if not self.lock_free:
                yield Acquire(self._lock(node))
            yield Compute(lock_cost + lat.vl_update(shared=True), tag="vl")
            vl.on_descend(node)
            if not self.lock_free:
                yield Release(self._lock(node))
            # Node Selection
            while not node.is_leaf and not node.is_terminal:
                width = int(tree.child_count[node.index])
                yield Compute(lat.select_node(width, shared=True), tag="select")
                node = ArrayNodeView(
                    tree, tree.select_child_index(node.index, self.c_puct, vl)
                )
                game.step(node.action)
                depth += 1
                if not self.lock_free:
                    yield Acquire(self._lock(node))
                yield Compute(lock_cost + lat.vl_update(shared=True), tag="vl")
                vl.on_descend(node)
                if not self.lock_free:
                    yield Release(self._lock(node))
                if game.is_terminal:
                    node.terminal_value = game.terminal_value
            path_lengths.append(depth)

            # Node Evaluation
            if node.is_terminal:
                value = node.terminal_value
            else:
                if batch is not None:
                    future, slot = batch.future, len(batch.games)
                    batch.games.append(game)
                    # full at N, or the tail of the move: a partial batch
                    if len(batch.games) >= self.num_workers or counter.remaining == 0:
                        batch.flush()
                    evaluation = (yield Wait(future))[slot]
                else:
                    yield Compute(lat.dnn_cpu(), tag="dnn")
                    evaluation = self.evaluator.evaluate(game)
                # Node Expansion under the leaf lock
                if not self.lock_free:
                    yield Acquire(self._lock(node))
                yield Compute(
                    lock_cost + lat.expand(len(game.legal_actions()), shared=True),
                    tag="expand",
                )
                value = expand(node, game, evaluation)
                if not self.lock_free:
                    yield Release(self._lock(node))

            # BackUp under per-node locks
            current = node
            v = value
            while current is not None:
                if not self.lock_free:
                    yield Acquire(self._lock(current))
                yield Compute(lock_cost + lat.backup_node(shared=True), tag="backup")
                current.visit_count += 1
                current.value_sum += -v
                vl.on_backup(current)
                if not self.lock_free:
                    yield Release(self._lock(current))
                v = -v
                current = current.parent
        # Exiting worker: release any partial accelerator batch so blocked
        # peers cannot deadlock at the end of the move.
        if batch is not None:
            batch.flush()
