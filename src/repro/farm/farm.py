r"""Multiprocess self-play farm with shared-memory batched evaluation.

The thread-based :class:`repro.serving.engine.MultiGameSelfPlayEngine`
multiplexes G games over one accelerator queue, but all G searches share
one GIL -- sims/sec plateaus near single-core throughput no matter the
hardware.  The farm moves each game's search into its own *process*:

    worker 0 (SerialMCTS) --\                       doorbell pipes
    worker 1 (SerialMCTS) ---+--> shared-memory --> evaluator process
       ...                   |    state slabs       (batched forward,
    worker N-1 -------------/       ^                writes priors/values
            ^                       |                back into the slabs)
            |              SharedEvaluationCache
       task pipes          (lock-striped, shm)
      (supervisor)

Workers run the unchanged array-backed search schemes; only *where* leaf
evaluation happens differs (the Section-3.2 program-template property,
now across address spaces).  Evaluation requests ride shared-memory rings
(:mod:`repro.farm.rings`) and are batched by the evaluator process with
the thread engine's evaluation-bus semantics (flush at the busy-worker
headcount, linger timeout for tails -- :mod:`repro.farm.server`).  Leaf
states any process has already evaluated are served from the lock-striped
:class:`~repro.farm.cache.SharedEvaluationCache` without touching a pipe.

Determinism: episodes are seeded by a ladder of generators spawned from
one root ``SeedSequence`` and an episode's transcript depends only on its
own generator (workers pull episodes, but the rng travels with the
episode, not the worker), so a farm round reproduces a serial loop over
the same ladder transcript-for-transcript.

Supervision: worker processes can die mid-episode (OOM killer, segfault,
the fault-injection suite's SIGKILL).  The supervisor detects death via
process sentinels, respawns the worker slot (same ring, same doorbell,
epoch bumped so stale responses are fenced off), and requeues the lost
episode -- re-running it under the *same* generator, so a crash never
changes the round's transcripts.  Each episode has a bounded retry
budget; exhausting it raises :class:`FarmError`.

Everything is fork-based: workers inherit the game template, the scheme
factory and the slabs directly, so nothing but doorbell tuples, episode
seeds and finished episodes ever crosses a pipe.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Callable

import numpy as np

from repro.farm.cache import SharedEvaluationCache
from repro.farm.counters import FarmCounters
from repro.farm.rings import EvaluationRings, RingClient
from repro.farm.server import evaluator_main, resolve_encoded_evaluator
from repro.farm.shm import SegmentRegistry
from repro.farm.supervision import EpochFence, RetryBudget
from repro.games.base import Game
from repro.mcts.backend import TreeBackend, resolve_backend
from repro.mcts.evaluation import Evaluator
from repro.serving.engine import ServingStats
from repro.training.selfplay import EpisodeResult, play_episode
from repro.utils.clock import WALL_CLOCK, Clock
from repro.utils.rng import seed_ladder

__all__ = ["FarmError", "FarmStats", "SelfPlayFarm"]

#: builds one episode's search scheme around the worker's ring evaluator
SchemeFactory = Callable[[Evaluator, np.random.Generator], object]


class FarmError(RuntimeError):
    """Unrecoverable farm failure (retry budget exhausted, evaluator died)."""


@dataclass(frozen=True)
class FarmStats(ServingStats):
    """Round statistics of a farm round.

    A strict superset of :class:`~repro.serving.engine.ServingStats` (so
    the training pipeline's metrics fold it in unchanged) plus the
    process-farm specifics: worker headcount, supervision activity, and
    the figure of merit the E14 benchmark tracks, :attr:`sims_per_sec`.
    """

    # defaults are required by dataclass field ordering now that
    # ServingStats carries defaulted latency fields; the farm always
    # fills all three explicitly
    num_workers: int = 0
    worker_restarts: int = 0
    episodes_requeued: int = 0

    @property
    def sims_per_sec(self) -> float:
        return self.playouts / self.wall_time if self.wall_time > 0 else 0.0

    def as_dict(self) -> dict:
        d = super().as_dict()
        d.update(
            {
                "num_workers": self.num_workers,
                "worker_restarts": self.worker_restarts,
                "episodes_requeued": self.episodes_requeued,
                "sims_per_sec": round(self.sims_per_sec, 3),
            }
        )
        return d


def _worker_main(farm: "SelfPlayFarm", worker_id: int, epoch: int) -> None:
    """Worker-process entry point (runs post-fork; *farm* is inherited)."""
    task_conn = farm._task_child_conns[worker_id]
    client = RingClient(
        worker_id,
        epoch,
        farm._rings,
        farm._doorbell_worker_conns[worker_id],
        farm.cache,
    )
    while True:
        try:
            msg = task_conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        episode_index, rng = msg
        try:
            scheme = farm.scheme_factory(client, rng)
            try:
                result = play_episode(
                    farm.game,
                    scheme,
                    farm.num_playouts,
                    temperature_moves=farm.temperature_moves,
                    temperature=farm.temperature,
                    max_moves=farm.max_moves,
                    rng=rng,
                )
            finally:
                close = getattr(scheme, "close", None)
                if close is not None:
                    close()
        except BaseException:
            try:
                task_conn.send(("error", episode_index, traceback.format_exc()))
            except (BrokenPipeError, OSError):
                pass
            raise
        task_conn.send(("done", episode_index, result))


class SelfPlayFarm:
    """N self-play worker processes sharing one batched evaluator process.

    Parameters
    ----------
    game : template state; every episode plays from a fresh copy.
    evaluator : backing evaluator; must expose ``evaluate_encoded`` (the
        network and uniform evaluators do) because workers ship encoded
        planes, not ``Game`` objects.
    num_workers : worker-process count N.
    num_playouts : per-move search budget of every episode.
    scheme_factory : builds each episode's search scheme around the
        worker's ring evaluator; defaults to :class:`SerialMCTS` on the
        array backend.  Must be fork-inheritable (plain function, bound
        method or closure -- it is never pickled).
    cache_capacity : shared evaluation-cache size in states; 0 disables
        the cache.
    cache_stripes : lock stripes of the shared cache.
    linger : evaluator partial-flush timeout in seconds.
    ring_depth : in-flight evaluation slots per worker (serial schemes
        need 1; headroom is harmless).
    max_retries : how many times one episode may be re-run after worker
        deaths before the round fails with :class:`FarmError`.
    tree_backend : storage layout for the default per-episode trees.
    clock : time source for round wall-clock accounting and the
        evaluator's linger bookkeeping (wall by default; process joins
        and pipe waits are always real OS time).

    Use :meth:`run_round` for episodes + stats; :meth:`close` (or the
    context-manager form) terminates the processes and unlinks every
    shared-memory segment.
    """

    def __init__(
        self,
        game: Game,
        evaluator: Evaluator,
        num_workers: int = 2,
        num_playouts: int = 50,
        scheme_factory: SchemeFactory | None = None,
        temperature_moves: int = 8,
        temperature: float = 1.0,
        max_moves: int | None = None,
        cache_capacity: int = 8192,
        cache_stripes: int = 8,
        linger: float = 0.002,
        ring_depth: int = 2,
        max_retries: int = 2,
        tree_backend: TreeBackend | str | None = None,
        clock: Clock | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if num_playouts < 1:
            raise ValueError("num_playouts must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        resolve_encoded_evaluator(evaluator)  # fail fast on rollout-style
        self.game = game
        self.evaluator = evaluator
        self.num_workers = num_workers
        self.num_playouts = num_playouts
        self.temperature_moves = temperature_moves
        self.temperature = temperature
        self.max_moves = max_moves
        self.linger = linger
        self.clock: Clock = WALL_CLOCK if clock is None else clock
        self.ring_depth = ring_depth
        self.max_retries = max_retries
        self.tree_backend = resolve_backend(tree_backend, TreeBackend.ARRAY)
        if scheme_factory is None:
            from repro.mcts.serial import SerialMCTS

            scheme_factory = lambda ev, rng: SerialMCTS(  # noqa: E731
                ev, rng=rng, tree_backend=self.tree_backend
            )
        self.scheme_factory = scheme_factory

        self._ctx = mp.get_context("fork")
        self.registry = SegmentRegistry()
        self._rings = EvaluationRings(
            self.registry,
            num_workers,
            ring_depth,
            (game.num_planes, *game.board_shape),
            game.action_size,
        )
        self.cache: SharedEvaluationCache | None = (
            SharedEvaluationCache(
                game.action_size,
                capacity=cache_capacity,
                stripes=cache_stripes,
                registry=self.registry,
                ctx=self._ctx,
            )
            if cache_capacity > 0
            else None
        )
        self.counters = FarmCounters(self._ctx)
        self._active = self._ctx.Value("i", 0)
        self._batch_cap = num_workers * ring_depth

        self._started = False
        self._closed = False
        self.worker_restarts = 0
        self.episodes_requeued = 0
        # one fence per worker slot (the cluster's shard supervision
        # reuses the same primitive -- see repro.farm.supervision)
        self._epochs = [EpochFence() for _ in range(num_workers)]
        self._workers: list[mp.process.BaseProcess | None] = [None] * num_workers
        self._evaluator_proc: mp.process.BaseProcess | None = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Fork the evaluator and all worker processes (idempotent)."""
        if self._closed:
            raise RuntimeError("farm is closed")
        if self._started:
            return
        ctx = self._ctx
        # doorbell pipes: worker <-> evaluator, one duplex pair per worker
        pairs = [ctx.Pipe(duplex=True) for _ in range(self.num_workers)]
        self._doorbell_server_conns = [p[0] for p in pairs]
        self._doorbell_worker_conns = [p[1] for p in pairs]
        self._control_parent, self._control_child = ctx.Pipe(duplex=True)

        # the evaluator forks BEFORE any task pipe exists, so it can never
        # hold a task-pipe fd open (see _spawn_worker's EOF contract)
        self._evaluator_proc = ctx.Process(
            target=evaluator_main,
            args=(
                self.evaluator,
                self._rings,
                self._doorbell_server_conns,
                self._control_child,
                self._active,
                self.counters,
                self.linger,
                self._batch_cap,
                self.clock,
            ),
            name="farm-evaluator",
            daemon=True,
        )
        self._evaluator_proc.start()
        self._task_parent_conns: list = [None] * self.num_workers
        self._task_child_conns: list = [None] * self.num_workers
        for w in range(self.num_workers):
            self._spawn_worker(w)
        self._started = True

    def _spawn_worker(self, worker_id: int) -> None:
        """Fork worker *worker_id* with a fresh task pipe.

        EOF contract: after the fork, the parent drops its copy of the
        worker-side pipe end, and pipes are created one-per-spawn (never
        before another process forks), so the dying worker is the *only*
        holder of that end.  A worker SIGKILLed mid-``send`` therefore
        yields ``EOFError`` on the supervisor's blocking ``recv`` of the
        torn frame instead of hanging it forever.
        """
        parent, child = self._ctx.Pipe(duplex=True)
        self._task_parent_conns[worker_id] = parent
        self._task_child_conns[worker_id] = child
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self, worker_id, self._epochs[worker_id].current),
            name=f"farm-worker-{worker_id}",
            daemon=True,
        )
        proc.start()
        # the child inherited its end at fork; closing the parent's copy
        # does not touch the child's fd
        child.close()
        self._workers[worker_id] = proc

    def _respawn_worker(self, worker_id: int) -> None:
        """Replace a dead worker: fresh task pipe (discarding any torn
        frame the SIGKILL left mid-result), same doorbell pipe and ring
        (doorbell frames are atomic; the bumped epoch fences stale
        responses)."""
        dead = self._workers[worker_id]
        if dead is not None:
            dead.join(timeout=1.0)
        try:
            self._task_parent_conns[worker_id].close()
        except OSError:
            pass
        self._epochs[worker_id].bump()
        self.worker_restarts += 1
        self._spawn_worker(worker_id)

    @property
    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes (fault-injection hook)."""
        return [p.pid for p in self._workers if p is not None and p.pid]

    @property
    def evaluator_pid(self) -> int | None:
        return self._evaluator_proc.pid if self._evaluator_proc else None

    def sync_weights(self, state: dict[str, np.ndarray]) -> None:
        """Push new network weights into the running evaluator process.

        No-op before :meth:`start` -- the fork will inherit the weights.
        Blocks until the evaluator acknowledges, so the next round is
        guaranteed to evaluate with the new parameters.
        """
        if not self._started:
            return
        self._control_parent.send(("weights", state))
        reply = self._control_parent.recv()
        if reply[0] != "ok":
            raise FarmError(f"weight sync failed: {reply!r}")

    def close(self) -> None:
        """Terminate all processes and unlink shared memory; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._started:
            for w, proc in enumerate(self._workers):
                if proc is None:
                    continue
                try:
                    self._task_parent_conns[w].send(None)
                except (BrokenPipeError, OSError):
                    pass
            deadline = time.monotonic() + 2.0
            for proc in self._workers:
                if proc is not None:
                    proc.join(timeout=max(0.0, deadline - time.monotonic()))
                    if proc.is_alive():
                        proc.terminate()
                        proc.join(timeout=1.0)
                    if proc.is_alive():  # pragma: no cover - stuck in D state
                        proc.kill()
                        proc.join(timeout=1.0)
            if self._evaluator_proc is not None:
                try:
                    self._control_parent.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
                self._evaluator_proc.join(timeout=2.0)
                if self._evaluator_proc.is_alive():
                    self._evaluator_proc.terminate()
                    self._evaluator_proc.join(timeout=1.0)
            for conn in (
                *self._task_parent_conns,
                *self._task_child_conns,
                *self._doorbell_server_conns,
                *self._doorbell_worker_conns,
                self._control_parent,
                self._control_child,
            ):
                try:
                    conn.close()
                except OSError:
                    pass
        self.registry.close()

    def __enter__(self) -> "SelfPlayFarm":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- rounds --------------------------------------------------------------
    def run_round(
        self,
        episode_rngs: list[np.random.Generator] | int,
        seed: int | None = None,
    ) -> tuple[list[EpisodeResult], FarmStats]:
        """Play one round of episodes across the worker pool.

        Parameters
        ----------
        episode_rngs : either an explicit list of per-episode generators
            (the determinism suite passes the same ladder to the serial
            reference), or an episode *count* -- then a ladder of that many
            generators is spawned from ``SeedSequence(seed)``.
        seed : root seed when *episode_rngs* is a count.

        Returns the episodes ordered by episode index plus the round's
        :class:`FarmStats`.
        """
        if isinstance(episode_rngs, int):
            episode_rngs = seed_ladder(seed, episode_rngs)
        if not episode_rngs:
            raise ValueError("run_round needs at least one episode")
        self.start()

        base = self.counters.snapshot()
        base_hits = self.cache.hits if self.cache else 0
        base_misses = self.cache.misses if self.cache else 0
        restarts_before = self.worker_restarts
        requeued_before = self.episodes_requeued

        queue: deque[tuple[int, np.random.Generator, RetryBudget]] = deque(
            (i, rng, RetryBudget(self.max_retries))
            for i, rng in enumerate(episode_rngs)
        )
        results: dict[int, EpisodeResult] = {}
        busy: dict[int, tuple[int, np.random.Generator, RetryBudget]] = {}
        idle = set(range(self.num_workers))
        last_error: str | None = None

        t0 = self.clock.perf_counter()
        while len(results) < len(episode_rngs):
            while idle and queue:
                w = idle.pop()
                task = queue.popleft()
                busy[w] = task
                with self._active.get_lock():
                    self._active.value = len(busy)
                self._task_parent_conns[w].send((task[0], task[1]))
            waitees: list = [self._task_parent_conns[w] for w in busy]
            waitees += [p.sentinel for p in self._workers if p is not None]
            if self._evaluator_proc is not None:
                waitees.append(self._evaluator_proc.sentinel)
            ready = set(wait(waitees, timeout=1.0))

            # results first: a worker that finished and *then* died must
            # not have its completed episode requeued
            for w in list(busy):
                conn = self._task_parent_conns[w]
                if conn not in ready:
                    continue
                proc = self._workers[w]
                if proc is None or not proc.is_alive():
                    # A worker killed mid-send leaves a torn frame a
                    # blocking recv would hang on; skip -- the sentinel
                    # path requeues, and the deterministic re-run under
                    # the same rng reproduces the same episode anyway.
                    continue
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    continue  # death handled via the sentinel below
                if msg[0] == "done":
                    _, idx, episode = msg
                    results[idx] = episode
                    del busy[w]
                    idle.add(w)
                elif msg[0] == "error":
                    last_error = msg[2]
                    # the worker re-raises and dies; the sentinel path
                    # requeues (or fails the round on budget exhaustion)

            if (
                self._evaluator_proc is not None
                and self._evaluator_proc.sentinel in ready
                and not self._evaluator_proc.is_alive()
            ):
                self._fail_round("evaluator process died", last_error)
            for w, proc in enumerate(self._workers):
                if proc is None or proc.is_alive():
                    continue
                task = busy.pop(w, None)
                if task is not None:
                    idx, rng, budget = task
                    if not budget.spend():
                        self._fail_round(
                            f"episode {idx} failed {budget.attempts} times "
                            f"(retry budget {self.max_retries})",
                            last_error,
                        )
                    # same rng -> the re-run reproduces the same transcript
                    queue.appendleft((idx, rng, budget))
                    self.episodes_requeued += 1
                self._respawn_worker(w)
                idle.add(w)
            with self._active.get_lock():
                self._active.value = len(busy)
        wall = self.clock.perf_counter() - t0
        with self._active.get_lock():
            self._active.value = 0

        snap = self.counters.snapshot()
        requests = snap["requests_served"] - base["requests_served"]
        batches = snap["batches_flushed"] - base["batches_flushed"]
        hits = (self.cache.hits if self.cache else 0) - base_hits
        misses = (self.cache.misses if self.cache else 0) - base_misses
        ordered = [results[i] for i in range(len(episode_rngs))]
        stats = FarmStats(
            games=len(ordered),
            moves=sum(r.moves for r in ordered),
            playouts=sum(r.total_playouts for r in ordered),
            wall_time=wall,
            eval_requests=requests,
            eval_batches=batches,
            mean_batch_occupancy=requests / batches if batches else 0.0,
            partial_flushes=snap["partial_flushes"] - base["partial_flushes"],
            cache_hits=hits,
            cache_misses=misses,
            cache_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
            num_workers=self.num_workers,
            worker_restarts=self.worker_restarts - restarts_before,
            episodes_requeued=self.episodes_requeued - requeued_before,
        )
        return ordered, stats

    def _fail_round(self, reason: str, last_error: str | None) -> None:
        detail = f"\nlast worker error:\n{last_error}" if last_error else ""
        raise FarmError(f"{reason}{detail}")
