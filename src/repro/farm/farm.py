r"""Multiprocess self-play farm: forked workers that evaluate their own leaves.

The thread-based :class:`repro.serving.engine.MultiGameSelfPlayEngine`
multiplexes G games over one evaluation bus, but all G searches share
one GIL -- sims/sec plateaus near single-core throughput no matter the
hardware.  The farm moves each game's search into its own *process*:

                  task pipes         worker 0: scheme --> CachingEvaluator
    supervisor --------------------> worker 1: scheme     (own LRU cache)
    (seeds, pull       ...              ...                    |
     scheduling,  <----------------  worker N-1            forked copy of
     requeue)     finished episodes                         the evaluator

Each worker plays whole episodes through the scheme factory and
evaluates its leaves in-process, through its own LRU
:class:`~repro.serving.cache.CachingEvaluator` wrapped around the
evaluator it inherited at fork.  Nothing but episode seeds, weight syncs
and finished episodes ever crosses a pipe: on a CPU host shipping every
leaf to a central evaluator process costs more than the batching it
buys (the paper's communication-versus-parallelism trade, Eqs. 3-6), so
the farm pays no per-leaf IPC at all.

Determinism: episodes are seeded by a ladder of generators spawned from
one root ``SeedSequence`` and an episode's transcript depends only on its
own generator (workers pull episodes, but the rng travels with the
episode, not the worker), so a farm round reproduces a serial loop over
the same ladder transcript-for-transcript.  Evaluations are pure
functions of the state, so which worker's cache holds what never
changes a transcript either.

Supervision: worker processes can die mid-episode (OOM killer, segfault,
the fault-injection suite's SIGKILL).  The supervisor detects death via
process sentinels, respawns the worker slot with a fresh task pipe (so
nothing the corpse left behind can be read as the successor's reply),
and requeues the lost episode -- re-running it under the *same*
generator, so a crash never changes the round's transcripts.  Each
episode has a bounded retry budget; exhausting it raises
:class:`FarmError`.
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

from repro.farm.supervision import RetryBudget
from repro.games.base import Game
from repro.mcts.evaluation import Evaluation, Evaluator
from repro.nn.infer import ensure_plan
from repro.serving.cache import CachingEvaluator, EvaluationCache
from repro.serving.engine import ServingStats
from repro.training.selfplay import EpisodeResult, play_episode
from repro.utils.clock import WALL_CLOCK, Clock
from repro.utils.rng import seed_ladder

__all__ = ["FarmError", "FarmStats", "SelfPlayFarm"]

#: builds one episode's search scheme around the worker's evaluator
SchemeFactory = Callable[[Evaluator, np.random.Generator], object]


class FarmError(RuntimeError):
    """Unrecoverable farm failure (retry budget exhausted, weight sync failed)."""


@dataclass(frozen=True)
class FarmStats(ServingStats):
    """Round statistics of a farm round.

    A strict superset of :class:`~repro.serving.engine.ServingStats` (so
    the training pipeline's metrics fold it in unchanged) plus the
    process-farm specifics: worker headcount, supervision activity, and
    the figure of merit the E14 benchmark tracks, :attr:`sims_per_sec`.
    ``eval_batches`` and ``eval_requests`` count the calls and rows that
    reached the workers' evaluators; workers never flush partial
    batches, so ``partial_flushes`` is 0.
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


class _CountingEvaluator(Evaluator):
    """Counts the calls and rows that reach the wrapped evaluator."""

    def __init__(self, evaluator: Evaluator) -> None:
        self.evaluator = evaluator
        self.calls = 0
        self.rows = 0

    def evaluate(self, game: Game) -> Evaluation:
        self.calls += 1
        self.rows += 1
        return self.evaluator.evaluate(game)

    def evaluate_batch(self, games: list[Game]) -> list[Evaluation]:
        self.calls += 1
        self.rows += len(games)
        return self.evaluator.evaluate_batch(games)


def _worker_main(farm: "SelfPlayFarm", conn) -> None:
    """Worker-process entry point (runs post-fork; *farm* is inherited).

    Messages on the task pipe: ``("episode", index, rng)`` plays one
    episode and replies ``("done", index, result, counts)``;
    ``("weights", state)`` loads new weights, clears the cache and
    replies ``("synced",)``; ``None`` (or EOF) exits.
    """
    network = getattr(farm.evaluator, "network", None)
    if farm._weights is not None:  # a respawn after sync_weights
        network.load_state_dict(farm._weights)
    # compile (or confirm) the fused plan before the first leaf
    ensure_plan(network)
    counting = _CountingEvaluator(farm.evaluator)
    cache = EvaluationCache(farm.cache_capacity) if farm.cache_capacity > 0 else None
    evaluator = counting if cache is None else CachingEvaluator(counting, cache)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        try:
            if msg[0] == "weights":
                network.load_state_dict(msg[1])
                if cache is not None:
                    cache.clear()
                ensure_plan(network)
                conn.send(("synced",))
                continue
            _, episode_index, rng = msg
            before = _counts(cache, counting)
            result = play_episode(
                farm.game,
                farm.scheme_factory(evaluator, rng),
                farm.num_playouts,
                temperature_moves=farm.temperature_moves,
                temperature=farm.temperature,
                max_moves=farm.max_moves,
                rng=rng,
            )
        except BaseException:
            try:
                conn.send(("error", traceback.format_exc()))
            except (BrokenPipeError, OSError):
                pass
            raise
        counts = tuple(b - a for a, b in zip(before, _counts(cache, counting)))
        conn.send(("done", episode_index, result, counts))


def _counts(
    cache: EvaluationCache | None, counting: _CountingEvaluator
) -> tuple[int, int, int, int]:
    """(cache hits, cache misses, evaluator calls, evaluator rows)."""
    hits, misses = (cache.hits, cache.misses) if cache is not None else (0, 0)
    return hits, misses, counting.calls, counting.rows


class SelfPlayFarm:
    """N self-play worker processes, each evaluating its own leaves.

    Parameters
    ----------
    game : template state; every episode plays from a fresh copy.
    evaluator : any :class:`Evaluator`; every worker evaluates with its
        own forked copy.
    num_workers : worker-process count N.
    num_playouts : per-move search budget of every episode.
    scheme_factory : builds each episode's search scheme around the
        worker's (cached) evaluator; defaults to :class:`SerialMCTS` on
        its array tree.  Must be fork-inheritable (plain function,
        bound method or closure -- it is never pickled).
    cache_capacity : size of each worker's LRU evaluation cache in
        states; 0 disables caching.
    max_retries : how many times one episode may be re-run after worker
        deaths before the round fails with :class:`FarmError`.
    clock : time source for round wall-clock accounting (wall by
        default; process joins and pipe waits are always real OS time).

    Use :meth:`run_round` for episodes + stats; :meth:`close` (or the
    context-manager form) stops the worker processes.
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
        max_retries: int = 2,
        clock: Clock | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if num_playouts < 1:
            raise ValueError("num_playouts must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.game = game
        self.evaluator = evaluator
        self.num_workers = num_workers
        self.num_playouts = num_playouts
        self.temperature_moves = temperature_moves
        self.temperature = temperature
        self.max_moves = max_moves
        self.cache_capacity = cache_capacity
        self.clock: Clock = WALL_CLOCK if clock is None else clock
        self.max_retries = max_retries
        if scheme_factory is None:
            from repro.mcts.serial import SerialMCTS

            scheme_factory = lambda ev, rng: SerialMCTS(ev, rng=rng)  # noqa: E731
        self.scheme_factory = scheme_factory

        self._ctx = mp.get_context("fork")
        self._started = False
        self._closed = False
        #: the last synced weights; a respawned worker loads them at start
        self._weights: dict[str, np.ndarray] | None = None
        self.worker_restarts = 0
        self.episodes_requeued = 0
        self._workers: list[mp.process.BaseProcess | None] = [None] * num_workers
        self._task_conns: list = [None] * num_workers

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Fork all worker processes (idempotent)."""
        if self._closed:
            raise RuntimeError("farm is closed")
        if self._started:
            return
        for w in range(self.num_workers):
            self._spawn_worker(w)
        self._started = True

    def _spawn_worker(self, worker_id: int) -> None:
        """Fork worker *worker_id* with a fresh task pipe.

        EOF contract: the pipe is created for this spawn only and the
        parent drops its copy of the worker-side end right after the
        fork, so the worker is the *only* holder of that end.  A worker
        SIGKILLed mid-``send`` therefore yields ``EOFError`` on the
        supervisor's blocking ``recv`` of the torn frame instead of
        hanging it forever, and nothing the corpse wrote can reach the
        successor's pipe.
        """
        parent, child = self._ctx.Pipe(duplex=True)
        self._task_conns[worker_id] = parent
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self, child),
            name=f"farm-worker-{worker_id}",
            daemon=True,
        )
        proc.start()
        # the child inherited its end at fork; closing the parent's copy
        # does not touch the child's fd
        child.close()
        self._workers[worker_id] = proc

    def _respawn_worker(self, worker_id: int) -> None:
        """Replace a dead worker; its old task pipe (and any torn frame
        the SIGKILL left in it) is discarded."""
        dead = self._workers[worker_id]
        if dead is not None:
            dead.join(timeout=1.0)
        try:
            self._task_conns[worker_id].close()
        except OSError:
            pass
        self.worker_restarts += 1
        self._spawn_worker(worker_id)

    @property
    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes (fault-injection hook)."""
        return [p.pid for p in self._workers if p is not None and p.pid]

    def sync_weights(self, state: dict[str, np.ndarray]) -> None:
        """Load new network weights into every worker.

        Each worker loads *state*, clears its evaluation cache (cached
        evaluations came from the old weights) and recompiles its plan.
        Blocks until every worker has acknowledged, so the next round is
        guaranteed to evaluate with the new parameters; a worker that
        dies meanwhile, or is respawned later, starts on *state* too.
        No-op before :meth:`start` -- the fork will inherit the weights.
        A worker that fails to load *state* closes the farm and raises
        :class:`FarmError`.
        """
        if not self._started:
            return
        if self._closed:
            raise RuntimeError("farm is closed")
        if getattr(self.evaluator, "network", None) is None:
            raise FarmError("weight sync needs an evaluator with a network")
        self._weights = state
        pending: set[int] = set()
        for w in range(self.num_workers):
            try:
                self._task_conns[w].send(("weights", state))
                pending.add(w)
            except (BrokenPipeError, OSError):
                self._respawn_worker(w)
        error: str | None = None
        while pending:
            waitees = [self._task_conns[w] for w in pending]
            waitees += [self._workers[w].sentinel for w in pending]
            ready = set(wait(waitees))
            for w in list(pending):
                proc = self._workers[w]
                if self._task_conns[w] in ready and proc.is_alive():
                    try:
                        msg = self._task_conns[w].recv()
                    except (EOFError, OSError):
                        continue  # death handled via the sentinel below
                    if msg[0] == "synced":
                        pending.discard(w)
                    else:
                        error = msg[1]
                if not proc.is_alive():
                    pending.discard(w)
                    if error is None:
                        self._respawn_worker(w)
        if error is not None:
            self.close()
            raise FarmError(f"weight sync failed:\n{error}")

    def close(self) -> None:
        """Stop every worker process; idempotent."""
        if self._closed:
            return
        self._closed = True
        if not self._started:
            return
        for w, proc in enumerate(self._workers):
            if proc is None:
                continue
            try:
                self._task_conns[w].send(None)
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
        for conn in self._task_conns:
            try:
                conn.close()
            except OSError:
                pass

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

        restarts_before = self.worker_restarts
        requeued_before = self.episodes_requeued

        queue: deque[tuple[int, np.random.Generator, RetryBudget]] = deque(
            (i, rng, RetryBudget(self.max_retries))
            for i, rng in enumerate(episode_rngs)
        )
        results: dict[int, EpisodeResult] = {}
        # summed (cache hits, cache misses, evaluator calls, rows)
        totals = np.zeros(4, dtype=np.int64)
        busy: dict[int, tuple[int, np.random.Generator, RetryBudget]] = {}
        idle = set(range(self.num_workers))
        last_error: str | None = None

        t0 = self.clock.perf_counter()
        while len(results) < len(episode_rngs):
            while idle and queue:
                w = idle.pop()
                task = queue.popleft()
                busy[w] = task
                try:
                    self._task_conns[w].send(("episode", task[0], task[1]))
                except (BrokenPipeError, OSError):
                    # died idle: the episode never started, so it goes
                    # back unspent and the sentinel path respawns w
                    queue.appendleft(busy.pop(w))
            waitees: list = [self._task_conns[w] for w in busy]
            waitees += [p.sentinel for p in self._workers if p is not None]
            ready = set(wait(waitees, timeout=1.0))

            # results first: a worker that finished and *then* died must
            # not have its completed episode requeued
            for w in list(busy):
                conn = self._task_conns[w]
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
                    _, idx, episode, counts = msg
                    results[idx] = episode
                    totals += counts
                    del busy[w]
                    idle.add(w)
                elif msg[0] == "error":
                    last_error = msg[1]
                    # the worker re-raises and dies; the sentinel path
                    # requeues (or fails the round on budget exhaustion)

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
        wall = self.clock.perf_counter() - t0

        hits, misses, calls, rows = (int(t) for t in totals)
        ordered = [results[i] for i in range(len(episode_rngs))]
        stats = FarmStats(
            games=len(ordered),
            moves=sum(r.moves for r in ordered),
            playouts=sum(r.total_playouts for r in ordered),
            wall_time=wall,
            eval_requests=rows,
            eval_batches=calls,
            mean_batch_occupancy=rows / calls if calls else 0.0,
            partial_flushes=0,
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
