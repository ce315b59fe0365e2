"""Cross-game batched self-play engine.

The paper's accelerator queue (Section 3.3) accumulates leaf-evaluation
requests and flushes them as one batched DNN inference -- but fed by a
single game's search tree, occupancy is capped by that tree's worker
count and the accelerator starves between moves.  This module multiplexes
*G concurrent games* through one shared queue:

    game 0 --search--> |                         |
    game 1 --search--> | EvaluationCache (LRU)   |        batched
       ...             |   miss ->               | -->  DNN forward
    game G-1 -------->  |  EvaluationBus          |     (one stacked array)

so batch occupancy scales with G rather than per-tree parallelism, and a
state any game has already evaluated is never sent to the accelerator
again.  Each game keeps running the unmodified search algorithm -- the
engine only changes *where* leaf evaluations execute, preserving the
Section-3.2 program-template property.

The queue is an :class:`~repro.serving.evalbus.EvaluationBus` (the
match gateway batches its sessions' leaves on one master thread
instead).  Every game registers as one busy search for the length of
its episode, so the flush threshold is the number of games still playing:
as games finish, the tail of the round is not condemned to linger stalls
on every request, and the last game alone flushes every leaf inline.

All of the above runs on a thread pool sharing one GIL.  The games hand
the GIL and each fused batch to each other at every leaf, so they never
run in parallel: where placement is observable and more than one CPU is
usable, the pool's threads are pinned to the CPU the thread that builds
the pool runs on (:func:`~repro.serving.evalbus.colocating_initializer`),
so a hand-off between games stays on one core.  No other thread is
pinned.  For true
multi-core scale-out, ``backend="process"`` keeps the same ``play_round``
surface but delegates the round to a :class:`repro.farm.farm.SelfPlayFarm`:
forked worker processes that each evaluate their own leaves through their
own LRU cache, under restart-and-requeue supervision.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.games.base import Game
from repro.mcts.evaluation import Evaluator
from repro.mcts.serial import SerialMCTS
from repro.nn.infer import ensure_plan
from repro.serving.cache import CachingEvaluator, EvaluationCache
from repro.serving.evalbus import (
    BusEvaluator,
    EvaluationBus,
    colocating_initializer,
)
from repro.training.selfplay import EpisodeResult, play_episode
from repro.utils.clock import WALL_CLOCK, Clock
from repro.utils.rng import new_rng, spawn_rngs

__all__ = ["LatencyTracker", "ServingStats", "MultiGameSelfPlayEngine"]


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask under a cpuset or
    ``taskset``), falling back to the host count where unobservable."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class LatencyTracker:
    """Thread-safe per-request latency reservoir with percentile summaries.

    Keeps the most recent *window* samples in a ring buffer (plus running
    count/total over the full lifetime), which bounds memory while the
    percentiles track current behaviour -- the serving-telemetry trade-off
    every production latency histogram makes.  Used for per-move search
    latency in both the self-play engine and the match gateway.

    *clock* feeds :meth:`measure`; recording pre-computed durations via
    :meth:`record` never reads it.  Defaults to wall time.
    """

    def __init__(self, window: int = 4096, clock: Clock | None = None) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self._window = window
        self._samples: list[float] = []
        self._next = 0  # ring cursor once the window is full
        self._lock = threading.Lock()
        self.clock: Clock = WALL_CLOCK if clock is None else clock
        self.count = 0
        self.total = 0.0

    @contextmanager
    def measure(self):
        """Record the body's duration (by this tracker's clock) on exit."""
        t0 = self.clock.perf_counter()
        try:
            yield self
        finally:
            self.record(self.clock.perf_counter() - t0)

    def record(self, seconds: float) -> None:
        with self._lock:
            self.count += 1
            self.total += seconds
            if len(self._samples) < self._window:
                self._samples.append(seconds)
            else:
                self._samples[self._next] = seconds
                self._next = (self._next + 1) % self._window

    def percentile(self, q: float) -> float:
        """Latency (seconds) at quantile *q* in [0, 100] over the window;
        0.0 before any sample."""
        with self._lock:
            if not self._samples:
                return 0.0
            return float(np.percentile(self._samples, q))

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def summary_ms(self) -> dict:
        """p50/p95/p99/mean in milliseconds plus the sample count."""
        return {
            "p50_ms": round(self.percentile(50) * 1e3, 3),
            "p95_ms": round(self.percentile(95) * 1e3, 3),
            "p99_ms": round(self.percentile(99) * 1e3, 3),
            "mean_ms": round(self.mean * 1e3, 3),
            "count": self.count,
        }

#: builds one game's search scheme around the shared (cached, batched)
#: evaluator; anything with ``get_action_prior(game, num_playouts)`` works
SchemeFactory = Callable[[Evaluator, np.random.Generator], object]


class _TimedScheme:
    """Forwarding wrapper that times each ``get_action_prior`` call into a
    shared :class:`LatencyTracker` (the engine's per-move latency axis)."""

    __slots__ = ("_scheme", "_tracker")

    def __init__(self, scheme, tracker: LatencyTracker) -> None:
        self._scheme = scheme
        self._tracker = tracker

    def get_action_prior(self, game: Game, num_playouts) -> np.ndarray:
        with self._tracker.measure():
            return self._scheme.get_action_prior(game, num_playouts)


@dataclass(frozen=True)
class ServingStats:
    """Round-level serving telemetry (what the throughput benchmark reports)."""

    games: int
    moves: int
    playouts: int
    wall_time: float
    eval_requests: int
    eval_batches: int
    mean_batch_occupancy: float
    partial_flushes: int
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    #: partial flushes forced specifically by the bus's aged-oldest
    #: linger window (a subset of ``partial_flushes``; high counts mean
    #: games are too few or too slow to fill the threshold).  Default 0:
    #: the process farm's workers evaluate their own leaves, unbatched.
    linger_flushes: int = 0
    #: per-move search latency percentiles over the round (milliseconds);
    #: 0.0 where untracked (the process backend runs moves in worker
    #: processes and reports throughput-level stats only)
    move_latency_p50_ms: float = 0.0
    move_latency_p95_ms: float = 0.0
    move_latency_p99_ms: float = 0.0

    @property
    def games_per_sec(self) -> float:
        return self.games / self.wall_time if self.wall_time > 0 else 0.0

    @property
    def moves_per_sec(self) -> float:
        return self.moves / self.wall_time if self.wall_time > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "games": self.games,
            "moves": self.moves,
            "playouts": self.playouts,
            "wall_time": round(self.wall_time, 4),
            "games_per_sec": round(self.games_per_sec, 3),
            "moves_per_sec": round(self.moves_per_sec, 3),
            "eval_requests": self.eval_requests,
            "eval_batches": self.eval_batches,
            "mean_batch_occupancy": round(self.mean_batch_occupancy, 3),
            "partial_flushes": self.partial_flushes,
            "linger_flushes": self.linger_flushes,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "move_latency_p50_ms": round(self.move_latency_p50_ms, 3),
            "move_latency_p95_ms": round(self.move_latency_p95_ms, 3),
            "move_latency_p99_ms": round(self.move_latency_p99_ms, 3),
        }


class MultiGameSelfPlayEngine:
    """Run G self-play games concurrently over one shared evaluation bus.

    Parameters
    ----------
    game : template state; each concurrent game plays from a fresh copy.
    evaluator : the backing accelerator evaluator (its ``evaluate_batch``
        receives the accumulated cross-game batches).
    num_games : G, the number of games multiplexed per round.
    num_playouts : per-move search budget of every game.
    scheme_factory : builds each game's search scheme around the shared
        evaluator; defaults to :class:`SerialMCTS` on its array tree
        (each game's tree is single-threaded, so the vectorised backend
        is exact), one outstanding leaf evaluation per game, so batch
        occupancy ~ number of active games.  The bus flushes at the
        live-game headcount, caps a batch at ``num_games`` and lingers
        its default window for batch-mates.
    cache_capacity : LRU evaluation-cache size (states); under the
        process backend, the size of each worker's own cache.
    backend : ``"thread"`` (default) runs the G games on a thread pool
        over the in-process bus + LRU cache; ``"process"`` delegates to
        a :class:`repro.farm.farm.SelfPlayFarm` -- N forked worker
        processes, each playing whole episodes and evaluating its own
        leaves through its own LRU cache, under restart-and-requeue
        supervision -- for true multi-core scale-out.  :attr:`cache` is
        then ``None`` (the caches live in the workers; the weight sync
        at each round's start clears them when the weights changed).
        Episodes stay seeded per-game from the engine rng, so both
        backends produce identical transcripts for a deterministic
        evaluator.
    num_workers : process backend only -- worker-process count (defaults
        to ``min(num_games, usable CPUs)``, the CPUs this process may run
        on, not the host's count); the farm's workers pull the G
        episodes one at a time and re-run an episode whose worker died
        up to the farm's default retry budget.

    Use :meth:`play_round` for episodes + stats, or :meth:`close` /
    context-manager form to release the game-thread pool (and, for the
    process backend, the farm's worker processes).
    """

    def __init__(
        self,
        game: Game,
        evaluator: Evaluator,
        num_games: int = 8,
        num_playouts: int = 50,
        scheme_factory: SchemeFactory | None = None,
        cache_capacity: int = 8192,
        temperature_moves: int = 8,
        temperature: float = 1.0,
        max_moves: int | None = None,
        rng: np.random.Generator | int | None = None,
        backend: str = "thread",
        num_workers: int | None = None,
        clock: Clock | None = None,
    ) -> None:
        if num_games < 1:
            raise ValueError("num_games must be >= 1")
        if num_playouts < 1:
            raise ValueError("num_playouts must be >= 1")
        if backend not in ("thread", "process"):
            raise ValueError(f"unknown backend {backend!r}")
        self.game = game
        self.backend = backend
        self.num_games = num_games
        self.num_playouts = num_playouts
        self.scheme_factory = scheme_factory or (
            lambda ev, game_rng: SerialMCTS(ev, rng=game_rng)
        )
        self.temperature_moves = temperature_moves
        self.temperature = temperature
        self.max_moves = max_moves
        self.rng = new_rng(rng)
        self.clock: Clock = WALL_CLOCK if clock is None else clock
        # compile the fused inference plan up front (no-op for network-less
        # evaluators) so the round's first batch never pays plan
        # compilation; the farm's workers inherit the plan at fork and
        # confirm it before their first leaf
        ensure_plan(getattr(evaluator, "network", None))

        self._farm = None
        if backend == "process":
            from repro.farm import SelfPlayFarm

            self._farm = SelfPlayFarm(
                game,
                evaluator,
                num_workers=num_workers or min(num_games, _usable_cpus()),
                num_playouts=num_playouts,
                scheme_factory=self.scheme_factory,
                temperature_moves=temperature_moves,
                temperature=temperature,
                max_moves=max_moves,
                cache_capacity=cache_capacity,
                clock=self.clock,
            )
            # the caches live in the farm's workers, and the weight sync
            # clears them; there is no in-process bus or cache to expose.
            #: ``weights_version`` of the evaluator's network at the last
            #: sync (or fork); a round syncs only when it has moved
            self._synced_version: int | None = None
            self.cache: EvaluationCache | None = None
            self.bus = None
            self.shared_evaluator = None
            self._pool = None
            return

        self.cache = EvaluationCache(cache_capacity)
        #: the shared batching queue all games feed
        self.bus: EvaluationBus | None = EvaluationBus(
            evaluator, max_batch=num_games, clock=self.clock
        )
        #: what each game's scheme actually evaluates against
        self.shared_evaluator: Evaluator = CachingEvaluator(
            BusEvaluator(self.bus), self.cache
        )
        self._pool: ThreadPoolExecutor | None = None
        self._round_latency = LatencyTracker(clock=self.clock)

    # -- lifecycle -----------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.num_games,
                thread_name_prefix="selfplay-game",
                initializer=colocating_initializer(),
            )
        return self._pool

    def close(self) -> None:
        if self._farm is not None:
            self._farm.close()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "MultiGameSelfPlayEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- play ---------------------------------------------------------------
    def _play_one(self, game_rng: np.random.Generator) -> EpisodeResult:
        try:
            scheme = _TimedScheme(
                self.scheme_factory(self.shared_evaluator, game_rng),
                self._round_latency,
            )
            return play_episode(
                self.game,
                scheme,
                self.num_playouts,
                temperature_moves=self.temperature_moves,
                temperature=self.temperature,
                max_moves=self.max_moves,
                rng=game_rng,
            )
        finally:
            # lower the headcount: the games still playing never wait on
            # this one, and any backlog they already meet flushes now
            self.bus.end_search()

    def play_round(self) -> tuple[list[EpisodeResult], ServingStats]:
        """Play ``num_games`` episodes concurrently; returns them with the
        round's serving statistics (throughput, occupancy, cache rates).

        Under ``backend="process"`` the round runs on the farm and the
        returned stats are a :class:`repro.farm.farm.FarmStats` (a
        superset of :class:`ServingStats` that adds supervision fields).
        """
        if self._farm is not None:
            self._sync_farm_weights()
            rngs = spawn_rngs(self.rng, self.num_games)
            return self._farm.run_round(rngs)
        pool = self._ensure_pool()
        rngs = spawn_rngs(self.rng, self.num_games)
        base = self.bus.stats()
        base_hits = self.cache.hits
        base_misses = self.cache.misses
        # every game is in flight from the start: the threshold is the
        # full headcount before the first leaf arrives
        for _ in rngs:
            self.bus.begin_search()
        # fresh tracker per round: the stats below are per-round deltas
        self._round_latency = LatencyTracker(clock=self.clock)

        t0 = self.clock.perf_counter()
        results = list(pool.map(self._play_one, rngs))
        wall = self.clock.perf_counter() - t0

        bus = self.bus.stats()
        requests = bus.requests - base.requests
        batches = bus.batches - base.batches
        full = bus.threshold_flushes - base.threshold_flushes
        hits = self.cache.hits - base_hits
        misses = self.cache.misses - base_misses
        stats = ServingStats(
            games=len(results),
            moves=sum(r.moves for r in results),
            playouts=sum(r.total_playouts for r in results),
            wall_time=wall,
            eval_requests=requests,
            eval_batches=batches,
            mean_batch_occupancy=requests / batches if batches else 0.0,
            partial_flushes=batches - full,
            linger_flushes=bus.linger_flushes - base.linger_flushes,
            cache_hits=hits,
            cache_misses=misses,
            cache_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
            move_latency_p50_ms=self._round_latency.percentile(50) * 1e3,
            move_latency_p95_ms=self._round_latency.percentile(95) * 1e3,
            move_latency_p99_ms=self._round_latency.percentile(99) * 1e3,
        )
        return results, stats

    def _sync_farm_weights(self) -> None:
        """Propagate post-SGD network weights into the farm's workers.

        Each worker holds a *forked copy* of the evaluator, so in-place
        weight updates in this process (the training loop's SGD stage)
        would otherwise go unseen; the sync also clears the workers'
        caches, whose evaluations came from the old weights.  Only runs
        when the network's ``weights_version`` moved since the last sync,
        so rounds without training keep their warm caches.  A no-op
        before the farm's first round (the fork inherits current weights)
        and for network-less evaluators.
        """
        network = getattr(self._farm.evaluator, "network", None)
        version = getattr(network, "weights_version", None)
        if version is None or version == self._synced_version:
            return
        self._farm.sync_weights(network.state_dict())
        self._synced_version = version
