"""Async match-serving gateway: game sessions under wall-clock deadlines.

PRs 1-4 built *throughput* -- batched engines, array trees, the process
farm, fused inference -- with nowhere to point it: every entry point
budgeted search by playout count and served nobody.  This module is the
request-facing front door the ROADMAP's "heavy traffic" north star
needs:

- **Sessions.**  The gateway owns game sessions (create / move / resign
  / expire) with monotonic ids, per-session move serialisation, and idle
  garbage collection, multiplexing many concurrent sessions onto one
  evaluator backend.
- **Deadlines.**  Every move request carries a wall-clock allowance; the
  remaining budget (after queueing) is threaded into the anytime search
  as a :class:`~repro.mcts.budget.SearchBudget`, so the reply is the
  best prior accumulated within "best move in D milliseconds" -- the
  question the paper's Figure 4/5 latency benchmarks are really asking.
- **Backpressure.**  A bounded in-flight limit rejects excess move
  requests 503-style instead of queueing unboundedly, and
  :class:`GatewayStats` tracks p50/p95/p99 move latency, deadline
  misses, and rejection counts.
- **One search master.**  Each session keeps a warm
  :class:`~repro.mcts.reuse.TreeReuseMCTS` tree, and each move's search
  is a program that yields the leaves it needs evaluated.  One master
  thread (:class:`~repro.serving.master.SearchMaster`) steps every live
  program against the shared LRU evaluation cache and sends each
  round's misses to the fused-inference network as one batch (or one
  call per leaf with the bus off).  To serve on more than one core, run
  several gateways as :class:`~repro.cluster.shard.ProcessShard`
  processes behind a :class:`~repro.cluster.router.ShardRouter`.

A thin newline-delimited-JSON TCP layer (:class:`GatewayServer` /
:class:`GatewayClient`, pure stdlib asyncio) exposes the same surface to
external clients and the load harness; the in-process async API is what
the test suites drive.
"""

from __future__ import annotations

import asyncio
import enum
import json
import os
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.games import make_game
from repro.games.base import Game
from repro.mcts.budget import SearchBudget
from repro.mcts.evaluation import Evaluator, UniformEvaluator
from repro.mcts.reuse import TreeReuseMCTS
from repro.mcts.search import action_prior_from_root
from repro.nn.infer import ensure_plan
from repro.serving.cache import CachingEvaluator, EvaluationCache
from repro.serving.engine import LatencyTracker
from repro.serving.master import BatchCounter, SearchMaster
from repro.storage import SessionJournal, SessionReplay, replay_sessions
from repro.utils.clock import (
    WALL_CLOCK,
    Clock,
    ClockTimeout,
    clock_timeout,
)
from repro.utils.rng import new_rng

__all__ = [
    "GatewayError",
    "GatewayConnectionError",
    "SessionNotFound",
    "GatewayOverloaded",
    "InvalidMove",
    "SessionStatus",
    "MoveReply",
    "GatewayStats",
    "MatchGateway",
    "GatewayServer",
    "GatewayClient",
    "build_game",
]


# -- errors (wire codes follow HTTP conventions) ------------------------------
class GatewayError(Exception):
    """Base gateway failure; :attr:`code` is the wire/status code."""

    code = 400


class SessionNotFound(GatewayError):
    """Unknown, finished, or expired session id."""

    code = 404


class GatewayOverloaded(GatewayError):
    """Admission control rejected the request (503-style backpressure)."""

    code = 503


class InvalidMove(GatewayError):
    """The client's action is illegal in the session's current state.

    Carries its own wire code (422, unprocessable) so remote callers --
    the cluster router above all -- can re-raise the *typed* error
    instead of guessing from a generic 400's message text.
    """

    code = 422


class GatewayConnectionError(GatewayError, ConnectionError):
    """Transport-level failure talking to a gateway: torn reply line,
    peer disconnect mid-request, connect/read timeout.

    The defining property is *ambiguity* -- the caller cannot know
    whether the request was applied before the connection died, so this
    (unlike the wire-coded :class:`GatewayError` replies) is the one
    failure a client may retry.  Pair retries with an idempotent request
    id (``rid`` on the ``move`` op) and a retried move is answered from
    the gateway's reply cache instead of being applied twice.

    Subclasses ``ConnectionError`` so pre-existing ``except
    ConnectionError`` call sites keep working.
    """

    code = 502


def build_game(name: str, size: int | None = None) -> Game:
    """The shared :func:`repro.games.make_game` registry behind a
    wire-safe error: unknown names become a 400 reply, not a 500.

    The gateway defaults Gomoku to 9x9 -- a 15x15 search rarely fits an
    interactive deadline; ask for ``size=15`` explicitly to serve the
    paper's board.
    """
    if name == "gomoku" and size is None:
        size = 9
    try:
        return make_game(name, size)
    except ValueError as exc:
        raise GatewayError(str(exc)) from exc


_WIRE_GAME_NAMES = {
    "TicTacToe": "tictactoe",
    "ConnectFour": "connect4",
    "Gomoku": "gomoku",
}


def game_wire_name(game: Game) -> tuple[str | None, int | None]:
    """Invert :func:`build_game` for journaling: ``(name, size)`` such
    that ``build_game(name, size)`` rebuilds an equivalent fresh game, or
    ``(None, None)`` for games outside the wire registry (synthetic
    fixtures) -- their sessions are served but not recoverable."""
    name = _WIRE_GAME_NAMES.get(type(game).__name__)
    if name == "gomoku":
        return name, int(game.board_shape[0])
    return name, None


class SessionStatus(str, enum.Enum):
    ACTIVE = "active"
    FINISHED = "finished"
    RESIGNED = "resigned"
    EXPIRED = "expired"
    DRAINED = "drained"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class _Session:
    """One hosted match: game state + a warm search tree."""

    __slots__ = (
        "session_id",
        "game",
        "agent",
        "status",
        "created_at",
        "last_active",
        "moves",
        "history",
        "lock",
    )

    def __init__(
        self,
        session_id: int,
        game: Game,
        agent: TreeReuseMCTS,
        now: float,
        history: list[int] | None = None,
    ) -> None:
        self.session_id = session_id
        self.game = game
        self.agent = agent
        self.status = SessionStatus.ACTIVE
        self.created_at = now
        self.last_active = now
        self.moves = len(history) if history else 0
        # every action applied to the game, client and engine alike --
        # the replay script a drained session is restored from
        self.history: list[int] = list(history) if history else []
        self.lock = asyncio.Lock()


@dataclass(frozen=True)
class MoveReply:
    """One served move: what the engine played and how long it took."""

    session_id: int
    engine_action: int | None  # None when the client's move ended the game
    prior: np.ndarray | None  # normalised root prior behind engine_action
    done: bool
    winner: int | None  # +1 / -1 / 0 once done, else None
    status: SessionStatus
    latency_ms: float
    deadline_ms: float
    move_number: int


@dataclass(frozen=True)
class GatewayStats:
    """Gateway-lifetime serving telemetry (the request-facing counterpart
    of the self-play round's :class:`~repro.serving.engine.ServingStats`)."""

    sessions_created: int
    sessions_active: int
    sessions_finished: int
    sessions_resigned: int
    sessions_expired: int
    moves_served: int
    rejected: int
    deadline_misses: int
    inflight: int
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    # cluster-era fields (defaults keep single-gateway callers unchanged)
    sessions_drained: int = 0
    sessions_restored: int = 0
    deduped_replies: int = 0
    drain_rejected: int = 0
    draining: bool = False
    shard_id: str | None = None
    weights_version: int | None = None
    # evaluation-bus fields: the rows and calls the bus-on gateway sent to
    # its evaluator.  Nothing lingers any more; both flush counts stay 0.
    bus_enabled: bool = False
    bus_requests: int = 0
    bus_batches: int = 0
    bus_occupancy: float = 0.0
    bus_deadline_flushes: int = 0
    bus_linger_flushes: int = 0
    # durable-state fields (zero/False when journaling is off, so
    # journal-less gateways and old stats consumers are unchanged)
    journal_enabled: bool = False
    journal_fsync: str | None = None
    journal_records: int = 0
    journal_errors: int = 0
    journal_recovered: int = 0
    journal_unrecoverable: int = 0

    def as_dict(self) -> dict:
        return {
            "sessions_created": self.sessions_created,
            "sessions_active": self.sessions_active,
            "sessions_finished": self.sessions_finished,
            "sessions_resigned": self.sessions_resigned,
            "sessions_expired": self.sessions_expired,
            "sessions_drained": self.sessions_drained,
            "sessions_restored": self.sessions_restored,
            "moves_served": self.moves_served,
            "rejected": self.rejected,
            "drain_rejected": self.drain_rejected,
            "deadline_misses": self.deadline_misses,
            "deduped_replies": self.deduped_replies,
            "inflight": self.inflight,
            "draining": self.draining,
            "shard_id": self.shard_id,
            "weights_version": self.weights_version,
            "latency_p50_ms": round(self.latency_p50_ms, 3),
            "latency_p95_ms": round(self.latency_p95_ms, 3),
            "latency_p99_ms": round(self.latency_p99_ms, 3),
            "latency_mean_ms": round(self.latency_mean_ms, 3),
            "bus_enabled": self.bus_enabled,
            "bus_requests": self.bus_requests,
            "bus_batches": self.bus_batches,
            "bus_occupancy": round(self.bus_occupancy, 3),
            "bus_deadline_flushes": self.bus_deadline_flushes,
            "bus_linger_flushes": self.bus_linger_flushes,
            "journal_enabled": self.journal_enabled,
            "journal_fsync": self.journal_fsync,
            "journal_records": self.journal_records,
            "journal_errors": self.journal_errors,
            "journal_recovered": self.journal_recovered,
            "journal_unrecoverable": self.journal_unrecoverable,
        }


class MatchGateway:
    """Asyncio gateway hosting concurrent deadline-budgeted match sessions.

    Parameters
    ----------
    evaluator : leaf evaluator behind every session's search (defaults to
        :class:`~repro.mcts.evaluation.UniformEvaluator` -- tests and
        demos; serve a real model by passing a ``NetworkEvaluator``).
    backend : ``"thread"``, the only value accepted: one master thread
        steps every search over the shared cached evaluator with warm
        per-session trees.  To serve on more cores, shard gateways
        across processes (:mod:`repro.cluster`).
    workers : searches stepped at once; later moves wait in the
        master's queue.
    deadline_ms : default per-move wall-clock allowance; each request may
        override it.
    num_playouts : per-move playout cap -- search returns at the cap or
        the deadline, whichever binds first.
    max_inflight : concurrent move computations admitted before requests
        are rejected 503-style (defaults to ``2 * workers``).
    max_sessions : active-session cap; session creation beyond it is
        rejected with :class:`GatewayOverloaded`.
    idle_timeout_s : sessions idle longer than this are expired by the
        GC sweep (:meth:`expire_idle`, run every *gc_interval_s* by the
        background task :meth:`start` spawns).
    game_template : when the evaluator only fits one game (a network is
        shaped for specific planes/actions), pass the game it was built
        for and session creation rejects mismatched requests with a 400
        instead of admitting sessions whose every move would 500.
        ``None`` (the default) accepts any game -- correct for
        shape-agnostic evaluators like the uniform one.
    deadline_tolerance_ms : slack before a served move counts as a
        deadline miss in :class:`GatewayStats` (queueing, scheduling and
        one in-flight leaf evaluation live inside this).
    clock : time source for everything the gateway stamps or schedules --
        deadline arming, per-move latency, session ``last_active``, the
        idle-GC sweep cadence.  ``None`` (the default) is
        :data:`~repro.utils.clock.WALL_CLOCK`: production behaviour,
        bit-identical to the pre-seam gateway.  Virtual-time tests
        inject a :class:`~repro.utils.clock.VirtualClock`.
    executor : runs each search whole, one leaf at a time, instead of
        the master.  The simulation harness injects an inline executor so
        virtual time cannot advance mid-search.  Injected executors are
        *borrowed*: :meth:`aclose` does not shut them down.
    evalbus : fuse the leaves that concurrent sessions have pending into
        one ``evaluate_batch`` call per master round (the default).
        ``False`` evaluates each leaf alone, in order -- kept for A/B
        benchmarks; the two produce identical transcripts.
    shard_id : cluster-assigned label stamped into stats / ``version``
        replies so fleet telemetry can attribute numbers to shards
        (``None`` for a standalone gateway).
    reply_cache_size : completed rid-tagged move replies retained for
        retry dedupe (see the ``request_id`` parameter of
        :meth:`play_move`).
    journal_dir : directory for a durable per-session move journal
        (``None``, the default, journals nothing -- behaviour is then
        bit-identical to a journal-less gateway).  Every admission, every
        completed move (with its idempotency rid and reply essentials)
        and every close is appended as a checksummed WAL record;
        :meth:`start` on a fresh gateway pointed at the same directory
        replays the log and re-admits every session that was live at the
        crash, at its exact position, with its original id.  IO failures
        (ENOSPC above all) never take serving down: journaling degrades
        to a no-op and ``journal_errors`` surfaces in stats.
    journal_fsync : durability policy for the journal -- ``"per-move"``
        (fsync every record: survives power loss), ``"batched"`` (flush
        every record, fsync at most every 50 ms: survives SIGKILL,
        bounds power-loss exposure, keeps fsync out of the latency
        tail), or ``"off"`` (flush only: survives clean exits).
    """

    def __init__(
        self,
        evaluator: Evaluator | None = None,
        *,
        backend: str = "thread",
        workers: int = 4,
        deadline_ms: float = 200.0,
        num_playouts: int = 256,
        max_inflight: int | None = None,
        max_sessions: int = 512,
        idle_timeout_s: float = 300.0,
        gc_interval_s: float = 5.0,
        deadline_tolerance_ms: float = 50.0,
        game_template: Game | None = None,
        c_puct: float = 5.0,
        cache_capacity: int = 8192,
        seed: int | np.random.Generator | None = 0,
        clock: Clock | None = None,
        executor: Executor | None = None,
        evalbus: bool = True,
        shard_id: str | None = None,
        reply_cache_size: int = 1024,
        journal_dir: str | os.PathLike | None = None,
        journal_fsync: str = "batched",
    ) -> None:
        if backend != "thread":
            raise ValueError(f"unknown backend {backend!r}")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        if num_playouts < 1:
            raise ValueError("num_playouts must be >= 1")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.evaluator = evaluator or UniformEvaluator()
        self.workers = workers
        self.deadline_ms = deadline_ms
        self.num_playouts = num_playouts
        self.max_inflight = 2 * workers if max_inflight is None else max_inflight
        self.max_sessions = max_sessions
        self.idle_timeout_s = idle_timeout_s
        self.gc_interval_s = gc_interval_s
        self.deadline_tolerance_ms = deadline_tolerance_ms
        self.game_template = game_template
        self.c_puct = c_puct
        self.rng = new_rng(seed)
        self.clock: Clock = WALL_CLOCK if clock is None else clock
        self.latency = LatencyTracker(clock=self.clock)
        self.shard_id = shard_id
        if reply_cache_size < 1:
            raise ValueError("reply_cache_size must be >= 1")

        self._sessions: dict[int, _Session] = {}
        self._next_session_id = 1  # monotonic, never reused
        self._inflight = 0
        self._closed = False
        self._draining = False
        self._gc_task: asyncio.Task | None = None

        # idempotent-move bookkeeping: completed replies keyed by
        # (session, rid) in insertion order (a bounded FIFO cache), plus
        # the futures of rid-tagged moves still executing, so a retry
        # racing its original awaits the one in flight instead of
        # re-applying the move
        self._reply_cache: dict[tuple[int, str], MoveReply] = {}
        self._reply_cache_size = reply_cache_size
        self._inflight_rids: dict[tuple[int, str], asyncio.Future] = {}

        # durable per-session move journal (None = journaling off).  A
        # broken journal *directory* raises here -- that is a config
        # error at startup; IO failures later merely degrade.
        self._journal: SessionJournal | None = None
        self._journal_recovered = 0
        self._journal_unrecoverable = 0
        self._journal_recovery_done = False
        self._journal_muted = False  # True while recovery re-admits
        # per-move records are appended off the event loop (see
        # _play_move_locked).  An injected executor takes them too, so
        # under the simulation harness's inline one nothing runs off-loop.
        self._journal_writes: Executor | None = None
        if journal_dir is not None:
            self._journal = SessionJournal(journal_dir, fsync=journal_fsync)
            self._journal_writes = executor if executor is not None else (
                ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="gateway-journal"
                )
            )

        # lifetime counters behind GatewayStats
        self._created = 0
        self._finished = 0
        self._resigned = 0
        self._expired = 0
        self._drained = 0
        self._restored = 0
        self._moves_served = 0
        self._rejected = 0
        self._drain_rejected = 0
        self._deduped = 0
        self._deadline_misses = 0

        ensure_plan(getattr(self.evaluator, "network", None))
        self._bus: BatchCounter | None = None
        base: Evaluator = self.evaluator
        if evalbus:
            base = self._bus = BatchCounter(self.evaluator)
        # sessions share one LRU evaluation cache: a position any session
        # has evaluated never reaches the network again
        self._shared_evaluator = CachingEvaluator(
            base, EvaluationCache(cache_capacity)
        )
        self._executor = executor
        self._master: SearchMaster | None = None
        if executor is None:
            self._master = SearchMaster(
                base, self._shared_evaluator.cache, workers=workers, fuse=evalbus
            )

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> "MatchGateway":
        """Recover journaled sessions (first call), then spawn the
        idle-GC background task (idempotent)."""
        if self._journal is not None and not self._journal_recovery_done:
            self._recover_from_journal()
        if self._gc_task is None:
            self._gc_task = asyncio.create_task(self._gc_loop())
        return self

    async def aclose(self) -> None:
        self._closed = True
        if self._gc_task is not None:
            self._gc_task.cancel()
            try:
                await self._gc_task
            except asyncio.CancelledError:
                pass
            self._gc_task = None
        self._sessions.clear()
        # moves already handed to the master finish (or fail) first
        if self._master is not None:
            await self._master.aclose()
        if self._executor is None and self._journal_writes is not None:
            self._journal_writes.shutdown(wait=True)
        if self._journal is not None:
            self._journal.close()

    async def __aenter__(self) -> "MatchGateway":
        return await self.start()

    async def __aexit__(self, *exc: object) -> None:
        await self.aclose()

    async def _gc_loop(self) -> None:
        while True:
            await self.clock.sleep(self.gc_interval_s)
            self.expire_idle()

    def expire_idle(self, now: float | None = None) -> list[int]:
        """Expire sessions idle past ``idle_timeout_s``; returns their ids."""
        now = self.clock.monotonic() if now is None else now
        stale = [
            s
            for s in list(self._sessions.values())
            # a held lock means a move is in flight right now -- not idle,
            # however stale last_active looks
            if now - s.last_active > self.idle_timeout_s and not s.lock.locked()
        ]
        for session in stale:
            session.status = SessionStatus.EXPIRED
            self._sessions.pop(session.session_id, None)
            self._expired += 1
            if self._journal is not None:
                self._journal.close_session(session.session_id, "expired")
        return [s.session_id for s in stale]

    # -- draining (cluster control plane) -------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Stop admitting new or restored sessions (idempotent).  Moves on
        existing sessions keep serving -- this is the *drain-light* state a
        weight rollout holds a shard in during its recompile window."""
        self._draining = True

    def resume_admission(self) -> None:
        self._draining = False

    async def export_sessions(self) -> list[dict]:
        """Full drain: close every active session and hand back its replay
        script (``{"session", "moves", "actions"}`` rows).

        Each session's lock is taken first, so an in-flight move completes
        (and lands in the history) before the session is exported -- the
        "in-flight moves finish, then the session relocates" half of the
        cluster's drain contract.  Exported sessions read as
        :attr:`SessionStatus.DRAINED` and count into ``sessions_drained``.
        """
        exported: list[dict] = []
        for session in list(self._sessions.values()):
            async with session.lock:
                if session.status is not SessionStatus.ACTIVE:
                    continue
                session.status = SessionStatus.DRAINED
                self._sessions.pop(session.session_id, None)
                self._drained += 1
                if self._journal is not None:
                    # a drained session relocates; a crash here must not
                    # resurrect it on this shard
                    self._journal.close_session(session.session_id, "drained")
                name, size = game_wire_name(session.game)
                exported.append(
                    {
                        "session": session.session_id,
                        "moves": session.moves,
                        "actions": list(session.history),
                        "game": name,
                        "size": size,
                    }
                )
        return exported

    def journal_shutdown(self, exported: list[dict]) -> bool:
        """Persist *exported* rows (from :meth:`export_sessions`) as the
        journal's snapshot, so a restart recovers every one of them.

        This is the graceful-shutdown (SIGTERM) flow: export finishes
        in-flight moves and closes the sessions, then this compaction
        rewrites the log as one ``open``-with-history record per exported
        session -- superseding the ``drained`` closes export just wrote.
        Returns False when journaling is off or degraded.
        """
        if self._journal is None:
            return False
        replays = [
            SessionReplay(
                sid=int(row["session"]),
                game=row.get("game"),
                size=row.get("size"),
                history=[int(a) for a in row.get("actions", [])],
            )
            for row in exported
        ]
        ok = self._journal.snapshot(replays)
        self._journal.sync()
        return ok

    def load_weights(self, encoded_state: dict) -> int:
        """Install a new checkpoint (``load_weights`` control RPC).

        Decodes the :mod:`repro.utils.wire` payload and feeds it through
        ``load_state_dict``, which bumps ``weights_version`` -- the PR-4
        seam: the next fused evaluation lazily recompiles its plan from
        the new weights, atomically per process.  The shared evaluation
        cache is then cleared, so no search is answered from the old
        net's evaluations.  A search already running while the weights
        load is not covered: its leaves may mix both nets, and what it
        inserts into the cache after the clear may be the old net's.
        Returns the new version.  Raises a 400-coded error for
        evaluators without network weights (uniform) or malformed
        payloads.
        """
        network = getattr(self.evaluator, "network", None)
        if network is None:
            raise GatewayError(
                "this gateway's evaluator carries no network weights"
            )
        from repro.utils.wire import decode_state

        try:
            state = decode_state(encoded_state)
            network.load_state_dict(state)
        except (ValueError, KeyError, TypeError) as exc:
            raise GatewayError(f"bad weights payload: {exc}") from exc
        self._shared_evaluator.cache.clear()
        return int(network.weights_version)

    @property
    def weights_version(self) -> int | None:
        """The evaluator network's current weight version (``None`` for
        weightless evaluators)."""
        network = getattr(self.evaluator, "network", None)
        if network is None:
            return None
        return int(getattr(network, "weights_version", 0))

    @property
    def plan_version(self) -> int | None:
        """Weight version of the currently *compiled* fused plan -- lags
        :attr:`weights_version` inside the lazy-recompile window."""
        network = getattr(self.evaluator, "network", None)
        plan = getattr(network, "_plan", None)
        if plan is None:
            return None
        return int(plan.weights_version)

    # -- session management ---------------------------------------------------
    @property
    def session_count(self) -> int:
        return len(self._sessions)

    async def create_session(
        self, game: str | Game = "tictactoe", size: int | None = None
    ) -> int:
        """Open a match and return its (monotonic) session id."""
        self._check_admission()
        state = game.copy() if isinstance(game, Game) else build_game(game, size)
        return self._admit(state, history=None)

    async def restore_session(
        self,
        game: str | Game = "tictactoe",
        size: int | None = None,
        actions: list[int] | None = None,
    ) -> tuple[int, bool, int | None]:
        """Re-admit a session drained (or lost) elsewhere in the cluster.

        *actions* is the full move history of the original session; the
        game is replayed to the same position and a fresh session (new
        id, fresh search tree -- search statistics do not survive
        relocation, only game state) is admitted.  Returns ``(session_id,
        done, winner)``; when the replayed game is already terminal, no
        session is admitted and ``session_id`` is 0.
        """
        self._check_admission()
        state = game.copy() if isinstance(game, Game) else build_game(game, size)
        history = [int(a) for a in (actions or [])]
        for ply, action in enumerate(history):
            if state.is_terminal or not (
                0 <= action < state.action_size
                and bool(state.legal_mask()[action])
            ):
                raise GatewayError(
                    f"restore history is not a legal line: "
                    f"action {action} at ply {ply}"
                )
            state.step(action)
        if state.is_terminal:
            return 0, True, int(state.winner)
        session_id = self._admit(state, history=history)
        self._restored += 1
        return session_id, False, None

    def _check_admission(self) -> None:
        if self._closed:
            raise GatewayError("gateway is closed")
        if self._draining:
            self._drain_rejected += 1
            self._rejected += 1
            raise GatewayOverloaded("gateway is draining (shard rollout)")
        if len(self._sessions) >= self.max_sessions:
            self._rejected += 1
            raise GatewayOverloaded(
                f"session table full ({self.max_sessions} active)"
            )

    def _admit(
        self,
        state: Game,
        history: list[int] | None,
        session_id: int | None = None,
    ) -> int:
        template = self.game_template
        if template is not None and (
            type(state) is not type(template)
            or state.board_shape != template.board_shape
        ):
            raise GatewayError(
                f"this gateway serves {type(template).__name__} "
                f"{template.board_shape}; cannot host "
                f"{type(state).__name__} {state.board_shape}"
            )
        # a warm tree per session: the subtree behind each played move
        # carries over, so later moves start from reused statistics.  Each
        # session takes two children of the gateway rng and seeds its tree
        # with the first: session k's tree seed is child 2(k-1) of the
        # gateway seed, the numbering sessions have always had.
        agent = TreeReuseMCTS(
            self._shared_evaluator,
            c_puct=self.c_puct,
            rng=self.rng.spawn(2)[0],
        )
        if session_id is None:
            session_id = self._next_session_id
            self._next_session_id += 1
        else:
            # journal recovery re-admits under the *original* id; ids
            # stay monotonic and never reused across the restart
            self._next_session_id = max(self._next_session_id, session_id + 1)
        self._sessions[session_id] = _Session(
            session_id,
            state,
            agent,
            self.clock.monotonic(),
            history=history,
        )
        self._created += 1
        if self._journal is not None and not self._journal_muted:
            name, size = game_wire_name(state)
            self._journal.open_session(session_id, name, size, history or [])
        return session_id

    def _get(self, session_id: int) -> _Session:
        session = self._sessions.get(session_id)
        if session is None or session.status is not SessionStatus.ACTIVE:
            raise SessionNotFound(f"no active session {session_id}")
        return session

    async def resign(self, session_id: int) -> SessionStatus:
        """Client resigns; the session is closed and removed."""
        session = self._get(session_id)
        async with session.lock:
            # recheck under the lock: an in-flight move we queued behind
            # may just have finished the game (same pattern as play_move)
            if session.status is not SessionStatus.ACTIVE:
                raise SessionNotFound(f"no active session {session_id}")
            session.status = SessionStatus.RESIGNED
            self._sessions.pop(session_id, None)
            self._resigned += 1
            if self._journal is not None:
                self._journal.close_session(session_id, "resigned")
        return session.status

    # -- moves ---------------------------------------------------------------
    async def play_move(
        self,
        session_id: int,
        action: int | None = None,
        deadline_ms: float | None = None,
        request_id: str | None = None,
    ) -> MoveReply:
        """Serve one move under a wall-clock deadline.

        *action* is the client's move to apply first (``None`` asks the
        engine to move in the current position -- e.g. when the engine
        plays first, or for engine-vs-engine driving).  If the client's
        move ends the game no search runs and ``engine_action`` is
        ``None``.  Otherwise the engine searches under
        ``SearchBudget(num_playouts, remaining deadline)`` and plays the
        visit-count argmax.

        *request_id* makes the move idempotent: a repeat of a completed
        ``(session, request_id)`` returns the cached reply, and a repeat
        racing the original awaits the original's result -- so a client
        retrying after a :class:`GatewayConnectionError` (reply lost in
        transit) can never double-apply a move.  Retries short-circuit
        *before* admission control: answering from cache is not new
        load.

        Latency stamps, ``last_active`` and the idle-GC sweep all read
        the *same* injected clock's ``monotonic()``: a session's
        activity and the sweep judging it can never disagree about what
        time it is (the historic ``perf_counter``-vs-``monotonic`` mix).
        """
        if request_id is None:
            return await self._play_move_once(session_id, action, deadline_ms, None)
        key = (session_id, str(request_id))
        cached = self._reply_cache.get(key)
        if cached is not None:
            self._deduped += 1
            return cached
        pending = self._inflight_rids.get(key)
        if pending is not None:
            self._deduped += 1
            # shield: cancelling this duplicate must not cancel the
            # original computation other callers may be awaiting
            return await asyncio.shield(pending)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight_rids[key] = future
        try:
            reply = await self._play_move_once(
                session_id, action, deadline_ms, str(request_id)
            )
        except BaseException as exc:
            self._inflight_rids.pop(key, None)
            future.set_exception(exc)
            # failures are NOT cached: a retry re-executes.  Touch the
            # exception so a duplicate-free future never warns.
            future.exception()
            raise
        self._inflight_rids.pop(key, None)
        future.set_result(reply)
        self._reply_cache[key] = reply
        while len(self._reply_cache) > self._reply_cache_size:
            self._reply_cache.pop(next(iter(self._reply_cache)))
        return reply

    async def _play_move_once(
        self,
        session_id: int,
        action: int | None,
        deadline_ms: float | None,
        rid: str | None = None,
    ) -> MoveReply:
        t0 = self.clock.monotonic()
        deadline = self.deadline_ms if deadline_ms is None else float(deadline_ms)
        if deadline <= 0:
            raise GatewayError("deadline_ms must be positive")
        session = self._get(session_id)
        # admission control BEFORE queueing on the session lock or the
        # executor: over capacity, shed load instead of growing a queue
        if self._inflight >= self.max_inflight:
            self._rejected += 1
            raise GatewayOverloaded(
                f"{self._inflight} moves in flight (limit {self.max_inflight})"
            )
        self._inflight += 1
        try:
            async with session.lock:
                if session.status is not SessionStatus.ACTIVE:
                    raise SessionNotFound(f"no active session {session_id}")
                reply = await self._play_move_locked(
                    session, action, deadline, t0, rid
                )
        finally:
            self._inflight -= 1
        latency_ms = (self.clock.monotonic() - t0) * 1e3
        self.latency.record(latency_ms / 1e3)
        self._moves_served += 1
        if latency_ms > deadline + self.deadline_tolerance_ms:
            self._deadline_misses += 1
        session.last_active = self.clock.monotonic()
        return MoveReply(
            session_id=session_id,
            engine_action=reply[0],
            prior=reply[1],
            done=reply[2],
            winner=reply[3],
            status=session.status,
            latency_ms=latency_ms,
            deadline_ms=deadline,
            move_number=session.moves,
        )

    async def _play_move_locked(
        self,
        session: _Session,
        action: int | None,
        deadline: float,
        t0: float,
        rid: str | None = None,
    ) -> tuple[int | None, np.ndarray | None, bool, int | None]:
        result = await self._apply_move_locked(session, action, deadline, t0)
        if self._journal is not None:
            # journal under the session lock, so records land in the same
            # order the moves applied.  One record per *completed* logical
            # move: a move that errors after partially applying is not
            # journaled -- the journal may trail live state by at most the
            # in-flight move, the same guarantee the cluster's shadow
            # history gives.  The rid and reply essentials ride along so a
            # survivor can answer a retry whose reply died with this shard.
            #
            # The append runs on the journal thread and the reply waits
            # for it: its write(2) releases the GIL, and with searches
            # holding the GIL the event loop would wait milliseconds to
            # take it back, stalling every session's reply.  Shielded, so
            # a cancelled move still journals what it applied.
            engine_action, _prior, done, winner = result
            applied: list[int] = []
            if action is not None:
                applied.append(int(action))
            if engine_action is not None:
                applied.append(int(engine_action))
            await asyncio.shield(
                asyncio.get_running_loop().run_in_executor(
                    self._journal_writes,
                    self._journal_move,
                    session.session_id,
                    rid,
                    applied,
                    engine_action,
                    done,
                    winner,
                )
            )
        return result

    def _journal_move(
        self,
        sid: int,
        rid: str | None,
        applied: list[int],
        engine_action: int | None,
        done: bool,
        winner: int | None,
    ) -> None:
        self._journal.move(sid, rid, applied, engine_action, done, winner)
        if done:
            self._journal.close_session(sid, "finished")

    async def _apply_move_locked(
        self,
        session: _Session,
        action: int | None,
        deadline: float,
        t0: float,
    ) -> tuple[int | None, np.ndarray | None, bool, int | None]:
        # stamp activity at move *start* as well as completion: a GC
        # sweep during a long search sees a fresh timestamp, not one
        # stale since the previous move (the held lock is the backstop)
        session.last_active = t0
        game = session.game
        if action is not None:
            # validate the untrusted wire value before it indexes anything
            if not isinstance(action, (int, np.integer)) or isinstance(
                action, bool
            ):
                raise InvalidMove(f"action must be an integer, got {action!r}")
            if not 0 <= action < game.action_size:
                raise InvalidMove(
                    f"action {action} out of range [0, {game.action_size})"
                )
            if game.is_terminal or not bool(game.legal_mask()[action]):
                raise InvalidMove(f"illegal action {action}")
            game.step(int(action))
            session.moves += 1
            session.history.append(int(action))
            session.agent.observe(int(action))
            if game.is_terminal:
                self._finish(session)
                return None, None, True, int(game.winner)
        elif game.is_terminal:  # defensive: table never holds terminal actives
            self._finish(session)
            return None, None, True, int(game.winner)

        if self._master is not None:
            prior = await self._master.run(
                self._search_program(session.agent, game, deadline, t0)
            )
        else:
            prior = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._search, session.agent, game, deadline, t0
            )
        engine_action = int(np.argmax(prior))
        game.step(engine_action)
        session.moves += 1
        session.history.append(engine_action)
        session.agent.observe(engine_action)
        if game.is_terminal:
            self._finish(session)
            return engine_action, prior, True, int(game.winner)
        return engine_action, prior, False, None

    def _budget(self, deadline: float, t0: float) -> SearchBudget:
        """The budget of a search starting now: what the request has left,
        so validation, queueing and the hand-off all count against the
        deadline.  The 1 ms floor still yields min_playouts."""
        elapsed_ms = (self.clock.monotonic() - t0) * 1e3
        return SearchBudget(
            num_playouts=self.num_playouts,
            time_budget_ms=max(1.0, deadline - elapsed_ms),
            clock=self.clock,
        )

    def _search(
        self, agent: TreeReuseMCTS, game: Game, deadline: float, t0: float
    ) -> np.ndarray:
        return agent.get_action_prior(game, self._budget(deadline, t0))

    def _search_program(
        self, agent: TreeReuseMCTS, game: Game, deadline: float, t0: float
    ):
        """A master program: its budget is armed on its first step."""
        root = yield from agent.search_program(game, self._budget(deadline, t0))
        return action_prior_from_root(root, game.action_size)

    def _finish(self, session: _Session) -> None:
        session.status = SessionStatus.FINISHED
        self._sessions.pop(session.session_id, None)
        self._finished += 1

    # -- journal recovery ------------------------------------------------------
    def _recover_from_journal(self) -> None:
        """Re-admit every session the journal says was live at the crash.

        Each open session's history is replayed through a fresh game
        (legality-checked: a corrupt-but-checksum-valid record must not
        admit an impossible position) and re-admitted under its
        *original* id at its exact position.  Unreplayable sessions
        (unknown game, illegal line) are counted, not fatal.  The log is
        then snapshot-compacted so the next crash replays one record per
        session instead of the full move history.
        """
        self._journal_recovery_done = True
        assert self._journal is not None
        replays, _raw = replay_sessions(self._journal.directory)
        live: list[SessionReplay] = []
        self._journal_muted = True
        try:
            for sid in sorted(replays):
                rep = replays[sid]
                if not rep.open:
                    continue
                if rep.game is None:
                    self._journal_unrecoverable += 1
                    continue
                try:
                    state = build_game(rep.game, rep.size)
                    for ply, a in enumerate(rep.history):
                        if state.is_terminal or not (
                            0 <= a < state.action_size
                            and bool(state.legal_mask()[a])
                        ):
                            raise GatewayError(
                                f"illegal journaled action {a} at ply {ply}"
                            )
                        state.step(a)
                except GatewayError:
                    self._journal_unrecoverable += 1
                    continue
                if state.is_terminal:
                    continue  # last journaled move ended the game
                self._admit(state, history=rep.history, session_id=sid)
                self._journal_recovered += 1
                live.append(rep)
        finally:
            self._journal_muted = False
        self._journal.snapshot(live)

    # -- telemetry -----------------------------------------------------------
    def stats(self) -> GatewayStats:
        bus = self._bus
        return GatewayStats(
            sessions_created=self._created,
            sessions_active=len(self._sessions),
            sessions_finished=self._finished,
            sessions_resigned=self._resigned,
            sessions_expired=self._expired,
            moves_served=self._moves_served,
            rejected=self._rejected,
            deadline_misses=self._deadline_misses,
            inflight=self._inflight,
            latency_p50_ms=self.latency.percentile(50) * 1e3,
            latency_p95_ms=self.latency.percentile(95) * 1e3,
            latency_p99_ms=self.latency.percentile(99) * 1e3,
            latency_mean_ms=self.latency.mean * 1e3,
            sessions_drained=self._drained,
            sessions_restored=self._restored,
            deduped_replies=self._deduped,
            drain_rejected=self._drain_rejected,
            draining=self._draining,
            shard_id=self.shard_id,
            weights_version=self.weights_version,
            bus_enabled=bus is not None,
            bus_requests=bus.rows if bus else 0,
            bus_batches=bus.calls if bus else 0,
            bus_occupancy=bus.rows / bus.calls if bus and bus.calls else 0.0,
            journal_enabled=(
                self._journal is not None and not self._journal.disabled
            ),
            journal_fsync=(
                self._journal.fsync if self._journal is not None else None
            ),
            journal_records=(
                self._journal.records_written if self._journal is not None else 0
            ),
            journal_errors=(
                self._journal.io_errors if self._journal is not None else 0
            ),
            journal_recovered=self._journal_recovered,
            journal_unrecoverable=self._journal_unrecoverable,
        )


# -- wire layer ---------------------------------------------------------------
class GatewayServer:
    """Newline-delimited-JSON TCP front for a :class:`MatchGateway`.

    One request per line, one reply per line.  Ops: ``new`` (game, size),
    ``move`` (session, action, deadline_ms), ``resign`` (session),
    ``stats``, ``ping``.  Failures reply ``{"ok": false, "error": ...,
    "code": ...}`` with the HTTP-style code of the gateway error (503 for
    backpressure rejections), keeping the connection open.
    """

    def __init__(
        self, gateway: MatchGateway, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.gateway = gateway
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._handlers: set[asyncio.Task] = set()

    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns ``(host, port)`` (the port is
        the kernel-assigned one when constructed with ``port=0``)."""
        await self.gateway.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            # Server.close() only stops accepting -- it does not end open
            # connections, and on Python >= 3.12.1 wait_closed() blocks
            # until every handler finishes.  Cancel the live handlers
            # (parked on readline) so shutdown cannot hang on an idle
            # client.
            for task in list(self._handlers):
                task.cancel()
            if self._handlers:
                await asyncio.gather(*self._handlers, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        await self.gateway.aclose()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                reply = await self._dispatch(line)
                writer.write(json.dumps(reply).encode() + b"\n")
                await writer.drain()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # aclose() cancels live connection handlers; absorb the
            # cancellation so shutdown closes the socket without noise
            pass
        finally:
            if task is not None:
                self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _dispatch(self, line: bytes) -> dict:
        try:
            request = json.loads(line)
            op = request.get("op")
            if op == "ping":
                return {
                    "ok": True,
                    "op": "ping",
                    "shard_id": self.gateway.shard_id,
                    "draining": self.gateway.draining,
                }
            if op == "new":
                session_id = await self.gateway.create_session(
                    request.get("game", "tictactoe"), request.get("size")
                )
                return {"ok": True, "session": session_id}
            if op == "restore":
                session_id, done, winner = await self.gateway.restore_session(
                    request.get("game", "tictactoe"),
                    request.get("size"),
                    request.get("actions"),
                )
                return {
                    "ok": True,
                    "session": session_id,
                    "done": done,
                    "winner": winner,
                }
            if op == "drain":
                self.gateway.begin_drain()
                drained = await self.gateway.export_sessions()
                return {"ok": True, "drained": drained}
            if op == "drain_light":
                self.gateway.begin_drain()
                return {"ok": True, "draining": True}
            if op == "resume":
                self.gateway.resume_admission()
                return {"ok": True, "draining": False}
            if op == "version":
                return {
                    "ok": True,
                    "shard_id": self.gateway.shard_id,
                    "weights_version": self.gateway.weights_version,
                    "plan_version": self.gateway.plan_version,
                    "draining": self.gateway.draining,
                    "sessions": self.gateway.session_count,
                }
            if op == "load_weights":
                version = self.gateway.load_weights(request["state"])
                return {"ok": True, "weights_version": version}
            if op == "move":
                rid = request.get("rid")
                reply = await self.gateway.play_move(
                    int(request["session"]),
                    request.get("action"),
                    request.get("deadline_ms"),
                    request_id=None if rid is None else str(rid),
                )
                return {
                    "ok": True,
                    "session": reply.session_id,
                    "engine_action": reply.engine_action,
                    "prior": None
                    if reply.prior is None
                    else [round(float(p), 6) for p in reply.prior],
                    "done": reply.done,
                    "winner": reply.winner,
                    "status": reply.status.value,
                    "latency_ms": round(reply.latency_ms, 3),
                    "deadline_ms": reply.deadline_ms,
                    "move_number": reply.move_number,
                }
            if op == "resign":
                status = await self.gateway.resign(int(request["session"]))
                return {"ok": True, "status": status.value}
            if op == "stats":
                return {"ok": True, "stats": self.gateway.stats().as_dict()}
            raise GatewayError(f"unknown op {op!r}")
        except GatewayError as exc:
            return {"ok": False, "error": str(exc), "code": exc.code}
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            return {"ok": False, "error": f"bad request: {exc}", "code": 400}
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 -- serving boundary
            # e.g. BrokenProcessPool after a worker OOM-kill: reply 500
            # and keep the connection alive instead of dying with a bare
            # EOF at the client
            return {
                "ok": False,
                "error": f"internal error: {type(exc).__name__}: {exc}",
                "code": 500,
            }


class GatewayClient:
    """Asyncio client for :class:`GatewayServer` (examples, load harness,
    the cluster router's shard links).

    One client = one connection = one request in flight at a time; drive
    concurrent load with one client per simulated player.

    Every transport failure surfaces as the *typed*
    :class:`GatewayConnectionError` -- a peer that dies mid-reply used to
    leak a bare ``json.JSONDecodeError`` (torn line) or
    ``ConnectionResetError`` to the caller; now the retry path has one
    exception to catch.  *timeout_s* bounds each request's read (and the
    connect), measured on *clock* so virtual-time harnesses can exercise
    timeout paths deterministically.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        timeout_s: float | None = None,
        clock: Clock | None = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.timeout_s = timeout_s
        self.clock: Clock = WALL_CLOCK if clock is None else clock

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        timeout_s: float | None = None,
        clock: Clock | None = None,
    ) -> "GatewayClient":
        clk: Clock = WALL_CLOCK if clock is None else clock
        try:
            opening = asyncio.open_connection(host, port)
            if timeout_s is not None:
                reader, writer = await clock_timeout(clk, opening, timeout_s)
            else:
                reader, writer = await opening
        except ClockTimeout as exc:
            raise GatewayConnectionError(
                f"connect to {host}:{port} timed out after {timeout_s:g}s"
            ) from exc
        except (ConnectionError, OSError) as exc:
            raise GatewayConnectionError(
                f"connect to {host}:{port} failed: {exc}"
            ) from exc
        return cls(reader, writer, timeout_s=timeout_s, clock=clk)

    async def request(
        self, payload: dict, *, timeout_s: float | None = None
    ) -> dict:
        """Raw round trip; returns the reply dict (``ok`` may be false --
        load harnesses count rejections from it).  Transport failures
        (disconnect, torn reply line, read timeout) raise
        :class:`GatewayConnectionError`."""
        timeout = self.timeout_s if timeout_s is None else timeout_s
        try:
            self._writer.write(json.dumps(payload).encode() + b"\n")
            await self._writer.drain()
            reading = self._reader.readline()
            if timeout is not None:
                line = await clock_timeout(self.clock, reading, timeout)
            else:
                line = await reading
        except ClockTimeout as exc:
            raise GatewayConnectionError(
                f"no reply within {timeout:g}s"
            ) from exc
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            OSError,
        ) as exc:
            raise GatewayConnectionError(
                f"connection failed mid-request: {exc!r}"
            ) from exc
        if not line:
            raise GatewayConnectionError("gateway closed the connection")
        if not line.endswith(b"\n"):
            # EOF mid-line: the peer died while writing this reply
            raise GatewayConnectionError(
                f"torn reply line ({len(line)} bytes, no terminator)"
            )
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            raise GatewayConnectionError(
                f"corrupt reply line: {exc}"
            ) from exc

    def _checked(self, reply: dict) -> dict:
        if not reply.get("ok"):
            code = reply.get("code", 400)
            exc_type = {404: SessionNotFound, 503: GatewayOverloaded}.get(
                code, GatewayError
            )
            raise exc_type(reply.get("error", "gateway error"))
        return reply

    async def new_match(
        self, game: str = "tictactoe", size: int | None = None
    ) -> int:
        reply = self._checked(
            await self.request({"op": "new", "game": game, "size": size})
        )
        return int(reply["session"])

    async def move(
        self,
        session: int,
        action: int | None = None,
        deadline_ms: float | None = None,
        request_id: str | None = None,
    ) -> dict:
        payload = {
            "op": "move",
            "session": session,
            "action": action,
            "deadline_ms": deadline_ms,
        }
        if request_id is not None:
            payload["rid"] = request_id
        return self._checked(await self.request(payload))

    async def ping(self) -> dict:
        return self._checked(await self.request({"op": "ping"}))

    async def resign(self, session: int) -> dict:
        return self._checked(await self.request({"op": "resign", "session": session}))

    async def stats(self) -> dict:
        reply = self._checked(await self.request({"op": "stats"}))
        return reply["stats"]

    async def aclose(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
