"""Deterministic virtual-time scenario harness for the match gateway.

The PR-5 soak suite buys its confidence with wall-clock seconds, which
caps it at dozens of sessions and zero simulated hours.  This module
drives the *real* :class:`~repro.serving.service.MatchGateway` -- real
sessions, real admission control, real idle GC, real searches -- on a
:class:`~repro.utils.clock.VirtualClock`, so a 10k-session hour of
traffic runs in seconds and, crucially, runs the *same way every time*:

- **Scripted load.**  :func:`generate_script` expands a
  :class:`ScenarioSpec` (seed, arrival window, deadline sweep,
  think-time and service-time ranges, slow-client fraction) into an
  explicit per-client schedule -- every arrival instant, think pause and
  modelled search duration is a number drawn once from the seed.  The
  run merely *performs* the script, so a failure replays from the spec
  alone.
- **Modelled search latency.**  Searches execute inline on the event
  loop thread (:class:`InlineExecutor`) -- no thread pool, no GIL races
  -- and :class:`SimulatedSearchExecutor` advances the virtual clock by
  the scripted duration as each search "runs", so latencies, deadline
  misses and idle-GC interleavings are exact functions of the script.
- **Transcripts.**  Every client event (admit, reject, move, expiry,
  completion) lands in one virtually-timestamped transcript;
  :meth:`ScenarioResult.require` turns an assertion failure into a
  replay bundle (spec JSON + summary) instead of a shrug.

The harness is product code, importable by tests (``tests/simtime``)
and benchmarks (the E17 admission sweep) alike.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import Executor, Future
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from repro.mcts.evaluation import Evaluator, UniformEvaluator
from repro.serving.service import (
    GatewayConnectionError,
    GatewayOverloaded,
    GatewayStats,
    MatchGateway,
    SessionNotFound,
)
from repro.utils.clock import VirtualClock

__all__ = [
    "InlineExecutor",
    "SimulatedSearchExecutor",
    "MoveScript",
    "ClientScript",
    "FaultEvent",
    "ScenarioSpec",
    "ScenarioResult",
    "ScenarioRunner",
    "ClusterScenarioResult",
    "ClusterScenarioRunner",
    "generate_script",
]


class InlineExecutor(Executor):
    """An :class:`~concurrent.futures.Executor` that runs the callable
    synchronously in ``submit``.

    ``loop.run_in_executor(inline, fn)`` therefore completes ``fn``
    before the awaiting coroutine ever yields -- the whole search is one
    atomic step of the event loop.  That is what makes virtual-time
    scenarios deterministic: nothing real runs concurrently, so the
    clock driver can never advance time *during* a search.
    """

    def submit(self, fn, /, *args, **kwargs):
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - executor contract
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False):
        pass


class SimulatedSearchExecutor(InlineExecutor):
    """Inline executor that charges each search a scripted virtual cost.

    The client about to call ``play_move`` arms :meth:`expect` with the
    move's modelled duration; ``submit`` runs the real search inline and
    then advances the virtual clock by that amount, so the gateway's
    latency stamp *is* the modelled service time.  The path from
    ``expect`` to ``submit`` contains no await point (admission check,
    uncontended session lock and validation are all synchronous), so the
    single pending slot cannot be claimed by another client's move.

    Durations are charged *after* the search computes: the search itself
    sees the clock at request time, keeping its deadline arming aligned
    with what the gateway promised the client.
    """

    def __init__(
        self, clock: VirtualClock, default_duration_s: float = 0.0
    ) -> None:
        self.clock = clock
        self.default_duration_s = default_duration_s
        self._pending: float | None = None
        self.searches = 0

    def expect(self, duration_s: float) -> None:
        """Arm the virtual duration of the next submitted search."""
        self._pending = max(0.0, float(duration_s))

    def clear(self) -> None:
        """Disarm (the armed call was rejected before reaching submit)."""
        self._pending = None

    def submit(self, fn, /, *args, **kwargs):
        duration = self._pending
        self._pending = None
        if duration is None:
            duration = self.default_duration_s
        future = super().submit(fn, *args, **kwargs)
        self.searches += 1
        if duration > 0.0:
            self.clock.advance(duration)
        return future


# -- scripts ------------------------------------------------------------------
@dataclass(frozen=True)
class MoveScript:
    """One scripted move: how long the client thinks before asking and
    how long the modelled search takes (``stall_ms`` is the slow-client
    surcharge, kept separate so tests can reason about it)."""

    think_s: float
    service_ms: float
    stall_ms: float = 0.0

    @property
    def duration_ms(self) -> float:
        return self.service_ms + self.stall_ms


@dataclass(frozen=True)
class ClientScript:
    """One scripted client: arrival offset, per-move deadline, and the
    move-by-move schedule."""

    client_id: int
    arrival_s: float
    deadline_ms: float
    slow: bool
    moves: tuple[MoveScript, ...]


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault, fired at a virtual timestamp.

    Kinds:

    - ``"kill"`` -- hard-kill shard *shard* at ``at_s`` (power loss: its
      sessions become unreachable and must be re-admitted from shadow
      history);
    - ``"drain"`` -- gracefully drain shard *shard* (planned
      maintenance: in-flight moves finish, sessions relocate with the
      shard's authoritative export) and resume it afterwards;
    - ``"pause_swap"`` -- hold shard *shard* in its weight-swap
      drain-light window for ``duration_s`` virtual seconds (admissions
      bounce to the rest of the fleet, resident sessions keep playing),
      then resume -- the rollout's pause, scripted in isolation.
    """

    at_s: float
    kind: str  # "kill" | "drain" | "pause_swap"
    shard: int
    duration_s: float = 0.0


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything a scenario is, in numbers.  Same spec, same run.

    ``deadline_ms`` / ``think_time_s`` / ``service_time_ms`` /
    ``moves_per_session`` are inclusive uniform ranges sampled per
    client (deadline), per move (think/service) from ``seed``.

    ``shards`` and ``faults`` only matter to
    :class:`ClusterScenarioRunner`; the single-gateway
    :class:`ScenarioRunner` ignores them (defaults keep old specs
    bit-identical).
    """

    seed: int = 0
    sessions: int = 100
    arrival_window_s: float = 3600.0
    deadline_ms: tuple[float, float] = (10.0, 200.0)
    think_time_s: tuple[float, float] = (0.5, 8.0)
    service_time_ms: tuple[float, float] = (1.0, 8.0)
    moves_per_session: tuple[int, int] = (1, 3)
    slow_client_fraction: float = 0.01
    slow_stall_ms: float = 400.0
    retry_backoff_s: float = 0.25
    max_retries_per_move: int = 64
    game: str = "tictactoe"
    playouts: int = 2
    workers: int = 1
    max_inflight: int = 64
    max_sessions: int = 100_000
    idle_timeout_s: float = 300.0
    gc_interval_s: float = 60.0
    deadline_tolerance_ms: float = 0.0
    shards: int = 1
    faults: tuple[FaultEvent, ...] = ()
    # the gateway's ``evalbus`` switch: searches run whole on the scripted
    # executor either way, so ``True`` only turns on the bus counters
    evalbus: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


def generate_script(spec: ScenarioSpec) -> tuple[ClientScript, ...]:
    """Expand a spec into the explicit per-client schedule (pure:
    depends only on the spec)."""
    rng = np.random.default_rng(spec.seed)
    arrivals = np.sort(rng.uniform(0.0, spec.arrival_window_s, spec.sessions))
    deadlines = rng.uniform(*spec.deadline_ms, spec.sessions)
    slow = rng.random(spec.sessions) < spec.slow_client_fraction
    lo_m, hi_m = spec.moves_per_session
    move_counts = rng.integers(lo_m, hi_m + 1, spec.sessions)
    clients = []
    for cid in range(spec.sessions):
        moves = tuple(
            MoveScript(
                think_s=float(rng.uniform(*spec.think_time_s)),
                service_ms=float(rng.uniform(*spec.service_time_ms)),
                stall_ms=spec.slow_stall_ms if slow[cid] else 0.0,
            )
            for _ in range(int(move_counts[cid]))
        )
        clients.append(
            ClientScript(
                client_id=cid,
                arrival_s=float(arrivals[cid]),
                deadline_ms=float(deadlines[cid]),
                slow=bool(slow[cid]),
                moves=moves,
            )
        )
    return tuple(clients)


# -- results ------------------------------------------------------------------
#: transcript rows are plain tuples -- (virtual_t, client_id, kind, *detail)
#: -- so two runs compare with ``==`` and serialise with ``json.dumps``
Event = tuple


@dataclass
class ScenarioResult:
    """What one scenario run produced, with its replay handle attached."""

    spec: ScenarioSpec
    events: list[Event]
    stats: GatewayStats
    sim_seconds: float
    wall_seconds: float
    leftover_sessions: int
    searches: int

    def of_kind(self, kind: str) -> list[Event]:
        return [e for e in self.events if e[2] == kind]

    @property
    def admitted(self) -> int:
        return len(self.of_kind("admit"))

    @property
    def moves(self) -> list[Event]:
        return self.of_kind("move")

    def latencies_ms(self) -> np.ndarray:
        return np.array([e[5] for e in self.moves], dtype=np.float64)

    def summary(self) -> dict:
        """The E17 benchmark row: admission + latency in *virtual* ms."""
        lats = self.latencies_ms()
        return {
            "sessions": self.spec.sessions,
            "admitted": self.admitted,
            "admission_rate": round(self.admitted / self.spec.sessions, 4)
            if self.spec.sessions
            else 0.0,
            "moves_served": len(self.moves),
            "rejected_creates": len(self.of_kind("admit_reject")),
            "rejected_moves": len(self.of_kind("move_reject")),
            "expired": len(self.of_kind("expired")),
            "deadline_misses": self.stats.deadline_misses,
            "latency_p50_virtual_ms": round(
                float(np.percentile(lats, 50)), 3
            )
            if lats.size
            else 0.0,
            "latency_p99_virtual_ms": round(
                float(np.percentile(lats, 99)), 3
            )
            if lats.size
            else 0.0,
            "sim_seconds": round(self.sim_seconds, 3),
            "wall_seconds": round(self.wall_seconds, 3),
        }

    def replay_bundle(self, clients: int | None = 20) -> str:
        """The failure dump: spec (the schedule's seed-complete source),
        run summary, and the first *clients* expanded schedules."""
        script = generate_script(self.spec)
        shown = script if clients is None else script[:clients]
        return json.dumps(
            {
                "replay": "ScenarioRunner(ScenarioSpec(**spec)).run()",
                "spec": self.spec.as_dict(),
                "summary": self.summary(),
                "script_head": [asdict(c) for c in shown],
                "script_clients_shown": len(shown),
            },
            indent=2,
        )

    def require(self, condition: bool, message: str) -> None:
        """Assert with a replay: on failure the error carries the spec
        that deterministically regenerates this exact schedule."""
        if not condition:
            raise AssertionError(
                f"{message}\n--- simtime replay schedule ---\n"
                f"{self.replay_bundle()}"
            )


# -- the runner ---------------------------------------------------------------
class ScenarioRunner:
    """Run one :class:`ScenarioSpec` against a real gateway in virtual time.

    >>> result = ScenarioRunner(ScenarioSpec(seed=7, sessions=50)).run()
    >>> result.require(result.admitted == 50, "admission shortfall")

    Construction expands the script; :meth:`run` builds a fresh
    ``VirtualClock`` + gateway each call, so running twice from one
    runner is two independent, identically-scripted simulations --
    the determinism check is literally ``run() == run()``.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        evaluator: Evaluator | None = None,
    ) -> None:
        self.spec = spec
        self.script: Sequence[ClientScript] = generate_script(spec)
        self._evaluator = evaluator

    def run(self) -> ScenarioResult:
        spec = self.spec
        clock = VirtualClock()
        executor = SimulatedSearchExecutor(clock)
        gateway = MatchGateway(
            self._evaluator or UniformEvaluator(),
            workers=spec.workers,
            deadline_ms=max(spec.deadline_ms),
            num_playouts=spec.playouts,
            max_inflight=spec.max_inflight,
            max_sessions=spec.max_sessions,
            idle_timeout_s=spec.idle_timeout_s,
            gc_interval_s=spec.gc_interval_s,
            deadline_tolerance_ms=spec.deadline_tolerance_ms,
            seed=spec.seed,
            clock=clock,
            executor=executor,
            evalbus=spec.evalbus,
        )
        events: list[Event] = []
        wall0 = time.perf_counter()
        stats, leftover = clock.run(self._main(gateway, executor, clock, events))
        return ScenarioResult(
            spec=spec,
            events=events,
            stats=stats,
            sim_seconds=clock.now,
            wall_seconds=time.perf_counter() - wall0,
            leftover_sessions=leftover,
            searches=executor.searches,
        )

    async def _main(
        self,
        gateway: MatchGateway,
        executor: SimulatedSearchExecutor,
        clock: VirtualClock,
        events: list[Event],
    ) -> tuple[GatewayStats, int]:
        async with gateway:
            await asyncio.gather(
                *[
                    self._client(gateway, executor, clock, script, events)
                    for script in self.script
                ]
            )
            # one beyond-TTL sweep so sessions parked idle at script end
            # (resign raced expiry, slow stragglers) are accounted
            gateway.expire_idle(now=clock.now + self.spec.idle_timeout_s + 1.0)
            return gateway.stats(), gateway.session_count

    async def _client(
        self,
        gateway: MatchGateway,
        executor: SimulatedSearchExecutor,
        clock: VirtualClock,
        script: ClientScript,
        events: list[Event],
    ) -> None:
        spec = self.spec
        await clock.sleep(script.arrival_s)
        try:
            session = await gateway.create_session(spec.game)
        except GatewayOverloaded:
            events.append((clock.now, script.client_id, "admit_reject"))
            return
        events.append((clock.now, script.client_id, "admit", session))
        for move_idx, move in enumerate(script.moves):
            await clock.sleep(move.think_s)
            retries = 0
            while True:
                executor.expect(move.duration_ms / 1e3)
                try:
                    reply = await gateway.play_move(
                        session, deadline_ms=script.deadline_ms
                    )
                except GatewayOverloaded:
                    executor.clear()
                    events.append(
                        (clock.now, script.client_id, "move_reject", move_idx)
                    )
                    retries += 1
                    if retries > spec.max_retries_per_move:
                        events.append(
                            (clock.now, script.client_id, "starved", move_idx)
                        )
                        return
                    await clock.sleep(spec.retry_backoff_s)
                    continue
                except SessionNotFound:
                    # idle GC expired the session mid-think (slow client)
                    executor.clear()
                    events.append((clock.now, script.client_id, "expired"))
                    return
                break
            missed = (
                reply.latency_ms
                > script.deadline_ms + spec.deadline_tolerance_ms
            )
            events.append(
                (
                    clock.now,
                    script.client_id,
                    "move",
                    session,
                    reply.move_number,
                    round(reply.latency_ms, 6),
                    int(missed),
                    retries,
                )
            )
            if reply.done:
                events.append(
                    (clock.now, script.client_id, "done", str(reply.status))
                )
                return
        try:
            await gateway.resign(session)
            events.append((clock.now, script.client_id, "resigned"))
        except SessionNotFound:
            events.append((clock.now, script.client_id, "expired"))


# -- cluster scenarios --------------------------------------------------------
@dataclass
class ClusterScenarioResult:
    """One cluster scenario run: client transcript + router transcript.

    Two identically-seeded runs must satisfy ``a.events == b.events and
    a.cluster_events == b.cluster_events`` -- the chaos suite's
    bit-identical-timeline gate.  ``stats`` is the router's
    :class:`~repro.cluster.stats.ClusterStats` (call
    ``stats.check_accounting()`` for the disposition invariant).
    """

    spec: ScenarioSpec
    events: list[Event]
    cluster_events: list[tuple]
    stats: object  # ClusterStats (typed loosely: repro.cluster imports us)
    sim_seconds: float
    wall_seconds: float
    searches: int

    def of_kind(self, kind: str) -> list[Event]:
        return [e for e in self.events if e[2] == kind]

    def summary(self) -> dict:
        s = self.stats
        return {
            "shards": self.spec.shards,
            "faults": len(self.spec.faults),
            "admitted": s.sessions_admitted,
            "completed": s.sessions_completed,
            "resigned": s.sessions_resigned,
            "lost": s.sessions_lost,
            "rejected": s.sessions_rejected,
            "drained": s.sessions_drained,
            "readmitted": s.sessions_readmitted,
            "moves_served": s.moves_served,
            "move_retries": s.move_retries,
            "shard_restarts": s.shard_restarts,
            "latency_p99_virtual_ms": round(s.latency_p99_ms, 3),
            "sim_seconds": round(self.sim_seconds, 3),
            "wall_seconds": round(self.wall_seconds, 3),
        }

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            raise AssertionError(
                f"{message}\n--- cluster replay spec ---\n"
                + json.dumps(
                    {
                        "replay": "ClusterScenarioRunner("
                        "ScenarioSpec(**spec)).run()",
                        "spec": self.spec.as_dict(),
                        "summary": self.summary(),
                        "cluster_events_tail": self.cluster_events[-30:],
                    },
                    indent=2,
                )
            )


class ClusterScenarioRunner:
    """Drive scripted load *and* scripted faults against a shard fleet.

    Same construction as :class:`ScenarioRunner` -- the spec is the
    whole run -- but the gateway is a
    :class:`~repro.cluster.router.ShardRouter` over ``spec.shards``
    in-process :class:`~repro.cluster.shard.LocalShard`\\ s, and a fault
    task performs ``spec.faults`` at their virtual timestamps while the
    clients play.  Clients are relocation-oblivious: they hold one
    cluster session id for the whole game and the router hides every
    shard death behind it.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        *,
        health_interval_s: float = 1.0,
        failure_threshold: int = 2,
        restart_limit: int = 2,
        respawn: bool = True,
    ) -> None:
        self.spec = spec
        self.script: Sequence[ClientScript] = generate_script(spec)
        self.health_interval_s = health_interval_s
        self.failure_threshold = failure_threshold
        self.restart_limit = restart_limit
        self.respawn = respawn

    def run(self) -> ClusterScenarioResult:
        from repro.cluster import BackoffPolicy, ShardRouter, ShardSpec

        spec = self.spec
        clock = VirtualClock()
        executor = SimulatedSearchExecutor(clock)
        base = ShardSpec(
            shard_id=0,
            game=spec.game,
            seed=spec.seed,
            deadline_ms=max(spec.deadline_ms),
            num_playouts=spec.playouts,
            workers=spec.workers,
            max_inflight=spec.max_inflight,
            max_sessions=spec.max_sessions,
            idle_timeout_s=spec.idle_timeout_s,
            gc_interval_s=spec.gc_interval_s,
            evalbus=spec.evalbus,
        )
        router = ShardRouter.local(
            spec.shards,
            base,
            clock=clock,
            executor=executor,
            seed=spec.seed,
            backoff=BackoffPolicy(base_s=0.05, max_s=1.0, max_retries=3),
            health_interval_s=self.health_interval_s,
            failure_threshold=self.failure_threshold,
            restart_limit=self.restart_limit,
            respawn=self.respawn,
        )
        events: list[Event] = []
        wall0 = time.perf_counter()
        stats = clock.run(self._main(router, executor, clock, events))
        return ClusterScenarioResult(
            spec=spec,
            events=events,
            cluster_events=list(router.events),
            stats=stats,
            sim_seconds=clock.now,
            wall_seconds=time.perf_counter() - wall0,
            searches=executor.searches,
        )

    async def _main(self, router, executor, clock, events):
        await router.start()
        try:
            await asyncio.gather(
                self._faults(router, clock, events),
                *[
                    self._client(router, executor, clock, script, events)
                    for script in self.script
                ],
            )
            await router.refresh_shard_stats()
            return router.stats()
        finally:
            await router.aclose()

    async def _faults(self, router, clock, events) -> None:
        for fault in sorted(self.spec.faults, key=lambda f: (f.at_s, f.shard)):
            if fault.at_s > clock.now:
                await clock.sleep(fault.at_s - clock.now)
            events.append((clock.now, -1, f"fault_{fault.kind}", fault.shard))
            if fault.kind == "kill":
                router.kill_shard(fault.shard)
            elif fault.kind == "drain":
                await router.drain_shard(fault.shard, resume=True)
            elif fault.kind == "pause_swap":
                slot = router._slots[fault.shard]
                if not slot.usable:
                    continue
                slot.draining = True
                await router._rpc(
                    slot,
                    {"op": "drain_light"},
                    key=(fault.shard, "fault-pause", fault.at_s),
                )
                await clock.sleep(max(0.0, fault.duration_s))
                await router.resume_shard(fault.shard)
            else:
                raise ValueError(f"unknown fault kind {fault.kind!r}")

    async def _client(self, router, executor, clock, script, events) -> None:
        spec = self.spec
        await clock.sleep(script.arrival_s)
        try:
            session = await router.create_session(spec.game)
        except (GatewayOverloaded, GatewayConnectionError):
            events.append((clock.now, script.client_id, "admit_reject"))
            return
        events.append((clock.now, script.client_id, "admit", session))
        for move_idx, move in enumerate(script.moves):
            await clock.sleep(move.think_s)
            retries = 0
            while True:
                executor.expect(move.duration_ms / 1e3)
                try:
                    reply = await router.play_move(
                        session, deadline_ms=script.deadline_ms
                    )
                except GatewayOverloaded:
                    executor.clear()
                    events.append(
                        (clock.now, script.client_id, "move_reject", move_idx)
                    )
                    retries += 1
                    if retries > spec.max_retries_per_move:
                        events.append(
                            (clock.now, script.client_id, "starved", move_idx)
                        )
                        return
                    await clock.sleep(spec.retry_backoff_s)
                    continue
                except GatewayConnectionError:
                    # the router exhausted every shard for this move; the
                    # session is gone (already accounted as lost)
                    executor.clear()
                    events.append(
                        (clock.now, script.client_id, "lost", move_idx)
                    )
                    return
                except SessionNotFound:
                    executor.clear()
                    events.append((clock.now, script.client_id, "expired"))
                    return
                break
            events.append(
                (
                    clock.now,
                    script.client_id,
                    "move",
                    session,
                    reply["move_number"],
                    round(reply["latency_ms"], 6),
                    retries,
                )
            )
            if reply["done"]:
                events.append(
                    (clock.now, script.client_id, "done", reply["status"])
                )
                return
        try:
            await router.resign(session)
            events.append((clock.now, script.client_id, "resigned"))
        except SessionNotFound:
            events.append((clock.now, script.client_id, "expired"))
