"""The cluster front door: consistent-hash placement with failover.

:class:`ShardRouter` owns a fleet of shard links and presents the same
logical surface as one :class:`~repro.serving.service.MatchGateway` --
``create_session`` / ``play_move`` / ``resign`` -- while underneath it:

- places sessions on shards by consistent hashing (:class:`HashRing`,
  blake2b with virtual nodes), so adding or losing a shard relocates
  only the sessions that must move;
- keeps a *shadow action history* per session (it proxies every move,
  so it sees every confirmed action), which is what makes crash
  recovery possible: when a shard dies, its sessions are replayed onto
  survivors through the gateway's ``restore`` op -- game state
  survives, search trees are rebuilt warm from the replayed line;
- retries transport failures against the same shard under
  :class:`~repro.cluster.health.BackoffPolicy` with a *stable request
  id per logical move*, so a retry after a lost reply deduplicates
  server-side instead of double-applying;
- runs a :class:`~repro.cluster.health.HealthMonitor` that turns ping
  streak failures into failover (re-admit sessions on survivors) plus
  an epoch-fenced respawn under a bounded restart budget -- the
  supervision primitives of :mod:`repro.farm.supervision` (the farm
  spends the retry budget per episode) applied to whole gateways.

Every mutation of the fleet appends to :attr:`ShardRouter.events`, a
wall-of-history the chaos suite compares across identically-seeded runs
with ``==``.
"""

from __future__ import annotations

import asyncio
import bisect
import os
from hashlib import blake2b
from typing import Callable, Iterator

from repro.cluster.health import BackoffPolicy, HealthMonitor
from repro.cluster.shard import LocalShard, ProcessShard, ShardLink, ShardSpec
from repro.cluster.stats import ClusterStats, ShardSnapshot
from repro.farm.supervision import EpochFence, RetryBudget
from repro.serving.engine import LatencyTracker
from repro.serving.service import (
    GatewayConnectionError,
    GatewayError,
    GatewayOverloaded,
    InvalidMove,
    SessionNotFound,
)
from repro.storage import SessionJournal, SessionReplay, replay_sessions
from repro.utils.clock import WALL_CLOCK, Clock

__all__ = ["HashRing", "ShardRouter", "ShardSlot", "SessionRecord"]


def _hash64(text: str) -> int:
    return int.from_bytes(blake2b(text.encode(), digest_size=8).digest(), "big")


class HashRing:
    """Consistent hashing over shard indices with virtual nodes.

    Each shard contributes ``vnodes`` points on a 64-bit blake2b ring;
    a key lands on the first point clockwise from its own hash whose
    shard is *eligible*.  Because ineligible shards are skipped at
    lookup time (not removed from the ring), a shard coming back after
    a respawn reclaims exactly its old arcs -- placement is a pure
    function of (key, eligible set).
    """

    def __init__(self, shard_ids: list[int], vnodes: int = 64) -> None:
        if not shard_ids:
            raise ValueError("need at least one shard")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        points: list[tuple[int, int]] = []
        for sid in shard_ids:
            for v in range(vnodes):
                points.append((_hash64(f"shard-{sid}:vnode-{v}"), sid))
        points.sort()
        self._points = points

    def preference(self, key: object, eligible: set[int]) -> Iterator[int]:
        """Eligible shards in ring order from *key*'s hash (no repeats)."""
        if not eligible:
            return
        pts = self._points
        start = bisect.bisect_right(pts, (_hash64(str(key)), -1))
        seen: set[int] = set()
        for step in range(len(pts)):
            _, sid = pts[(start + step) % len(pts)]
            if sid in seen:
                continue
            seen.add(sid)
            if sid in eligible:
                yield sid

    def lookup(self, key: object, eligible: set[int]) -> int:
        for sid in self.preference(key, eligible):
            return sid
        raise LookupError("no eligible shard for placement")


class SessionRecord:
    """Router-side view of one logical session.

    ``history`` is the shadow action log (every *confirmed* action, in
    order) -- the replay line used to restore the session after a shard
    loss.  ``move_seq`` numbers logical moves and doubles as the stable
    request id, so a retried move carries the same rid no matter how
    many transport attempts or relocations it takes.
    """

    __slots__ = (
        "session_id",
        "game",
        "size",
        "shard_index",
        "remote_id",
        "history",
        "move_seq",
        "status",
        "winner",
        "readmissions",
        "recovered_replies",
    )

    def __init__(
        self, session_id: int, game: str, size: int | None
    ) -> None:
        self.session_id = session_id
        self.game = game
        self.size = size
        self.shard_index: int = -1
        self.remote_id: int = 0
        self.history: list[int] = []
        self.move_seq = 0
        self.status = "active"  # active | completed | resigned | lost
        self.winner: int | None = None
        self.readmissions = 0
        #: replies recovered from a dead shard's journal for moves that
        #: applied but whose confirmation never reached the router, keyed
        #: by move_seq -- the client's retry is answered from here instead
        #: of re-applying the move on the survivor
        self.recovered_replies: dict[int, dict] = {}


class ShardSlot:
    """One supervised position in the fleet: link + fence + budget.

    The *slot* is permanent; the *link* behind it is replaced on every
    respawn with a bumped epoch, so anything still referencing the
    corpse (an in-flight RPC, a stale health verdict) is recognisably
    from a previous life.
    """

    def __init__(
        self, index: int, spec: ShardSpec, clock: Clock, restart_limit: int
    ) -> None:
        self.index = index
        self.spec = spec
        self.fence = EpochFence()
        self.restart_budget = RetryBudget(restart_limit)
        self.link: ShardLink | None = None
        self.healthy = False  # becomes True once started
        self.draining = False
        self.consecutive_failures = 0
        self.restarts = 0
        self.weights_version: int | None = None
        self.latency = LatencyTracker(clock=clock)
        self.sessions: set[int] = set()
        self.deduped_base = 0  # dedupes from dead epochs (shard counters reset)
        self.last_deduped = 0
        self.journal_errors = 0  # current life's shard-side journal IO errors

    @property
    def alive(self) -> bool:
        return self.link is not None and self.link.alive

    @property
    def usable(self) -> bool:
        return self.healthy and not self.draining and self.alive


class ShardRouter:
    """Fault-tolerant session router over N gateway shards."""

    def __init__(
        self,
        specs: list[ShardSpec],
        shard_factory: Callable[[ShardSpec, int], ShardLink],
        *,
        clock: Clock | None = None,
        seed: int = 0,
        backoff: BackoffPolicy | None = None,
        rpc_timeout_s: float | None = None,
        health_interval_s: float = 1.0,
        health_timeout_s: float = 0.25,
        failure_threshold: int = 3,
        restart_limit: int = 2,
        respawn: bool = True,
        vnodes: int = 64,
        journal_dir: str | None = None,
        journal_fsync: str = "batched",
    ) -> None:
        if not specs:
            raise ValueError("need at least one shard spec")
        if len({s.shard_id for s in specs}) != len(specs):
            raise ValueError("shard ids must be unique")
        self.clock: Clock = WALL_CLOCK if clock is None else clock
        self.seed = seed
        self.backoff = BackoffPolicy() if backoff is None else backoff
        self.rpc_timeout_s = rpc_timeout_s
        self.respawn = respawn
        self._factory = shard_factory
        self._slots = [
            ShardSlot(i, spec, self.clock, restart_limit)
            for i, spec in enumerate(specs)
        ]
        self.ring = HashRing([s.index for s in self._slots], vnodes=vnodes)
        self.monitor = HealthMonitor(
            clock=self.clock,
            targets=lambda: [s for s in self._slots if s.healthy],
            ping=self._ping_slot,
            on_unhealthy=self._on_unhealthy,
            interval_s=health_interval_s,
            threshold=failure_threshold,
        )
        self._health_timeout_s = health_timeout_s
        self.latency = LatencyTracker(clock=self.clock)
        self.events: list[tuple[float, str, str]] = []

        self._records: dict[int, SessionRecord] = {}
        self._next_sid = 1
        self._started = False
        self._closed = False

        # fleet-lifetime counters (ClusterStats)
        self._admitted = 0
        self._completed = 0
        self._resigned = 0
        self._lost = 0
        self._rejected = 0
        self._drained = 0
        self._readmitted = 0
        self._relocation_failures = 0
        self._moves = 0
        self._move_retries = 0
        self._rpc_failures = 0
        self._restarts = 0
        self._rollouts = 0
        self._rollout_rejections = 0
        self._sessions_recovered = 0
        self._journal_preferred = 0
        self._journal_replies_recovered = 0

        # the router's own placement journal: which sessions exist and
        # their shadow histories, so a full router restart can re-adopt
        # the fleet's live sessions (defaults to the shards' base journal
        # directory so one --journal-dir flag covers both layers)
        if journal_dir is None:
            journal_dir = specs[0].journal_dir
        self._journal: SessionJournal | None = None
        if journal_dir is not None:
            self._journal = SessionJournal(
                os.path.join(journal_dir, "router"), fsync=journal_fsync
            )

    # -- construction helpers -------------------------------------------------
    @classmethod
    def local(
        cls,
        num_shards: int,
        base_spec: ShardSpec | None = None,
        *,
        clock: Clock | None = None,
        executor=None,
        **kwargs,
    ) -> "ShardRouter":
        """A fleet of in-process :class:`LocalShard`\\ s (deterministic
        chaos testing under a virtual clock)."""
        base = base_spec or ShardSpec(shard_id=0)
        specs = [base.with_shard_id(i) for i in range(num_shards)]

        def factory(spec: ShardSpec, epoch: int) -> LocalShard:
            return LocalShard(spec, clock=clock, executor=executor, epoch=epoch)

        return cls(specs, factory, clock=clock, **kwargs)

    @classmethod
    def processes(
        cls,
        num_shards: int,
        base_spec: ShardSpec | None = None,
        **kwargs,
    ) -> "ShardRouter":
        """A fleet of forked :class:`ProcessShard`\\ s behind real TCP."""
        base = base_spec or ShardSpec(shard_id=0)
        specs = [base.with_shard_id(i) for i in range(num_shards)]

        def factory(spec: ShardSpec, epoch: int) -> ProcessShard:
            return ProcessShard(spec, epoch=epoch)

        return cls(specs, factory, **kwargs)

    # -- lifecycle ------------------------------------------------------------
    def _event(self, kind: str, detail: str) -> None:
        self.events.append((round(self.clock.monotonic(), 6), kind, detail))

    async def start(self) -> "ShardRouter":
        assert not self._started, "router already started"
        self._started = True
        await asyncio.gather(*(self._spawn(slot) for slot in self._slots))
        self.monitor.start()
        return self

    async def recover_sessions(self) -> int:
        """Re-adopt sessions journaled by a previous router life.

        Call after :meth:`start` when the router was restarted over an
        existing ``--journal-dir``: every session the placement journal
        records as open is re-admitted (same cluster id, shadow history
        replayed onto whatever shard the ring now prefers) and counts
        into ``sessions_recovered``.  Returns the number re-adopted; a
        journal-less router returns 0.
        """
        if self._journal is None:
            return 0
        replays, _raw = replay_sessions(self._journal.directory)
        recovered = 0
        for sid in sorted(replays):
            rep = replays[sid]
            if not rep.open or rep.game is None or sid in self._records:
                continue
            record = SessionRecord(sid, rep.game, rep.size)
            record.history = list(rep.history)
            # any per-session-monotone value works for rid freshness: the
            # restored placement gets a new remote id, so old rids cannot
            # collide in any shard's reply cache
            record.move_seq = len(rep.history)
            self._next_sid = max(self._next_sid, sid + 1)
            self._records[sid] = record
            self._admitted += 1
            try:
                await self._place(record, record.history, planned=False)
            except GatewayError:
                continue  # loss accounted by _place
            if record.status == "active":
                recovered += 1
                self._sessions_recovered += 1
        self._event(
            "router_recovered", f"{recovered} sessions re-adopted from journal"
        )
        # compact: one open record per surviving session
        live = [
            SessionReplay(
                sid=r.session_id, game=r.game, size=r.size,
                history=list(r.history),
            )
            for r in self._records.values()
            if r.status == "active"
        ]
        self._journal.snapshot(live)
        return recovered

    async def _spawn(self, slot: ShardSlot) -> None:
        epoch = slot.fence.current
        link = self._factory(slot.spec, epoch)
        link.epoch = epoch
        await link.start()
        slot.link = link
        slot.healthy = True
        slot.consecutive_failures = 0
        try:
            reply = await link.request(
                {"op": "version"}, timeout_s=self._health_timeout_s
            )
            if reply.get("ok"):
                slot.weights_version = reply.get("weights_version")
        except GatewayConnectionError:
            pass  # health loop will judge it
        self._event("spawn", f"shard {slot.index} epoch {epoch}")

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
        await self.monitor.aclose()
        await asyncio.gather(
            *(slot.link.aclose() for slot in self._slots if slot.link),
            return_exceptions=True,
        )
        if self._journal is not None:
            self._journal.close()

    # -- health / supervision -------------------------------------------------
    async def _ping_slot(self, slot: ShardSlot) -> None:
        link = slot.link
        if link is None or not link.alive:
            raise GatewayConnectionError(f"shard {slot.index} has no live link")
        reply = await link.request(
            {"op": "ping"}, timeout_s=self._health_timeout_s
        )
        if not reply.get("ok"):
            raise GatewayConnectionError(
                f"shard {slot.index} ping rejected: {reply.get('error')}"
            )

    async def _on_unhealthy(self, slot: ShardSlot) -> None:
        """Health verdict: fail the shard over, then try to respawn it."""
        epoch = slot.fence.current
        self._event(
            "shard_down",
            f"shard {slot.index} epoch {epoch} "
            f"({slot.consecutive_failures} consecutive ping failures)",
        )
        dead = slot.link
        dead_epoch: int | None = None
        if dead is not None:
            # the corpse's journal lives under its epoch; capture before
            # the fence bump renumbers the slot
            dead_epoch = dead.epoch
            # fence first: the corpse's epoch is now stale everywhere
            slot.fence.bump()
            # the successor's dedupe counter restarts at zero; bank the
            # corpse's total so the fleet sum stays monotonic
            slot.deduped_base += slot.last_deduped
            slot.last_deduped = 0
            await dead.aclose()
            slot.link = None
        # move its sessions to survivors before spending time respawning
        await self._failover_sessions(slot, dead_epoch)
        if self.respawn and not self._closed:
            if slot.restart_budget.spend():
                slot.restarts += 1
                self._restarts += 1
                try:
                    await self._spawn(slot)
                except GatewayConnectionError as exc:
                    slot.healthy = False
                    self._event(
                        "respawn_failed", f"shard {slot.index}: {exc}"
                    )
            else:
                self._event(
                    "restart_budget_exhausted",
                    f"shard {slot.index} stays down after "
                    f"{slot.restart_budget.limit} restarts",
                )

    def _read_dead_journal(
        self, slot: ShardSlot, dead_epoch: int | None
    ) -> dict[int, SessionReplay]:
        """The dead shard life's journal, keyed by *remote* session id.

        Returns ``{}`` when journaling is off or the log is unreadable --
        failover then falls back to the in-memory shadow history, exactly
        the pre-journal behaviour.
        """
        if dead_epoch is None:
            return {}
        path = slot.spec.journal_path(dead_epoch)
        if path is None:
            return {}
        replays, _raw = replay_sessions(path)
        return replays

    async def _failover_sessions(
        self, slot: ShardSlot, dead_epoch: int | None = None
    ) -> None:
        journal = self._read_dead_journal(slot, dead_epoch)
        doomed = sorted(slot.sessions)
        slot.sessions.clear()
        for sid in doomed:
            record = self._records.get(sid)
            if record is None or record.status != "active":
                continue
            self._adopt_journal(record, journal.get(record.remote_id))
            try:
                await self._place(record, record.history, planned=False)
            except GatewayError:
                continue  # _place already accounted the loss

    def _adopt_journal(
        self, record: SessionRecord, rep: SessionReplay | None
    ) -> None:
        """Prefer the dead shard's journaled history over the shadow.

        The journal saw every move the shard *applied*; the shadow only
        saw the ones whose replies made it back.  When the journal is
        longer, the extra plies are applied-but-unconfirmed moves: adopt
        the longer line (so the survivor replays the true position) and
        stash each such move's journaled reply under its rid's move_seq,
        WITHOUT advancing ``move_seq`` -- the client's retry of that seq
        is then answered from :attr:`SessionRecord.recovered_replies`
        instead of double-applying the move on the survivor.
        """
        if rep is None or not rep.open:
            return
        if len(rep.history) <= len(record.history):
            return
        if rep.history[: len(record.history)] != record.history:
            return  # journal disagrees with confirmed prefix: distrust it
        shadow_plies = len(record.history)
        record.history = list(rep.history)
        self._journal_preferred += 1
        self._event(
            "journal_preferred",
            f"session {record.session_id}: journal has "
            f"{len(rep.history)} plies vs shadow {shadow_plies}",
        )
        prefix = f"{record.session_id}."
        for move in rep.moves:
            rid = move.get("rid")
            if not isinstance(rid, str) or not rid.startswith(prefix):
                continue
            try:
                seq = int(rid[len(prefix):])
            except ValueError:
                continue
            if seq >= record.move_seq:
                record.recovered_replies[seq] = {
                    "engine_action": move.get("engine"),
                    "done": bool(move.get("done")),
                    "winner": move.get("winner"),
                }
        if self._journal is not None:
            # supersede the router journal's view with the adopted line
            self._journal.open_session(
                record.session_id, record.game, record.size, record.history
            )

    # -- placement / relocation -----------------------------------------------
    def _eligible(self) -> set[int]:
        return {s.index for s in self._slots if s.usable}

    async def _place(
        self,
        record: SessionRecord,
        actions: list[int],
        *,
        planned: bool,
    ) -> None:
        """(Re-)admit *record* on a surviving shard by replaying *actions*.

        Walks the ring's preference order so every surviving shard gets
        a chance before the session is declared lost.
        """
        sid = record.session_id
        for index in self.ring.preference(sid, self._eligible()):
            slot = self._slots[index]
            try:
                reply = await self._rpc(
                    slot,
                    {
                        "op": "restore",
                        "game": record.game,
                        "size": record.size,
                        "actions": list(actions),
                    },
                    key=(sid, "restore", record.readmissions),
                )
            except GatewayConnectionError:
                continue
            if not reply.get("ok"):
                # e.g. shard full (503): try the next survivor
                continue
            if reply.get("done"):
                # replayed line is already terminal: the game ended with
                # the move whose reply the crash swallowed
                record.status = "completed"
                record.winner = reply.get("winner")
                record.shard_index = -1
                self._completed += 1
                self._event(
                    "relocate_terminal",
                    f"session {sid} finished during restore on shard {index}",
                )
                if self._journal is not None:
                    self._journal.close_session(sid, "completed")
                return
            record.shard_index = index
            record.remote_id = int(reply["session"])
            record.readmissions += 1
            slot.sessions.add(sid)
            if planned:
                self._drained += 1
            else:
                self._readmitted += 1
            self._event(
                "relocate",
                f"session {sid} -> shard {index} "
                f"({'drain' if planned else 'failover'}, "
                f"{len(actions)} plies replayed)",
            )
            return
        record.status = "lost"
        record.shard_index = -1
        self._lost += 1
        self._relocation_failures += 1
        self._event("session_lost", f"session {sid}: no surviving shard")
        if self._journal is not None:
            self._journal.close_session(sid, "lost")
        raise GatewayConnectionError(
            f"session {sid} could not be re-admitted: no surviving shard"
        )

    # -- hardened RPC ---------------------------------------------------------
    async def _rpc(
        self, slot: ShardSlot, payload: dict, *, key: tuple
    ) -> dict:
        """One logical RPC with bounded, deterministically-jittered retries.

        Retries stay on the *same* shard: transient transport faults
        (lost reply, torn line) heal here, and the stable rid in
        *payload* makes a healed retry deduplicate server-side.  A shard
        that is actually down (no live link) fails fast so the caller
        can relocate instead of burning the backoff schedule.
        """
        delays = self.backoff.delays(self.seed, *(_hash64(str(k)) for k in key))
        while True:
            link = slot.link
            if link is None or not link.alive:
                self._rpc_failures += 1
                raise GatewayConnectionError(
                    f"shard {slot.index} is down (epoch {slot.fence.current})"
                )
            try:
                return await link.request(
                    payload, timeout_s=self.rpc_timeout_s
                )
            except GatewayConnectionError:
                self._rpc_failures += 1
                delay = next(delays, None)
                if delay is None or not link.alive:
                    raise
                self._move_retries += 1
                await self.clock.sleep(delay)

    # -- serving surface ------------------------------------------------------
    def _require(self, session_id: int) -> SessionRecord:
        record = self._records.get(session_id)
        if record is None or record.status != "active":
            raise SessionNotFound(f"no active cluster session {session_id}")
        return record

    async def create_session(
        self, game: str = "tictactoe", size: int | None = None
    ) -> int:
        """Open a session somewhere in the fleet; returns its cluster id
        (stable across relocations -- clients never see shard ids)."""
        if self._closed:
            raise GatewayError("router is closed")
        sid = self._next_sid
        self._next_sid += 1
        record = SessionRecord(sid, game, size)
        last_error: GatewayError | None = None
        for index in self.ring.preference(sid, self._eligible()):
            slot = self._slots[index]
            try:
                reply = await self._rpc(
                    slot,
                    {"op": "new", "game": game, "size": size},
                    key=(sid, "new"),
                )
            except GatewayConnectionError as exc:
                last_error = exc
                continue
            if not reply.get("ok"):
                last_error = self._typed_error(reply)
                if reply.get("code") == 503:
                    continue  # spill over to the next shard on the ring
                break
            record.shard_index = index
            record.remote_id = int(reply["session"])
            self._records[sid] = record
            slot.sessions.add(sid)
            self._admitted += 1
            self._event("admit", f"session {sid} -> shard {index}")
            if self._journal is not None:
                self._journal.open_session(sid, game, size, [])
            return sid
        self._rejected += 1
        raise last_error or GatewayOverloaded("no healthy shard available")

    def _answer_recovered(self, record: SessionRecord, recovered: dict) -> dict:
        """Answer a retried move from a dead shard's journaled reply.

        The move already applied on the shard that died (its actions are
        in the adopted history); re-sending it to the survivor would
        double-apply.  The reply is synthesized from the journal record
        -- no search runs, no history is appended.
        """
        sid = record.session_id
        record.move_seq += 1
        self._journal_replies_recovered += 1
        self._moves += 1
        done = bool(recovered.get("done"))
        if done and record.status == "active":
            record.status = "completed"
            record.winner = recovered.get("winner")
            if 0 <= record.shard_index < len(self._slots):
                self._slots[record.shard_index].sessions.discard(sid)
            record.shard_index = -1
            self._completed += 1
            if self._journal is not None:
                self._journal.close_session(sid, "completed")
        self._event(
            "reply_recovered",
            f"session {sid} move {record.move_seq - 1} answered from journal",
        )
        return {
            "ok": True,
            "session": sid,
            "engine_action": recovered.get("engine_action"),
            "done": done,
            "winner": recovered.get("winner"),
            "recovered": True,
        }

    async def play_move(
        self,
        session_id: int,
        action: int | None = None,
        deadline_ms: float | None = None,
    ) -> dict:
        """Serve one move, relocating the session if its shard died.

        The logical move keeps one request id across every transport
        retry *and* every relocation, so it applies exactly once on
        whichever shard finally serves it.
        """
        record = self._records.get(session_id)
        if record is not None and record.recovered_replies:
            recovered = record.recovered_replies.pop(record.move_seq, None)
            if recovered is not None:
                return self._answer_recovered(record, recovered)
        record = self._require(session_id)
        rid = f"{session_id}.{record.move_seq}"
        t0 = self.clock.monotonic()
        for _ in range(len(self._slots) + 1):
            if record.recovered_replies:
                # a failover adopted the dead shard's journal while this
                # move was mid-retry: the move already applied there, so
                # answer from the journaled reply instead of re-sending
                recovered = record.recovered_replies.pop(record.move_seq, None)
                if recovered is not None:
                    return self._answer_recovered(record, recovered)
            if record.shard_index < 0 or not self._slots[record.shard_index].usable:
                await self._place(record, record.history, planned=False)
            slot = self._slots[record.shard_index]
            payload = {
                "op": "move",
                "session": record.remote_id,
                "action": action,
                "rid": rid,
            }
            if deadline_ms is not None:
                payload["deadline_ms"] = deadline_ms
            try:
                reply = await self._rpc(
                    slot, payload, key=(session_id, record.move_seq)
                )
            except GatewayConnectionError:
                continue  # loop re-places on a survivor and retries
            if not reply.get("ok"):
                if reply.get("code") == 404:
                    # the shard lost the session under us (idle-expired or
                    # a restore we did not perform) -- replay it in place
                    await self._place(record, record.history, planned=False)
                    continue
                raise self._typed_error(reply)
            # success: extend the shadow history with confirmed actions
            applied: list[int] = []
            if action is not None:
                applied.append(int(action))
            engine_action = reply.get("engine_action")
            if engine_action is not None:
                applied.append(int(engine_action))
            record.history.extend(applied)
            record.move_seq += 1
            elapsed = self.clock.monotonic() - t0
            slot.latency.record(elapsed)
            self.latency.record(elapsed)
            self._moves += 1
            done = bool(reply.get("done"))
            if self._journal is not None:
                self._journal.move(
                    session_id, rid, applied, engine_action, done,
                    reply.get("winner"),
                )
                if done:
                    self._journal.close_session(session_id, "completed")
            if done:
                record.status = "completed"
                record.winner = reply.get("winner")
                slot.sessions.discard(session_id)
                record.shard_index = -1
                self._completed += 1
            reply["session"] = session_id  # cluster id, not the shard's
            return reply
        record.status = "lost"
        record.shard_index = -1
        self._lost += 1
        self._event("session_lost", f"session {session_id}: retries exhausted")
        if self._journal is not None:
            self._journal.close_session(session_id, "lost")
        raise GatewayConnectionError(
            f"session {session_id}: no shard could serve move {rid}"
        )

    async def resign(self, session_id: int) -> str:
        """Close a session.  Router-side disposition is authoritative: a
        dead shard's copy is unreachable and will never act again, so
        the record resigns even when the RPC cannot be delivered."""
        record = self._require(session_id)
        if 0 <= record.shard_index < len(self._slots):
            slot = self._slots[record.shard_index]
            slot.sessions.discard(session_id)
            if slot.usable:
                try:
                    await self._rpc(
                        slot,
                        {"op": "resign", "session": record.remote_id},
                        key=(session_id, "resign"),
                    )
                except GatewayConnectionError:
                    pass
        record.status = "resigned"
        record.shard_index = -1
        self._resigned += 1
        if self._journal is not None:
            self._journal.close_session(session_id, "resigned")
        return "resigned"

    # -- draining (used directly and by rollout) ------------------------------
    async def drain_shard(self, index: int, *, resume: bool = False) -> int:
        """Gracefully drain shard *index*: stop admissions, let in-flight
        moves finish, re-admit its sessions on the rest of the fleet.

        Returns the number of sessions relocated.  With ``resume=True``
        the shard re-opens for admissions afterwards (planned
        maintenance); rollout leaves it draining until the weight swap
        lands.
        """
        slot = self._slots[index]
        slot.draining = True
        self._event("drain_begin", f"shard {index}")
        reply = await self._rpc(slot, {"op": "drain"}, key=(index, "drain"))
        if not reply.get("ok"):
            raise self._typed_error(reply)
        exported = reply.get("drained", [])
        by_remote = {
            record.remote_id: record
            for record in self._records.values()
            if record.status == "active" and record.shard_index == index
        }
        moved = 0
        for item in exported:
            record = by_remote.pop(int(item["session"]), None)
            if record is None:
                continue  # a session the router never placed (orphan)
            # the export is authoritative: it includes moves whose replies
            # were lost and never retried, which the shadow cannot know
            record.history = [int(a) for a in item.get("actions", [])]
            record.shard_index = -1
            if self._journal is not None:
                self._journal.open_session(
                    record.session_id, record.game, record.size, record.history
                )
            try:
                await self._place(record, record.history, planned=True)
                moved += 1
            except GatewayError:
                continue  # loss already accounted by _place
        slot.sessions.clear()
        self._event("drain_done", f"shard {index}: {moved} sessions moved")
        if resume:
            await self.resume_shard(index)
        return moved

    async def resume_shard(self, index: int) -> None:
        slot = self._slots[index]
        reply = await self._rpc(slot, {"op": "resume"}, key=(index, "resume"))
        if not reply.get("ok"):
            raise self._typed_error(reply)
        slot.draining = False
        self._event("resume", f"shard {index}")

    # -- faults (test/ops surface) --------------------------------------------
    def kill_shard(self, index: int) -> None:
        """Hard-kill a shard's link (chaos move).  Detection and failover
        happen through the normal health/RPC paths, not here."""
        slot = self._slots[index]
        link = slot.link
        if link is not None and hasattr(link, "kill"):
            link.kill()
        self._event("kill", f"shard {index} epoch {slot.fence.current}")

    # -- telemetry ------------------------------------------------------------
    def _typed_error(self, reply: dict) -> GatewayError:
        code = reply.get("code", 400)
        message = str(reply.get("error", "gateway error"))
        cls = {
            404: SessionNotFound,
            422: InvalidMove,
            502: GatewayConnectionError,
            503: GatewayOverloaded,
        }.get(code, GatewayError)
        return cls(message)

    async def refresh_shard_stats(self) -> None:
        """Pull per-shard counters the router cannot observe (dedupes,
        weight versions) from every live shard."""
        for slot in self._slots:
            if not slot.alive:
                continue
            try:
                reply = await slot.link.request(
                    {"op": "stats"}, timeout_s=self._health_timeout_s
                )
            except GatewayConnectionError:
                continue
            if not reply.get("ok"):
                continue
            stats = reply.get("stats", {})
            slot.last_deduped = int(stats.get("deduped_replies", 0))
            slot.weights_version = stats.get("weights_version")
            slot.journal_errors = int(stats.get("journal_errors", 0))

    def stats(self) -> ClusterStats:
        active = sum(
            1 for r in self._records.values() if r.status == "active"
        )
        snapshots = tuple(
            ShardSnapshot(
                shard_id=slot.index,
                epoch=slot.fence.current,
                healthy=slot.healthy,
                draining=slot.draining,
                alive=slot.alive,
                sessions=len(slot.sessions),
                restarts=slot.restarts,
                consecutive_failures=slot.consecutive_failures,
                weights_version=slot.weights_version,
                latency_p50_ms=slot.latency.percentile(50) * 1e3,
                latency_p99_ms=slot.latency.percentile(99) * 1e3,
            )
            for slot in self._slots
        )
        return ClusterStats(
            shards_total=len(self._slots),
            shards_healthy=sum(1 for s in self._slots if s.usable),
            sessions_admitted=self._admitted,
            sessions_active=active,
            sessions_completed=self._completed,
            sessions_resigned=self._resigned,
            sessions_lost=self._lost,
            sessions_rejected=self._rejected,
            sessions_drained=self._drained,
            sessions_readmitted=self._readmitted,
            relocation_failures=self._relocation_failures,
            moves_served=self._moves,
            move_retries=self._move_retries,
            rpc_failures=self._rpc_failures,
            deduped_replies=sum(
                s.deduped_base + s.last_deduped for s in self._slots
            ),
            shard_restarts=self._restarts,
            rollouts_completed=self._rollouts,
            rollout_rejections=self._rollout_rejections,
            latency_p50_ms=self.latency.percentile(50) * 1e3,
            latency_p95_ms=self.latency.percentile(95) * 1e3,
            latency_p99_ms=self.latency.percentile(99) * 1e3,
            latency_mean_ms=self.latency.mean * 1e3,
            sessions_recovered=self._sessions_recovered,
            journal_preferred=self._journal_preferred,
            journal_replies_recovered=self._journal_replies_recovered,
            journal_errors=sum(s.journal_errors for s in self._slots)
            + (self._journal.io_errors if self._journal is not None else 0),
            shards=snapshots,
        )
