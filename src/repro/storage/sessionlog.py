"""The session-event schema the serving layer journals in.

Both durable logs in the serving stack -- the gateway's per-session
move journal and the router's placement journal -- speak the same three
events over a :class:`~repro.storage.journal.JournalWriter`:

- ``open``  -- a session was admitted (``history`` non-empty when it
  arrived via ``restore``); an ``open`` for an already-known sid
  *supersedes* the previous state, which is what makes snapshot
  compaction safe mid-crash.
- ``move``  -- one completed logical move: the idempotent request id it
  rode in on (PR 7's ``rid``), every action it applied (client and/or
  engine), and the reply essentials (``engine``/``done``/``winner``) so
  a survivor can answer a retry of a move whose reply died with the
  shard.
- ``close`` -- the session left the table (finished / resigned /
  expired / drained / lost).

:func:`replay_sessions` folds a journal directory back into per-session
state; corruption never raises -- the torn tail is dropped by the
journal layer and surfaced in the returned
:class:`~repro.storage.journal.JournalReadResult`.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field

from repro.storage.journal import JournalReadResult, JournalWriter, read_journal

__all__ = ["SessionJournal", "SessionReplay", "replay_sessions"]


@dataclass
class SessionReplay:
    """One session's state as reconstructed from the journal."""

    sid: int
    game: str | None = None
    size: int | None = None
    #: every action applied, in order (the restore-op replay script)
    history: list[int] = field(default_factory=list)
    #: completed logical moves since the last ``open`` record, each
    #: ``{"rid", "actions", "engine", "done", "winner"}``
    moves: list[dict] = field(default_factory=list)
    status: str = "open"

    @property
    def open(self) -> bool:
        return self.status == "open"


def replay_sessions(
    directory: str | os.PathLike,
) -> tuple[dict[int, SessionReplay], JournalReadResult]:
    """Fold a session journal into ``{sid: SessionReplay}`` plus the raw
    read result (for truncation/drop telemetry).  Closed sessions stay
    in the map with their terminal status so callers can distinguish
    "finished cleanly" from "never heard of"."""
    raw = read_journal(directory)
    sessions: dict[int, SessionReplay] = {}
    for payload in raw.records:
        try:
            event = json.loads(payload)
            ev = event["ev"]
            sid = int(event["sid"])
        except (ValueError, KeyError, TypeError):
            continue  # foreign record in the stream: skip, don't die
        if ev == "open":
            sessions[sid] = SessionReplay(
                sid=sid,
                game=event.get("game"),
                size=event.get("size"),
                history=[int(a) for a in event.get("history", [])],
            )
        elif ev == "move":
            replay = sessions.get(sid)
            if replay is None or not replay.open:
                continue
            actions = [int(a) for a in event.get("actions", [])]
            replay.history.extend(actions)
            replay.moves.append(
                {
                    "rid": event.get("rid"),
                    "actions": actions,
                    "engine": event.get("engine"),
                    "done": bool(event.get("done", False)),
                    "winner": event.get("winner"),
                }
            )
        elif ev == "close":
            replay = sessions.get(sid)
            if replay is not None:
                replay.status = str(event.get("status", "closed"))
    return sessions, raw


def _encode(event: dict) -> bytes:
    return json.dumps(event, separators=(",", ":")).encode()


class SessionJournal:
    """Typed facade over a :class:`JournalWriter` for session events.

    Mirrors the writer's degradation contract: every method returns
    ``False`` instead of raising once the underlying log hits an IO
    error, and :attr:`io_errors` / :attr:`disabled` surface the state
    for stats.  Safe to call from several threads: writer calls are
    serialised under one lock.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        fsync: str = "batched",
        segment_bytes: int = 1 << 20,
        batch_interval_s: float = 0.05,
    ) -> None:
        self._writer = JournalWriter(
            directory,
            fsync=fsync,
            segment_bytes=segment_bytes,
            batch_interval_s=batch_interval_s,
        )
        self._lock = threading.Lock()

    # -- pass-through telemetry ------------------------------------------------
    @property
    def directory(self):
        return self._writer.directory

    @property
    def fsync(self) -> str:
        return self._writer.fsync

    @property
    def disabled(self) -> bool:
        return self._writer.disabled

    @property
    def io_errors(self) -> int:
        return self._writer.io_errors

    @property
    def records_written(self) -> int:
        return self._writer.records_written

    # -- events ----------------------------------------------------------------
    def open_session(
        self,
        sid: int,
        game: str | None,
        size: int | None,
        history: list[int] | None = None,
    ) -> bool:
        return self._append(
            _encode(
                {
                    "ev": "open",
                    "sid": int(sid),
                    "game": game,
                    "size": size,
                    "history": [int(a) for a in (history or [])],
                }
            )
        )

    def move(
        self,
        sid: int,
        rid: str | None,
        actions: list[int],
        engine: int | None,
        done: bool,
        winner: int | None,
    ) -> bool:
        return self._append(
            _encode(
                {
                    "ev": "move",
                    "sid": int(sid),
                    "rid": rid,
                    "actions": [int(a) for a in actions],
                    "engine": None if engine is None else int(engine),
                    "done": bool(done),
                    "winner": None if winner is None else int(winner),
                }
            )
        )

    def close_session(self, sid: int, status: str) -> bool:
        return self._append(
            _encode({"ev": "close", "sid": int(sid), "status": str(status)})
        )

    def _append(self, payload: bytes) -> bool:
        with self._lock:
            return self._writer.append(payload)

    # -- maintenance -----------------------------------------------------------
    def snapshot(self, sessions: list[SessionReplay]) -> bool:
        """Compact the log to one ``open`` record per live session."""
        records = [
            _encode(
                {
                    "ev": "open",
                    "sid": int(s.sid),
                    "game": s.game,
                    "size": s.size,
                    "history": [int(a) for a in s.history],
                }
            )
            for s in sessions
            if s.open
        ]
        with self._lock:
            return self._writer.compact(records)

    def sync(self) -> bool:
        with self._lock:
            return self._writer.sync()

    def close(self) -> None:
        with self._lock:
            self._writer.close()
