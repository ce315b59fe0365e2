"""Gateway move journal: crash recovery, graceful shutdown, shutdown
edge cases (bus close mid-search, journaling-off restarts)."""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.mcts import UniformEvaluator
from repro.serving import MatchGateway, SessionNotFound
from repro.storage import SessionJournal, read_journal, replay_sessions


def make_gateway(**kwargs) -> MatchGateway:
    defaults = dict(workers=2, deadline_ms=200.0, num_playouts=16, seed=0)
    defaults.update(kwargs)
    return MatchGateway(UniformEvaluator(), **defaults)


def journaling_gateway(tmp_path, **kwargs):
    kwargs.setdefault("journal_dir", tmp_path / "journal")
    kwargs.setdefault("journal_fsync", "per-move")
    return make_gateway(**kwargs)


class TestCrashRecovery:
    def test_kill_recovers_every_session_at_exact_position(self, tmp_path):
        async def crash_phase():
            gw = await journaling_gateway(tmp_path).start()
            sids = [await gw.create_session("tictactoe") for _ in range(3)]
            for ply, sid in enumerate(sids):
                for _ in range(ply + 1):
                    await gw.play_move(sid)
            histories = {s: list(gw._sessions[s].history) for s in sids}
            # hard crash: no aclose, no flush -- per-move fsync means the
            # journal on disk is already complete
            return sids, histories

        async def recover_phase(sids, histories):
            gw = await journaling_gateway(tmp_path).start()
            try:
                stats = gw.stats()
                assert stats.journal_recovered == len(sids)
                assert stats.journal_unrecoverable == 0
                # original ids, exact histories
                for sid in sids:
                    assert list(gw._sessions[sid].history) == histories[sid]
                # recovered sessions keep serving, ids never collide
                fresh = await gw.create_session("tictactoe")
                assert fresh > max(sids)
                reply = await gw.play_move(sids[0])
                assert reply.engine_action is not None
            finally:
                await gw.aclose()

        sids, histories = asyncio.run(crash_phase())
        asyncio.run(recover_phase(sids, histories))

    def test_finished_sessions_are_not_resurrected(self, tmp_path):
        async def run():
            gw = await journaling_gateway(tmp_path).start()
            sid = await gw.create_session("tictactoe")
            while not (await gw.play_move(sid)).done:
                pass
            gw2 = await journaling_gateway(tmp_path).start()
            try:
                assert gw2.stats().journal_recovered == 0
                with pytest.raises(SessionNotFound):
                    await gw2.play_move(sid)
            finally:
                await gw2.aclose()
                await gw.aclose()

        asyncio.run(run())

    def test_torn_journal_tail_recovers_prefix(self, tmp_path):
        async def crash_phase():
            gw = await journaling_gateway(tmp_path).start()
            sid = await gw.create_session("tictactoe")
            await gw.play_move(sid)
            await gw.play_move(sid)
            return sid, list(gw._sessions[sid].history)

        async def recover_phase(sid, history):
            gw = await journaling_gateway(tmp_path).start()
            try:
                assert gw.stats().journal_recovered == 1
                got = list(gw._sessions[sid].history)
                # the torn final record (second move) is gone; everything
                # checksummed before it is intact
                assert got == history
            finally:
                await gw.aclose()

        sid, history = asyncio.run(crash_phase())
        journal = tmp_path / "journal"
        (seg,) = sorted(journal.glob("seg-*.wal"))
        data = seg.read_bytes()
        seg.write_bytes(data[:-9])  # crash mid-append of the last record
        before = read_journal(journal)
        assert before.truncated
        # replaying by hand: the final move record (one engine ply) is gone
        asyncio.run(recover_phase(sid, history[:-1]))

    def test_recovery_replays_legally_or_counts_unrecoverable(self, tmp_path):
        async def crash_phase():
            gw = await journaling_gateway(tmp_path).start()
            sid = await gw.create_session("tictactoe")
            await gw.play_move(sid)
            return sid

        sid = asyncio.run(crash_phase())
        # corrupt the *semantics* (an illegal duplicate action), leaving
        # checksums valid: recovery must refuse the session, not crash
        from repro.storage import SessionJournal

        journal = SessionJournal(tmp_path / "journal", fsync="per-move")
        journal.move(sid, None, [0, 0], 0, False, None)
        journal.close()

        async def recover_phase():
            gw = await journaling_gateway(tmp_path).start()
            try:
                stats = gw.stats()
                assert stats.journal_recovered == 0
                assert stats.journal_unrecoverable == 1
                assert sid not in gw._sessions
            finally:
                await gw.aclose()

        asyncio.run(recover_phase())


def test_moves_are_journaled_off_the_event_loop_before_the_reply(
    tmp_path, monkeypatch
):
    """A record's write(2) releases the GIL, and taking it back from busy
    searches would stall the event loop, so move records are appended on
    the journal thread; the reply still waits until its record is in."""
    appenders = []
    move = SessionJournal.move

    def spy(self, *args):
        appenders.append(threading.get_ident())
        return move(self, *args)

    monkeypatch.setattr(SessionJournal, "move", spy)

    async def run():
        async with journaling_gateway(tmp_path) as gw:
            sid = await gw.create_session("tictactoe")
            for ply in range(1, 4):
                await gw.play_move(sid)
                replays, _ = replay_sessions(tmp_path / "journal")
                assert len(replays[sid].history) == ply

    asyncio.run(run())
    assert len(appenders) == 3
    assert threading.get_ident() not in appenders


class TestGracefulShutdown:
    def test_export_plus_journal_shutdown_loses_nothing(self, tmp_path):
        """SIGTERM path: quiesce, export, snapshot -- even with fsync=off
        the shutdown flush makes every live session recoverable."""

        async def serve_phase():
            gw = await journaling_gateway(
                tmp_path, journal_fsync="off"
            ).start()
            sids = [await gw.create_session("tictactoe") for _ in range(4)]
            for sid in sids:
                await gw.play_move(sid)
            exported = await gw.export_sessions()
            assert gw.journal_shutdown(exported)
            await gw.aclose()
            return sids

        async def restart_phase(sids):
            gw = await journaling_gateway(tmp_path).start()
            try:
                assert gw.stats().journal_recovered == len(sids)
                for sid in sids:
                    assert len(gw._sessions[sid].history) == 1
            finally:
                await gw.aclose()

        sids = asyncio.run(serve_phase())
        asyncio.run(restart_phase(sids))

    def test_journal_off_restart_reports_sessions_cleanly(self, tmp_path):
        """Without a journal, a restart loses sessions -- the failure mode
        must be an immediate SessionNotFound, never a hang."""

        async def run():
            gw = await make_gateway().start()
            sid = await gw.create_session("tictactoe")
            await gw.play_move(sid)
            await gw.aclose()

            gw2 = await make_gateway().start()
            try:
                assert gw2.stats().journal_enabled is False
                with pytest.raises(SessionNotFound):
                    await asyncio.wait_for(gw2.play_move(sid), timeout=5.0)
            finally:
                await gw2.aclose()

        asyncio.run(run())


CLI = [sys.executable, "-m", "repro", "serve", "--evaluator", "uniform",
       "--port", "0", "--deadline-ms", "100"]


def _spawn_serve(journal_dir):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return subprocess.Popen(
        CLI + ["--journal-dir", str(journal_dir), "--journal-fsync",
               "per-move"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )


def _await_line(proc, needle, timeout=30.0):
    deadline = time.monotonic() + timeout
    lines = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        lines.append(line)
        if needle in line:
            return line
    raise AssertionError(f"{needle!r} not seen in: {''.join(lines)}")


@pytest.mark.slow
def test_kill_dash_nine_gateway_process_recovers_sessions(tmp_path):
    """The acceptance path end to end: SIGKILL a journaling `repro serve`
    process mid-session; a restart on the same journal dir re-admits the
    session at its exact position."""
    proc = _spawn_serve(tmp_path / "j")
    try:
        line = _await_line(proc, "listening on")
        port = int(line.rsplit(":", 1)[1].split()[0])

        async def play():
            from repro.serving import GatewayClient

            client = await GatewayClient.connect("127.0.0.1", port)
            sid = await client.new_match("tictactoe", None)
            for _ in range(2):
                await client.move(sid, deadline_ms=100)
            await client.aclose()
            return sid

        sid = asyncio.run(play())
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.communicate(timeout=30)

    proc2 = _spawn_serve(tmp_path / "j")
    try:
        line = _await_line(proc2, "recovered")
        assert "recovered 1 sessions" in line
    finally:
        proc2.send_signal(signal.SIGTERM)
        out, _ = proc2.communicate(timeout=30)
    assert "graceful shutdown" in out
