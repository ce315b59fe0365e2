"""Write-ahead log contract: torn tails, bit flips, rotation, compaction,
and graceful degradation when the filesystem fails."""

from __future__ import annotations

import os
import sys
import threading

import pytest

from repro.storage import JournalWriter, SessionJournal, read_journal, replay_sessions
from repro.storage.journal import _HEADER


def _records(n, size=40):
    return [bytes([i % 256]) * size for i in range(n)]


def _segments(directory):
    return sorted(p for p in os.listdir(directory) if p.endswith(".wal"))


def test_append_read_roundtrip(tmp_path):
    payloads = _records(20)
    with JournalWriter(tmp_path, fsync="per-move") as writer:
        for payload in payloads:
            assert writer.append(payload)
        assert writer.records_written == 20
    result = read_journal(tmp_path)
    assert result.records == payloads
    assert not result.truncated
    assert result.dropped_bytes == 0


@pytest.mark.parametrize("cut", [1, _HEADER - 1, _HEADER + 3])
def test_torn_tail_recovers_full_prefix(tmp_path, cut):
    payloads = _records(10)
    with JournalWriter(tmp_path, fsync="per-move") as writer:
        for payload in payloads:
            writer.append(payload)
    (seg,) = _segments(tmp_path)
    path = tmp_path / seg
    data = path.read_bytes()
    # crash mid-append: the final record is cut `cut` bytes in
    record_size = _HEADER + len(payloads[-1])
    path.write_bytes(data[: len(data) - record_size + cut])

    result = read_journal(tmp_path)
    assert result.records == payloads[:-1]
    assert result.truncated
    assert result.dropped_bytes == cut


def test_reopen_repairs_torn_tail_and_continues(tmp_path):
    payloads = _records(6)
    with JournalWriter(tmp_path, fsync="per-move") as writer:
        for payload in payloads:
            writer.append(payload)
    (seg,) = _segments(tmp_path)
    path = tmp_path / seg
    path.write_bytes(path.read_bytes()[:-7])  # torn final record

    with JournalWriter(tmp_path, fsync="per-move") as writer:
        writer.append(b"after-crash")
    result = read_journal(tmp_path)
    # lost exactly the torn record; the post-repair append reads cleanly
    assert result.records == payloads[:-1] + [b"after-crash"]
    assert not result.truncated


def test_bit_flip_stops_replay_at_corruption(tmp_path):
    payloads = _records(10)
    with JournalWriter(tmp_path, fsync="per-move") as writer:
        for payload in payloads:
            writer.append(payload)
    (seg,) = _segments(tmp_path)
    path = tmp_path / seg
    data = bytearray(path.read_bytes())
    # flip one payload bit inside record 4
    record_size = _HEADER + len(payloads[0])
    data[4 * record_size + _HEADER + 5] ^= 0x10
    path.write_bytes(bytes(data))

    result = read_journal(tmp_path)
    # every record before the flip is intact by checksum; everything at
    # and after it is dropped -- framing past a corrupt region is a lie
    assert result.records == payloads[:4]
    assert result.truncated
    assert result.dropped_bytes == 6 * record_size


def test_corruption_drops_later_segments_too(tmp_path):
    payloads = _records(30, size=100)
    with JournalWriter(tmp_path, fsync="per-move", segment_bytes=600) as writer:
        for payload in payloads:
            writer.append(payload)
    segs = _segments(tmp_path)
    assert len(segs) >= 3
    first = tmp_path / segs[0]
    data = bytearray(first.read_bytes())
    data[_HEADER + 1] ^= 0x01  # corrupt the very first record
    first.write_bytes(bytes(data))

    result = read_journal(tmp_path)
    assert result.records == []
    assert result.truncated
    total = sum((tmp_path / s).stat().st_size for s in segs)
    assert result.dropped_bytes == total


def test_rotation_preserves_order_across_segments(tmp_path):
    payloads = _records(50, size=64)
    with JournalWriter(tmp_path, fsync="off", segment_bytes=512) as writer:
        for payload in payloads:
            writer.append(payload)
        assert writer.rotations > 0
    assert len(_segments(tmp_path)) == read_journal(tmp_path).segments > 1
    assert read_journal(tmp_path).records == payloads


def test_compaction_bounds_disk_same_replay(tmp_path):
    with JournalWriter(tmp_path, fsync="per-move", segment_bytes=512) as writer:
        for payload in _records(50, size=64):
            writer.append(payload)
        before = len(_segments(tmp_path))
        assert writer.compact([b"snapshot-1", b"snapshot-2"])
        # snapshot lives alone in a fresh segment; old history unlinked
        assert len(_segments(tmp_path)) == 1 < before
        writer.append(b"post-compaction")
    result = read_journal(tmp_path)
    assert result.records == [b"snapshot-1", b"snapshot-2", b"post-compaction"]


def test_io_error_degrades_instead_of_raising(tmp_path):
    writer = JournalWriter(tmp_path, fsync="per-move")
    assert writer.append(b"ok")
    # ENOSPC mid-flight: the fh is closed under the writer, so the next
    # write raises -- serving must see a False, never an exception
    writer._fh.close()
    assert writer.append(b"doomed") is False
    assert writer.disabled
    assert writer.io_errors == 1
    # every later append is a cheap no-op, still not raising
    assert writer.append(b"also-doomed") is False
    assert writer.io_errors == 1
    assert writer.sync() is False
    assert writer.compact([b"snap"]) is False
    writer.close()
    # what made it to disk before the failure is still replayable
    assert read_journal(tmp_path).records == [b"ok"]


@pytest.mark.parametrize("policy", ["per-move", "batched", "off"])
def test_all_fsync_policies_roundtrip(tmp_path, policy):
    with JournalWriter(tmp_path / policy, fsync=policy) as writer:
        for payload in _records(5):
            assert writer.append(payload)
    assert read_journal(tmp_path / policy).records == _records(5)


def test_bad_policy_rejected(tmp_path):
    with pytest.raises(ValueError):
        JournalWriter(tmp_path, fsync="eventually")


def test_session_journal_serialises_concurrent_writers(tmp_path):
    """The gateway appends moves from its journal thread while the event
    loop appends opens and closes: no record may be lost or torn, even
    across segment rotations."""
    writers, moves = 4, 150
    journal = SessionJournal(tmp_path, fsync="off", segment_bytes=2048)

    def write(sid):
        journal.open_session(sid, "tictactoe", None)
        for ply in range(moves):
            journal.move(sid, None, [ply], None, False, None)
        journal.close_session(sid, "finished")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=write, args=(sid,)) for sid in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    journal.close()

    assert journal.io_errors == 0
    assert journal.records_written == writers * (moves + 2)
    replays, raw = replay_sessions(tmp_path)
    assert not raw.truncated and raw.dropped_bytes == 0
    assert sorted(replays) == list(range(writers))
    for replay in replays.values():
        assert replay.history == list(range(moves))
