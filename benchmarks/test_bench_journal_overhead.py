"""E19 -- move-journal durability overhead at the gateway.

The durable-state layer journals every completed move before the reply
leaves the gateway, which puts a disk write (and, per policy, an fsync)
on the serving path.  This benchmark drives 16 concurrent
engine-vs-engine sessions through the in-process gateway three times on
the same host -- journal off, ``batched`` fsync, ``per-move`` fsync --
and compares the end-to-end move latency distributions.

Why ``batched`` is the default the gate protects: its fsync fires at
most once per 50 ms *window*, piggybacked on whichever append crosses
the boundary, so the synchronous cost added to a typical move is one
buffered ``write(2)`` of a ~100-byte record -- microseconds against a
multi-millisecond search.  ``per-move`` pays a real fsync on every
move; that is the power-loss-proof configuration and its cost is
reported, not gated, because it is a choice the operator makes with
open eyes.

Gates:

- every journaled row actually journaled (records > 0, no IO errors);
- batched-fsync p99 must stay within ``JOURNAL_OVERHEAD_FACTOR`` (1.15x)
  of the journal-off p99 from the same run, plus a small absolute guard
  for timer granularity on noisy CI hosts.

Writes ``out/E19_journal_overhead`` (per-policy p50/p95/p99, journaled
record counts, on-disk bytes) for the nightly artifact.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.mcts import UniformEvaluator
from repro.serving import MatchGateway

SESSIONS = 16
DEADLINE_MS = 150.0
PLAYOUTS = 32  # uniform evaluator: multi-ms searches without net cost
JOURNAL_OVERHEAD_FACTOR = 1.15  # the acceptance gate: batched vs off
ABS_SLACK_MS = 0.5  # timer granularity guard; tiny vs multi-ms moves
POLICIES = ("off-journal", "batched", "per-move")


async def _drive_round(gateway: MatchGateway) -> None:
    async def one_session() -> None:
        session = await gateway.create_session("connect4")
        while True:
            reply = await gateway.play_move(session, deadline_ms=DEADLINE_MS)
            if reply.done:
                return

    await asyncio.gather(*[one_session() for _ in range(SESSIONS)])


def _dir_bytes(path) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


def measure(policy: str, journal_root) -> dict:
    journal_dir = None if policy == "off-journal" else journal_root / policy
    gateway = MatchGateway(
        UniformEvaluator(),
        workers=SESSIONS,
        deadline_ms=DEADLINE_MS,
        num_playouts=PLAYOUTS,
        max_inflight=SESSIONS,
        seed=7,
        journal_dir=journal_dir,
        journal_fsync=policy if journal_dir is not None else "batched",
    )

    async def run() -> None:
        async with gateway:
            await _drive_round(gateway)

    asyncio.run(run())
    stats = gateway.stats()
    return {
        "policy": policy,
        "sessions": SESSIONS,
        "moves": stats.moves_served,
        "p50_ms": round(stats.latency_p50_ms, 2),
        "p95_ms": round(stats.latency_p95_ms, 2),
        "p99_ms": round(stats.latency_p99_ms, 2),
        "journal_records": stats.journal_records,
        "journal_errors": stats.journal_errors,
        "journal_bytes": _dir_bytes(journal_dir) if journal_dir else 0,
    }


@pytest.fixture(scope="module")
def overhead_rows(tmp_path_factory):
    root = tmp_path_factory.mktemp("e19-journal")
    return [measure(policy, root) for policy in POLICIES]


def _row(rows, policy: str) -> dict:
    return next(r for r in rows if r["policy"] == policy)


def test_journal_overhead_table(overhead_rows, emit):
    emit(
        "E19_journal_overhead",
        overhead_rows,
        note=f"{SESSIONS} engine-vs-engine connect4 sessions, uniform "
        f"evaluator, playout cap {PLAYOUTS}, thread backend; journal "
        f"off vs batched vs per-move fsync on the same host",
    )
    assert all(r["moves"] > 0 for r in overhead_rows)


def test_journaled_rows_actually_journaled(overhead_rows):
    for policy in ("batched", "per-move"):
        row = _row(overhead_rows, policy)
        # one record per served move plus session opens/closes
        assert row["journal_records"] >= row["moves"]
        assert row["journal_errors"] == 0
        assert row["journal_bytes"] > 0
    assert _row(overhead_rows, "off-journal")["journal_records"] == 0


def test_batched_fsync_overhead_within_gate(overhead_rows):
    """The E19 acceptance gate: the default durability policy must cost
    at most 15% of p99 move latency at 16 concurrent sessions."""
    off = _row(overhead_rows, "off-journal")
    batched = _row(overhead_rows, "batched")
    ceiling = off["p99_ms"] * JOURNAL_OVERHEAD_FACTOR + ABS_SLACK_MS
    assert batched["p99_ms"] <= ceiling, (
        f"batched-fsync p99 {batched['p99_ms']}ms exceeds "
        f"{JOURNAL_OVERHEAD_FACTOR}x journal-off p99 {off['p99_ms']}ms "
        f"(+{ABS_SLACK_MS}ms slack)"
    )
