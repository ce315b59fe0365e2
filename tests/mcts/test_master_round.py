"""The threadless master round, stepped by hand.

Each test admits search programs to a :class:`~repro.mcts.master.Master`
and calls ``step_round()`` itself: no thread and no event loop decide
what a round holds.  The programs search different games, so no row of
one is a cache hit for the other.
"""

from __future__ import annotations

import pytest

from repro.games import ConnectFour, TicTacToe
from repro.mcts import UniformEvaluator
from repro.mcts.master import Finished, Master
from repro.mcts.serial import FLUSH
from repro.parallel import LocalTreeMCTS, RootParallelMCTS

PLAYOUTS = 12


class Recorder(UniformEvaluator):
    """Uniform rows; records each call's method and its rows' state keys,
    and raises on any Connect Four row when *fail_connect4* is set."""

    def __init__(self, fail_connect4: bool = False) -> None:
        self.fail_connect4 = fail_connect4
        self.calls: list[tuple[str, list]] = []

    def _row(self, game):
        if self.fail_connect4 and isinstance(game, ConnectFour):
            raise RuntimeError("device lost")
        return UniformEvaluator.evaluate(self, game)

    def evaluate(self, game):
        self.calls.append(("evaluate", [game.canonical_key()]))
        return self._row(game)

    def evaluate_batch(self, games):
        self.calls.append(("evaluate_batch", [g.canonical_key() for g in games]))
        return [self._row(g) for g in games]


class DictCache:
    """The cache as the master sees it: anything with get and put."""

    def __init__(self) -> None:
        self.rows: dict = {}

    def get(self, game):
        return self.rows.get(game.canonical_key())

    def put(self, game, evaluation) -> None:
        self.rows[game.canonical_key()] = evaluation


def program(ev, game, *, workers: int = 1, seed: int = 0):
    """A search program keeping *workers* one-leaf sub-batches in flight."""
    scheme = LocalTreeMCTS(ev, num_workers=workers, batch_size=1, rng=seed)
    return scheme.search_program(game, PLAYOUTS)


def noting_flushes(program, flushed: list):
    """*program*'s steps passed through, each flushed row's state key
    appended to *flushed*."""
    reply = None
    try:
        while True:
            kind, payload = program.send(reply)
            if kind is FLUSH:
                flushed.extend(g.canonical_key() for _, g in payload)
            reply = yield kind, payload
    except StopIteration as stop:
        return stop.value


def root_record(root) -> list:
    return [
        (action, child.visit_count, child.value_sum)
        for action, child in sorted(root.children.items())
    ]


def run_out(master: Master) -> list[Finished]:
    finished: list[Finished] = []
    while len(master):
        finished.extend(master.step_round())
    return finished


@pytest.mark.parametrize("fuse, method", [(True, "evaluate_batch"), (False, "evaluate")])
def test_each_round_evaluates_its_misses_in_admission_order(fuse, method):
    """Fused, a round is one evaluate_batch; unfused, one evaluate per
    miss.  Either way the rows are program A's new flushes, then B's."""
    ev = Recorder()
    master = Master(ev, fuse=fuse)
    flushed_a: list = []
    flushed_b: list = []
    master.admit(noting_flushes(program(ev, TicTacToe(), workers=2), flushed_a))
    master.admit(noting_flushes(program(ev, ConnectFour(), workers=2), flushed_b))
    rounds = 0
    while len(master):
        ev.calls.clear()
        flushed_a.clear()
        flushed_b.clear()
        master.step_round()
        rounds += 1
        rows = [key for _, keys in ev.calls for key in keys]
        assert rows == flushed_a + flushed_b
        assert {m for m, _ in ev.calls} <= {method}
        assert len(ev.calls) == (min(len(rows), 1) if fuse else len(rows))
    assert rounds > 2


def test_the_round_equals_a_search_run_alone():
    """Uniform rows do not depend on their batch, so each program's root
    equals the same search run inline."""
    ev = Recorder()
    master = Master(ev, fuse=True)
    games = [TicTacToe(), ConnectFour()]
    programs = [program(ev, game.copy(), workers=2) for game in games]
    for p in programs:
        master.admit(p)
    finished = {done.program: done.value for done in run_out(master)}
    for p, game in zip(programs, games):
        alone = LocalTreeMCTS(UniformEvaluator(), num_workers=2, rng=0)
        assert root_record(finished[p]) == root_record(alone.search(game, PLAYOUTS))


@pytest.mark.parametrize("fuse", [True, False])
def test_a_cache_hit_answers_a_wait_without_a_call(fuse):
    """A second search of the same position, same seed, finds every row
    in the cache: it finishes in one round and makes no call."""
    ev = Recorder()
    master = Master(ev, DictCache(), fuse=fuse)
    master.admit(program(ev, TicTacToe()))
    (first,) = run_out(master)
    assert ev.calls
    ev.calls.clear()
    again = program(ev, TicTacToe())
    master.admit(again)
    (done,) = master.step_round()
    assert done.program is again and done.error is None
    assert root_record(done.value) == root_record(first.value)
    assert ev.calls == []


def test_a_raising_unfused_call_fails_exactly_its_program():
    ev = Recorder(fail_connect4=True)
    master = Master(ev, fuse=False)
    good, bad = program(ev, TicTacToe()), program(ev, ConnectFour())
    master.admit(good)
    master.admit(bad)
    (failed,) = master.step_round()
    assert failed.program is bad and failed.value is None
    assert isinstance(failed.error, RuntimeError) and str(failed.error) == "device lost"
    assert bad.gi_frame is None  # closed
    assert len(master) == 1 and good.gi_frame is not None
    (done,) = run_out(master)
    assert done.program is good and done.error is None
    assert done.value.visit_count == PLAYOUTS


def test_a_raising_fused_call_fails_every_program_it_carried():
    ev = Recorder(fail_connect4=True)
    master = Master(ev, fuse=True)
    programs = [program(ev, TicTacToe()), program(ev, ConnectFour())]
    for p in programs:
        master.admit(p)
    finished = master.step_round()
    assert [done.program for done in finished] == programs
    assert all(str(done.error) == "device lost" for done in finished)
    assert all(p.gi_frame is None for p in programs)
    assert len(master) == 0


def test_a_program_closed_by_its_driver_finishes_with_no_value():
    ev = Recorder()
    master = Master(ev, fuse=True)
    kept, closed = program(ev, TicTacToe()), program(ev, ConnectFour())
    master.admit(kept)
    master.admit(closed)
    master.step_round()
    closed.close()
    ev.calls.clear()
    assert master.step_round()[0] == Finished(closed)
    assert all(len(keys) == 1 for _, keys in ev.calls)  # kept's rows alone
    assert [done.program for done in run_out(master)] == [kept]


def test_root_parallel_raises_the_evaluators_error():
    ev = Recorder(fail_connect4=True)
    with pytest.raises(RuntimeError, match="device lost"):
        RootParallelMCTS(ev, num_workers=3, rng=0).search(ConnectFour(), PLAYOUTS)

