"""Recycled tree storage: ``SerialMCTS.get_action_prior`` gives its tree
back to a per-thread spare, and a search on that spare must equal a
search on a fresh tree, bit for bit."""

import sys
import threading

import numpy as np
import pytest

from repro.games import ConnectFour, Gomoku, TicTacToe
from repro.mcts import arraytree, serial
from repro.mcts.arraytree import ArrayNodeView, ArrayTree
from repro.mcts.evaluation import RandomRolloutEvaluator
from repro.mcts.reuse import TreeReuseMCTS
from repro.mcts.search import action_prior_from_root
from repro.mcts.serial import SerialMCTS
from repro.parallel import LeafParallelMCTS, RootParallelMCTS

#: Gomoku 15x15 leaves a spare that TicTacToe fits in; Gomoku 9x9 then
#: needs more rows than that spare has, so it gets a fresh tree
SEQUENCE = [(lambda: Gomoku(15, 5), 30), (TicTacToe, 200), (lambda: Gomoku(9, 5), 120)]


def _on_threads(*fns):
    """Run each of *fns* on its own new thread (an empty spare slot), all
    at once; returns their results and re-raises the first failure."""
    results: list = [None] * len(fns)
    errors: list = []
    start = threading.Barrier(len(fns))

    def run(i, fn):
        try:
            start.wait()
            results[i] = fn()
        except Exception as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i, fn)) for i, fn in enumerate(fns)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    if errors:
        raise errors[0]
    return results


def _engine(seed: int) -> SerialMCTS:
    return SerialMCTS(
        RandomRolloutEvaluator(rng=seed), dirichlet_epsilon=0.25, rng=seed
    )


def _fresh_priors(seed: int) -> list[np.ndarray]:
    """The sequence through ``search()``, which never gives a tree back:
    on a new thread every tree it grows is fresh."""
    engine = _engine(seed)
    out = []
    for make, playouts in SEQUENCE:
        game = make()
        out.append(action_prior_from_root(engine.search(game, playouts), game.action_size))
    return out


def _recycled_priors(seed: int) -> tuple[list[np.ndarray], list[bool]]:
    """The sequence through ``get_action_prior``; also reports, per call,
    whether it searched on the tree the previous call gave back."""
    engine = _engine(seed)
    out, reused = [], []
    for make, playouts in SEQUENCE:
        spare = arraytree._spare.tree
        out.append(engine.get_action_prior(make(), playouts))
        reused.append(spare is not None and arraytree._spare.tree is spare)
    return out, reused


def _assert_bit_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.fixture(params=["hinted", "growing"])
def capacity(request, monkeypatch):
    """``hinted`` sizes each tree for its search; ``growing`` starts every
    tree at 8 rows, so recycled trees grow by doubling mid-search."""
    if request.param == "growing":
        monkeypatch.setattr(serial, "capacity_hint", lambda action_size, playouts: 8)
    return request.param


class TestRecycledEqualsFresh:
    def test_consecutive_priors_across_games(self, capacity):
        (want,) = _on_threads(lambda: _fresh_priors(7))
        ((got, reused),) = _on_threads(lambda: _recycled_priors(7))
        _assert_bit_equal(got, want)
        # the spare was reused for TicTacToe; for Gomoku 9x9 it was too
        # small under the hint, while a grown spare is always big enough
        assert reused == [False, True, capacity == "growing"]

    def test_two_threads_at_once(self, capacity):
        want = _on_threads(lambda: _fresh_priors(1), lambda: _fresh_priors(2))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often mid-search
        try:
            got = _on_threads(lambda: _recycled_priors(1), lambda: _recycled_priors(2))
        finally:
            sys.setswitchinterval(interval)
        for (priors, _), expected in zip(got, want):
            _assert_bit_equal(priors, expected)


def _snapshot(tree: ArrayTree) -> dict:
    n = tree.size
    return {name: getattr(tree, name)[:n].copy() for name, _, _ in arraytree._COLUMNS}


class TestEscapedTreesAreNeverRecycled:
    def test_search_root_survives_later_priors(self):
        def run():
            engine = _engine(3)
            engine.get_action_prior(TicTacToe(), 60)  # fills the spare
            root = engine.search(TicTacToe(), 80)  # takes it
            before = _snapshot(root.tree)
            engine.get_action_prior(TicTacToe(), 60)
            engine.get_action_prior(Gomoku(9, 5), 20)
            assert arraytree._spare.tree is not root.tree
            return before, _snapshot(root.tree), root.visit_count

        ((before, after, visits),) = _on_threads(run)
        assert visits == 80
        for name in before:
            np.testing.assert_array_equal(after[name], before[name])

    def test_tree_reuse_keeps_its_tree(self):
        """A 3-move TicTacToe game plays the same priors whether or not
        other searches recycle trees on the same thread in between."""

        def play(interleave: bool):
            agent = TreeReuseMCTS(RandomRolloutEvaluator(rng=5), rng=5)
            other = _engine(6)
            game = TicTacToe()
            priors = []
            for _ in range(3):
                if interleave:
                    other.get_action_prior(Gomoku(9, 5), 20)
                prior = agent.get_action_prior(game, 60)
                assert arraytree._spare.tree is not agent._root.tree
                if interleave:
                    other.get_action_prior(TicTacToe(), 30)
                    assert arraytree._spare.tree is not agent._root.tree
                priors.append(prior)
                action = int(np.argmax(prior))
                game.step(action)
                agent.observe(action)
            return priors

        alone, interleaved = _on_threads(lambda: play(False), lambda: play(True))
        _assert_bit_equal(interleaved, alone)


class TestSchemesGiveTheirTreeBack:
    @pytest.mark.parametrize(
        "make, gives_back",
        [
            (lambda ev: SerialMCTS(ev, rng=0), True),
            # leaf-parallel's tree is its serial search's
            (lambda ev: LeafParallelMCTS(ev, 2, rng=0), True),
            # root-parallel keeps its worker trees readable in last_roots
            (lambda ev: RootParallelMCTS(ev, 2, rng=0), False),
        ],
        ids=["serial", "leaf_parallel", "root_parallel"],
    )
    def test_spare_after_get_action_prior(self, make, gives_back):
        def run():
            assert arraytree._spare.tree is None  # a new thread's slot
            make(RandomRolloutEvaluator(rng=0)).get_action_prior(ConnectFour(), 50)
            return arraytree._spare.tree is not None

        assert _on_threads(run) == [gives_back]


class TestSpareSlot:
    def test_reset_returns_statistics_to_fills(self):
        def run():
            engine = _engine(4)
            root = engine.search(Gomoku(9, 5), 50)
            tree, used = root.tree, root.tree.size
            # writes a search never makes: statistics on unvisited rows
            unvisited = np.flatnonzero(tree.visit_count[:used] == 0)[:3]
            views = [ArrayNodeView(tree, int(row)) for row in unvisited]
            views[0].terminal_value = 0.0
            views[1].value_sum = 0.5
            views[2].virtual_loss = 1.0
            tree.reset()
            return tree, used

        ((tree, used),) = _on_threads(run)
        assert tree.size == 0
        for name, _, fill in arraytree._COLUMNS:
            if name not in ("parent", "action", "prior", "n1"):  # set on allocation
                assert np.all(getattr(tree, name)[:used] == fill), name

    def test_take_drops_a_spare_that_is_too_small(self):
        def run():
            small = ArrayTree(16)
            small.give_back()
            big = ArrayTree.take(64)
            assert big is not small and len(big) == 0
            assert arraytree._spare.tree is None  # the small one was dropped
            big.give_back()
            assert ArrayTree.take(16) is big
            assert arraytree._spare.tree is None  # taking empties the slot

        _on_threads(run)
