"""The cached-column descent equals the generic one, node for node.

:meth:`ArrayTree.select_to_leaf` scores :class:`NoVirtualLoss` and
:class:`WUVirtualLoss` levels inline from the cached ``q``/``n1``
columns; any other policy goes through ``_child_scores`` and
``argmax``.  A subclass that changes nothing is "any other policy", so
running :class:`LocalTreeMCTS` once with the policy and once with its
subclass, in lockstep, compares the two descents on the same trees,
with up to N leaves carrying virtual loss at every step.
"""

import numpy as np
import pytest

from repro.games import ConnectFour, TicTacToe, build_network_for
from repro.mcts.evaluation import NetworkEvaluator
from repro.mcts.virtual_loss import NoVirtualLoss, WUVirtualLoss
from repro.parallel import LocalTreeMCTS
from repro.parallel.local_tree import FLUSH, LEAF, WAIT


class GenericNoVL(NoVirtualLoss):
    """:class:`NoVirtualLoss` scored through ``_child_scores``."""


class GenericWU(WUVirtualLoss):
    """:class:`WUVirtualLoss` scored through ``_child_scores``."""


POLICIES = {"novl": (NoVirtualLoss, GenericNoVL), "wu": (WUVirtualLoss, GenericWU)}
GAMES = {"connect4": ConnectFour, "tictactoe": TicTacToe}
COLUMNS = ("visit_count", "value_sum", "virtual_loss", "q")
PLAYOUTS = 60
MOVES = 4


def assert_same_columns(a, b):
    assert a.size == b.size
    n = a.size
    for name in COLUMNS:
        x, y = getattr(a, name)[:n], getattr(b, name)[:n]
        # bitwise: equal floats of different sign or payload fail too
        np.testing.assert_array_equal(x.view(np.int64), y.view(np.int64), err_msg=name)


def lockstep(inline, generic, game):
    """Drive both search programs one step at a time, each sub-batch
    evaluated in submission order as :meth:`LocalTreeMCTS.search` does,
    comparing the trees after every step.  Returns both roots and the
    most leaves that were in flight at once."""
    programs = [s.search_program(game.copy(), PLAYOUTS) for s in (inline, generic)]
    pipes = [[], []]
    replies = [None, None]
    trees = [None, None]
    most_in_flight = 0
    while True:
        steps = []
        for i, program in enumerate(programs):
            try:
                steps.append(program.send(replies[i]))
            except StopIteration as stop:
                steps.append(("done", stop.value))
        replies = [None, None]
        kinds = [kind for kind, _ in steps]
        assert kinds[0] == kinds[1]
        kind = kinds[0]
        if kind == "done":
            return steps[0][1], steps[1][1], most_in_flight
        if kind is LEAF:
            (leaf_a, depth_a), (leaf_b, depth_b) = (payload for _, payload in steps)
            assert (leaf_a.index, depth_a) == (leaf_b.index, depth_b)
            trees = [leaf_a.tree, leaf_b.tree]
        elif kind is FLUSH:
            for pipe, (_, batch) in zip(pipes, steps):
                pipe.append(batch)
            most_in_flight = max(most_in_flight, sum(map(len, pipes[0])))
        elif kind is WAIT:
            for i, scheme in enumerate((inline, generic)):
                batch = pipes[i].pop(0)
                games = [g for _, g in batch]
                replies[i] = batch, scheme.evaluator.evaluate_batch(games)
        if trees[0] is not None:
            assert_same_columns(*trees)


@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("game", sorted(GAMES))
def test_inline_descent_equals_generic_descent(game, policy, n, b):
    game = GAMES[game]()
    evaluator = NetworkEvaluator(build_network_for(game, channels=(2, 4, 4), rng=3))
    fast, slow = POLICIES[policy]
    inline = LocalTreeMCTS(evaluator, n, b, vl_policy=fast())
    generic = LocalTreeMCTS(evaluator, n, b, vl_policy=slow())
    for _ in range(MOVES):
        root_a, root_b, most_in_flight = lockstep(inline, generic, game)
        assert most_in_flight == n
        # after a move every virtual loss is recovered
        assert_same_columns(root_a.tree, root_b.tree)
        assert not root_a.tree.virtual_loss[: root_a.tree.size].any()
        game.step(max(root_a.children.items(), key=lambda kv: kv[1].visit_count)[0])


def test_generic_policies_take_the_generic_path(monkeypatch):
    """The subclasses really go through ``_child_scores``, and the
    policies themselves do not."""
    from repro.mcts.arraytree import ArrayTree

    calls = []
    original = ArrayTree._child_scores

    def counting(self, idx, c_puct, vl):
        calls.append(type(vl))
        return original(self, idx, c_puct, vl)

    monkeypatch.setattr(ArrayTree, "_child_scores", counting)
    game = ConnectFour()
    evaluator = NetworkEvaluator(build_network_for(game, channels=(2, 4, 4), rng=3))
    for fast, slow in POLICIES.values():
        calls.clear()
        LocalTreeMCTS(evaluator, 4, 2, vl_policy=fast()).search(game, 30)
        assert calls == []
        LocalTreeMCTS(evaluator, 4, 2, vl_policy=slow()).search(game, 30)
        assert calls and set(calls) == {slow}
