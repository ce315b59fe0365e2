"""The cached-column descent equals the generic one, node for node.

:meth:`ArrayTree.select_to_leaf` scores :class:`NoVirtualLoss` and
:class:`WUVirtualLoss` levels inline from the cached ``q``/``n1``
columns; any other policy goes through ``_child_scores`` and
``argmax``.  A subclass that changes nothing is "any other policy", so
running :class:`LocalTreeMCTS` once with the policy and once with its
subclass, in lockstep, compares the two descents on the same trees,
with up to N leaves carrying virtual loss at every step.  Without
virtual loss, slabs of up to :data:`~repro.mcts.arraytree.NARROW_SLAB`
children (Connect Four, TicTacToe) are scored in a Python loop and
wider ones (Gomoku 9x9) with NumPy, so the games cover both.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.games import ConnectFour, Gomoku, TicTacToe, build_network_for
from repro.mcts.arraytree import NARROW_SLAB, ArrayNodeView, ArrayTree
from repro.mcts.evaluation import NetworkEvaluator
from repro.mcts.virtual_loss import NoVirtualLoss, WUVirtualLoss
from repro.parallel import LocalTreeMCTS
from repro.mcts.serial import FLUSH, LEAF, WAIT


class GenericNoVL(NoVirtualLoss):
    """:class:`NoVirtualLoss` scored through ``_child_scores``."""


class GenericWU(WUVirtualLoss):
    """:class:`WUVirtualLoss` scored through ``_child_scores``."""


POLICIES = {"novl": (NoVirtualLoss, GenericNoVL), "wu": (WUVirtualLoss, GenericWU)}
GAMES = {"connect4": ConnectFour, "tictactoe": TicTacToe, "gomoku9": lambda: Gomoku(9)}
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


class _Steps:
    """A game stand-in for one level of descent: records the actions
    stepped and never ends."""

    is_terminal = False

    def __init__(self) -> None:
        self.actions: list[int] = []

    def step(self, action: int) -> None:
        self.actions.append(action)


def _one_level(parent_visits, children):
    """A root with one child slab; *children* holds ``(prior, N, W)``."""
    tree = ArrayTree(len(children) + 1)
    root = tree.new_root()
    priors = np.array([p for p, _, _ in children], dtype=np.float64)
    tree.expand(root, np.arange(len(children)), priors)
    for row, (_, visits, value) in enumerate(children, start=root + 1):
        view = ArrayNodeView(tree, row)
        view.visit_count = visits  # keeps q and n1 in step
        view.value_sum = value
    ArrayNodeView(tree, root).visit_count = parent_visits
    return tree, root


def _generic_pick(tree, root, c_puct):
    start, scores = tree._child_scores(root, c_puct, NoVirtualLoss())
    return start + int(np.argmax(scores))


#: child stats drawn from a small pool, so exact score ties are common
_TIED_CHILD = st.sampled_from([(0.25, 0, 0.0), (0.25, 1, 0.5), (0.5, 2, -1.0), (0.0, 3, 1.5)])
_RANDOM_CHILD = st.tuples(
    st.floats(0.0, 1.0),
    st.integers(0, 60),
    st.floats(-60.0, 60.0, allow_subnormal=False),
)


class TestNarrowSlabScoring:
    """The Python loop picks the row ``_child_scores`` + ``argmax`` picks."""

    @given(
        parent_visits=st.integers(0, 400),
        c_puct=st.floats(0.05, 8.0),
        children=st.lists(_RANDOM_CHILD | _TIED_CHILD, min_size=1, max_size=NARROW_SLAB),
        nan_at=st.none() | st.integers(0, NARROW_SLAB - 1),
    )
    # all ties: ``>=`` would take the last child
    @example(parent_visits=5, c_puct=1.0, children=[(0.25, 1, 0.5)] * 4, nan_at=None)
    # A loses at sqrt(max(N - 1, 1)) = 1 and wins at sqrt(max(N, 1)) = sqrt(2)
    @example(parent_visits=2, c_puct=2.0, children=[(1.0, 1, -1.2), (0.0, 1, 0.0)], nan_at=None)
    # the larger prior wins only while q is counted
    @example(parent_visits=9, c_puct=1.0, children=[(0.6, 4, -3.0), (0.4, 4, 2.0)], nan_at=None)
    # argmax takes the first NaN, which ``>`` alone would never pick
    @example(parent_visits=9, c_puct=1.0, children=[(0.9, 1, 1.0)] * 4, nan_at=2)
    @settings(max_examples=300, deadline=None)
    def test_loop_matches_generic_argmax(self, parent_visits, c_puct, children, nan_at):
        if nan_at is not None and nan_at < len(children):
            prior, visits, _ = children[nan_at]
            # N >= 1 so the masked generic Q carries the NaN too
            children = [*children[:nan_at], (prior, max(visits, 1), math.nan),
                        *children[nan_at + 1:]]
        tree, root = _one_level(parent_visits, children)
        expected = _generic_pick(tree, root, c_puct)
        game = _Steps()
        leaf, depth = tree.select_to_leaf(root, game, c_puct, NoVirtualLoss())
        assert (leaf, depth) == (expected, 1)
        assert game.actions == [int(tree.action[expected])]


class _CountingColumn(np.ndarray):
    """A ``q`` column that counts ``tolist`` calls on its slices."""

    calls = 0

    def tolist(self):
        _CountingColumn.calls += 1
        return super().tolist()


@pytest.mark.parametrize(
    "width, narrow",
    [(1, True), (7, True), (9, True), (NARROW_SLAB, True), (NARROW_SLAB + 1, False),
     (81, False), (225, False)],
)
@pytest.mark.parametrize("policy", [NoVirtualLoss, WUVirtualLoss])
def test_each_width_takes_its_branch(width, narrow, policy):
    """No-virtual-loss slabs up to NARROW_SLAB children take the loop:
    Connect Four (7) and TicTacToe (9) do, Gomoku (81, 225) does not.
    Every WU level keeps NumPy scoring."""
    tree, root = _one_level(3, [(1.0 / width, 1, 0.0)] * width)
    tree.q = tree.q.view(_CountingColumn)
    _CountingColumn.calls = 0
    tree.select_to_leaf(root, _Steps(), 1.5, policy())
    assert _CountingColumn.calls == (1 if narrow and policy is NoVirtualLoss else 0)
