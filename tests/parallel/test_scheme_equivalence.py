"""Section-3.2 program-template invariant: serial parity of every scheme.

"A single program template that allows compile-time adaptive selection of
parallel implementations" only works if every parallel scheme runs the
*same algorithm* as the serial baseline and differs purely in scheduling.
Degenerate the scheduling away -- one worker, no virtual loss, a fixed
RNG seed, no root noise -- and every scheme in :mod:`repro.parallel` must
produce root visit counts *identical* to :class:`repro.mcts.serial.SerialMCTS`.

This pins the invariant down before further refactors of the search
layers; any divergence here means a scheme silently changed the algorithm,
not just its parallel schedule.
"""

import zlib

import numpy as np
import pytest

from repro.games import SyntheticTreeGame, TicTacToe, build_network_for
from repro.mcts.arraytree import _COLUMNS, ArrayNodeView
from repro.mcts.evaluation import Evaluation, NetworkEvaluator, UniformEvaluator
from repro.mcts.serial import SerialMCTS
from repro.mcts.virtual_loss import NoVirtualLoss
from repro.parallel import (
    LeafParallelMCTS,
    LocalTreeMCTS,
    RootParallelMCTS,
    SharedTreeMCTS,
)

PLAYOUTS = 60
C_PUCT = 5.0


def make_games():
    return {
        "tictactoe": lambda: TicTacToe(),
        "synthetic": lambda: SyntheticTreeGame(
            fanout=4, depth_limit=6, board_size=5, seed=7
        ),
    }


def scheme_factories(evaluator):
    """Every parallel scheme, degenerated to serial scheduling: 1 worker,
    no virtual loss, dirichlet off (the default), fixed seed."""
    no_vl = NoVirtualLoss()
    return {
        "shared_tree": lambda: SharedTreeMCTS(
            evaluator, num_workers=1, c_puct=C_PUCT, vl_policy=no_vl, rng=0
        ),
        "local_tree": lambda: LocalTreeMCTS(
            evaluator, num_workers=1, batch_size=1, c_puct=C_PUCT,
            vl_policy=no_vl, rng=0,
        ),
        "leaf_parallel": lambda: LeafParallelMCTS(
            evaluator, num_workers=1, c_puct=C_PUCT, rng=0
        ),
        "root_parallel": lambda: RootParallelMCTS(
            evaluator, num_workers=1, c_puct=C_PUCT, rng=0
        ),
    }


def root_visits(root: ArrayNodeView, action_size: int) -> np.ndarray:
    visits = np.zeros(action_size, dtype=np.int64)
    for action, child in root.children.items():
        visits[action] = child.visit_count
    return visits


def serial_reference(game, evaluator) -> np.ndarray:
    engine = SerialMCTS(evaluator, c_puct=C_PUCT, rng=0)
    root = engine.search(game.copy(), PLAYOUTS)
    return root_visits(root, game.action_size)


@pytest.mark.parametrize("game_name", sorted(make_games()))
@pytest.mark.parametrize("scheme_name", sorted(scheme_factories(None)))
def test_scheme_matches_serial_visit_counts(game_name, scheme_name):
    game = make_games()[game_name]()
    evaluator = UniformEvaluator()
    expected = serial_reference(game, evaluator)

    root = scheme_factories(evaluator)[scheme_name]().search(game.copy(), PLAYOUTS)
    actual = root_visits(root, game.action_size)
    np.testing.assert_array_equal(
        actual, expected,
        err_msg=f"{scheme_name} diverged from serial on {game_name}",
    )


@pytest.mark.parametrize("game_name", sorted(make_games()))
@pytest.mark.parametrize(
    "scheme_cls", [SharedTreeMCTS, LocalTreeMCTS], ids=["shared_tree", "local_tree"]
)
def test_one_leaf_in_flight_with_default_virtual_loss_matches_serial(
    scheme_cls, game_name
):
    """With one leaf in flight every virtual loss is recovered before the
    next selection, so the scheme's default policy (constant for
    shared-tree, WU-UCT for local-tree) never reaches Equation 1."""
    game = make_games()[game_name]()
    evaluator = UniformEvaluator()
    expected = serial_reference(game, evaluator)
    scheme = scheme_cls(evaluator, num_workers=1, c_puct=C_PUCT, rng=0)
    root = scheme.search(game.copy(), PLAYOUTS)
    np.testing.assert_array_equal(root_visits(root, game.action_size), expected)


class HashValueEvaluator(UniformEvaluator):
    """Uniform priors and a state-dependent value, so every backed-up
    value sum, the root's included, depends on which leaves were
    evaluated."""

    def evaluate(self, game):
        prior = super().evaluate(game).priors
        h = zlib.crc32(game.encode().tobytes())
        return Evaluation(priors=prior, value=(h % 2001) / 1000.0 - 1.0)


@pytest.mark.parametrize("game_name", sorted(make_games()))
@pytest.mark.parametrize("vl", ["none", "default"])
def test_local_tree_at_one_leaf_equals_serial_on_every_tree_column(game_name, vl):
    """Local-tree at N = B = 1 is serial search: the same array tree,
    column for column and bit for bit, the root's value sum included."""
    game = make_games()[game_name]()
    evaluator = HashValueEvaluator()
    serial = SerialMCTS(evaluator, c_puct=C_PUCT, rng=0).search(
        game.copy(), PLAYOUTS
    )
    local = LocalTreeMCTS(
        evaluator, num_workers=1, batch_size=1, c_puct=C_PUCT,
        vl_policy=NoVirtualLoss() if vl == "none" else None, rng=0,
    ).search(game.copy(), PLAYOUTS)
    a, b = serial.tree, local.tree
    assert a.size == b.size
    assert local.value_sum == serial.value_sum != 0.0
    for name, _, _ in _COLUMNS:
        x, y = getattr(a, name)[: a.size], getattr(b, name)[: b.size]
        np.testing.assert_array_equal(
            x.view(np.uint8), y.view(np.uint8), err_msg=name
        )


@pytest.mark.parametrize("scheme_name", sorted(scheme_factories(None)))
def test_scheme_matches_serial_action_prior_with_network(scheme_name):
    """Same invariant through a real (deterministic) DNN evaluator, checked
    on the get_action_prior surface the training loop consumes."""
    game = TicTacToe()
    net = build_network_for(game, channels=(2, 4, 4), rng=3)
    evaluator = NetworkEvaluator(net)
    expected = SerialMCTS(evaluator, c_puct=C_PUCT, rng=0).get_action_prior(
        game.copy(), PLAYOUTS
    )

    prior = scheme_factories(evaluator)[scheme_name]().get_action_prior(
        game.copy(), PLAYOUTS
    )
    np.testing.assert_allclose(prior, expected, atol=1e-12)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_engine_backend_matches_serial_episodes(backend):
    """The same invariant across the *process* boundary: an engine round
    (thread pool or multiprocess farm) must reproduce a sequential loop
    of serial searches over the same spawned seeds exactly -- shared
    caches, cross-game/cross-process batching and shared-memory transport
    change where evaluations run, never their results."""
    from repro.serving import MultiGameSelfPlayEngine
    from repro.training.selfplay import play_episode
    from repro.utils.rng import new_rng, spawn_rngs

    game = TicTacToe()
    evaluator = UniformEvaluator()
    kwargs = {"num_workers": 2} if backend == "process" else {}
    with MultiGameSelfPlayEngine(
        game, evaluator, num_games=4, num_playouts=10, rng=0,
        backend=backend, **kwargs,
    ) as engine:
        results, _ = engine.play_round()

    for got, game_rng in zip(results, spawn_rngs(new_rng(0), 4)):
        expected = play_episode(
            game, SerialMCTS(evaluator, rng=game_rng), 10, rng=game_rng
        )
        assert got.winner == expected.winner
        assert got.moves == expected.moves
        for ge, ee in zip(got.examples, expected.examples):
            np.testing.assert_array_equal(ge.policy, ee.policy)
            np.testing.assert_array_equal(ge.planes, ee.planes)
            assert ge.value == ee.value
