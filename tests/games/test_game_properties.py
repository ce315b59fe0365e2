"""Property-based tests: invariants every Game implementation must hold."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.games import ConnectFour, Gomoku, SyntheticTreeGame, TicTacToe

GAME_FACTORIES = [
    ("tictactoe", TicTacToe),
    ("gomoku6", lambda: Gomoku(6, 4)),
    ("connect4", ConnectFour),
    ("synthetic", lambda: SyntheticTreeGame(fanout=4, depth_limit=6, board_size=4)),
]


def random_playthrough(factory, seed, max_moves=200):
    """Play random legal moves; return the move-by-move snapshots."""
    rng = np.random.default_rng(seed)
    game = factory()
    snapshots = []
    for _ in range(max_moves):
        if game.is_terminal:
            break
        legal = game.legal_actions()
        snapshots.append((game.current_player, len(legal)))
        game.step(int(rng.choice(legal)))
    return game, snapshots


@pytest.mark.parametrize("name,factory", GAME_FACTORIES)
class TestUniversalInvariants:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_players_strictly_alternate(self, name, factory, seed):
        _, snapshots = random_playthrough(factory, seed)
        movers = [m for m, _ in snapshots]
        for a, b in zip(movers, movers[1:]):
            assert a == -b

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_games_terminate(self, name, factory, seed):
        game, _ = random_playthrough(factory, seed)
        assert game.is_terminal
        assert game.winner in (1, -1, 0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_terminal_has_no_legal_actions(self, name, factory, seed):
        game, _ = random_playthrough(factory, seed)
        assert len(game.legal_actions()) == 0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_encode_shape_and_dtype_stable(self, name, factory, seed):
        rng = np.random.default_rng(seed)
        game = factory()
        expected = (game.num_planes, *game.board_shape)
        while not game.is_terminal:
            planes = game.encode()
            assert planes.shape == expected
            assert np.all(np.isfinite(planes))
            game.step(int(rng.choice(game.legal_actions())))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_copy_semantics(self, name, factory, seed):
        """Stepping a copy never perturbs the original's observable state."""
        rng = np.random.default_rng(seed)
        game = factory()
        for _ in range(3):
            if game.is_terminal:
                break
            before = game.encode().copy()
            legal_before = game.legal_actions().copy()
            clone = game.copy()
            clone.step(int(rng.choice(clone.legal_actions())))
            assert np.allclose(game.encode(), before)
            assert np.array_equal(game.legal_actions(), legal_before)
            game.step(int(rng.choice(game.legal_actions())))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_legal_actions_memo(self, name, factory, seed):
        """One read-only legal-actions array per state: ``step`` drops it,
        a copy shares it, and stepping the copy leaves the original's
        actions and mask as they were."""
        rng = np.random.default_rng(seed)
        game = factory()
        while not game.is_terminal:
            legal = game.legal_actions()
            assert not legal.flags.writeable
            with pytest.raises(ValueError):
                legal[0] = legal[0]
            assert game.legal_actions() is legal
            mask = game.legal_mask()
            clone = game.copy()
            assert clone.legal_actions() is legal
            clone.step(int(rng.choice(legal)))
            assert clone.legal_actions() is not legal
            assert np.array_equal(game.legal_actions(), legal)
            assert np.array_equal(game.legal_mask(), mask)
            game.step(int(rng.choice(legal)))
            fresh = game.legal_actions()
            assert fresh is not legal
            if not game.is_terminal:
                assert np.array_equal(fresh, game._compute_legal_actions())
        assert len(game.legal_actions()) == 0
        assert not game.legal_actions().flags.writeable

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_legal_mask_consistent_with_legal_actions(self, name, factory, seed):
        rng = np.random.default_rng(seed)
        game = factory()
        while not game.is_terminal:
            mask = game.legal_mask()
            legal = game.legal_actions()
            assert mask.sum() == len(legal)
            assert np.all(mask[legal])
            game.step(int(rng.choice(legal)))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_symmetries_preserve_policy_mass(self, name, factory, seed):
        rng = np.random.default_rng(seed)
        game = factory()
        pol = rng.dirichlet(np.ones(game.action_size))
        for planes, p in game.symmetries(game.encode(), pol):
            assert np.isclose(p.sum(), 1.0)
            assert planes.shape == game.encode().shape

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_terminal_value_antisymmetric_with_winner(self, name, factory, seed):
        game, _ = random_playthrough(factory, seed)
        w = game.winner
        tv = game.terminal_value
        if w == 0:
            assert tv == 0.0
        elif w == game.current_player:
            assert tv == 1.0
        else:
            assert tv == -1.0
