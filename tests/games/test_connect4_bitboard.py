"""The bitboard Connect Four step against the scan-based oracle.

Random legal games on four board shapes, compared after every ply on
everything a search or an evaluator reads: winner, terminal flag, legal
actions, column heights, encoded planes and the canonical key.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.games import ConnectFour
from tests.games.connect4_oracle import OracleConnectFour

SHAPES = [(6, 7, 4), (5, 4, 3), (4, 7, 4), (7, 6, 5)]


def _assert_same(game: ConnectFour, oracle: OracleConnectFour) -> None:
    assert game.winner == oracle.winner
    assert game.is_terminal == (oracle.winner is not None)
    assert game.current_player == oracle.player
    np.testing.assert_array_equal(game.legal_actions(), oracle.legal_actions())
    assert list(game.heights) == oracle.heights.tolist()
    np.testing.assert_array_equal(game.board, oracle.board)
    encoded = game.encode()
    assert encoded.dtype == np.float64
    np.testing.assert_array_equal(encoded, oracle.encode())
    assert game.canonical_key() == oracle.canonical_key()


@pytest.mark.parametrize("rows,cols,n_in_row", SHAPES)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_random_games_match_the_oracle(rows, cols, n_in_row, data):
    game = ConnectFour(rows, cols, n_in_row)
    oracle = OracleConnectFour(rows, cols, n_in_row)
    _assert_same(game, oracle)
    while oracle.winner is None:
        legal = oracle.legal_actions().tolist()
        action = data.draw(st.sampled_from(legal))
        # a copy taken before the step must not see it
        before = game.copy()
        game.step(action)
        oracle.step(action)
        _assert_same(game, oracle)
        assert before.canonical_key() != game.canonical_key()
    assert len(game.legal_actions()) == 0


@pytest.mark.parametrize("rows,cols,n_in_row", SHAPES)
def test_numpy_actions_step_like_ints(rows, cols, n_in_row):
    rng = np.random.default_rng(rows * cols)
    game = ConnectFour(rows, cols, n_in_row)
    oracle = OracleConnectFour(rows, cols, n_in_row)
    while oracle.winner is None:
        action = rng.choice(oracle.legal_actions())  # an np.int64
        game.step(action)
        oracle.step(int(action))
        _assert_same(game, oracle)


def test_full_board_draw_on_every_cell():
    # columns filled in pairs X O X O / O X O X never make four in a row
    game = ConnectFour(rows=4, cols=4, n_in_row=4)
    for a in [0, 1, 0, 1, 2, 3, 2, 3, 1, 0, 1, 0, 3, 2, 3, 2]:
        assert game.winner is None
        game.step(a)
    assert game.winner == 0


class TestErrors:
    def test_full_column(self):
        game = ConnectFour(rows=4, cols=4)
        for _ in range(4):
            game.step(1)
        with pytest.raises(ValueError, match=r"^column 1 is full$"):
            game.step(1)

    @pytest.mark.parametrize("action", [-1, 7, 100])
    def test_out_of_range(self, action):
        with pytest.raises(ValueError, match=rf"^column {action} out of range$"):
            ConnectFour().step(action)

    def test_game_over(self):
        game = ConnectFour()
        for a in [0, 1, 0, 1, 0, 1, 0]:
            game.step(a)
        assert game.winner == 1
        with pytest.raises(ValueError, match=r"^game is over$"):
            game.step(2)

    def test_rejected_move_leaves_the_state(self):
        game = ConnectFour(rows=4, cols=4)
        for _ in range(4):
            game.step(2)
        board = game.board.copy()
        with pytest.raises(ValueError):
            game.step(2)
        np.testing.assert_array_equal(game.board, board)
        assert game.heights == [0, 0, 4, 0]
        assert game.current_player == 1 and game.winner is None
