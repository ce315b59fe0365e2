"""TicTacToe: a 3x3 Gomoku specialisation used by the fast test suite.

Kept as its own class (rather than ``Gomoku(3, 3)``) so tests exercise two
independent implementations of the Game interface against each other.
"""

from __future__ import annotations

import numpy as np

from repro.games.base import Game, Player

__all__ = ["TicTacToe"]

_LINES = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),  # rows
    (0, 3, 6), (1, 4, 7), (2, 5, 8),  # columns
    (0, 4, 8), (2, 4, 6),  # diagonals
)


class TicTacToe(Game):
    num_planes = 4

    def __init__(self) -> None:
        self.cells = np.zeros(9, dtype=np.int8)
        self._player: Player = 1
        self._winner: Player | None = None
        self._last: int | None = None

    @property
    def board_shape(self) -> tuple[int, int]:
        return (3, 3)

    @property
    def action_size(self) -> int:
        return 9

    @property
    def current_player(self) -> Player:
        return self._player

    @property
    def last_action(self) -> int | None:
        return self._last

    def _compute_legal_actions(self) -> np.ndarray:
        return np.flatnonzero(self.cells == 0)

    def _apply_step(self, action: int) -> None:
        if self.is_terminal:
            raise ValueError("game is over")
        if not 0 <= action < 9:
            raise ValueError(f"action {action} out of range")
        if self.cells[action] != 0:
            raise ValueError(f"cell {action} already occupied")
        self.cells[action] = self._player
        self._last = action
        for line in _LINES:
            if all(self.cells[i] == self._player for i in line):
                self._winner = self._player
                break
        else:
            if not (self.cells == 0).any():
                self._winner = 0
        self._player = -self._player

    def copy(self) -> "TicTacToe":
        clone = TicTacToe.__new__(TicTacToe)
        clone.cells = self.cells.copy()
        clone._player = self._player
        clone._winner = self._winner
        clone._last = self._last
        clone._ckey = self._ckey  # same state, memos stay valid
        clone._legal = self._legal
        return clone

    @property
    def is_terminal(self) -> bool:
        return self._winner is not None

    @property
    def winner(self) -> Player | None:
        return self._winner

    def _compute_canonical_key(self) -> tuple:
        # _last is part of the key: encode() emits a last-move plane.
        return ("ttt", self._player, self._last, self.cells.tobytes())

    def encode(self) -> np.ndarray:
        planes = np.zeros((self.num_planes, 3, 3), dtype=np.float64)
        board = self.cells.reshape(3, 3)
        planes[0] = board == self._player
        planes[1] = board == -self._player
        if self._last is not None:
            planes[2, self._last // 3, self._last % 3] = 1.0
        if self._player == 1:
            planes[3] = 1.0
        return planes

    def symmetries(
        self, planes: np.ndarray, policy: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        out: list[tuple[np.ndarray, np.ndarray]] = []
        pol_board = policy.reshape(3, 3)
        for k in range(4):
            p = np.rot90(planes, k, axes=(1, 2))
            q = np.rot90(pol_board, k)
            out.append((p.copy(), q.ravel().copy()))
            out.append((np.flip(p, axis=2).copy(), np.fliplr(q).ravel().copy()))
        return out

    def render(self) -> str:
        symbols = {0: ".", 1: "X", -1: "O"}
        board = self.cells.reshape(3, 3)
        return "\n".join(" ".join(symbols[int(v)] for v in row) for row in board)

    def __repr__(self) -> str:
        return f"TicTacToe(cells={self.cells.tolist()}, winner={self._winner})"
