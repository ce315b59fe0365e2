"""Test-only oracle: Connect Four stepped on NumPy with a scan win check.

:class:`OracleConnectFour` keeps the board, the column heights (an int64
array) and the mover the obvious way, and :func:`wins_at` looks for a
line by walking out from the last stone in the four directions.  Slow
but obviously right, so the bitboard step of
:class:`repro.games.ConnectFour` is checked against it.
"""

import numpy as np

_DIRECTIONS = ((0, 1), (1, 0), (1, 1), (1, -1))


def wins_at(board: np.ndarray, r: int, c: int, player: int, n_in_row: int) -> bool:
    """Whether *player*'s stone at ``(r, c)`` lies on a line of *n_in_row*."""
    rows, cols = board.shape
    for dr, dc in _DIRECTIONS:
        count = 1
        for sign in (1, -1):
            rr, cc = r + sign * dr, c + sign * dc
            while 0 <= rr < rows and 0 <= cc < cols and board[rr, cc] == player:
                count += 1
                rr += sign * dr
                cc += sign * dc
        if count >= n_in_row:
            return True
    return False


class OracleConnectFour:
    """The reference game state: what ``ConnectFour`` must report."""

    def __init__(self, rows: int, cols: int, n_in_row: int) -> None:
        self.rows, self.cols, self.n_in_row = rows, cols, n_in_row
        self.board = np.zeros((rows, cols), dtype=np.int8)
        self.heights = np.zeros(cols, dtype=np.int64)
        self.player = 1
        self.winner: int | None = None
        self.last: tuple[int, int] | None = None

    def legal_actions(self) -> np.ndarray:
        if self.winner is not None:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self.heights < self.rows)

    def step(self, action: int) -> None:
        r = int(self.heights[action])
        self.board[r, action] = self.player
        self.heights[action] += 1
        self.last = (r, action)
        if wins_at(self.board, r, action, self.player, self.n_in_row):
            self.winner = self.player
        elif int(self.heights.sum()) == self.rows * self.cols:
            self.winner = 0
        self.player = -self.player

    def encode(self) -> np.ndarray:
        planes = np.zeros((4, self.rows, self.cols), dtype=np.float64)
        planes[0] = self.board == self.player
        planes[1] = self.board == -self.player
        if self.last is not None:
            planes[2, self.last[0], self.last[1]] = 1.0
        if self.player == 1:
            planes[3] = 1.0
        return planes

    def canonical_key(self) -> tuple:
        return ("connect4", self.rows, self.cols, self.n_in_row, self.player,
                self.last, self.board.tobytes())
