"""Connect-Four: gravity drop game on a 6x7 board, 4 in a row wins.

Exercises the parts of the Game interface Gomoku cannot: the action space
(7 columns) differs from the cell count (42), and the board is non-square,
so any engine or network code that silently assumed ``actions == cells``
breaks here first.

A step runs on Python ints.  ``heights`` is a list, a stone counter
detects the full board, and each player's stones are also kept as a
bitboard: cell ``(r, c)`` is bit ``c * (rows + 1) + r``, so every column
has one always-empty bit above its top row.  ``n_in_row`` stones in a line
are ``n_in_row - 1`` rounds of ``run &= run >> shift`` leaving a bit set,
with shift ``1`` (vertical), ``rows + 1`` (horizontal), ``rows + 2`` (the
``/`` diagonal) or ``rows`` (the ``\\`` diagonal); the empty bit ends any
run that would wrap into the next column.  Only the mover's bitboard is
tested, after their stone: the game stops at the first line, so a line
that exists must include the last stone.  ``board`` (int8) is written
alongside and is what :meth:`~ConnectFour.encode` and the canonical key
read.
"""

from __future__ import annotations

import numpy as np

from repro.games.base import Game, Player

__all__ = ["ConnectFour"]

class ConnectFour(Game):
    num_planes = 4

    def __init__(self, rows: int = 6, cols: int = 7, n_in_row: int = 4) -> None:
        if rows < n_in_row and cols < n_in_row:
            raise ValueError("board too small for the winning length")
        if rows <= 0 or cols <= 0 or n_in_row < 2:
            raise ValueError("invalid dimensions")
        self.rows = rows
        self.cols = cols
        self.n_in_row = n_in_row
        self.board = np.zeros((rows, cols), dtype=np.int8)
        self.heights = [0] * cols  # stones per column
        self._stones = 0
        # bitboards of the player to move and of the other player
        self._mover_bits = 0
        self._other_bits = 0
        # shifts between neighbours in the four line directions
        self._shifts = (1, rows + 1, rows + 2, rows)
        self._player: Player = 1
        self._winner: Player | None = None
        self._last: tuple[int, int] | None = None

    @property
    def board_shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def action_size(self) -> int:
        return self.cols

    @property
    def current_player(self) -> Player:
        return self._player

    @property
    def last_action(self) -> int | None:
        return self._last[1] if self._last is not None else None

    def _compute_legal_actions(self) -> np.ndarray:
        rows = self.rows
        return np.array(
            [c for c, h in enumerate(self.heights) if h < rows], dtype=np.int64
        )

    def _apply_step(self, action: int) -> None:
        if self.is_terminal:
            raise ValueError("game is over")
        if not 0 <= action < self.cols:
            raise ValueError(f"column {action} out of range")
        # row 0 is the bottom of the board
        r = self.heights[action]
        if r >= self.rows:
            raise ValueError(f"column {action} is full")
        self.board[r, action] = self._player
        self.heights[action] = r + 1
        self._stones += 1
        self._last = (r, action)
        bits = self._mover_bits | 1 << (int(action) * (self.rows + 1) + r)
        if self._has_line(bits):
            self._winner = self._player
        elif self._stones == self.rows * self.cols:
            self._winner = 0
        self._mover_bits, self._other_bits = self._other_bits, bits
        self._player = -self._player

    def _has_line(self, bits: int) -> bool:
        """Whether *bits* holds ``n_in_row`` stones in a line."""
        rounds = self.n_in_row - 1
        for shift in self._shifts:
            run = bits
            for _ in range(rounds):
                run &= run >> shift
            if run:
                return True
        return False

    def copy(self) -> "ConnectFour":
        clone = ConnectFour.__new__(ConnectFour)
        clone.rows = self.rows
        clone.cols = self.cols
        clone.n_in_row = self.n_in_row
        clone.board = self.board.copy()
        clone.heights = self.heights.copy()
        clone._stones = self._stones
        clone._mover_bits = self._mover_bits
        clone._other_bits = self._other_bits
        clone._shifts = self._shifts
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
        return ("connect4", self.rows, self.cols, self.n_in_row, self._player,
                self._last, self.board.tobytes())

    def encode(self) -> np.ndarray:
        planes = np.zeros((self.num_planes, self.rows, self.cols), dtype=np.float64)
        planes[0] = self.board == self._player
        planes[1] = self.board == -self._player
        if self._last is not None:
            planes[2, self._last[0], self._last[1]] = 1.0
        if self._player == 1:
            planes[3] = 1.0
        return planes

    def symmetries(
        self, planes: np.ndarray, policy: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Connect-Four only has the left-right mirror symmetry."""
        mirrored = (np.flip(planes, axis=2).copy(), policy[::-1].copy())
        return [(planes, policy), mirrored]

    def render(self) -> str:
        symbols = {0: ".", 1: "X", -1: "O"}
        # print top row first (row index rows-1)
        lines = [
            " ".join(symbols[int(v)] for v in self.board[r])
            for r in range(self.rows - 1, -1, -1)
        ]
        lines.append(" ".join(str(c) for c in range(self.cols)))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ConnectFour({self.rows}x{self.cols}, n={self.n_in_row}, "
            f"winner={self._winner})"
        )
