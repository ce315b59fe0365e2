"""Gomoku (five-in-a-row), the paper's benchmark game (Section 5.1).

The board is ``size x size`` (paper: 15); players alternate placing stones
and the first to align ``n_in_row`` stones (paper: 5) horizontally,
vertically or diagonally wins.  The win check is incremental around the
last move, so ``step`` is O(n_in_row), not O(board).
"""

from __future__ import annotations

import numpy as np

from repro.games.base import Game, Player

__all__ = ["Gomoku"]

_DIRECTIONS = ((0, 1), (1, 0), (1, 1), (1, -1))


class Gomoku(Game):
    """Mutable Gomoku state.

    Parameters
    ----------
    size : board side length (paper uses 15).
    n_in_row : stones in a row needed to win (paper uses 5).
    """

    num_planes = 4

    def __init__(self, size: int = 15, n_in_row: int = 5) -> None:
        if size < 3:
            raise ValueError(f"board size must be >= 3, got {size}")
        if not 3 <= n_in_row <= size:
            raise ValueError(f"n_in_row must be in [3, {size}], got {n_in_row}")
        self.size = size
        self.n_in_row = n_in_row
        self.board = np.zeros((size, size), dtype=np.int8)
        self._player: Player = 1
        self._winner: Player | None = None
        self._moves: list[int] = []

    # -- static shape -------------------------------------------------------
    @property
    def board_shape(self) -> tuple[int, int]:
        return (self.size, self.size)

    @property
    def action_size(self) -> int:
        return self.size * self.size

    # -- dynamic state -------------------------------------------------------
    @property
    def current_player(self) -> Player:
        return self._player

    @property
    def last_action(self) -> int | None:
        return self._moves[-1] if self._moves else None

    @property
    def move_count(self) -> int:
        return len(self._moves)

    def _compute_legal_actions(self) -> np.ndarray:
        return np.flatnonzero(self.board.ravel() == 0)

    def _apply_step(self, action: int) -> None:
        if self.is_terminal:
            raise ValueError("game is over")
        if not 0 <= action < self.action_size:
            raise ValueError(f"action {action} out of range")
        r, c = divmod(action, self.size)
        if self.board[r, c] != 0:
            raise ValueError(f"cell ({r}, {c}) already occupied")
        self.board[r, c] = self._player
        self._moves.append(action)
        if self._wins_at(r, c, self._player):
            self._winner = self._player
        elif len(self._moves) == self.action_size:
            self._winner = 0  # draw: board full
        self._player = -self._player

    def copy(self) -> "Gomoku":
        clone = Gomoku.__new__(Gomoku)
        clone.size = self.size
        clone.n_in_row = self.n_in_row
        clone.board = self.board.copy()
        clone._player = self._player
        clone._winner = self._winner
        clone._moves = self._moves.copy()
        clone._ckey = self._ckey  # same state, memos stay valid
        clone._legal = self._legal
        return clone

    @property
    def is_terminal(self) -> bool:
        return self._winner is not None

    @property
    def winner(self) -> Player | None:
        return self._winner

    # -- win detection -------------------------------------------------------
    def _wins_at(self, r: int, c: int, player: Player) -> bool:
        """Does *player*'s stone at (r, c) complete an n_in_row line?"""
        n = self.n_in_row
        board = self.board
        size = self.size
        for dr, dc in _DIRECTIONS:
            count = 1
            for sign in (1, -1):
                rr, cc = r + sign * dr, c + sign * dc
                while 0 <= rr < size and 0 <= cc < size and board[rr, cc] == player:
                    count += 1
                    rr += sign * dr
                    cc += sign * dc
            if count >= n:
                return True
        return False

    def _compute_canonical_key(self) -> tuple:
        # The last move feeds plane 2 of encode(), so it is key material.
        return ("gomoku", self.size, self.n_in_row, self._player,
                self.last_action, self.board.tobytes())

    # -- encoding -------------------------------------------------------
    def encode(self) -> np.ndarray:
        """AlphaZero-style planes from the mover's perspective.

        plane 0: mover's stones; plane 1: opponent stones;
        plane 2: one-hot of the last move; plane 3: all ones iff the mover
        is the first player (colour plane).
        """
        planes = np.zeros((self.num_planes, self.size, self.size), dtype=np.float64)
        planes[0] = self.board == self._player
        planes[1] = self.board == -self._player
        if self._moves:
            r, c = divmod(self._moves[-1], self.size)
            planes[2, r, c] = 1.0
        if self._player == 1:
            planes[3] = 1.0
        return planes

    def symmetries(
        self, planes: np.ndarray, policy: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Full dihedral-8 orbit (4 rotations x optional reflection)."""
        out: list[tuple[np.ndarray, np.ndarray]] = []
        pol_board = policy.reshape(self.size, self.size)
        for k in range(4):
            p = np.rot90(planes, k, axes=(1, 2))
            q = np.rot90(pol_board, k)
            out.append((p.copy(), q.ravel().copy()))
            out.append(
                (np.flip(p, axis=2).copy(), np.fliplr(q).ravel().copy())
            )
        return out

    # -- display -------------------------------------------------------
    def render(self) -> str:
        symbols = {0: ".", 1: "X", -1: "O"}
        rows = [
            " ".join(symbols[int(v)] for v in self.board[r])
            for r in range(self.size)
        ]
        return "\n".join(rows)

    def __repr__(self) -> str:
        return (
            f"Gomoku(size={self.size}, n_in_row={self.n_in_row}, "
            f"moves={len(self._moves)}, winner={self._winner})"
        )
