"""Synthetic tree game for design-time profiling (paper Section 4.2).

The paper measures ``T_select`` and ``T_backup`` "on a synthetic tree
constructed for one episode with random-generated UCT scores, emulating the
same fanout and depth limit defined by the DNN-MCTS algorithm".  This game
realises exactly that: every state has ``fanout`` legal actions, games end
at ``depth_limit`` plies with a pseudo-random (but path-deterministic)
outcome, and the feature planes are a cheap hash of the move path so a real
network can be run against it with realistic input entropy.
"""

from __future__ import annotations

import numpy as np

from repro.games.base import Game, Player

__all__ = ["SyntheticTreeGame"]


def _mix(h: int, v: int) -> int:
    """64-bit splitmix-style hash step (deterministic across runs)."""
    h = (h + 0x9E3779B97F4A7C15 + v) & 0xFFFFFFFFFFFFFFFF
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return h ^ (h >> 31)


class SyntheticTreeGame(Game):
    """Uniform-fanout game tree with path-deterministic random outcomes.

    Parameters
    ----------
    fanout : branching factor (the paper's "tree fanout" hyper-parameter).
    depth_limit : plies until the game terminates (the "tree depth").
    board_size : spatial extent of the fake feature planes (so a real
        PolicyValueNet of the target application's dimensions can be run).
    seed : perturbs the outcome hash, giving independent synthetic trees.
    """

    num_planes = 4

    def __init__(
        self,
        fanout: int = 8,
        depth_limit: int = 16,
        board_size: int = 15,
        seed: int = 0,
    ) -> None:
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        if depth_limit < 1:
            raise ValueError("depth_limit must be >= 1")
        if board_size < 3:
            raise ValueError("board_size must be >= 3")
        self.fanout = fanout
        self.depth_limit = depth_limit
        self.size = board_size
        self.seed = seed
        self.depth = 0
        self._hash = _mix(0xABCDEF, seed)
        self._player: Player = 1

    @property
    def board_shape(self) -> tuple[int, int]:
        return (self.size, self.size)

    @property
    def action_size(self) -> int:
        return self.fanout

    @property
    def current_player(self) -> Player:
        return self._player

    def _compute_legal_actions(self) -> np.ndarray:
        return np.arange(self.fanout, dtype=np.int64)

    def _apply_step(self, action: int) -> None:
        if self.is_terminal:
            raise ValueError("game is over")
        if not 0 <= action < self.fanout:
            raise ValueError(f"action {action} out of range")
        self.depth += 1
        self._hash = _mix(self._hash, action + 1)
        self._player = -self._player

    def copy(self) -> "SyntheticTreeGame":
        clone = SyntheticTreeGame.__new__(SyntheticTreeGame)
        clone.fanout = self.fanout
        clone.depth_limit = self.depth_limit
        clone.size = self.size
        clone.seed = self.seed
        clone.depth = self.depth
        clone._hash = self._hash
        clone._player = self._player
        clone._ckey = self._ckey  # same state, memos stay valid
        clone._legal = self._legal
        return clone

    @property
    def is_terminal(self) -> bool:
        return self.depth >= self.depth_limit

    @property
    def winner(self) -> Player | None:
        if not self.is_terminal:
            return None
        # Path-deterministic outcome: ~45% first player, ~45% second, 10% draw.
        r = self._hash % 100
        if r < 45:
            return 1
        if r < 90:
            return -1
        return 0

    def _compute_canonical_key(self) -> tuple:
        # The path hash fully determines the encode() planes and the legal
        # move set (uniform fanout), so it is the whole state.
        return ("synthetic", self.fanout, self.size, self.depth, self._hash)

    def encode(self) -> np.ndarray:
        """Hash-seeded pseudo-random planes (cheap, deterministic)."""
        rng = np.random.default_rng(self._hash & 0xFFFFFFFF)
        planes = rng.random((self.num_planes, self.size, self.size))
        if self._player == 1:
            planes[3] = 1.0
        else:
            planes[3] = 0.0
        return planes

    def __repr__(self) -> str:
        return (
            f"SyntheticTreeGame(fanout={self.fanout}, depth={self.depth}/"
            f"{self.depth_limit})"
        )
