"""Abstract game interface consumed by every MCTS engine in the library.

Conventions
-----------
- Two players, ``+1`` (first mover) and ``-1``.
- ``step`` mutates in place; search engines call ``copy`` first, mirroring
  Algorithm 2 line 2 of the paper (``game <- copy(environment)``).
- ``encode`` returns the feature planes the policy/value network consumes
  (always from the perspective of the player to move, so the network never
  needs to know whose turn it is beyond the colour plane).
- ``terminal_value`` is from the perspective of the player to move:
  ``-1`` means the mover has lost (the usual case -- the previous move won),
  ``0`` a draw.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.nn.network import PolicyValueNet

__all__ = ["Player", "Game", "build_network_for"]

Player = int  # +1 or -1

_NO_ACTIONS = np.empty(0, dtype=np.int64)


class Game(abc.ABC):
    """Two-player zero-sum perfect-information game interface."""

    #: number of input feature planes produced by :meth:`encode`
    num_planes: int = 4

    #: memoised :meth:`canonical_key` and :meth:`legal_actions`; :meth:`step`
    #: resets both after every mutation and ``copy`` carries them over
    #: (class-level defaults so ``__new__``-style copies start un-memoised)
    _ckey: tuple | None = None
    _legal: np.ndarray | None = None

    # -- static shape -------------------------------------------------------
    @property
    @abc.abstractmethod
    def board_shape(self) -> tuple[int, int]:
        """(rows, cols) of the spatial encoding."""

    @property
    @abc.abstractmethod
    def action_size(self) -> int:
        """Total number of actions (legal or not) in the policy output."""

    # -- dynamic state -------------------------------------------------------
    @property
    @abc.abstractmethod
    def current_player(self) -> Player:
        """Player to move: +1 or -1."""

    def legal_actions(self) -> np.ndarray:
        """Sorted, read-only int array of currently legal action ids.

        Memoised on the instance like :meth:`canonical_key`: a playout
        asks once for the evaluator's :meth:`legal_mask` and once for
        expansion, and both get the same array.  It is read-only because
        copies share it.  Games supply the non-terminal case through
        :meth:`_compute_legal_actions`.
        """
        legal = self._legal
        if legal is None:
            legal = _NO_ACTIONS if self.is_terminal else self._compute_legal_actions()
            legal.flags.writeable = False
            self._legal = legal
        return legal

    @abc.abstractmethod
    def _compute_legal_actions(self) -> np.ndarray:
        """Legal action ids of a non-terminal state, ascending."""

    def step(self, action: int) -> None:
        """Apply *action* in place.  Raises ValueError on illegal moves.

        Template method: the game-specific move logic lives in
        :meth:`_apply_step`; invalidating the memoised
        :meth:`canonical_key` and :meth:`legal_actions` happens here,
        centrally, so no concrete game can forget it and silently
        corrupt the evaluation cache or the search.
        """
        self._apply_step(action)
        self._ckey = None
        self._legal = None

    @abc.abstractmethod
    def _apply_step(self, action: int) -> None:
        """Game-specific move logic (always invoked through :meth:`step`)."""

    @abc.abstractmethod
    def copy(self) -> "Game":
        """Deep-enough copy: mutating the copy never affects the original."""

    @property
    @abc.abstractmethod
    def is_terminal(self) -> bool: ...

    @property
    @abc.abstractmethod
    def winner(self) -> Player | None:
        """+1/-1 when decided, 0 for a draw, None if the game is ongoing."""

    @abc.abstractmethod
    def encode(self) -> np.ndarray:
        """Feature planes ``(num_planes, rows, cols)`` for the network."""

    # -- derived helpers -------------------------------------------------------
    @property
    def terminal_value(self) -> float:
        """Game outcome from the mover's perspective (requires terminal)."""
        if not self.is_terminal:
            raise ValueError("terminal_value on a non-terminal state")
        w = self.winner
        assert w is not None
        if w == 0:
            return 0.0
        return 1.0 if w == self.current_player else -1.0

    def legal_mask(self) -> np.ndarray:
        """Boolean mask over the full action space."""
        mask = np.zeros(self.action_size, dtype=bool)
        mask[self.legal_actions()] = True
        return mask

    def canonical_key(self) -> tuple:
        """Hashable key identifying this state for evaluation caching.

        Two states with equal keys must be interchangeable for leaf
        evaluation: same :meth:`encode` planes, same legal-move mask.

        Memoised on the instance: the serving-layer cache hashes the
        state on every lookup *and* insert, so without memoisation each
        leaf pays the full board digest twice.  ``step`` invalidates by
        resetting ``_ckey``; games customise the digest by overriding
        :meth:`_compute_canonical_key`, not this method.
        """
        key = self._ckey
        if key is None:
            key = self._ckey = self._compute_canonical_key()
        return key

    def _compute_canonical_key(self) -> tuple:
        """Build the state digest (see :meth:`canonical_key`).

        The default derives the key from the encoded planes (which already
        embed the player-to-move colour plane); concrete games override it
        with a cheaper digest of their raw state so the serving-layer
        evaluation cache does not pay an encode per computation.
        """
        return (type(self).__qualname__, self.current_player, self.encode().tobytes())

    def symmetries(
        self, planes: np.ndarray, policy: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Equivalent (planes, policy) pairs under the game's symmetry group.

        Default: the identity only.  Board games with square symmetry
        override this to return the 8-fold dihedral orbit used for training
        -set augmentation.
        """
        return [(planes, policy)]

    def render(self) -> str:
        """Human-readable board string (best effort, for examples/logs)."""
        return repr(self)


def build_network_for(
    game: Game,
    channels: tuple[int, int, int] = (32, 64, 128),
    rng: np.random.Generator | int | None = None,
) -> "PolicyValueNet":
    """Construct the paper's 5-conv + 3-FC network shaped for *game*."""
    from repro.nn.network import PolicyValueNet

    return PolicyValueNet(
        board_size=game.board_shape,
        in_channels=game.num_planes,
        channels=channels,
        action_size=game.action_size,
        rng=rng,
    )
