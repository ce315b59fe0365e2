"""Leaf evaluators: the "Node Evaluation" stage of DNN-MCTS.

An evaluator maps a game state to ``(priors over the action space, value)``
where *value* is from the perspective of the player to move.  Three
implementations:

- :class:`NetworkEvaluator`     -- wraps a policy/value network (the paper's
  ``neural_network_simulate``); masks illegal moves and renormalises.
- :class:`RandomRolloutEvaluator` -- classical Monte-Carlo rollout
  evaluation [Coulom 2006], the pre-DNN baseline the paper contrasts with.
- :class:`UniformEvaluator`     -- uniform priors / zero value; makes tests
  and latency profiling independent of network weights.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass

import numpy as np

from repro.games.base import Game
from repro.utils.rng import new_rng

__all__ = [
    "Evaluation",
    "Evaluator",
    "NetworkEvaluator",
    "RandomRolloutEvaluator",
    "UniformEvaluator",
    "mask_and_normalize",
]


@dataclass(frozen=True)
class Evaluation:
    """Result of evaluating one state."""

    priors: np.ndarray  # (action_size,) probabilities, zero on illegal moves
    value: float  # in [-1, 1], mover's perspective


def mask_and_normalize(probs: np.ndarray, legal_mask: np.ndarray) -> np.ndarray:
    """Zero illegal entries and renormalise along the last axis; uniform
    fallback for rows whose legal mass underflows (can happen early in
    training).

    Accepts a single ``(A,)`` vector or any batched ``(..., A)`` stack.
    This is the legality-normalisation contract: the float64 reference
    backend runs it after ``predict``, and the fused
    :meth:`repro.nn.infer.InferencePlan.predict_masked` reproduces it bit
    for bit (handing its rare underflow rows back to it).
    """
    probs = np.asarray(probs, dtype=np.float64)
    legal_mask = np.asarray(legal_mask, dtype=bool)
    if legal_mask.shape != probs.shape:
        raise ValueError(
            f"legal_mask shape {legal_mask.shape} does not match "
            f"probs shape {probs.shape}"
        )
    masked = np.where(legal_mask, probs, 0.0)
    totals = masked.sum(axis=-1, keepdims=True)
    legal_counts = legal_mask.sum(axis=-1, keepdims=True)
    if np.any(legal_counts == 0):
        raise ValueError("no legal actions to normalise over")
    degenerate = totals <= 1e-12
    if not np.any(degenerate):  # hot path: no underflow, skip the fallback
        return masked / totals
    uniform = legal_mask.astype(np.float64) / legal_counts
    return np.where(degenerate, uniform, masked / np.where(degenerate, 1.0, totals))


class Evaluator(abc.ABC):
    """State -> (priors, value) mapping; batched variant optional."""

    @abc.abstractmethod
    def evaluate(self, game: Game) -> Evaluation: ...

    def evaluate_batch(self, games: list[Game]) -> list[Evaluation]:
        """Default batched path: evaluate sequentially.

        Network-backed evaluators override this with a single batched
        forward pass -- the operation the accelerator queue of Section 3.3
        feeds.
        """
        return [self.evaluate(g) for g in games]


def _sanitize_masks(masks: np.ndarray) -> np.ndarray:
    """Boolean-ise a ``(B, A)`` mask batch, mapping all-illegal rows to
    all-legal.

    An all-illegal row cannot come from a live game (search never
    evaluates terminal states); it only appears when the multiprocess farm
    evaluates a slab slot torn by a killed-and-respawned worker, and that
    response is discarded by the epoch fence anyway -- the substitution
    just keeps the batched forward from dividing by zero on a row nobody
    will read.
    """
    masks = np.asarray(masks).astype(bool)
    empty = ~masks.any(axis=-1)
    if np.any(empty):
        masks = masks.copy()
        masks[empty] = True
    return masks


class NetworkEvaluator(Evaluator):
    """Policy/value-network evaluation (the paper's DNN inference).

    Both batched paths are one ``network.predict_masked`` call: states and
    legality masks in, ``(priors (B, A), values (B,))`` out, the forward
    pass, masking and renormalisation all whole-batch array operations.
    The default fused backend runs the compiled float32 plan
    (:mod:`repro.nn.infer`), an immutable snapshot; the float64 reference
    backend forces eval mode for the duration.  Evaluation therefore never
    mutates network state, and repeated evaluation of the same states is
    bit-identical even on a network left in training mode.
    """

    def __init__(self, network) -> None:
        self.network = network

    def evaluate(self, game: Game) -> Evaluation:
        return self.evaluate_batch([game])[0]

    def evaluate_batch(self, games: list[Game]) -> list[Evaluation]:
        if not games:
            return []
        if len(games) == 1:
            masks = games[0].legal_mask()[None]
        else:
            masks = np.stack([g.legal_mask() for g in games])
        priors, values = self.network.predict_masked(games, masks)
        # Evaluations outlive the batch (e.g. in the serving-layer LRU
        # cache), and a row *view* would pin the whole (B, A) batch array
        # for its lifetime: copy each row out, unless it is the only one.
        rows = priors if len(games) == 1 else [row.copy() for row in priors]
        return [Evaluation(priors=p, value=float(v)) for p, v in zip(rows, values)]

    def evaluate_encoded(
        self, states: np.ndarray, masks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate pre-encoded states: ``(B, C, H, W)`` planes and
        ``(B, A)`` legality masks -> ``(priors (B, A), values (B,))``.

        This is the multiprocess farm's evaluation surface: worker
        processes ship ``encode()`` planes through shared memory, so by
        the time the batch reaches the evaluator process there are no
        ``Game`` objects left to call :meth:`evaluate_batch` with.  Both
        run the same ``predict_masked``, so in-process and cross-process
        evaluation of the same state agree exactly.
        """
        return self.network.predict_masked(np.asarray(states), _sanitize_masks(masks))


class UniformEvaluator(Evaluator):
    """Uniform priors over legal moves, zero value."""

    def evaluate(self, game: Game) -> Evaluation:
        mask = game.legal_mask()
        count = int(mask.sum())
        if count == 0:
            raise ValueError("cannot evaluate a state with no legal actions")
        return Evaluation(priors=mask.astype(np.float64) / count, value=0.0)

    def evaluate_encoded(
        self, states: np.ndarray, masks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Farm-facing pre-encoded path; row-wise identical to
        :meth:`evaluate`, so cross-process runs stay transcript-exact."""
        masks = _sanitize_masks(masks)
        counts = masks.sum(axis=-1, keepdims=True)
        priors = masks.astype(np.float64) / counts
        return priors, np.zeros(len(priors), dtype=np.float64)


class RandomRolloutEvaluator(Evaluator):
    """Monte-Carlo rollout evaluation: play random moves to the end.

    *num_rollouts* independent playouts are averaged; priors are uniform
    (classical UCT has no learned policy).

    Thread safety: each calling thread lazily gets its own generator
    spawned from the seed stream, so concurrent evaluation from a worker
    pool is well-defined (NumPy generators are not thread-safe to share).
    """

    def __init__(
        self, num_rollouts: int = 1, rng: np.random.Generator | int | None = None
    ) -> None:
        if num_rollouts < 1:
            raise ValueError("num_rollouts must be >= 1")
        self.num_rollouts = num_rollouts
        self._seed_rng = new_rng(rng)
        self._local = threading.local()

    @property
    def rng(self) -> np.random.Generator:
        rng = getattr(self._local, "rng", None)
        if rng is None:
            # spawn() is itself guarded: only called under the import-wide
            # GIL from whichever thread first evaluates.
            rng = self._seed_rng.spawn(1)[0]
            self._local.rng = rng
        return rng

    def evaluate(self, game: Game) -> Evaluation:
        mask = game.legal_mask()
        count = int(mask.sum())
        if count == 0:
            raise ValueError("cannot evaluate a state with no legal actions")
        priors = mask.astype(np.float64) / count
        total = 0.0
        for _ in range(self.num_rollouts):
            total += self._rollout(game.copy())
        return Evaluation(priors=priors, value=total / self.num_rollouts)

    def _rollout(self, game: Game) -> float:
        mover = game.current_player
        while not game.is_terminal:
            legal = game.legal_actions()
            game.step(int(self.rng.choice(legal)))
        w = game.winner
        assert w is not None
        if w == 0:
            return 0.0
        return 1.0 if w == mover else -1.0
