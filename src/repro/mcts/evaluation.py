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
    This is the legality-normalisation contract: the fused
    :meth:`repro.nn.infer.InferencePlan.predict_masked` reproduces it bit
    for bit after its softmax (handing its rare underflow rows back to it).
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


class NetworkEvaluator(Evaluator):
    """Policy/value-network evaluation (the paper's DNN inference).

    Both batched paths are one ``network.predict_masked`` call: states and
    legality masks in, ``(priors (B, A), values (B,))`` out, the forward
    pass, masking and renormalisation all whole-batch array operations.
    The network runs its compiled float32 plan (:mod:`repro.nn.infer`), an
    immutable snapshot, so evaluation never mutates network state, and
    repeated evaluation of the same states is bit-identical even on a
    network left in training mode.
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


class UniformEvaluator(Evaluator):
    """Uniform priors over legal moves, zero value."""

    def evaluate(self, game: Game) -> Evaluation:
        mask = game.legal_mask()
        count = int(mask.sum())
        if count == 0:
            raise ValueError("cannot evaluate a state with no legal actions")
        return Evaluation(priors=mask.astype(np.float64) / count, value=0.0)


class RandomRolloutEvaluator(Evaluator):
    """Monte-Carlo rollout evaluation: play random moves to the end.

    *num_rollouts* independent playouts are averaged; priors are uniform
    (classical UCT has no learned policy).  The rollouts draw from one
    stream spawned from *rng*, so a search that evaluates on one thread
    (every scheme does) is reproducible from its seeds.
    """

    def __init__(
        self, num_rollouts: int = 1, rng: np.random.Generator | int | None = None
    ) -> None:
        if num_rollouts < 1:
            raise ValueError("num_rollouts must be >= 1")
        self.num_rollouts = num_rollouts
        self.rng = new_rng(rng).spawn(1)[0]

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
