"""Evaluation cache: memoised leaf evaluations for the serving layer.

Self-play traffic is extremely repetitive: every game of a multi-game
round starts from the same position, searches overlap heavily near the
root, and the synthetic profiling workload revisits identical paths across
episodes.  Re-running DNN inference for a state already evaluated wastes
exactly the accelerator capacity the Section-3.3 batching queue exists to
protect, so the serving engine puts this LRU cache *in front* of the
queue: a hit never touches the accelerator at all.

Keys come from :meth:`repro.games.base.Game.canonical_key`, which each
game implements as a cheap digest of its raw state (two states with equal
keys produce identical ``encode()`` planes and legal-move masks, so their
evaluations are interchangeable).

Thread safety: all operations take the cache lock; the cache is shared by
every concurrent game of a :class:`repro.serving.engine.MultiGameSelfPlayEngine`.
Two threads missing the same key concurrently both evaluate and both
insert -- the second insert overwrites with an equal value, which is
harmless and cheaper than per-key in-flight futures.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.games.base import Game
from repro.mcts.evaluation import Evaluation, Evaluator

__all__ = ["EvaluationCache", "CachingEvaluator"]


class EvaluationCache:
    """Thread-safe LRU cache of :class:`Evaluation` results.

    Parameters
    ----------
    capacity : maximum number of cached states; the least recently *used*
        (looked up or inserted) entry is evicted first.

    Counters
    --------
    ``hits + misses == lookups`` always holds; ``evictions`` counts entries
    dropped to respect *capacity*.
    """

    def __init__(self, capacity: int = 8192) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, Evaluation] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def lookups(self) -> int:
        with self._lock:
            return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def get(self, game: Game) -> Evaluation | None:
        """Look up *game*'s state; counts a hit or a miss either way."""
        key = game.canonical_key()
        with self._lock:
            ev = self._entries.get(key)
            if ev is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return ev

    def put(self, game: Game, evaluation: Evaluation) -> None:
        """Insert (or refresh) *game*'s evaluation, evicting LRU entries."""
        key = game.canonical_key()
        with self._lock:
            self._entries[key] = evaluation
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class CachingEvaluator(Evaluator):
    """Evaluator decorator: consult an :class:`EvaluationCache` first.

    Misses are delegated to the wrapped evaluator (typically a
    :class:`repro.serving.evalbus.BusEvaluator` whose bus is shared
    across games or sessions) and inserted on the way back.  The batched path
    partitions the batch into hits and misses and evaluates only the
    misses -- as one sub-batch, preserving the vectorised forward.
    """

    def __init__(self, evaluator: Evaluator, cache: EvaluationCache | None = None) -> None:
        self.evaluator = evaluator
        # explicit None check: an *empty* EvaluationCache is falsy (__len__)
        self.cache = cache if cache is not None else EvaluationCache()

    def evaluate(self, game: Game) -> Evaluation:
        cached = self.cache.get(game)
        if cached is not None:
            return cached
        evaluation = self.evaluator.evaluate(game)
        self.cache.put(game, evaluation)
        return evaluation

    def evaluate_batch(self, games: list[Game]) -> list[Evaluation]:
        results: list[Evaluation | None] = []
        miss_indices: list[int] = []
        for i, game in enumerate(games):
            cached = self.cache.get(game)
            results.append(cached)
            if cached is None:
                miss_indices.append(i)
        if miss_indices:
            fresh = self.evaluator.evaluate_batch([games[i] for i in miss_indices])
            for i, ev in zip(miss_indices, fresh):
                self.cache.put(games[i], ev)
                results[i] = ev
        return results  # type: ignore[return-value]
