"""In-memory spans and the wrappers that record them.

Spans are recorded from the benchmark's side of the public API only:
wrappers are passed in where the program accepts an evaluator, a trainer
or a search scheme, and client calls are timed where they are made.  A
span has a name, a start, an end and the id of the span that caused it;
a layer's self time is its duration minus the part its children cover.

Without a tracer the move wrapper keeps one clock pair per call and the
evaluator wrapper only counts calls, so the untraced run measures the
program, not the tracing.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager

import numpy as np

from repro.mcts.evaluation import Evaluation, Evaluator

class Tracer:
    """Collects spans in memory; written out once the run ends."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float, dict]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: parent for spans opened on threads with no open span of their
        #: own (e.g. local-tree worker threads evaluating for the master)
        self.default_parent: int | None = None

    def _current(self) -> int | None:
        current = getattr(self._local, "current", None)
        return self.default_parent if current is None else current

    @contextmanager
    def span(self, name: str, **attrs):
        span_id = next(self._ids)
        parent_id = self._current()
        outer = getattr(self._local, "current", None)
        self._local.current = span_id
        t0 = time.perf_counter()
        try:
            yield span_id
        finally:
            t1 = time.perf_counter()
            self._local.current = outer
            self.spans.append((span_id, parent_id, name, t0, t1, attrs))

    def record(self, name: str, t0: float, t1: float, **attrs) -> None:
        """Add a finished top-level span (e.g. one client round trip)."""
        self.spans.append((next(self._ids), None, name, t0, t1, attrs))

    def named(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[2] == name]

    def busy_seconds(self, name: str) -> float:
        """Wall time covered by at least one span of *name*."""
        return _union_length([(s[3], s[4]) for s in self.named(name)])

    def self_seconds(self, name: str) -> float:
        """Summed self time of every span of *name*."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span_id, parent, _n, t0, t1, _a in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((t0, t1))
        total = 0.0
        for span_id, _p, _n, t0, t1, _a in self.named(name):
            covered = _union_length(
                [(max(a, t0), min(b, t1)) for a, b in children.get(span_id, [])]
            )
            total += (t1 - t0) - covered
        return total

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, t0, t1, attrs in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": t0, "end": t1, **attrs,
                }) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(i for i in intervals if i[1] > i[0]):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class CountingEvaluator(Evaluator):
    """Evaluator wrapper: counts calls and rows, and records an
    ``evaluate_batch`` span per call when given a tracer."""

    def __init__(self, inner: Evaluator, tracer: Tracer | None, name: str) -> None:
        self.inner = inner
        self.tracer = tracer
        self.name = name
        # network-backed evaluators expose the network so the program
        # compiles its inference plan before serving
        self.network = getattr(inner, "network", None)
        self.calls = 0
        self.rows = 0
        self._lock = threading.Lock()

    def evaluate(self, game) -> Evaluation:
        return self.evaluate_batch([game])[0]

    def evaluate_batch(self, games: list) -> list[Evaluation]:
        with self._lock:
            self.calls += 1
            self.rows += len(games)
        if self.tracer is None:
            return self._evaluate(games)
        with self.tracer.span(self.name, rows=len(games)):
            return self._evaluate(games)

    def _evaluate(self, games: list) -> list[Evaluation]:
        if len(games) == 1:
            return [self.inner.evaluate(games[0])]
        return self.inner.evaluate_batch(games)


class MoveRecorder:
    """Collects per-move latencies and checks every prior it sees."""

    def __init__(self, tracer: Tracer | None, span_name: str) -> None:
        self.tracer = tracer
        self.span_name = span_name
        self.latencies_ms: list[float] = []
        self.bad_priors = 0
        self._lock = threading.Lock()

    def add(self, latency_ms: float, prior_ok: bool) -> None:
        with self._lock:
            self.latencies_ms.append(latency_ms)
            if not prior_ok:
                self.bad_priors += 1


def prior_is_legal(prior, legal_mask) -> bool:
    """A prior must be a probability distribution over the legal moves."""
    prior = np.asarray(prior, dtype=np.float64)
    mask = np.asarray(legal_mask, dtype=bool)
    return bool(
        prior.shape == mask.shape
        and np.all(prior >= 0.0)
        and np.all(prior[~mask] == 0.0)
        and abs(prior.sum() - 1.0) < 1e-4
    )


class TimedScheme:
    """Search-scheme wrapper: one clock pair around ``get_action_prior``,
    plus a span (and the parent for cross-thread child spans) when
    traced."""

    def __init__(self, scheme, recorder: MoveRecorder, set_default_parent=False) -> None:
        self.scheme = scheme
        self.recorder = recorder
        self.set_default_parent = set_default_parent

    def get_action_prior(self, game, num_playouts):
        tracer = self.recorder.tracer
        if tracer is None:
            t0 = time.perf_counter()
            prior = self.scheme.get_action_prior(game, num_playouts)
            t1 = time.perf_counter()
        else:
            with tracer.span(self.recorder.span_name) as span_id:
                if self.set_default_parent:
                    tracer.default_parent = span_id
                t0 = time.perf_counter()
                prior = self.scheme.get_action_prior(game, num_playouts)
                t1 = time.perf_counter()
                if self.set_default_parent:
                    tracer.default_parent = None
        self.recorder.add((t1 - t0) * 1e3, prior_is_legal(prior, game.legal_mask()))
        return prior

    def close(self) -> None:
        close = getattr(self.scheme, "close", None)
        if close is not None:
            close()


class TracedTrainer:
    """Trainer wrapper recording one span per SGD step."""

    def __init__(self, trainer, tracer: Tracer) -> None:
        self.trainer = trainer
        self.tracer = tracer

    def __getattr__(self, name):
        return getattr(self.trainer, name)

    def train_step(self, states, policies, values):
        with self.tracer.span("nn.train.step", rows=len(states)):
            return self.trainer.train_step(states, policies, values)
