"""The farm's central evaluator process.

One process owns the (forked copy of the) evaluator and serves every
worker's leaf evaluations, reproducing the Section-3.3 batching semantics
of the in-process :class:`~repro.serving.evalbus.EvaluationBus` across
process boundaries:

- requests accumulate until the flush threshold is met -- the threshold
  is the bus's :func:`~repro.serving.evalbus.flush_threshold` of the
  number of *currently busy* workers (published by the supervisor through
  a shared value), exactly as the thread engine's bus tracks its
  live-game headcount;
- a *linger* timeout flushes partial batches so the tail of a round can
  never deadlock on a threshold the remaining producers cannot reach;
- statistics (requests served, batches flushed, partial flushes) are
  maintained in cross-process :class:`~repro.farm.counters.AtomicCounter`
  slots.

The payload never rides the pipes: a request is a ``(slot, epoch)``
doorbell, the tensors live in the shared :class:`~repro.farm.rings`
slabs, and one fancy-indexed gather turns the pending set into the
stacked batch ``evaluate_encoded`` consumes.

Fault tolerance: a response to a worker that died mid-wait hits a closed
pipe and is dropped; a request from a dead worker is still evaluated (its
slab slot may be mid-rewrite by the respawned successor, which is why
``evaluate_encoded`` tolerates torn rows) and its response is discarded by
the successor's epoch fence.
"""

from __future__ import annotations

from multiprocessing.connection import Connection, wait
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.farm.counters import FarmCounters
from repro.mcts.evaluation import Evaluator
from repro.nn.infer import ensure_plan
from repro.serving.evalbus import flush_threshold
from repro.utils.clock import WALL_CLOCK, Clock

if TYPE_CHECKING:  # pragma: no cover
    from repro.farm.rings import EvaluationRings

__all__ = ["resolve_encoded_evaluator", "evaluator_main"]


def resolve_encoded_evaluator(
    evaluator: Evaluator,
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Return the evaluator's ``evaluate_encoded`` surface or raise.

    The farm ships encoded planes, not ``Game`` objects, so the backing
    evaluator must know how to evaluate raw ``(states, masks)`` batches.
    ``NetworkEvaluator`` and ``UniformEvaluator`` both do; rollout-style
    evaluators (which need to *step* the game) structurally cannot.
    """
    fn = getattr(evaluator, "evaluate_encoded", None)
    if fn is None:
        raise TypeError(
            f"{type(evaluator).__name__} has no evaluate_encoded(states, masks); "
            "the process farm evaluates shared-memory encoded states and "
            "cannot use evaluators that need live Game objects"
        )
    return fn


def evaluator_main(
    evaluator: Evaluator,
    rings: "EvaluationRings",
    doorbells: list[Connection],
    control: Connection,
    active_workers,  # multiprocessing.Value('i')
    counters: FarmCounters,
    linger: float,
    batch_cap: int,
    clock: Clock | None = None,
) -> None:
    """Entry point of the evaluator process (invoked post-fork).

    *clock* times the linger window (ages of pending requests); wall by
    default.  The blocking ``wait()`` on the doorbells is necessarily
    real OS time -- a virtual clock only makes the linger *bookkeeping*
    simulable, which is what the in-thread harness tests drive.
    """
    clock = WALL_CLOCK if clock is None else clock
    evaluate = resolve_encoded_evaluator(evaluator)
    # compile the fused plan before serving: the parent's thread-local
    # workspaces did not survive the fork, and the first worker batch
    # should not pay compilation either
    ensure_plan(getattr(evaluator, "network", None))
    by_conn = {conn: wid for wid, conn in enumerate(doorbells)}
    pending: list[tuple[int, int, int]] = []  # (worker_id, slot, epoch)
    oldest = 0.0  # monotonic time of the oldest pending request

    def flush() -> None:
        nonlocal pending
        batch, pending = pending[:batch_cap], pending[batch_cap:]
        if not batch:
            return
        threshold = _threshold(active_workers, batch_cap)
        wids = [b[0] for b in batch]
        slots = [b[1] for b in batch]
        states, masks = rings.gather(wids, slots)
        priors, values = evaluate(states, masks)
        rings.scatter(wids, slots, priors, values)
        counters.batches_flushed.add(1)
        counters.requests_served.add(len(batch))
        if len(batch) < threshold:
            counters.partial_flushes.add(1)
        for wid, slot, epoch in batch:
            try:
                doorbells[wid].send((slot, epoch))
            except (BrokenPipeError, OSError):
                pass  # worker died mid-wait; its successor re-requests

    while True:
        timeout = None
        if pending:
            timeout = max(0.0, linger - (clock.monotonic() - oldest))
        ready = wait([*doorbells, control], timeout=timeout)
        stop = False
        for conn in ready:
            if conn is control:
                msg = control.recv()
                if msg[0] == "stop":
                    stop = True
                elif msg[0] == "weights":
                    network = getattr(evaluator, "network", None)
                    if network is None:
                        control.send(("err", "evaluator has no network"))
                    else:
                        network.load_state_dict(msg[1])
                        # recompile the fused plan eagerly: load_state_dict
                        # bumped weights_version, and the weight sync runs
                        # between rounds -- off the evaluation hot path
                        ensure_plan(network)
                        control.send(("ok",))
                continue
            wid = by_conn[conn]
            try:
                while conn.poll():
                    if not pending:
                        oldest = clock.monotonic()
                    slot, epoch = conn.recv()
                    pending.append((wid, slot, epoch))
            except (EOFError, OSError):  # pragma: no cover - parent holds ends
                continue
        while len(pending) >= _threshold(active_workers, batch_cap):
            if not pending:
                break
            flush()
        if pending and clock.monotonic() - oldest >= linger:
            flush()
            oldest = clock.monotonic()
        if stop:
            while pending:
                flush()
            try:
                control.send(("stopped",))
            except (BrokenPipeError, OSError):
                pass
            return


def _threshold(active_workers, batch_cap: int) -> int:
    """Current flush threshold: one request per busy worker, capped."""
    return flush_threshold(int(active_workers.value), batch_cap)
