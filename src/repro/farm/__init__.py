"""Multiprocess self-play farm: true multi-core scale-out for self-play.

Where :mod:`repro.serving` multiplexes concurrent games over one shared
accelerator queue *inside one process*, this package moves each game's
search into its own worker process and batches their leaf evaluations in
a dedicated evaluator process over shared memory:

- :mod:`repro.farm.shm`      -- segment registry (leak-accounted
  ``/dev/shm`` allocation) and shared NumPy arrays.
- :mod:`repro.farm.rings`    -- per-worker request/response slabs plus the
  worker-side :class:`~repro.farm.rings.RingClient` evaluator.
- :mod:`repro.farm.cache`    -- lock-striped shared-memory evaluation
  cache keyed by ``Game.canonical_key()`` digests.
- :mod:`repro.farm.server`   -- the evaluator process (the evaluation
  bus's batching semantics across process boundaries).
- :mod:`repro.farm.counters` -- cross-process atomic statistics.
- :mod:`repro.farm.farm`     -- :class:`~repro.farm.farm.SelfPlayFarm`,
  the supervisor: seeding, scheduling, restart-and-requeue.

The thread engine gains a ``backend="process"`` option that wraps a farm
behind the same ``play_round`` interface; see
:class:`repro.serving.engine.MultiGameSelfPlayEngine`.
"""

from repro.farm.cache import SharedEvaluationCache
from repro.farm.counters import AtomicCounter, FarmCounters
from repro.farm.farm import FarmError, FarmStats, SelfPlayFarm
from repro.farm.rings import EvaluationRings, RingClient
from repro.farm.shm import SegmentRegistry, alloc_array

__all__ = [
    "AtomicCounter",
    "EvaluationRings",
    "FarmCounters",
    "FarmError",
    "FarmStats",
    "RingClient",
    "SegmentRegistry",
    "SelfPlayFarm",
    "SharedEvaluationCache",
    "alloc_array",
]
