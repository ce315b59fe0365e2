"""Multiprocess self-play farm: true multi-core scale-out for self-play.

Where :mod:`repro.serving` multiplexes concurrent games over one shared
evaluation bus *inside one process*, this package plays each episode in
a forked worker process that evaluates its own leaves through its own
LRU cache:

- :mod:`repro.farm.farm`        -- :class:`~repro.farm.farm.SelfPlayFarm`,
  the supervisor: seeding, pull scheduling, weight sync,
  restart-and-requeue.
- :mod:`repro.farm.supervision` -- the epoch fence and retry budget the
  farm and the serving cluster's router share.

The thread engine's ``backend="process"`` option wraps a farm behind the
same ``play_round`` interface; see
:class:`repro.serving.engine.MultiGameSelfPlayEngine`.
"""

from repro.farm.farm import FarmError, FarmStats, SelfPlayFarm

__all__ = ["FarmError", "FarmStats", "SelfPlayFarm"]
