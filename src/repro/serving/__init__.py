"""Serving layer: cross-game batched evaluation at scale.

Where :mod:`repro.parallel` parallelises *one* search tree, this package
multiplexes many concurrent games through a single evaluation bus so
batch occupancy scales with the number of games (the stepping stone from
single-game self-play to request-serving):

- :mod:`repro.serving.cache`  -- LRU evaluation cache keyed by
  :meth:`repro.games.base.Game.canonical_key`; a hit never reaches the
  accelerator.
- :mod:`repro.serving.engine` -- :class:`MultiGameSelfPlayEngine`, the
  G-games-one-bus orchestrator with round-level serving statistics
  (``backend="process"`` swaps the thread pool for the multiprocess
  :mod:`repro.farm`, whose workers evaluate their own leaves, behind the
  same interface).
- :mod:`repro.serving.evalbus` -- :class:`EvaluationBus`, the batching
  queue the engine's game threads share: leaves fuse into one batch at
  the busy headcount or once the oldest has lingered its window.
- :mod:`repro.serving.master` -- :class:`~repro.serving.master.SearchMaster`,
  the gateway's one search thread: it steps the master round
  (:class:`repro.mcts.master.Master`) over every session's search
  program and sends each round's cache misses out as one batch.
- :mod:`repro.serving.service` -- :class:`MatchGateway`, the async
  request-facing front door: deadline-budgeted match sessions searched
  on the master, with admission control, idle GC and latency percentiles,
  plus the newline-JSON TCP :class:`GatewayServer` /
  :class:`GatewayClient` pair.  One gateway serves on one core; the
  :mod:`repro.cluster` router shards sessions over gateway processes.
- :mod:`repro.serving.simulate` -- the virtual-time scenario harness:
  scripted client populations driving a real gateway on a
  :class:`~repro.utils.clock.VirtualClock`, compressing hours of soak
  into deterministic seconds (``tests/simtime`` and the E17 sweep).
"""

from repro.serving.cache import CachingEvaluator, EvaluationCache
from repro.serving.engine import (
    LatencyTracker,
    MultiGameSelfPlayEngine,
    ServingStats,
)
from repro.serving.evalbus import BusEvaluator, EvalBusStats, EvaluationBus
from repro.serving.simulate import (
    ClusterScenarioResult,
    ClusterScenarioRunner,
    FaultEvent,
    InlineExecutor,
    ScenarioResult,
    ScenarioRunner,
    ScenarioSpec,
    SimulatedSearchExecutor,
    generate_script,
)
from repro.serving.service import (
    GatewayClient,
    GatewayConnectionError,
    GatewayError,
    GatewayOverloaded,
    GatewayServer,
    GatewayStats,
    InvalidMove,
    MatchGateway,
    MoveReply,
    SessionNotFound,
    SessionStatus,
)

__all__ = [
    "BusEvaluator",
    "CachingEvaluator",
    "ClusterScenarioResult",
    "ClusterScenarioRunner",
    "EvalBusStats",
    "EvaluationBus",
    "EvaluationCache",
    "FaultEvent",
    "GatewayClient",
    "GatewayConnectionError",
    "GatewayError",
    "GatewayOverloaded",
    "GatewayServer",
    "GatewayStats",
    "InlineExecutor",
    "InvalidMove",
    "LatencyTracker",
    "MatchGateway",
    "MoveReply",
    "MultiGameSelfPlayEngine",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioSpec",
    "ServingStats",
    "SessionNotFound",
    "SessionStatus",
    "SimulatedSearchExecutor",
    "generate_script",
]
