"""Shard processes and the links the router talks to them through.

A *shard* is one complete :class:`~repro.serving.service.MatchGateway`
-- sessions, admission control, idle GC, its own evaluator and cache
(shared-nothing) -- addressed by the router through a uniform
:class:`ShardLink` surface with two implementations:

- :class:`ProcessShard` -- production: a forked OS process running a
  :class:`~repro.serving.service.GatewayServer` on a kernel-assigned TCP
  port, reached through pooled hardened
  :class:`~repro.serving.service.GatewayClient` connections.  Dies for
  real (SIGTERM/SIGKILL, the CI smoke's chaos move) and is respawned by
  the router with a bumped epoch.
- :class:`LocalShard` -- the deterministic stand-in: the same gateway
  driven through its server's dispatch path in-process, with every
  payload round-tripped through JSON so anything that would not survive
  the real wire fails here too.  Runs on a
  :class:`~repro.utils.clock.VirtualClock`, supports scripted kills and
  reply-loss injection, and is what the chaos suite replays timelines
  on.

Both links raise :class:`~repro.serving.service.GatewayConnectionError`
for transport failures, so the router's retry/backoff path is transport
agnostic.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing as mp
import os
from dataclasses import dataclass, field, replace
from typing import Protocol, runtime_checkable

from repro.serving.service import (
    GatewayClient,
    GatewayConnectionError,
    GatewayServer,
    MatchGateway,
    build_game,
)
from repro.utils.clock import Clock

__all__ = ["ShardSpec", "ShardLink", "LocalShard", "ProcessShard"]


@dataclass(frozen=True)
class ShardSpec:
    """Everything needed to (re)build one shard, in plain values.

    Respawning a shard replays its spec with a bumped epoch -- the
    successor is configured identically to the corpse, so supervision
    never drifts the fleet's shape.
    """

    shard_id: int
    game: str = "tictactoe"
    size: int | None = None
    evaluator: str = "uniform"  # "uniform" | "network"
    seed: int = 0
    deadline_ms: float = 200.0
    num_playouts: int = 16
    workers: int = 2
    max_inflight: int | None = None
    max_sessions: int = 512
    idle_timeout_s: float = 300.0
    gc_interval_s: float = 5.0
    rpc_timeout_s: float = 5.0
    host: str = "127.0.0.1"
    #: fuse sessions' pending leaves into one batch per master round;
    #: each shard batches only its own sessions' leaves
    evalbus: bool = True
    #: base directory for durable per-session move journals (``None``
    #: journals nothing).  Each shard *life* writes under its own
    #: ``shard-{id}/epoch-{e}`` subdirectory: a respawned successor
    #: starts a fresh log (its predecessor's sessions were failed over),
    #: while the corpse's log stays readable for the router's
    #: journal-preferring failover.
    journal_dir: str | None = None
    journal_fsync: str = "batched"
    extra: dict = field(default_factory=dict, compare=False)

    def with_shard_id(self, shard_id: int) -> "ShardSpec":
        return replace(self, shard_id=shard_id)

    def journal_path(self, epoch: int) -> str | None:
        """This shard life's journal directory (``None`` = journaling off)."""
        if self.journal_dir is None:
            return None
        return os.path.join(
            self.journal_dir, f"shard-{self.shard_id}", f"epoch-{epoch}"
        )

    def build_gateway(
        self,
        *,
        clock: Clock | None = None,
        executor=None,
        epoch: int = 0,
    ) -> MatchGateway:
        """Construct the shard's gateway (evaluator included)."""
        game = build_game(self.game, self.size)
        template = None
        if self.evaluator == "network":
            from repro.games import build_network_for
            from repro.mcts.evaluation import NetworkEvaluator

            net = build_network_for(game, channels=(8, 16, 16), rng=self.seed)
            evaluator = NetworkEvaluator(net)
            template = game  # the net only fits this game's shape
        elif self.evaluator == "uniform":
            from repro.mcts.evaluation import UniformEvaluator

            evaluator = UniformEvaluator()
        else:
            raise ValueError(f"unknown evaluator {self.evaluator!r}")
        return MatchGateway(
            evaluator,
            workers=self.workers,
            deadline_ms=self.deadline_ms,
            num_playouts=self.num_playouts,
            max_inflight=self.max_inflight,
            max_sessions=self.max_sessions,
            idle_timeout_s=self.idle_timeout_s,
            gc_interval_s=self.gc_interval_s,
            game_template=template,
            # the seed ladder rung is per (shard, epoch): a respawned
            # shard must not replay its predecessor's rng stream
            seed=self.seed + 7919 * self.shard_id + epoch,
            clock=clock,
            executor=executor,
            evalbus=self.evalbus,
            shard_id=f"shard-{self.shard_id}",
            journal_dir=self.journal_path(epoch),
            journal_fsync=self.journal_fsync,
        )


@runtime_checkable
class ShardLink(Protocol):
    """What the router requires of a shard, transport aside."""

    shard_id: int
    epoch: int

    @property
    def alive(self) -> bool:  # pragma: no cover - protocol
        ...

    async def start(self) -> None:  # pragma: no cover - protocol
        ...

    async def request(
        self, payload: dict, *, timeout_s: float | None = None
    ) -> dict:  # pragma: no cover - protocol
        ...

    async def aclose(self) -> None:  # pragma: no cover - protocol
        ...


class LocalShard:
    """In-process shard for deterministic virtual-time cluster scenarios.

    The gateway is real and so is the server dispatch; only the TCP hop
    is elided.  Payload and reply each round-trip through ``json`` so
    wire-unsafe values fail exactly as they would on the socket.

    Fault injection:

    - :meth:`kill` -- the shard "loses power": every later request
      raises :class:`GatewayConnectionError` and the gateway's state
      (all its live sessions) is unreachable, exactly like a crashed
      process.
    - :meth:`drop_replies` -- the next *n* requests execute server-side
      but the reply is lost in transit; the client sees a connection
      error and cannot know the request applied.  The double-apply
      protection tests are built on this.
    """

    def __init__(
        self,
        spec: ShardSpec,
        *,
        clock: Clock | None = None,
        executor=None,
        epoch: int = 0,
    ) -> None:
        self.spec = spec
        self.shard_id = spec.shard_id
        self.epoch = epoch
        self.clock = clock
        self.gateway = spec.build_gateway(
            clock=clock, executor=executor, epoch=epoch
        )
        self._server = GatewayServer(self.gateway)  # dispatch only, no bind
        self._alive = False
        self._drop_next = 0
        self.requests_served = 0

    @property
    def alive(self) -> bool:
        return self._alive

    async def start(self) -> None:
        await self.gateway.start()
        self._alive = True

    def kill(self) -> None:
        """Simulated crash: state survives nowhere the router can reach."""
        self._alive = False

    def drop_replies(self, n: int = 1) -> None:
        """Lose the next *n* replies in transit (request still applies)."""
        self._drop_next += int(n)

    async def request(
        self, payload: dict, *, timeout_s: float | None = None
    ) -> dict:
        if not self._alive:
            raise GatewayConnectionError(
                f"shard {self.shard_id} (epoch {self.epoch}) is down"
            )
        line = json.dumps(payload).encode() + b"\n"
        reply = await self._server._dispatch(line)
        self.requests_served += 1
        if self._drop_next > 0:
            self._drop_next -= 1
            raise GatewayConnectionError(
                "reply lost in transit (injected fault)"
            )
        return json.loads(json.dumps(reply))

    async def aclose(self) -> None:
        self._alive = False
        await self.gateway.aclose()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LocalShard(id={self.shard_id}, epoch={self.epoch}, "
            f"alive={self._alive})"
        )


def _shard_main(spec: ShardSpec, conn) -> None:
    """Forked shard-process entry point: serve one gateway over TCP.

    Sends ``("ready", port)`` once bound, then serves until killed.
    SIGTERM is left at its default disposition -- shard death is the
    event the cluster is built to survive, not to intercept.
    """

    async def serve() -> None:
        gateway = spec.build_gateway()
        server = GatewayServer(gateway, spec.host, 0)
        host, port = await server.start()
        conn.send(("ready", host, port))
        conn.close()
        await server.serve_forever()

    asyncio.run(serve())


class ProcessShard:
    """A shard running as a forked OS process behind a TCP gateway.

    The router holds a small pool of hardened
    :class:`~repro.serving.service.GatewayClient` connections (one per
    concurrently in-flight request; a newline-JSON connection carries one
    request at a time).  Connections that see a transport error are
    discarded, not repooled -- the next request dials fresh, so a shard
    restart never leaves the pool poisoned with dead sockets.
    """

    def __init__(self, spec: ShardSpec, *, epoch: int = 0) -> None:
        self.spec = spec
        self.shard_id = spec.shard_id
        self.epoch = epoch
        self._ctx = mp.get_context("fork")
        self._proc: mp.process.BaseProcess | None = None
        self.host: str | None = None
        self.port: int | None = None
        self._pool: list[GatewayClient] = []
        self._closed = False

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    @property
    def pid(self) -> int | None:
        return self._proc.pid if self._proc is not None else None

    @property
    def sentinel(self):
        assert self._proc is not None, "shard not started"
        return self._proc.sentinel

    async def start(self) -> None:
        if self._closed:
            raise RuntimeError("shard is closed")
        parent, child = self._ctx.Pipe(duplex=False)
        self._proc = self._ctx.Process(
            target=_shard_main,
            args=(self.spec, child),
            name=f"cluster-shard-{self.shard_id}-e{self.epoch}",
            daemon=True,
        )
        self._proc.start()
        child.close()
        loop = asyncio.get_running_loop()
        # the child signals readiness over the pipe; poll it off-loop so
        # the router keeps serving while a respawned shard boots
        ready = await loop.run_in_executor(
            None, parent.poll, self.spec.rpc_timeout_s * 4
        )
        if not ready:
            parent.close()
            raise GatewayConnectionError(
                f"shard {self.shard_id} did not become ready"
            )
        try:
            msg = await loop.run_in_executor(None, parent.recv)
        except (EOFError, OSError) as exc:
            raise GatewayConnectionError(
                f"shard {self.shard_id} died during startup"
            ) from exc
        finally:
            parent.close()
        _, self.host, self.port = msg

    async def request(
        self, payload: dict, *, timeout_s: float | None = None
    ) -> dict:
        if self._closed:
            raise GatewayConnectionError(f"shard {self.shard_id} is closed")
        if self.host is None:
            raise GatewayConnectionError(f"shard {self.shard_id} not started")
        client = (
            self._pool.pop()
            if self._pool
            else await GatewayClient.connect(
                self.host, self.port, timeout_s=self.spec.rpc_timeout_s
            )
        )
        try:
            reply = await client.request(payload, timeout_s=timeout_s)
        except BaseException:
            await client.aclose()
            raise
        self._pool.append(client)
        return reply

    def terminate(self) -> None:
        """SIGTERM the shard process (the CI smoke's chaos move)."""
        if self._proc is not None and self._proc.is_alive():
            self._proc.terminate()

    def kill(self) -> None:
        if self._proc is not None and self._proc.is_alive():
            self._proc.kill()

    async def aclose(self) -> None:
        self._closed = True
        for client in self._pool:
            await client.aclose()
        self._pool.clear()
        if self._proc is not None:
            proc = self._proc
            proc.terminate()
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, proc.join, 2.0)
            if proc.is_alive():
                proc.kill()
                await loop.run_in_executor(None, proc.join, 1.0)
            self._proc = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProcessShard(id={self.shard_id}, epoch={self.epoch}, "
            f"pid={self.pid}, addr={self.host}:{self.port})"
        )
