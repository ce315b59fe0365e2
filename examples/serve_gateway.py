#!/usr/bin/env python
"""Match-serving gateway: concurrent deadline-budgeted sessions over TCP.

Demonstrates ``repro.serving.service``:

1. start a :class:`MatchGateway` (search threads, warm per-session trees
   over the shared evaluation cache) behind the newline-JSON TCP
   :class:`GatewayServer`;
2. drive several concurrent clients through :class:`GatewayClient`:
   one plays *against* the engine (client picks random legal moves, the
   engine answers each within the deadline), the rest run
   engine-vs-engine sessions;
3. exercise the operational surface: a resigned session, a forced
   idle-GC sweep, and a 503-style rejection under a tiny in-flight
   limit;
4. print the gateway's serving statistics (p50/p95/p99 move latency,
   rejection and deadline-miss accounting).

Run:  PYTHONPATH=src python examples/serve_gateway.py
"""

import asyncio

import numpy as np

from repro.serving import (
    GatewayClient,
    GatewayOverloaded,
    GatewayServer,
    MatchGateway,
)

DEADLINE_MS = 100.0
PLAYOUTS = 64
SESSIONS = 4


async def engine_vs_engine(host: str, port: int, tag: str) -> None:
    client = await GatewayClient.connect(host, port)
    try:
        session = await client.new_match("tictactoe")
        while True:
            reply = await client.move(session, deadline_ms=DEADLINE_MS)
            if reply["done"]:
                outcome = {1: "+1 wins", -1: "-1 wins", 0: "draw"}[reply["winner"]]
                print(f"  {tag}: {reply['move_number']} moves, {outcome}")
                return
    finally:
        await client.aclose()


async def human_vs_engine(host: str, port: int, rng: np.random.Generator) -> None:
    """A 'human' (random legal mover) playing the engine move-for-move."""
    client = await GatewayClient.connect(host, port)
    try:
        session = await client.new_match("tictactoe")
        legal = list(range(9))
        while True:
            action = int(rng.choice(legal))
            reply = await client.move(session, action=action,
                                      deadline_ms=DEADLINE_MS)
            if reply["done"]:
                print(f"  human-vs-engine: done after {reply['move_number']} "
                      f"moves (winner {reply['winner']})")
                return
            legal.remove(action)
            legal.remove(reply["engine_action"])
            print(f"  human played {action}, engine answered "
                  f"{reply['engine_action']} in {reply['latency_ms']:.1f}ms")
    finally:
        await client.aclose()


async def main() -> None:
    gateway = MatchGateway(
        workers=4, deadline_ms=DEADLINE_MS, num_playouts=PLAYOUTS,
        idle_timeout_s=30.0, seed=0,
    )
    server = GatewayServer(gateway)
    host, port = await server.start()
    print(f"gateway on {host}:{port} (deadline {DEADLINE_MS:g}ms, "
          f"<= {PLAYOUTS} playouts/move)")

    # -- concurrent sessions -------------------------------------------------
    print("concurrent sessions:")
    await asyncio.gather(
        human_vs_engine(host, port, np.random.default_rng(7)),
        *[engine_vs_engine(host, port, f"engine-vs-engine #{i + 1}")
          for i in range(SESSIONS - 1)],
    )

    # -- lifecycle: resign and idle GC ---------------------------------------
    client = await GatewayClient.connect(host, port)
    abandoned = await client.new_match("connect4")
    resigned = await client.new_match("tictactoe")
    await client.resign(resigned)
    swept = gateway.expire_idle(now=1e12)  # force the GC sweep
    print(f"lifecycle: resigned session {resigned}, GC swept {swept} "
          f"(abandoned session {abandoned}); {gateway.session_count} left")

    # -- backpressure --------------------------------------------------------
    gateway.max_inflight = 1
    sessions = [await client.new_match("tictactoe") for _ in range(3)]
    replies = await asyncio.gather(
        *[gateway.play_move(s, deadline_ms=DEADLINE_MS) for s in sessions],
        return_exceptions=True,
    )
    rejected = sum(isinstance(r, GatewayOverloaded) for r in replies)
    print(f"backpressure: {len(replies) - rejected} served, "
          f"{rejected} rejected 503-style at max_inflight=1")
    await client.aclose()

    print("gateway stats:")
    for key, value in gateway.stats().as_dict().items():
        print(f"  {key:20s} {value}")
    await server.aclose()


if __name__ == "__main__":
    asyncio.run(main())
