"""Command-line interface: ``python -m repro <command>``.

Commands
--------
configure : run the design-configuration workflow (Sections 3.2/4.2) for
    a game + platform and print the chosen scheme / batch size.
simulate  : execute one move's tree-based search on the virtual platform
    and print the timing summary (the unit the figures are built from).
train     : run the Algorithm-1 training loop at small scale; with
    ``--concurrent-games G`` data collection runs G games per iteration
    through the shared accelerator queue + evaluation cache, and
    ``--evaluator-backend process`` moves collection onto the multiprocess
    farm (``--workers`` worker processes, shared-memory batched
    evaluation).
selfplay  : run one multi-game batched self-play round and print the
    serving statistics (games/sec, batch occupancy, cache hit rate);
    ``--backend process --workers N`` runs the round on the farm.
serve     : start the async match-serving gateway -- concurrent game
    sessions answered under a per-move wall-clock deadline
    (``--deadline-ms``), with admission control and latency percentiles;
    ``--demo-games K`` plays K concurrent engine-vs-engine sessions
    through the TCP client and exits (the CI smoke path).
cluster   : start a fault-tolerant shard fleet -- ``--shards N`` forked
    gateway processes behind a consistent-hash router with health
    checks, retry/backoff and crash re-admission; ``--kill-shard``
    SIGTERMs the busiest shard mid-demo and the run exits nonzero if
    any accepted session is lost; ``--roll-weights`` additionally
    performs a zero-downtime weight rollout across the fleet.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _make_game(name: str, size: int):
    from repro.games import make_game

    return make_game(name, size)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive-parallel DNN-guided MCTS (SC'23 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cfg = sub.add_parser("configure", help="design-configuration workflow")
    p_cfg.add_argument("--game", default="gomoku", choices=["gomoku", "tictactoe", "connect4"])
    p_cfg.add_argument("--size", type=int, default=15, help="board size (gomoku)")
    p_cfg.add_argument("--workers", type=int, default=16)
    p_cfg.add_argument("--gpu", action="store_true", help="CPU-GPU platform")
    p_cfg.add_argument("--profile-playouts", type=int, default=300)

    p_sim = sub.add_parser("simulate", help="virtual-time search of one move")
    p_sim.add_argument("--game", default="gomoku", choices=["gomoku", "tictactoe", "connect4"])
    p_sim.add_argument("--size", type=int, default=15)
    p_sim.add_argument("--scheme", default="local", choices=["shared", "local"])
    p_sim.add_argument("--workers", type=int, default=16)
    p_sim.add_argument("--batch", type=int, default=1, help="local-tree sub-batch B")
    p_sim.add_argument("--gpu", action="store_true")
    p_sim.add_argument("--playouts", type=int, default=400)

    p_train = sub.add_parser("train", help="Algorithm-1 training loop")
    p_train.add_argument("--game", default="tictactoe", choices=["gomoku", "tictactoe", "connect4"])
    p_train.add_argument("--size", type=int, default=6)
    p_train.add_argument("--episodes", type=int, default=5)
    p_train.add_argument("--playouts", type=int, default=40)
    p_train.add_argument(
        "--workers", type=int, default=4,
        help="leaves in flight in the local-tree search (single-game "
             "mode, flushed in sub-batches of half that), or self-play "
             "worker *processes* with --evaluator-backend process; ignored "
             "for thread-backend concurrent games (parallelism comes from "
             "games)",
    )
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument(
        "--concurrent-games", type=int, default=1,
        help="collect data with G concurrent games per iteration (shared "
             "accelerator queue + evaluation cache)",
    )
    p_train.add_argument(
        "--evaluator-backend", default="thread", choices=["thread", "process"],
        help="with --concurrent-games > 1: run the games on a thread pool "
             "(in-process queue) or on the multiprocess self-play farm "
             "(shared-memory batched evaluation, --workers processes)",
    )
    p_train.add_argument(
        "--tree-backend", default="array", choices=["node", "array"],
        help="search-tree storage: heap Node objects or the vectorised "
             "structure-of-arrays backend (default)",
    )
    p_train.add_argument(
        "--inference-backend", default="fused", choices=["reference", "fused"],
        help="self-play leaf evaluation: the compiled fused float32 plan "
             "(default) or the float64 layer-by-layer reference forward; "
             "SGD always trains in float64",
    )
    p_train.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="save crash-safe training checkpoints under DIR (atomic "
             "manifest commit, keep-last-3)",
    )
    p_train.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="checkpoint every N iterations (default 1); the final "
             "iteration is always checkpointed",
    )
    p_train.add_argument(
        "--resume", action="store_true",
        help="resume from the latest valid checkpoint in --checkpoint-dir; "
             "--episodes is then the *total* iteration target, so an "
             "interrupted run restarted with the same command finishes "
             "the remaining iterations (bit-identical to an uninterrupted "
             "run for the serial / --workers 1 collection paths)",
    )

    p_sp = sub.add_parser(
        "selfplay", help="multi-game batched self-play round (serving engine)"
    )
    p_sp.add_argument("--game", default="tictactoe",
                      choices=["gomoku", "tictactoe", "connect4"])
    p_sp.add_argument("--size", type=int, default=6)
    p_sp.add_argument("--games", type=int, default=8, help="concurrent games G")
    p_sp.add_argument("--playouts", type=int, default=40)
    p_sp.add_argument("--rounds", type=int, default=1)
    p_sp.add_argument("--cache-capacity", type=int, default=8192)
    p_sp.add_argument("--seed", type=int, default=0)
    p_sp.add_argument(
        "--tree-backend", default="array", choices=["node", "array"],
        help="search-tree storage for the per-game serial searches",
    )
    p_sp.add_argument(
        "--backend", default="thread", choices=["thread", "process"],
        help="run the G games on a thread pool (default) or as a "
             "multiprocess farm with shared-memory batched evaluation",
    )
    p_sp.add_argument(
        "--workers", type=int, default=2,
        help="worker-process count for --backend process",
    )
    p_sp.add_argument(
        "--inference-backend", default="fused", choices=["reference", "fused"],
        help="leaf evaluation: compiled fused float32 plan (default) or "
             "the float64 layer-by-layer reference forward",
    )

    p_srv = sub.add_parser(
        "serve", help="async match-serving gateway (deadline-budgeted moves)"
    )
    p_srv.add_argument("--game", default="tictactoe",
                       choices=["gomoku", "tictactoe", "connect4"])
    p_srv.add_argument("--size", type=int, default=9, help="board size (gomoku)")
    p_srv.add_argument(
        "--backend", default="thread", choices=["thread", "process"],
        help="search executor: thread pool over the shared cached "
             "evaluator (warm per-session trees) or forked worker "
             "processes (stateless per-move searches)",
    )
    p_srv.add_argument("--workers", type=int, default=4,
                       help="search executor size (threads or processes)")
    p_srv.add_argument("--deadline-ms", type=float, default=200.0,
                       help="default per-move wall-clock budget")
    p_srv.add_argument("--playouts", type=int, default=256,
                       help="per-move playout cap (deadline binds first)")
    p_srv.add_argument("--max-inflight", type=int, default=None,
                       help="concurrent moves admitted before 503-style "
                            "rejection (default 2x workers)")
    p_srv.add_argument("--idle-timeout", type=float, default=300.0,
                       help="seconds of inactivity before a session is expired")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = kernel-assigned, printed at startup)")
    p_srv.add_argument("--seed", type=int, default=0)
    p_srv.add_argument(
        "--tree-backend", default="array", choices=["node", "array"],
    )
    p_srv.add_argument(
        "--evaluator", default="network", choices=["network", "uniform"],
        help="serve a freshly-initialised policy/value net (default) or "
             "uniform priors (latency testing without inference cost)",
    )
    p_srv.add_argument(
        "--inference-backend", default="fused", choices=["reference", "fused"],
    )
    p_srv.add_argument(
        "--evalbus", default="auto", choices=["auto", "on", "off"],
        help="cross-session evaluation bus fusing leaves from all live "
             "sessions into shared accelerator batches (auto = on for "
             "the thread backend, off for process)",
    )
    p_srv.add_argument(
        "--bus-linger-ms", type=float, default=2.0,
        help="max milliseconds the oldest pending leaf waits for "
             "cross-session batch-mates before a partial flush",
    )
    p_srv.add_argument(
        "--demo-games", type=int, default=0,
        help="play K concurrent engine-vs-engine demo sessions through "
             "the TCP client, print stats, and exit (0 = serve forever)",
    )
    p_srv.add_argument(
        "--journal-dir", default=None, metavar="DIR",
        help="write-ahead journal live sessions under DIR; a restarted "
             "gateway pointed at the same DIR re-admits every journaled "
             "session at its exact position",
    )
    p_srv.add_argument(
        "--journal-fsync", default="batched",
        choices=["per-move", "batched", "off"],
        help="journal durability: fsync every move, at most once per "
             "50ms window (default), or never (page cache only)",
    )

    p_cl = sub.add_parser(
        "cluster",
        help="fault-tolerant shard fleet (router + health checks + "
             "crash re-admission)",
    )
    p_cl.add_argument("--game", default="tictactoe",
                      choices=["gomoku", "tictactoe", "connect4"])
    p_cl.add_argument("--size", type=int, default=None)
    p_cl.add_argument("--shards", type=int, default=2,
                      help="gateway shard processes behind the router")
    p_cl.add_argument("--workers", type=int, default=2,
                      help="search threads per shard")
    p_cl.add_argument("--deadline-ms", type=float, default=200.0)
    p_cl.add_argument("--playouts", type=int, default=64)
    p_cl.add_argument("--seed", type=int, default=0)
    p_cl.add_argument(
        "--evaluator", default="uniform", choices=["network", "uniform"],
        help="per-shard evaluator (network required for --roll-weights)",
    )
    p_cl.add_argument(
        "--evalbus", default="auto", choices=["auto", "on", "off"],
        help="per-shard cross-session evaluation bus (auto = gateway "
             "default: on, one bus per shard)",
    )
    p_cl.add_argument("--demo-games", type=int, default=4,
                      help="concurrent engine-vs-engine sessions to play "
                           "through the router")
    p_cl.add_argument(
        "--kill-shard", action="store_true",
        help="SIGTERM the busiest shard mid-demo (chaos smoke: the run "
             "fails if any accepted session is lost)",
    )
    p_cl.add_argument("--kill-after", type=float, default=0.5,
                      help="seconds into the demo to deliver the SIGTERM")
    p_cl.add_argument(
        "--roll-weights", action="store_true",
        help="perform a zero-downtime weight rollout across the fleet "
             "while the demo plays (needs --evaluator network)",
    )
    p_cl.add_argument(
        "--journal-dir", default=None, metavar="DIR",
        help="per-shard move journals + router placement journal under "
             "DIR; failover prefers a dead shard's journal over the "
             "router's in-memory shadow, and a restarted router re-adopts "
             "journaled sessions",
    )
    p_cl.add_argument(
        "--journal-fsync", default="batched",
        choices=["per-move", "batched", "off"],
        help="journal durability policy for shard + router journals",
    )
    return parser


def cmd_configure(args) -> int:
    from repro.perfmodel import DesignConfigurator, profile_virtual
    from repro.simulator import paper_platform

    platform = paper_platform()
    game = _make_game(args.game, args.size)
    profile = profile_virtual(game, platform, num_playouts=args.profile_playouts)
    configurator = DesignConfigurator(profile, platform.gpu)
    config = configurator.configure(args.workers, use_gpu=args.gpu)
    print(f"platform : {platform.cpu.name}" + (f" + {platform.gpu.name}" if args.gpu else ""))
    print(f"game     : {args.game} ({game.board_shape[0]}x{game.board_shape[1]}, "
          f"fanout~{profile.mean_expand_children:.0f})")
    print(f"workers  : {args.workers}")
    print(f"scheme   : {config.scheme.value}")
    print(f"batch B  : {config.batch_size}")
    print(f"predicted: {config.predicted_latency * 1e6:.1f} us/iteration")
    for name, latency in config.candidates.items():
        print(f"  candidate {name}: {latency * 1e6:.1f} us")
    if config.batch_search is not None:
        print(f"  Algorithm-4 test runs: {config.batch_search.test_runs} "
              f"(naive: {args.workers})")
    return 0


def cmd_simulate(args) -> int:
    from repro.mcts import UniformEvaluator
    from repro.simulator import (
        LocalTreeSimulation,
        SharedTreeSimulation,
        paper_platform,
    )

    platform = paper_platform()
    game = _make_game(args.game, args.size)
    if args.scheme == "shared":
        sim = SharedTreeSimulation(
            game, UniformEvaluator(), platform, num_workers=args.workers,
            use_gpu=args.gpu,
        )
    else:
        sim = LocalTreeSimulation(
            game, UniformEvaluator(), platform, num_workers=args.workers,
            batch_size=args.batch, use_gpu=args.gpu,
        )
    result = sim.run(args.playouts)
    for key, value in result.summary().items():
        print(f"{key:12s} {value}")
    for tag, seconds in sorted(result.compute_by_tag.items()):
        print(f"  {tag:8s} {seconds * 1e3:9.3f} ms total")
    return 0


def cmd_train(args) -> int:
    from repro.games import build_network_for
    from repro.mcts import NetworkEvaluator
    from repro.nn import Adam, AlphaZeroLoss
    from repro.parallel import LocalTreeMCTS
    from repro.serving import MultiGameSelfPlayEngine
    from repro.training import Trainer, TrainingPipeline

    game = _make_game(args.game, args.size)
    net = build_network_for(game, channels=(8, 16, 16), rng=args.seed)
    net.set_inference_backend(args.inference_backend)
    evaluator = NetworkEvaluator(net)
    max_moves = game.board_shape[0] * game.board_shape[1]
    scheme = None
    engine = None
    if args.evaluator_backend == "process" and args.concurrent_games <= 1:
        print("note: --evaluator-backend process requires "
              "--concurrent-games > 1; collecting single-game instead")
    if args.concurrent_games > 1:
        from repro.mcts import SerialMCTS

        if args.evaluator_backend == "thread" and args.workers != 4:
            # non-default: the user asked for something
            print("note: --workers is ignored with the thread evaluator "
                  "backend (parallelism comes from concurrent games)")
        engine = MultiGameSelfPlayEngine(
            game, evaluator, num_games=args.concurrent_games,
            num_playouts=args.playouts, max_moves=max_moves,
            # same root exploration noise as the single-game path
            scheme_factory=lambda ev, game_rng: SerialMCTS(
                ev, dirichlet_epsilon=0.25, rng=game_rng,
                tree_backend=args.tree_backend,
            ),
            rng=args.seed + 1,
            backend=args.evaluator_backend,
            num_workers=args.workers,
        )
    else:
        scheme = LocalTreeMCTS(
            evaluator, num_workers=args.workers,
            batch_size=max(1, args.workers // 2), dirichlet_epsilon=0.25,
            rng=args.seed + 1, tree_backend=args.tree_backend,
        )
    trainer = Trainer(net, Adam(net.parameters(), lr=2e-3), AlphaZeroLoss(1e-4))
    pipeline = TrainingPipeline(
        game, scheme, trainer, num_playouts=args.playouts, sgd_iterations=6,
        batch_size=64, rng=args.seed + 2, max_moves=max_moves, engine=engine,
    )
    checkpoints = None
    episodes = args.episodes
    if args.resume and args.checkpoint_dir is None:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.checkpoint_dir is not None:
        from repro.storage import CheckpointManager

        checkpoints = CheckpointManager(args.checkpoint_dir)
        if args.resume:
            restored = pipeline.resume_from(checkpoints)
            if restored:
                print(f"resumed from checkpoint: {restored} iterations done, "
                      f"network digest {pipeline.trainer.network.state_digest()[:12]}")
            episodes = max(0, args.episodes - restored)
            if episodes == 0:
                print(f"nothing to do: checkpoint already at "
                      f"{restored} >= {args.episodes} iterations")
    try:
        metrics = pipeline.run(
            episodes,
            on_episode=lambda i, m: print(
                f"iteration {pipeline.iterations:3d}: episodes={m.episodes:4d} "
                f"samples={m.samples_produced:4d} "
                f"loss={m.loss_history[-1].total:.3f}"
            ),
            checkpoints=checkpoints,
            checkpoint_every=args.checkpoint_every,
        )
    finally:
        if scheme is not None:
            scheme.close()
        if engine is not None:
            engine.close()
    print(f"throughput: {metrics.throughput:.2f} samples/s, "
          f"final loss {metrics.final_loss:.3f}")
    if checkpoints is not None:
        # the crash-resume smoke diffs this across interrupted vs straight
        # runs -- keep the format stable
        print(f"network digest: {pipeline.trainer.network.state_digest()}")
    if engine is not None:
        print(f"cache hit rate: {metrics.cache_hit_rate:.1%}, "
              f"mean batch occupancy: {metrics.mean_batch_occupancy:.2f}")
    return 0


def cmd_selfplay(args) -> int:
    from repro.games import build_network_for
    from repro.mcts import NetworkEvaluator
    from repro.serving import MultiGameSelfPlayEngine

    game = _make_game(args.game, args.size)
    net = build_network_for(game, channels=(8, 16, 16), rng=args.seed)
    net.set_inference_backend(args.inference_backend)
    engine = MultiGameSelfPlayEngine(
        game, NetworkEvaluator(net), num_games=args.games,
        num_playouts=args.playouts, cache_capacity=args.cache_capacity,
        max_moves=game.board_shape[0] * game.board_shape[1],
        rng=args.seed + 1, tree_backend=args.tree_backend,
        backend=args.backend, num_workers=args.workers,
    )
    with engine:
        for r in range(args.rounds):
            results, stats = engine.play_round()
            print(f"round {r + 1}:")
            for key, value in stats.as_dict().items():
                print(f"  {key:22s} {value}")
            wins = sum(1 for e in results if e.winner == 1)
            losses = sum(1 for e in results if e.winner == -1)
            draws = len(results) - wins - losses
            print(f"  outcomes               +1:{wins} -1:{losses} ={draws}")
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.games import build_network_for
    from repro.mcts import NetworkEvaluator, UniformEvaluator
    from repro.serving import GatewayClient, GatewayServer, MatchGateway
    from repro.serving.service import build_game

    game = build_game(args.game, args.size)
    template = None
    if args.evaluator == "network":
        net = build_network_for(game, channels=(8, 16, 16), rng=args.seed)
        net.set_inference_backend(args.inference_backend)
        evaluator = NetworkEvaluator(net)
        template = game  # the net only fits this game: reject mismatches
    else:
        evaluator = UniformEvaluator()
    gateway = MatchGateway(
        evaluator,
        game_template=template,
        backend=args.backend,
        workers=args.workers,
        deadline_ms=args.deadline_ms,
        num_playouts=args.playouts,
        max_inflight=args.max_inflight,
        idle_timeout_s=args.idle_timeout,
        tree_backend=args.tree_backend,
        seed=args.seed + 1,
        evalbus={"auto": None, "on": True, "off": False}[args.evalbus],
        bus_linger_ms=args.bus_linger_ms,
        journal_dir=args.journal_dir,
        journal_fsync=args.journal_fsync,
    )

    async def demo_session(host: str, port: int) -> tuple[int, int]:
        from repro.serving import GatewayOverloaded

        client = await GatewayClient.connect(host, port)
        try:
            # demo clients retry on 503 like a real client would -- more
            # demo sessions than max_inflight is the expected regime, not
            # an error (rejections still show up in the printed stats)
            while True:
                try:
                    session = await client.new_match(args.game, args.size)
                    break
                except GatewayOverloaded:
                    await asyncio.sleep(0.01)
            moves = 0
            while True:
                try:
                    reply = await client.move(
                        session, deadline_ms=args.deadline_ms
                    )
                except GatewayOverloaded:
                    await asyncio.sleep(0.01)
                    continue
                moves += 1
                if reply["done"]:
                    return moves, reply["winner"]
        finally:
            await client.aclose()

    async def run() -> int:
        import signal

        server = GatewayServer(gateway, args.host, args.port)
        host, port = await server.start()
        # hook signals BEFORE announcing readiness: a supervisor reacting
        # to the printed lines may SIGTERM immediately
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        hooked: list[int] = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
                hooked.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix loop: Ctrl-C falls through to KeyboardInterrupt
        print(f"gateway listening on {host}:{port} "
              f"(backend={args.backend}, workers={args.workers}, "
              f"deadline={args.deadline_ms:g}ms, playouts<={args.playouts})",
              flush=True)
        stats = gateway.stats()
        if stats.journal_enabled:
            print(f"journal: {args.journal_dir} (fsync={args.journal_fsync}), "
                  f"recovered {stats.journal_recovered} sessions", flush=True)
        try:
            if args.demo_games > 0:
                results = await asyncio.gather(
                    *[demo_session(host, port) for _ in range(args.demo_games)]
                )
                for i, (moves, winner) in enumerate(results):
                    print(f"demo session {i + 1}: {moves} moves, "
                          f"winner {winner:+d}" if winner else
                          f"demo session {i + 1}: {moves} moves, draw")
                for key, value in gateway.stats().as_dict().items():
                    print(f"  {key:20s} {value}")
                return 0
            forever = asyncio.ensure_future(server.serve_forever())
            stopped = asyncio.ensure_future(stop.wait())
            await asyncio.wait(
                {forever, stopped}, return_when=asyncio.FIRST_COMPLETED
            )
            for task in (forever, stopped):
                task.cancel()
            if stopped.done() and not stopped.cancelled():
                # graceful shutdown: quiesce in-flight moves, snapshot every
                # live session to the journal, and leave a resumable log
                exported = await gateway.export_sessions()
                flushed = gateway.journal_shutdown(exported)
                print(f"graceful shutdown: {len(exported)} live sessions "
                      f"exported" + (", journal flushed" if flushed else ""),
                      flush=True)
            return 0
        finally:
            for sig in hooked:
                loop.remove_signal_handler(sig)
            await server.aclose()

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        print("gateway stopped")
        return 0


def cmd_cluster(args) -> int:
    import asyncio

    from repro.cluster import ShardRouter, ShardSpec, roll_weights
    from repro.serving import GatewayConnectionError, GatewayOverloaded

    base = ShardSpec(
        shard_id=0,
        game=args.game,
        size=args.size,
        evaluator=args.evaluator,
        seed=args.seed,
        deadline_ms=args.deadline_ms,
        num_playouts=args.playouts,
        workers=args.workers,
        evalbus={"auto": None, "on": True, "off": False}[args.evalbus],
        journal_dir=args.journal_dir,
        journal_fsync=args.journal_fsync,
    )
    router = ShardRouter.processes(
        args.shards,
        base,
        seed=args.seed,
        health_interval_s=0.2,
        health_timeout_s=2.0,
        failure_threshold=2,
        restart_limit=1,
    )

    async def demo_session(cid: int) -> tuple[str, int]:
        for _ in range(500):
            try:
                session = await router.create_session(args.game, args.size)
                break
            except GatewayOverloaded:
                await asyncio.sleep(0.01)
        else:
            return "starved", 0
        moves = 0
        while True:
            try:
                reply = await router.play_move(
                    session, deadline_ms=args.deadline_ms
                )
            except GatewayOverloaded:
                await asyncio.sleep(0.01)
                continue
            except GatewayConnectionError:
                return "lost", moves
            moves += 1
            if reply["done"]:
                return "done", moves

    async def chaos() -> None:
        if not args.kill_shard:
            return
        await asyncio.sleep(args.kill_after)
        victim = max(router._slots, key=lambda s: (len(s.sessions), -s.index))
        link = victim.link
        if link is not None and hasattr(link, "terminate"):
            print(f"chaos: SIGTERM shard {victim.index} (pid {link.pid}, "
                  f"{len(victim.sessions)} sessions aboard)")
            link.terminate()

    async def rollout() -> None:
        if not args.roll_weights:
            return
        if args.evaluator != "network":
            print("note: --roll-weights needs --evaluator network; skipping")
            return
        from repro.games import build_network_for
        from repro.serving.service import build_game

        await asyncio.sleep(args.kill_after / 2)
        net = build_network_for(
            build_game(args.game, args.size),
            channels=(8, 16, 16),
            rng=args.seed + 1,  # distinct weights: the version must move
        )
        report = await roll_weights(router, net.state_dict())
        print(f"rollout: target v{report.target_version}, "
              f"rejections={report.rejections}, "
              f"consistent={report.consistent}")

    async def run() -> int:
        import signal

        await router.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        hooked: list[int] = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
                hooked.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        print(f"cluster up: {args.shards} shards "
              f"(evaluator={args.evaluator}, workers={args.workers}/shard, "
              f"deadline={args.deadline_ms:g}ms)", flush=True)
        if args.journal_dir is not None:
            readopted = await router.recover_sessions()
            print(f"journal: {args.journal_dir} "
                  f"(fsync={args.journal_fsync}), re-adopted {readopted} "
                  f"sessions from the placement journal", flush=True)
        try:
            demo = asyncio.gather(
                chaos(),
                rollout(),
                *[demo_session(i) for i in range(args.demo_games)],
            )
            stopped = asyncio.ensure_future(stop.wait())
            await asyncio.wait(
                {demo, stopped}, return_when=asyncio.FIRST_COMPLETED
            )
            if stopped.done() and not stopped.cancelled() and not demo.done():
                # graceful shutdown mid-demo: stop driving moves; the
                # router journal already holds every placement + move, and
                # aclose() (below) fsyncs and closes it
                demo.cancel()
                try:
                    await demo
                except asyncio.CancelledError:
                    pass
                print("graceful shutdown: demo cancelled, journals flushed "
                      "on close", flush=True)
                return 0
            stopped.cancel()
            results = await demo
            outcomes = results[2:]
            for i, (kind, moves) in enumerate(outcomes):
                print(f"demo session {i + 1}: {kind} after {moves} moves")
            await router.refresh_shard_stats()
            stats = router.stats()
            for key, value in stats.as_dict().items():
                if key == "shards":
                    for row in value:
                        print(f"  shard {row['shard_id']}: epoch {row['epoch']} "
                              f"alive={row['alive']} restarts={row['restarts']} "
                              f"p99={row['latency_p99_ms']}ms")
                    continue
                print(f"  {key:22s} {value}")
            stats.check_accounting()
            if stats.sessions_lost > 0:
                print(f"FAIL: {stats.sessions_lost} accepted sessions lost")
                return 1
            print("ok: zero accepted sessions lost")
            return 0
        finally:
            for sig in hooked:
                loop.remove_signal_handler(sig)
            await router.aclose()

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        print("cluster stopped")
        return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    np.set_printoptions(precision=4, suppress=True)
    if args.command == "configure":
        return cmd_configure(args)
    if args.command == "simulate":
        return cmd_simulate(args)
    if args.command == "train":
        return cmd_train(args)
    if args.command == "selfplay":
        return cmd_selfplay(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "cluster":
        return cmd_cluster(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
