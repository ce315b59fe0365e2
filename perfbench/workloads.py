"""The four benchmark workloads.

Every workload does fixed work: playout counts bound every search,
serving deadlines are far beyond any move, and all inputs (positions,
client scripts, model initialisation) are generated from the seed.  Only
time varies between runs with the same seed and size.

A workload builds a *stack* (network, scheme, engine or server), warms it
with one untimed unit, and then runs its units one by one.  Each unit
returns a :class:`UnitResult`; the stack's ``counts()`` gives the exact
counts and ``checks()`` the correctness verdicts of the timed phase.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.games import ConnectFour, Gomoku, build_network_for
from repro.mcts import NetworkEvaluator, SerialMCTS, UniformEvaluator
from repro.nn import Adam, AlphaZeroLoss
from repro.parallel import LocalTreeMCTS
from repro.serving import (
    GatewayClient,
    GatewayConnectionError,
    GatewayOverloaded,
    GatewayServer,
    MatchGateway,
    MultiGameSelfPlayEngine,
)
from repro.training import Trainer, TrainingPipeline

from tracing import (
    CountingEvaluator,
    MoveRecorder,
    TimedScheme,
    TracedTrainer,
    Tracer,
    prior_is_legal,
)

#: local-tree workers, self-play games and serving clients, fixed rather
#: than taken from the host: with two workers and batch size two one batch
#: is in flight at a time, so the search, and with it every exact count,
#: does not depend on thread timing or on the host's core count
WORKERS = 2
NET_CHANNELS = (16, 32, 32)
#: one network initialisation for every seed: a random init sets how deep
#: and how terminal-heavy every search of a run is, so a per-seed init
#: would make each run's cost hinge on one draw
NET_SEED = 20231
C4_MAX_MOVES = 42


@dataclass
class UnitResult:
    wall_s: float
    moves: int


@dataclass
class Attempts:
    """Operations attempted and failed in the timed phase."""

    ops: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)

    def add(self, name: str, n: int = 1) -> None:
        self.ops[name] = self.ops.get(name, 0) + n

    def fail(self, name: str, n: int = 1) -> None:
        self.failed[name] = self.failed.get(name, 0) + n


def _random_line(game, rng: np.random.Generator, plies: int) -> list[int]:
    """*plies* seeded random moves from *game* that leave it non-terminal."""
    while True:
        g = game.copy()
        line = []
        for _ in range(plies):
            if g.is_terminal:
                break
            line.append(int(rng.choice(g.legal_actions())))
            g.step(line[-1])
        if not g.is_terminal:
            return line


def _random_position(game, rng: np.random.Generator, plies: int):
    g = game.copy()
    for action in _random_line(game, rng, plies):
        g.step(action)
    return g


# ---------------------------------------------------------------------------
# tree_gomoku15: SerialMCTS over the array tree, uniform evaluator
# ---------------------------------------------------------------------------
class TreeGomoku:
    name = "tree_gomoku15"
    playouts = 400
    units_per_second = 22.0  # nominal unit rate on the reference host
    ref_repeats = 1  # reference kernels per unit (median taken)

    def __init__(self, seed: int, tracer: Tracer | None) -> None:
        self.tracer = tracer
        evaluator = UniformEvaluator()
        if tracer is not None:
            evaluator = CountingEvaluator(evaluator, tracer, "mcts.evaluate")
        self.search = SerialMCTS(evaluator, rng=seed, tree_backend="array")
        self.recorder = MoveRecorder(tracer, "mcts.search")
        self.scheme = TimedScheme(self.search, self.recorder)
        self.attempts = Attempts()
        self._base_playouts = 0

    @staticmethod
    def make_units(seed: int, n: int) -> list:
        rng = np.random.default_rng([seed, 15])
        start = Gomoku(15, 5)
        return [_random_position(start, rng, int(rng.integers(2, 41))) for _ in range(n)]

    def warmup(self) -> None:
        self.scheme.get_action_prior(Gomoku(15, 5), self.playouts)
        self._base_playouts = self.search.stats.playouts
        self.recorder.latencies_ms.clear()

    def run_unit(self, position) -> UnitResult:
        t0 = time.perf_counter()
        self.scheme.get_action_prior(position, self.playouts)
        wall = time.perf_counter() - t0
        self.attempts.add("moves")
        return UnitResult(wall, 1)

    def counts(self) -> dict:
        return {
            "moves": len(self.recorder.latencies_ms),
            "playouts": self.search.stats.playouts - self._base_playouts,
        }

    def checks(self) -> dict:
        c = self.counts()
        return {
            "priors_legal": self.recorder.bad_priors == 0,
            "playouts_fixed": c["playouts"] == self.playouts * c["moves"],
        }

    def layer_metrics(self, wall_s: float) -> dict:
        tr = self.tracer
        playouts = self.counts()["playouts"]
        return {
            "mcts.playouts": playouts,
            "mcts.self_us_per_playout": tr.self_seconds("mcts.search") * 1e6 / playouts,
        }

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# train_c4_localtree: Algorithm 1 through LocalTreeMCTS + SGD
# ---------------------------------------------------------------------------
class TrainLocalTree:
    name = "train_c4_localtree"
    playouts = 40
    units_per_second = 1.6
    ref_repeats = 5

    def __init__(self, seed: int, tracer: Tracer | None) -> None:
        self.tracer = tracer
        game = ConnectFour()
        self.net = build_network_for(game, channels=NET_CHANNELS, rng=NET_SEED)
        self.counter = CountingEvaluator(NetworkEvaluator(self.net), tracer, "nn.infer")
        self.scheme = LocalTreeMCTS(
            self.counter, num_workers=WORKERS, batch_size=2,
            dirichlet_epsilon=0.25, rng=seed + 1, tree_backend="array",
        )
        self.recorder = MoveRecorder(tracer, "parallel.local_tree.move")
        trainer = Trainer(self.net, Adam(self.net.parameters(), lr=2e-3), AlphaZeroLoss(1e-4))
        if tracer is not None:
            trainer = TracedTrainer(trainer, tracer)
        self.trainer = trainer
        self.pipeline = TrainingPipeline(
            game, TimedScheme(self.scheme, self.recorder, set_default_parent=True),
            trainer, num_playouts=self.playouts, sgd_iterations=6, batch_size=64,
            rng=seed + 2, max_moves=C4_MAX_MOVES,
        )
        self.attempts = Attempts()

    @staticmethod
    def make_units(seed: int, n: int) -> list:
        return list(range(n))  # episodes: every input is drawn from the seeded streams

    def warmup(self) -> None:
        self.pipeline.run_episode()
        self._base = self._totals()
        self._digest0 = self.net.state_digest()
        self.recorder.latencies_ms.clear()

    def run_unit(self, _unit) -> UnitResult:
        before = self.pipeline.metrics.samples_produced
        t0 = time.perf_counter()
        self.pipeline.run_episode()
        wall = time.perf_counter() - t0
        moves = self.pipeline.metrics.samples_produced - before
        self.attempts.add("moves", moves)
        self.attempts.add("episodes")
        self.attempts.add("sgd_steps", self.pipeline.sgd_iterations)
        return UnitResult(wall, moves)

    def _totals(self) -> dict:
        m = self.pipeline.metrics
        return {
            "samples": m.samples_produced,
            "episodes": m.episodes,
            "evaluator_calls": self.counter.calls,
            "evaluator_rows": self.counter.rows,
            "sgd_steps": self.trainer.steps,
        }

    def counts(self) -> dict:
        totals = self._totals()
        return {
            "moves": len(self.recorder.latencies_ms),
            **{name: totals[name] - self._base[name] for name in totals},
        }

    def checks(self) -> dict:
        c = self.counts()
        losses = [p.total for p in self.pipeline.metrics.loss_history][-c["sgd_steps"]:]
        return {
            "priors_legal": self.recorder.bad_priors == 0,
            "samples_equal_moves": c["samples"] == c["moves"],
            "loss_finite": bool(losses) and all(np.isfinite(losses)),
            "weights_changed": self.net.state_digest() != self._digest0,
        }

    def layer_metrics(self, wall_s: float) -> dict:
        tr = self.tracer
        c = self.counts()
        steps = tr.named("nn.train.step")
        return {
            **_infer_metrics(tr, wall_s),
            "parallel.local_tree.batches_per_move": c["evaluator_calls"] / c["moves"],
            "parallel.local_tree.rows_per_batch": c["evaluator_rows"] / c["evaluator_calls"],
            "parallel.local_tree.master_self_ms_per_move":
                tr.self_seconds("parallel.local_tree.move") * 1e3 / c["moves"],
            "nn.train.steps": len(steps),
            "nn.train.ms_per_step": sum(s[4] - s[3] for s in steps) * 1e3 / len(steps),
            "nn.train.busy_share": tr.busy_seconds("nn.train.step") / wall_s,
        }

    def close(self) -> None:
        self.scheme.close()


# ---------------------------------------------------------------------------
# selfplay_c4: G games over the shared AcceleratorQueue + LRU cache
# ---------------------------------------------------------------------------
class SelfPlay:
    name = "selfplay_c4"
    playouts = 40
    units_per_second = 1.8
    ref_repeats = 5

    def __init__(self, seed: int, tracer: Tracer | None) -> None:
        self.tracer = tracer
        game = ConnectFour()
        net = build_network_for(game, channels=NET_CHANNELS, rng=NET_SEED)
        evaluator = NetworkEvaluator(net)
        if tracer is not None:
            evaluator = CountingEvaluator(evaluator, tracer, "nn.infer")
        self.recorder = MoveRecorder(tracer, "selfplay.move")
        self.engine = MultiGameSelfPlayEngine(
            game, evaluator, num_games=WORKERS, num_playouts=self.playouts,
            scheme_factory=lambda ev, game_rng: TimedScheme(
                SerialMCTS(ev, dirichlet_epsilon=0.25, rng=game_rng, tree_backend="array"),
                self.recorder,
            ),
            max_moves=C4_MAX_MOVES, rng=seed + 1, backend="thread",
        )
        self.attempts = Attempts()
        self.rounds = []
        self.episodes = []

    @staticmethod
    def make_units(seed: int, n: int) -> list:
        return list(range(n))  # rounds: every input is drawn from the seeded streams

    def warmup(self) -> None:
        self.engine.play_round()
        self._lookups0 = self.engine.cache.lookups
        self.recorder.latencies_ms.clear()

    def run_unit(self, _unit) -> UnitResult:
        t0 = time.perf_counter()
        episodes, stats = self.engine.play_round()
        wall = time.perf_counter() - t0
        self.rounds.append(stats)
        self.episodes.extend(episodes)
        self.attempts.add("moves", stats.moves)
        self.attempts.add("episodes", stats.games)
        return UnitResult(wall, stats.moves)

    def counts(self) -> dict:
        return {
            "moves": sum(s.moves for s in self.rounds),
            "playouts": sum(s.playouts for s in self.rounds),
            "episodes": sum(s.games for s in self.rounds),
        }

    def checks(self) -> dict:
        terminal = True
        for ep in self.episodes:
            g = ConnectFour()
            for a in ep.actions:
                g.step(a)
            terminal &= g.is_terminal
        hits = sum(s.cache_hits for s in self.rounds)
        misses = sum(s.cache_misses for s in self.rounds)
        return {
            "priors_legal": self.recorder.bad_priors == 0,
            "episodes_terminal": terminal,
            "cache_hits_plus_misses_eq_lookups":
                hits + misses == self.engine.cache.lookups - self._lookups0,
            "moves_recorded": len(self.recorder.latencies_ms) == self.counts()["moves"],
        }

    def layer_metrics(self, wall_s: float) -> dict:
        r = self.rounds
        batches = sum(s.eval_batches for s in r)
        requests = sum(s.eval_requests for s in r)
        hits = sum(s.cache_hits for s in r)
        lookups = hits + sum(s.cache_misses for s in r)
        return {
            **_infer_metrics(self.tracer, wall_s),
            "parallel.evaluator.batches": batches,
            "parallel.evaluator.occupancy": requests / batches,
            "parallel.evaluator.partial_flushes": sum(s.partial_flushes for s in r),
            "parallel.evaluator.linger_flushes": sum(s.linger_flushes for s in r),
            "serving.cache.lookups": lookups,
            "serving.cache.hit_rate": hits / lookups,
        }

    def close(self) -> None:
        self.engine.close()


# ---------------------------------------------------------------------------
# serve_c4_tcp: closed loop of WORKERS TCP clients through GatewayServer
# ---------------------------------------------------------------------------
class ServeTcp:
    name = "serve_c4_tcp"
    playouts = 40
    opening_plies = 8  # seeded random plies every match resumes from
    deadline_ms = 60_000.0  # never binds: every move ends at its playout count
    units_per_second = 5.5
    ref_repeats = 5

    def __init__(self, seed: int, tracer: Tracer | None, scratch: Path) -> None:
        self.tracer = tracer
        game = ConnectFour()
        net = build_network_for(game, channels=NET_CHANNELS, rng=NET_SEED)
        evaluator = NetworkEvaluator(net)
        if tracer is not None:
            evaluator = CountingEvaluator(evaluator, tracer, "nn.infer")
        self.journal_dir = Path(tempfile.mkdtemp(prefix="journal-", dir=scratch))
        self.gateway = MatchGateway(
            evaluator, backend="thread", workers=WORKERS,
            deadline_ms=self.deadline_ms, num_playouts=self.playouts,
            game_template=game, seed=seed, evalbus=True,
            journal_dir=self.journal_dir, journal_fsync="batched",
        )
        self.server = GatewayServer(self.gateway)
        self.loop = asyncio.new_event_loop()
        self.clients = self.loop.run_until_complete(self._connect())
        self.attempts = Attempts()
        self.rtt_ms: list[float] = []
        self.server_ms: list[float] = []
        self.bad_priors = 0
        self.matches_done = 0
        self._stats0 = None

    async def _connect(self) -> list[GatewayClient]:
        host, port = await self.server.start()
        return [await GatewayClient.connect(host, port, timeout_s=120.0) for _ in range(WORKERS)]

    @classmethod
    def make_units(cls, seed: int, n: int) -> list:
        """Per unit, one match per client: the opening the match resumes
        from and the client's script, one uniform draw per client ply
        mapped onto the legal columns."""
        rng = np.random.default_rng([seed, 4])
        plies = ConnectFour().action_size * 6 // 2

        def script():
            opening = _random_line(ConnectFour(), rng, cls.opening_plies)
            return opening, rng.random(plies).tolist()

        return [[script() for _ in range(WORKERS)] for _ in range(n)]

    async def _play_match(self, client: GatewayClient, script) -> None:
        """Resume a seeded opening, then the client moves on every request
        and the engine replies.

        Scripted client moves from diverse openings keep each reply a
        fresh search.  In engine-vs-engine play from the empty board the
        session's tree reuse and the shared cache make many moves nearly
        free, and the median move then sits on the edge between the two
        kinds of move.
        """
        opening, draws = script
        self.attempts.add("matches")
        self.attempts.add("rpcs")
        try:
            reply = await client.request(
                {"op": "restore", "game": "connect4", "actions": opening})
            if not reply.get("ok"):
                self.attempts.fail(f"restore_{reply.get('code')}")
                return
            session = reply["session"]
        except GatewayOverloaded:
            self.attempts.fail("rejected_503")
            return
        except GatewayConnectionError:
            self.attempts.fail("transport_errors")
            return
        game = ConnectFour()
        for action in opening:
            game.step(action)
        for draw in draws:
            legal = game.legal_actions()
            action = int(legal[int(draw * len(legal))])
            self.attempts.add("rpcs")
            self.attempts.add("moves")
            try:
                t0 = time.perf_counter()
                reply = await client.move(session, action, deadline_ms=self.deadline_ms)
                t1 = time.perf_counter()
            except GatewayOverloaded:
                self.attempts.fail("rejected_503")
                return
            except GatewayConnectionError:
                self.attempts.fail("transport_errors")
                return
            rtt = (t1 - t0) * 1e3
            self.rtt_ms.append(rtt)
            self.server_ms.append(reply["latency_ms"])
            if self.tracer is not None:
                self.tracer.record("serving.client.move", t0, t1,
                                   server_ms=reply["latency_ms"])
            game.step(action)
            engine_action = reply["engine_action"]
            if engine_action is not None:
                if not prior_is_legal(reply["prior"], game.legal_mask()):
                    self.bad_priors += 1
                game.step(engine_action)
            if reply["done"]:
                if game.is_terminal:
                    self.matches_done += 1
                return
            if game.is_terminal:  # the server missed the end of the game
                break
        self.attempts.fail("unfinished_matches")

    async def _wave(self, unit) -> None:
        await asyncio.gather(*(self._play_match(c, s) for c, s in zip(self.clients, unit)))

    def warmup(self) -> None:
        self.loop.run_until_complete(self._wave([([3, 3], [0.5] * 21) for _ in self.clients]))
        self.attempts = Attempts()
        self.rtt_ms.clear()
        self.server_ms.clear()
        self.matches_done = 0
        self._stats0 = self.gateway.stats()
        self._bytes0 = _dir_bytes(self.journal_dir)

    def run_unit(self, unit) -> UnitResult:
        before = len(self.rtt_ms)
        t0 = time.perf_counter()
        self.loop.run_until_complete(self._wave(unit))
        wall = time.perf_counter() - t0
        return UnitResult(wall, len(self.rtt_ms) - before)

    def _delta(self) -> dict:
        now, base = self.gateway.stats().as_dict(), self._stats0.as_dict()
        return {k: v - base[k] for k, v in now.items()
                if isinstance(v, int) and not isinstance(v, bool)}

    def counts(self) -> dict:
        d = self._delta()
        return {
            "moves": len(self.rtt_ms),
            "matches": self.attempts.ops.get("matches", 0),
            "journal_records": d["journal_records"],
        }

    def checks(self) -> dict:
        d = self._delta()
        matches = self.attempts.ops.get("matches", 0)
        moves = len(self.rtt_ms)
        return {
            "priors_legal": self.bad_priors == 0,
            "every_match_ends": self.matches_done == matches,
            "no_rejections": d["rejected"] == 0 and not self.attempts.failed,
            "sessions_created_eq_finished":
                d["sessions_created"] == d["sessions_finished"] == matches,
            "moves_served_eq_client_moves": d["moves_served"] == moves,
            "journal_records_eq_opens_moves_closes":
                d["journal_records"] == matches + moves + matches,
            "journal_errors_zero": d["journal_errors"] == 0,
            "p99_has_ten_beyond": moves * 0.01 >= 10,
        }

    def layer_metrics(self, wall_s: float) -> dict:
        d = self._delta()
        moves = len(self.rtt_ms)
        overhead = [r - s for r, s in zip(self.rtt_ms, self.server_ms)]
        return {
            **_infer_metrics(self.tracer, wall_s),
            "serving.evalbus.batches": d["bus_batches"],
            "serving.evalbus.occupancy": d["bus_requests"] / d["bus_batches"],
            "serving.evalbus.linger_flushes": d["bus_linger_flushes"],
            "serving.evalbus.deadline_flushes": d["bus_deadline_flushes"],
            "serving.service.server_ms_p50": float(np.percentile(self.server_ms, 50)),
            "serving.service.server_ms_p99": float(np.percentile(self.server_ms, 99)),
            "serving.service.rejected": d["rejected"],
            "serving.wire.overhead_ms_p50": float(np.percentile(overhead, 50)),
            "serving.client.move_ms_p99": float(np.percentile(self.rtt_ms, 99)),
            "storage.journal.records": d["journal_records"],
            "storage.journal.bytes_per_move":
                (_dir_bytes(self.journal_dir) - self._bytes0) / moves,
            "storage.journal.errors": d["journal_errors"],
        }

    def close(self) -> None:
        async def shutdown():
            for c in self.clients:
                await c.aclose()
            await self.server.aclose()

        self.loop.run_until_complete(shutdown())
        self.loop.close()
        shutil.rmtree(self.journal_dir, ignore_errors=True)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _infer_metrics(tracer: Tracer, wall_s: float) -> dict:
    spans = tracer.named("nn.infer")
    rows = sum(s[5]["rows"] for s in spans)
    busy = sum(s[4] - s[3] for s in spans)
    return {
        "nn.infer.calls": len(spans),
        "nn.infer.rows": rows,
        "nn.infer.rows_per_call": rows / len(spans),
        "nn.infer.us_per_row": busy * 1e6 / rows,
        "nn.infer.busy_share": tracer.busy_seconds("nn.infer") / wall_s,
    }


WORKLOADS = {w.name: w for w in (TreeGomoku, TrainLocalTree, SelfPlay, ServeTcp)}
