"""The full DNN-MCTS training loop (Algorithm 1).

    for __ in training_episodes:
        collect data with tree-based search (shared- or local-tree)
        for __ in SGD_iterations:
            batch <- sample(dataset); SGD_Train(batch)

Timekeeping is pluggable: :class:`WallClock` measures the host (useful for
functional runs), :class:`VirtualClock` charges modelled platform time --
the per-iteration latency from the DES or the performance models -- so the
loss-vs-time experiment (Figure 7) can be plotted on the paper's time axis
without the paper's hardware.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.games.base import Game
from repro.nn.infer import ensure_plan
from repro.training.dataset import ReplayBuffer, TrainingExample
from repro.training.metrics import LossPoint, TrainingMetrics
from repro.training.selfplay import play_episode
from repro.training.trainer import Trainer
from repro.utils.rng import new_rng, restore_rng_state, rng_state

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serving -> selfplay)
    from repro.serving.engine import MultiGameSelfPlayEngine

__all__ = ["WallClock", "VirtualClock", "TrainingPipeline"]


class WallClock:
    """Real elapsed time; charge methods measure nothing themselves."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    @property
    def now(self) -> float:
        return time.perf_counter() - self._t0

    def charge_search(self, playouts: int) -> float:
        return 0.0  # search time is observed, not modelled

    def charge_train(self, batches: int) -> float:
        return 0.0


class VirtualClock:
    """Modelled platform time: advance explicitly per charged operation.

    Parameters
    ----------
    per_iteration : modelled amortized per-worker-iteration latency of the
        chosen parallel configuration (seconds per playout).
    per_train_batch : modelled duration of one SGD batch on the training
        resource (GPU-offloaded or 32 CPU threads, Section 5.4).
    train_overlapped : when True (the CPU-GPU platform), training runs on
        the accelerator concurrently with the search, so training time is
        hidden unless it exceeds the search time of the same episode --
        the paper's Section 5.4 narrative.
    """

    def __init__(
        self,
        per_iteration: float,
        per_train_batch: float,
        train_overlapped: bool = False,
    ) -> None:
        if per_iteration < 0 or per_train_batch < 0:
            raise ValueError("latencies must be non-negative")
        self.per_iteration = per_iteration
        self.per_train_batch = per_train_batch
        self.train_overlapped = train_overlapped
        self.now = 0.0
        self._last_search_duration = 0.0

    def charge_search(self, playouts: int) -> float:
        dt = playouts * self.per_iteration
        self.now += dt
        self._last_search_duration = dt
        return dt

    def charge_train(self, batches: int) -> float:
        dt = batches * self.per_train_batch
        if self.train_overlapped:
            # concurrent with the *next* episode's search; only the excess
            # over the search duration costs wall time
            visible = max(0.0, dt - self._last_search_duration)
        else:
            visible = dt
        self.now += visible
        return visible


class TrainingPipeline:
    """Algorithm 1 driver.

    Data collection runs either single-game (*scheme* plays one episode per
    iteration, the paper's Algorithm 1) or multi-game: pass *engine* (a
    :class:`repro.serving.engine.MultiGameSelfPlayEngine`) and every
    iteration collects a whole concurrent round of G episodes through the
    shared accelerator queue, folding the round's cache/occupancy counters
    into :attr:`metrics`.  A process-backend engine works unchanged: it
    has no cache of its own to clear (``engine.cache`` is ``None``), and
    at the start of the next round it re-syncs the updated network
    weights into the farm's workers, which clear their caches and
    recompile their plans as they load them.
    """

    def __init__(
        self,
        game: Game,
        scheme,
        trainer: Trainer,
        buffer: ReplayBuffer | None = None,
        num_playouts: int = 200,
        sgd_iterations: int = 4,
        batch_size: int = 64,
        temperature_moves: int = 8,
        max_moves: int | None = None,
        clock: WallClock | VirtualClock | None = None,
        rng: np.random.Generator | int | None = None,
        augment_symmetries: bool = True,
        engine: "MultiGameSelfPlayEngine | None" = None,
    ) -> None:
        if sgd_iterations < 0:
            raise ValueError("sgd_iterations must be >= 0")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.game = game
        self.scheme = scheme
        self.trainer = trainer
        self.rng = new_rng(rng)
        self.buffer = buffer or ReplayBuffer(rng=self.rng)
        self.num_playouts = num_playouts
        self.sgd_iterations = sgd_iterations
        self.batch_size = batch_size
        self.temperature_moves = temperature_moves
        self.max_moves = max_moves
        self.clock = clock or WallClock()
        self.augment_symmetries = augment_symmetries
        if engine is not None:
            # the engine carries its own copies of the episode knobs; a
            # silent mismatch would collect data at settings the pipeline's
            # attributes misreport
            for attr in ("num_playouts", "temperature_moves", "max_moves"):
                ours, theirs = getattr(self, attr), getattr(engine, attr)
                if ours != theirs:
                    raise ValueError(
                        f"engine.{attr}={theirs!r} disagrees with "
                        f"pipeline {attr}={ours!r}"
                    )
            if (
                type(engine.game) is not type(game)
                or engine.game.board_shape != game.board_shape
                or engine.game.action_size != game.action_size
            ):
                raise ValueError(
                    f"engine plays {engine.game!r} but the pipeline expects "
                    f"{game!r}; symmetry augmentation and the buffer shapes "
                    f"would not match"
                )
        self.engine = engine
        self.metrics = TrainingMetrics()
        #: completed Algorithm-1 iterations (checkpoint step counter);
        #: unlike ``metrics.episodes`` this counts *iterations*, which an
        #: attached multi-game engine decouples from episode count
        self.iterations = 0

    # -- durable state (repro.storage checkpoints) ----------------------------
    CHECKPOINT_STATE_FORMAT = 1

    def state_dict(self) -> dict:
        """Everything a bit-identical resume needs, JSON-able.

        Captures network weights (including BN running-stat b-keys),
        optimizer moments, the trainer/iteration counters, the replay
        buffer's contents, the metrics accumulators, the virtual clock's
        position, and -- the part that makes resume *exact* rather than
        same-seed -- the stream position of every generator the
        single-game collection path consumes (pipeline, buffer, scheme).
        A multi-game engine's internal ladders are not captured: resume
        is then best-effort (weights/optimizer/buffer restore exactly,
        episode transcripts may diverge).
        """
        from repro.utils.wire import encode_array, encode_state

        network = self.trainer.network
        buffer_rows = [
            [
                encode_array(item.planes),
                encode_array(item.policy),
                float(item.value),
            ]
            for item in self.buffer._items
        ]
        state: dict = {
            "format": self.CHECKPOINT_STATE_FORMAT,
            "iterations": self.iterations,
            "network": encode_state(network.state_dict()),
            "network_digest": network.state_digest(),
            "optimizer": self.trainer.optimizer.state_dict(),
            "trainer_steps": int(self.trainer.steps),
            "rng": rng_state(self.rng),
            "buffer": {
                "capacity": self.buffer.capacity,
                "total_added": int(self.buffer.total_added),
                "rng_shared": self.buffer.rng is self.rng,
                "rng": None
                if self.buffer.rng is self.rng
                else rng_state(self.buffer.rng),
                "items": buffer_rows,
            },
            "metrics": {
                "samples_produced": self.metrics.samples_produced,
                "search_time": self.metrics.search_time,
                "train_time": self.metrics.train_time,
                "episodes": self.metrics.episodes,
                "cache_hits": self.metrics.cache_hits,
                "cache_misses": self.metrics.cache_misses,
                "eval_requests": self.metrics.eval_requests,
                "eval_batches": self.metrics.eval_batches,
                "loss_history": [
                    [p.time, p.episode, p.step, p.total, p.value_loss, p.policy_loss]
                    for p in self.metrics.loss_history
                ],
            },
        }
        scheme_rng = getattr(self.scheme, "rng", None)
        if isinstance(scheme_rng, np.random.Generator):
            state["scheme_rng"] = rng_state(scheme_rng)
        if isinstance(self.clock, VirtualClock):
            state["clock"] = {
                "now": self.clock.now,
                "last_search_duration": self.clock._last_search_duration,
            }
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output; raises ``ValueError`` on a
        format or digest mismatch rather than resuming from lies."""
        from repro.utils.wire import decode_array, decode_state

        if state.get("format") != self.CHECKPOINT_STATE_FORMAT:
            raise ValueError(
                f"checkpoint state format {state.get('format')!r} != "
                f"{self.CHECKPOINT_STATE_FORMAT}"
            )
        network = self.trainer.network
        network.load_state_dict(decode_state(state["network"]))
        expected = state.get("network_digest")
        if expected is not None and network.state_digest() != expected:
            raise ValueError(
                "restored weights do not match the checkpoint's digest"
            )
        self.trainer.optimizer.load_state_dict(state["optimizer"])
        self.trainer.steps = int(state["trainer_steps"])
        restore_rng_state(self.rng, state["rng"])
        scheme_state = state.get("scheme_rng")
        scheme_rng = getattr(self.scheme, "rng", None)
        if scheme_state is not None and isinstance(
            scheme_rng, np.random.Generator
        ):
            restore_rng_state(scheme_rng, scheme_state)

        buf = state["buffer"]
        if buf["rng_shared"]:
            # pipeline and buffer consumed ONE stream before the crash;
            # re-link the objects or their draws interleave differently
            self.buffer.rng = self.rng
        elif buf.get("rng") is not None:
            restore_rng_state(self.buffer.rng, buf["rng"])
        self.buffer.capacity = int(buf["capacity"])
        # deque maxlen is frozen at construction -- rebuild so eviction
        # order matches the checkpointed capacity, not the constructor's
        self.buffer._items = deque(
            (
                TrainingExample(
                    planes=decode_array(planes, "planes"),
                    policy=decode_array(policy, "policy"),
                    value=float(value),
                )
                for planes, policy, value in buf["items"]
            ),
            maxlen=self.buffer.capacity,
        )
        self.buffer.total_added = int(buf["total_added"])

        met = state["metrics"]
        metrics = TrainingMetrics(
            samples_produced=int(met["samples_produced"]),
            search_time=float(met["search_time"]),
            train_time=float(met["train_time"]),
            episodes=int(met["episodes"]),
            cache_hits=int(met["cache_hits"]),
            cache_misses=int(met["cache_misses"]),
            eval_requests=int(met["eval_requests"]),
            eval_batches=int(met["eval_batches"]),
        )
        metrics.loss_history = [
            LossPoint(
                time=row[0],
                episode=int(row[1]),
                step=int(row[2]),
                total=row[3],
                value_loss=row[4],
                policy_loss=row[5],
            )
            for row in met["loss_history"]
        ]
        self.metrics = metrics
        clock_state = state.get("clock")
        if clock_state is not None and isinstance(self.clock, VirtualClock):
            self.clock.now = float(clock_state["now"])
            self.clock._last_search_duration = float(
                clock_state["last_search_duration"]
            )
        self.iterations = int(state["iterations"])
        # stale compiled plan: the restored weights bumped the version,
        # recompile outside the first episode's latency
        ensure_plan(getattr(self.trainer, "network", None))

    def run_episode(self) -> None:
        """One data-collection step (an episode, or a multi-game round when
        an engine is attached) followed by the SGD stage."""
        t0 = time.perf_counter()
        if self.engine is not None:
            episodes, stats = self.engine.play_round()
            wall_search = stats.wall_time
            self.metrics.record_serving(stats)
        else:
            episodes = [
                play_episode(
                    self.game,
                    self.scheme,
                    self.num_playouts,
                    temperature_moves=self.temperature_moves,
                    max_moves=self.max_moves,
                    rng=self.rng,
                )
            ]
            wall_search = time.perf_counter() - t0
        modelled = self.clock.charge_search(
            sum(e.total_playouts for e in episodes)
        )
        self.metrics.search_time += modelled if modelled > 0 else wall_search
        self.metrics.samples_produced += sum(e.moves for e in episodes)
        self.metrics.episodes += len(episodes)

        for episode in episodes:
            for example in episode.examples:
                if self.augment_symmetries:
                    self.buffer.add_with_symmetries(self.game, example)
                else:
                    self.buffer.add(example)

        self._sgd_stage()
        self.iterations += 1

    def _sgd_stage(self) -> None:
        if len(self.buffer) == 0 or self.sgd_iterations == 0:
            return
        t1 = time.perf_counter()
        for _ in range(self.sgd_iterations):
            states, policies, values = self.buffer.sample(self.batch_size)
            loss = self.trainer.train_step(states, policies, values)
            self.metrics.record_loss(
                time=self.clock.now,
                episode=self.metrics.episodes,
                step=self.trainer.steps,
                total=loss.total,
                value_loss=loss.value_loss,
                policy_loss=loss.policy_loss,
            )
        wall_train = time.perf_counter() - t1
        modelled = self.clock.charge_train(self.sgd_iterations)
        self.metrics.train_time += modelled if modelled > 0 else wall_train
        if self.engine is not None and self.engine.cache is not None:
            # SGD just updated the network the engine evaluates with;
            # cached evaluations are now stale and must not leak into the
            # next round's self-play data.  (cache is None for a
            # process-backend engine: the weight sync at the next round's
            # start clears the workers' caches.)
            self.engine.cache.clear()
        # the compiled inference plan is equally stale (train_step bumped
        # weights_version); recompile here, between the SGD stage and the
        # next round, rather than inside the first leaf evaluation.  The
        # process backend's workers recompile their own copies when the
        # engine re-syncs weights at the next round's start.
        ensure_plan(getattr(self.trainer, "network", None))

    def resume_from(self, checkpoints) -> int:
        """Restore the newest committed checkpoint from a
        :class:`repro.storage.CheckpointManager`, if one exists.

        Returns the iteration count restored (0 when starting fresh --
        an empty or absent directory is a normal cold start, not an
        error; a *corrupt* latest checkpoint is skipped in favour of its
        predecessor by the manager itself).
        """
        loaded = checkpoints.load_latest()
        if loaded is None:
            return 0
        _step, state = loaded
        self.load_state_dict(state)
        return self.iterations

    def run(
        self,
        episodes: int,
        on_episode: Callable[[int, TrainingMetrics], None] | None = None,
        *,
        checkpoints=None,
        checkpoint_every: int = 1,
    ) -> TrainingMetrics:
        """Run *episodes* full Algorithm-1 iterations.

        With *checkpoints* (a :class:`repro.storage.CheckpointManager`),
        durably snapshot the full pipeline state every *checkpoint_every*
        iterations and once more after the last -- a SIGKILL between
        snapshots loses at most ``checkpoint_every - 1`` iterations and
        resumes bit-identical from the survivor.
        """
        if episodes < 1:
            raise ValueError("episodes must be >= 1")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        for i in range(episodes):
            self.run_episode()
            if checkpoints is not None and self.iterations % checkpoint_every == 0:
                checkpoints.save(self.iterations, self.state_dict())
            if on_episode is not None:
                on_episode(i, self.metrics)
        if checkpoints is not None and self.iterations % checkpoint_every != 0:
            checkpoints.save(self.iterations, self.state_dict())
        return self.metrics
