"""E6 -- Figure 7: DNN loss over time for N in {4, 16, 64}.

Real training of the NumPy policy/value network via self-play generated
by the local-tree scheme at N workers (:class:`LocalTreeMCTS` with N
leaves in flight, so the algorithmic effects of parallelism -- virtual
loss, obsolete tree information -- are present in the data; its search
runs on one thread and is deterministic, unlike real threads, and builds
the tree its virtual-time simulation builds).  The time axis is modelled
platform time: the virtual clock charges the per-iteration latency of
the optimal adaptive CPU-GPU configuration at that N (from the DES on
the paper's Gomoku), matching Figure 7's protocol ("using the optimal
parallel configurations for 4, 16, and 64 workers").

Scale substitution (documented in EXPERIMENTS.md): the board is 6x6
four-in-a-row with a reduced trunk so the benchmark trains in seconds;
the paper's qualitative claims are checked on the curve shapes:
(1) converged loss is not degraded by parallelism, and (2) larger N
reaches the same loss earlier on the time axis.
"""

import numpy as np
import pytest

from repro.games import Gomoku, build_network_for
from repro.mcts.evaluation import NetworkEvaluator
from repro.nn import Adam, AlphaZeroLoss
from repro.parallel.base import SchemeName
from repro.perfmodel import DesignConfigurator, profile_virtual
from repro.parallel import LocalTreeMCTS
from repro.simulator import LocalTreeSimulation, SharedTreeSimulation
from repro.training import Trainer, TrainingPipeline, VirtualClock
from benchmarks.conftest import PLAYOUTS

WORKERS = (4, 16, 64)
EPISODES = 12
SGD_ITERATIONS = 10
TRAIN_PLAYOUTS = 48  # per move, for the small training game


def optimal_gpu_latency(gomoku, evaluator, platform, configurator, n):
    shared = SharedTreeSimulation(
        gomoku, evaluator, platform, num_workers=n, use_gpu=True
    ).run(PLAYOUTS)

    def measure(b):
        return (
            LocalTreeSimulation(
                gomoku, evaluator, platform, num_workers=n, batch_size=b, use_gpu=True
            )
            .run(PLAYOUTS)
            .per_iteration
        )

    cfg = configurator.configure_gpu(
        n, measure=measure, measured_shared=shared.per_iteration
    )
    if cfg.scheme == SchemeName.SHARED_TREE:
        return shared.per_iteration
    return cfg.batch_search.best_latency


def train_curve(n, per_iteration, seed):
    game = Gomoku(6, 4)
    net = build_network_for(game, channels=(8, 16, 16), rng=seed)
    scheme = LocalTreeMCTS(
        NetworkEvaluator(net), num_workers=n, batch_size=max(1, min(8, n // 2))
    )
    trainer = Trainer(net, Adam(net.parameters(), lr=2e-3), AlphaZeroLoss(1e-4))
    clock = VirtualClock(
        per_iteration=per_iteration, per_train_batch=2e-3, train_overlapped=True
    )
    pipe = TrainingPipeline(
        game,
        scheme,
        trainer,
        num_playouts=TRAIN_PLAYOUTS,
        sgd_iterations=SGD_ITERATIONS,
        batch_size=64,
        clock=clock,
        rng=seed + 2,
        max_moves=18,
    )
    pipe.run(EPISODES)
    points = [(p.time, p.total) for p in pipe.metrics.loss_history]
    smoothed = pipe.metrics.smoothed_losses(window=8)
    return points, smoothed


@pytest.fixture(scope="module")
def fig7_data(gomoku, evaluator, platform):
    prof = profile_virtual(gomoku, platform, num_playouts=PLAYOUTS)
    configurator = DesignConfigurator(prof, platform.gpu)
    data = {}
    for n in WORKERS:
        lat = optimal_gpu_latency(gomoku, evaluator, platform, configurator, n)
        points, smoothed = train_curve(n, lat, seed=7)
        data[n] = {
            "per_iteration": lat,
            "points": points,
            "smoothed": smoothed,
        }
    return data


def test_bench_fig7_loss_over_time(benchmark, fig7_data, emit):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for n, d in fig7_data.items():
        rows.append(
            {
                "N": n,
                "per_iter_us": round(d["per_iteration"] * 1e6, 2),
                "first_loss": round(d["smoothed"][0], 4),
                "final_loss": round(d["smoothed"][-1], 4),
                "final_time_s": round(d["points"][-1][0], 4),
            }
        )
    emit(
        "E6_fig7_loss",
        rows,
        note="paper Figure 7: converged loss unaffected by N; larger N "
        "reaches the same loss earlier in time",
    )


def test_fig7_loss_decreases_for_every_n(fig7_data):
    for n, d in fig7_data.items():
        assert d["smoothed"][-1] < d["smoothed"][0], f"N={n} did not learn"


def test_fig7_converged_loss_not_degraded(fig7_data):
    """Section 5.5: increasing parallelism must not hurt the converged
    loss.  At this benchmark's reduced episode budget the curves are not
    fully converged and each N trains on *different* self-play data (the
    parallelism changes the search, which is the paper's very point), so
    we check the spread of best-achieved losses stays within a band
    rather than exact equality."""
    finals = {n: min(d["smoothed"]) for n, d in fig7_data.items()}
    assert max(finals.values()) - min(finals.values()) < 1.0, finals
    # and no curve ends above its starting loss
    for n, d in fig7_data.items():
        assert d["smoothed"][-1] < d["smoothed"][0], n


def test_fig7_more_workers_converge_earlier_in_time(fig7_data):
    """The curves get steeper with N: the (virtual) time needed to reach a
    common loss threshold decreases with more workers."""

    def time_to_reach(d, threshold):
        for (t, _), s in zip(d["points"], d["smoothed"]):
            if s <= threshold:
                return t
        return float("inf")

    # threshold reachable by all runs
    threshold = max(d["smoothed"][-1] for d in fig7_data.values()) + 0.05
    times = {n: time_to_reach(d, threshold) for n, d in fig7_data.items()}
    assert times[64] < times[4], times
    assert all(np.isfinite(t) for t in times.values())
