"""E15: fused float32 inference vs the float64 reference forward.

The PR-4 headline: compiling the policy/value towers into
:class:`repro.nn.infer.InferencePlan` executors -- BatchNorm folded,
float32 GEMM-ready weights, NHWC channels-last execution, zero-allocation
thread-local workspaces.  Reported on the paper's Gomoku 15x15 shapes:

- forward-pass latency, the float64 reference forward of
  ``tests/nn/conv_oracle.py`` vs fused, across batch sizes and both
  architectures (the paper's 5-conv+3-FC tower and the AlphaZero-style
  residual tower) -- the ``T_DNN`` knob of Equations 3-6;
- end-to-end self-play throughput on the thread engine (playouts/sec)
  with each forward, i.e. how much of the forward win survives a full
  search loop.

Acceptance bar: fused >= 3x reference forward latency at batch 8 on the
ResNet tower.  The ``smoke`` test at the bottom is the push-lane CI
invocation: tiny towers, fused/reference parity within float32 tolerance.

Run directly (nightly lane):
    python -m pytest benchmarks/test_bench_infer.py -x -q
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.games import Gomoku
from repro.mcts.evaluation import NetworkEvaluator
from repro.nn import PolicyValueNet, ResNetPolicyValueNet
from tests.nn.conv_oracle import ReferenceEvaluator, reference_predict

BATCH_SIZES = (1, 8, 32)

#: the acceptance-criteria measurement point
GATE_ARCH, GATE_BATCH, GATE_SPEEDUP = "resnet", 8, 3.0


def _make_nets() -> dict:
    """Paper-sized towers on the Gomoku 15x15 benchmark shapes."""
    return {
        "policyvalue": PolicyValueNet(15, channels=(32, 64, 128), rng=0),
        "resnet": ResNetPolicyValueNet(15, num_blocks=3, channels=32, rng=1),
    }


def _best_latency(fn, repeats: int, trials: int = 3) -> float:
    """Best mean-of-*repeats* seconds across *trials* (noise-robust)."""
    best = float("inf")
    for _ in range(trials):
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn()
        best = min(best, (time.perf_counter() - t0) / repeats)
    return best


def _forward_latencies(net, batch: int) -> tuple[float, float]:
    """(reference, fused) seconds per forward at *batch*."""
    states = np.random.default_rng(batch).random((batch, 4, 15, 15))
    repeats = max(3, 40 // batch)
    net.predict(states)  # compile + warm the workspace arena
    fused = _best_latency(lambda: net.predict(states), repeats)
    reference = _best_latency(lambda: reference_predict(net, states), repeats)
    return reference, fused


def _engine_playouts_per_sec(evaluator_class) -> float:
    """One thread-engine round of Gomoku self-play, network evaluations
    by *evaluator_class* through the shared accelerator queue; returns
    playouts/sec."""
    from repro.serving import MultiGameSelfPlayEngine

    game = Gomoku(9, 5)
    net = PolicyValueNet(
        board_size=game.board_shape,
        in_channels=game.num_planes,
        channels=(16, 32, 32),
        action_size=game.action_size,
        rng=2,
    )
    with MultiGameSelfPlayEngine(
        game,
        evaluator_class(net),
        num_games=4,
        num_playouts=24,
        max_moves=20,
        rng=3,
    ) as engine:
        _, stats = engine.play_round()
    return stats.playouts / stats.wall_time


def test_fused_inference_throughput(emit):
    rows = []
    gate_speedup = None
    for arch, net in _make_nets().items():
        for batch in BATCH_SIZES:
            reference, fused = _forward_latencies(net, batch)
            speedup = reference / fused
            if (arch, batch) == (GATE_ARCH, GATE_BATCH):
                gate_speedup = speedup
            rows.append(
                {
                    "arch": arch,
                    "batch": batch,
                    "reference_ms": round(reference * 1e3, 3),
                    "fused_ms": round(fused * 1e3, 3),
                    "speedup": f"{speedup:.2f}x",
                }
            )

    engine_rates = {
        "reference": _engine_playouts_per_sec(ReferenceEvaluator),
        "fused": _engine_playouts_per_sec(NetworkEvaluator),
    }
    rows.append(
        {
            "arch": "thread engine (Gomoku 9x9, 4 games)",
            "batch": 4,
            "reference_ms": round(engine_rates["reference"], 1),
            "fused_ms": round(engine_rates["fused"], 1),
            "speedup": f"{engine_rates['fused'] / engine_rates['reference']:.2f}x",
        }
    )
    emit(
        "E15_infer",
        rows,
        note=(
            "Forward latency per call, float64 reference vs compiled fused "
            "float32 plan, Gomoku 15x15 towers; engine row reports "
            "playouts/sec (higher is better) for a full self-play round. "
            f"Acceptance bar: fused >= {GATE_SPEEDUP:.0f}x at batch "
            f"{GATE_BATCH} on the {GATE_ARCH} tower."
        ),
    )
    assert gate_speedup is not None
    assert gate_speedup >= GATE_SPEEDUP, (
        f"fused only {gate_speedup:.2f}x over reference at batch "
        f"{GATE_BATCH} on {GATE_ARCH}"
    )
    # the end-to-end engine must benefit too, not just the isolated forward
    assert engine_rates["fused"] > engine_rates["reference"], (
        f"engine throughput regressed: fused {engine_rates['fused']:.1f} "
        f"vs reference {engine_rates['reference']:.1f} playouts/sec"
    )


@pytest.mark.parametrize("arch", ["policyvalue", "resnet"])
def test_smoke_fused_parity(arch):
    """Push-lane smoke: tiny towers, fused/reference parity within float32
    tolerance, workspace arena stable across repeated calls."""
    if arch == "policyvalue":
        net = PolicyValueNet(5, channels=(4, 8, 8), rng=10)
    else:
        net = ResNetPolicyValueNet(5, num_blocks=2, channels=8, rng=11)
    states = np.random.default_rng(12).random((4, 4, 5, 5))
    fused = net.predict(states)
    ref = reference_predict(net, states)
    np.testing.assert_allclose(fused.policy, ref.policy, rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(fused.value, ref.value, rtol=1e-5, atol=1e-5)
    # the float64 forward left the plan alone: check repeatability and
    # arena stability on it
    again = net.predict(states)
    np.testing.assert_array_equal(fused.policy, again.policy)
    plan = net.inference_plan()
    warm = plan.workspace_nbytes()
    assert warm > 0
    third = net.predict(states)
    np.testing.assert_array_equal(fused.policy, third.policy)
    assert plan.workspace_nbytes() == warm
