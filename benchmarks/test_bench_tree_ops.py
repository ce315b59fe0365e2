"""E13: tree-operation throughput -- Node objects vs the array tree.

The headline of the array tree: moving selection/expansion/backup from
per-node Python objects onto structure-of-arrays storage
(``repro.mcts.arraytree``) with vectorised Equation-1 selection.  The
``node`` column runs the ``Node`` oracle (``tests/mcts/node_oracle.py``),
the object-per-node tree the array tree replaced; serial search runs on
it under ``node_trees()``.  Reported per backend on the paper's Gomoku
15x15 benchmark game:

- select / expand / backup micro ops/sec (the three in-tree operations
  of Section 2.1, isolated);
- end-to-end simulations/sec for one move of serial search at the
  standard playout budget -- the number the >= 5x acceptance bar applies
  to.

The ``smoke`` test at the bottom is the push-lane CI invocation: one
round on a tiny board, both backends, exact visit parity.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.games import Gomoku
from repro.mcts import arraytree, search
from repro.mcts.serial import SerialMCTS
from tests.mcts import node_oracle
from tests.mcts.node_oracle import on_backend

from benchmarks.conftest import PLAYOUTS

#: each backend's root factory and the module holding its primitives
BACKENDS = {
    "node": (node_oracle.make_root, node_oracle),
    "array": (arraytree.make_root, search),
}


def _ops_per_sec(fn, repeats: int) -> float:
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return repeats / (time.perf_counter() - t0)


def _micro_rates(game, evaluator, backend: str) -> dict[str, float]:
    """Isolated select/expand/backup rates on a realistically-shaped tree."""
    make_root, ops = BACKENDS[backend]
    with on_backend(backend):
        root = SerialMCTS(evaluator, rng=0).search(game.copy(), PLAYOUTS)

    # select: full Equation-1 descents of the built tree (read-only)
    select_rate = _ops_per_sec(
        lambda: ops.select_leaf(root, game.copy(), 5.0),
        300,
    )

    # expand: root-fanout expansions (board_size^2 children per op)
    evaluation = evaluator.evaluate(game)

    def expand_once():
        fresh = make_root(capacity=game.action_size + 1)
        ops.expand(fresh, game, evaluation)

    expand_rate = _ops_per_sec(expand_once, 300)

    # backup: walk a leaf-to-root path with sign alternation + visit bumps
    leaf, _, _ = ops.select_leaf(root, game.copy(), 5.0)
    backup_rate = _ops_per_sec(lambda: ops.backup(leaf, 0.5), 2000)

    return {
        "select_ops_per_sec": select_rate,
        "expand_ops_per_sec": expand_rate,
        "backup_ops_per_sec": backup_rate,
    }


def _end_to_end_sims_per_sec(game, evaluator, backend: str) -> float:
    """One move of serial search at the standard budget; best of 3."""
    best = 0.0
    for _ in range(3):
        engine = SerialMCTS(evaluator, rng=0)
        with on_backend(backend):
            t0 = time.perf_counter()
            engine.search(game.copy(), PLAYOUTS)
            best = max(best, PLAYOUTS / (time.perf_counter() - t0))
    return best


def test_tree_ops_throughput(gomoku, evaluator, emit):
    rows = []
    sims = {}
    for backend in BACKENDS:
        micro = _micro_rates(gomoku, evaluator, backend)
        sims[backend] = _end_to_end_sims_per_sec(gomoku, evaluator, backend)
        rows.append(
            {
                "backend": backend,
                "select_ops_per_sec": round(micro["select_ops_per_sec"]),
                "expand_ops_per_sec": round(micro["expand_ops_per_sec"]),
                "backup_ops_per_sec": round(micro["backup_ops_per_sec"]),
                "end_to_end_sims_per_sec": round(sims[backend]),
            }
        )
    speedup = sims["array"] / sims["node"]
    rows.append(
        {
            "backend": "array/node speedup",
            "select_ops_per_sec": "",
            "expand_ops_per_sec": "",
            "backup_ops_per_sec": "",
            "end_to_end_sims_per_sec": f"{speedup:.2f}x",
        }
    )
    emit(
        "E13_tree_ops",
        rows,
        note=(
            "Gomoku 15x15 serial search, UniformEvaluator (in-tree cost "
            "isolated from DNN cost); acceptance bar: array >= 5x node "
            "end-to-end."
        ),
    )
    # hard gate slightly below the 5x headline so a noisy CI runner cannot
    # flake the lane; the emitted artifact records the true ratio
    assert speedup >= 4.0, f"array tree only {speedup:.2f}x over Node"


@pytest.mark.parametrize("backend", BACKENDS)
def test_micro_rates_positive(gomoku, evaluator, backend):
    micro = _micro_rates(gomoku, evaluator, backend)
    assert all(rate > 0 for rate in micro.values())


def test_smoke_tiny_board_parity():
    """Push-lane smoke: 1 round on a tiny board, exact backend parity."""
    game = Gomoku(7, 4)
    visits = {}
    for backend in BACKENDS:
        from repro.mcts.evaluation import UniformEvaluator

        with on_backend(backend):
            root = SerialMCTS(UniformEvaluator(), rng=0).search(game.copy(), 60)
        v = np.zeros(game.action_size, dtype=np.int64)
        for action, child in root.children.items():
            v[action] = child.visit_count
        visits[backend] = v
    np.testing.assert_array_equal(visits["array"], visits["node"])
