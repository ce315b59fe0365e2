"""The DES local-tree search builds the tree the real scheme builds.

:class:`LocalTreeSimulation` drives :meth:`LocalTreeMCTS.search_program`
in virtual time; :meth:`LocalTreeMCTS.search` drives the same program
inline.  Whatever the DES's worker or accelerator timing, the tree it
returns must equal the inline search's, node for node: visit counts,
value sums and child sets.  The inline search grows a ``Node`` oracle
tree (``tests/mcts/node_oracle.py``), so the DES's array tree is checked
against the other storage too.

The shared-tree DES with one worker runs Algorithm 2 serially, one
playout at a time under constant virtual loss, which is the local-tree
program with one leaf in flight: its tree must equal that search's too.
"""

import pytest

from repro.games import ConnectFour, Gomoku, TicTacToe, build_network_for
from repro.mcts.evaluation import NetworkEvaluator, UniformEvaluator
from repro.mcts.virtual_loss import ConstantVirtualLoss
from repro.parallel import LocalTreeMCTS
from repro.mcts.serial import FLUSH, WAIT
from repro.simulator import LocalTreeSimulation, SharedTreeSimulation, paper_platform
from tests.mcts.node_oracle import node_trees

PLAT = paper_platform()
GAMES = {
    "tictactoe": TicTacToe,
    "connect4": ConnectFour,
    "gomoku9": lambda: Gomoku(9, 5),
}
PLAYOUTS = 120


def assert_same_tree(a, b, path=()):
    """*a* and *b* agree on visits, value sums and children, recursively."""
    assert a.visit_count == b.visit_count, path
    assert a.value_sum == b.value_sum, path
    kids_a, kids_b = a.children, b.children
    assert sorted(kids_a) == sorted(kids_b), path
    for action in kids_a:
        assert_same_tree(kids_a[action], kids_b[action], path + (action,))


def evaluator_for(kind, game):
    if kind == "uniform":
        return UniformEvaluator()
    return NetworkEvaluator(build_network_for(game, channels=(2, 4, 4), rng=0))


def completion_order(sim, order):
    """Make *sim* record, per taken-back sub-batch, its index among the
    sub-batches in flight (0 = the oldest)."""
    program_of = sim.scheme.search_program

    def recording(game, budget):
        program = program_of(game, budget)
        inflight = []
        reply = None
        try:
            while True:
                step = program.send(reply)
                if step[0] is FLUSH:
                    inflight.append(step[1])
                reply = yield step
                if step[0] is WAIT:
                    i = next(i for i, b in enumerate(inflight) if b is reply[0])
                    order.append(i)
                    del inflight[i]
        except StopIteration as stop:
            return stop.value

    sim.scheme.search_program = recording


@pytest.mark.parametrize("evaluator", ["uniform", "network"])
@pytest.mark.parametrize("n,b", [(1, 1), (4, 2), (8, 3), (16, 8)])
@pytest.mark.parametrize("use_gpu", [False, True], ids=["cpu", "gpu"])
@pytest.mark.parametrize("game", sorted(GAMES))
def test_des_tree_equals_scheme_tree(game, use_gpu, n, b, evaluator):
    ev = evaluator_for(evaluator, GAMES[game]())
    sim = LocalTreeSimulation(
        GAMES[game](), ev, PLAT, num_workers=n, batch_size=b, use_gpu=use_gpu
    ).run(PLAYOUTS)
    with node_trees():
        root = LocalTreeMCTS(ev, num_workers=n, batch_size=b).search(
            GAMES[game](), PLAYOUTS
        )
    assert sim.root.visit_count == PLAYOUTS
    assert_same_tree(sim.root, root)


@pytest.mark.parametrize("evaluator", ["uniform", "network"])
def test_out_of_order_completion_keeps_the_tree(evaluator):
    """On CPU a worker with a short tail sub-batch can finish before one
    holding an older, longer sub-batch; the program takes back whichever
    finishes, and the tree still equals the in-order search's."""
    ev = evaluator_for(evaluator, ConnectFour())
    order: list[int] = []
    sim = LocalTreeSimulation(ConnectFour(), ev, PLAT, num_workers=4, batch_size=2)
    completion_order(sim, order)
    result = sim.run(200)
    assert any(order), "no sub-batch finished before an older one"
    with node_trees():
        root = LocalTreeMCTS(ev, num_workers=4, batch_size=2).search(
            ConnectFour(), 200
        )
    assert_same_tree(result.root, root)


@pytest.mark.parametrize("evaluator", ["uniform", "network"])
@pytest.mark.parametrize("use_gpu", [False, True], ids=["cpu", "gpu"])
@pytest.mark.parametrize("game", sorted(GAMES))
def test_one_worker_shared_tree_equals_scheme_tree(game, use_gpu, evaluator):
    ev = evaluator_for(evaluator, GAMES[game]())
    sim = SharedTreeSimulation(
        GAMES[game](), ev, PLAT, num_workers=1, use_gpu=use_gpu
    ).run(PLAYOUTS)
    with node_trees():
        root = LocalTreeMCTS(ev, 1, 1, vl_policy=ConstantVirtualLoss()).search(
            GAMES[game](), PLAYOUTS
        )
    assert sim.root.visit_count == PLAYOUTS
    assert_same_tree(sim.root, root)
