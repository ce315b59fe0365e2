"""Tests for the master-thread local-tree scheme (Algorithm 3)."""

import hashlib
import zlib

import numpy as np
import pytest

from repro.games import ConnectFour, TicTacToe, build_network_for
from repro.mcts.evaluation import (
    Evaluation,
    Evaluator,
    NetworkEvaluator,
    RandomRolloutEvaluator,
    UniformEvaluator,
)
from repro.mcts import serial
from repro.mcts.reuse import TreeReuseMCTS
from repro.mcts.search import select_leaf
from repro.mcts.serial import FLUSH, LEAF, WAIT
from repro.mcts.virtual_loss import ConstantVirtualLoss, WUVirtualLoss
from repro.parallel import LocalTreeMCTS
from repro.parallel.base import SchemeName
from tests.mcts.node_oracle import on_backend


class TestBasics:
    def test_playout_budget_respected(self):
        scheme = LocalTreeMCTS(UniformEvaluator(), num_workers=4, rng=0)
        root = scheme.search(TicTacToe(), 120)
        assert root.visit_count == 120

    def test_prior_is_distribution(self):
        scheme = LocalTreeMCTS(UniformEvaluator(), num_workers=4, rng=1)
        prior = scheme.get_action_prior(TicTacToe(), 80)
        assert np.isclose(prior.sum(), 1.0)

    def test_scheme_name(self):
        assert LocalTreeMCTS(UniformEvaluator()).name == SchemeName.LOCAL_TREE

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            LocalTreeMCTS(UniformEvaluator(), num_workers=4, batch_size=5)
        with pytest.raises(ValueError):
            LocalTreeMCTS(UniformEvaluator(), num_workers=4, batch_size=0)

    @pytest.mark.parametrize("batch_size", [1, 2, 4])
    def test_all_batch_sizes_complete(self, batch_size):
        scheme = LocalTreeMCTS(
            UniformEvaluator(), num_workers=4, batch_size=batch_size, rng=2
        )
        root = scheme.search(TicTacToe(), 100)
        assert root.visit_count == 100

    def test_no_virtual_loss_residue(self):
        scheme = LocalTreeMCTS(UniformEvaluator(), num_workers=8, rng=3)
        root = scheme.search(TicTacToe(), 200)
        for node in root.iter_subtree():
            assert node.virtual_loss == pytest.approx(0.0)

    def test_small_playout_count_with_many_workers(self):
        """Fewer playouts than workers: the tail-flush path must not hang."""
        s = LocalTreeMCTS(UniformEvaluator(), num_workers=16, batch_size=8, rng=4)
        root = s.search(TicTacToe(), 5)
        assert root.visit_count == 5


class TestBatchedInference:
    def test_network_evaluator_batched(self):
        net = build_network_for(TicTacToe(), channels=(2, 4, 4), rng=0)
        scheme = LocalTreeMCTS(
            NetworkEvaluator(net), num_workers=8, batch_size=4, rng=5
        )
        prior = scheme.get_action_prior(TicTacToe(), 60)
        assert np.isclose(prior.sum(), 1.0)

    def test_batched_matches_unbatched_visit_total(self):
        for b in (1, 4):
            scheme = LocalTreeMCTS(
                UniformEvaluator(), num_workers=4, batch_size=b, rng=6
            )
            root = scheme.search(TicTacToe(), 80)
            assert root.visit_count == 80


class TestTacticalStrength:
    def test_finds_winning_move(self):
        g = TicTacToe()
        for a in [0, 3, 1, 4]:
            g.step(a)
        scheme = LocalTreeMCTS(
            RandomRolloutEvaluator(rng=0), num_workers=4, c_puct=1.5, rng=7
        )
        prior = scheme.get_action_prior(g, 400)
        assert int(np.argmax(prior)) == 2

    def test_blocks_loss(self):
        g = TicTacToe()
        for a in [0, 4, 1]:
            g.step(a)
        scheme = LocalTreeMCTS(
            RandomRolloutEvaluator(rng=1), num_workers=4, c_puct=1.5, rng=8
        )
        prior = scheme.get_action_prior(g, 800)
        assert int(np.argmax(prior)) == 2


class TestMasterThreadOwnership:
    def test_tree_consistent_after_search(self):
        s = LocalTreeMCTS(UniformEvaluator(), num_workers=8, batch_size=4, rng=9)
        root = s.search(TicTacToe(), 300)
        for node in root.iter_subtree():
            if node.children:
                child_sum = sum(c.visit_count for c in node.children.values())
                assert node.visit_count >= child_sum
            assert -1.0 - 1e-9 <= node.q <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# The master drains the evaluation pipe itself, in submission order.  No
# test below depends on timing: each fails if completion order, and so the
# tree, depends on anything but the inputs.
# ---------------------------------------------------------------------------
#: (N, B) pairs: B in {1, N/2, N} for N in {1, 2, 4, 8}
GRID = sorted({(n, b) for n in (1, 2, 4, 8) for b in (1, max(1, n // 2), n)})
VL_POLICIES = {"wu": WUVirtualLoss, "constant": ConstantVirtualLoss}


class HashEvaluator(Evaluator):
    """Thread-independent evaluator with a state-dependent value: uniform
    priors over legal moves, value drawn from a CRC of the encoded state."""

    def evaluate(self, game):
        mask = game.legal_mask()
        h = zlib.crc32(game.encode().tobytes())
        return Evaluation(priors=mask / mask.sum(), value=(h % 2001) / 1000.0 - 1.0)


def c4_position() -> ConnectFour:
    game = ConnectFour()
    for a in (3, 3, 2):
        game.step(a)
    return game


def c4_prior(evaluator, n, b, vl="wu", backend="node", playouts=96) -> np.ndarray:
    scheme = LocalTreeMCTS(
        evaluator, num_workers=n, batch_size=b, vl_policy=VL_POLICIES[vl](),
        dirichlet_epsilon=0.25, rng=7,
    )
    with on_backend(backend):
        return scheme.get_action_prior(c4_position(), playouts)


def c4_net_evaluator() -> NetworkEvaluator:
    return NetworkEvaluator(build_network_for(ConnectFour(), channels=(4, 8, 8), rng=0))


def digest(prior: np.ndarray) -> str:
    return hashlib.sha256(prior.tobytes()).hexdigest()[:16]


class TestDeterministicAtAnyN:
    @pytest.mark.parametrize("vl", sorted(VL_POLICIES))
    @pytest.mark.parametrize("n,b", GRID)
    def test_repeated_runs_identical_and_node_equals_array(self, n, b, vl):
        priors = [
            c4_prior(HashEvaluator(), n, b, vl, backend)
            for backend in ("node", "array", "node", "array")
        ]
        assert len({digest(p) for p in priors}) == 1

    @pytest.mark.parametrize("n,b", [(4, 1), (4, 2), (8, 2), (8, 4)])
    def test_real_net_repeated_runs_identical(self, n, b):
        evaluator = c4_net_evaluator()
        assert len({digest(c4_prior(evaluator, n, b)) for _ in range(6)}) == 1


class TestRecordedPriors:
    """Priors recorded from the worker-pool implementation, where only one
    sub-batch is ever in flight (N=1, and N=2 with B=2), so the pool and
    the master's own drain build the same tree."""

    HASH = {
        (1, 1, "wu"): "61a23feeb45150aa",
        (1, 1, "constant"): "61a23feeb45150aa",
        (2, 2, "wu"): "03fa37f906a9a00f",
        (2, 2, "constant"): "61a23feeb45150aa",
    }
    NET = "f96e36211aa2cb09"

    @pytest.mark.parametrize("backend", ["node", "array"])
    @pytest.mark.parametrize("n,b,vl", sorted(HASH))
    def test_hash_evaluator(self, n, b, vl, backend):
        prior = c4_prior(HashEvaluator(), n, b, vl, backend)
        assert digest(prior) == self.HASH[n, b, vl]

    @pytest.mark.parametrize("vl", sorted(VL_POLICIES))
    @pytest.mark.parametrize("n,b", [(1, 1), (2, 2)])
    def test_real_net(self, n, b, vl):
        assert digest(c4_prior(c4_net_evaluator(), n, b, vl)) == self.NET


class SpyEvaluator(Evaluator):
    """Records each call, a one-row ``evaluate`` or an ``evaluate_batch``:
    its games, and how many leaves the master had selected when it came."""

    def __init__(self, selected: list) -> None:
        self.selected = selected
        self.batches: list[list] = []
        self.selected_at_call: list[int] = []

    def evaluate(self, game):
        return self.evaluate_batch([game])[0]

    def evaluate_batch(self, games):
        self.batches.append(list(games))
        self.selected_at_call.append(len(self.selected))
        masks = [g.legal_mask() for g in games]
        return [Evaluation(priors=m / m.sum(), value=0.0) for m in masks]


class TestPipeOrder:
    PLAYOUTS = 40  # 39 leaves below the root, none terminal on TicTacToe

    @pytest.mark.parametrize("n,b", [(1, 1), (2, 1), (2, 2), (4, 2), (8, 4), (8, 8)])
    def test_sub_batches_in_submission_order_with_n_in_flight(self, monkeypatch, n, b):
        selected: list = []

        def recording_select_leaf(*args, **kwargs):
            leaf, leaf_game, depth = select_leaf(*args, **kwargs)
            if depth and not leaf.is_terminal:  # a leaf below the root
                selected.append(leaf_game)
            return leaf, leaf_game, depth

        monkeypatch.setattr(serial, "select_leaf", recording_select_leaf)
        spy = SpyEvaluator(selected)
        scheme = LocalTreeMCTS(spy, num_workers=n, batch_size=b, rng=0)
        root = scheme.search(TicTacToe(), self.PLAYOUTS)
        assert root.visit_count == self.PLAYOUTS
        leaves = self.PLAYOUTS - 1
        assert len(selected) == leaves

        # the root goes first, alone, before any leaf is selected
        ((root_game,),) = spy.batches[:1]
        assert root_game.canonical_key() == TicTacToe().canonical_key()
        assert spy.selected_at_call.pop(0) == 0
        del spy.batches[0]

        # FIFO: the evaluator sees the leaves exactly in selection order
        evaluated = [g for batch in spy.batches for g in batch]
        assert len(evaluated) == leaves
        assert all(e is s for e, s in zip(evaluated, selected))

        # every sub-batch holds B leaves, except one tail flush at the end
        sizes = [len(batch) for batch in spy.batches]
        assert sizes[:-1] == [b] * (len(sizes) - 1)
        assert sizes[-1] == (leaves - 1) % b + 1

        # N-in-flight: the first evaluation comes once min(N, leaves) leaves
        # carry virtual loss, and each later one once the freed slots are
        # refilled, until the budget runs out
        done = 0
        for size, at_call in zip(sizes, spy.selected_at_call):
            assert at_call == min(done + n, leaves)
            done += size


class TestRootAndFanOut:
    """A fresh root is the first playout's leaf, evaluated alone before
    any other leaf launches; a kept, expanded root starts with N leaves
    in flight."""

    @pytest.mark.parametrize("b_is_n", [False, True], ids=["b1", "bn"])
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_fresh_root_is_flushed_alone_first(self, n, b_is_n):
        b = n if b_is_n else 1
        game = ConnectFour()
        scheme = LocalTreeMCTS(UniformEvaluator(), n, b, rng=0)
        program = scheme.search_program(game, 40)
        kind, batch = next(program)
        assert kind is FLUSH
        ((root, root_game),) = batch
        assert root.is_leaf and root_game.canonical_key() == game.canonical_key()
        assert next(program) == (WAIT, None)
        kind, (leaf, depth) = program.send(
            (batch, [UniformEvaluator().evaluate(root_game)])
        )
        assert kind is LEAF and depth == 1 and root.visit_count == 1
        program.close()

        # the inline driver makes the root's call first, one row, alone
        spy = SpyEvaluator([])
        LocalTreeMCTS(spy, num_workers=n, batch_size=b, rng=0).search(game, 40)
        ((first,), *rest) = spy.batches
        assert first.canonical_key() == game.canonical_key()
        assert rest and len(rest[0]) == b

    @pytest.mark.parametrize("n,b", [(2, 1), (4, 2), (8, 8)])
    def test_reused_expanded_root_starts_with_n_leaves_in_flight(self, n, b):
        class ReusedLocalTree(TreeReuseMCTS):
            num_workers = n
            batch_size = b
            vl_policy = WUVirtualLoss()

        game = ConnectFour()
        stepped, inline = (ReusedLocalTree(UniformEvaluator(), rng=0) for _ in "ab")
        for agent in (stepped, inline):
            agent.search(game, 40)
        program = stepped.search_program(game, 120)
        kinds = []
        while not kinds or kinds[-1] is not WAIT:
            kinds.append(next(program)[0])
        assert kinds.count(LEAF) == n
        assert kinds.count(FLUSH) == n // b
        assert kinds[0] is LEAF
        program.close()
        root = inline.search(game, 120)
        assert root.visit_count == 120
        assert not root.tree.virtual_loss[: root.tree.size].any()


class FailingEvaluator(HashEvaluator):
    """Raises on its k-th call, ``evaluate`` or ``evaluate_batch``, and
    only then."""

    def __init__(self, k: int) -> None:
        self.k = k
        self.calls = 0

    def _count(self) -> None:
        self.calls += 1
        if self.calls == self.k:
            raise RuntimeError(f"evaluation {self.k} failed")

    def evaluate(self, game):
        self._count()
        return super().evaluate(game)

    def evaluate_batch(self, games):
        self._count()
        return [HashEvaluator.evaluate(self, g) for g in games]


class TestEvaluatorErrors:
    @pytest.mark.parametrize("n,b", [(1, 1), (4, 2), (8, 4)])
    def test_error_raises_then_a_fresh_search_completes(self, n, b):
        evaluator = FailingEvaluator(k=3)
        scheme = LocalTreeMCTS(evaluator, num_workers=n, batch_size=b, rng=0)
        with pytest.raises(RuntimeError, match="evaluation 3 failed"):
            scheme.search(TicTacToe(), 60)
        root = scheme.search(TicTacToe(), 60)
        assert root.visit_count == 60
        for node in root.iter_subtree():
            assert node.virtual_loss == pytest.approx(0.0)
