"""Tests for the leaf-parallel and root-parallel baselines (Section 2.2)."""

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
from repro.mcts.search import action_prior_from_root
from repro.mcts.serial import SerialMCTS
from repro.parallel import LeafParallelMCTS, RootParallelMCTS
from repro.parallel.base import SchemeName
from repro.utils.rng import spawn_rngs
from tests.mcts import node_oracle
from tests.mcts.node_oracle import Node, on_backend


class BatchLog(UniformEvaluator):
    """Uniform evaluator that logs the size of every batch it is given
    and counts the leaves evaluated outside a batch."""

    def __init__(self) -> None:
        self.batches: list[int] = []
        self.singles = 0

    def evaluate(self, game):
        self.singles += 1
        return super().evaluate(game)

    def evaluate_batch(self, games):
        self.batches.append(len(games))
        return [UniformEvaluator.evaluate(self, g) for g in games]


class StateHashEvaluator(Evaluator):
    """Deterministic, state-dependent priors and values: each state's
    evaluation is drawn from a generator seeded by its key, so it does
    not depend on which batch the state arrives in."""

    def evaluate(self, game):
        rng = np.random.default_rng(zlib.crc32(repr(game.canonical_key()).encode()))
        priors = rng.random(game.action_size) * game.legal_mask()
        return Evaluation(priors=priors / priors.sum(), value=float(rng.uniform(-1, 1)))


def midgame() -> TicTacToe:
    """A position whose subtrees reach terminal states within a few plies."""
    g = TicTacToe()
    for a in [4, 0, 8]:
        g.step(a)
    return g


class TestLeafParallel:
    def test_playout_budget(self):
        s = LeafParallelMCTS(UniformEvaluator(), num_workers=4, rng=0)
        root = s.search(TicTacToe(), 60)
        assert root.visit_count == 60

    def test_name(self):
        assert LeafParallelMCTS(UniformEvaluator()).name == SchemeName.LEAF_PARALLEL

    def test_finds_win(self):
        g = TicTacToe()
        for a in [0, 3, 1, 4]:
            g.step(a)
        s = LeafParallelMCTS(RandomRolloutEvaluator(rng=0), num_workers=4, c_puct=1.5, rng=1)
        prior = s.get_action_prior(g, 150)
        assert int(np.argmax(prior)) == 2

    def test_averaging_reduces_variance_vs_serial(self):
        """Leaf-parallel's only benefit: lower-variance leaf values."""
        g = TicTacToe()
        values = []
        for seed in range(10):
            s = LeafParallelMCTS(
                RandomRolloutEvaluator(rng=seed), num_workers=8, rng=seed
            )
            root = s.search(g, 40)
            values.append(root.children[4].q)
        serial_values = []
        from repro.mcts.serial import SerialMCTS

        for seed in range(10):
            engine = SerialMCTS(RandomRolloutEvaluator(rng=seed), rng=seed)
            root = engine.search(g, 40)
            serial_values.append(root.children[4].q)
        # not a strict guarantee per-seed, but the spread should not blow up
        assert np.std(values) <= np.std(serial_values) * 1.5

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            LeafParallelMCTS(UniformEvaluator(), num_workers=0)

    @pytest.mark.parametrize("kwargs", [{"dirichlet_epsilon": 1.5}, {"c_puct": 0.0}])
    def test_invalid_search_settings_fail_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            LeafParallelMCTS(UniformEvaluator(), **kwargs)


class TestRootParallel:
    def test_total_budget_split(self):
        s = RootParallelMCTS(UniformEvaluator(), num_workers=4, rng=0)
        root = s.search(TicTacToe(), 101)
        # merged root visits = sum of ensemble totals
        assert root.visit_count == 101

    def test_independent_trees_kept(self):
        s = RootParallelMCTS(UniformEvaluator(), num_workers=3, rng=1)
        s.search(TicTacToe(), 90)
        assert len(s.last_roots) == 3
        for r in s.last_roots:
            assert r.visit_count == 30

    def test_more_workers_than_playouts(self):
        s = RootParallelMCTS(UniformEvaluator(), num_workers=8, rng=2)
        root = s.search(TicTacToe(), 3)
        assert root.visit_count == 3
        assert len(s.last_roots) == 3  # empty budgets dropped

    def test_prior_distribution(self):
        s = RootParallelMCTS(UniformEvaluator(), num_workers=4, rng=3)
        prior = s.get_action_prior(TicTacToe(), 100)
        assert np.isclose(prior.sum(), 1.0)

    def test_finds_win(self):
        g = TicTacToe()
        for a in [0, 3, 1, 4]:
            g.step(a)
        s = RootParallelMCTS(
            RandomRolloutEvaluator(rng=0), num_workers=4, c_puct=1.5, rng=4
        )
        prior = s.get_action_prior(g, 400)
        assert int(np.argmax(prior)) == 2

    def test_merge_accumulates_stats(self):
        r1, r2 = Node(), Node()
        for r, visits in ((r1, 5), (r2, 7)):
            c = r.add_child(0, 1.0)
            c.visit_count = visits
            c.value_sum = visits * 0.5
            r.visit_count = visits
        merged = RootParallelMCTS._merge_roots([r1, r2])
        assert merged.children[0].visit_count == 12
        assert merged.children[0].value_sum == 6.0

    def test_merged_root_is_an_array_tree_with_exact_caches(self):
        """The merged root spans the sorted union of the workers' root
        actions, each prior from the first root holding the action, and
        its cached ``q``/``n1`` columns agree with the summed stats."""
        from repro.mcts.arraytree import ArrayNodeView

        r1, r2 = Node(), Node()
        for r, kids in ((r1, {4: (0.2, 3, 1.5), 1: (0.7, 2, -0.5)}),
                        (r2, {1: (0.9, 4, 0.25), 6: (0.1, 1, 1.0)})):
            for action, (prior, visits, value_sum) in kids.items():
                c = r.add_child(action, prior)
                c.visit_count, c.value_sum = visits, value_sum
            r.visit_count = 1 + sum(v for _, v, _ in kids.values())
        merged = RootParallelMCTS._merge_roots([r1, r2])
        assert isinstance(merged, ArrayNodeView)
        assert merged.visit_count == r1.visit_count + r2.visit_count
        assert list(merged.children) == [1, 4, 6]
        want = {1: (0.7, 6, -0.25), 4: (0.2, 3, 1.5), 6: (0.1, 1, 1.0)}
        tree = merged.tree
        for action, child in merged.children.items():
            prior, visits, value_sum = want[action]
            assert (child.prior, child.visit_count, child.value_sum) == want[action]
            assert tree.q[child.index] == value_sum / visits
            assert tree.n1[child.index] == 1.0 + visits


class TestOneThreadSchedule:
    @pytest.mark.parametrize("game_cls", [TicTacToe, ConnectFour])
    def test_root_parallel_evaluates_each_round_as_one_batch(self, game_cls):
        """N=4 workers: every round is one batch with a row per live
        worker, so batches hold 4 rows until workers start to finish."""
        log = BatchLog()
        RootParallelMCTS(log, num_workers=4, rng=0).search(game_cls(), 100)
        assert log.singles == 0
        assert log.batches[0] == 4
        assert log.batches == sorted(log.batches, reverse=True)
        assert len(log.batches) < sum(log.batches)

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_leaf_parallel_one_batch_of_n_per_non_terminal_playout(self, n):
        log = BatchLog()
        LeafParallelMCTS(log, num_workers=n, rng=0).search(midgame(), 60)
        # uniform evaluations average to themselves, so the tree and its
        # non-terminal leaves are serial search's
        serial = SerialMCTS(UniformEvaluator(), rng=0)
        serial.search(midgame(), 60)
        assert serial.stats.evaluations < 60  # some playouts end terminal
        assert log.singles == 0
        assert log.batches == [n] * serial.stats.evaluations

    @pytest.mark.parametrize("game_cls", [TicTacToe, ConnectFour])
    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("cls", [LeafParallelMCTS, RootParallelMCTS])
    def test_seeded_rollouts_give_equal_priors(self, cls, n, game_cls):
        def prior():
            scheme = cls(RandomRolloutEvaluator(rng=7), num_workers=n, rng=8)
            return scheme.get_action_prior(game_cls(), 48)

        np.testing.assert_array_equal(prior(), prior())


class TestRootParallelIsSerialSearches:
    @pytest.mark.parametrize("backend", ["node", "array"])
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_equals_serial_searches_run_one_after_another(self, n, backend):
        """Stepping the workers round-robin changes no worker's search:
        each equals a serial search on its spawned stream and budget."""
        game = ConnectFour()
        evaluator = StateHashEvaluator()
        scheme = RootParallelMCTS(
            evaluator, num_workers=n, dirichlet_epsilon=0.25, rng=11
        )
        base, extra = divmod(101, n)
        budgets = [base + (i < extra) for i in range(n)]
        with on_backend(backend):
            merged = scheme.search(game.copy(), 101)
            expected = [
                SerialMCTS(evaluator, dirichlet_epsilon=0.25, rng=rng).search(
                    game.copy(), budget
                )
                for budget, rng in zip(
                    budgets, spawn_rngs(np.random.default_rng(11), n)
                )
            ]
        prior_of = (
            node_oracle.action_prior_from_root if backend == "node"
            else action_prior_from_root
        )
        assert len(scheme.last_roots) == n
        for root, want in zip(scheme.last_roots, expected):
            assert root.visit_count == want.visit_count
            np.testing.assert_array_equal(
                prior_of(root, game.action_size),
                prior_of(want, game.action_size),
            )
        reference = RootParallelMCTS._merge_roots(expected)
        assert merged.visit_count == reference.visit_count == 101
        for action, child in reference.children.items():
            assert merged.children[action].visit_count == child.visit_count
            assert merged.children[action].value_sum == child.value_sum
            assert merged.children[action].prior == child.prior

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_network_evaluator_matches_serial_searches_to_rounding(self, n):
        """Under the fused network plan a row can differ with the batch it
        arrives in, in the last float32 bits: the round batches keep every
        worker's visit counts and move its value sums only by rounding."""
        game = ConnectFour()
        evaluator = NetworkEvaluator(build_network_for(game, channels=(8, 16, 16), rng=5))
        scheme = RootParallelMCTS(evaluator, num_workers=n, rng=11)
        scheme.search(game.copy(), 96)
        expected = [
            SerialMCTS(evaluator, rng=rng).search(game.copy(), 96 // n)
            for rng in spawn_rngs(np.random.default_rng(11), n)
        ]
        for root, want in zip(scheme.last_roots, expected):
            assert root.visit_count == want.visit_count
            for action, child in want.children.items():
                got = root.children[action]
                assert got.visit_count == child.visit_count
                np.testing.assert_allclose(got.value_sum, child.value_sum, atol=1e-5)
