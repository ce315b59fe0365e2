"""Tests for subtree reuse across moves."""

import numpy as np
import pytest

from repro.games import TicTacToe
from repro.mcts.budget import SearchBudget
from repro.mcts.evaluation import RandomRolloutEvaluator, UniformEvaluator
from repro.mcts.reuse import TreeReuseMCTS
from repro.mcts.search import action_prior_from_root
from tests.conftest import step_by_hand


class TestTreeAdvance:
    def test_observe_advances_root(self):
        agent = TreeReuseMCTS(UniformEvaluator(), rng=0)
        g = TicTacToe()
        agent.get_action_prior(g, 100)
        root_before = agent._root
        child = root_before.children[4]
        agent.observe(4)
        # compare statistics, not identity: the array backend compacts the
        # kept subtree into a fresh tree on re-root
        assert agent._root.parent is None
        assert agent._root.visit_count == child.visit_count
        assert agent._root.value_sum == child.value_sum
        assert set(agent._root.children) == set(child.children)

    def test_observe_unknown_action_drops_tree(self):
        agent = TreeReuseMCTS(UniformEvaluator(), rng=1)
        g = TicTacToe()
        agent.get_action_prior(g, 20)
        # force a root whose children dict is partial by advancing twice
        agent.observe(0)
        agent.observe(1) if agent._root and 1 in agent._root.children else None
        agent._root = None if agent._root is None else agent._root
        agent.observe(99 % 9)  # may or may not exist; must not raise
        # explicit unknown action on a fresh tiny tree:
        agent.reset()
        agent.get_action_prior(TicTacToe(), 2)
        agent.observe(8)
        # after observing a barely-explored/unknown branch the agent
        # either advanced or dropped the tree -- both are legal
        assert agent._root is None or agent._root.parent is None

    def test_reset_drops_tree(self):
        agent = TreeReuseMCTS(UniformEvaluator(), rng=2)
        agent.get_action_prior(TicTacToe(), 50)
        agent.reset()
        assert agent._root is None


class TestReuseSavesWork:
    def test_second_search_tops_up_only(self):
        agent = TreeReuseMCTS(UniformEvaluator(), rng=3)
        g = TicTacToe()
        prior = agent.get_action_prior(g, 200)
        best = int(np.argmax(prior))
        reused_before = agent._root.children[best].visit_count
        g.step(best)
        agent.observe(best)
        agent.get_action_prior(g, 200)
        # the reused subtree contributed its visits toward the new budget
        assert agent.reused_visits >= reused_before
        assert agent._root.visit_count >= 200

    def test_reuse_matches_fresh_distribution(self):
        """Reused statistics must not bias the search on a symmetric
        position: total-variation distance to a fresh search stays small."""
        fresh = TreeReuseMCTS(UniformEvaluator(), rng=4)
        reuser = TreeReuseMCTS(UniformEvaluator(), rng=5)
        g = TicTacToe()
        reuser.get_action_prior(g, 150)  # warm tree at the root
        p_reuse = reuser.get_action_prior(g, 300)
        p_fresh = fresh.get_action_prior(g, 300)
        tv = 0.5 * np.abs(p_reuse - p_fresh).sum()
        assert tv < 0.25

    def test_tactical_strength_preserved_across_moves(self):
        agent = TreeReuseMCTS(RandomRolloutEvaluator(rng=0), c_puct=1.5, rng=6)
        g = TicTacToe()
        for a in [0, 3, 1]:  # play to a position; X threatens 2
            g.step(a)
            agent.observe(a)
        # O to move must block at 2
        prior = agent.get_action_prior(g, 600)
        assert int(np.argmax(prior)) == 2

    def test_invalid_playouts(self):
        with pytest.raises(ValueError):
            TreeReuseMCTS(UniformEvaluator()).search(TicTacToe(), 0)


class TestSearchProgram:
    def test_program_stepped_by_hand_equals_search(self):
        """search() is search_program under the inline driver: stepping
        the program by hand over two moves of reuse gives the same tree
        and the leaves it yields are the ones search() evaluates."""
        evaluator = RandomRolloutEvaluator(rng=0)
        seen: list = []

        class Recording(UniformEvaluator):
            def evaluate(self, game):
                seen.append(game.canonical_key())
                return evaluator.evaluate(game)

        inline = TreeReuseMCTS(Recording(), rng=7)
        stepped = TreeReuseMCTS(UniformEvaluator(), rng=7)
        replay = RandomRolloutEvaluator(rng=0)
        g = TicTacToe()
        for _ in range(2):
            seen.clear()
            prior = inline.get_action_prior(g, 40)
            root, yielded = step_by_hand(stepped.search_program(g, 40), replay)
            assert yielded == seen
            assert root.visit_count == inline._root.visit_count
            np.testing.assert_array_equal(
                prior, action_prior_from_root(root, g.action_size)
            )
            action = int(np.argmax(prior))
            g.step(action)
            inline.observe(action)
            stepped.observe(action)

    def test_program_arms_its_budget_on_the_first_step(self):
        """Creating a program does no work: the tree, the counters and
        the clock are untouched until the driver first steps it."""
        agent = TreeReuseMCTS(UniformEvaluator(), rng=0)
        program = agent.search_program(TicTacToe(), 8)
        assert agent.searches == 0 and agent._root is None
        next(program)
        assert agent.searches == 1 and agent._root is not None
        program.close()

    def test_program_refuses_an_outside_clock(self):
        """The kept root sets the count target (total root visits), so a
        clock from outside, which would drop that rule, is refused."""
        agent = TreeReuseMCTS(UniformEvaluator(), rng=0)
        clock = SearchBudget(num_playouts=8).start()
        with pytest.raises(ValueError, match="pass no clock"):
            next(agent.search_program(TicTacToe(), 8, clock=clock))
        assert agent.searches == 0 and agent._root is None
