"""Tests for the fused float32 inference engine (`repro.nn.infer`).

Covers the plan/reference parity contract (all four games x both
architectures x varying batch sizes, including the legality-masking
path), the masked entry's bitwise contract with ``predict`` +
``mask_and_normalize``, the merged head GEMM, BatchNorm-folding
correctness, staleness/recompilation after SGD and weight loads, the
eval-mode regression (inference must never mutate BatchNorm running
statistics), zero-allocation steady state, and thread-shareability of a
single plan.
"""

from __future__ import annotations

import itertools
import os
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.games import ConnectFour, Gomoku, SyntheticTreeGame, TicTacToe, build_network_for
from repro.mcts.evaluation import NetworkEvaluator, _sanitize_masks, mask_and_normalize
from repro.nn import (
    Adam,
    AlphaZeroLoss,
    InferencePlan,
    PlanCompileError,
    PolicyValueNet,
    ResNetPolicyValueNet,
    Sequential,
    compile_plan,
    ensure_plan,
)
from repro.nn.infer import _compile_chain, _Workspace
from repro.nn.layers import Dropout, Linear, Module, ReLU
from repro.training.trainer import Trainer

# float32 forward against the float64 reference: worst observed error is
# ~1e-7 on these towers; 1e-5 leaves two orders of magnitude of margin
# while still catching any real compilation bug.
TOL = dict(rtol=1e-5, atol=1e-5)

GAMES = {
    "tictactoe": lambda: TicTacToe(),
    "connect4": lambda: ConnectFour(),
    "gomoku": lambda: Gomoku(7, 4),
    "synthetic": lambda: SyntheticTreeGame(fanout=4, board_size=5),
}


def _make_net(arch: str, game, rng: int):
    if arch == "policyvalue":
        return build_network_for(game, channels=(4, 8, 8), rng=rng)
    return ResNetPolicyValueNet(
        game.board_shape,
        in_channels=game.num_planes,
        num_blocks=2,
        channels=8,
        action_size=game.action_size,
        rng=rng,
    )


def _reference_output(net, states):
    net.set_inference_backend("reference")
    try:
        return net.predict(states)
    finally:
        net.set_inference_backend("fused")


def _games(game_factory, batch: int, seed: int = 0) -> list:
    """A batch of real mid-game states."""
    rng = np.random.default_rng(seed)
    games = []
    for _ in range(batch):
        g = game_factory()
        for _ in range(int(rng.integers(0, 4))):
            legal = g.legal_actions()
            if g.is_terminal or len(legal) == 0:
                break
            g.step(int(rng.choice(legal)))
        games.append(g)
    return games


def _states_masks(game_factory, batch: int, seed: int = 0):
    """A batch of real mid-game states with their legality masks."""
    games = _games(game_factory, batch, seed)
    states = np.stack([g.encode() for g in games])
    masks = np.stack([g.legal_mask() for g in games])
    return states, masks


class TestPlanReferenceParity:
    @pytest.mark.parametrize("game_name", sorted(GAMES))
    @pytest.mark.parametrize("arch", ["policyvalue", "resnet"])
    @pytest.mark.parametrize("batch", [1, 3, 8])
    def test_fused_matches_reference(self, game_name, arch, batch):
        game = GAMES[game_name]()
        net = _make_net(arch, game, rng=7)
        states, _ = _states_masks(GAMES[game_name], batch, seed=batch)
        fused = net.predict(states)
        ref = _reference_output(net, states)
        np.testing.assert_allclose(fused.logits, ref.logits, **TOL)
        np.testing.assert_allclose(fused.policy, ref.policy, **TOL)
        np.testing.assert_allclose(fused.value, ref.value, **TOL)

    @pytest.mark.parametrize("game_name", sorted(GAMES))
    @pytest.mark.parametrize("arch", ["policyvalue", "resnet"])
    def test_masked_predict_batch_matches_reference(self, game_name, arch):
        """The legality-masking path: fused predict_batch rows must match
        mask_and_normalize applied to the reference forward."""
        game = GAMES[game_name]()
        net = _make_net(arch, game, rng=11)
        states, masks = _states_masks(GAMES[game_name], 5, seed=3)
        out = net.predict_batch(states, masks)
        ref = _reference_output(net, states)
        expected = mask_and_normalize(ref.policy, masks)
        np.testing.assert_allclose(out.policy, expected, **TOL)
        assert np.all(out.policy[~masks] == 0.0)
        np.testing.assert_allclose(out.policy.sum(axis=-1), 1.0, rtol=1e-12)

    @given(batch=st.integers(1, 6), seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_parity_property(self, batch, seed):
        """Property form: parity holds for arbitrary well-formed inputs."""
        net = PolicyValueNet(board_size=4, channels=(3, 5, 5), rng=2)
        states = np.random.default_rng(seed).standard_normal((batch, 4, 4, 4))
        fused = net.predict(states)
        ref = _reference_output(net, states)
        np.testing.assert_allclose(fused.policy, ref.policy, **TOL)
        np.testing.assert_allclose(fused.value, ref.value, **TOL)

    def test_resnet_with_exercised_running_stats(self):
        """BN folding must use the *current* running statistics, not the
        init-time ones: train a few steps to move them, then compare."""
        net = ResNetPolicyValueNet(4, num_blocks=1, channels=6, rng=5)
        rng = np.random.default_rng(5)
        for _ in range(3):  # training-mode forwards update running stats
            net.train()
            net.forward(rng.standard_normal((4, 4, 4, 4)))
        states = rng.standard_normal((3, 4, 4, 4))
        fused = net.predict(states)
        ref = _reference_output(net, states)
        np.testing.assert_allclose(fused.policy, ref.policy, **TOL)
        np.testing.assert_allclose(fused.value, ref.value, **TOL)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _oracle(plan, states, masks):
    """The masked entry's contract: ``predict`` then ``mask_and_normalize``."""
    out = plan.predict(states)
    return mask_and_normalize(out.policy, masks), out.value


class TestMaskedEntry:
    """``InferencePlan.predict_masked`` runs softmax -> mask -> renormalise
    as the very float64 operations ``predict`` + ``mask_and_normalize``
    run, so its outputs must match that oracle bit for bit."""

    @pytest.mark.parametrize("game_name", sorted(GAMES))
    @pytest.mark.parametrize("arch", ["policyvalue", "resnet"])
    @pytest.mark.parametrize("batch", [1, 2, 3, 8])
    def test_bitwise_equal_to_predict_then_mask(self, game_name, arch, batch):
        game = GAMES[game_name]()
        plan = _make_net(arch, game, rng=17).inference_plan()
        games = _games(GAMES[game_name], batch, seed=100 + batch)
        states = np.stack([g.encode() for g in games])
        masks = np.stack([g.legal_mask() for g in games])
        want_p, want_v = _oracle(plan, states, masks)
        for inputs in (states, games):  # encoded planes, or the states themselves
            priors, values = plan.predict_masked(inputs, masks)
            np.testing.assert_array_equal(_bits(priors), _bits(want_p))
            np.testing.assert_array_equal(_bits(values), _bits(want_v))

    @pytest.mark.parametrize("arch", ["policyvalue", "resnet"])
    def test_underflow_row_takes_uniform_fallback(self, arch):
        game = ConnectFour()
        net = _make_net(arch, game, rng=18)
        net.policy_head.layers[-1].bias.data[0] += 200.0  # action 0 swamps the rest
        net.invalidate_plan()
        plan = net.inference_plan()
        states, masks = _states_masks(GAMES["connect4"], 3, seed=4)
        masks[1, 0] = False  # row 1's legal mass underflows to ~e^-200
        want_p, want_v = _oracle(plan, states, masks)
        priors, values = plan.predict_masked(states, masks)
        np.testing.assert_array_equal(_bits(priors), _bits(want_p))
        np.testing.assert_array_equal(_bits(values), _bits(want_v))
        np.testing.assert_array_equal(priors[1], masks[1] / masks[1].sum())
        assert priors[0, 0] > 0.99  # the healthy rows kept their softmax

    def test_no_legal_actions_raises(self):
        plan = _make_net("policyvalue", TicTacToe(), rng=19).inference_plan()
        states, masks = _states_masks(GAMES["tictactoe"], 2, seed=5)
        masks[1] = False
        with pytest.raises(ValueError, match="no legal actions"):
            plan.predict_masked(states, masks)

    @pytest.mark.parametrize("arch", ["policyvalue", "resnet"])
    @pytest.mark.parametrize("batch", [1, 2, 3, 8])
    def test_evaluate_batch_equals_evaluate_encoded(self, arch, batch):
        game = ConnectFour()
        evaluator = NetworkEvaluator(_make_net(arch, game, rng=20))
        games = _games(GAMES["connect4"], batch, seed=batch)
        states = np.stack([g.encode() for g in games])
        masks = np.stack([g.legal_mask() for g in games])
        priors, values = evaluator.evaluate_encoded(states, masks)
        for i, ev in enumerate(evaluator.evaluate_batch(games)):
            np.testing.assert_array_equal(_bits(ev.priors), _bits(priors[i]))
            assert _bits(np.float64(ev.value)) == _bits(values[i])

    def test_all_illegal_row_is_sanitized(self):
        """A torn farm row (all-zero mask) is evaluated as all-legal,
        through the same masked entry as the healthy rows."""
        net = _make_net("policyvalue", ConnectFour(), rng=21)
        evaluator = NetworkEvaluator(net)
        states, masks = _states_masks(GAMES["connect4"], 3, seed=6)
        torn = masks.astype(np.float64)
        torn[2] = 0.0
        priors, values = evaluator.evaluate_encoded(states, torn)
        want_p, want_v = _oracle(net.inference_plan(), states, _sanitize_masks(torn))
        np.testing.assert_array_equal(_bits(priors), _bits(want_p))
        np.testing.assert_array_equal(_bits(values), _bits(want_v))
        assert np.all(priors[2] > 0.0)  # every action counted as legal

    def test_reference_backend_is_the_oracle(self):
        net = _make_net("resnet", TicTacToe(), rng=22)
        games = _games(GAMES["tictactoe"], 3, seed=7)
        states = np.stack([g.encode() for g in games])
        masks = np.stack([g.legal_mask() for g in games])
        net.set_inference_backend("reference")
        want = mask_and_normalize(net.predict(states).policy, masks)
        for inputs in (states, games):
            priors, values = net.predict_masked(inputs, masks)
            np.testing.assert_array_equal(_bits(priors), _bits(want))
            np.testing.assert_array_equal(_bits(values), _bits(net.predict(states).value))


class TestHeadMerge:
    """compile_plan merges the two heads' leading 1x1 conv+ReLU into one
    GEMM; every column must come out as the separate head steps give it."""

    @staticmethod
    def _separate_heads(net, plan, states):
        """The trunk output run through each head compiled on its own."""
        ws = _Workspace()
        x = np.ascontiguousarray(states.transpose(0, 2, 3, 1), dtype=np.float32)
        for step in plan._trunk[:-1] if plan.merged_heads else plan._trunk:
            x = step.run(x, ws)
        ids, stats = itertools.count(1000), {"folded_batchnorms": 0}
        p = v = x
        for step in _compile_chain(net.policy_head.layers, ids, stats):
            p = step.run(p, ws)
        for step in _compile_chain(net.value_head.layers, ids, stats):
            v = step.run(v, ws)
        return p.copy(), v.copy()

    @pytest.mark.parametrize("arch", ["policyvalue", "resnet"])
    def test_merged_heads_equal_separate_heads(self, arch):
        game = ConnectFour()
        net = _make_net(arch, game, rng=23)
        plan = net.inference_plan()
        for batch in range(1, 9):
            states, _ = _states_masks(GAMES["connect4"], batch, seed=batch)
            p, v = plan._forward(states)
            want_p, want_v = self._separate_heads(net, plan, states)
            np.testing.assert_array_equal(p.view(np.uint32), want_p.view(np.uint32))
            np.testing.assert_array_equal(v.view(np.uint32), want_v.view(np.uint32))

    def test_which_heads_merge(self):
        plain = PolicyValueNet(board_size=4, channels=(2, 4, 4), rng=24).inference_plan()
        assert plain.merged_heads and plain._trunk[-1].out_channels == 4 + 2
        # a one-channel head stays apart: NumPy runs a one-column product
        # as a GEMV, which does not round like a GEMM column
        resnet = ResNetPolicyValueNet(4, num_blocks=1, channels=6, rng=25).inference_plan()
        assert not resnet.merged_heads


class TestPlanLifecycle:
    def test_plan_is_cached_until_weights_move(self):
        net = PolicyValueNet(board_size=3, channels=(2, 4, 4), rng=0)
        plan = net.inference_plan()
        assert net.inference_plan() is plan
        net.bump_weights_version()
        assert net.inference_plan() is not plan

    def test_recompiled_after_sgd_matches_updated_reference(self):
        """An SGD step through the trainer invalidates the plan; the fused
        path must then match the *updated* float64 reference."""
        game = TicTacToe()
        net = build_network_for(game, channels=(3, 6, 6), rng=1)
        states, masks = _states_masks(GAMES["tictactoe"], 4, seed=9)
        stale = net.predict(states)

        trainer = Trainer(net, Adam(net.parameters(), lr=5e-2), AlphaZeroLoss())
        rng = np.random.default_rng(1)
        pi = rng.dirichlet(np.ones(9), size=4)
        trainer.train_step(states, pi, rng.uniform(-1, 1, 4))

        fused = net.predict(states)
        ref = _reference_output(net, states)
        np.testing.assert_allclose(fused.policy, ref.policy, **TOL)
        np.testing.assert_allclose(fused.value, ref.value, **TOL)
        # and the update was actually visible (the stale plan did not leak)
        assert not np.allclose(fused.policy, stale.policy, rtol=1e-8, atol=1e-10)

    def test_load_state_dict_refreshes_plan(self):
        a = PolicyValueNet(board_size=3, channels=(2, 4, 4), rng=3)
        b = PolicyValueNet(board_size=3, channels=(2, 4, 4), rng=4)
        x = np.random.default_rng(0).random((2, 4, 3, 3))
        _ = a.predict(x)  # compile against the old weights
        a.load_state_dict(b.state_dict())
        np.testing.assert_allclose(
            a.predict(x).logits, b.predict(x).logits, **TOL
        )

    def test_plan_is_immutable_snapshot(self):
        """Mutating the source network in place must not change a compiled
        plan's outputs (staleness is a version check, not aliasing)."""
        net = PolicyValueNet(board_size=3, channels=(2, 4, 4), rng=6)
        x = np.random.default_rng(2).random((2, 4, 3, 3))
        plan = net.inference_plan()
        before = plan.predict(x)
        for p in net.parameters():
            p.data += 1.0  # silent in-place edit, no version bump
        after = plan.predict(x)
        np.testing.assert_array_equal(before.logits, after.logits)

    def test_reference_backend_selection(self):
        net = PolicyValueNet(board_size=3, channels=(2, 4, 4), rng=8)
        net.set_inference_backend("reference")
        assert net._plan is None
        x = np.random.default_rng(3).random((1, 4, 3, 3))
        out = net.predict(x)
        assert out.policy.dtype == np.float64
        with pytest.raises(ValueError, match="inference backend"):
            net.set_inference_backend("float16")

    def test_unsupported_tower_raises(self):
        class Flat(Module):
            def __init__(self):
                super().__init__()
                self.layers = [Linear(4, 2, rng=0)]

        with pytest.raises(PlanCompileError, match="trunk"):
            compile_plan(Flat())

    def test_unsupported_layer_raises(self):
        net = PolicyValueNet(board_size=3, channels=(2, 4, 4), rng=9)
        net.trunk.layers.append(_Weird())
        with pytest.raises(PlanCompileError, match="Weird"):
            compile_plan(net)

    def test_dropout_is_identity_at_inference(self):
        net = PolicyValueNet(board_size=3, channels=(2, 4, 4), rng=12)
        net.policy_head.layers.insert(2, Dropout(0.5, rng=0))
        x = np.random.default_rng(4).random((2, 4, 3, 3))
        fused = net.predict(x)
        ref = _reference_output(net, x)
        np.testing.assert_allclose(fused.policy, ref.policy, **TOL)

    def test_ensure_plan(self):
        net = PolicyValueNet(board_size=3, channels=(2, 4, 4), rng=13)
        plan = ensure_plan(net)
        assert isinstance(plan, InferencePlan)
        assert ensure_plan(net) is plan
        net.set_inference_backend("reference")
        assert ensure_plan(net) is None
        assert ensure_plan(None) is None
        assert ensure_plan(object()) is None

    def test_input_validation(self):
        net = PolicyValueNet(board_size=3, channels=(2, 4, 4), rng=14)
        plan = net.inference_plan()
        masks = np.ones((2, 9), dtype=bool)
        for bad in (np.zeros((2, 7, 3, 3)), np.zeros((2, 4, 4, 4)), np.zeros((4, 3))):
            with pytest.raises(ValueError, match="plan expects"):
                plan.predict(bad)
            with pytest.raises(ValueError, match="plan expects"):
                plan.predict_masked(bad, masks)
        # rejected up front: no arena was allocated for the bad shapes
        assert plan.workspace_nbytes() == 0
        with pytest.raises(ValueError, match="does not match"):
            plan.predict_masked(np.zeros((2, 4, 3, 3)), np.ones((2, 8), dtype=bool))


class _Weird(Module):
    def forward(self, x):  # pragma: no cover - never run
        return x


class TestEvalModeRegression:
    """Inference through a network left in training mode must neither
    mutate BatchNorm running statistics nor drift between calls."""

    @pytest.mark.parametrize("backend", ["fused", "reference"])
    def test_repeated_evaluate_batch_bit_identical_and_stats_untouched(
        self, backend
    ):
        game = TicTacToe()
        net = ResNetPolicyValueNet(
            game.board_shape,
            in_channels=game.num_planes,
            num_blocks=1,
            channels=6,
            action_size=game.action_size,
            rng=21,
        )
        net.set_inference_backend(backend)
        assert net.training  # deliberately left in training mode
        stem_bn = net.stem.layers[1]
        means = stem_bn.running_mean.copy()
        variances = stem_bn.running_var.copy()

        evaluator = NetworkEvaluator(net)
        games = [TicTacToe() for _ in range(3)]
        first = evaluator.evaluate_batch(games)
        for _ in range(3):
            again = evaluator.evaluate_batch(games)
            for a, b in zip(first, again):
                np.testing.assert_array_equal(a.priors, b.priors)
                assert a.value == b.value
        np.testing.assert_array_equal(stem_bn.running_mean, means)
        np.testing.assert_array_equal(stem_bn.running_var, variances)
        assert net.training  # mode restored

    def test_save_load_preserves_exercised_running_stats(self):
        """Running statistics are folded into compiled plans, so a
        save/load round-trip must carry them: a reloaded network has to
        produce the *same* inference outputs, not init-stats outputs."""
        net = ResNetPolicyValueNet(3, num_blocks=1, channels=6, rng=23)
        rng = np.random.default_rng(12)
        net.train()
        for _ in range(4):  # move running stats well away from (0, 1)
            net.forward(rng.standard_normal((4, 4, 3, 3)) * 3.0 + 1.0)
        states = rng.standard_normal((2, 4, 3, 3))
        want = net.predict(states)

        other = ResNetPolicyValueNet(3, num_blocks=1, channels=6, rng=24)
        other.load_state_dict(net.state_dict())
        stem_bn, other_bn = net.stem.layers[1], other.stem.layers[1]
        np.testing.assert_array_equal(other_bn.running_mean, stem_bn.running_mean)
        np.testing.assert_array_equal(other_bn.running_var, stem_bn.running_var)
        got = other.predict(states)
        np.testing.assert_array_equal(got.policy, want.policy)
        np.testing.assert_array_equal(got.value, want.value)
        # and through the on-disk format too
        for backend in ("fused", "reference"):
            fresh = ResNetPolicyValueNet(3, num_blocks=1, channels=6, rng=25)
            with tempfile.TemporaryDirectory() as d:
                path = os.path.join(d, "w.npz")
                net.save(path)
                fresh.load(path)
            fresh.set_inference_backend(backend)
            got = fresh.predict(states)
            np.testing.assert_allclose(got.policy, want.policy, **TOL)

    def test_legacy_param_only_state_still_loads(self):
        """Checkpoints written before buffers were serialised (parameters
        only) load without error and keep the current running stats."""
        net = ResNetPolicyValueNet(3, num_blocks=1, channels=6, rng=26)
        params_only = {
            f"p{i}": p.data.copy() for i, p in enumerate(net.parameters())
        }
        other = ResNetPolicyValueNet(3, num_blocks=1, channels=6, rng=27)
        kept = other.stem.layers[1].running_mean.copy()
        other.load_state_dict(params_only)
        np.testing.assert_array_equal(other.stem.layers[1].running_mean, kept)

    def test_concurrent_reference_inference_leaves_stats_untouched(self):
        """The reference backend toggles the module-wide train/eval flag;
        concurrent evaluation from engine threads must not let a forward
        slip through in training mode and mutate BatchNorm statistics."""
        net = ResNetPolicyValueNet(3, num_blocks=1, channels=6, rng=28)
        net.set_inference_backend("reference")
        assert net.training
        stem_bn = net.stem.layers[1]
        means = stem_bn.running_mean.copy()
        states = np.random.default_rng(13).standard_normal((2, 4, 3, 3))
        errors: list = []

        def worker() -> None:
            try:
                for _ in range(20):
                    net.predict(states)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        np.testing.assert_array_equal(stem_bn.running_mean, means)
        assert net.training

    def test_training_forward_still_updates_stats(self):
        """The fix must not leak into training: an explicit training-mode
        forward still maintains running statistics."""
        net = ResNetPolicyValueNet(3, num_blocks=1, channels=6, rng=22)
        stem_bn = net.stem.layers[1]
        means = stem_bn.running_mean.copy()
        net.train()
        net.forward(np.random.default_rng(6).standard_normal((4, 4, 3, 3)))
        assert not np.array_equal(stem_bn.running_mean, means)


class TestWorkspaces:
    def test_zero_allocation_steady_state(self):
        """After warmup, a fused forward allocates only the small output
        arrays -- the im2col/activation temporaries all come from the
        workspace arena.  The reference forward allocates orders of
        magnitude more; assert an absolute bound well between the two.
        Both towers (separate and merged heads) and both entries."""
        states = np.random.default_rng(7).standard_normal((8, 4, 15, 15))
        masks = np.random.default_rng(8).random((8, 225)) < 0.8
        for net in (
            ResNetPolicyValueNet(15, num_blocks=3, channels=32, rng=30),
            PolicyValueNet(board_size=15, channels=(32, 64, 128), rng=30),
        ):
            plan = net.inference_plan()
            for run in (lambda: plan.predict(states), lambda: plan.predict_masked(states, masks)):
                run()
                run()  # arena fully populated
                warm_bytes = plan.workspace_nbytes()
                assert warm_bytes > 0

                tracemalloc.start()
                run()
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                # outputs: 2x (8, 225) float64 logits/policy + softmax
                # temporaries + (8,) values ~ tens of KB; the im2col buffer
                # alone is ~2.6 MB
                assert peak < 1_000_000, f"steady-state fused forward allocated {peak} bytes"
                assert plan.workspace_nbytes() == warm_bytes  # arena did not grow

    def test_workspaces_keyed_by_batch_shape(self):
        net = PolicyValueNet(board_size=5, channels=(4, 8, 8), rng=31)
        plan = net.inference_plan()
        rng = np.random.default_rng(8)
        plan.predict(rng.random((2, 4, 5, 5)))
        bytes_b2 = plan.workspace_nbytes()
        plan.predict(rng.random((6, 4, 5, 5)))
        assert plan.workspace_nbytes() > bytes_b2  # second arena appeared
        # and the first batch shape still evaluates correctly afterwards
        again = plan.predict(rng.random((2, 4, 5, 5)))
        assert again.policy.shape == (2, 25)

    def test_arena_retention_is_bounded(self):
        """Queue/farm evaluators flush at varying occupancy, so a plan sees
        many distinct batch sizes; retained arenas must stay capped (LRU)
        instead of accumulating one per batch size forever."""
        net = PolicyValueNet(board_size=5, channels=(4, 8, 8), rng=34)
        plan = net.inference_plan()
        cap = plan.MAX_ARENAS_PER_THREAD
        rng = np.random.default_rng(14)
        for batch in range(1, cap + 6):
            plan.predict(rng.random((batch, 4, 5, 5)))
        assert len(plan._tls.arenas) == cap
        # an evicted shape still evaluates correctly (arena just rebuilds)
        out = plan.predict(rng.random((1, 4, 5, 5)))
        assert out.policy.shape == (1, 25)
        assert len(plan._tls.arenas) == cap

    def test_shared_buffers_with_mixed_padding(self):
        """Conv steps share column and padded-input buffers; a p=0 conv
        followed by a p=2 conv gives the same padded shape as the p=1
        stem, and must not read the stem's pixels as its zero border."""
        from repro.nn.layers import Conv2d

        net = PolicyValueNet(board_size=5, channels=(4, 4, 8), rng=35)
        net.trunk.layers[2] = Conv2d(4, 4, 3, padding=0, rng=36)  # 5x5 -> 3x3
        net.trunk.layers[4] = Conv2d(4, 8, 3, padding=2, rng=37)  # 3x3 -> 5x5
        x = np.random.default_rng(15).random((3, 4, 5, 5))
        ref = _reference_output(net, x)
        for _ in range(2):  # first call binds, second runs bound views
            np.testing.assert_allclose(net.predict(x).policy, ref.policy, **TOL)

    def test_outputs_do_not_alias_workspace(self):
        net = PolicyValueNet(board_size=3, channels=(2, 4, 4), rng=32)
        x = np.random.default_rng(9).random((2, 4, 3, 3))
        first = net.predict(x)
        kept = first.policy.copy(), first.value.copy(), first.logits.copy()
        net.predict(np.random.default_rng(10).random((2, 4, 3, 3)))
        np.testing.assert_array_equal(first.policy, kept[0])
        np.testing.assert_array_equal(first.value, kept[1])
        np.testing.assert_array_equal(first.logits, kept[2])

    def test_plan_shared_across_threads(self):
        """One plan, many threads: thread-local arenas make concurrent
        prediction race-free and bit-identical to single-threaded runs,
        on both towers (separate and merged heads) and both entries."""
        rng = np.random.default_rng(11)
        batches = [rng.standard_normal((3, 4, 5, 5)) for _ in range(8)]
        masks = rng.random((3, 25)) < 0.7
        for net in (
            ResNetPolicyValueNet(5, num_blocks=2, channels=8, rng=33),
            PolicyValueNet(board_size=5, channels=(4, 8, 8), rng=33),
        ):
            plan = net.inference_plan()

            def run(batch):
                out = plan.predict(batch)
                return (out.policy, out.value, *plan.predict_masked(batch, masks))

            expected = [run(b) for b in batches]
            results: list = [None] * len(batches)
            errors: list = []

            def worker(i: int) -> None:
                try:
                    for _ in range(5):
                        results[i] = run(batches[i])
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(len(batches))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            for got, want in zip(results, expected):
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)


class TestPlanIntrospection:
    def test_folded_batchnorm_count(self):
        # stem (1) + 2 blocks x 2 + policy head (1) + value head (1)
        net = ResNetPolicyValueNet(4, num_blocks=2, channels=6, rng=40)
        assert net.inference_plan().folded_batchnorms == 7
        plain = PolicyValueNet(board_size=4, channels=(2, 4, 4), rng=41)
        assert plain.inference_plan().folded_batchnorms == 0

    def test_num_steps_counts_fusion(self):
        # trunk 3 fused conv+relu; both heads' conv+relu as one merged
        # GEMM (two steps became one); policy flatten, linear; value
        # flatten, linear+relu, linear+tanh
        net = PolicyValueNet(board_size=4, channels=(2, 4, 4), rng=42)
        assert net.inference_plan().num_steps == 9
