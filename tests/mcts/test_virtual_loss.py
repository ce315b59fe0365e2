"""Tests for the two virtual-loss styles cited by the paper.

The per-node rules run on the ``Node`` oracle; the array rules
(``effective_stats_arrays``) are checked bit for bit below."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.games import SyntheticTreeGame
from repro.mcts.arraytree import ArrayTree
from repro.mcts.virtual_loss import (
    ConstantVirtualLoss,
    NoVirtualLoss,
    WUVirtualLoss,
)
from tests.mcts.node_oracle import Node, effective_stats


class TestNoVirtualLoss:
    def test_identity(self):
        vl = NoVirtualLoss()
        n = Node()
        n.visit_count, n.value_sum = 4, 2.0
        vl.on_descend(n)
        assert n.virtual_loss == 0.0
        assert effective_stats(vl, n) == (4.0, 0.5)


class TestConstantVirtualLoss:
    def test_descend_deflates_q(self):
        vl = ConstantVirtualLoss(weight=2.0)
        n = Node()
        n.visit_count, n.value_sum = 4, 4.0  # Q = 1.0
        vl.on_descend(n)
        n_eff, q_eff = effective_stats(vl, n)
        assert n_eff == 6.0
        assert q_eff == (4.0 - 2.0) / 6.0  # pretended losses

    def test_backup_restores(self):
        vl = ConstantVirtualLoss(weight=2.0)
        n = Node()
        n.visit_count, n.value_sum = 4, 4.0
        vl.on_descend(n)
        vl.on_backup(n)
        assert effective_stats(vl, n) == (4.0, 1.0)

    def test_unbalanced_backup_raises(self):
        vl = ConstantVirtualLoss()
        n = Node()
        with pytest.raises(RuntimeError):
            vl.on_backup(n)

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            ConstantVirtualLoss(weight=0.0)

    def test_unvisited_node_with_vl(self):
        vl = ConstantVirtualLoss(weight=1.0)
        n = Node()
        vl.on_descend(n)
        n_eff, q_eff = effective_stats(vl, n)
        assert n_eff == 1.0
        assert q_eff == -1.0  # pure pretended loss

    @given(depth=st.integers(1, 20))
    @settings(max_examples=20, deadline=None)
    def test_nested_descends_balance(self, depth):
        vl = ConstantVirtualLoss(weight=3.0)
        n = Node()
        n.visit_count, n.value_sum = 10, 5.0
        for _ in range(depth):
            vl.on_descend(n)
        for _ in range(depth):
            vl.on_backup(n)
        assert n.virtual_loss == pytest.approx(0.0)


class TestWUVirtualLoss:
    def test_q_unaffected(self):
        """The defining WU-UCT property: unobserved samples count toward
        visit totals but never poison Q with fake losses."""
        vl = WUVirtualLoss()
        n = Node()
        n.visit_count, n.value_sum = 4, 4.0
        vl.on_descend(n)
        n_eff, q_eff = effective_stats(vl, n)
        assert n_eff == 5.0
        assert q_eff == 1.0  # unchanged

    def test_exploration_denominator_grows(self):
        vl = WUVirtualLoss()
        n = Node()
        n.visit_count = 2
        vl.on_descend(n)
        vl.on_descend(n)
        assert effective_stats(vl, n)[0] == 4.0

    def test_backup_recovers(self):
        vl = WUVirtualLoss()
        n = Node()
        vl.on_descend(n)
        vl.on_backup(n)
        assert n.virtual_loss == 0.0

    def test_unbalanced_raises(self):
        with pytest.raises(RuntimeError):
            WUVirtualLoss().on_backup(Node())


class TestPolicyComparison:
    def test_constant_repels_harder_than_wu(self):
        """Constant VL must produce a lower effective Q than WU-UCT for the
        same in-flight load (the paper's 'lower their weights' mechanism)."""
        n1, n2 = Node(), Node()
        for n in (n1, n2):
            n.visit_count, n.value_sum = 5, 3.0
        cvl, wu = ConstantVirtualLoss(weight=1.0), WUVirtualLoss()
        cvl.on_descend(n1)
        wu.on_descend(n2)
        _, q_const = effective_stats(cvl, n1)
        _, q_wu = effective_stats(wu, n2)
        assert q_const < q_wu


# -- bit-exact array scoring --------------------------------------------------
def _masked_stats(visit_count, value_sum, virtual_loss, policy):
    """Reference ``effective_stats_arrays``: the masked-divide formulas.

    ``N > 0 ? W / N : 0`` written with a zeroed buffer and a ``where``
    mask, as the array tree first computed it.  The policies now skip the
    mask where that is exact; these are the oracle they must match.
    """
    if isinstance(policy, ConstantVirtualLoss):
        n_eff = visit_count + virtual_loss
        positive = n_eff > 0
        q_eff = np.zeros_like(n_eff, dtype=np.float64)
        np.divide(value_sum - virtual_loss, n_eff, out=q_eff, where=positive)
        return np.where(positive, n_eff, 0.0), q_eff
    n = visit_count.astype(np.float64)
    q = np.zeros_like(n)
    np.divide(value_sum, n, out=q, where=n > 0)
    if isinstance(policy, WUVirtualLoss):
        return n + virtual_loss, q
    return n, q


def _masked_scores(tree, idx, c_puct, policy):
    """Reference Equation-1 scores over the child slab of *idx*."""
    sl = tree.children_slice(idx)
    n_eff, q_eff = _masked_stats(
        tree.visit_count[sl], tree.value_sum[sl], tree.virtual_loss[sl], policy
    )
    total = policy.parent_visit_total(
        float(tree.visit_count[idx]), float(tree.virtual_loss[idx])
    )
    sqrt_parent = math.sqrt(max(total, 1.0))
    return q_eff + c_puct * tree.prior[sl] * sqrt_parent / (1.0 + n_eff)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


POLICIES = {
    "none": NoVirtualLoss(),
    "wu": WUVirtualLoss(),
    "constant": ConstantVirtualLoss(weight=3.0),
    "constant_light": ConstantVirtualLoss(weight=0.5),
}


@st.composite
def slabs(draw):
    """One expanded root: child stats with unvisited rows and in-flight VL.

    Unvisited rows carry ``value_sum == 0.0``, as backup (the only writer)
    guarantees; visited rows carry any sum a backup sequence can reach.
    """
    k = draw(st.integers(1, 12))
    visits = draw(st.lists(st.integers(0, 40), min_size=k, max_size=k))
    visits[draw(st.integers(0, k - 1))] = 0
    sums = [
        draw(st.floats(-float(n), float(n), allow_subnormal=False)) if n else 0.0
        for n in visits
    ]
    inflight = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    priors = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    root_inflight = draw(st.integers(0, 4))
    c_puct = draw(st.floats(0.1, 10.0))
    return visits, sums, inflight, priors, root_inflight, c_puct


def _build(slab, amount):
    visits, sums, inflight, priors, root_inflight, _ = slab
    tree = ArrayTree(capacity=4)
    root = tree.new_root()
    k = len(visits)
    tree.expand(root, np.arange(k, dtype=np.int64), np.array(priors))
    tree.visit_count[1 : k + 1] = visits
    tree.value_sum[1 : k + 1] = sums
    tree.virtual_loss[1 : k + 1] = np.array(inflight, dtype=np.float64) * amount
    tree.visit_count[root] = sum(visits) + 1
    tree.virtual_loss[root] = root_inflight * amount
    # the raw writes above bypass backup, so refresh the cached columns
    rows = slice(0, k + 1)
    tree.q[rows] = tree.value_sum[rows] / np.maximum(tree.visit_count[rows], 1)
    tree.n1[rows] = 1.0 + tree.visit_count[rows]
    return tree, root


class TestBitExactArrayScoring:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    @given(slab=slabs())
    @settings(max_examples=60, deadline=None)
    def test_effective_stats_match_masked_divide(self, name, slab):
        policy = POLICIES[name]
        tree, _ = _build(slab, amount=1.0)
        sl = tree.children_slice(0)
        args = (tree.visit_count[sl], tree.value_sum[sl], tree.virtual_loss[sl])
        n_new, q_new = policy.effective_stats_arrays(*args)
        n_old, q_old = _masked_stats(*args, policy)
        np.testing.assert_array_equal(_bits(n_new), _bits(n_old))
        np.testing.assert_array_equal(_bits(q_new), _bits(q_old))

    @pytest.mark.parametrize("name", sorted(POLICIES))
    @given(slab=slabs())
    @settings(max_examples=60, deadline=None)
    def test_equation_one_scores_match(self, name, slab):
        policy = POLICIES[name]
        tree, root = _build(slab, amount=policy.descend_amount or 1.0)
        c_puct = slab[-1]
        _, scores = tree.uct_scores(root, c_puct, policy)
        expected = _masked_scores(tree, root, c_puct, policy)
        np.testing.assert_array_equal(_bits(scores), _bits(expected))

    @given(slab=slabs())
    @settings(max_examples=60, deadline=None)
    def test_no_vl_descent_picks_the_reference_argmax(self, slab):
        """The inlined no-VL descent selects the reference scores' argmax
        (a no-VL tree never carries virtual loss)."""
        tree, root = _build(slab, amount=0.0)
        expected = _masked_scores(tree, root, slab[-1], NoVirtualLoss())
        game = SyntheticTreeGame(fanout=len(slab[0]), depth_limit=3)
        leaf, depth = tree.select_to_leaf(root, game, slab[-1], NoVirtualLoss())
        assert depth == 1
        assert leaf == 1 + int(np.argmax(expected))

    @given(slab=slabs())
    @settings(max_examples=60, deadline=None)
    def test_wu_descent_picks_the_reference_argmax(self, slab):
        """The inlined WU descent, which scores from the cached ``q``/``n1``
        columns plus virtual loss, selects the reference scores' argmax
        after adding its own virtual loss to the root."""
        tree, root = _build(slab, amount=1.0)
        wu = WUVirtualLoss()
        # the descent scores the root after adding its own virtual loss
        tree.virtual_loss[root] += 1.0
        expected = _masked_scores(tree, root, slab[-1], wu)
        tree.virtual_loss[root] -= 1.0
        game = SyntheticTreeGame(fanout=len(slab[0]), depth_limit=3)
        leaf, depth = tree.select_to_leaf(root, game, slab[-1], wu)
        assert depth == 1
        assert leaf == 1 + int(np.argmax(expected))
        assert tree.virtual_loss[leaf] == slab[2][leaf - 1] + 1.0
