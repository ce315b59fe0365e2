"""Root-parallel MCTS baseline [Kato & Takeuchi 2010] (Section 2.2).

N workers grow completely independent trees from the same root state; the
action prior is the sum of root visit counts across the ensemble.  No
sharing means no synchronisation, but -- as the paper notes -- "still lets
multiple workers visit repetitive states".

Each worker is the one search program
(:meth:`~repro.mcts.serial.SerialMCTS.search_program`) at one leaf in
flight, stepped on the caller's thread by the master round
(:class:`~repro.mcts.master.Master`, fused, no cache): each round every
live worker advances to its next one-row flush, and the round's leaves
go to the evaluator as one ``evaluate_batch``; a call that raises ends
the search.  The workers' trees are independent, so with an evaluator
whose rows do not depend on the batch they arrive in, each worker's
search equals a serial search run alone.  The fused network plan's rows
can differ with the batch in the last float32 bits, so under
:class:`~repro.mcts.evaluation.NetworkEvaluator` the value sums match
only to that rounding (and a near-tie in visits could turn).
"""

from __future__ import annotations

import numpy as np

from repro.games.base import Game
from repro.mcts.arraytree import ArrayNodeView, ArrayTree
from repro.mcts.budget import SearchBudget, as_budget
from repro.mcts.evaluation import Evaluator
from repro.mcts.master import Master
from repro.mcts.serial import SerialMCTS
from repro.parallel.base import ParallelScheme, SchemeName
from repro.utils.rng import new_rng, spawn_rngs

__all__ = ["RootParallelMCTS"]


class RootParallelMCTS(ParallelScheme):
    """Ensemble of independent serial searches with aggregated statistics.

    ``num_playouts`` is divided evenly over the workers (remainder spread
    over the first few), so the total in-tree work matches the other
    schemes at equal playout budget.
    """

    name = SchemeName.ROOT_PARALLEL

    def __init__(
        self,
        evaluator: Evaluator,
        num_workers: int = 4,
        c_puct: float = 5.0,
        dirichlet_alpha: float = 0.3,
        dirichlet_epsilon: float = 0.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.evaluator = evaluator
        self.num_workers = num_workers
        self.c_puct = c_puct
        self.dirichlet_alpha = dirichlet_alpha
        self.dirichlet_epsilon = dirichlet_epsilon
        self.rng = new_rng(rng)
        #: roots of the last search, one per worker (exposed for analysis)
        self.last_roots: list[ArrayNodeView] = []

    def _worker_budgets(self, num_playouts: int) -> list[int]:
        base, extra = divmod(num_playouts, self.num_workers)
        budgets = [base + (1 if i < extra else 0) for i in range(self.num_workers)]
        return [b for b in budgets if b > 0]

    def search(
        self, game: Game, num_playouts: "int | SearchBudget"
    ) -> ArrayNodeView:
        """Runs the ensemble and returns a *merged* root whose children
        carry the aggregated visit counts (Q is visit-weighted)."""
        budget = as_budget(num_playouts)
        if game.is_terminal:
            raise ValueError("cannot search from a terminal state")
        if budget.num_playouts is not None:
            budgets: list[int | None] = list(
                self._worker_budgets(budget.num_playouts)
            )
        else:  # time-only budget: every worker searches until the deadline
            budgets = [None] * self.num_workers
        rngs = spawn_rngs(self.rng, len(budgets))
        # one absolute deadline shared by the whole ensemble: each worker
        # gets a per-worker count target but races the same clock
        clock = budget.start()
        programs = [
            SerialMCTS(
                self.evaluator,
                c_puct=self.c_puct,
                dirichlet_alpha=self.dirichlet_alpha,
                dirichlet_epsilon=self.dirichlet_epsilon,
                rng=worker_rng,
            ).search_program(game, budget, clock=clock.split(target))
            for target, worker_rng in zip(budgets, rngs)
        ]
        master = Master(self.evaluator, fuse=True)
        for program in programs:
            master.admit(program)
        roots: dict = {}  # program -> its root
        while len(master):
            for program, root, error in master.step_round():
                if error is not None:
                    raise error
                roots[program] = root
        self.last_roots = [roots[program] for program in programs]
        return self._merge_roots(self.last_roots)

    @staticmethod
    def _merge_roots(roots: list[ArrayNodeView]) -> ArrayNodeView:
        """One root over the sorted union of the workers' root actions:
        each child takes the prior of the first root holding its action
        and the summed visits and value sums of all of them."""
        stats: dict[int, list] = {}  # action -> [prior, visits, value sum]
        for root in roots:
            for action, child in root.children.items():
                entry = stats.setdefault(action, [child.prior, 0, 0.0])
                entry[1] += child.visit_count
                entry[2] += child.value_sum
        actions = sorted(stats)
        tree = ArrayTree(capacity=1 + len(actions))
        merged = ArrayNodeView(tree, tree.new_root())
        merged.visit_count = sum(root.visit_count for root in roots)
        priors = np.array([stats[a][0] for a in actions], dtype=np.float64)
        tree.expand(merged.index, np.array(actions, dtype=np.int64), priors)
        # the view setters keep the cached q / n1 columns exact
        for child in merged.children.values():
            _, child.visit_count, child.value_sum = stats[child.action]
        return merged
