"""Runtime adaptive switching (extension of the paper's workflow).

The paper selects the parallel scheme once, at compile time, from
profiled application parameters (tree fanout, depth).  Those parameters
*drift during play*: a Gomoku board fills up, the fanout shrinks from 225
toward 1, and the in-tree/inference balance moves.  This module extends
the design-configuration workflow to **runtime**: re-profile the current
position every few moves, re-evaluate Equations 3-6, and switch the
underlying scheme between moves when the predicted winner flips.

Switching is only ever done between moves (never mid-search), so the
algorithmic guarantees of each scheme are untouched -- this is exactly
the "program template" property of Section 3.2 exercised dynamically.
"""

from __future__ import annotations

import numpy as np

from repro.games.base import Game
from repro.mcts import ArrayNodeView
from repro.mcts.evaluation import Evaluator
from repro.parallel.base import ParallelScheme, SchemeName
from repro.parallel.local_tree import LocalTreeMCTS
from repro.parallel.shared_tree import SharedTreeMCTS
from repro.perfmodel.adaptive import AdaptiveConfig, DesignConfigurator
from repro.perfmodel.profiling import profile_virtual
from repro.simulator.hardware import PlatformSpec
from repro.utils.rng import new_rng

__all__ = ["AutoSwitchingScheme"]


class AutoSwitchingScheme(ParallelScheme):
    """Re-profiles and re-selects the parallel scheme as the game evolves.

    Parameters
    ----------
    evaluator : leaf evaluator shared by whichever scheme is active.
    platform : hardware model used for re-profiling and the Eq. 3-6
        predictions.
    reprofile_every : moves between re-profiling passes (1 = every move).
    profile_playouts : playout budget of each profiling pass (it runs a
        serial search on a copy of the position; keep it modest).
    """

    def __init__(
        self,
        evaluator: Evaluator,
        platform: PlatformSpec,
        num_workers: int,
        use_gpu: bool = False,
        reprofile_every: int = 4,
        profile_playouts: int = 200,
        c_puct: float = 5.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if reprofile_every < 1:
            raise ValueError("reprofile_every must be >= 1")
        if profile_playouts < 1:
            raise ValueError("profile_playouts must be >= 1")
        if use_gpu and platform.gpu is None:
            raise ValueError("use_gpu=True requires a GPU spec")
        self.evaluator = evaluator
        self.platform = platform
        self.num_workers = num_workers
        self.use_gpu = use_gpu
        self.reprofile_every = reprofile_every
        self.profile_playouts = profile_playouts
        self.c_puct = c_puct
        self.rng = new_rng(rng)
        self._moves_seen = 0
        self._active: LocalTreeMCTS | None = None
        self._active_config: AdaptiveConfig | None = None
        #: (move_index, scheme, batch_size) history of every (re)selection;
        #: batch_size is the B the built scheme runs, not the configurator's
        self.decisions: list[tuple[int, str, int]] = []

    # -- scheme management -----------------------------------------------------
    @property
    def name(self) -> SchemeName:  # type: ignore[override]
        if self._active_config is not None:
            return self._active_config.scheme
        return SchemeName.LOCAL_TREE

    @property
    def active_config(self) -> AdaptiveConfig | None:
        return self._active_config

    def _reconfigure(self, game: Game) -> None:
        profile = profile_virtual(
            game, self.platform, num_playouts=self.profile_playouts,
            c_puct=self.c_puct,
        )
        configurator = DesignConfigurator(profile, self.platform.gpu)
        config = configurator.configure(self.num_workers, self.use_gpu)
        batch = self._batch_size(config)
        active = self._active
        if (
            active is None
            or active.name != config.scheme
            or active.batch_size != batch
        ):
            self._active = self._build(config, batch)
            self.decisions.append((self._moves_seen, config.scheme.value, batch))
        self._active_config = config

    def _batch_size(self, config: AdaptiveConfig) -> int:
        """B of the scheme *config* selects: shared-tree evaluates its N
        leaves as one batch; local-tree takes the configured B on a GPU
        and evaluates each leaf alone on the CPU."""
        if config.scheme == SchemeName.SHARED_TREE:
            return self.num_workers
        batch = config.batch_size if self.use_gpu else 1
        return max(1, min(batch, self.num_workers))

    def _build(self, config: AdaptiveConfig, batch: int) -> LocalTreeMCTS:
        if config.scheme == SchemeName.SHARED_TREE:
            return SharedTreeMCTS(
                self.evaluator,
                num_workers=self.num_workers,
                c_puct=self.c_puct,
                rng=self.rng,
            )
        return LocalTreeMCTS(
            self.evaluator,
            num_workers=self.num_workers,
            batch_size=batch,
            c_puct=self.c_puct,
            rng=self.rng,
        )

    # -- ParallelScheme interface ------------------------------------------------
    def search(self, game: Game, num_playouts: int) -> ArrayNodeView:
        if self._active is None or self._moves_seen % self.reprofile_every == 0:
            self._reconfigure(game)
        assert self._active is not None
        root = self._active.search(game, num_playouts)
        self._moves_seen += 1
        return root
