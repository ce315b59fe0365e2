"""Result record produced by every scheme simulation."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mcts.arraytree import ArrayNodeView

__all__ = ["SimResult"]


@dataclass
class SimResult:
    """Outcome of simulating one move's tree-based search in virtual time.

    ``per_iteration`` is the paper's headline metric (Section 5.3): the
    amortized per-worker-iteration latency, total virtual move time divided
    by the number of playouts.
    """

    scheme: str
    num_workers: int
    batch_size: int
    playouts: int
    total_time: float
    root: ArrayNodeView | None = None
    lock_wait: float = 0.0
    gpu_busy: float = 0.0
    gpu_batches: int = 0
    compute_by_tag: dict[str, float] = field(default_factory=dict)
    mean_path_length: float = 0.0

    @property
    def per_iteration(self) -> float:
        return self.total_time / self.playouts if self.playouts else 0.0

    @property
    def tree_size(self) -> int:
        return self.root.subtree_size() if self.root is not None else 0

    @property
    def tree_depth(self) -> int:
        return self.root.max_depth() if self.root is not None else 0

    def summary(self) -> dict[str, float | int | str]:
        """Flat dict for table rendering in benchmarks."""
        return {
            "scheme": self.scheme,
            "N": self.num_workers,
            "B": self.batch_size,
            "playouts": self.playouts,
            "total_us": self.total_time * 1e6,
            "per_iter_us": self.per_iteration * 1e6,
            "lock_wait_us": self.lock_wait * 1e6,
            "tree_size": self.tree_size,
            "mean_path": round(self.mean_path_length, 3),
        }
