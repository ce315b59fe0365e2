"""Virtual synchronisation primitives for the discrete-event engine.

These mirror the real primitives the paper's implementation uses --
per-node mutexes (shared tree) and FIFO communication pipes (local tree's
master/worker channels) -- but block *virtual* time, not the interpreter.
All state transitions happen inside :class:`repro.simulator.engine.
SimEngine`; these classes are passive containers.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.engine import _Task

__all__ = ["SimLock", "SimFIFO", "SimFuture"]


class SimLock:
    """Mutex with a FIFO wait queue; tracks contention for the metrics."""

    __slots__ = ("name", "holder", "waiters", "acquisitions", "contended")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.holder: "_Task | None" = None
        self.waiters: deque["_Task"] = deque()
        self.acquisitions = 0
        self.contended = 0

    @property
    def locked(self) -> bool:
        return self.holder is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimLock({self.name!r}, locked={self.locked}, waiting={len(self.waiters)})"


class SimFIFO:
    """Unbounded FIFO channel (the local-tree communication pipe)."""

    __slots__ = ("name", "items", "getters")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.items: deque[Any] = deque()
        self.getters: deque["_Task"] = deque()

    def __len__(self) -> int:
        return len(self.items)


class SimFuture:
    """One-shot result container; tasks block on it via ``Wait``."""

    __slots__ = ("done", "value", "waiters")

    def __init__(self) -> None:
        self.done = False
        self.value: Any = None
        self.waiters: list["_Task"] = []
