"""Shared utilities: seeded RNG plumbing, clocks, logging."""

from repro.utils.clock import WALL_CLOCK, Clock, VirtualClock, WallClock
from repro.utils.rng import RngMixin, new_rng, spawn_rngs

__all__ = [
    "Clock",
    "RngMixin",
    "VirtualClock",
    "WALL_CLOCK",
    "WallClock",
    "new_rng",
    "spawn_rngs",
]
