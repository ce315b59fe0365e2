"""Evaluation-bus scenarios on the virtual clock (``simtime`` marker).

With ``evalbus=True`` the scenario's gateway counts its evaluator calls
as bus batches; each search still runs whole, inline, on the scripted
executor (on a virtual clock a real-time wait would desynchronise from
the simulated timeline).  The properties pinned here:

- same spec, same transcript, bit for bit -- the bus adds no
  nondeterminism to the harness;
- ``evalbus=False`` (the default) reproduces the exact pre-bus
  transcripts, so every historical scenario stays a regression anchor.
"""

from __future__ import annotations

import pytest

from repro.serving import ScenarioRunner, ScenarioSpec

pytestmark = pytest.mark.simtime


class TestEvalbusScenarios:
    def test_same_spec_same_transcript_with_bus(self):
        spec = ScenarioSpec(
            seed=23, sessions=120, arrival_window_s=600.0, evalbus=True
        )
        runner = ScenarioRunner(spec)
        first, second = runner.run(), runner.run()
        assert first.events == second.events
        assert first.stats == second.stats
        assert first.sim_seconds == second.sim_seconds
        assert first.stats.bus_enabled

    def test_bus_off_spec_matches_pre_bus_transcript(self):
        """The default spec must be indistinguishable from one that
        never heard of the bus: same events with and without naming the
        (default) flag, and the gateway reports the bus disabled."""
        base = ScenarioSpec(seed=5, sessions=60, arrival_window_s=300.0)
        explicit = ScenarioSpec(
            seed=5, sessions=60, arrival_window_s=300.0, evalbus=False
        )
        a = ScenarioRunner(base).run()
        b = ScenarioRunner(explicit).run()
        assert a.events == b.events
        assert not a.stats.bus_enabled
