"""Evaluation-bus scenarios on the virtual clock (``simtime`` marker).

With ``evalbus=True`` the scenario's gateway runs the cross-session bus
in **inline** mode (on a virtual clock every evaluation flushes at once: a
real-time wait would desynchronise from the simulated timeline), and
every scripted search pays the ``bus_linger_ms`` surcharge the bus
would cost a leaf waiting for batch-mates.  The properties pinned here:

- same spec, same transcript, bit for bit -- the bus adds no
  nondeterminism to the harness;
- ``evalbus=False`` (the default) reproduces the exact pre-bus
  transcripts, so every historical scenario stays a regression anchor;
- the surcharge is visible: bus-on latencies dominate bus-off ones for
  the same schedule, and deadline misses can only move one way.
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

    def test_linger_surcharge_is_visible_and_one_sided(self):
        """Same schedule with and without the bus: every served move's
        latency grows by at least the linger surcharge (never shrinks),
        so misses can only appear, never vanish."""
        kwargs = dict(
            seed=31,
            sessions=40,
            arrival_window_s=200.0,
            deadline_ms=(60.0, 120.0),
            service_time_ms=(5.0, 20.0),
        )
        off = ScenarioRunner(ScenarioSpec(**kwargs)).run()
        on = ScenarioRunner(
            ScenarioSpec(**kwargs, evalbus=True, bus_linger_ms=8.0)
        ).run()

        def latencies(result):
            return {
                (e[1], e[4]): e[5] for e in result.events if e[2] == "move"
            }

        lat_off, lat_on = latencies(off), latencies(on)
        shared = set(lat_off) & set(lat_on)
        assert shared, "schedules diverged entirely"
        assert all(lat_on[k] >= lat_off[k] + 7.9 for k in shared)
        assert on.stats.deadline_misses >= off.stats.deadline_misses
