"""Tests for shared utilities (rng, table formatting)."""

import numpy as np
import pytest

from repro.utils.logging import format_table
from repro.utils.rng import RngMixin, new_rng, spawn_rngs


class TestRng:
    def test_new_rng_from_int(self):
        a, b = new_rng(5), new_rng(5)
        assert a.random() == b.random()

    def test_new_rng_passthrough(self):
        g = np.random.default_rng(0)
        assert new_rng(g) is g

    def test_spawn_independent(self):
        children = spawn_rngs(new_rng(1), 3)
        vals = [c.random() for c in children]
        assert len(set(vals)) == 3

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(new_rng(0), -1)

    def test_mixin_lazy(self):
        class Thing(RngMixin):
            pass

        t = Thing()
        assert isinstance(t.rng, np.random.Generator)
        t.rng = 7
        assert t.rng.random() == new_rng(7).random()


class TestFormatTable:
    def test_format_table(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}]
        text = format_table(rows)
        assert "a" in text and "b" in text
        assert "10" in text

    def test_format_empty(self):
        assert format_table([]) == "(empty)"
