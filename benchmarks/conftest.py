"""Shared fixtures for the figure-reproduction benchmarks.

Every benchmark regenerates one of the paper's evaluation artifacts
(Figures 3-7 plus the Section-2.1 profiling claim and the Section-5
headline speedups) on the simulated paper platform.  Results are printed
AND written to the git-ignored ``benchmarks/last_run/`` as both a
rendered table and JSON, so a test run never modifies a tracked file.
The tracked tables in ``benchmarks/out/`` change only when they are
refreshed on purpose, by copying a run's tables over them (see README).

The virtual-time figure tables (E1-E11) are deterministic, so at the
default budget ``emit`` also checks each one against its tracked copy
and fails the test, naming the rows that differ, when they part.  E6's
loss columns come from numpy training and may move with the BLAS build,
so only its ``per_iter_us`` column is checked.

Budget note: the paper uses 1600 playouts per move.  The default here is
400 to keep the suite interactive; set ``REPRO_FULL_PLAYOUTS=1`` in the
environment to run the paper's full budget (the shapes are unchanged, the
absolute virtual times scale).
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

from repro.games import Gomoku
from repro.mcts.evaluation import UniformEvaluator
from repro.simulator import paper_platform
from repro.utils.logging import format_table

OUT_DIR = Path(__file__).parent / "last_run"
GOLDEN_DIR = Path(__file__).parent / "out"

#: the deterministic virtual-time tables, E1-E11
GOLDEN_NAME = re.compile(r"E([1-9]|1[01])_")
#: tables checked on these columns only
GOLDEN_COLUMNS = {"E6_fig7_loss": ("per_iter_us",)}

#: the paper's per-move search budget (Section 5.1) or the fast default
PLAYOUTS = 1600 if os.environ.get("REPRO_FULL_PLAYOUTS") else 400


@pytest.fixture(scope="session")
def platform():
    return paper_platform()


@pytest.fixture(scope="session")
def gomoku():
    """The paper's benchmark: Gomoku 15x15, five-in-a-row."""
    return Gomoku(15, 5)


@pytest.fixture(scope="session")
def evaluator():
    """Deterministic cheap evaluator: the DNN's *cost* is modelled by the
    platform spec, so its Python-side compute is irrelevant to timing."""
    return UniformEvaluator()


@pytest.fixture(scope="session")
def emit():
    """emit(name, rows, note) -> prints and persists a result table."""
    OUT_DIR.mkdir(exist_ok=True)

    def _emit(name: str, rows: list[dict], note: str = "") -> None:
        table = format_table(rows)
        header = f"== {name} (playouts/move = {PLAYOUTS}) =="
        text = f"{header}\n{note}\n{table}\n" if note else f"{header}\n{table}\n"
        print("\n" + text)
        (OUT_DIR / f"{name}.txt").write_text(text)
        (OUT_DIR / f"{name}.json").write_text(json.dumps(rows, indent=2, default=str))
        if PLAYOUTS == 400 and GOLDEN_NAME.match(name):
            differ = golden_mismatches(name, rows)
            if differ:
                pytest.fail(
                    f"{name} differs from benchmarks/out/{name}.json in rows {differ}"
                )

    return _emit


def golden_mismatches(name: str, rows: list[dict]) -> list[int]:
    """Indices of the rows of *rows* that differ from the tracked table
    *name* (key order included), after a JSON round trip; a row present
    on one side only counts as differing."""
    expected = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    got = json.loads(json.dumps(rows, default=str))
    columns = GOLDEN_COLUMNS.get(name)
    if columns is not None:
        expected = [{c: row.get(c) for c in columns} for row in expected]
        got = [{c: row.get(c) for c in columns} for row in got]
    return [
        i
        for i in range(max(len(got), len(expected)))
        if i >= len(got)
        or i >= len(expected)
        or list(got[i].items()) != list(expected[i].items())
    ]
