"""The golden check the benchmark suite applies to the E1-E11 tables."""

import json

import pytest

from benchmarks.conftest import GOLDEN_DIR, GOLDEN_NAME, golden_mismatches

GOLDEN = sorted(p.stem for p in GOLDEN_DIR.glob("*.json") if GOLDEN_NAME.match(p.stem))


def tracked(name):
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def test_all_eleven_tables_are_checked():
    assert len(GOLDEN) == 11
    assert {name.split("_")[0] for name in GOLDEN} == {f"E{i}" for i in range(1, 12)}


@pytest.mark.parametrize("name", GOLDEN)
def test_tracked_table_matches_itself(name):
    assert golden_mismatches(name, tracked(name)) == []


def test_changed_cell_names_its_row():
    rows = tracked("E2_fig3_batch_size")
    key = next(iter(rows[1]))
    rows[1][key] = "changed"
    assert golden_mismatches("E2_fig3_batch_size", rows) == [1]


def test_missing_and_extra_rows_differ():
    rows = tracked("E3_fig4_latency_cpu")
    assert golden_mismatches("E3_fig4_latency_cpu", rows[:-1]) == [len(rows) - 1]
    assert golden_mismatches("E3_fig4_latency_cpu", rows + [rows[0]]) == [len(rows)]


def test_column_order_counts():
    rows = tracked("E7_speedup_summary")
    rows[0] = dict(reversed(list(rows[0].items())))
    assert golden_mismatches("E7_speedup_summary", rows) == [0]


def test_fig7_checks_per_iter_us_only():
    rows = tracked("E6_fig7_loss")
    for row in rows:
        for key in row:
            if key not in ("N", "per_iter_us"):
                row[key] = "another BLAS"
    assert golden_mismatches("E6_fig7_loss", rows) == []
    rows[2]["per_iter_us"] += 0.01
    assert golden_mismatches("E6_fig7_loss", rows) == [2]
