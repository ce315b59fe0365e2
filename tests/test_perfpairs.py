"""``tools/perfpairs.py`` on canned perfbench output: no run is started."""

import argparse
import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfpairs", ROOT / "tools" / "perfpairs.py")
perfpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfpairs)

HOST = {"nproc": 2, "loadavg": [0.5, 0.5, 0.5], "python": "3.11.7",
        "loadavg_after": [0.6, 0.5, 0.5], "host_ref_ms": 1.9}


def canned(metrics: dict, correct: bool = True, failed: int = 0) -> str:
    """Standard output shaped like ``perfbench/run.py``'s."""
    return "\n".join([
        "# workload selfplay_c4 seed 1 seconds 20 trace 0 units 36",
        "# host " + json.dumps(HOST),
        "# check exact_counts_match_recorded: ok",
        *(f"{name} = {value:.6g} x (n=1)" for name, value in metrics.items()),
        json.dumps({"correct": correct, "attempted": 10, "failed": failed,
                    "metrics": {n: {"value": v, "unit": "x"} for n, v in metrics.items()}}),
    ]) + "\n"


class FakeRunner:
    """Answers each run from a per-side metric table, recording the calls."""

    def __init__(self, tables: dict) -> None:
        self.tables = tables
        self.calls: list[tuple] = []

    def __call__(self, checkout, workload, seed, seconds, trace):
        side = Path(checkout).name
        self.calls.append((side, workload, seed, seconds, trace))
        k = sum(1 for c in self.calls if c[0] == side and c[4] == trace)
        return canned({name: value(k) for name, value in self.tables[side, trace].items()})


@pytest.fixture
def checkouts(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / side / "BENCHMARK.json")
    return tmp_path


def _args(checkouts, **kw):
    base = dict(parent=str(checkouts / "parent"), change=str(checkouts / "change"),
                workload="selfplay_c4", pairs=["1:4"], traced=[],
                label="a change", parent_commit="abc1234", bench=None)
    return argparse.Namespace(**{**base, **kw})


def test_parse_run_reads_metrics_and_host():
    run = perfpairs.parse_run(canned({"search_ref_ratio": 3.1, "setup_s": 0.2}))
    assert run["metrics"] == {"search_ref_ratio": 3.1, "setup_s": 0.2}
    assert run["host"] == HOST


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 1)])
def test_parse_run_refuses_an_incorrect_run(correct, failed):
    with pytest.raises(perfpairs.RunFailed):
        perfpairs.parse_run(canned({"search_ref_ratio": 3.1}, correct, failed))


def test_pairs_alternate_and_summarise(checkouts):
    runner = FakeRunner({
        ("parent", 0): {"search_ref_ratio": lambda k: 3.0 + k / 10, "peak_rss_mb": lambda k: 56.0},
        ("change", 0): {"search_ref_ratio": lambda k: 2.8 + k / 10, "peak_rss_mb": lambda k: 56.0},
    })
    entry = perfpairs.measure(_args(checkouts), runner, log=lambda _: None)
    sides = [c[0] for c in runner.calls]
    assert sides == ["parent", "change", "change", "parent"] * 2
    assert {c[1:] for c in runner.calls} == {("selfplay_c4", 1, 20, 0)}
    ratio = entry["seeds"]["1"]["metrics"]["search_ref_ratio"]
    assert ratio["parent"] == {"median": 3.25, "q1": 3.175, "q3": 3.325,
                               "runs": [3.1, 3.2, 3.3, 3.4]}
    assert ratio["change"]["median"] == 3.05
    assert ratio["change_lower_in_pairs"] == "4/4"
    # equal values are not a win
    assert entry["seeds"]["1"]["metrics"]["peak_rss_mb"]["change_lower_in_pairs"] == "0/4"
    assert entry["seeds"]["1"]["pairs"] == 4 and entry["seeds"]["1"]["all_correct"]
    assert entry["host"] == {"nproc": 2, "loadavg": [0.5, 0.5, 0.5], "python": "3.11.7"}
    assert entry["parent_commit"] == "abc1234" and entry["run_seconds"] == 20


def test_traced_pairs_divide_times_by_the_runs_host_reference(checkouts):
    layers = {"raw.move_ms_p50": lambda k: 9.0, "nn.infer.us_per_row": lambda k: 150.0,
              "nn.train.ms_per_step": lambda k: 0.0,
              "serving.cache.hit_rate": lambda k: 0.34, "raw.moves_per_s": lambda k: 160.0}
    runner = FakeRunner({
        ("parent", 1): {**layers, "host_ref_ms": lambda k: 2.0},
        ("change", 1): {**layers, "raw.move_ms_p50": lambda k: 8.0,
                        "host_ref_ms": lambda k: 1.6},
    })
    logged: list[str] = []
    entry = perfpairs.measure(_args(checkouts, pairs=[], traced=["1:2"]), runner,
                              log=logged.append)
    traced = entry["traced_seed_1"]["metrics"]
    assert traced["raw.move_ms_p50/host_ref_ms"]["parent"]["median"] == 4.5
    assert traced["raw.move_ms_p50/host_ref_ms"]["change"]["median"] == 5.0
    assert traced["nn.infer.us_per_row/host_ref_ms"]["change"]["median"] == 93.75
    # shares, rates and counts are not times
    assert "serving.cache.hit_rate/host_ref_ms" not in traced
    assert "raw.moves_per_s/host_ref_ms" not in traced
    # a layer the workload does not run reads 0 on every run, and is left out
    assert not any(name.startswith("nn.train.") for name in traced)
    # higher-is-better metrics count the pairs the change was higher in
    assert traced["raw.moves_per_s"]["change_higher_in_pairs"] == "0/2"
    assert any("raw.move_ms_p50/host_ref_ms = 5" in line for line in logged)
    assert entry["seeds"] == {}


def test_a_failed_run_stops_the_tool_and_writes_nothing(checkouts, monkeypatch):
    bench = checkouts / "BENCH_selfplay_c4.json"

    def runner(checkout, *_):
        return canned({"search_ref_ratio": 3.0}, correct=Path(checkout).name == "parent")

    monkeypatch.setattr(perfpairs, "run_perfbench", runner)
    argv = ["--parent", str(checkouts / "parent"), "--change", str(checkouts / "change"),
            "--workload", "selfplay_c4", "--pairs", "1:2", "--bench", str(bench)]
    assert perfpairs.main(argv) == 1
    assert not bench.exists()


def test_entries_append_to_the_bench_file(checkouts):
    bench = checkouts / "BENCH_selfplay_c4.json"
    perfpairs.append_entry(bench, "selfplay_c4", {"change": "first", "run_seconds": 20})
    perfpairs.append_entry(bench, "selfplay_c4", {"change": "second", "run_seconds": 20})
    doc = json.loads(bench.read_text())
    assert doc["workload"] == "selfplay_c4"
    assert "--workload selfplay_c4 --seed <seed> --seconds 20 " in doc["command"]
    assert [e["change"] for e in doc["entries"]] == ["first", "second"]
