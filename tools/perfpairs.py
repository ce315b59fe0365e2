"""Alternating parent/change perfbench pairs, summarised into BENCH_*.json.

Run from any directory, with two checkouts of the repository: the parent
commit and the change.  Each pair runs ``perfbench/run.py`` once in each
checkout, parent first on even pairs and change first on odd ones, so a
slow spell of the host falls on both sides alike:

    python3 tools/perfpairs.py --parent ../parent --change . \\
        --workload selfplay_c4 --pairs 1:10 2027:6 --traced 1:4 \\
        --label "what the change does" --bench BENCH_selfplay_c4.json

Every run lasts the benchmark's ``run_seconds`` (``BENCHMARK.json``).
``--pairs SEED:N`` runs N untraced (``--trace 0``) pairs at SEED and
summarises the end-to-end metrics; ``--traced SEED:N`` runs N traced
(``--trace 1``) pairs and summarises the per-layer metrics, each
time-valued one also divided by its run's ``host_ref_ms``: the raw
per-layer times move with the host's speed, which the end-to-end
metrics already divide out.
Every run must print ``correct: true`` with 0 failed operations, or the
tool stops with status 1 and writes nothing.  With ``--bench`` it
appends one entry to that file (creating it if missing): per seed and
metric the median, quartiles and sorted runs of each side, the number of
pairs the change won, and the first run's host fingerprint.

Standard library only, so it runs under any interpreter that can run
perfbench itself.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

#: per-layer units that hold a time, divided by ``host_ref_ms`` when traced
TIME_UNITS = ("s", "ms", "us")
#: fingerprint fields that vary per run rather than per host
PER_RUN_HOST_FIELDS = ("loadavg_after", "host_ref_ms")
SIDES = ("parent", "change")

#: ``runner(checkout, workload, seed, seconds, trace) -> stdout``
Runner = Callable[[Path, str, int, float, int], str]


class RunFailed(RuntimeError):
    """A perfbench run exited non-zero, or was not correct with 0 failed."""


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float,
                  trace: int) -> str:
    """Run one perfbench run in *checkout*; returns its standard output."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-5:]
        raise RunFailed(f"{checkout}: exit {proc.returncode}: " + " | ".join(tail))
    return proc.stdout


def parse_run(stdout: str) -> dict:
    """``{"host": fingerprint, "metrics": {name: value}}`` of one run.

    Raises :class:`RunFailed` unless the last line says ``correct: true``
    with 0 failed.
    """
    lines = stdout.strip().splitlines()
    if not lines:
        raise RunFailed("empty perfbench output")
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        raise RunFailed(
            f"run not correct: correct={result.get('correct')} "
            f"failed={result.get('failed')}")
    host = {}
    for line in lines:
        if line.startswith("# host "):
            host = json.loads(line[len("# host "):])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"host": host, "metrics": metrics}


def normalise(metrics: dict, units: dict) -> dict:
    """Each time-valued metric divided by the run's ``host_ref_ms``, under
    ``<name>/host_ref_ms``."""
    ref = metrics.get("host_ref_ms")
    if not ref:
        return {}
    return {f"{name}/host_ref_ms": value / ref for name, value in metrics.items()
            if name != "host_ref_ms" and units.get(name) in TIME_UNITS}


def side_summary(runs: list[float]) -> dict:
    """Median, quartiles (inclusive method) and the sorted runs."""
    ordered = sorted(runs)
    if len(ordered) > 1:
        q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        q1 = q3 = ordered[0]
    return {"median": round(statistics.median(ordered), 4),
            "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(x, 4) for x in ordered]}


def summarise(pairs: list[dict], better: dict) -> dict:
    """Per metric: both sides' summaries and the pairs the change won,
    as ``change_lower_in_pairs`` or ``change_higher_in_pairs``.

    *pairs* holds ``{"parent": metrics, "change": metrics}`` dicts;
    *better* maps a metric to ``"lower"`` or ``"higher"`` (default lower).
    """
    out = {}
    for name in pairs[0]["change"]:
        values = [p[side].get(name) for p in pairs for side in SIDES]
        if None in values or not any(values):  # absent, or not measured here
            continue
        way = better.get(name.split("/")[0], "lower")
        sign = -1.0 if way == "higher" else 1.0
        won = sum(sign * p["change"][name] < sign * p["parent"][name] for p in pairs)
        out[name] = {side: side_summary([p[side][name] for p in pairs])
                     for side in SIDES}
        out[name][f"change_{way}_in_pairs"] = f"{won}/{len(pairs)}"
    return out


def run_pairs(checkouts: dict, workload: str, seed: int, n: int, seconds: float,
              trace: int, units: dict, runner: Runner,
              log=print) -> tuple[list[dict], dict]:
    """Run *n* alternating pairs; returns ``(pairs, first host fingerprint)``."""
    pairs, host = [], {}
    for i in range(n):
        pair = {}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            run = parse_run(runner(checkouts[side], workload, seed, seconds, trace))
            host = host or run["host"]
            metrics = run["metrics"]
            if trace:
                ratios = normalise(metrics, units)
                for name, value in sorted(ratios.items()):
                    log(f"  seed {seed} pair {i} {side}: {name} = {value:.6g}")
                metrics = {**metrics, **ratios}
            pair[side] = metrics
            headline = "move_p50_ref_ratio" if trace else "search_ref_ratio"
            log(f"seed {seed} pair {i} {side}: {headline} = {metrics.get(headline)}")
        pairs.append(pair)
    return pairs, host


def parse_counts(specs: list[str]) -> dict[int, int]:
    """``["1:10", "2027:6"]`` -> ``{1: 10, 2027: 6}``."""
    out = {}
    for spec in specs:
        seed, _, n = spec.partition(":")
        out[int(seed)] = int(n)
    return out


def append_entry(bench: Path, workload: str, entry: dict) -> None:
    """Append *entry* to the ``BENCH_<workload>.json`` file *bench*."""
    if bench.exists():
        doc = json.loads(bench.read_text())
    else:
        doc = {
            "workload": workload,
            "command": f"python3 perfbench/run.py --workload {workload} "
                       f"--seed <seed> --seconds {entry['run_seconds']} --trace 0",
            "note": "one entry per change that claims a gain on this workload: "
                    "medians and quartiles of alternating parent/change pairs, "
                    f"{entry['run_seconds']} s runs, each side run from its own checkout; "
                    "traced_seed_<seed> holds --trace 1 runs",
            "entries": [],
        }
    doc["entries"].append(entry)
    bench.write_text(json.dumps(doc, indent=2) + "\n")


def _git_head(checkout: Path) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def measure(args, runner: Runner | None = None, log=print) -> dict:
    """Run every requested pair and build the ``BENCH_*.json`` entry."""
    runner = runner or run_perfbench
    checkouts = {"parent": Path(args.parent), "change": Path(args.change)}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics_spec = spec["end_to_end"] + spec["per_layer"]
    units = {m["name"]: m["unit"] for m in metrics_spec}
    better = {m["name"]: m["better"] for m in metrics_spec}
    parent_commit = args.parent_commit or _git_head(checkouts["parent"])
    seconds = spec["run_seconds"]
    entry = {"change": args.label, "parent_commit": parent_commit,
             "date": datetime.date.today().isoformat(), "host": {},
             "run_seconds": seconds, "seeds": {}}
    for trace, counts in ((0, parse_counts(args.pairs)),
                          (1, parse_counts(args.traced))):
        for seed, n in counts.items():
            pairs, host = run_pairs(checkouts, args.workload, seed, n, seconds,
                                    trace, units, runner, log)
            entry["host"] = entry["host"] or {
                k: v for k, v in host.items() if k not in PER_RUN_HOST_FIELDS}
            summary = {"pairs": n, "all_correct": True,
                       "metrics": summarise(pairs, better)}
            if trace:
                entry[f"traced_seed_{seed}"] = summary
            else:
                entry["seeds"][str(seed)] = summary
    return entry


def _report(entry: dict, log=print) -> None:
    groups = [(f"seed {s}", v) for s, v in entry["seeds"].items()]
    groups += [(k, v) for k, v in entry.items() if k.startswith("traced_seed_")]
    for title, group in groups:
        log(f"== {title}, {group['pairs']} pairs")
        for name, m in group["metrics"].items():
            p, c = m["parent"], m["change"]
            won = next(v for k, v in m.items() if k.endswith("_in_pairs"))
            log(f"{name}: {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] -> "
                f"{c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}], change better "
                f"in {won}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", nargs="*", default=[], metavar="SEED:N",
                    help="untraced pairs per seed")
    ap.add_argument("--traced", nargs="*", default=[], metavar="SEED:N",
                    help="traced (--trace 1) pairs per seed")
    ap.add_argument("--label", default="", help="what the change does")
    ap.add_argument("--parent-commit", help="recorded parent commit (default: "
                    "the parent checkout's git HEAD)")
    ap.add_argument("--bench", help="BENCH_<workload>.json to append the entry to")
    args = ap.parse_args(argv)
    try:
        entry = measure(args)
    except RunFailed as err:
        print(f"perfpairs: {err}", file=sys.stderr)
        return 1
    _report(entry)
    if args.bench:
        append_entry(Path(args.bench), args.workload, entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
