"""Repo benchmark: four seeded, fixed-work workloads over the public API.

Run from the repository root:

    python3 perfbench/run.py --workload tree_gomoku15 --seed 1 --seconds 20 --trace 0

``--seconds`` sizes the fixed work (unit count = seconds x the workload's
nominal unit rate on the reference host), so the same seed and size give
exactly the same moves, samples, playouts and journal records on every
run; only time varies.

``--trace 0`` sets up the stack for ``--seed`` and times every unit with
one clock pair per top-level call.  Spread over the same run it sets a
stack up from ``SETUP_SEED`` ``SETUP_REPEATS`` times: building the
network, scheme, engine or server plus one untimed warm-up unit.  Each
set-up time is scaled to a host whose two-thread reference kernel
(``host.threaded_reference_ms``, timed on both sides of the set-up) takes
``SETUP_REF_MS``, and ``setup_s`` is the median.  The host's speed
drifts by a third within minutes, and the scaling keeps that drift out
of ``setup_s`` while work added to set-up still shows; the raw median
is printed beside it.  The interpreter's import, the host fingerprint
and input generation are outside it, because one cold import per
process swings with the host's speed of the moment.  It prints the
end-to-end metrics; the raw wall-clock rates and percentiles are
printed beside them but not gated, because on a noisy host only
reference-normalised time is steady.  ``--trace 1`` builds an untraced
and a traced stack and alternates them unit by unit over the same
inputs; it prints the per-layer metrics from the traced stack's spans
and counters, and the tracing overhead as traced minus untraced
medians.  Spans are written to ``.perfbench_out/``.

The fixed reference kernel (``host.reference_kernel_ms``) runs between
units while the program is idle.  Every run checks its outputs; a
failed check makes the run fail.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

# a run must leave every tracked file as it found it, compiled caches too
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
#: set-up is timed on stacks built from this fixed seed: the warm-up
#: unit's work (an episode or a round of games) varies with the seed, and
#: set-up time should vary only with the program and the host
SETUP_SEED = 0
#: two-thread reference kernel time of the nominal host ``setup_s`` is
#: scaled to; about what a 2-core x86-64 VM takes
SETUP_REF_MS = 10.0


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        _fail(f"no program source under {ROOT / 'src'}; run from a repository checkout")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import host
        import workloads
    except ImportError as exc:
        _fail(f"cannot import the program: {exc}")
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        return _run(args, host, workloads, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, host, workloads, scratch: Path) -> int:
    kind = workloads.WORKLOADS[args.workload]
    fp = host.fingerprint()
    n_units = max(1, round(args.seconds * kind.units_per_second))
    units = kind.make_units(args.seed, n_units)

    def build(seed, tracer):
        if kind is workloads.ServeTcp:
            return kind(seed, tracer, scratch)
        return kind(seed, tracer)

    if args.trace == 0:
        def threaded_ref_ms() -> float:
            return statistics.median(host.threaded_reference_ms() for _ in range(3))

        def setup_s() -> tuple[float, float]:
            """One set-up: its raw time and its time scaled to the nominal host."""
            before = threaded_ref_ms()
            t0 = time.perf_counter()
            spare = build(SETUP_SEED, None)
            spare.warmup()
            elapsed = time.perf_counter() - t0
            spare.close()
            del spare
            gc.collect()  # free the spare stack here, not inside a timed unit
            after = threaded_ref_ms()
            return elapsed, elapsed * SETUP_REF_MS / ((before + after) / 2)

        # the set-ups are spread over the whole run, one before each slice
        # of the timed units, so that they sample the host's speed over
        # the same span of time as the units do
        setups, timed = [], []
        stack = build(args.seed, None)
        stack.warmup()
        try:
            for k in range(SETUP_REPEATS):
                setups.append(setup_s())
                part = units[k * len(units) // SETUP_REPEATS:
                             (k + 1) * len(units) // SETUP_REPEATS]
                timed += _time_units(host, [stack], part)[0]
            checks = stack.checks()
            counts = stack.counts()
            attempts = stack.attempts
        finally:
            stack.close()
        timings = _timings(timed)
        report = {
            "setup_s": (statistics.median(s for _, s in setups), len(setups)),
            "search_ref_ratio": (timings.pop("search_ref_ratio"), len(timed)),
            "peak_rss_mb": (host.peak_rss_mb(), 1),
        }
        extra = {name: (value, counts["moves"]) for name, value in timings.items()}
        extra["raw.setup_s"] = (statistics.median(raw for raw, _ in setups), len(setups))
    else:
        from tracing import Tracer

        tracer = Tracer()
        plain, traced = build(args.seed, None), build(args.seed, tracer)
        try:
            plain.warmup()
            traced.warmup()
            tracer.spans.clear()  # per-layer figures cover the timed units only
            timed_plain, timed_traced = _time_units(host, [plain, traced], units)
            checks = {f"untraced.{k}": v for k, v in plain.checks().items()}
            checks.update({f"traced.{k}": v for k, v in traced.checks().items()})
            counts = traced.counts()
            checks["trace_counts_match"] = plain.counts() == counts
            attempts = traced.attempts
            layers = traced.layer_metrics(sum(u["wall_s"] for u in timed_traced))
        finally:
            plain.close()
            traced.close()
        base = _timings(timed_plain)
        with_trace = _timings(timed_traced)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
        layers.update(base)
        layers.update({
            "trace.overhead_ms_p50":
                with_trace["raw.move_ms_p50"] - base["raw.move_ms_p50"],
            "trace.overhead_share":
                with_trace["search_ref_ratio"] / base["search_ref_ratio"] - 1.0,
            "host_ref_ms": statistics.median(u["ref_ms"] for u in timed_traced),
        })
        n = counts["moves"]
        report = {name: (layers.get(name, 0), n) for name in _per_layer_names()}
        extra = {}

    checks.update(_exact_count_checks(args, counts))
    checks["p95_has_ten_beyond"] = counts["moves"] * 0.05 >= 10
    ok = all(checks.values())

    attempted = sum(attempts.ops.values())
    failed = sum(attempts.failed.values()) + (0 if ok else 1)
    fp["loadavg_after"] = [round(x, 2) for x in os.getloadavg()]
    fp["host_ref_ms"] = round(statistics.median(
        u["ref_ms"] for u in (timed if args.trace == 0 else timed_traced)), 4)

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} units {len(units)}")
    print("# host " + json.dumps(fp))
    print("# counts " + json.dumps(counts))
    print("# operations " + json.dumps({"attempted": attempts.ops, "failed": attempts.failed}))
    for name, passed in checks.items():
        print(f"# check {name}: {'ok' if passed else 'FAILED'}")
    units_of = _units() | {"raw.setup_s": "s"}
    for name, (value, n) in report.items():
        print(f"{name} = {value:.6g} {units_of[name]} (n={n})")
    for name, (value, n) in extra.items():
        print(f"# {name} = {value:.6g} {units_of[name]} (n={n}, not gated)")
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, (value, _n) in report.items()},
    }))
    return 0 if ok else 1


def _time_units(host, stacks, units) -> list[list[dict]]:
    """Run every unit on every stack with the reference kernel between
    units; a unit's host reference is the mean of the kernels on either
    side of it.

    With two stacks the order alternates unit by unit (AB, BA, ...), so
    slow spells of the host fall on both sides alike.
    """
    def ref_ms(stack) -> float:
        return statistics.median(
            host.reference_kernel_ms() for _ in range(stack.ref_repeats))

    out: list[list[dict]] = [[] for _ in stacks]
    before = ref_ms(stacks[0])
    for i, unit in enumerate(units):
        order = range(len(stacks)) if i % 2 == 0 else reversed(range(len(stacks)))
        for k in order:
            latencies = _latencies(stacks[k])
            first = len(latencies)
            res = stacks[k].run_unit(unit)
            after = ref_ms(stacks[k])
            out[k].append({
                "ref_ms": (before + after) / 2, "wall_s": res.wall_s,
                "moves": res.moves, "latencies_ms": latencies[first:],
            })
            before = after
    return out


def _latencies(stack) -> list[float]:
    recorder = getattr(stack, "recorder", None)
    return recorder.latencies_ms if recorder is not None else stack.rtt_ms


def _timings(timed) -> dict:
    """Reference-normalised and raw wall-clock timings of the units.

    A ratio divides a time by the reference kernel's time around the same
    unit, so a host running slow for a while slows both sides alike.  Only
    ``search_ref_ratio`` is steady enough on a noisy host to gate a change;
    the percentiles are reported beside it.
    """
    import numpy as np

    raw = [lat for u in timed for lat in u["latencies_ms"]]
    norm = [lat / u["ref_ms"] for u in timed for lat in u["latencies_ms"]]
    wall = sum(u["wall_s"] for u in timed)
    moves = sum(u["moves"] for u in timed)
    return {
        "search_ref_ratio": statistics.median(
            u["wall_s"] * 1e3 / u["moves"] / u["ref_ms"] for u in timed),
        "move_p50_ref_ratio": float(np.percentile(norm, 50)),
        "move_p95_ref_ratio": float(np.percentile(norm, 95)),
        "raw.moves_per_s": moves / wall,
        "raw.move_ms_p50": float(np.percentile(raw, 50)),
        "raw.move_ms_p95": float(np.percentile(raw, 95)),
    }


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _units() -> dict:
    spec = _spec()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _per_layer_names() -> list[str]:
    return [m["name"] for m in _spec()["per_layer"]]


def _exact_count_checks(args, counts: dict) -> dict:
    """Counts recorded for a seed and size must repeat exactly."""
    expected = json.loads((HERE / "expected.json").read_text())
    recorded = expected["workloads"][args.workload]["counts"].get(str(args.seed))
    if recorded is None or args.seconds != expected["seconds"]:
        return {}
    return {"exact_counts_match_recorded": recorded == counts}


if __name__ == "__main__":
    sys.exit(main())
