"""One workload in one fresh interpreter, one thread.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE ``probe`` sets up (import cmtop, build the fixtures and crossed
modules, build the seeded inputs), prints ``ready`` with the system-wide
monotonic clock and exits: run.py takes the set-up time from spawn to that
clock reading.  MODE ``run`` sets up, then
repeats the workload's round until S seconds have passed (at least one
round) and prints one JSON line with the round times (in reference
seconds, see clock.py, and in wall seconds), the operation counts and the
peak resident set.  MODE ``trace`` alternates untraced and traced
rounds, records spans around every call into cmtop, writes them to
``bench/out/`` and adds the per-layer metrics to the JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _import_program():
    src = ROOT / "src"
    if not (src / "cmtop" / "__init__.py").is_file():
        sys.exit(f"worker: no cmtop sources under {src}")
    sys.path.insert(0, str(src))
    import cmtop  # noqa: F401  (timed as part of set-up)


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer, ops, traced_rounds):
    """Per-round per-layer numbers from the spans of the traced rounds, and
    set-up numbers from the spans of the traced set-up."""
    selfs = tracer.self_times()
    per_round: dict[str, float] = {}
    setup: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for span, own in zip(tracer.spans, selfs):
        key = span["name"] + (f"[{span['tag']}]" if span["tag"] else "")
        bucket = setup if span["round"] < 0 else per_round
        bucket[key] = bucket.get(key, 0.0) + own
        if span["round"] >= 0:
            durations.setdefault(span["name"], []).append(span["end"] - span["start"])

    def rnd(name):
        total = sum(v for k, v in per_round.items() if k == name or k.startswith(name + "["))
        return total / traced_rounds

    def calls(name):
        return len(durations.get(name, ())) // traced_rounds

    def p_ms(name, q, need):
        xs = durations.get(name, ())
        return 1000.0 * _percentile(xs, q) if len(xs) >= need else 0.0

    counts = tracer.counts
    candidates = counts["moves.enumerate_candidates"]
    brute_s = rnd("statesum.brute_force_invariant")
    colorings = counts["statesum.brute_colorings"] // traced_rounds
    return {
        "fixtures.build_s": setup.get("fixtures.build", 0.0),
        "crossed_modules.validate_s": setup.get("crossed_modules.validate", 0.0),
        "complexes.relabel_s": rnd("complexes.relabel"),
        "moves.apply_s": rnd("moves.apply"),
        "moves.apply_calls": calls("moves.apply"),
        "moves.apply_p50_ms": p_ms("moves.apply", 0.5, 1),
        "moves.enumerate_s": rnd("moves.enumerate_applicable"),
        "moves.enumerate_calls": calls("moves.enumerate_applicable"),
        "moves.enumerate_candidates": candidates // traced_rounds,
        "moves.enumerate_yield": counts["moves.enumerate_found"] / candidates if candidates else 0.0,
        "statesum.invariant_s": rnd("statesum.invariant"),
        "statesum.invariant_calls": calls("statesum.invariant"),
        "statesum.invariant_over_budget": ops.expected["statesum.invariant"] // traced_rounds,
        "statesum.invariant_p50_ms": p_ms("statesum.invariant", 0.5, 1),
        "statesum.invariant_p90_ms": p_ms("statesum.invariant", 0.9, 100),
        "statesum.iso_s": per_round.get("statesum.invariant[iso]", 0.0) / traced_rounds,
        "statesum.brute_s": brute_s,
        "statesum.brute_colorings": colorings,
        "statesum.brute_colorings_per_s": colorings / brute_s if brute_s else 0.0,
        "statesum.brute_edge_loop_s":
            per_round.get("statesum.brute_force_invariant[edge]", 0.0) / traced_rounds,
        "statesum.brute_face_loop_s":
            per_round.get("statesum.brute_force_invariant[face]", 0.0) / traced_rounds,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    args = ap.parse_args(argv)

    _import_program()
    import workloads
    from clock import SpeedClock
    from spans import NullTracer, Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"worker: unknown workload {args.workload!r}")
    traced = Tracer() if args.mode == "trace" else None
    tracer = traced or NullTracer()
    complexes, modules = workloads.build_fixtures(tracer)
    inputs = workloads.INPUTS[args.workload](args.seed, complexes, modules, tracer)
    if args.mode == "probe":
        print("ready", time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)
        return
    print("setup done", file=sys.stderr, flush=True)

    clock = SpeedClock()
    ops_plain = workloads.Ops(NullTracer(), clock)
    ops_traced = workloads.Ops(traced, clock) if traced else None
    play = workloads.ROUNDS[args.workload]
    walls: list[float] = []  # reference seconds per untraced round
    traced_walls: list[float] = []
    raw: list[tuple[str, float]] = []  # wall seconds per round
    start = time.perf_counter()
    while True:
        use_trace = traced is not None and len(traced_walls) < len(walls)
        clock.lap()
        if use_trace:
            traced.round = len(traced_walls)
            with traced.span("round"):
                play(ops_traced, inputs, complexes, modules)
        else:
            play(ops_plain, inputs, complexes, modules)
        scaled, wall = clock.lap()
        (traced_walls if use_trace else walls).append(scaled)
        raw.append(("traced" if use_trace else "plain", wall))
        if time.perf_counter() - start >= args.seconds and (traced is None or traced_walls):
            break

    result = {
        "walls": walls,
        "raw_walls": raw,
        "attempted": ops_plain.attempted,
        "failed": ops_plain.failed,
        "expected_failures": dict(ops_plain.expected),
        "over_budget": sorted(ops_plain.expected_where),
        "problems": ops_plain.problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced is not None:
        metrics = layer_metrics(traced, ops_traced, len(traced_walls))
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        result.update(traced_walls=traced_walls, layers=metrics,
                      traced_attempted=ops_traced.attempted,
                      traced_failed=ops_traced.failed,
                      traced_problems=ops_traced.problems[:20])
        traced.dump(OUT / f"trace-{args.workload}-{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed, "metrics": metrics})
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
