"""Benchmark for cmtop: one command, one workload per call.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; cmtop is imported from ``src/``.
The workload runs in a fresh interpreter (bench/worker.py) from one process
and one thread.  SETUP_PROBES more fresh interpreters only set up, one at a
time, half before the workload and half after it; ``setup_s`` is the
median of their wall times from spawn to ready inputs.  ``wall_s`` is the
median round time in reference seconds (see clock.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``setup_s``, ``wall_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones from a
run that alternates untraced and traced rounds.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

WORKLOADS = ("engine_search", "move_walk", "oracle_sweep")
SETUP_PROBES = 8
DEADLINE_S = 170.0  # a run must end within 180 s

class BenchError(RuntimeError):
    pass


def _worker_cmd(args, mode, importtime=False):
    flags = ["-X", "importtime"] if importtime else []
    return [sys.executable, *flags, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]


def _remaining(start):
    left = DEADLINE_S - (time.perf_counter() - start)
    if left <= 0:
        raise BenchError("out of time")
    return left


def setup_probe(args, start) -> float:
    """Seconds from spawning a fresh interpreter to ready inputs, read on
    the system-wide monotonic clock that the probe prints when ready."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(_worker_cmd(args, "probe"), cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=_remaining(start))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    words = out.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise BenchError(f"set-up probe failed ({proc.returncode}): {err.strip()[-2000:]}")
    return float(words[1]) - t0


def run_worker(args, start, trace: bool) -> tuple[dict, str]:
    proc = subprocess.run(_worker_cmd(args, "trace" if trace else "run", importtime=trace),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=_remaining(start))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), proc.stderr


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import times of numpy and of cmtop without numpy, from
    ``-X importtime`` lines written before the worker finished set-up."""
    cumulative: dict[str, float] = {}
    order: list[str] = []
    for line in stderr.splitlines():
        if line.strip() == "setup done":
            break
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name in ("numpy", "cmtop") and name not in cumulative:
            cumulative[name] = int(parts[1]) / 1e6
            order.append(name)
    numpy_s = cumulative.get("numpy", 0.0)
    cmtop_s = cumulative.get("cmtop", 0.0)
    if order == ["numpy", "cmtop"]:  # numpy was imported inside cmtop
        cmtop_s -= numpy_s
    return {"import.numpy_s": numpy_s, "import.cmtop_s": cmtop_s}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cmtop" / "__init__.py").is_file():
        print(f"bench: no cmtop sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        if args.trace:
            res, stderr = run_worker(args, start, trace=True)
            metrics = {**import_times(stderr), **res["layers"]}
            attempted = res["attempted"] + res["traced_attempted"]
            failed = res["failed"] + res["traced_failed"]
            problems = res["problems"] + res["traced_problems"]
            declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
            units = {m["name"]: m["unit"] for m in declared}
            if set(units) != set(metrics):
                raise BenchError(f"per-layer metrics {sorted(set(units) ^ set(metrics))} "
                                 f"are not both declared and measured")
        else:
            setups = [setup_probe(args, start) for _ in range(SETUP_PROBES // 2)]
            res, _ = run_worker(args, start, trace=False)
            setups += [setup_probe(args, start) for _ in range(SETUP_PROBES - len(setups))]
            metrics = {"setup_s": statistics.median(setups),
                       "wall_s": statistics.median(res["walls"]),
                       "peak_rss_mb": res["peak_rss_mb"]}
            attempted, failed, problems = res["attempted"], res["failed"], res["problems"]
            units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
            res["setup_samples"] = setups
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for p in problems:
        print(f"bench: wrong or unexpected: {p}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    name = f"{'trace' if args.trace else 'run'}-{args.workload}-{args.seed}.result.json"
    (OUT / name).write_text(json.dumps(res, indent=1))
    print(f"workload {args.workload} seed {args.seed}: "
          f"{attempted} operations, {failed} failed, {len(res['walls'])} untraced rounds "
          f"{['%.3f' % w for w in res['walls']]} reference s, "
          f"{['%.3f' % w for k, w in res['raw_walls'] if k == 'plain']} wall s")
    if res["over_budget"]:
        print(f"over the node budget: {', '.join(res['over_budget'])}")
    for key in sorted(metrics):
        print(f"  {key} = {metrics[key]} {units[key]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
