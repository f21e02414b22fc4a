"""folcurves benchmark: one command, every metric with its unit, every output checked.

    python3 perfbench/run.py --workload verify-all|rao-queries|hilbert-queries
                             --seed N --seconds T --trace 0|1

Run from the root of a source checkout; it imports folcurves from `src/`.
`--trace 0` reports the end-to-end metrics of an untraced run; `--trace 1`
reports the per-layer metrics of a traced run, plus the tracing overhead
against an untraced run of the same ops.  Every run happens in a fresh
interpreter (`worker.py`).  Timings are in seconds at the reference speed of
`speed.py`, which takes out the drift of a shared machine's speed.  The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  Exit code 0 when every output matched its reference,
1 when one did not or a run broke, and 2 when the checkout holds no
folcurves sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SETUP_SAMPLES = 7  # set-up is timed this many times per run; the median is reported
DEADLINE_S = 170  # a run ends within this many seconds or fails

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


class BenchError(Exception):
    pass


def worker(args, deadline, *extra):
    """Run worker.py once; return its JSON result and its wall time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a worker ran past the {DEADLINE_S} s deadline") from exc
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1]), elapsed


def tail(latencies):
    """The highest percentile with at least ten ops beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    i = max(0, len(ordered) - 11)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def end_to_end(args, deadline, lines):
    setups, warm_failed = [], 0
    for _ in range(SETUP_SAMPLES):
        res, elapsed = worker(args, deadline, "--setup-only")
        setups.append((elapsed - res["calibration_s"]) * res["scale"])
        warm_failed += res["warmup_failed"]
    res, _ = worker(args, deadline)
    value, pct = tail(res["latencies"])
    lines.append(f"ops: {res['attempted']} (closed loop, one client); op_tail_s is "
                 f"p{pct:.1f}, the slowest op with {min(10, res['attempted'] - 1)} beyond it")
    lines.append(f"machine speed: {res['raw_wall_s']:.4g} s of wall time read as "
                 f"{res['wall_s']:.4g} s at the reference speed")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": res["wall_s"],
        "op_p50_s": statistics.median(res["latencies"]),
        "op_tail_s": value,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return metrics, res["attempted"], res["failed"] + warm_failed


def per_layer(args, deadline, lines):
    base, _ = worker(args, deadline)
    traced, _ = worker(args, deadline, "--trace")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = traced["wall_s"] / base["wall_s"]
    spans = wl.spans_path(args.workload, args.seed).relative_to(ROOT)
    lines.append(f"ops: {traced['attempted']} per run; spans written to {spans}")
    failed = (base["failed"] + traced["failed"] + base["warmup_failed"]
              + traced["warmup_failed"])
    if args.workload == "hilbert-queries" and metrics["linalg.kernel.calls"]:
        lines.append("FAIL: hilbert-queries must not reach linalg.kernel")
        failed += 1
    return metrics, base["attempted"] + traced["attempted"], failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        choices=range(1, wl.MAX_SECONDS + 1),
                        metavar=f"1..{wl.MAX_SECONDS}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "folcurves" / "cli.py").is_file():
        print(f"error: no folcurves sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    lines = [f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
             f"trace {args.trace}",
             f"machine: Python {platform.python_version()}, "
             f"nproc {len(os.sched_getaffinity(0))}, {platform.machine()}"]
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed = measure(args, deadline, lines)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines.append(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.4g}")
    units = END_TO_END if not args.trace else {n: per_layer_unit(n) for n in metrics}
    for name, unit in units.items():
        lines.append(f"{name} = {metrics[name]:.6g} {unit}")
    print("\n".join(lines))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
