"""One measured run of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --seconds T
                                [--trace] [--setup-only]

Set-up is the interpreter start, `import folcurves`, building the op list
(and its ideal files) and one warm-up op.  Then the op list runs once, as a
closed loop with one client: each op starts when the previous one returns.
Outputs are checked after the pass, so the checks cost no measured time.
Timings are in seconds at the reference speed of `speed.py`, whose sampler
runs through the whole of `main`.  Prints one JSON object with the
measurements; `run.py` turns them into metrics.  Run by `run.py`, which
starts a fresh interpreter per run so that module-level caches and peak
memory never carry over between workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import workloads as wl  # noqa: E402


def run_ops(main, ops, tracer=None):
    """Run every op once; return the perf_counter readings (start, end) of
    the pass and of each op, and the outputs."""
    windows, outputs = [], []
    started = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            result = wl.run_cli(main, op["argv"])
        except Exception:  # an op that raises counts as failed; the run goes on
            traceback.print_exc()
            result = None
        windows.append((t0, time.perf_counter()))
        if tracer is not None:
            tracer.end_op()
        outputs.append(result)
    return (started, time.perf_counter()), windows, outputs


def failures(ops, outputs):
    bad = 0
    for op, result in zip(ops, outputs):
        if result is None or not wl.check(op, *result):
            print(f"output check failed: {' '.join(op['argv'][:2])}", file=sys.stderr)
            bad += 1
    return bad


def measure(args, tmp):
    from folcurves.cli import main

    ops = wl.materialize(wl.ops_for(args.workload, args.seed, args.seconds), tmp)
    warm = wl.materialize(wl.warmup_ops(args.workload), os.path.join(tmp, "warm"))
    warm_out = run_ops(main, warm)[-1]
    result = {"warmup_failed": failures(warm, warm_out)}
    if args.setup_only:
        return result

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        whole, windows, outputs = run_ops(main, ops, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    raw_wall = whole[1] - whole[0] - speed.spent(*whole)
    scale = speed.scale(*whole)
    result.update(wall_s=raw_wall * scale, raw_wall_s=raw_wall,
                  latencies=[speed.scaled(*window) for window in windows],
                  attempted=len(ops), failed=failures(ops, outputs),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        from folcurves.verification import CRITERIA

        layers = tracing.layer_metrics(tracer, CRITERIA)
        result["layers"] = {name: value * scale if name.endswith(("_s", ".s")) else value
                            for name, value in layers.items()}
        tracer.write_spans(wl.spans_path(args.workload, args.seed))
    return result


def main(argv=None):
    speed.start()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    wl.RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=wl.RUN_DIR) as tmp:
        os.mkdir(os.path.join(tmp, "warm"))
        result = measure(args, tmp)
    speed.stop()
    # for run.py, which times the whole process as set-up
    result.update(calibration_s=speed.spent(0, time.perf_counter()),
                  scale=speed.scale(0, time.perf_counter()))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
