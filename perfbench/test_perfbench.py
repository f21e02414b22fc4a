"""Tests of the benchmark itself: inputs, wrappers, tracing and its contract."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import gen
import run
import speed
import tracing
import worker
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def test_same_seed_gives_byte_identical_inputs():
    for workload in wl.WORKLOADS:
        first = json.dumps(wl.ops_for(workload, 7, 20), sort_keys=True)
        assert json.dumps(wl.ops_for(workload, 7, 20), sort_keys=True) == first
    for workload in ("rao-queries", "hilbert-queries"):
        assert wl.ops_for(workload, 7, 20) != wl.ops_for(workload, 8, 20)


def test_inputs_within_a_run_are_distinct():
    for workload in ("rao-queries", "hilbert-queries"):
        ops = wl.ops_for(workload, 3, wl.MAX_SECONDS)
        keys = [json.dumps([op["argv"], op.get("text")]) for op in ops]
        assert len(set(keys)) == len(keys)


def test_a_20_second_hilbert_run_holds_the_whole_pool():
    pool = sorted(entry["text"] for entry in wl.load("hilbert_pool.json")["ideals"])
    for seed in (1, 2):
        assert sorted(op["text"] for op in wl.ops_for("hilbert-queries", seed, 20)) == pool


def test_pools_are_reproduced_by_the_generators():
    rao = wl.load("rao_pool.json")
    for degree in (2, 3):
        stream = list(islice(gen.omega_stream(degree), rao["scanned"][str(degree)]["queries"]))
        kept = rao[f"degree{degree}"] + rao.get(f"degree{degree}_special", [])
        assert all(entry["omega"] in stream for entry in kept)
    assert rao["warmup"]["omega"] == gen.warmup_inputs()[0]
    hilbert = wl.load("hilbert_pool.json")
    texts = list(islice(gen.ideal_stream(), len(hilbert["ideals"])))
    assert [entry["text"] for entry in hilbert["ideals"]] == texts
    assert hilbert["warmup"]["text"] == gen.warmup_inputs()[1]


def test_speed_sampler_samples_and_disarms_its_timer():
    previous = signal.getsignal(signal.SIGALRM)
    speed.start()
    try:
        started = time.perf_counter()
        while time.perf_counter() < started + 10 * speed.INTERVAL_S:
            pass
        ended = time.perf_counter()
    finally:
        speed.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert 0 < speed.spent(started, ended) < ended - started
    assert 0.2 < speed.scale(started, ended) < 5
    assert speed.scaled(started, ended) < (ended - started) * speed.scale(started, ended)


def _namespaces():
    import folcurves.cli  # noqa: F401
    from folcurves import groebner, linalg, parsing, polyring  # noqa: F401  (parsing loads lazily)

    snap = {}
    for mod in tracing._folcurves_modules():
        for key, value in vars(mod).items():
            snap[(mod.__name__, key)] = value
            if type(value) is dict:
                snap[(mod.__name__, key, "items")] = list(value.items())
    for cls in (polyring.HomogeneousPolynomial, groebner.GradedIdeal, linalg.Echelon):
        snap[cls.__name__] = dict(cls.__dict__)
    return snap


def test_wrappers_restore_the_originals():
    from folcurves import groebner, verification

    before = _namespaces()
    original = groebner.kernel_of_columns
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert groebner.kernel_of_columns is not original
        assert verification.CRITERIA["properties"] is not verification.check_property_suites.__wrapped__
    finally:
        tracer.restore()
    after = _namespaces()
    assert before.keys() == after.keys()
    for key, value in before.items():
        assert after[key] == value if isinstance(value, (list, dict)) else after[key] is value, key


def _small_ops(tmp):
    rao = wl.load("rao_pool.json")
    ops = wl.warmup_ops("rao-queries") + wl.warmup_ops("hilbert-queries")
    ops.append({"argv": wl.wedge_argv(gen.CONTACT, gen.PENCIL), "sha256": rao["pencil"]["sha256"]})
    entry = wl.load("hilbert_pool.json")["ideals"][0]
    ops.append({"argv": wl.hilbert_argv("{file}"), "text": entry["text"], "stdout": entry["stdout"]})
    return wl.materialize(ops, str(tmp))


def test_traced_outputs_equal_untraced_and_self_times_are_consistent(tmp_path):
    from folcurves.cli import main

    ops = _small_ops(tmp_path)
    plain = worker.run_ops(main, ops)[-1]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        _, windows, traced = worker.run_ops(main, ops, tracer)
    finally:
        tracer.restore()
    assert traced == plain
    assert worker.failures(ops, traced) == 0
    code, out = plain[0]
    assert not wl.check(ops[0], code, out + " ")

    root = tracer.name_id(tracing.ROOT)
    roots = [i for i in range(len(tracer.name)) if tracer.name[i] == root]
    assert len(roots) == len(ops)
    assert min(tracer.self_ns) >= 0
    for op_id, r in enumerate(roots):
        wall = tracer.end[r] - tracer.start[r]
        assert (windows[op_id][1] - windows[op_id][0]) * 1e9 <= wall
        inner = [i for i in range(len(tracer.name)) if tracer.op[i] == op_id and i != r]
        assert inner, "every op reaches a traced layer"
        assert sum(tracer.self_ns[i] for i in inner) <= wall
        for i in inner:
            p = tracer.parent[i]
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
    layers = tracing.layer_metrics(tracer, ["syzygy"])
    assert layers["groebner.rao.calls"] == 2
    assert layers["groebner.hilbert.calls"] >= 4
    assert layers["linalg.kernel.calls"] > 0


def test_benchmark_json_names_every_reported_metric():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    from folcurves.verification import CRITERIA

    tracer = tracing.Tracer()
    names = list(tracing.layer_metrics(tracer, CRITERIA)) + ["trace.overhead_ratio"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: run.per_layer_unit(n) for n in names}


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rao-queries",
                           "--seed", "1", "--seconds", "20", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
