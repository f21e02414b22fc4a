"""The benchmark's workloads: op lists built from a seed, and the check of
every op's output against references recorded at the seed commit.

An op is one in-process `folcurves` command-line call, `cli.main(argv)`, with
its standard output captured; it passes when the exit code is 0 and the
output matches the recorded reference.  Op lists are plain data (argv lists
and texts) built from `data/` and the seed alone, without folcurves.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path
from random import Random

import gen

DATA = Path(__file__).resolve().parent / "data"
RUN_DIR = DATA.parent.parent / ".perfbench_run"  # scratch files of runs
WORKLOADS = ("verify-all", "rao-queries", "hilbert-queries")
VERIFY_SEED = 0
MAX_SECONDS = 20  # the recorded pools hold distinct inputs for runs this long


def spans_path(workload: str, seed: int) -> Path:
    return RUN_DIR / f"spans-{workload}-seed{seed}.tsv"


def load(name: str):
    with open(DATA / name, encoding="utf-8") as handle:
        return json.load(handle)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def wedge_argv(omega: str, first: str = gen.CONTACT):
    return ["wedge", first, omega, "--invariants", "--rao", "--json"]


def hilbert_argv(path: str):
    return ["hilbert", path, "--json"]


def verify_argv(suite: str = "all"):
    return ["verify", "--suite", suite, "--seed", str(VERIFY_SEED), "--json"]


def ops_for(workload: str, seed: int, seconds: int):
    """The run's op list: dicts with `argv`, an optional ideal-file `text`
    (its path is substituted for "{file}" in argv) and the reference."""
    if not 1 <= seconds <= MAX_SECONDS:
        raise ValueError(f"--seconds must be within 1..{MAX_SECONDS}")
    rng = Random(seed)
    if workload == "verify-all":
        # The gate itself at its default seed: its work depends strongly on
        # the seed (2.7 s to 36 s), so the benchmark seed does not move it.
        return [{"argv": verify_argv(), "sha256": load("verify_all.json")["sha256"]}]
    if workload == "rao-queries":
        pool = load("rao_pool.json")
        n2, n3 = 2 * seconds, max(1, round(seconds / 5))
        # Every run holds all three degree-2 draws (of 600) whose lead ideal
        # is not the generic one: their looser truncation bound makes the
        # resolution 5-20 times slower, and drawing them by seed would swing
        # a run's wall time by a fifth.
        picks = ([pool["pencil"]] + pool["degree2_special"]
                 + rng.sample(pool["degree2"], n2) + rng.sample(pool["degree3"], n3))
        rng.shuffle(picks)
        return [{"argv": wedge_argv(p["omega"], p.get("first", gen.CONTACT)),
                 "sha256": p["sha256"], "degree": p["degree"]} for p in picks]
    if workload == "hilbert-queries":
        # At 20 s a run holds every ideal of the pool in an order drawn by
        # the seed: a query takes from under 0.01 s to 0.4 s, depending on
        # the ideal, so drawing 160 of the 240 moved op_tail_s by a fifth.
        picks = rng.sample(load("hilbert_pool.json")["ideals"], 12 * seconds)
        return [{"argv": hilbert_argv("{file}"), "text": p["text"],
                 "stdout": p["stdout"]} for p in picks]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_ops(workload: str):
    """One op of the workload's kind whose input is in no op list."""
    if workload == "verify-all":
        pool = load("verify_all.json")
        return [{"argv": verify_argv(suite="formulas"), "sha256": pool["formulas_sha256"]}]
    if workload == "rao-queries":
        entry = load("rao_pool.json")["warmup"]
        return [{"argv": wedge_argv(entry["omega"]), "sha256": entry["sha256"],
                 "degree": 2}]
    entry = load("hilbert_pool.json")["warmup"]
    return [{"argv": hilbert_argv("{file}"), "text": entry["text"],
             "stdout": entry["stdout"]}]


def materialize(ops, directory):
    """Write each op's ideal text to its own file and fill in its argv."""
    for i, op in enumerate(ops):
        if "text" in op:
            path = os.path.join(directory, f"ideal{i}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(op["text"])
            op["argv"] = [path if a == "{file}" else a for a in op["argv"]]
    return ops


def run_cli(main, argv):
    """Exit code and captured standard output of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def check(op, code, stdout) -> bool:
    if code != 0:
        return False
    if "stdout" in op:
        return stdout == op["stdout"]
    if sha256(stdout) != op["sha256"]:
        return False
    payload = json.loads(stdout)["payload"]
    if op["argv"][0] == "verify":
        return all(res["ok"] for res in payload)
    if op.get("degree") == 2:
        # the paper's degree-2 legendrian curve
        return (payload["invariants"] == {"degree": 5, "genus": 1}
                and payload["rao"]["total"] == 1)
    return True
