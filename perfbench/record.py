"""Record the references in `data/` from the program as it is now.

    python3 perfbench/record.py [--only verify|rao|hilbert]

Run once, at the commit that defines the benchmark; a later run would
record that commit's outputs instead.  Draws candidate inputs from the
streams in `gen.py`, runs each through the command line in process, and
stores the inputs with their outputs.  Every rao query must exit 0, and a
degree-2 one must give the paper's curve (5, 1) with Rao total 1.  Each
hilbert reference is cross-checked once against sympy's grevlex Groebner
basis when sympy is installed.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from itertools import islice
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import workloads as wl  # noqa: E402
from folcurves.cli import main  # noqa: E402
from folcurves.forms import parse_form, singular_ideal, wedge  # noqa: E402
from folcurves.groebner import GradedIdeal  # noqa: E402

RAO_POOL = {2: 60, 3: 10}  # generic queries kept per degree
MAX_SCAN = 600  # degree-2 draws scanned for ones whose lead ideal is not generic
HILBERT_POOL = 240


def dump(name, data):
    with open(wl.DATA / name, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def rao_entry(omega, first=gen.CONTACT, degree=None):
    started = time.perf_counter()
    code, out = wl.run_cli(main, wl.wedge_argv(omega, first))
    seconds = time.perf_counter() - started
    if code != 0:
        raise SystemExit(f"rao query failed with exit code {code}: {omega}")
    payload = json.loads(out)["payload"]
    if degree == 2 and (payload["invariants"] != {"degree": 5, "genus": 1}
                        or payload["rao"]["total"] != 1):
        raise SystemExit(f"degree-2 query misses the (5, 1) curve: {omega}")
    ideal = singular_ideal(wedge(parse_form(first), parse_form(omega)))
    entry = {"omega": omega, "degree": degree, "sha256": wl.sha256(out),
             "invariants": payload["invariants"], "rao": payload["rao"],
             "lead_ideal_regularity": ideal.regularity_bound()}
    if first != gen.CONTACT:
        entry["first"] = first
    return entry, seconds


def record_rao():
    """Keep the first generic draws of each degree and, for degree 2, every
    draw among the first MAX_SCAN whose lead ideal has another regularity
    than the most common one (3 of 600 when recorded)."""
    pool = {"pencil": rao_entry(gen.CONTACT, gen.PENCIL, 1)[0],
            "warmup": rao_entry(gen.warmup_inputs()[0], degree=2)[0],
            "scanned": {}}
    for degree in (2, 3):
        entries, seconds = [], 0.0
        for omega in islice(gen.omega_stream(degree), MAX_SCAN):
            entry, took = rao_entry(omega, degree=degree)
            entries.append(entry)
            seconds += took
            regs = Counter(e["lead_ideal_regularity"] for e in entries)
            generic = regs.most_common(1)[0][0]
            if degree == 3 and regs[generic] == RAO_POOL[3]:
                break
        normal = [e for e in entries if e["lead_ideal_regularity"] == generic]
        special = [e for e in entries if e["lead_ideal_regularity"] != generic]
        print(f"degree {degree}: scanned {len(entries)}, lead-ideal regularity "
              f"{dict(regs)}, {seconds:.1f} s", flush=True)
        pool["scanned"][str(degree)] = {"queries": len(entries), "special": len(special),
                                        "generic_regularity": generic}
        pool[f"degree{degree}"] = normal[:RAO_POOL[degree]]
        if degree == 2:
            pool["degree2_special"] = special
    dump("rao_pool.json", pool)


def _sympy_lead_ideal(lines):
    from sympy import Poly, groebner, symbols

    zs = symbols("z0:4")
    basis = groebner([Poly(line.replace("^", "**"), *zs) for line in lines],
                     *zs, order="grevlex")
    leads = [Poly(g, *zs).monoms(order="grevlex")[0] for g in basis.exprs]
    return sorted(m for m in leads
                  if not any(o != m and all(a <= b for a, b in zip(o, m)) for o in leads))


def _standard_count(lead, k):
    return sum(1 for m in gen.monomials(k)
               if not any(all(a <= b for a, b in zip(g, m)) for g in lead))


def _binomial_value(coeffs, t):
    """sum_i b_i * C(t + i, i) for the payload's binomial coefficients."""
    return sum(Fraction(b) * comb(t + i, i) for i, b in enumerate(coeffs))


def cross_check(text, stdout):
    """sympy's lead ideal equals folcurves' and its standard-monomial count
    agrees with the recorded Hilbert polynomial in high degree."""
    lines = text.splitlines()
    lead = _sympy_lead_ideal(lines)
    ours = sorted(GradedIdeal.from_expressions(lines).lead_ideal())
    if lead != ours:
        raise SystemExit(f"lead ideals differ from sympy's for {lines}")
    coeffs = json.loads(stdout)["payload"]["binomial_coefficients"]
    top = 4 * max(sum(m) for m in lead)  # past reg(S/J) <= 4 (D - 1)
    for k in range(top, top + 4):
        if _standard_count(lead, k) != _binomial_value(coeffs, k):
            raise SystemExit(f"Hilbert polynomial disagrees with sympy at {k}: {lines}")


def hilbert_entry(text, directory, check_sympy):
    op = wl.materialize([{"argv": wl.hilbert_argv("{file}"), "text": text}], directory)[0]
    code, out = wl.run_cli(main, op["argv"])
    if code != 0:
        raise SystemExit(f"hilbert query failed with exit code {code}: {text!r}")
    if check_sympy:
        cross_check(text, out)
    return {"text": text, "stdout": out}


def record_hilbert():
    try:
        import sympy  # noqa: F401
        check_sympy = True
    except ImportError:
        print("sympy is not installed: hilbert references are not cross-checked")
        check_sympy = False
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        pool = {"warmup": hilbert_entry(gen.warmup_inputs()[1], tmp, check_sympy),
                "ideals": [hilbert_entry(text, tmp, check_sympy)
                           for text in islice(gen.ideal_stream(), HILBERT_POOL)],
                "sympy_checked": check_sympy}
    print(f"hilbert: {HILBERT_POOL} ideals, {time.perf_counter() - started:.1f} s")
    dump("hilbert_pool.json", pool)


def record_verify():
    code, out = wl.run_cli(main, wl.verify_argv())
    if code != 0 or not all(res["ok"] for res in json.loads(out)["payload"]):
        raise SystemExit("verify --suite all fails at this commit")
    code_f, out_f = wl.run_cli(main, wl.verify_argv(suite="formulas"))
    if code_f != 0:
        raise SystemExit("verify --suite formulas fails at this commit")
    dump("verify_all.json", {"stdout": out, "sha256": wl.sha256(out),
                             "formulas_sha256": wl.sha256(out_f)})


def main_record(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=["verify", "rao", "hilbert"])
    args = parser.parse_args(argv)
    wl.DATA.mkdir(exist_ok=True)
    steps = {"verify": record_verify, "rao": record_rao, "hilbert": record_hilbert}
    for name, step in steps.items():
        if args.only in (None, name):
            step()


if __name__ == "__main__":
    main_record()
