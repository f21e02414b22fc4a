"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 input or constraint
rejection.  Every subcommand accepts --json; JSON payloads are
deterministic (sorted keys, no timing data).

A subcommand imports the modules it runs when it runs, so that starting
one compiles and loads only those.  errors, polyring and groebner stay at
module level: every numeric subcommand uses them, and deferring them as
well raised the gate's peak memory.  forms, resolution (with linalg),
classify, sheafcoh, monad and verification are imported in the handlers
that call them, and `verify` reads its suite names and default seed only
when it checks or prints them.  So `hilbert` loads parsing besides;
`wedge` forms and parsing, and resolution too with --rao; `rao` and
`syzygy` resolution; `verify` every module.  Most of the saving is
compilation, so cached bytecode shrinks it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import lru_cache

from .errors import (FolcurvesError, InvalidProfileError, NotProjectiveError,
                     ResourceLimitError, WrongFormDegreeError)
from .groebner import GradedIdeal, curve_invariants
from .polyring import parse_polynomial

# Twists in one cohomology table; the shipped examples use at most 9.
MAX_TWIST_RANGE = 1000


def _emit(args, payload, flags=(), human=()):
    if args.json:
        body = {"status": "ok", "payload": payload, "flags": list(flags)}
        print(json.dumps(body, sort_keys=True))
    else:
        for line in human:
            print(line)
        for flag in flags:
            print(f"note: {flag['claim']} (computed {flag['computed']}, "
                  f"stated {flag['stated']})")
    return 0


def _cmd_classify(args):
    from .classify import classify_low_degree

    report = classify_low_degree(args.d, args.c2, args.reduced)
    payload = report.to_json()
    verdict = report.verdict
    if verdict["type"] == "split":
        head = f"split conormal, twists {tuple(verdict['twists'])}"
    else:
        head = (f"stable normalized conormal, c2 = {verdict['charge']}"
                + (";  " + "; ".join(verdict["constraints"]) if verdict["constraints"] else ""))
    human = [
        f"degree {args.d}, c2 = {args.c2}"
        + (" (reduced singular scheme)" if args.reduced else ""),
        f"  verdict:     {head}",
        f"  curve:       degree {report.degC}, genus {report.paC}",
    ]
    if report.components is not None:
        human.append(f"  components:  {report.components}")
    if report.dim_moduli is not None:
        human.append(f"  dim moduli:  {report.dim_moduli}")
    if report.h0_OC is not None:
        human.append(f"  h0(O_C):     {report.h0_OC}")
    return _emit(args, payload, [f.to_json() for f in report.flags], human)


def _cmd_wedge(args):
    from .forms import is_projective, legendrian_foliation, parse_form, singular_ideal, wedge

    a = parse_form(args.form1)
    b = parse_form(args.form2)
    for name, form in (("first", a), ("second", b)):
        if form.form_degree != 1:
            raise WrongFormDegreeError(f"{name} argument is not a 1-form")
        if not is_projective(form):
            raise NotProjectiveError(f"{name} argument does not descend to P^3")
    two_form = legendrian_foliation(a, b).two_form if args.legendrian else wedge(a, b)
    text = str(two_form)
    payload = {"two_form": text}
    human = [f"wedge: {text}"]
    if args.invariants or args.rao:
        ideal = singular_ideal(two_form)
        if args.invariants:
            deg, genus = curve_invariants(ideal)
            payload["invariants"] = {"degree": deg, "genus": genus}
            human.append(f"singular curve: degree {deg}, genus {genus}")
        if args.rao:
            from .resolution import rao_module_dimensions

            profile = rao_module_dimensions(ideal)
            payload["rao"] = profile.to_json()
            human.append(f"Rao profile: {profile.to_json()}")
    return _emit(args, payload, (), human)


def _cmd_verify(args):
    from .verification import DEFAULT_SEED, run_suite

    started = time.monotonic()
    results = run_suite(args.suite, seed=DEFAULT_SEED if args.seed is None else args.seed)
    ok = all(res.ok for res in results)
    if args.json:
        body = {
            "status": "ok" if ok else "error",
            "payload": [res.to_json() for res in results],
            "flags": [flag for res in results for flag in res.flags],
        }
        print(json.dumps(body, sort_keys=True))
    else:
        for res in results:
            print(f"{res.cid:16s} {'PASS' if res.ok else 'FAIL'}  {res.title}")
            if not res.ok:
                for line in res.details:
                    if line.startswith("FAIL"):
                        print(f"    {line}")
            for flag in res.flags:
                print(f"    note: {flag['claim']} (computed {flag['computed']}, "
                      f"stated {flag['stated']})")
        print(f"{sum(res.ok for res in results)}/{len(results)} criteria passed",
              file=sys.stderr)
        print(f"elapsed: {time.monotonic() - started:.1f}s", file=sys.stderr)
    return 0 if ok else 1


def _cmd_hilbert(args):
    ideal = GradedIdeal.from_file(args.ideal_file)
    P = ideal.hilbert_polynomial()
    text = str(P)
    payload = {"hilbert_polynomial": text,
               "binomial_coefficients": [str(c) for c in P.coeffs]}
    human = [f"Hilbert polynomial: {text}"]
    try:
        deg, genus = curve_invariants(ideal)
        payload["curve"] = {"degree": deg, "genus": genus}
        human.append(f"curve invariants: degree {deg}, genus {genus}")
    except FolcurvesError:
        pass
    return _emit(args, payload, (), human)


def _cmd_rao(args):
    from .resolution import rao_module_dimensions

    ideal = GradedIdeal.from_file(args.ideal_file)
    window = tuple(args.window) if args.window else None
    profile = rao_module_dimensions(ideal, window)
    return _emit(args, profile.to_json(), (),
                 [f"Rao profile: {profile.to_json()}"])


def _cmd_syzygy(args):
    from .resolution import graded_syzygies

    row = [parse_polynomial(s) for s in args.row.split(",")]
    weights = [int(w) for w in args.weights.split(",")]
    basis = graded_syzygies(row, weights, args.degree)
    payload = {
        "dimension": len(basis),
        "columns": [[str(g) for g in tup] for tup in basis],
    }
    human = [f"syzygy space dimension: {len(basis)}"]
    human += ["  (" + ", ".join(str(g) for g in tup) + ")" for tup in basis]
    return _emit(args, payload, (), human)


def _cmd_chi(args):
    from .sheafcoh import ChernTriple, SheafSymbol, euler_characteristic

    symbol = SheafSymbol(args.rank, ChernTriple(args.c1, args.c2, args.c3))
    value = euler_characteristic(symbol, args.twist)
    return _emit(args, {"chi": value}, (), [f"chi = {value}"])


def _integers(what: str, text: str, parts, form: str):
    """The ints written in parts, cut from the argument text; an error names
    the argument and the form it should have."""
    try:
        return [int(part) for part in parts]
    except ValueError:
        raise FolcurvesError(f"{what} {text!r} is not of the form {form}") from None


def _parse_range(text):
    lo, _, hi = text.partition("..")
    lo, hi = _integers("twist range", text, (lo, hi), "LO..HI, two integers")
    twists = range(lo, hi + 1)
    if len(twists) > MAX_TWIST_RANGE:
        raise ResourceLimitError(
            f"twist range {text} holds {len(twists)} twists, more than {MAX_TWIST_RANGE}"
        )
    return twists


def _cmd_cohomology(args):
    from .sheafcoh import (CLOSED_FORM, CohomologyTable, cotangent_cohomology,
                           instanton_cohomology, line_bundle_cohomology)

    twists = _parse_range(args.twist_range)
    kind = args.kind
    if kind.startswith("instanton:") or kind in ("nc", "null-correlation"):
        if kind in ("nc", "null-correlation"):
            charge, h0 = 1, None
        else:
            charge, *h0 = _integers("cohomology kind", kind, kind.split(":", 2)[1:],
                                    "instanton:N[:H0], N and H0 integers")
            h0 = h0[0] if h0 else None
        table = instanton_cohomology(charge, h0, twists)
    else:
        table = CohomologyTable()
        for k in twists:
            if kind == "line":
                row = line_bundle_cohomology(k)
            elif kind == "cotangent":
                row = cotangent_cohomology(1, k)
            else:
                raise FolcurvesError(f"unknown cohomology kind {kind!r}")
            table.set_row(k, row, (CLOSED_FORM,) * 4)
    human = ["twist   h0   h1   h2   h3"]
    for k in sorted(table.rows):
        h = table.rows[k]
        human.append(f"{k:5d} {h[0]:4d} {h[1]:4d} {h[2]:4d} {h[3]:4d}")
    return _emit(args, table.to_json(), (), human)


def _cmd_monad(args):
    from .monad import MonadSpec, monad_chern, monad_regularity_bound

    with open(args.spec_file, "r", encoding="utf-8-sig") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:  # malformed JSON, or an int of too many digits
            raise InvalidProfileError(f"monad spec: {exc}") from None
    if not isinstance(data, dict) or not isinstance(data.get("template", {}), dict):
        raise InvalidProfileError("monad spec: expected a JSON object, its template an object")
    if "template" in data:
        template = data["template"]
        spec = MonadSpec.from_template(template.get("c"), template.get("b"))
    else:
        spec = MonadSpec.from_twists(data.get("left"), data.get("middle"), data.get("right"))
    rank, c1, c2, c3 = monad_chern(spec)
    payload = {"spec": spec.to_json(),
               "chern": {"rank": rank, "c1": c1, "c2": c2, "c3": c3}}
    human = [f"cohomology bundle: rank {rank}, c1 {c1}, c2 {c2}, c3 {c3}"]
    if args.regularity:
        bound = monad_regularity_bound(spec)
        payload["regularity"] = bound
        human.append(f"regularity bound: {bound}")
    return _emit(args, payload, (), human)


def _cmd_moduli(args):
    from .classify import legendrian_moduli_dim, nc_moduli_dim

    if args.family == "legendrian":
        value = legendrian_moduli_dim(args.parameter)
        return _emit(args, {"family": "legendrian", "degree": args.parameter,
                            "dimension": value}, (),
                     [f"legendrian degree {args.parameter}: dimension {value}"])
    stated, derived, flagged = nc_moduli_dim(args.parameter)
    flags = []
    if flagged:
        flags.append({
            "claim": "closed-form dimension and deformation count differ by 1",
            "computed": derived,
            "stated": stated,
            "location": f"nc-moduli-k{args.parameter}",
        })
    payload = {"family": "null_correlation", "k": args.parameter,
               "stated": stated, "derived": derived, "flagged": flagged}
    return _emit(args, payload, flags,
                 [f"null-correlation k={args.parameter}: stated {stated}, "
                  f"derived {derived}"])


def _cmd_invariants(args):
    from .classify import invariants_from_c2

    inv = invariants_from_c2(args.d, args.c2, not args.not_locally_free)
    payload = {
        "d": inv.d, "c2": inv.c2N, "c1": inv.c1N,
        "curve": {"degree": inv.degC, "genus": inv.paC},
        "c3": inv.c3, "locally_free": inv.locally_free,
    }
    return _emit(args, payload, (),
                 [f"c1 = {inv.c1N}, curve degree {inv.degC}, genus {inv.paC}"])


class _SuiteNames:
    """verify's --suite choices: the names of verification.SUITES, sorted,
    read only when argparse checks a value or prints the choices."""

    def __contains__(self, name):
        from .verification import SUITES

        return name in SUITES

    def __iter__(self):
        from .verification import SUITES

        return iter(sorted(SUITES))


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="folcurves",
        description="Exact invariants of foliations by curves on projective 3-space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit deterministic JSON")
        p.set_defaults(func=func)
        return p

    p = add("classify", _cmd_classify, "classify a foliation by (degree, c2)")
    p.add_argument("d", type=int)
    p.add_argument("c2", type=int)
    p.add_argument("--reduced", action="store_true",
                   help="assume the singular scheme is reduced")

    p = add("wedge", _cmd_wedge, "wedge two 1-forms and inspect the result")
    p.add_argument("form1")
    p.add_argument("form2")
    p.add_argument("--invariants", action="store_true",
                   help="degree and genus of the singular curve")
    p.add_argument("--rao", action="store_true", help="Rao profile of the singular curve")
    p.add_argument("--legendrian", action="store_true",
                   help="validate form1 as a contact form first")

    p = add("verify", _cmd_verify, "run the acceptance checks")
    # argparse formats an argument once as it adds it, which would read the
    # choices; so they are set on the action afterwards
    p.add_argument("--suite", default="all").choices = _SuiteNames()
    p.add_argument("--seed", type=int)  # verification.DEFAULT_SEED when omitted

    p = add("hilbert", _cmd_hilbert, "Hilbert polynomial of an ideal file")
    p.add_argument("ideal_file")

    p = add("rao", _cmd_rao, "Rao profile of a curve ideal file")
    p.add_argument("ideal_file")
    p.add_argument("--window", type=int, nargs=2, metavar=("LO", "HI"))

    p = add("syzygy", _cmd_syzygy, "graded syzygies of a row of polynomials")
    p.add_argument("row", help="comma-separated polynomial expressions")
    p.add_argument("weights", help="comma-separated slot degrees")
    p.add_argument("degree", type=int)

    p = add("chi", _cmd_chi, "Euler characteristic from rank and Chern data")
    p.add_argument("rank", type=int)
    p.add_argument("c1", type=int)
    p.add_argument("c2", type=int)
    p.add_argument("c3", type=int)
    p.add_argument("twist", type=int)

    p = add("cohomology", _cmd_cohomology, "cohomology table over a twist range")
    p.add_argument("kind", help="line | cotangent | nc | instanton:N[:H0]")
    p.add_argument("twist_range", help="LO..HI")

    p = add("monad", _cmd_monad, "Chern data of a monad spec file")
    p.add_argument("spec_file")
    p.add_argument("--regularity", action="store_true")

    p = add("moduli", _cmd_moduli, "moduli dimension of a family")
    p.add_argument("family", choices=["legendrian", "nc"])
    p.add_argument("parameter", type=int)

    p = add("invariants", _cmd_invariants, "curve invariants from (degree, c2)")
    p.add_argument("d", type=int)
    p.add_argument("c2", type=int)
    p.add_argument("--not-locally-free", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FolcurvesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
