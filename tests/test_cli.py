"""Command-line interface: payloads, exit codes, determinism."""

import json
import re
import time
from fractions import Fraction

import pytest

from folcurves.cli import build_parser, main
from folcurves.groebner import GradedIdeal

WEDGE_ARGS = ["wedge", "z0*dz1 - z1*dz0", "z0*dz1 - z1*dz0 + z2*dz3 - z3*dz2"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_table_row(capsys):
    code, out, _ = run(capsys, ["classify", "3", "13", "--reduced", "--json"])
    assert code == 0
    body = json.loads(out)
    assert body["status"] == "ok"
    payload = body["payload"]
    assert payload["curve"] == {"degree": 5, "genus": -4}
    assert payload["verdict"]["charge"] == 4
    assert payload["dim_moduli"] == 14
    assert payload["h0_OC"] == 5


def test_classify_split_human(capsys):
    code, out, _ = run(capsys, ["classify", "2", "6"])
    assert code == 0
    assert "split conormal" in out
    assert "degree 5, genus 1" in out


def test_classify_impossible_exit_code(capsys):
    code, _, err = run(capsys, ["classify", "3", "16"])
    assert code == 2
    assert "error:" in err


def test_classify_flags_emitted(capsys):
    code, out, _ = run(capsys, ["classify", "3", "8", "--json"])
    assert code == 0
    body = json.loads(out)
    assert body["flags"] and body["flags"][0]["stated"] == 5


def test_wedge_with_invariants_and_rao(capsys):
    code, out, _ = run(capsys, WEDGE_ARGS + ["--invariants", "--rao", "--json"])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["invariants"] == {"degree": 2, "genus": -1}
    assert payload["rao"] == {"profile": {"0": 1}, "total": 1}


def test_wedge_formats_its_two_form_once(monkeypatch, capsys):
    """The JSON payload and the human line hold one text of the 2-form."""
    from folcurves.forms import TwistedForm

    formatted = []
    real = TwistedForm.__str__
    monkeypatch.setattr(TwistedForm, "__str__", lambda self: formatted.append(1) or real(self))
    outputs = []
    for argv in (WEDGE_ARGS, WEDGE_ARGS + ["--json"]):
        code, out, _ = run(capsys, argv)
        assert code == 0 and len(formatted) == 1
        formatted.clear()
        outputs.append(out)
    text = r"z0*z2*dz1/\dz3 - z0*z3*dz1/\dz2 - z1*z2*dz0/\dz3 + z1*z3*dz0/\dz2"
    assert outputs[0] == f"wedge: {text}\n"
    assert json.loads(outputs[1])["payload"]["two_form"] == text


def test_wedge_rejects_non_projective(capsys):
    code, _, err = run(capsys, ["wedge", "z0*dz0", "z1*dz0", "--legendrian"])
    assert code == 2
    assert "error:" in err


def test_json_outputs_are_deterministic(capsys):
    argv = WEDGE_ARGS + ["--invariants", "--json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    _, third, _ = run(capsys, ["classify", "3", "12", "--reduced", "--json"])
    _, fourth, _ = run(capsys, ["classify", "3", "12", "--reduced", "--json"])
    assert third == fourth


# hilbert --json stdout for one ideal per dimension of S/I, recorded when the
# Hilbert polynomial still went through its power coefficients, with the
# polynomial's degree and leading coefficient
HILBERT_JSON = {
    "space": ("", 3, Fraction(1, 6),
              '{"flags": [], "payload": {"binomial_coefficients": ["0", "0", "0", "1"], '
              '"hilbert_polynomial": "1/6*t^3 + t^2 + 11/6*t + 1"}, "status": "ok"}\n'),
    "plane": ("z0\n", 2, Fraction(1, 2),
              '{"flags": [], "payload": {"binomial_coefficients": ["0", "0", "1"], '
              '"hilbert_polynomial": "1/2*t^2 + 3/2*t + 1"}, "status": "ok"}\n'),
    "twisted-cubic": ("z0*z2 - z1^2\nz1*z3 - z2^2\nz0*z3 - z1*z2\n", 1, 3,
                      '{"flags": [], "payload": {"binomial_coefficients": ["-2", "3"], '
                      '"curve": {"degree": 3, "genus": 0}, "hilbert_polynomial": "3*t + 1"}, '
                      '"status": "ok"}\n'),
    "double-point": ("z0\nz1\nz2^2\n", 0, 2,
                     '{"flags": [], "payload": {"binomial_coefficients": ["2"], '
                     '"hilbert_polynomial": "2"}, "status": "ok"}\n'),
    "empty": ("z0\nz1\nz2\nz3\n", -1, 0,
              '{"flags": [], "payload": {"binomial_coefficients": [], '
              '"hilbert_polynomial": "0"}, "status": "ok"}\n'),
}


@pytest.mark.parametrize("name", list(HILBERT_JSON))
def test_hilbert_json_is_pinned_in_every_dimension(capsys, tmp_path, name):
    text, degree, leading, stdout = HILBERT_JSON[name]
    path = tmp_path / "ideal.txt"
    path.write_text(text)
    assert run(capsys, ["hilbert", str(path), "--json"]) == (0, stdout, "")
    P = GradedIdeal.from_file(path).hilbert_polynomial()
    assert P.degree() == degree
    assert P.leading_coefficient() == leading


def test_hilbert_and_rao_from_file(capsys, tmp_path):
    path = tmp_path / "skew.ideal"
    path.write_text("# two skew lines\nz0*z2\nz0*z3\nz1*z2\nz1*z3\n")
    code, out, _ = run(capsys, ["hilbert", str(path), "--json"])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["hilbert_polynomial"] == "2*t + 2"
    assert payload["curve"] == {"degree": 2, "genus": -1}
    code, out, _ = run(capsys, ["rao", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["payload"] == {"profile": {"0": 1}, "total": 1}


def test_syzygy_command(capsys):
    code, out, _ = run(capsys, ["syzygy", "z0^2,z1^2,z2,z3", "2,2,1,1", "3", "--json"])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["dimension"] == 8


def test_syzygy_json_columns_are_pinned(capsys):
    """The column text of syzygy --json: each kernel vector over rational
    row entries, written in lowest terms."""
    code, out, _ = run(capsys, ["syzygy", "1/2*x+y,3/7*z^2,t", "1,2,1", "3", "--json"])
    assert code == 0
    assert json.loads(out) == {"flags": [], "payload": {"columns": [
        ["z2^2", "-7/6*z0 - 7/3*z1", "0"],
        ["z0*z3", "0", "-1/2*z0^2 - z0*z1"],
        ["z0*z3 - 2*z1*z3", "0", "-1/2*z0^2 + 2*z1^2"],
        ["z2*z3", "0", "-1/2*z0*z2 - z1*z2"],
        ["0", "z3", "-3/7*z2^2"],
        ["z3^2", "0", "-1/2*z0*z3 - z1*z3"],
    ], "dimension": 6}, "status": "ok"}


def test_chi_command(capsys):
    code, out, _ = run(capsys, ["chi", "2", "0", "1", "0", "1", "--json"])
    assert code == 0
    assert json.loads(out)["payload"] == {"chi": 5}


def test_cohomology_command(capsys):
    # a leading negative twist needs the usual "--" separator
    code, out, _ = run(capsys, ["cohomology", "instanton:1", "--json", "--", "-2..1"])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["twists"]["-1"] == [0, 1, 0, 0]
    assert payload["twists"]["1"] == [5, 0, 0, 0]
    code, out, _ = run(capsys, ["cohomology", "line", "--json", "--", "-4..0"])
    payload = json.loads(out)["payload"]
    assert payload["twists"]["-4"] == [0, 0, 0, 1]


@pytest.mark.parametrize("kind, twists, message", [
    ("line", "5", "twist range '5' is not of the form LO..HI, two integers"),
    ("line", "..3", "twist range '..3' is not of the form LO..HI, two integers"),
    ("line", "1..a", "twist range '1..a' is not of the form LO..HI, two integers"),
    ("instanton:x", "0..2",
     "cohomology kind 'instanton:x' is not of the form instanton:N[:H0], N and H0 integers"),
    ("instanton:1:", "0..2",
     "cohomology kind 'instanton:1:' is not of the form instanton:N[:H0], N and H0 integers"),
    ("instanton:1:0:2", "0..2",
     "cohomology kind 'instanton:1:0:2' is not of the form instanton:N[:H0], N and H0 integers"),
])
def test_cohomology_names_a_malformed_argument_and_its_form(capsys, kind, twists, message):
    assert run(capsys, ["cohomology", kind, twists]) == (2, "", f"error: {message}\n")


def test_a_byte_order_mark_is_read_past(capsys, tmp_path):
    """An ideal file or a monad spec that starts with a UTF-8 byte-order
    mark gives the output of the same file without it."""
    cases = [("hilbert", "ideal", "# two skew lines\nz0*z2\nz0*z3\nz1*z2\nz1*z3\n", []),
             ("rao", "ideal", "z0*z2\nz0*z3\nz1*z2\nz1*z3\n", []),
             ("monad", "json", json.dumps({"template": {"c": [1], "b": [0, 0]}}), ["--regularity"])]
    for command, suffix, text, extra in cases:
        plain, marked = tmp_path / f"plain.{suffix}", tmp_path / f"marked.{suffix}"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        for flags in ([], ["--json"]):
            expected = run(capsys, [command, str(plain), *extra, *flags])
            assert expected[0] == 0
            assert run(capsys, [command, str(marked), *extra, *flags]) == expected


def test_monad_command(capsys, tmp_path):
    path = tmp_path / "monad.json"
    path.write_text(json.dumps({"template": {"c": [1], "b": [0, 0]}}))
    code, out, _ = run(capsys, ["monad", str(path), "--regularity", "--json"])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["chern"] == {"rank": 2, "c1": 0, "c2": 1, "c3": 0}
    assert payload["regularity"] == 1
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps({"left": [-2], "middle": [-1, -1, 0, 0], "right": [1]}))
    code, out, _ = run(capsys, ["monad", str(raw), "--json"])
    assert json.loads(out)["payload"]["chern"]["c2"] == 2
    code, _, _ = run(capsys, ["monad", str(raw), "--regularity"])
    assert code == 2


@pytest.mark.parametrize("text", [
    '{"template": {"c": 5, "b": [0, 0]}}',
    "[1, 2]",
    '{"left": [1, "a"], "middle": [], "right": []}',
    '{"template": {"c": [1], "b": [0, 0.5]}}',
    '{"left": [-2], "middle": [-1, -1, 0, 1e400], "right": [1]}',
])
def test_monad_refuses_a_malformed_spec_with_exit_2(capsys, tmp_path, text):
    path = tmp_path / "spec.json"
    path.write_text(text)
    code, out, err = run(capsys, ["monad", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_moduli_command(capsys):
    code, out, _ = run(capsys, ["moduli", "legendrian", "2", "--json"])
    assert code == 0
    assert json.loads(out)["payload"]["dimension"] == 20
    code, out, _ = run(capsys, ["moduli", "nc", "1", "--json"])
    body = json.loads(out)
    assert body["payload"]["stated"] == 34
    assert body["payload"]["derived"] == 33
    assert body["flags"]


def test_invariants_command(capsys):
    code, out, _ = run(capsys, ["invariants", "3", "10", "--json"])
    assert code == 0
    assert json.loads(out)["payload"]["curve"] == {"degree": 8, "genus": 5}
    code, _, _ = run(capsys, ["invariants", "2", "5"])
    assert code == 2


def test_verify_single_suites(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "table1"])
    assert code == 0
    assert "table1" in out and "PASS" in out
    code, out, _ = run(capsys, ["verify", "--suite", "moduli", "--json"])
    assert code == 0
    body = json.loads(out)
    assert body["status"] == "ok"
    assert body["flags"]


def test_verify_syzygy_suite(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "syzygy"])
    assert code == 0
    assert "PASS" in out


def test_hilbert_with_a_huge_power_answers(capsys, tmp_path):
    path = tmp_path / "power.ideal"
    path.write_text("x^2\nx^100000000\n")
    code, out, _ = run(capsys, ["hilbert", str(path)])
    assert code == 0
    assert "Hilbert polynomial: t^2 + 2*t + 1" in out


def test_hilbert_refuses_a_numeral_over_the_digit_cap(capsys, tmp_path):
    path = tmp_path / "long.ideal"
    path.write_text("1" * 5000 + "*x\ny\n")
    code, out, err = run(capsys, ["hilbert", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: numeral of 5000 digits at position 0, over the cap of 4300\n"


def test_hilbert_refuses_a_power_over_the_term_cap_quickly(capsys, tmp_path):
    path = tmp_path / "wide.ideal"
    path.write_text("x^2\n(x+y+z+t)^40\n")
    started = time.perf_counter()
    code, _, err = run(capsys, ["hilbert", str(path)])
    assert time.perf_counter() - started < 1
    assert code == 2
    assert err.startswith("error:") and "12341 terms" in err


def test_hilbert_refuses_a_power_over_the_coefficient_cap_quickly(capsys, tmp_path):
    path = tmp_path / "tall.ideal"
    for power in ("2^1000000000*x", "(2*x)^1000000000"):
        path.write_text(f"{power}\ny\n")
        started = time.perf_counter()
        code, _, err = run(capsys, ["hilbert", str(path)])
        assert time.perf_counter() - started < 1
        assert code == 2
        assert err.startswith("error: parsing, power ^1000000000:") and len(err.splitlines()) == 1
    path.write_text("x^100000000\ny\n")
    started = time.perf_counter()
    code, out, _ = run(capsys, ["hilbert", str(path)])
    assert time.perf_counter() - started < 1
    assert code == 0 and "Hilbert polynomial: 100000000" in out


def test_hilbert_refuses_a_power_over_the_work_cap_quickly(capsys, tmp_path):
    """Powers under the term and bit caps whose multiplication alone took
    seconds are refused before it; (x+y+z)^60 is under the work cap."""
    path = tmp_path / "slow.ideal"
    for power, work in (("(x+y)^1999", 2000 * 2000 * 1999),
                        ("(x+1000*y)^1000", 1001 * 1001 * 10000)):
        path.write_text(f"{power}\nz\n")
        started = time.perf_counter()
        code, _, err = run(capsys, ["hilbert", str(path)])
        assert time.perf_counter() - started < 1
        assert code == 2
        assert err == (f"error: parsing, power ^{power.split('^')[1]}: an estimated {work} "
                       f"term products times coefficient bits, over the cap of 1000000000\n")
    path.write_text("(x+y+z)^60\n")
    code, out, _ = run(capsys, ["hilbert", str(path)])
    assert code == 0 and out == "Hilbert polynomial: 30*t^2 - 1680*t + 32510\n"


def test_hilbert_reports_deep_nesting_as_bad_input(capsys, tmp_path):
    path = tmp_path / "deep.ideal"
    path.write_text("(" * 3000 + "x" + ")" * 3000 + "\n")
    code, _, err = run(capsys, ["hilbert", str(path)])
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_hilbert_names_the_end_of_the_input(capsys, tmp_path):
    path = tmp_path / "open.ideal"
    path.write_text("x^2 + y^2\nx*y + (x + y\n")
    assert run(capsys, ["hilbert", str(path)]) == (
        2, "", "error: expected ')', found end of input\n")


def test_rao_refuses_a_window_over_the_piece_cap_quickly(capsys, tmp_path):
    # a line with an embedded point: its third dual map is never onto, so
    # the walk down reaches a piece over the cap
    point = tmp_path / "point.ideal"
    point.write_text("z1\nz0^2\nz0*z2\n")
    started = time.perf_counter()
    code, _, err = run(capsys, ["rao", str(point), "--window", "-40", "5"])
    assert time.perf_counter() - started < 1
    assert code == 2
    assert err == ("error: Rao twist -15: a dual-map piece of dimension 2040 "
                   "exceeds the cap 2000\n")
    # two skew lines: the walk down stops at twist -1, where the third dual
    # map is onto, long before the low end of the window
    path = tmp_path / "skew.ideal"
    path.write_text("z0*z2\nz0*z3\nz1*z2\nz1*z3\n")
    started = time.perf_counter()
    code, out, _ = run(capsys, ["rao", str(path), "--json", "--window", "-40", "5"])
    assert time.perf_counter() - started < 1
    assert code == 0
    assert json.loads(out)["payload"] == {"profile": {"0": 1}, "total": 1}
    # a window reaching far above the last nonzero piece: the walk starts at
    # twist 0, not at the window's top
    started = time.perf_counter()
    code, out, _ = run(capsys, ["rao", str(path), "--json", "--window", "-2", "100000000"])
    assert time.perf_counter() - started < 1
    assert code == 0
    assert json.loads(out)["payload"] == {"profile": {"0": 1}, "total": 1}


def test_syzygy_refuses_a_degree_over_the_column_cap_quickly(capsys):
    started = time.perf_counter()
    code, _, err = run(capsys, ["syzygy", "x,y", "1,1", "60"])
    assert time.perf_counter() - started < 1
    assert code == 2
    assert err.startswith("error: graded_syzygies, degree 60: 75640 columns exceed")
    assert len(err.splitlines()) == 1
    # degree 13 (2 * dim S_12 = 910 columns) is under the cap of 1000 and
    # answers (y*h, -x*h) for h in S_11; degree 14 (1120 columns) is not
    code, out, _ = run(capsys, ["syzygy", "x,y", "1,1", "13", "--json"])
    assert code == 0 and json.loads(out)["payload"]["dimension"] == 364
    code, _, _ = run(capsys, ["syzygy", "x,y", "1,1", "14"])
    assert code == 2


def test_syzygy_refuses_a_degree_over_the_row_cap_quickly(capsys):
    # one column, but the target piece S_1000 has 167668501 rows
    started = time.perf_counter()
    code, _, err = run(capsys, ["syzygy", "z0^1000", "1000", "1000"])
    assert time.perf_counter() - started < 1
    assert code == 2
    assert err.startswith("error: graded_syzygies, degree 1000: 167668501 rows exceed")
    assert len(err.splitlines()) == 1


def test_cohomology_refuses_a_range_over_the_cap_quickly(capsys):
    started = time.perf_counter()
    code, _, err = run(capsys, ["cohomology", "line", "0..50000000", "--json"])
    assert time.perf_counter() - started < 1
    assert code == 2
    assert err.startswith("error: twist range 0..50000000") and len(err.splitlines()) == 1
    code, out, _ = run(capsys, ["cohomology", "line", "--json", "--", "-500..499"])
    assert code == 0
    assert len(json.loads(out)["payload"]["twists"]) == 1000


def test_repeated_calls_reuse_one_parser_and_answer_as_a_fresh_one(capsys):
    calls = [["chi", "2", "0", "1", "0", "1"], ["classify", "2", "6", "--json"],
             ["chi", "2", "x", "1", "0", "1"], ["moduli", "nc", "3"], ["nosuch"],
             ["classify", "2", "5", "--json"], ["classify", "--help"], WEDGE_ARGS]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors and --help
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(outcome(argv))
    build_parser.cache_clear()
    assert [outcome(argv) for argv in calls + calls] == fresh + fresh
    assert build_parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 2, 2, 0, 0]
    assert fresh[2][2].startswith("usage: folcurves chi") and fresh[4][2].startswith("usage:")
    assert fresh[5][2].startswith("error: degree-2") and fresh[6][1].startswith("usage:")


def test_hilbert_refuses_a_degree_over_the_packing_cap_quickly(capsys, tmp_path):
    """Groebner division packs each exponent below a guard bit, so the parser
    refuses a total degree above 2^31 - 1; 2^31 - 1 itself answers."""
    path = tmp_path / "deep.ideal"
    for text, degree in (("x^2147483648\ny\n", 2147483648),
                         ("x^2147483647*y\nz\n", 2147483648),
                         ("(x*y)^1073741824\nz\n", 2147483648),
                         ("(x + y)*x^2147483647\nz\n", 2147483648),
                         # an exponent past the cap is refused at the product
                         # that makes it, before it could spill into z1's field
                         ("x^2000000000*x^2000000000*x^2000000000\ny\n", 4000000000)):
        path.write_text(text)
        started = time.perf_counter()
        code, _, err = run(capsys, ["hilbert", str(path)])
        assert time.perf_counter() - started < 1
        assert code == 2
        assert err == (f"error: parsing: total degree {degree} exceeds the degree cap "
                       f"2147483647\n")
    path.write_text("x^2147483647\ny\n")
    started = time.perf_counter()
    code, out, _ = run(capsys, ["hilbert", str(path)])
    assert time.perf_counter() - started < 1
    assert code == 0 and out.startswith("Hilbert polynomial: 2147483647*t - 2305843003844984834\n")


def test_hilbert_answers_a_high_power_in_a_mixed_generator_quickly(capsys, tmp_path):
    """The monomial-ideal recursions take z0^k in one step; x^500*y used to
    recurse once per unit of the exponent and crash.  rao refuses the curve's
    resolution bound instead."""
    path = tmp_path / "plane.ideal"
    for power in (500, 100000000):
        path.write_text(f"x^{power}*y\nz\n")
        degree, genus = power + 1, power * (power - 1) // 2
        started = time.perf_counter()
        code, out, err = run(capsys, ["hilbert", str(path)])
        assert time.perf_counter() - started < 1
        assert (code, err) == (0, "")
        assert out == (f"Hilbert polynomial: {degree}*t - {genus - 1}\n"
                       f"curve invariants: degree {degree}, genus {genus}\n")
        started = time.perf_counter()
        code, _, err = run(capsys, ["rao", str(path)])
        assert time.perf_counter() - started < 1
        assert (code, err) == (2, f"error: truncation bound {power + 6} is too large\n")


def test_hilbert_refuses_a_groebner_basis_over_the_work_cap_quickly(capsys, tmp_path):
    """Three dense powers under every parse cap whose Buchberger run went on
    past 20 s; its divisions now stop at the work cap."""
    path = tmp_path / "hostile.ideal"
    path.write_text("(x+y+z)^40\n(x+y+t)^40\n(y+z+t)^39*x\n")
    started = time.perf_counter()
    code, _, err = run(capsys, ["hilbert", str(path)])
    assert time.perf_counter() - started < 1
    assert code == 2
    assert re.fullmatch(r"error: buchberger, degree \d+: divisions exceed the work cap of "
                        r"50000 heap pops\n", err), err


def _drawn_texts(st):
    """Expressions from the parser's grammar, valid or not, and runs of its
    alphabet with a few characters it refuses."""
    leaf = st.sampled_from(("x", "y", "z", "t", "z0", "z3", "dz0", "dz1", "dz2", "dz3",
                            "0", "1", "2", "7", "1/2", "3/0", "w"))

    def extend(inner):
        factor = st.one_of(inner, st.builds("{}^{}".format, inner, st.integers(0, 4)),
                           st.builds("{}^{}".format, inner, inner), inner.map("({})".format))
        term = st.lists(factor, min_size=1, max_size=3).flatmap(
            lambda fs: st.sampled_from(("*", "/\\", "*")).map(lambda op: op.join(fs)))
        return st.builds(lambda sign, ts, op: sign + op.join(ts), st.sampled_from(("", "-", "+")),
                         st.lists(term, min_size=1, max_size=3), st.sampled_from((" + ", " - ")))

    grammar = st.recursive(leaf, extend, max_leaves=8)
    return st.one_of(grammar, st.text("xyzt0123d+-*^()/\\ _.²", max_size=20))


_COEFFICIENTS = (("1", "-2", "1/2"), ("x", "2*y", "z - t"), ("x^2", "x*y - z^2", "(x + t)^2"))


def _drawn_one_forms(st):
    """Sums of g * (z_i*dz_j - z_j*dz_i) with every g of one degree:
    projective 1-forms."""
    def pencils(coefficients):
        pencil = st.builds(lambda g, i, j: f"({g})*(z{i}*dz{j} - z{j}*dz{i})",
                           st.sampled_from(coefficients), st.integers(0, 1), st.integers(2, 3))
        return st.lists(pencil, min_size=1, max_size=3).map(" + ".join)

    return st.sampled_from(_COEFFICIENTS).flatmap(pencils)


def test_drawn_texts_through_wedge_and_hilbert_exit_cleanly(capsys, tmp_path):
    """Valid and malformed drawn texts as wedge arguments and as the lines of
    a hilbert ideal file: each call answers 0, 1 or 2 in under 2 s and lets
    no exception escape.  "--" keeps a text that starts with "-" an
    argument."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    path = tmp_path / "drawn.ideal"
    codes = set()
    forms = st.one_of(_drawn_one_forms(st), _drawn_texts(st))

    @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hypothesis.given(forms, forms, st.lists(_drawn_texts(st), max_size=3))
    def check(first, second, lines):
        path.write_text("\n".join(lines) + "\n")
        for argv in (["wedge", "--", first, second], ["hilbert", str(path)]):
            started = time.perf_counter()
            code = main(argv)
            assert time.perf_counter() - started < 2, argv
            assert code in (0, 1, 2), argv
            codes.add((argv[0], code))
            capsys.readouterr()

    check()
    assert {("wedge", 0), ("wedge", 2), ("hilbert", 0), ("hilbert", 2)} <= codes
