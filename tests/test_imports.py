"""Start-up: which modules each subcommand loads, the lazy package
namespace, and verify's command line, which reads its suite names and
default seed only when it needs them."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import folcurves
from folcurves import verification
from folcurves.cli import main

ROOT = Path(__file__).resolve().parents[1]

# The public names of the package, by the submodule that defines them.
PUBLIC = {
    "classify": """ClassificationReport DiscrepancyFlag FoliationInvariants
        ci_foliation_invariants classify_low_degree connected_components generic_invariants
        invariants_from_c2 isolated_count legendrian_moduli_dim nc_curve_invariants
        nc_moduli_dim rao_bounds sections_of_singular_scheme split_criterion""",
    "forms": """FoliationPresentation TwistedForm contract_with_field exterior_derivative
        is_contact_form is_decomposable is_projective legendrian_foliation legendrian_sample
        parse_form pencil_form radial_contraction random_projective_oneform singular_ideal
        standard_contact_form vector_field_to_twoform wedge""",
    "groebner": """GradedIdeal HilbertPolynomial buchberger curve_invariants
        hilbert_polynomial normal_form""",
    "monad": """MonadSpec instanton_monad mismatched_charge6_monads monad_chern
        monad_regularity_bound""",
    "polyring": "HomogeneousPolynomial graded_piece_dimension parse_polynomial",
    "resolution": """FreeResolution RaoProfile graded_syzygies minimal_free_resolution
        rao_module_dimensions""",
    "sheafcoh": """ChernTriple CohomologyTable SheafSymbol cotangent_cohomology
        euler_characteristic hom_lower_bound hrr_polynomial instanton_cohomology
        line_bundle_cohomology null_correlation_h0 serre_dual_twist""",
}
NAMES = {name: module for module, names in PUBLIC.items() for name in names.split()}

# what `import folcurves.cli` loads: records with polyring and groebner, as
# polynomials and Hilbert polynomials are FrozenRecords
MODULES = {"folcurves", "folcurves.cli", "folcurves.errors", "folcurves.records",
           "folcurves.polyring", "folcurves.groebner"}
# what every subcommand that builds a free resolution loads besides
RESOLUTION = {"folcurves.resolution", "folcurves.linalg"}
# what a Hilbert query of at most three forms, not all of one term, loads
# besides before any basis, and a wedge ideal that is not its own basis:
# the section certificate
SECTION = {"folcurves.section"}
EVERY_MODULE = MODULES | RESOLUTION | {f"folcurves.{m}" for m in (
    "classify", "forms", "monad", "parsing", "sheafcoh", "verification")}
# the contact form with a 1-form of degree 2, whose wedge ideal the conormal
# bound certifies, and with the pencil form, whose wedge ideal is monomial
CONTACT = "z0*dz1 - z1*dz0 + z2*dz3 - z3*dz2"
WEDGE = ["wedge", CONTACT, "z3*(z0*dz2 - z2*dz0) + z0*(z1*dz3 - z3*dz1)", "--invariants"]
MONOMIAL_WEDGE = ["wedge", "z0*dz1 - z1*dz0", CONTACT, "--invariants", "--rao"]
# the public names that moved from groebner to resolution, which groebner
# still answers for
MOVED = PUBLIC["resolution"].split() + [
    "MAX_DUAL_PIECE", "MAX_SYZYGY_COLUMNS", "MAX_SYZYGY_ROWS", "default_rao_window"]


def fresh(script: str):
    """Run script in a new interpreter on the source tree; return what it
    printed, as JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


LOADED = """
import contextlib, io, json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "folcurves" or m.startswith("folcurves.")
                  or m in ("dataclasses", "inspect"))
"""


def test_import_loads_no_submodule_and_the_cli_only_what_every_command_uses():
    before, after = fresh(LOADED + """
import folcurves
before = loaded()
import folcurves.cli
print(json.dumps([before, loaded()]))""")
    assert before == ["folcurves"]
    assert set(after) == MODULES


@pytest.mark.parametrize("argv, added", [
    (["hilbert", "{file}"], {"folcurves.parsing"} | SECTION),
    (WEDGE, {"folcurves.parsing", "folcurves.forms"} | SECTION),
    (["verify", "--suite", "syzygy"], EVERY_MODULE - MODULES),
    (WEDGE + ["--rao"], {"folcurves.parsing", "folcurves.forms"} | RESOLUTION | SECTION),
    (MONOMIAL_WEDGE, {"folcurves.parsing", "folcurves.forms"} | RESOLUTION),
    (["rao", "{file}"], {"folcurves.parsing"} | RESOLUTION),
    (["syzygy", "z0,z1", "1,1", "2"], {"folcurves.parsing"} | RESOLUTION),
], ids=["hilbert", "wedge", "verify", "wedge-rao", "wedge-monomial-rao", "rao", "syzygy"])
def test_each_subcommand_loads_the_modules_it_runs(tmp_path, argv, added):
    """Neither dataclasses nor inspect is ever loaded, and only the
    subcommands that build a free resolution or take a Rao profile load
    resolution and linalg.  section is loaded for Hilbert data of at most
    three forms, not all of one term, before a basis, and for the conormal
    certificate of a wedge ideal that is not its own basis; the pencil's
    wedge with the contact form has four one-term generators, and its Rao
    profile is resolved without it."""
    path = tmp_path / "ideal.txt"
    path.write_text("z0*z1\nz2^2 - z0*z3\n", encoding="utf-8")
    argv = [str(path) if arg == "{file}" else arg for arg in argv]
    code, modules = fresh(LOADED + f"""
from folcurves.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main({argv!r})
print(json.dumps([code, loaded()]))""")
    assert code == 0
    assert set(modules) == MODULES | added


def test_verify_loads_the_section_first_where_the_ci_rao_draws_run():
    """Run in order, the gate's criteria and property items load
    folcurves.section first at the first legendrian criterion, whose
    samples are wedge ideals certified by the conormal bound; the checks
    before it ask for Hilbert data of monomials only (the pencil-contact
    wedge, its own basis) or never ask for Hilbert data.  The ci-rao draws
    later ask for Hilbert data of two quadrics before any basis."""
    seen = fresh(LOADED + """
from folcurves import verification
seen = []
for cid, check in verification.CRITERIA.items():
    if cid == "properties":
        for tag, item in verification.property_items(0):
            assert item(), tag
            seen.append([tag, "folcurves.section" in sys.modules])
    else:
        assert check(0).ok, cid
        seen.append([cid, "folcurves.section" in sys.modules])
print(json.dumps(seen))""")
    first = next(k for k, (name, _) in enumerate(seen) if name == "legendrian-deg2")
    assert [loaded for _, loaded in seen] == [False] * first + [True] * (len(seen) - first)


def test_no_other_subcommand_loads_dataclasses_or_inspect(tmp_path):
    spec = tmp_path / "monad.json"
    spec.write_text('{"template": {"c": [1], "b": [0, 0]}}', encoding="utf-8")
    runs = [["classify", "3", "12", "--reduced"], ["chi", "2", "0", "1", "0", "1"],
            ["cohomology", "instanton:1", "--", "-2..1"], ["monad", str(spec), "--regularity"],
            ["moduli", "nc", "2"], ["invariants", "3", "12"]]
    codes, modules = fresh(LOADED + f"""
from folcurves.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in {runs!r}]
print(json.dumps([codes, loaded()]))""")
    assert codes == [0] * len(runs)
    assert not {"dataclasses", "inspect"} & set(modules)


@pytest.mark.parametrize("access", ["attribute", "from-import"])
def test_every_public_name_is_its_submodule_object(access):
    script = LOADED + f"""
import importlib
import folcurves
names = {NAMES!r}
for name, module in names.items():
    if {access!r} == "attribute":
        value = getattr(folcurves, name)
    else:
        space = {{}}
        exec(f"from folcurves import {{name}}", space)
        value = space[name]
    assert value is getattr(importlib.import_module("folcurves." + module), name), name
from folcurves import verification  # a submodule no public name loads
assert verification is sys.modules["folcurves.verification"]
print(json.dumps(loaded()))"""
    assert set(fresh(script)) == EVERY_MODULE - {"folcurves.cli", "folcurves.parsing"}


def test_groebner_still_answers_for_the_names_that_moved_to_resolution():
    """Reading a moved name, or kernel_of_columns, from groebner imports
    resolution and gives its object; groebner's namespace stays as it was,
    so a name rebound in resolution reads the same through groebner."""
    assert fresh(LOADED + f"""
import folcurves.groebner as groebner
before = dict(vars(groebner))
assert "folcurves.resolution" not in sys.modules
from folcurves.groebner import {", ".join(MOVED)}
import folcurves.resolution as resolution
from folcurves.linalg import kernel_of_columns
for name in {MOVED!r}:
    assert getattr(groebner, name) is getattr(resolution, name), name
assert groebner.kernel_of_columns is kernel_of_columns
resolution.kernel_of_columns = len
assert groebner.kernel_of_columns is len
assert vars(groebner) == before
try:
    groebner._resolve
except AttributeError as exc:
    print(json.dumps(str(exc)))""") == "module 'folcurves.groebner' has no attribute '_resolve'"


def test_star_import_and_dir_list_exactly_the_public_names():
    space = {}
    exec("from folcurves import *", space)
    assert set(space) - {"__builtins__"} == set(NAMES)
    assert dir(folcurves) == sorted(NAMES)
    assert folcurves.__all__ == sorted(NAMES)
    for name, module in NAMES.items():
        assert space[name] is getattr(sys.modules[f"folcurves.{module}"], name)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        folcurves.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="'no_such_name'"):
        exec("from folcurves import no_such_name", {})


def reference_verify_parser():
    """verify's parser as argparse builds it from a plain list of choices
    and an explicit seed default."""
    parser = argparse.ArgumentParser(prog="folcurves verify")
    parser.add_argument("--json", action="store_true", help="emit deterministic JSON")
    parser.add_argument("--suite", choices=sorted(verification.SUITES), default="all")
    parser.add_argument("--seed", type=int, default=verification.DEFAULT_SEED)
    return parser


def outcome(capsys, call, argv):
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [["--suite", "bogus"], ["--help"], ["--seed", "x"]])
def test_verify_usage_help_and_errors_match_a_plain_choices_parser(capsys, argv):
    got = outcome(capsys, main, ["verify", *argv])
    assert got == outcome(capsys, reference_verify_parser().parse_args, argv)
    if argv == ["--suite", "bogus"]:
        code, _, err = got
        assert code == 2 and "invalid choice" in err and "bogus" in err


def test_verify_without_seed_runs_the_default_seed(capsys):
    assert verification.DEFAULT_SEED == 0
    default = outcome(capsys, main, ["verify", "--suite", "formulas", "--json"])
    assert default == outcome(capsys, main, ["verify", "--suite", "formulas", "--json",
                                             "--seed", "0"])
    assert default[0] == 0
