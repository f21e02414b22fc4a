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
    "groebner": """FreeResolution GradedIdeal HilbertPolynomial RaoProfile buchberger
        curve_invariants graded_syzygies hilbert_polynomial minimal_free_resolution
        normal_form rao_module_dimensions""",
    "monad": """MonadSpec instanton_monad mismatched_charge6_monads monad_chern
        monad_regularity_bound""",
    "polyring": "HomogeneousPolynomial graded_piece_dimension parse_polynomial",
    "sheafcoh": """ChernTriple CohomologyTable SheafSymbol cotangent_cohomology
        euler_characteristic hom_lower_bound hrr_polynomial instanton_cohomology
        line_bundle_cohomology null_correlation_h0 serre_dual_twist""",
}
NAMES = {name: module for module, names in PUBLIC.items() for name in names.split()}

MODULES = {"folcurves", "folcurves.cli", "folcurves.errors", "folcurves.polyring",
           "folcurves.groebner", "folcurves.linalg"}
EVERY_MODULE = MODULES | {f"folcurves.{m}" for m in (
    "classify", "forms", "monad", "parsing", "sheafcoh", "verification")}
WEDGE = ["wedge", "z0*dz1 - z1*dz0", "z0*dz1 - z1*dz0 + z2*dz3 - z3*dz2", "--invariants"]


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
    return sorted(m for m in sys.modules if m == "folcurves" or m.startswith("folcurves."))
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
    (["hilbert", "{file}"], {"folcurves.parsing"}),
    (WEDGE, {"folcurves.parsing", "folcurves.forms"}),
    (["verify", "--suite", "syzygy"], EVERY_MODULE - MODULES),
], ids=["hilbert", "wedge", "verify"])
def test_each_subcommand_loads_the_modules_it_runs(tmp_path, argv, added):
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
