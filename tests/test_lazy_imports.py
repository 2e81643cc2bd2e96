"""The package surface is lazy: `import latspace` loads no submodule, each
public name resolves to its defining module's object on first use, and each
CLI command loads only the modules it runs."""

import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import latspace as ls
from latspace import spaces

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
SRC = str(ROOT / "src")

# The public names and their defining modules, in import-dependency order:
# each module imports only from those listed before it.
DEFINED_IN = {
    "errors": (
        "DimMismatch", "EmptyStructuringElement", "FormatError", "InvalidElement",
        "LatspaceError", "LatticeMismatch", "NotALattice", "NotASpaceFunction",
        "NotAntisymmetric", "NotDistributive", "TooLarge", "UnknownAgent", "UnknownProp",
    ),
    "lattice": (
        "FiniteLattice", "build_lattice", "chain_lattice", "downset_lattice", "fixtures",
        "herbrand_xy_ab", "powerset_lattice", "random_distributive_lattice",
    ),
    "spaces": (
        "AxiomViolation", "Scs", "SpaceFunction", "agent_projection", "bottom_function",
        "classify", "classify_images", "enumerate_space_functions", "function_leq",
        "function_meet_oracle", "identity_function", "pointwise_join", "pointwise_meet_raw",
        "random_space_function", "top_function", "validate_space_function",
    ),
    "distributed": (
        "DeltaFamily", "delta_group", "delta_pair", "delta_pair_subtract",
        "delta_tuples_direct", "group_projection", "join_projection",
        "survey_tuple_formula", "verify_gdc",
    ),
    "epistemic": (
        "AumannStructure", "KripkeModel", "aumann_dk", "aumann_to_scs", "boolean_cs",
        "kripke_dk", "kripke_to_scs", "parse_formula",
    ),
    "morphology": (
        "PointSet", "dilate", "distributed_dilation", "erode", "minkowski_sum",
        "oplus_law_rhs", "scale", "theorem_check_small_module",
    ),
}
PUBLIC = sorted([*DEFINED_IN, *(name for names in DEFINED_IN.values() for name in names)])

BASE = ["latspace", "latspace.cli", "latspace.errors", "latspace.lattice", "latspace.spaces"]
WITH_DISTRIBUTED = [*BASE, "latspace.distributed"]
WITH_EPISTEMIC = [*WITH_DISTRIBUTED, "latspace.epistemic"]


def fresh(code: str, *argv: str):
    """Run `code` in a new interpreter and return the JSON it prints last."""
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC, "PYTHONIOENCODING": "utf-8"},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


RUN_COMMAND = """
import contextlib, io, json, sys
from latspace import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "latspace")]))
"""


# One representative argv per command and the latspace modules it loads.
COMMANDS = [
    (["lattice-check", "{f}/m2.json"], BASE),
    (["scs-check", "{f}/m2_scs.json"], BASE),
    (["delta", "--scs", "{f}/m2_scs.json", "--group", "1,2"], WITH_DISTRIBUTED),
    (["project", "--scs", "{f}/m2_scs.json", "--group", "1,2", "--at", "p"], WITH_DISTRIBUTED),
    (["kripke", "--model", "{f}/kripke_pair.json", "--formula", "D{{1,2}} p"], WITH_EPISTEMIC),
    (["aumann", "--model", "{f}/aumann_grid.json", "--group", "1,2", "--event", "2,3"],
     WITH_EPISTEMIC),
    (["morph", "--op", "ddilate", "--image", "{f}/image_t.pbm", "--se", "{f}/se_a.pbm",
      "--se2", "{f}/se_b.pbm", "--out", "{out}"],
     [*BASE, "latspace.morphology", "latspace.pbm"]),
    (["selfcheck", "--seed", "7"],
     [*WITH_EPISTEMIC, "latspace.morphology", "latspace.selfcheck"]),
]


@pytest.mark.parametrize("argv, loaded", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
def test_each_command_loads_only_its_modules(argv, loaded, tmp_path):
    argv = [a.format(f=FIXTURES, out=tmp_path / "out.pbm") for a in argv]
    code, modules = fresh(RUN_COMMAND, *argv)
    assert code == 0
    assert modules == sorted(loaded)


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    modules = fresh(
        "import json, sys, latspace\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('latspace', 'numpy'))))"
    )
    assert modules == ["latspace"]


def test_all_names_exactly_the_public_surface():
    assert sorted(ls.__all__) == PUBLIC
    assert len(PUBLIC) == 68
    assert "__version__" not in ls.__all__


def test_each_name_is_its_defining_modules_object():
    for module_name, names in DEFINED_IN.items():
        module = importlib.import_module(f"latspace.{module_name}")
        assert getattr(ls, module_name) is module
        for name in names:
            obj = getattr(ls, name)
            assert obj is getattr(module, name), name
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, name


def test_names_load_their_module_and_only_what_it_imports():
    # In dependency order, a submodule resolves before anything imports it,
    # and reading its names loads it and the modules listed before it, no more.
    steps = fresh(
        "import json, sys, latspace\n"
        "steps = []\n"
        "for module, names in json.loads(sys.argv[1]).items():\n"
        "    before = f'latspace.{module}' in sys.modules\n"
        "    same = getattr(latspace, module) is sys.modules[f'latspace.{module}']\n"
        "    for name in names:\n"
        "        getattr(latspace, name)\n"
        "    steps.append([before, same, sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('latspace', 'numpy'))])\n"
        "print(json.dumps(steps))\n",
        json.dumps(DEFINED_IN),
    )
    loaded = ["latspace"]
    for module_name, (before, same, modules) in zip(DEFINED_IN, steps):
        loaded.append(f"latspace.{module_name}")
        assert not before, module_name
        assert same, module_name
        expected = sorted(loaded + (["numpy"] if module_name != "errors" else []))
        assert [m for m in modules if not m.startswith("numpy.")] == expected, module_name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from latspace import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert all(namespace[name] is getattr(ls, name) for name in PUBLIC)


def test_dir_lists_every_name():
    listed = dir(ls)
    assert set(PUBLIC) <= set(listed)
    assert "__version__" in listed
    assert listed == sorted(set(listed))


def test_an_unknown_name_is_an_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match=r"module 'latspace' has no attribute 'no_such_name'"):
        ls.no_such_name  # noqa: B018


def test_a_name_reads_its_modules_current_binding(monkeypatch):
    # Nothing is cached on the package: a name patched in its module reads
    # patched through the package, and the original once the patch is undone.
    original = spaces.validate_space_function
    assert ls.validate_space_function is original
    assert "validate_space_function" not in vars(ls)
    sentinel = object()
    monkeypatch.setattr(spaces, "validate_space_function", sentinel)
    assert ls.validate_space_function is sentinel
    monkeypatch.undo()
    assert ls.validate_space_function is original
    assert "validate_space_function" not in vars(ls)
