"""The public API takes no size caps or check switches as parameters.

Every cap is a module constant; the one settable limit is the
LATSPACE_MAX_ENUM environment variable.
"""

import importlib
import inspect
import re
from pathlib import Path

import latspace as ls

FORBIDDEN = re.compile(r"^(max|check)_")


def public_callables():
    for name in ls.__all__:
        obj = getattr(ls, name)
        if inspect.isclass(obj):
            yield f"{name}.__init__", obj.__init__
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and callable(getattr(obj, attr)):
                    yield f"{name}.{attr}", getattr(obj, attr)
        elif inspect.isfunction(obj):
            yield name, obj


def test_no_public_callable_takes_a_cap_parameter():
    offenders = []
    checked = 0
    for name, func in public_callables():
        try:
            params = inspect.signature(func).parameters
        except (TypeError, ValueError):  # builtins without a signature
            continue
        checked += 1
        offenders += [f"{name}({p})" for p in params if FORBIDDEN.match(p)]
    assert checked > 50
    assert offenders == []


README = Path(__file__).resolve().parent.parent / "README.md"
CAP_ROW = re.compile(r"^\| `(\w+)\.(\w+)` \| ([^|]*) \|", re.MULTILINE)
CAP_VALUE = re.compile(r"(\d+)\^(\d+)|\d{1,3}(?:,\d{3})+|\d+")


def readme_caps():
    """(module, constant, value) for each row of the README "Size caps"
    table, the value read from the head of its cell: 2^k or a decimal
    integer, commas allowed."""
    section = README.read_text(encoding="utf-8").split("## Size caps", 1)[1].split("\n## ", 1)[0]
    rows = []
    for module, name, cell in CAP_ROW.findall(section):
        m = CAP_VALUE.match(cell)
        assert m, f"{module}.{name}: no value at the head of {cell!r}"
        value = int(m[1]) ** int(m[2]) if m[1] else int(m[0].replace(",", ""))
        rows.append((module, name, value))
    return rows


def test_readme_size_caps_match_the_constants():
    rows = readme_caps()
    assert {f"{module}.{name}" for module, name, _ in rows} == {
        "lattice.MAX_ELEMENTS",
        "spaces.DEFAULT_MAX_ENUM",
        "distributed.MAX_GDC_AGENTS",
        "morphology.MAX_OPLUS_POINTS",
        "pbm.MAX_PIXELS",
    }
    for module, name, value in rows:
        assert getattr(importlib.import_module(f"latspace.{module}"), name) == value, f"{module}.{name}"
