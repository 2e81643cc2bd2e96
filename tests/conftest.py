import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import latspace as ls  # noqa: E402
from latspace import selfcheck  # noqa: E402

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def canonical():
    return ls.fixtures()


@pytest.fixture(scope="session")
def space_functions(canonical):
    """Every space function on each canonical lattice, enumerated once."""
    return {name: ls.enumerate_space_functions(lat) for name, lat in canonical.items()}


@pytest.fixture(scope="session")
def selfcheck_lines():
    """Output lines of one in-process `selfcheck --seed 7`."""
    lines = []
    selfcheck.run_selfcheck(7, emit=lines.append)
    return lines


@pytest.fixture(scope="session")
def m2(canonical):
    return canonical["M2"]


@pytest.fixture(scope="session")
def m3(canonical):
    return canonical["M3"]


@pytest.fixture(scope="session")
def n5(canonical):
    return canonical["N5"]


@pytest.fixture(scope="session")
def m2_scs(m2):
    """The recurring two-agent system: agent 1 swaps p and ¬p, agent 2
    collapses p into the top."""
    swap = ls.SpaceFunction(m2, (0, 2, 1, 3))
    collapse = ls.SpaceFunction(m2, (0, 3, 2, 3))
    return ls.Scs(m2, {"1": swap, "2": collapse})


def brute_force_space_functions(lattice) -> list[tuple[int, ...]]:
    """Filtration oracle: test every total self-map against the axioms."""
    out = []
    for images in itertools.product(range(lattice.n), repeat=lattice.n):
        if ls.validate_space_function(lattice, images) is None:
            out.append(images)
    return out


def pair_scan_violation(lattice, images):
    """Reference for validate_space_function: S.1, then every pair (a, b) in
    row-major order against f(a join b) = f(a) join f(b)."""
    if images[lattice.bottom_id] != lattice.bottom_id:
        return ls.AxiomViolation("S.1", (lattice.bottom_id,))
    jt = lattice.join_rows
    for a, b in itertools.product(range(lattice.n), repeat=2):
        if images[jt[a][b]] != jt[images[a]][images[b]]:
            return ls.AxiomViolation("S.2", (a, b))
    return None


# Non-distributive shapes stacked above a powerset's top: (new labels, covers
# among them); None stands for the powerset's top.
STACKS = {
    "M3": (["x", "y", "z", "1"],
           [(None, "x"), (None, "y"), (None, "z"), ("x", "1"), ("y", "1"), ("z", "1")]),
    "N5": (["p", "q", "r", "1"],
           [(None, "p"), ("p", "q"), ("q", "1"), (None, "r"), ("r", "1")]),
}


def stacked_lattice(k, shape):
    """Powerset of k generators with M3 or N5 stacked above its top."""
    base = ls.powerset_lattice([f"g{i}" for i in range(k)])
    top = base.labels[base.top_id]
    extras, links = STACKS[shape]
    covers = base.cover_pairs() + [(lo or top, hi) for lo, hi in links]
    return ls.build_lattice(list(base.labels) + extras, covers)
