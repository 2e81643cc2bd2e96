import functools
import itertools
import operator
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import latspace as ls  # noqa: E402
from latspace import morphology, pbm, selfcheck  # noqa: E402
from latspace.errors import FormatError, TooLarge  # noqa: E402

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


def validation_verdicts(functions, rng) -> int:
    """validate_space_function gives the verdict and witness of the pair scan
    on each space function, on a copy with one entry redrawn, and on one
    random self-map fixing bottom per function; returns the number of maps
    compared."""
    checks = 0
    for name, fs in functions.items():
        for f in fs:
            lat = f.lattice
            at = rng.randrange(lat.n)
            redrawn = f.images[:at] + (rng.randrange(lat.n),) + f.images[at + 1:]
            noise = [rng.randrange(lat.n) for _ in range(lat.n)]
            noise[lat.bottom_id] = lat.bottom_id
            for images in (f.images, redrawn, tuple(noise)):
                got, want = ls.validate_space_function(lat, images), pair_scan_violation(lat, images)
                assert got == want, f"{name}: {images} gives {got}, the pair scan {want}"
                checks += 1
    return checks


def compositionality(systems) -> int:
    """Pooling two groups' spaces gives the space of their union: the
    subtraction recursion on δ_G and δ_H equals δ_{G∪H}, the meet on J, for
    every ordered pair of subgroups, the empty and equal ones included.
    Not in selfcheck's CHECKS, so its output stays fixed.  Returns the
    number of pairs compared."""
    checks = 0
    for k, scs in enumerate(systems):
        family = ls.DeltaFamily(scs)
        for g, h in itertools.product(selfcheck.subgroups(scs), repeat=2):
            pooled = ls.delta_pair_subtract(scs.lattice, family.get(g), family.get(h))
            assert pooled.images == family.get(set(g) | set(h)).images, (
                f"system {k}: pooling {list(g)} with {list(h)} differs from their union")
            checks += 1
    return checks


def agent_projection_reference(f, c):
    """Reference for spaces.agent_projection: the join, by join_of, of
    every element whose image under f lies below c."""
    lattice = f.lattice
    derivable = np.nonzero(lattice.leq[f.images, lattice.check_id(c)])[0]
    return lattice.join_of(derivable)


def closure_system_lattice(rng, points):
    """Random closure system on `points` points (the whole set, a few random
    subsets and every intersection of them) ordered by inclusion."""
    sets = {frozenset(range(points))}
    for _ in range(rng.randint(2, 5)):
        sets.add(frozenset(x for x in range(points) if rng.random() < 0.5))
    while True:
        meets = {a & b for a in sets for b in sets} - sets
        if not meets:
            break
        sets |= meets
    sets = sorted(sets, key=lambda x: (len(x), sorted(x)))
    leq = np.array([[a <= b for b in sets] for a in sets])
    return ls.FiniteLattice(["{" + ",".join(map(str, sorted(x))) + "}" for x in sets], leq)


def bound_table_reference(labels, above, kind):
    """Reference for the join table (the meet table from the transposed
    relation): for each pair (a, b), a <= b in row-major order, look up the
    element whose above-set is above[a] & above[b] in a dict of packed rows,
    and name the first pair that has none."""
    n = len(labels)
    packed = np.packbits(above.astype(np.uint8), axis=1)
    row_id = {packed[i].tobytes(): i for i in range(n)}
    table = np.zeros((n, n), dtype=np.int32)
    for a in range(n):
        common = packed[a] & packed
        for b in range(a, n):
            bound = row_id.get(common[b].tobytes())
            if bound is None:
                raise ls.NotALattice(
                    f"pair ({labels[a]!r}, {labels[b]!r}) has no unique {kind} bound"
                )
            table[a, b] = table[b, a] = bound
    return table


def distributivity_reference(lattice):
    """Reference for FiniteLattice.distributivity: for each join-irreducible
    j in id order, one n x n scan for the pairs whose join lies above j while
    neither member does; the first such pair of the first such j gives the
    witness, (b, j, a) or (j meet a, j, b)."""
    jt, mt, leq = lattice.join_table, lattice.meet_table, lattice.leq
    for j in lattice.irreducibles:
        up = leq[j]
        broken = up[jt] & ~up[:, None] & ~up[None, :]
        if broken.any():
            a, b = map(int, np.argwhere(broken)[0])
            if jt[b, mt[j, a]] != jt[b, j]:
                return False, (b, j, a)
            return False, (int(mt[j, a]), j, b)
    return True, None


def backtracking_space_functions(lattice, below=None) -> list[tuple[int, ...]]:
    """Reference for enumerate_space_functions, in its order: assign images
    to the join-irreducibles in topological order (by how many irreducibles
    lie below, ties by id), each ascending from the join of the images below
    it and under the meet of the bounds' images there; extend every full
    assignment by joins, element by element, and keep the extensions that
    preserve every binary join."""
    irr = lattice.irreducibles
    leq, join, meet = lattice.leq_rows, lattice.join_rows, lattice.meet_rows
    order = sorted(irr, key=lambda j: sum(leq[i][j] for i in irr))
    preds = [[i for i in order if i != j and leq[i][j]] for j in order]
    irr_below = [[j for j in irr if leq[j][x]] for x in range(lattice.n)]
    bounds = [lattice.top_id] * len(order)
    for f in below or ():
        bounds = [meet[b][f.images[j]] for b, j in zip(bounds, order)]
    assign = {}
    out = []

    def backtrack(i):
        if i == len(order):
            images = []
            for x in range(lattice.n):
                acc = lattice.bottom_id
                for j in irr_below[x]:
                    acc = join[acc][assign[j]]
                images.append(acc)
            img = np.array(images)
            if (img[lattice.join_table] == lattice.join_table[np.ix_(img, img)]).all():
                out.append(tuple(images))
            return
        floor = lattice.bottom_id
        for p in preds[i]:
            floor = join[floor][assign[p]]
        for v in range(lattice.n):
            if leq[floor][v] and leq[v][bounds[i]]:
                assign[order[i]] = v
                backtrack(i + 1)

    backtrack(0)
    return out


def oplus_rhs_reference(x, a, b):
    """Reference for morphology.oplus_law_rhs: for every subset y of x, by
    size and then in combinations order, build the point sets y and x minus
    y and intersect (y + a) union ((x minus y) + b) into the result."""
    dim = morphology._same_dim(x, a, b)
    pts = x.sorted_points()
    acc = None
    for r in range(len(pts) + 1):
        for chosen in itertools.combinations(pts, r):
            y = morphology.PointSet(dim, frozenset(chosen))
            rest = morphology.PointSet(dim, x.points - y.points)
            term = morphology.minkowski_sum(y, a).points | morphology.minkowski_sum(rest, b).points
            acc = term if acc is None else acc & term
    return morphology.PointSet(dim, acc)


def oplus_rhs_table_reference(x, a, b):
    """Reference for morphology.oplus_law_rhs with whole-set tables: ya[s]
    and yb[s], the unions of the a- and b-translate masks of the points in
    each subset s of x, doubled once per point, then the AND over every s
    of ya[s] | yb[full ^ s], read as yb backwards.  Holds 2^k masks."""
    dim = morphology._same_dim(x, a, b)
    pts = x.sorted_points()
    plus_a = [[morphology._add(p, v) for v in a.points] for p in pts]
    plus_b = [[morphology._add(p, v) for v in b.points] for p in pts]
    universe = sorted(set().union(*plus_a, *plus_b))
    bit = {u: 1 << i for i, u in enumerate(universe)}
    ya, yb = [0], [0]
    for translates_a, translates_b in zip(plus_a, plus_b):
        mask_a = sum(bit[u] for u in translates_a)
        mask_b = sum(bit[u] for u in translates_b)
        ya += [m | mask_a for m in ya]
        yb += [m | mask_b for m in yb]
    rhs = functools.reduce(operator.and_, map(operator.or_, ya, reversed(yb)))
    return morphology.PointSet(dim, frozenset(u for i, u in enumerate(universe) if rhs >> i & 1))


def parse_pbm_reference(text, *, center_origin=False):
    """Reference for pbm.parse_pbm_with_canvas: strip each line's comment
    after its first '#', read origin comments line by line, and test every
    pixel of the joined bit string."""
    origin = None
    tokens = []
    for line in text.splitlines():
        body, _, comment = line.partition("#")
        comment = comment.strip()
        parts = comment.split()
        if parts[:1] == ["origin"]:
            if len(parts) != 3:
                raise FormatError(f"malformed origin comment {comment!r}")
            try:
                origin = (int(parts[1]), int(parts[2]))
            except ValueError:
                raise FormatError(f"malformed origin comment {comment!r}") from None
        tokens.extend(body.split())
    if not tokens or tokens[0] != "P1":
        raise FormatError("expected a plain PBM file (magic P1)")
    try:
        width, height = int(tokens[1]), int(tokens[2])
    except (IndexError, ValueError) as exc:
        raise FormatError(f"malformed PBM header: {exc}") from None
    if width < 1 or height < 1:
        raise FormatError("PBM dimensions must be positive")
    if width * height > pbm.MAX_PIXELS:
        raise TooLarge(f"{width}x{height} raster exceeds the cap of {pbm.MAX_PIXELS} pixels")
    bits = "".join(tokens[3:])
    if len(bits) != width * height or set(bits) - {"0", "1"}:
        raise FormatError(f"expected {width * height} bits of 0/1 data, got {len(bits)}")
    if origin is None:
        origin = ((width - 1) // 2, (height - 1) // 2) if center_origin else (0, 0)
    oc, orow = origin
    points = set()
    for row in range(height):
        for col in range(width):
            if bits[row * width + col] == "1":
                points.add((col - oc, orow - row))
    canvas = (-oc, -orow, width - 1 - oc, height - 1 - orow)
    return morphology.PointSet(2, frozenset(points)), canvas


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
