"""Space functions: join- and bottom-preserving self-maps on a lattice.

Holds validation against the two space axioms, the point-wise function
order, agent projections, and the exhaustive enumeration of all space
functions on a lattice.  Validation checks join preservation (S.2) only
on the pairs (x, j) with j join-irreducible: every element is a join of
join-irreducibles, so with bottom fixed (S.1) those pairs give all of
S.2, on any finite lattice.  The enumeration doubles as the ground-truth
oracle for distributed-space computations: the meet of a set of space
functions is the point-wise join of every space function below all of
them.  Space functions and agent systems are immutable once validated;
enumeration yields a deterministic, canonically ordered stream.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    FormatError,
    InvalidElement,
    LatticeMismatch,
    NotASpaceFunction,
    TooLarge,
    UnknownAgent,
)
from .lattice import FiniteLattice

# Enumeration candidates visited by the oracle.  Each costs a validated
# extension, about 26 us on lattices of up to 16 elements, so the budget
# takes about 6.5 s there (more on larger lattices; see README).
DEFAULT_MAX_ENUM = 250_000


class AxiomViolation(NamedTuple):
    """First failing space axiom and the witnessing element(s)."""

    axiom: str  # "S.1" or "S.2"
    witness: tuple[int, ...]

    def describe(self, lattice: FiniteLattice) -> str:
        names = ", ".join(lattice.labels[w] for w in self.witness)
        return f"violates {self.axiom} at ({names})"


def _is_space_function(lattice: FiniteLattice, img: np.ndarray) -> bool:
    """Verdict of validate_space_function on an array of element ids,
    without looking up a witness."""
    irr, columns = lattice.irreducible_columns
    return bool(
        img[lattice.bottom_id] == lattice.bottom_id
        and (img[columns] == lattice.join_table[img[:, None], img[irr]]).all()
    )


def validate_space_function(lattice: FiniteLattice, images) -> AxiomViolation | None:
    """Check S.1 (bottom to bottom) and S.2 (binary joins preserved).

    Returns None when both axioms hold, else the first violation: S.1 at
    bottom, or the first pair (a, b) in row-major order with
    f(a join b) != f(a) join f(b).  On a finite lattice S.1 and S.2
    already give preservation of arbitrary joins, so nothing further is
    checked.

    S.2 is decided on the n x |J| pairs (x, j) with j in the set J of
    join-irreducibles.  Every y is a join j1 join ... join jk of
    irreducibles (k = 0 for bottom).  Given f(bottom) = bottom, induction
    on k gives f(x join y) = f(x) join f(y) for every x:
    f(x join y' join jk) = f(x join y') join f(jk)
    = f(x) join f(y') join f(jk) = f(x) join f(y' join jk), where
    y' = j1 join ... join j(k-1).  This holds on every finite lattice,
    distributive or not.  Only a failed verdict scans all n^2 pairs for
    the witness.
    """
    img = np.asarray(images, dtype=np.int32)
    n = lattice.n
    if img.shape != (n,):
        raise InvalidElement(f"expected {n} images, got shape {img.shape}")
    if img.min() < 0 or img.max() >= n:
        bad = int(np.argmax((img < 0) | (img >= n)))
        raise InvalidElement(f"image of {lattice.labels[bad]!r} is not an element id")
    if _is_space_function(lattice, img):
        return None
    if img[lattice.bottom_id] != lattice.bottom_id:
        return AxiomViolation("S.1", (lattice.bottom_id,))
    diff = img[lattice.join_table] != lattice.join_table[np.ix_(img, img)]
    return AxiomViolation("S.2", divmod(int(np.argmax(diff)), n))


@dataclass(frozen=True)
class SpaceFunction:
    """A validated space function: images[x] is the image of element x."""

    lattice: FiniteLattice
    images: tuple[int, ...]

    def __post_init__(self):
        violation = validate_space_function(self.lattice, self.images)
        if violation is not None:
            raise NotASpaceFunction(violation.describe(self.lattice))
        object.__setattr__(self, "images", tuple(int(x) for x in self.images))

    def __call__(self, x: int) -> int:
        return self.images[self.lattice.check_id(x)]

    def __repr__(self) -> str:
        arrows = ", ".join(
            f"{self.lattice.labels[i]}→{self.lattice.labels[y]}"
            for i, y in enumerate(self.images)
        )
        return f"SpaceFunction({arrows})"

    def table(self) -> list[tuple[str, str]]:
        return [
            (self.lattice.labels[i], self.lattice.labels[y])
            for i, y in enumerate(self.images)
        ]


def identity_function(lattice: FiniteLattice) -> SpaceFunction:
    return SpaceFunction(lattice, tuple(range(lattice.n)))


def bottom_function(lattice: FiniteLattice) -> SpaceFunction:
    """The constant-bottom map: the greatest space in the function order."""
    return SpaceFunction(lattice, (lattice.bottom_id,) * lattice.n)


def top_function(lattice: FiniteLattice) -> SpaceFunction:
    """bottom at bottom, top elsewhere: the least space."""
    images = [lattice.top_id] * lattice.n
    images[lattice.bottom_id] = lattice.bottom_id
    return SpaceFunction(lattice, tuple(images))


class Classification(NamedTuple):
    idempotent: bool
    extensive: bool


def classify_images(lattice: FiniteLattice, images) -> Classification:
    """Classification of an arbitrary self-map given as an image array."""
    img = [lattice.check_id(x) for x in images]
    leq = lattice.leq
    idem = all(img[img[x]] == img[x] for x in range(lattice.n))
    ext = all(leq[x, img[x]] for x in range(lattice.n))
    return Classification(idem, ext)


def classify(f: SpaceFunction) -> Classification:
    """Idempotent: f(f(x)) = f(x); extensive: f(x) above x, for all x."""
    return classify_images(f.lattice, f.images)


def _same_lattice(fs: Sequence[SpaceFunction]) -> FiniteLattice:
    if not fs:
        raise LatticeMismatch("expected at least one space function")
    lattice = fs[0].lattice
    for f in fs[1:]:
        if f.lattice is not lattice:
            raise LatticeMismatch("space functions live on different lattices")
    return lattice


def function_leq(f: SpaceFunction, g: SpaceFunction) -> bool:
    """Point-wise order: f below g iff f(x) below g(x) everywhere."""
    lattice = _same_lattice([f, g])
    return all(lattice.leq[a, b] for a, b in zip(f.images, g.images))


def pointwise_join(fs: Sequence[SpaceFunction]) -> SpaceFunction:
    """Point-wise join; always a space function (join in the function lattice)."""
    lattice = _same_lattice(fs)
    jt = lattice.join_table
    images = reduce(
        lambda acc, f: [int(jt[a, b]) for a, b in zip(acc, f.images)],
        fs[1:],
        list(fs[0].images),
    )
    return SpaceFunction(lattice, tuple(images))


def pointwise_meet_raw(fs: Sequence[SpaceFunction]) -> list[int]:
    """Point-wise meet as a raw image array.

    In general this is NOT a space function; callers must run
    validate_space_function before trusting it.
    """
    lattice = _same_lattice(fs)
    mt = lattice.meet_table
    return reduce(
        lambda acc, f: [int(mt[a, b]) for a, b in zip(acc, f.images)],
        fs[1:],
        list(fs[0].images),
    )


# -- enumeration -------------------------------------------------------------


def _irreducible_structure(lattice: FiniteLattice):
    """Toposorted irreducibles, their irreducible predecessors, and the
    per-element irreducible down-sets used to extend assignments."""
    irr = lattice.irreducibles
    leq = lattice.leq_rows
    order = sorted(irr, key=lambda j: sum(leq[i][j] for i in irr))
    preds = [[i for i in order if i != j and leq[i][j]] for j in order]
    below = [[j for j in irr if leq[j][x]] for x in range(lattice.n)]
    return order, preds, below


def _extend(lattice: FiniteLattice, assign: dict[int, int], below) -> list[int]:
    """Extend an irreducible assignment by joins: f(x) = join of f over
    irreducibles below x.  The empty join lands on bottom, giving S.1."""
    join = lattice.join_rows
    bot = lattice.bottom_id
    images = []
    for x in range(lattice.n):
        acc = bot
        for j in below[x]:
            acc = join[acc][assign[j]]
        images.append(acc)
    return images


def enumeration_size_estimate(
    lattice: FiniteLattice, below: Sequence[SpaceFunction] | None = None
) -> int:
    """Upper bound on the number of candidate assignments to be visited."""
    order, _, _ = _irreducible_structure(lattice)
    if below:
        mt = lattice.meet_rows
        est = 1
        for j in order:
            bound = reduce(lambda acc, f: mt[acc][f.images[j]], below, lattice.top_id)
            est *= len(lattice.down_ids(bound))
        return est
    return lattice.n ** len(order)


def iter_space_functions(
    lattice: FiniteLattice,
    below: Sequence[SpaceFunction] | None = None,
) -> Iterator[SpaceFunction]:
    """Generate every space function on the lattice, in a deterministic order.

    Candidates assign images to join-irreducible elements (monotone along
    the irreducible order and, when `below` is given, under the point-wise
    meet of the bounds, pruned during generation); each assignment extends
    to the whole lattice by joins.  On a distributive lattice every
    extension satisfies the axioms; otherwise extensions are filtered by
    validation.
    """
    if below:
        if any(f.lattice is not lattice for f in below):
            raise LatticeMismatch("bounds live on a different lattice")
    cap = enum_budget()
    estimate = enumeration_size_estimate(lattice, below)
    if estimate > cap:
        raise TooLarge(
            f"enumeration would visit about {estimate} candidates, cap is {cap}"
        )

    order, preds, below_irr = _irreducible_structure(lattice)
    leq = lattice.leq_rows
    join = lattice.join_rows
    mt = lattice.meet_rows
    bounds = None
    if below is not None:
        bounds = [
            reduce(lambda acc, f: mt[acc][f.images[j]], below, lattice.top_id)
            for j in order
        ]
    up_sets = [[y for y in range(lattice.n) if leq[x][y]] for x in range(lattice.n)]
    need_filter = not lattice.is_distributive
    assign: dict[int, int] = {}
    m = len(order)

    def backtrack(i: int) -> Iterator[SpaceFunction]:
        if i == m:
            images = _extend(lattice, assign, below_irr)
            if need_filter and not _is_space_function(lattice, np.asarray(images)):
                return
            yield SpaceFunction(lattice, tuple(images))
            return
        j = order[i]
        floor = lattice.bottom_id
        for p in preds[i]:
            floor = join[floor][assign[p]]
        for v in up_sets[floor]:
            if bounds is not None and not leq[v][bounds[i]]:
                continue
            assign[j] = v
            yield from backtrack(i + 1)
        assign.pop(j, None)

    yield from backtrack(0)


def enumerate_space_functions(
    lattice: FiniteLattice,
    below: Sequence[SpaceFunction] | None = None,
) -> list[SpaceFunction]:
    return list(iter_space_functions(lattice, below))


def function_meet_oracle(lattice: FiniteLattice, fs: Sequence[SpaceFunction]) -> SpaceFunction:
    """Exact meet in the lattice of space functions, by brute enumeration.

    Point-wise join of every space function below all of `fs`; with no
    bounds this is the join of all space functions, the least space.
    Correct on arbitrary finite lattices, feasible only on small ones.
    """
    members = enumerate_space_functions(lattice, fs or None)
    return pointwise_join(members)


def enum_budget() -> int:
    """Enumeration budget: LATSPACE_MAX_ENUM if set, else DEFAULT_MAX_ENUM.

    Bounds the candidates of the enumeration oracle and the tuples of
    the direct tuple scan.
    """
    raw = os.environ.get("LATSPACE_MAX_ENUM")
    if not raw:
        return DEFAULT_MAX_ENUM
    try:
        return int(raw)
    except ValueError:
        raise FormatError(f"LATSPACE_MAX_ENUM must be an integer, got {raw!r}") from None


def random_space_function(lattice: FiniteLattice, rng) -> SpaceFunction:
    """Seeded random space function via a monotone irreducible assignment.

    On non-distributive lattices the extension may fail validation, in
    which case another draw is made.
    """
    order, preds, below = _irreducible_structure(lattice)
    join = lattice.join_rows
    while True:
        assign: dict[int, int] = {}
        for i, j in enumerate(order):
            floor = lattice.bottom_id
            for p in preds[i]:
                floor = join[floor][assign[p]]
            assign[j] = rng.choice(lattice.up_ids(floor))
        images = _extend(lattice, assign, below)
        if _is_space_function(lattice, np.asarray(images)):
            return SpaceFunction(lattice, tuple(images))


# -- projections --------------------------------------------------------------


def agent_projection(f: SpaceFunction, c: int) -> int:
    """Join of every element whose image under f is derivable from c.

    The adjoint of f: extracts all information f's agent holds in c.
    """
    lattice = f.lattice
    c = lattice.check_id(c)
    img = np.asarray(f.images, dtype=np.int32)
    derivable = np.nonzero(lattice.leq[img, c])[0]
    return lattice.join_of(derivable)


# -- agent systems -------------------------------------------------------------


@dataclass(frozen=True)
class Scs:
    """A lattice together with named agent space functions."""

    lattice: FiniteLattice
    agents: dict[str, SpaceFunction] = field(default_factory=dict)

    def __post_init__(self):
        for name, f in self.agents.items():
            if f.lattice is not self.lattice:
                raise LatticeMismatch(f"agent {name!r} lives on a different lattice")

    def agent(self, name: str) -> SpaceFunction:
        try:
            return self.agents[name]
        except KeyError:
            raise UnknownAgent(f"unknown agent {name!r}") from None

    def group(self, names) -> list[str]:
        names = [str(x) for x in names]
        for name in names:
            self.agent(name)
        return sorted(set(names))

    def to_json(self) -> dict:
        return {
            "lattice": self.lattice.to_json(),
            "agents": {
                name: [self.lattice.labels[y] for y in f.images]
                for name, f in self.agents.items()
            },
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, ensure_ascii=False, indent=1)
            fh.write("\n")

    @classmethod
    def from_json(cls, doc: dict, *, base_dir: str = ".") -> "Scs":
        agents_doc = doc.get("agents", {}) if isinstance(doc, dict) else None
        if not isinstance(agents_doc, dict):
            raise InvalidElement(
                "malformed agent-system document: expected an object whose "
                "agents entry is an object"
            )
        lattice_doc = doc.get("lattice")
        if isinstance(lattice_doc, str):
            lattice = FiniteLattice.load(os.path.join(base_dir, lattice_doc))
        else:
            lattice = FiniteLattice.from_json(lattice_doc)
        agents = {}
        for name, spec in agents_doc.items():
            agents[str(name)] = _parse_images(lattice, spec)
        return cls(lattice, agents)

    @classmethod
    def load(cls, path) -> "Scs":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls.from_json(doc, base_dir=os.path.dirname(os.path.abspath(path)))


def _parse_images(lattice: FiniteLattice, spec) -> SpaceFunction:
    """Agent images: either plain image labels in element order, or
    arrow entries "src→dst" in any order (also accepts "->")."""
    if not isinstance(spec, list) or len(spec) != lattice.n:
        raise InvalidElement(
            f"agent needs {lattice.n} image entries, got {spec!r}"
        )
    entries = [str(s) for s in spec]
    if any("→" in s or "->" in s for s in entries):
        images = [-1] * lattice.n
        for entry in entries:
            sep = "→" if "→" in entry else "->"
            src, _, dst = entry.partition(sep)
            images[lattice.id_of(src.strip())] = lattice.id_of(dst.strip())
        if -1 in images:
            missing = lattice.labels[images.index(-1)]
            raise InvalidElement(f"no image listed for element {missing!r}")
    else:
        images = [lattice.id_of(s) for s in entries]
    return SpaceFunction(lattice, tuple(images))
