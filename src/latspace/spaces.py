"""Space functions: join- and bottom-preserving self-maps on a lattice.

Holds validation against the two space axioms, the point-wise function
order, agent projections, and the exhaustive enumeration of all space
functions on a lattice.  Validation checks join preservation (S.2) only
on the pairs (x, j) with j join-irreducible: every element is a join of
join-irreducibles, so with bottom fixed (S.1) those pairs give all of
S.2, on any finite lattice.  The enumeration doubles as the ground-truth
oracle for distributed-space computations: the meet of a set of space
functions is the point-wise join of every space function below all of
them.  It extends candidate images on the join-irreducibles by joins
(FiniteLattice.extend), a block of candidates at a time, and lists the
space functions in a deterministic, lexicographic order.  Space
functions and agent systems are immutable once validated.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from functools import reduce
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    FormatError,
    InvalidElement,
    LatticeMismatch,
    NotASpaceFunction,
    TooLarge,
    UnknownAgent,
    json_list,
    json_object,
    read_json,
)
from .lattice import FiniteLattice

# Enumeration candidates visited by the oracle.  Extended and validated in
# blocks, they cost about 1-2 us each at up to 16 elements, so the oracle
# spends the budget in about 0.4 s there; enumerate_space_functions also
# builds a SpaceFunction per member, about 3-4 us each at 16 elements and
# 7-10 us at 64.  survey_tuple_formula scans at most this many pairs, about
# 4 us each at 8 elements (see README).
DEFAULT_MAX_ENUM = 250_000

# Cells of one block of pairs (x, j) in _is_space_function, about 16 bytes
# each at the peak: an enumeration block on a 1024-element lattice can
# reach about 16M cells, 16 candidates of n x |J| on the chain.
_VERDICT_CELLS = 1 << 20


class AxiomViolation(NamedTuple):
    """First failing space axiom and the witnessing element(s)."""

    axiom: str  # "S.1" or "S.2"
    witness: tuple[int, ...]

    def describe(self, lattice: FiniteLattice) -> str:
        names = ", ".join(lattice.labels[w] for w in self.witness)
        return f"violates {self.axiom} at ({names})"


def _is_space_function(lattice: FiniteLattice, img: np.ndarray) -> np.ndarray:
    """Verdict of validate_space_function on an array of element ids,
    without looking up a witness; on an n x B array, one per column.  A
    column's pairs (x, j) take n x |J| cells, so the columns go in blocks
    of at most about _VERDICT_CELLS cells (one column when it has more)."""
    irr, columns = lattice.irreducible_columns
    joins = lattice.join_table.ravel()

    def verdict(block):
        pooled = joins.take(block[:, None] * lattice.n + block.take(irr, axis=0))
        return (block[lattice.bottom_id] == lattice.bottom_id) & (
            block.take(columns, axis=0) == pooled
        ).all(axis=(0, 1))

    if img.ndim == 1:
        return verdict(img)
    step = max(1, _VERDICT_CELLS // max(columns.size, 1))
    return np.concatenate([verdict(img[:, k : k + step]) for k in range(0, max(img.shape[1], 1), step)])


def _image_array(lattice: FiniteLattice, images) -> np.ndarray:
    """Any image sequence as an int32 array of n element ids, or InvalidElement."""
    img = np.asarray(images, dtype=np.int32)
    n = lattice.n
    if img.shape != (n,):
        raise InvalidElement(f"expected {n} images, got shape {img.shape}")
    if img.min() < 0 or img.max() >= n:
        bad = int(np.argmax((img < 0) | (img >= n)))
        raise InvalidElement(f"image of {lattice.labels[bad]!r} is not an element id")
    return img


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
    img = _image_array(lattice, images)
    if _is_space_function(lattice, img):
        return None
    return _first_violations(lattice, img[:, None])[0]


def _first_violations(lattice: FiniteLattice, img: np.ndarray) -> list[AxiomViolation]:
    """The violation validate_space_function reports for each column of
    an n x B array of element ids, none of which is a space function:
    S.1 at bottom, else the first pair (a, b) in row-major order with
    f(a join b) != f(a) join f(b).  Scans n^2 pairs per column.
    """
    jt = lattice.join_table
    bot = lattice.bottom_id
    diff = img[jt] != jt[img[:, None], img[None, :]]
    first = np.argmax(diff.reshape(lattice.n**2, -1), axis=0)
    return [
        AxiomViolation("S.1", (bot,)) if img[bot, k] != bot
        else AxiomViolation("S.2", divmod(int(first[k]), lattice.n))
        for k in range(img.shape[1])
    ]


@dataclass(frozen=True)
class SpaceFunction:
    """A validated space function: images[x] is the image of element x, a Python int."""

    lattice: FiniteLattice
    images: tuple[int, ...]

    def __post_init__(self):
        img = np.asarray(self.images, dtype=np.int32)
        violation = validate_space_function(self.lattice, img)
        if violation is not None:
            raise NotASpaceFunction(violation.describe(self.lattice))
        object.__setattr__(self, "images", tuple(img.tolist()))

    @classmethod
    def _validated(cls, lattice: FiniteLattice, images: tuple[int, ...]) -> "SpaceFunction":
        """A space function built without a verdict: a member of
        enumerate_space_functions (already judged), a pooled group on a
        distributive lattice or a constant space below, which are space
        functions by construction."""
        f = object.__new__(cls)
        object.__setattr__(f, "lattice", lattice)
        object.__setattr__(f, "images", images)
        return f

    def __call__(self, x: int) -> int:
        return self.images[self.lattice.check_id(x)]

    def __repr__(self) -> str:
        arrows = ", ".join(
            f"{self.lattice.labels[i]}→{self.lattice.labels[y]}"
            for i, y in enumerate(self.images)
        )
        return f"SpaceFunction({arrows})"


def identity_function(lattice: FiniteLattice) -> SpaceFunction:
    return SpaceFunction._validated(lattice, tuple(range(lattice.n)))


def bottom_function(lattice: FiniteLattice) -> SpaceFunction:
    """The constant-bottom map: the greatest space in the function order."""
    return SpaceFunction._validated(lattice, (lattice.bottom_id,) * lattice.n)


def top_function(lattice: FiniteLattice) -> SpaceFunction:
    """bottom at bottom, top elsewhere: the least space.  It preserves
    joins on every lattice, as x join y is bottom only when x and y are."""
    images = [lattice.top_id] * lattice.n
    images[lattice.bottom_id] = lattice.bottom_id
    return SpaceFunction._validated(lattice, tuple(images))


class Classification(NamedTuple):
    idempotent: bool
    extensive: bool


def classify_images(lattice: FiniteLattice, images) -> Classification:
    """Classification of an arbitrary self-map given as an image array."""
    img = _image_array(lattice, images)
    extensive = lattice.leq[np.arange(lattice.n), img].all()
    return Classification(bool((img[img] == img).all()), bool(extensive))


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
    return SpaceFunction(lattice, reduce(lambda acc, f: jt[acc, f.images], fs[1:], fs[0].images))


def pointwise_meet_raw(fs: Sequence[SpaceFunction]) -> list[int]:
    """Point-wise meet as a raw image array.

    In general this is NOT a space function; callers must run
    validate_space_function before trusting it.
    """
    lattice = _same_lattice(fs)
    mt = lattice.meet_table
    return reduce(lambda acc, f: mt[acc, f.images], fs[1:], np.asarray(fs[0].images)).tolist()


# -- enumeration -------------------------------------------------------------

# Cells (elements x candidates) per block of the enumeration; it bounds the
# temporaries of one extension and its validation.
_BLOCK_CELLS = 1 << 14


def _irreducible_order(lattice: FiniteLattice) -> tuple[np.ndarray, np.ndarray]:
    """(order, below): the positions k in lattice.irreducibles sorted by how
    many irreducibles lie below each (ties by id), a topological order, and
    below[k, l] iff irreducibles[k] lies strictly below irreducibles[l]."""
    irr = lattice.irreducible_columns[0]
    below = lattice.leq[np.ix_(irr, irr)] & ~np.eye(len(irr), dtype=bool)
    return np.argsort(below.sum(axis=0), kind="stable"), below


def _irreducible_meet(lattice: FiniteLattice, fs, members=None) -> np.ndarray:
    """Point-wise meet of the functions' images on the irreducibles, in
    the order of lattice.irreducibles; top at each when there are none.
    Each function is read at the irreducibles once.  With an m x G bool
    array `members` the result has a batch axis of G groups: column g
    meets the functions whose row is True at g, the others adding top,
    the unit of the meet."""
    irr, top, gather = lattice.irreducibles, lattice.top_id, lattice.irreducible_keys[0]
    fs = fs or ()
    at_irr = np.array([gather(f.images) for f in fs], dtype=np.intp).reshape(len(fs), len(irr))
    if members is not None:
        at_irr = np.where(members[:, None, :], at_irr[:, :, None], top)
    return reduce(lambda acc, values: lattice.meet_table[acc, values], at_irr,
                  np.full(at_irr.shape[1:], top, dtype=np.intp))


def _allowed_images(lattice: FiniteLattice, below) -> list[np.ndarray]:
    """For each irreducible j, the ids below the meet of the bounds' images
    at j; every id when there are no bounds."""
    return [np.flatnonzero(lattice.leq[:, b]) for b in _irreducible_meet(lattice, below)]


def enumeration_size_estimate(
    lattice: FiniteLattice, below: Sequence[SpaceFunction] | None = None
) -> int:
    """Number of candidate assignments the enumeration visits."""
    return math.prod(len(ids) for ids in _allowed_images(lattice, below))


def _space_function_blocks(
    lattice: FiniteLattice, below: Sequence[SpaceFunction] | None = None
) -> Iterator[np.ndarray]:
    """Every space function (below all of `below`), as n x B image blocks.

    The candidates are the product of each irreducible's allowed images,
    in lexicographic order along the topological order of the
    irreducibles, the last one fastest.  Each block drops the candidates
    that are not monotone along J, extends the rest by joins and keeps
    the extensions that pass validation; on a distributive lattice all
    of them do.
    """
    if below and any(f.lattice is not lattice for f in below):
        raise LatticeMismatch("bounds live on a different lattice")
    cap = enum_budget()
    estimate = enumeration_size_estimate(lattice, below)
    if estimate > cap:
        raise TooLarge(
            f"enumeration would visit about {estimate} candidates, cap is {cap}"
        )
    order, strictly_below = _irreducible_order(lattice)
    lo, hi = np.nonzero(strictly_below)
    allowed = _allowed_images(lattice, below)
    step = max(1, _BLOCK_CELLS // lattice.n)
    for start in range(0, estimate, step):
        rest = np.arange(start, min(start + step, estimate))
        values = np.empty((len(allowed), len(rest)), dtype=np.int32)
        for k in order[::-1]:  # mixed-radix digits
            rest, digit = np.divmod(rest, len(allowed[k]))
            values[k] = allowed[k][digit]
        values = values[:, lattice.leq[values[lo], values[hi]].all(axis=0)]
        images = lattice.extend(values)
        yield images[:, _is_space_function(lattice, images)]


def enumerate_space_functions(
    lattice: FiniteLattice,
    below: Sequence[SpaceFunction] | None = None,
) -> list[SpaceFunction]:
    """Every space function on the lattice, below all of `below` when given.

    The order is deterministic: lexicographic in the images of the
    join-irreducibles, taken in topological order.
    """
    return [
        SpaceFunction._validated(lattice, tuple(images))
        for block in _space_function_blocks(lattice, below)
        for images in block.T.tolist()
    ]


def function_meet_oracle(lattice: FiniteLattice, fs: Sequence[SpaceFunction]) -> SpaceFunction:
    """Exact meet in the lattice of space functions, by brute enumeration.

    Point-wise join of every space function below all of `fs`; with no
    bounds this is the join of all space functions, the least space.
    Correct on arbitrary finite lattices, feasible only on small ones.
    """
    jt = lattice.join_table
    joined = np.full((lattice.n, 1), lattice.bottom_id, dtype=np.int32)
    for block in _space_function_blocks(lattice, fs):
        joined = np.hstack([joined, block])
        while joined.shape[1] > 1:  # join the columns pairwise
            half = joined.shape[1] // 2
            pairs = jt[joined[:, :half], joined[:, half : 2 * half]]
            joined = np.hstack([pairs, joined[:, 2 * half :]])
    return SpaceFunction(lattice, joined[:, 0])


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
    """Seeded random space function: each irreducible, in topological
    order, draws an image above the join of those drawn below it, and the
    draw is extended by joins.

    On non-distributive lattices the extension may fail validation, in
    which case another draw is made.
    """
    order, below = _irreducible_order(lattice)
    while True:
        values = [lattice.bottom_id] * len(order)
        for k in order:
            floor = lattice.join_of([values[i] for i in np.flatnonzero(below[:, k])])
            values[k] = rng.choice(lattice.up_ids(floor))
        images = lattice.extend(values)
        if _is_space_function(lattice, images):
            return SpaceFunction(lattice, images)


# -- projections --------------------------------------------------------------


def agent_projection(f: SpaceFunction, c: int) -> int:
    """Join of every element whose image under f is derivable from c.

    The adjoint of f: extracts all information f's agent holds in c.  The
    derivable set is closed under joins, as f preserves them, so it holds
    its join a, the join of its members in J.  As f is monotone, those are
    the j in J below a, which name a.  This holds on every finite lattice.
    """
    lattice = f.lattice
    below_c = lattice.leq[:, lattice.check_id(c)]
    gather, ids = lattice.irreducible_keys
    at_irr = gather(f.images)
    derivable = below_c[np.fromiter(at_irr, np.intp, len(at_irr))]
    return ids[np.packbits(derivable).tobytes()]


# -- agent systems -------------------------------------------------------------


@dataclass(frozen=True)
class Scs:
    """A lattice together with named agent space functions.

    The agents are a read-only copy of the given mapping, so `pooled`
    never goes stale: the memo of the system's pooled spaces, keyed by
    agent-name set, that distributed.delta_group fills on its production
    route.  A new system, one made by dataclasses.replace included,
    starts with an empty memo; equality and repr ignore it.
    """

    lattice: FiniteLattice
    agents: Mapping[str, SpaceFunction] = field(default_factory=dict)
    pooled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "agents", MappingProxyType(dict(self.agents)))
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
        doc = json_object(doc, "an agent-system document")
        agents_doc = json_object(doc.get("agents", {}), '"agents"')
        lattice_doc = doc.get("lattice")
        if isinstance(lattice_doc, str):
            lattice = FiniteLattice.load(os.path.join(base_dir, lattice_doc))
        else:
            lattice = FiniteLattice.from_json(lattice_doc)
        return cls(lattice, {name: _parse_images(lattice, name, spec)
                             for name, spec in agents_doc.items()})

    @classmethod
    def load(cls, path) -> "Scs":
        return cls.from_json(read_json(path), base_dir=os.path.dirname(os.path.abspath(path)))


_ARROW = re.compile("→|->")


def _parse_images(lattice: FiniteLattice, name: str, spec) -> SpaceFunction:
    """Agent images: a list whose entries are all labels, or that has an
    entry without an arrow, gives the images in element order; otherwise
    every entry is an arrow "src→dst" (or "src->dst"), in any order, that
    splits into two labels at exactly one arrow."""
    entries = json_list(spec, f"agent {name!r}", length=lattice.n, item=str)
    labels = set(lattice.labels)
    if all(s in labels for s in entries) or not all(_ARROW.search(s) for s in entries):
        # the plain form; id_of names any unknown label
        return SpaceFunction(lattice, [lattice.id_of(s) for s in entries])
    images = [-1] * lattice.n
    for entry in entries:
        cuts = [(entry[:m.start()].strip(), entry[m.end():].strip())
                for m in _ARROW.finditer(entry)]
        splits = [(src, dst) for src, dst in cuts if src in labels and dst in labels]
        if not splits:  # id_of names the unknown label at the first arrow
            for label in cuts[0]:
                lattice.id_of(label)
        if len(splits) > 1:
            raise InvalidElement(f"agent {name!r}: entry {entry!r} is an arrow between two "
                                 f"labels in {len(splits)} ways, not exactly one")
        images[lattice.id_of(splits[0][0])] = lattice.id_of(splits[0][1])
    if -1 in images:
        raise InvalidElement(f"no image listed for element {lattice.labels[images.index(-1)]!r}")
    return SpaceFunction(lattice, images)
