"""Distributed spaces: greatest space functions below a group's agents.

The production route works on distributive lattices, where every
join-irreducible j is join-prime (Birkhoff): the meet of space functions
is fixed by its values on the irreducibles J, so
delta(c) = join of the f(j) meets over the j in J below c.  A group takes
one point-wise meet on J and one extension by joins, at O(|J| n), which
needs no validation.  The greatest family, DeltaFamily, pools every
unpooled group of two or more agents in the same two steps at once.
The subtraction recursion computes the same value as a
vectorised meet reduction over the lattice's cached runs of pairs
a below c, folded pairwise on raw image arrays and validated once.  The
raw pair formula (meet over all information combinations deriving each
element), the direct tuple scan and the enumeration oracle (exact on
every finite lattice) are kept as cross-checks.  The survey of the raw
pair formula on non-distributive lattices evaluates it on blocks of
function pairs, one batched call per block.  Group and join projections
are the adjoint side.

A system pools each group once: the production answers (the empty
group, single agents, and the tuple route for larger groups) live in
the system's memo `Scs.pooled`, which delta_group, DeltaFamily,
group_projection and every caller of delta_group read.  The subtract and
oracle routes on two or more agents are cross-checks and compute on
every call, never reading or writing the memo.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import Mapping

import numpy as np

from .errors import LatticeMismatch, NotDistributive, TooLarge
from .lattice import _BLOCK_PAIRS, FiniteLattice
from .spaces import (
    _first_violations,
    _irreducible_meet,
    _is_space_function,
    AxiomViolation,
    Scs,
    SpaceFunction,
    agent_projection,
    enum_budget,
    enumerate_space_functions,
    function_meet_oracle,
    top_function,
    validate_space_function,
)

# verify_gdc checks all 2^k groups of k agents, each against the oracle.
MAX_GDC_AGENTS = 5

METHODS = ("tuple", "subtract", "oracle")


def _require_distributive(lattice: FiniteLattice) -> None:
    ok, witness = lattice.distributivity()
    if not ok:
        a, b, c = (lattice.labels[x] for x in witness)
        raise NotDistributive(
            f"lattice is not distributive (witness triple {a!r}, {b!r}, {c!r}); "
            "use the oracle method or the raw pair formula"
        )


def pair_formula_images(
    lattice: FiniteLattice, f_images, g_images
) -> list[int] | np.ndarray:
    """Raw pair formula: for each c, the meet of f(a) join g(b) over all
    pairs whose join derives c.

    Computable on any lattice; it equals the function meet only on
    distributive ones.  Pairs are grouped by their join value x, whose
    group meets are then combined over the up-set of each c.  As in
    FiniteLattice.extend, the images may carry a batch axis after the
    element axis: n x P arrays give the n x P images of the P pairs of
    columns, in one run_meets pass per step with the runs offset per
    pair; 1-D images give a list of n ints.
    """
    n = lattice.n
    jt = lattice.join_table
    f = np.asarray(f_images).reshape(n, -1).T
    g = np.asarray(g_images).reshape(n, -1).T
    fg = jt[f[:, :, None], g[:, None, :]].reshape(len(f), n * n)
    order = np.argsort(jt, axis=None, kind="stable")
    starts = np.searchsorted(jt.ravel()[order], np.arange(n))
    # (x, x) joins to x and c is below c, so every run is non-empty.
    group_meet = lattice.run_meets(fg[:, order].ravel(), _offset_runs(starts, n * n, len(f)))
    cs, xs = np.nonzero(lattice.leq)
    up_starts = _offset_runs(np.searchsorted(cs, np.arange(n)), len(xs), len(f))
    images = lattice.run_meets(group_meet.reshape(-1, n)[:, xs].ravel(), up_starts)
    images = images.reshape(-1, n).T
    return images[:, 0].tolist() if np.ndim(f_images) == 1 else images


def _offset_runs(starts: np.ndarray, size: int, batch: int) -> np.ndarray:
    """Run starts of `batch` consecutive copies of a run layout of `size` values."""
    return (np.arange(batch)[:, None] * size + starts).ravel()


def delta_pair(lattice: FiniteLattice, f: SpaceFunction, g: SpaceFunction) -> SpaceFunction:
    """Meet of two space functions in the function lattice (distributive case).

    Every join-irreducible j is join-prime, so the meet is the extension by
    joins of j -> f(j) meet g(j).
    """
    return _meets_on_irreducibles(lattice, [f, g])[0]


def _meets_on_irreducibles(lattice: FiniteLattice, fs, members=None) -> list[SpaceFunction]:
    """Meets of groups of space functions on a distributive lattice, one per
    column of the m x G bool array `members` (by default one group of all
    of fs): the extensions by joins of the groups' point-wise meets on J,
    in one extension for every group.  None is validated: every j in J is
    join-prime, so the extension x -> join of g(j) over the j below x of
    any map g on J sends bottom to bottom and x join y to the join of the
    images of x and y.  A non-distributive lattice is refused first."""
    _require_distributive(lattice)
    images = lattice.extend(_irreducible_meet(lattice, fs, members))
    return [SpaceFunction._validated(lattice, tuple(column))
            for column in images.reshape(lattice.n, -1).T.tolist()]


def delta_pair_subtract(
    lattice: FiniteLattice, f: SpaceFunction, g: SpaceFunction
) -> SpaceFunction:
    """Same function as delta_pair, through the subtraction recursion:
    for each c, the meet of f(a) join g(c minus a) over a below c.

    One step over the lattice's cached run layout (subtract_runs): the
    pairs a below c in runs by c, each run meet-reduced.
    """
    _require_distributive(lattice)
    return SpaceFunction(lattice, _subtract_step(lattice, f.images, g.images))


def _subtract_step(lattice: FiniteLattice, f_images, g_images) -> np.ndarray:
    """Images of the subtraction recursion on two image sequences, as an
    unvalidated int32 array."""
    a, rest, starts = lattice.subtract_runs
    fi, gi = np.asarray(f_images), np.asarray(g_images)
    joins = lattice.join_table.ravel().take(fi.take(a) * lattice.n + gi.take(rest))
    return lattice.run_meets(joins, starts)


def delta_tuples_direct(scs: Scs, group, c: int) -> int:
    """Literal tuple-formula value at one element, by full enumeration.

    Meet over every |group|-tuple of elements whose join derives c of the
    join of the agents' images.  Exponential; the small-size oracle for
    delta_group, bounded by the enumeration budget.
    """
    names = scs.group(group)
    lattice = scs.lattice
    c = lattice.check_id(c)
    n = lattice.n
    m = len(names)
    cap = enum_budget()
    if n**m > cap:
        raise TooLarge(f"{n}^{m} tuples exceeds the cap of {cap}")
    images = [scs.agent(name).images for name in names]
    join = lattice.join_rows
    meet = lattice.meet_rows
    leq = lattice.leq_rows
    bot = lattice.bottom_id
    acc = lattice.top_id
    for assignment in itertools.product(range(n), repeat=m):
        joined = bot
        for a in assignment:
            joined = join[joined][a]
        if not leq[c][joined]:
            continue
        value = bot
        for k in range(m):
            value = join[value][images[k][assignment[k]]]
        acc = meet[acc][value]
        if acc == bot:
            break
    return acc


def subgroups(scs: Scs) -> list[tuple[str, ...]]:
    """Every group of the system's agents, by size, then in name order."""
    names = sorted(scs.agents)
    return [g for r in range(len(names) + 1) for g in itertools.combinations(names, r)]


@dataclass
class DeltaFamily:
    """The greatest family: the distributed space of every group of the
    system's agents, keyed by agent-name set and written once.

    Its cache is the system's memo `scs.pooled`, shared with delta_group:
    a group either of them has pooled is read, not pooled again.  The
    empty group and single agents are read as delta_group answers them,
    on any lattice.  The first get of a larger group not yet pooled fills
    every group of two or more agents missing from the memo in one pass:
    each agent's images at the join-irreducibles J read once, one |J| x G
    table of group meets on J and one extension by joins of all G
    columns, which needs no validation (see _meets_on_irreducibles);
    groups already in the memo are neither computed again nor replaced.
    A family over more than MAX_GDC_AGENTS agents raises TooLarge before
    anything is computed.
    """

    scs: Scs

    def __post_init__(self):
        if len(self.scs.agents) > MAX_GDC_AGENTS:
            raise TooLarge(f"{len(self.scs.agents)} agents exceeds the cap of {MAX_GDC_AGENTS}")

    @property
    def cache(self) -> dict[frozenset, SpaceFunction]:
        return self.scs.pooled

    def get(self, group) -> SpaceFunction:
        names = self.scs.group(group)
        key = frozenset(names)
        if key not in self.cache:
            if len(names) < 2:
                self.cache[key] = delta_group(self.scs, names)
            else:
                self.cache.update(self._pooled_groups())
        return self.cache[key]

    def _pooled_groups(self) -> dict[frozenset, SpaceFunction]:
        """delta_group of every group of two or more agents not yet pooled, in one pass."""
        agents = sorted(self.scs.agents)
        groups = [g for g in subgroups(self.scs) if len(g) > 1 and frozenset(g) not in self.cache]
        members = np.array([[name in g for g in groups] for name in agents])
        fs = [self.scs.agent(name) for name in agents]
        return dict(zip(map(frozenset, groups), _meets_on_irreducibles(self.scs.lattice, fs, members)))


def delta_group(scs: Scs, group, method: str = "tuple") -> SpaceFunction:
    """Distributed space of a group of agents.

    The empty group gets the least space; a singleton gets the agent's own
    function.  For larger groups, "tuple" meets every member's images on
    J at once and extends the result by joins, unvalidated; "subtract"
    left-folds the subtraction step over the agents in sorted name order
    on raw image arrays, which is sound because the meet is associative
    and commutative, and validates only the result.

    The tuple answers, and those for fewer than two agents by any method,
    are pooled once per system and kept in `scs.pooled`; a refusal
    (NotDistributive) keeps nothing.  "subtract" and "oracle" on two or
    more agents compute on every call, as cross-checks of the memo.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    names = scs.group(group)
    lattice = scs.lattice
    fs = [scs.agent(x) for x in names]
    if len(fs) > 1 and method == "oracle":
        return function_meet_oracle(lattice, fs)
    if len(fs) > 1 and method == "subtract":
        _require_distributive(lattice)
        images = reduce(lambda acc, f: _subtract_step(lattice, acc, f.images), fs[1:], fs[0].images)
        return SpaceFunction(lattice, images)
    key = frozenset(names)
    if key not in scs.pooled:
        scs.pooled[key] = (
            top_function(lattice) if not fs
            else fs[0] if len(fs) == 1
            else _meets_on_irreducibles(lattice, fs)[0]
        )
    return scs.pooled[key]


# -- projections ----------------------------------------------------------------


def join_projection(scs: Scs, group, c: int) -> int:
    """Join of the individual agent projections: what the group derives
    by pooling each member's separately extracted information."""
    names = scs.group(group)
    c = scs.lattice.check_id(c)
    return scs.lattice.join_of([agent_projection(scs.agent(i), c) for i in names])


def group_projection(scs: Scs, group, c: int) -> int:
    """Join of every element the group's distributed space derives from c;
    the space is read from the system's memo once delta_group has pooled it."""
    return agent_projection(delta_group(scs, group), c)


# -- distribution-candidate verification ------------------------------------------


@dataclass
class GdcReport:
    ok: bool
    failures: list[str]
    checked_subsets: int

    def __str__(self) -> str:
        if self.ok:
            return f"gdc ok over {self.checked_subsets} groups incl. maximality"
        return "gdc FAILED: " + "; ".join(self.failures)


def verify_gdc(scs: Scs, family: Mapping | DeltaFamily) -> GdcReport:
    """Check the distribution-candidate axioms on a family of functions.

    D.1 each member is a space function; D.2 singleton members equal the
    agent functions; D.3 members shrink as groups grow, checked on the
    m 2^(m-1) pairs where the larger group adds one agent, which give
    every nested pair by transitivity.  Once these hold, each member is
    compared against the enumeration oracle for maximality; an oracle
    over its budget raises TooLarge.  Expects a family entry for every
    subset of the agents, as a SpaceFunction on the system's lattice
    (else LatticeMismatch) or as raw images.
    """
    if len(scs.agents) > MAX_GDC_AGENTS:
        raise TooLarge(f"{len(scs.agents)} agents exceeds the cap of {MAX_GDC_AGENTS}")
    lattice = scs.lattice
    cache = family.cache if isinstance(family, DeltaFamily) else dict(family)
    entries = {}
    for key, entry in cache.items():
        if isinstance(entry, SpaceFunction) and entry.lattice is not lattice:
            raise LatticeMismatch(f"family entry for {sorted(key)} lives on another lattice")
        entries[frozenset(key)] = getattr(entry, "images", entry)

    subsets = [frozenset(g) for g in subgroups(scs)]
    missing = [s for s in subsets if s not in entries]
    if missing:
        return GdcReport(False, [f"family has no entry for group {sorted(missing[0])}"], 0)

    def failed(text: str) -> GdcReport:
        return GdcReport(False, [text], len(subsets))

    for key in subsets:
        violation = validate_space_function(lattice, entries[key])
        if violation is not None:
            return failed(f"D.1 fails for group {sorted(key)}: {violation.describe(lattice)}")
    for name in sorted(scs.agents):
        if not np.array_equal(entries[frozenset([name])], scs.agent(name).images):
            return failed(f"D.2 fails: entry for [{name!r}] is not the agent function")
    for small in subsets:
        for large in (small | {name} for name in sorted(scs.agents.keys() - small)):
            if not lattice.leq[entries[large], entries[small]].all():
                return failed(
                    f"D.3 fails: entry for {sorted(large)} is not below entry for {sorted(small)}"
                )
    for key in subsets:
        exact = function_meet_oracle(lattice, [scs.agent(i) for i in sorted(key)])
        if not np.array_equal(entries[key], exact.images):
            return failed(
                f"maximality fails for group {sorted(key)}: entry differs "
                "from the enumerated meet"
            )
    return GdcReport(True, [], len(subsets))


# -- survey of the pair formula on non-distributive lattices -----------------------


@dataclass
class TupleFormulaSurvey:
    """Outcome of scanning every space-function pair with the pair formula."""

    lattice_name: str
    function_count: int
    pair_count: int
    monotone_everywhere: bool
    violations: list[tuple[SpaceFunction, SpaceFunction, list[int], AxiomViolation]]

    def summary(self) -> str:
        head = (
            f"{self.lattice_name}: {self.function_count} space functions, "
            f"{self.pair_count} pairs scanned; pair formula monotone on all pairs: "
            f"{self.monotone_everywhere}"
        )
        if not self.violations:
            return head + "; no pair makes the formula violate the space axioms"
        f, g, images, violation = self.violations[0]
        lat = f.lattice
        arrows = ", ".join(
            f"{lat.labels[i]}→{lat.labels[y]}" for i, y in enumerate(images)
        )
        return (
            head
            + f"; {len(self.violations)} violating pair(s); first: f={f!r}, g={g!r}, "
            + f"formula=({arrows}) {violation.describe(lat)}"
        )


def survey_tuple_formula(lattice: FiniteLattice, name: str = "lattice") -> TupleFormulaSurvey:
    """Apply the raw pair formula to every unordered pair of space functions.

    Records every pair whose formula output breaks the space axioms (such
    pairs witness that distributivity is needed for the formula to compute
    function meets) and whether the output stayed monotone throughout.
    The pairs (i, j) with i <= j go in row-major order, in blocks of about
    _BLOCK_PAIRS / n^2 pairs, each through one batched formula call.  A
    survey of more pairs than the enumeration budget raises TooLarge
    before any pair is scanned.
    """
    fs = enumerate_space_functions(lattice)
    firsts, seconds = np.triu_indices(len(fs))
    cap = enum_budget()
    if len(firsts) > cap:
        raise TooLarge(f"the survey would scan {len(firsts)} pairs, cap is {cap}")
    table = np.array([f.images for f in fs], dtype=np.int32).T
    leq = lattice.leq[:, :, None]
    violations = []
    monotone = True
    step = max(1, _BLOCK_PAIRS // lattice.n**2)
    for start in range(0, len(firsts), step):
        i, j = firsts[start : start + step], seconds[start : start + step]
        images = pair_formula_images(lattice, table[:, i], table[:, j])
        monotone = monotone and not (leq & ~lattice.leq[images[:, None], images[None, :]]).any()
        bad = np.flatnonzero(~_is_space_function(lattice, images))
        for k, violation in zip(bad, _first_violations(lattice, images[:, bad])):
            violations.append((fs[i[k]], fs[j[k]], images[:, k].tolist(), violation))
    return TupleFormulaSurvey(name, len(fs), len(firsts), monotone, violations)
