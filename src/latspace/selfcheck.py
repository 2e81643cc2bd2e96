"""Catalogue of invariant properties, behind `selfcheck` and the tests.

Each property is a function over explicit instances: lattices, agent
systems, Kripke model sets, Aumann structures or point-set triples.  It
raises AssertionError naming the first violation and, where callers
report one, returns the number of comparisons made.  `selfcheck` draws
its instances from one seeded generator per check (the seed is part of
the output) and prints a PASS/FAIL line per check; the tests draw theirs
with the same generators and call the same properties.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import distributed, epistemic, morphology
from .distributed import subgroups
from .lattice import FiniteLattice, fixtures, powerset_lattice, random_distributive_lattice
from .morphology import PointSet
from .spaces import Scs, SpaceFunction, bottom_function, function_leq, top_function
from .spaces import agent_projection, enum_budget, enumerate_space_functions, random_space_function
from .spaces import classify, function_meet_oracle, pointwise_join, pointwise_meet_raw
from .spaces import validate_space_function

DEFAULT_SEED = 7


def _require(ok, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def random_scs(lattice: FiniteLattice, rng, agents: int) -> Scs:
    """Agent system of `agents` seeded random space functions named 1, 2, ..."""
    return Scs(lattice, {str(i + 1): random_space_function(lattice, rng) for i in range(agents)})


def random_pointset(rng, dim: int, sizes: tuple[int, int] = (0, 5), span: int = 3) -> PointSet:
    """A count drawn from `sizes`, then that many points in [-span, span]^dim."""
    return PointSet(dim, frozenset(
        tuple(rng.randint(-span, span) for _ in range(dim)) for _ in range(rng.randint(*sizes))
    ))


def random_kripke_models(rng) -> list[epistemic.KripkeModel]:
    """One or two models over p and q: 2 to 4 states, 1 to 3 agents.  The
    literal bound, not the cap's 10, keeps the seeded instances and runtime."""
    total = rng.randint(2, 4)
    if rng.choice([1, 1, 2]) == 1:
        split = [total]
    else:
        k = rng.randint(1, total - 1)
        split = [k, total - k]
    agents = [str(i + 1) for i in range(rng.randint(1, 3))]
    models = []
    for mi, size in enumerate(split):
        states = tuple(f"s{mi}{j}" for j in range(size))
        val = {s: {p: rng.randint(0, 1) for p in ("p", "q")} for s in states}
        rel = {a: frozenset((s, t) for s in states for t in states if rng.random() < 0.45)
               for a in agents}
        models.append(epistemic.KripkeModel(states, ("p", "q"), val, rel))
    return models


def random_aumann(rng) -> epistemic.AumannStructure:
    """2 to 4 states (a literal bound, as in random_kripke_models) and 1 to 3
    agents, each partitioning the shuffled states by joining a random block
    or opening a new one."""
    states = tuple(f"s{i}" for i in range(rng.randint(2, 4)))
    partitions = {}
    for agent in [str(i + 1) for i in range(rng.randint(1, 3))]:
        order, blocks = list(states), []
        rng.shuffle(order)
        for s in order:
            if blocks and rng.random() < 0.5:
                rng.choice(blocks).append(s)
            else:
                blocks.append([s])
        partitions[agent] = tuple(frozenset(b) for b in blocks)
    return epistemic.AumannStructure(states, partitions)


def bound_laws(lattices: Mapping[str, FiniteLattice]) -> None:
    """Joins are least upper bounds and meets greatest lower ones, also of the empty set."""
    for name, lat in lattices.items():
        jt, mt, leq = lat.join_table, lat.meet_table, lat.leq
        for a, b in itertools.product(range(lat.n), repeat=2):
            j, m = jt[a, b], mt[a, b]
            _require(leq[a, j] and leq[b, j] and leq[m, a] and leq[m, b],
                     f"{name}: bound laws fail at ({a},{b})")
            _require(leq[j, leq[a] & leq[b]].all() and leq[leq[:, a] & leq[:, b], m].all(),
                     f"{name}: bounds are not least/greatest at ({a},{b})")
        _require(lat.join_of([]) == lat.bottom_id and lat.meet_of([]) == lat.top_id,
                 f"{name}: empty join/meet conventions broken")


def absorption_laws(lattices: Mapping[str, FiniteLattice]) -> None:
    """a join (a meet b) = a = a meet (a join b)."""
    for name, lat in lattices.items():
        jt, mt = lat.join_table, lat.meet_table
        for a, b in itertools.product(range(lat.n), repeat=2):
            _require(jt[a, mt[a, b]] == a == mt[a, jt[a, b]],
                     f"{name}: absorption fails at ({a},{b})")


def subtraction_laws(lattices: Mapping[str, FiniteLattice]) -> None:
    """On a distributive lattice c + (d - c) = c + d, d - c <= d, and d - c = 0 iff d <= c."""
    for name, lat in lattices.items():
        _require(lat.is_distributive, f"{name}: not distributive")
        for c, d in itertools.product(range(lat.n), repeat=2):
            e = lat.subtract(d, c)
            at = f"{name}: at ({c},{d})"
            _require(lat.join_of([c, e]) == lat.join_of([c, d]), f"{at} the residual law fails")
            _require(lat.leq[e, d], f"{at} the subtraction lies above its argument")
            _require((e == lat.bottom_id) == lat.leq[d, c], f"{at} the emptiness law fails")


def distributivity_verdicts(cases: Mapping[str, tuple[FiniteLattice, bool]]) -> None:
    """distributivity() gives the expected verdict, and a witness only for no that breaks
    a + (b * c) = (a + b) * (a + c)."""
    for name, (lat, expected) in cases.items():
        flag, witness = lat.distributivity()
        _require(flag is expected, f"{name}: expected distributive={expected}")
        _require((witness is None) == flag, f"{name}: witness {witness} disagrees with the verdict")
        if witness is not None:
            a, b, c = witness
            lhs = lat.join_of([a, lat.meet_of([b, c])])
            _require(lhs != lat.meet_of([lat.join_of([a, b]), lat.join_of([a, c])]),
                     f"{name}: witness {witness} satisfies the law")


def function_extremes(functions: Mapping[str, Sequence[SpaceFunction]]) -> None:
    """Each space function lies below itself, above constant bottom and below constant top."""
    for name, fs in functions.items():
        lo, hi = bottom_function(fs[0].lattice), top_function(fs[0].lattice)
        for i, f in enumerate(fs):
            _require(function_leq(lo, f) and function_leq(f, hi) and function_leq(f, f),
                     f"{name}: extremes are not extreme at function {i}")


def validation_verdicts(functions: Mapping[str, Sequence[SpaceFunction]], rng,
                        reference: Callable) -> int:
    """validate_space_function gives the verdict and witness of `reference`, the
    literal scan of all n^2 pairs, on each space function, on a copy with one
    entry redrawn, and on one random self-map fixing bottom per function;
    returns the number of maps compared."""
    checks = 0
    for name, fs in functions.items():
        for f in fs:
            lat = f.lattice
            at = rng.randrange(lat.n)
            redrawn = f.images[:at] + (rng.randrange(lat.n),) + f.images[at + 1:]
            noise = [rng.randrange(lat.n) for _ in range(lat.n)]
            noise[lat.bottom_id] = lat.bottom_id
            for images in (f.images, redrawn, tuple(noise)):
                got, want = validate_space_function(lat, images), reference(lat, images)
                _require(got == want, f"{name}: {images} gives {got}, the pair scan {want}")
                checks += 1
    return checks


def join_upper_bounds(pairs: Iterable[tuple[SpaceFunction, SpaceFunction]]) -> None:
    """The point-wise join of two space functions validates and lies above both."""
    for f, g in pairs:
        j = pointwise_join([f, g])
        _require(function_leq(f, j) and function_leq(g, j), "point-wise join is not an upper bound")


def raw_meet_breaks_join(scs: Scs, witness: set[int]) -> None:
    """The point-wise meet of the agents breaks join preservation (S.2) at `witness`."""
    raw = pointwise_meet_raw([scs.agent(a) for a in sorted(scs.agents)])
    violation = validate_space_function(scs.lattice, raw)
    _require(violation is not None, "point-wise meet unexpectedly satisfied the axioms")
    _require(violation.axiom == "S.2" and set(violation.witness) == witness,
             f"unexpected violation {violation}")


def methods_agree(systems: Iterable[Scs]) -> list[tuple[int, ...]]:
    """Every delta_group method, and the direct tuple scan where the budget allows,
    pools all agents to the oracle's meet; returns each system's pooled space."""
    pooled = []
    for k, scs in enumerate(systems):
        lat, names = scs.lattice, sorted(scs.agents)
        exact = function_meet_oracle(lat, [scs.agent(x) for x in names]).images
        for method in distributed.METHODS:
            _require(distributed.delta_group(scs, names, method).images == exact,
                     f"system {k}: {method} disagrees with the oracle")
        if lat.n ** len(names) <= enum_budget():
            direct = tuple(distributed.delta_tuples_direct(scs, names, c) for c in range(lat.n))
            _require(direct == exact, f"system {k}: direct tuples give {direct}, not {exact}")
        pooled.append(exact)
    return pooled


def gdc_holds(scs: Scs) -> distributed.GdcReport:
    """The pooled spaces of all groups form a maximal distribution
    candidate (D.1-D.3).  Giving the largest group of two or more agents
    that pools above the constant-bottom map that map instead keeps
    D.1-D.3 and fails maximality."""
    family, groups = distributed.DeltaFamily(scs), subgroups(scs)
    bottom = bottom_function(scs.lattice)
    richer = [g for g in groups if family.get(g).images != bottom.images and len(g) > 1]
    report = distributed.verify_gdc(scs, family)
    _require(len(family.cache) == len(groups) and str(report).endswith("incl. maximality"),
             str(report))
    if richer:
        bad = distributed.verify_gdc(scs, {**family.cache, frozenset(richer[-1]): bottom})
        _require(not bad.ok and any("maximality" in f for f in bad.failures),
                 "constant-bottom family was not caught by the maximality check")
    return report


def agent_adjunction(functions: Mapping[str, Sequence[SpaceFunction]]) -> int:
    """f(e) <= c iff e <= agent_projection(f, c); returns the number of (f, c, e) checked."""
    checks = 0
    for name, fs in functions.items():
        for f in fs:
            leq = f.lattice.leq
            projections = [agent_projection(f, c) for c in range(f.lattice.n)]
            agree = leq[np.asarray(f.images)] == leq[:, projections]  # [e, c]
            if not agree.all():
                raise AssertionError(f"{name}: adjunction fails at (e, c) = {np.argwhere(~agree)[0]}")
            checks += agree.size
    return checks


def group_adjunction(systems: Iterable[Scs]) -> int:
    """delta_G(e) <= c iff e <= group_projection(G, c), which is >= join_projection(G, c),
    for every group G; returns the number of (G, c, e) checked."""
    checks = 0
    for scs in systems:
        lat = scs.lattice
        for group in subgroups(scs):
            images = np.asarray(distributed.delta_group(scs, group).images)
            for c in range(lat.n):
                proj = distributed.group_projection(scs, group, c)
                _require(lat.leq[distributed.join_projection(scs, group, c), proj],
                         f"group {list(group)}: group projection below join projection")
                _require((lat.leq[images, c] == lat.leq[:, proj]).all(),
                         f"group {list(group)}: adjunction fails at c={c}")
                checks += lat.n
    return checks


def projection_monotone(scs: Scs) -> None:
    """A group projects at least what each of its subgroups projects."""
    pairs = [(s, t) for s, t in itertools.combinations(subgroups(scs), 2) if set(s) <= set(t)]
    for (small, large), c in itertools.product(pairs, range(scs.lattice.n)):
        a = distributed.group_projection(scs, small, c)
        _require(scs.lattice.leq[a, distributed.group_projection(scs, large, c)],
                 f"projection shrank from {list(small)} to {list(large)} at {c}")


def compositionality(systems: Iterable[Scs]) -> int:
    """Pooling two groups' spaces gives the space of their union: the
    subtraction recursion on δ_G and δ_H equals δ_{G∪H}, the meet on J, for
    every ordered pair of subgroups, the empty and equal ones included.  Not
    in CHECKS; the tests call it.  Returns the number of pairs compared."""
    checks = 0
    for k, scs in enumerate(systems):
        family = distributed.DeltaFamily(scs)
        for g, h in itertools.product(subgroups(scs), repeat=2):
            pooled = distributed.delta_pair_subtract(scs.lattice, family.get(g), family.get(h))
            _require(pooled.images == family.get(set(g) | set(h)).images,
                     f"system {k}: pooling {list(g)} with {list(h)} differs from their union")
            checks += 1
    return checks


def kripke_knowledge(model_sets: Iterable[Sequence[epistemic.KripkeModel]]) -> int:
    """No agents pool to the least space, others to the box along their intersected
    relations (kripke_dk); returns the number of (group, set) compared."""
    checks = 0
    for k, models in enumerate(model_sets):
        ks = epistemic.kripke_to_scs(models)
        _require(distributed.delta_group(ks.scs, []).images == top_function(ks.lattice).images,
                 f"model set {k}: the empty group does not pool to the least space")
        for group in subgroups(ks.scs)[1:]:
            pooled = ks.delta(group).images
            for mask in range(1 << len(ks.pointed)):
                want = epistemic.kripke_dk(models, group, ks.set_of(mask))
                _require(ks.set_of(pooled[mask]) == want,
                         f"model set {k}: group {group} differs at {mask}")
                checks += 1
    return checks


def aumann_knowledge(structs: Iterable[epistemic.AumannStructure]) -> int:
    """Each knowledge map is a closure operator, and every group, the empty
    one included, pools to the knowledge of the intersected partition
    blocks (aumann_dk); returns the number of (group, event) compared."""
    checks = 0
    for k, struct in enumerate(structs):
        ascs = epistemic.aumann_to_scs(struct)
        kinds = [classify(f) for f in ascs.scs.agents.values()]
        _require(all(kind.idempotent and kind.extensive for kind in kinds),
                 f"structure {k}: a knowledge map is not a closure operator")
        for group in subgroups(ascs.scs):
            images = distributed.delta_group(ascs.scs, group).images
            for mask in range(1 << len(struct.states)):
                want = epistemic.aumann_dk(struct, group, ascs.set_of(mask))
                _require(ascs.set_of(images[mask]) == want,
                         f"structure {k}: group {group} differs at {mask}")
                checks += 1
    return checks


def minkowski_laws(triples: Iterable[tuple[PointSet, PointSet, PointSet]]) -> None:
    """Minkowski sum is a commutative monoid with zero that distributes over union."""
    s, union = morphology.minkowski_sum, morphology.union
    for a, b, c in triples:
        empty = PointSet(a.dim, frozenset())
        _require(s(a, b) == s(b, a), f"sum not commutative for {a}, {b}")
        _require(s(s(a, b), c) == s(a, s(b, c)), f"sum not associative for {a}, {b}, {c}")
        _require(s(a, morphology.origin(a.dim)) == a and s(a, empty) == empty,
                 f"identity/zero laws fail for {a}")
        _require(s(c, union(a, b)) == union(s(c, a), s(c, b)),
                 f"sum does not distribute over union for {a}, {b}, {c}")


def dilation_adjunction(instances: Iterable[tuple[PointSet, PointSet, PointSet]]) -> None:
    """dilate(se, x) <= y iff x <= erode(se, y), and x <= erode(se, dilate(se, x))."""
    dilate, erode = morphology.dilate, morphology.erode
    for se, x, y in instances:
        _require((dilate(se, x).points <= y.points) == (x.points <= erode(se, y).points),
                 f"adjunction fails for se={se}, x={x}, y={y}")
        _require(x.points <= erode(se, dilate(se, x)).points, f"unit fails for se={se}, x={x}")


def intersection_law(triples: Iterable[tuple[PointSet, PointSet, PointSet]]) -> None:
    """Pooled dilation equals oplus_law_rhs(x, a, b), and is empty for disjoint brushes."""
    for x, a, b in triples:
        pooled = morphology.distributed_dilation(a, b, x)
        _require(pooled == morphology.oplus_law_rhs(x, a, b), f"law fails for x={x}, a={a}, b={b}")
        _require(a.points & b.points or not pooled.points,
                 f"disjoint brushes {a}, {b} pool to {pooled}")


def small_module_bridge() -> str:
    """On the 2x2 torus the oracle meet of two dilations dilates by the intersected brush."""
    pairs = (1 << len(morphology.TORUS_2X2)) ** 2
    mismatches = morphology.theorem_check_small_module()
    first = ", ".join(f"{mask:04b}" for pair in mismatches[:1] for mask in pair)
    _require(not mismatches, f"{len(mismatches)} mismatching pairs out of {pairs}; "
             f"first masks ({first})")
    return f"pooled dilation equals intersected-brush dilation on all {pairs} structuring-element pairs"


def tuple_formula_survey(lattice: FiniteLattice, name: str) -> distributed.TupleFormulaSurvey:
    """The raw pair formula stays monotone, and its first violation reproduces."""
    survey = distributed.survey_tuple_formula(lattice, name)
    _require(survey.monotone_everywhere, f"{name}: pair formula produced a non-monotone map")
    if survey.violations:
        _, _, images, violation = survey.violations[0]
        _require(validate_space_function(lattice, images) == violation,
                 f"{name}: recorded violation {violation} does not reproduce")
    return survey


def _fixture_scs_m2() -> Scs:
    m2 = fixtures()["M2"]
    return Scs(m2, {"1": SpaceFunction(m2, (0, 2, 1, 3)), "2": SpaceFunction(m2, (0, 3, 2, 3))})


def _lattice_axioms(_rng) -> None:
    bound_laws(fixtures())
    absorption_laws(fixtures())


def _function_lattice(rng) -> None:
    for name in ("M2", "M3"):
        fs = enumerate_space_functions(fixtures()[name])
        function_extremes({name: fs})
        join_upper_bounds([(rng.choice(fs), rng.choice(fs)) for _ in range(20)])


def _morphology_galois(rng) -> None:
    dilation_adjunction(
        (random_pointset(rng, dim, (0, 3)) or morphology.origin(dim), random_pointset(rng, dim),
         random_pointset(rng, dim))
        for dim in (1, 2) for _ in range(50)
    )


UNIT_INTERVAL = (PointSet.of(1, [0, 1]), PointSet.of(1, [1]), PointSet.of(1, [2]))

# (name, detail, draw-and-check); a check without a detail returns its own.
CHECKS: list[tuple[str, str | None, Callable]] = [
    ("lattice-axioms", "bounds, absorption, empty join/meet on all fixtures", _lattice_axioms),
    ("subtraction-laws", "residual laws on M2, chain3, powerset(3)",
     lambda rng: subtraction_laws({"M2": fixtures()["M2"], "chain3": fixtures()["chain3"],
                                   "powerset3": powerset_lattice("abc")})),
    ("distributivity-verdicts", "fixture verdicts and powerset(0..4)",
     lambda rng: distributivity_verdicts(
         {name: (lat, name in ("M2", "chain3")) for name, lat in fixtures().items()}
         | {f"powerset({k})": (powerset_lattice([f"g{i}" for i in range(k)]), True)
            for k in range(5)})),
    ("function-lattice", "function-lattice extremes and joins on M2, M3", _function_lattice),
    ("two-agent-delta-table", "two-agent pooled table agreed across all four methods",
     lambda rng: _require(methods_agree([_fixture_scs_m2()]) == [(0, 2, 0, 2)],
                          "the pooled table is not (bottom, not-p, bottom, not-p)")),
    ("raw-meet-not-a-space", "point-wise meet breaks join preservation at (p, ¬p)",
     lambda rng: raw_meet_breaks_join(_fixture_scs_m2(), {1, 2})),
    ("oracle-equivalence", "tuple, subtract, direct and oracle agree on 25 random lattices",
     lambda rng: methods_agree(random_scs(random_distributive_lattice(rng), rng, rng.randint(2, 3))
                               for _ in range(25))),
    ("distribution-candidate-axioms", None,
     lambda rng: str(gdc_holds(random_scs(powerset_lattice("abc"), rng, 3)))),
    ("agent-galois", "agent-level adjunction exhaustive on M2, M3, chain3",
     lambda rng: agent_adjunction({name: enumerate_space_functions(fixtures()[name])
                                   for name in ("M2", "M3", "chain3")})),
    ("group-galois", "group-level adjunction on M2 and powerset(3)",
     lambda rng: group_adjunction([_fixture_scs_m2(),
                                   random_scs(powerset_lattice("abc"), rng, 2)])),
    ("projection-monotone", "group projections grow with the group on M2",
     lambda rng: projection_monotone(_fixture_scs_m2())),
    ("kripke-distributed-knowledge",
     "pooled space equals relation-intersection knowledge, 25 model sets",
     lambda rng: kripke_knowledge(random_kripke_models(rng) for _ in range(25))),
    ("aumann-distributed-knowledge",
     "pooled space equals block-intersection knowledge, 25 structures",
     lambda rng: aumann_knowledge(random_aumann(rng) for _ in range(25))),
    ("minkowski-monoid", "monoid and union-distribution laws, 100 random triples",
     lambda rng: minkowski_laws(tuple(random_pointset(rng, dim) for _ in range(3))
                                for dim in (1, 2) for _ in range(50))),
    ("morphology-galois", "dilation/erosion adjunction, 100 random instances", _morphology_galois),
    ("minkowski-intersection-law", "intersection law on the 1-d instance and 50 random triples",
     lambda rng: intersection_law([UNIT_INTERVAL] + [
         (random_pointset(rng, 2), random_pointset(rng, 2, (0, 4)), random_pointset(rng, 2, (0, 4)))
         for _ in range(50)])),
    ("small-module-bridge", None, lambda rng: small_module_bridge()),
    ("tuple-formula-survey", None, lambda rng: " | ".join(
        tuple_formula_survey(fixtures()[name], name).summary() for name in ("M3", "N5"))),
]


def run_selfcheck(seed: int = DEFAULT_SEED, emit=print) -> int:
    """Run every check with its own seeded generator; returns the exit code."""
    emit(f"selfcheck seed={seed}")
    failures = 0
    for name, detail, check in CHECKS:
        try:
            result = check(random.Random(f"{seed}:{name}"))
            line = f"PASS {name}: {detail or result}"
        except AssertionError as exc:
            line = f"FAIL {name}: {exc}"
        except Exception as exc:  # a crashing check is a failing check
            line = f"FAIL {name}: raised {type(exc).__name__}: {exc}"
        failures += line.startswith("FAIL")
        emit(line)
    emit(f"{len(CHECKS) - failures}/{len(CHECKS)} properties hold")
    return 0 if failures == 0 else 1
