"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its measured numbers; run with
`pytest -s tests/test_acceptance.py` to see them.  Time limits are
asserted with wall-clock measurements.
"""

import itertools
import random
import time

import latspace as ls
from latspace import epistemic as ep
from latspace import morphology as mo


def report(line: str) -> None:
    print(line)


# -- 1 -----------------------------------------------------------------------


def test_criterion_01_two_agent_table_reproduction(m2_scs):
    t0 = time.monotonic()
    lat = m2_scs.lattice
    f, g = m2_scs.agent("1"), m2_scs.agent("2")
    expected = (0, 2, 0, 2)  # bottom, ¬p, bottom, ¬p
    results = {
        "pair": ls.delta_pair(lat, f, g).images,
        "subtract": ls.delta_pair_subtract(lat, f, g).images,
        "tuples": tuple(
            ls.delta_tuples_direct(m2_scs, ["1", "2"], c) for c in range(lat.n)
        ),
        "oracle": ls.function_meet_oracle(lat, [f, g]).images,
    }
    elapsed = time.monotonic() - t0
    for how, got in results.items():
        assert got == expected, f"{how} computed {got}"
    assert elapsed < 1.0
    report(
        f"PASS criterion 1: all four methods reproduce the table "
        f"(⊥→⊥, p→¬p, ¬p→⊥, ⊤→¬p) in {elapsed * 1000:.0f} ms"
    )


# -- 2 -----------------------------------------------------------------------


def test_criterion_02_pointwise_meet_failure(m2_scs):
    t0 = time.monotonic()
    lat = m2_scs.lattice
    raw = ls.pointwise_meet_raw([m2_scs.agent("1"), m2_scs.agent("2")])
    violation = ls.validate_space_function(lat, raw)
    elapsed = time.monotonic() - t0
    assert violation is not None
    assert violation.axiom == "S.2"
    assert set(violation.witness) == {lat.id_of("p"), lat.id_of("¬p")}
    assert elapsed < 1.0
    report(
        f"PASS criterion 2: point-wise meet fails join preservation at "
        f"(p, ¬p) in {elapsed * 1000:.0f} ms"
    )


# -- 3 -----------------------------------------------------------------------


def _assert_all_methods_agree(scs, names):
    lat = scs.lattice
    exact = ls.function_meet_oracle(lat, [scs.agent(i) for i in names]).images
    for method in ("tuple", "subtract", "oracle"):
        got = ls.delta_group(scs, names, method=method).images
        assert got == exact, f"method {method} disagrees"
    return exact


def test_criterion_03_oracle_equivalence(m2_scs):
    seed = 301
    rng = random.Random(seed)
    t0 = time.monotonic()
    cases = 0

    _assert_all_methods_agree(m2_scs, sorted(m2_scs.agents))
    cases += 1

    lattices = [
        ls.powerset_lattice([f"g{i}" for i in range(k)]) for k in (2, 3, 4)
    ]
    lattices += [ls.chain_lattice(k) for k in (2, 3, 4, 5)]
    for _ in range(100):
        lattices.append(ls.random_distributive_lattice(rng))
    for lat in lattices:
        agents = {
            str(i + 1): ls.random_space_function(lat, rng)
            for i in range(rng.randint(2, 3))
        }
        scs = ls.Scs(lat, agents)
        exact = _assert_all_methods_agree(scs, sorted(agents))
        if lat.n ** len(agents) <= 10**6:
            for c in range(lat.n):
                assert ls.delta_tuples_direct(scs, sorted(agents), c) == exact[c]
        cases += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(
        f"PASS criterion 3: tuple = subtract = oracle methods on {cases} systems "
        f"(seed {seed}) in {elapsed:.1f} s"
    )


# -- 4 -----------------------------------------------------------------------


def test_criterion_04_distribution_candidate_suite():
    seed = 401
    rng = random.Random(seed)
    t0 = time.monotonic()
    checked = 0
    for trial in range(10):
        lat = ls.random_distributive_lattice(rng)
        scs = ls.Scs(
            lat, {str(i): ls.random_space_function(lat, rng) for i in (1, 2, 3)}
        )
        family = ls.DeltaFamily(scs)
        for r in range(4):
            for combo in itertools.combinations(sorted(scs.agents), r):
                family.get(combo)
        assert len(family.cache) == 8
        rep = ls.verify_gdc(scs, family)
        assert rep.ok, f"trial {trial}: {rep}"
        assert str(rep).endswith("incl. maximality")
        checked += rep.checked_subsets
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(
        f"PASS criterion 4: D.1-D.3 and maximality on {checked} groups across "
        f"10 random 3-agent systems (seed {seed}) in {elapsed:.1f} s"
    )


# -- 5 -----------------------------------------------------------------------


def test_criterion_05a_agent_galois(canonical):
    checks = 0
    for name in ("M2", "M3", "N5", "chain3", "herbrand-xy-ab"):
        lat = canonical[name]
        for f in ls.enumerate_space_functions(lat):
            for c in range(lat.n):
                proj = ls.agent_projection(f, c)
                for e in range(lat.n):
                    assert bool(lat.leq[f.images[e], c]) == bool(lat.leq[e, proj])
                    checks += 1
    report(f"PASS criterion 5a: agent-level adjunction, {checks} checks, 0 violations")


def test_criterion_05b_group_galois(m2_scs):
    seed = 502
    rng = random.Random(seed)
    lat3 = ls.powerset_lattice(["a", "b", "c"])
    systems = [
        m2_scs,
        ls.Scs(lat3, {str(i): ls.random_space_function(lat3, rng) for i in (1, 2, 3)}),
    ]
    checks = 0
    for scs in systems:
        lat = scs.lattice
        names = sorted(scs.agents)
        for r in range(len(names) + 1):
            for group in itertools.combinations(names, r):
                dfun = ls.delta_group(scs, group)
                for c in range(lat.n):
                    proj = ls.group_projection(scs, group, c)
                    for e in range(lat.n):
                        assert bool(lat.leq[dfun.images[e], c]) == bool(
                            lat.leq[e, proj]
                        )
                        checks += 1
    report(f"PASS criterion 5b: group-level adjunction, {checks} checks, 0 violations")


def test_criterion_05c_morphology_galois():
    seed = 503
    rng = random.Random(seed)
    checks = 0
    for dim in (1, 2):
        for _ in range(200):
            se = mo.PointSet(
                dim,
                frozenset(
                    tuple(rng.randint(-3, 3) for _ in range(dim))
                    for _ in range(rng.randint(1, 4))
                ),
            )
            x = mo.PointSet(
                dim,
                frozenset(
                    tuple(rng.randint(-3, 3) for _ in range(dim))
                    for _ in range(rng.randint(0, 5))
                ),
            )
            y = mo.PointSet(
                dim,
                frozenset(
                    tuple(rng.randint(-3, 3) for _ in range(dim))
                    for _ in range(rng.randint(0, 5))
                ),
            )
            lhs = mo.dilate(se, x).points <= y.points
            rhs = x.points <= mo.erode(se, y).points
            assert lhs == rhs
            checks += 1
    report(
        f"PASS criterion 5c: dilation/erosion adjunction on {checks} seeded "
        f"instances (seed {seed}), 0 violations"
    )


# -- 6 -----------------------------------------------------------------------


def test_criterion_06_epistemic_equivalence():
    seed = 601
    rng = random.Random(seed)
    t0 = time.monotonic()
    kripke_checks = 0
    for trial in range(100):
        models = ep.random_kripke_models(rng)
        ks = ep.kripke_to_scs(models)
        agents = sorted(ks.scs.agents)
        empty = ls.delta_group(ks.scs, [])
        assert empty.images == ls.top_function(ks.lattice).images
        for r in range(1, len(agents) + 1):
            for group in itertools.combinations(agents, r):
                dfun = ks.delta(group)
                for mask in range(1 << len(ks.pointed)):
                    want = ep.kripke_dk(models, group, ks.set_of(mask))
                    assert ks.set_of(dfun.images[mask]) == want, (
                        f"kripke seed {seed} trial {trial} group {group}"
                    )
                    kripke_checks += 1
    aumann_checks = 0
    for trial in range(100):
        struct = ep.random_aumann(rng)
        ascs = ep.aumann_to_scs(struct)
        agents = sorted(ascs.scs.agents)
        for r in range(len(agents) + 1):
            for group in itertools.combinations(agents, r):
                dfun = ls.delta_group(ascs.scs, group)
                for mask in range(1 << len(struct.states)):
                    event = ascs.set_of(mask)
                    want = ep.aumann_dk(struct, group, event)
                    assert ascs.set_of(dfun.images[mask]) == want, (
                        f"aumann seed {seed} trial {trial} group {group}"
                    )
                    aumann_checks += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(
        f"PASS criterion 6: {kripke_checks} relation-model and {aumann_checks} "
        f"partition-model comparisons, 0 mismatches (seed {seed}) in {elapsed:.1f} s"
    )


# -- 7 -----------------------------------------------------------------------


def test_criterion_07_minkowski_intersection_law():
    seed = 701
    rng = random.Random(seed)
    x1 = mo.PointSet.of(1, [0, 1])
    a1 = mo.PointSet.of(1, [1])
    b1 = mo.PointSet.of(1, [2])
    assert mo.distributed_dilation(a1, b1, x1).points == frozenset()
    assert mo.oplus_law_rhs(x1, a1, b1).points == frozenset()
    mismatches = 0
    for _ in range(100):
        x = mo.PointSet(
            2,
            frozenset(
                (rng.randint(-3, 3), rng.randint(-3, 3))
                for _ in range(rng.randint(0, 6))
            ),
        )
        a = mo.PointSet(
            2,
            frozenset(
                (rng.randint(-3, 3), rng.randint(-3, 3))
                for _ in range(rng.randint(0, 5))
            ),
        )
        b = mo.PointSet(
            2,
            frozenset(
                (rng.randint(-3, 3), rng.randint(-3, 3))
                for _ in range(rng.randint(0, 5))
            ),
        )
        if mo.distributed_dilation(a, b, x) != mo.oplus_law_rhs(x, a, b):
            mismatches += 1
    assert mismatches == 0
    report(
        f"PASS criterion 7: intersection law exact on the 1-d instance and "
        f"100 random triples (seed {seed}), 0 mismatches"
    )


# -- 8 -----------------------------------------------------------------------


def test_criterion_08_small_module_bridge():
    t0 = time.monotonic()
    rep = mo.theorem_check_small_module()
    elapsed = time.monotonic() - t0
    assert rep.pairs_checked == 256
    assert rep.ok, rep.summary()
    assert elapsed < 120.0
    report(
        f"PASS criterion 8: oracle meet equals intersected-brush dilation on "
        f"all 256 pairs in {elapsed:.1f} s"
    )


# -- 9 -----------------------------------------------------------------------


def _time_delta_group(k: int, seed: int) -> float:
    rng = random.Random(seed)
    lat = ls.powerset_lattice([f"g{i}" for i in range(k)])
    lat.distributivity()  # the per-lattice check is cached by design
    lat.subtract_table  # not used by the tuple method; warmed for fairness
    agents = {str(i + 1): ls.random_space_function(lat, rng) for i in range(4)}
    scs = ls.Scs(lat, agents)
    best = float("inf")
    for _ in range(3):
        t0 = time.monotonic()
        ls.delta_group(scs, sorted(agents), method="tuple")
        best = min(best, time.monotonic() - t0)
    return best


def test_criterion_09_complexity_smoke():
    t256 = _time_delta_group(8, seed=901)
    assert t256 < 10.0
    t512 = _time_delta_group(9, seed=901)
    ratio = t512 / max(t256, 0.005)
    assert ratio <= 10.0, f"doubling n scaled time by {ratio:.1f}x"
    report(
        f"PASS criterion 9: 4-agent pooled space on 256 elements in "
        f"{t256 * 1000:.0f} ms; 512 elements scaled by {ratio:.1f}x (≤ 10x)"
    )


# -- 10 ----------------------------------------------------------------------


def test_criterion_10_nondistributive_survey(canonical):
    t0 = time.monotonic()
    lines = []
    for name in ("M3", "N5"):
        survey = ls.survey_tuple_formula(canonical[name], name)
        assert survey.monotone_everywhere
        if survey.found_counterexample:
            f, g, images, violation = survey.violations[0]
            # the counterexample genuinely breaks join preservation
            assert ls.validate_space_function(canonical[name], images) is not None
            lines.append(
                f"{name}: {len(survey.violations)} violating pairs out of "
                f"{survey.pair_count} (counterexample confirms the "
                f"distributivity hypothesis is necessary)"
            )
        else:
            lines.append(
                f"{name}: no violating pair; the documented witness values "
                f"are unreproduced on this lattice"
            )
    # the swap/collapse pair often quoted as a witness collapses to the
    # constant-bottom map, which is a space function: recorded as such
    m3 = canonical["M3"]
    swap_cd = ls.SpaceFunction(m3, (0, 1, 3, 2, 4))
    b_to_top = ls.SpaceFunction(m3, (0, 4, 2, 3, 4))
    images, verdict = ls.delta_pair_raw(m3, swap_cd, b_to_top)
    assert images == [m3.bottom_id] * m3.n and verdict is None
    lines.append("the swap/collapse M3 pair itself yields the constant-bottom map")
    elapsed = time.monotonic() - t0
    report(f"PASS criterion 10: survey complete in {elapsed:.1f} s; " + "; ".join(lines))
