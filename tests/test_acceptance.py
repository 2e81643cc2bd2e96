"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its measured numbers; run with
`pytest -s tests/test_acceptance.py` to see them.  Time limits are
asserted with wall-clock measurements.
"""

import random
import time

import latspace as ls
from latspace import morphology as mo
from latspace import selfcheck as sc
from latspace.distributed import pair_formula_images


def report(line: str) -> None:
    print(line)


# -- 1 -----------------------------------------------------------------------


def test_criterion_01_two_agent_table_reproduction(m2_scs):
    t0 = time.monotonic()
    pooled = sc.methods_agree([m2_scs])
    elapsed = time.monotonic() - t0
    assert pooled == [(0, 2, 0, 2)]  # bottom, ¬p, bottom, ¬p
    assert elapsed < 1.0
    report(
        f"PASS criterion 1: all four methods reproduce the table "
        f"(⊥→⊥, p→¬p, ¬p→⊥, ⊤→¬p) in {elapsed * 1000:.0f} ms"
    )


# -- 2 -----------------------------------------------------------------------


def test_criterion_02_pointwise_meet_failure(m2_scs):
    t0 = time.monotonic()
    lat = m2_scs.lattice
    sc.raw_meet_breaks_join(m2_scs, {lat.id_of("p"), lat.id_of("¬p")})
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(
        f"PASS criterion 2: point-wise meet fails join preservation at "
        f"(p, ¬p) in {elapsed * 1000:.0f} ms"
    )


# -- 3 -----------------------------------------------------------------------


def test_criterion_03_oracle_equivalence(m2_scs):
    seed = 301
    rng = random.Random(seed)
    t0 = time.monotonic()
    lattices = [
        ls.powerset_lattice([f"g{i}" for i in range(k)]) for k in (2, 3, 4)
    ]
    lattices += [ls.chain_lattice(k) for k in (2, 3, 4, 5)]
    for _ in range(100):
        lattices.append(ls.random_distributive_lattice(rng))
    systems = [m2_scs] + [sc.random_scs(lat, rng, rng.randint(2, 3)) for lat in lattices]
    sc.methods_agree(systems)
    cases = len(systems)
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
    for _ in range(10):
        lat = ls.random_distributive_lattice(rng)
        checked += sc.gdc_holds(sc.random_scs(lat, rng, 3)).checked_subsets
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(
        f"PASS criterion 4: D.1-D.3 and maximality on {checked} groups across "
        f"10 random 3-agent systems (seed {seed}) in {elapsed:.1f} s"
    )


# -- 5 -----------------------------------------------------------------------


def test_criterion_05a_agent_galois(space_functions):
    checks = sc.agent_adjunction(space_functions)
    report(f"PASS criterion 5a: agent-level adjunction, {checks} checks, 0 violations")


def test_criterion_05b_group_galois(m2_scs):
    seed = 502
    rng = random.Random(seed)
    lat3 = ls.powerset_lattice(["a", "b", "c"])
    checks = sc.group_adjunction([m2_scs, sc.random_scs(lat3, rng, 3)])
    report(f"PASS criterion 5b: group-level adjunction, {checks} checks, 0 violations")


def test_criterion_05c_morphology_galois():
    seed = 503
    rng = random.Random(seed)
    instances = [
        (sc.random_pointset(rng, dim, (1, 4)), sc.random_pointset(rng, dim), sc.random_pointset(rng, dim))
        for dim in (1, 2)
        for _ in range(200)
    ]
    sc.dilation_adjunction(instances)
    checks = len(instances)
    report(
        f"PASS criterion 5c: dilation/erosion adjunction on {checks} seeded "
        f"instances (seed {seed}), 0 violations"
    )


# -- 6 -----------------------------------------------------------------------


def test_criterion_06_epistemic_equivalence():
    seed = 601
    rng = random.Random(seed)
    t0 = time.monotonic()
    kripke_checks = sc.kripke_knowledge(sc.random_kripke_models(rng) for _ in range(100))
    aumann_checks = sc.aumann_knowledge(sc.random_aumann(rng) for _ in range(100))
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
    unit_interval = (mo.PointSet.of(1, [0, 1]), mo.PointSet.of(1, [1]), mo.PointSet.of(1, [2]))
    sc.intersection_law([unit_interval] + [
        (sc.random_pointset(rng, 2, (0, 6)), sc.random_pointset(rng, 2), sc.random_pointset(rng, 2))
        for _ in range(100)
    ])
    report(
        f"PASS criterion 7: intersection law exact on the 1-d instance and "
        f"100 random triples (seed {seed}), 0 mismatches"
    )


# -- 8 -----------------------------------------------------------------------


def test_criterion_08_small_module_bridge():
    t0 = time.monotonic()
    sc.small_module_bridge()
    elapsed = time.monotonic() - t0
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
    scs = sc.random_scs(lat, rng, 4)
    best = float("inf")
    for _ in range(3):
        t0 = time.monotonic()
        ls.delta_group(scs, sorted(scs.agents), method="tuple")
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
        survey = sc.tuple_formula_survey(canonical[name], name)
        if survey.violations:
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
    images = pair_formula_images(m3, swap_cd.images, b_to_top.images)
    verdict = ls.validate_space_function(m3, images)
    assert images == [m3.bottom_id] * m3.n and verdict is None
    lines.append("the swap/collapse M3 pair itself yields the constant-bottom map")
    elapsed = time.monotonic() - t0
    report(f"PASS criterion 10: survey complete in {elapsed:.1f} s; " + "; ".join(lines))
