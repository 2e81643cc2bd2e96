import dataclasses
import itertools
import json
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latspace as ls
from latspace import selfcheck, spaces
from latspace.errors import (
    FormatError,
    InvalidElement,
    LatticeMismatch,
    NotASpaceFunction,
    TooLarge,
)
from latspace.spaces import DEFAULT_MAX_ENUM, enum_budget, enumeration_size_estimate
from conftest import (
    STACKS,
    agent_projection_reference,
    backtracking_space_functions,
    brute_force_space_functions,
    closure_system_lattice,
    pair_scan_violation,
    stacked_lattice,
    validation_verdicts,
)


def test_space_function_stores_python_ints_from_any_sequence(m2):
    ids = [0, 3, 2, 3]
    block = np.array([ids, [0, 1, 2, 3]], dtype=np.int32).T.copy()
    assert not block[:, 0].flags.contiguous
    given = [ids, tuple(ids), np.array(ids, dtype=np.int32), np.array(ids, dtype=np.int64),
             block[:, 0]]
    for images in given:
        f = ls.SpaceFunction(m2, images)
        assert f.images == (0, 3, 2, 3)
        assert all(type(y) is int for y in f.images)


@pytest.mark.parametrize("images", [[0, 3, 2], [0, 3, 2, 3, 3]], ids=["short", "long"])
def test_classify_images_checks_the_length(m2, images):
    with pytest.raises(InvalidElement, match="expected 4 images"):
        ls.classify_images(m2, images)


def test_identity_validates(m2):
    assert ls.validate_space_function(m2, list(range(4))) is None


def test_collapse_agent_validates(m2):
    # bottom fixed, p to top, ¬p fixed, top fixed
    assert ls.validate_space_function(m2, (0, 3, 2, 3)) is None


def test_s1_violation_witnessed(m2):
    v = ls.validate_space_function(m2, (1, 1, 2, 3))
    assert v is not None and v.axiom == "S.1"
    assert v.witness == (m2.bottom_id,)
    with pytest.raises(NotASpaceFunction):
        ls.SpaceFunction(m2, (1, 1, 2, 3))


def test_s2_violation_witnessed(m2):
    # monotone and bottom-preserving, but p join ¬p lands wrong
    v = ls.validate_space_function(m2, (0, 1, 0, 3))
    assert v is not None and v.axiom == "S.2"


def test_validation_matches_pair_scan(space_functions):
    functions = dict(space_functions)
    for shape in STACKS:
        for k in range(3):
            functions[f"{shape}/{k}"] = ls.enumerate_space_functions(stacked_lattice(k, shape))
    rng = random.Random(6)
    checked = validation_verdicts(functions, rng)
    assert checked == 3 * sum(map(len, functions.values()))


def test_batched_verdicts_match_the_pair_scan(canonical):
    """One verdict call on a batch of columns, an empty batch included,
    gives the verdicts of the pair scan."""
    rng = random.Random(40)
    for lat in [canonical[name] for name in ("M2", "M3", "N5", "chain3")] + [ls.chain_lattice(1)]:
        maps = [ls.random_space_function(lat, rng).images for _ in range(6)]
        maps += [tuple(rng.randrange(lat.n) for _ in range(lat.n)) for _ in range(12)]
        got = spaces._is_space_function(lat, np.array(maps, dtype=np.int32).T)
        assert got.tolist() == [pair_scan_violation(lat, images) is None for images in maps]
        assert spaces._is_space_function(lat, np.zeros((lat.n, 0), dtype=np.int32)).shape == (0,)


def spy_on_verdicts(monkeypatch):
    """Record every verdict call: its batch width B (0 for one 1-D map)
    and its verdicts."""
    calls = []
    verdict = spaces._is_space_function

    def spy(lattice, images):
        got = verdict(lattice, images)
        calls.append((images.shape[1] if images.ndim == 2 else 0, np.atleast_1d(got).tolist()))
        return got

    monkeypatch.setattr(spaces, "_is_space_function", spy)
    return calls


@pytest.mark.parametrize("per_block", [1, 7])
def test_enumeration_blocks_match_the_reference(canonical, monkeypatch, per_block):
    """Enumeration blocks of 1 and 7 candidates, on lattices where the
    verdict rejects candidates, list the reference's space functions in its
    order."""
    for name in ("M3", "N5"):
        lat = canonical[name]
        monkeypatch.setattr(spaces, "_BLOCK_CELLS", per_block * lat.n * len(lat.irreducibles))
        calls = spy_on_verdicts(monkeypatch)
        got = [f.images for f in ls.enumerate_space_functions(lat)]
        assert got == backtracking_space_functions(lat)
        assert all(width <= per_block for width, _ in calls)
        assert not all(ok for _, verdicts in calls for ok in verdicts)  # some are rejected
        monkeypatch.undo()


def test_enumeration_blocks_stay_within_the_cell_budget(monkeypatch):
    """On the 1024-element chain one candidate takes n x |J| > _BLOCK_CELLS
    verdict cells, so every block holds one.  Below f, which is bottom but
    on the top three elements, the enumeration lists every monotone map
    below f."""
    lat = ls.chain_lattice(1024)
    f = ls.SpaceFunction(lat, [max(0, x - 1020) for x in range(lat.n)])
    calls = spy_on_verdicts(monkeypatch)
    got = [g.images[-3:] for g in ls.enumerate_space_functions(lat, [f])]
    cells = lat.n * len(lat.irreducibles)
    assert calls and all(cells * width <= spaces._BLOCK_CELLS or width == 1 for width, _ in calls)
    tails = [t for t in itertools.product(range(2), range(3), range(4)) if t[0] <= t[1] <= t[2]]
    assert got == tails


@pytest.mark.parametrize("name", ["M3", "N5", "chain3", "powerset3"])
def test_random_space_function_takes_one_verdict_per_draw(canonical, monkeypatch, name):
    """Each accepted draw passes one verdict and takes none after it."""
    lat = ls.powerset_lattice("abc") if name == "powerset3" else canonical[name]
    rng = random.Random(name)
    calls = spy_on_verdicts(monkeypatch)
    for _ in range(10):
        calls.clear()
        f = ls.random_space_function(lat, rng)
        assert [ok for _, (ok,) in calls] == [False] * (len(calls) - 1) + [True]
        assert pair_scan_violation(lat, f.images) is None
        assert all(type(y) is int for y in f.images)


def test_batched_witness_matches_validation_column_by_column(canonical):
    rng = random.Random(8)
    lats = [canonical[name] for name in ("M2", "M3", "N5", "chain3")]
    lats += [stacked_lattice(2, shape) for shape in STACKS]
    axioms = set()
    for lat in lats:
        maps = []
        while len(maps) < 40:
            images = [rng.randrange(lat.n) for _ in range(lat.n)]
            if rng.random() < 0.5:
                images[lat.bottom_id] = lat.bottom_id
            if ls.validate_space_function(lat, images) is not None:
                maps.append(images)
        got = spaces._first_violations(lat, np.array(maps, dtype=np.int32).T)
        assert got == [ls.validate_space_function(lat, images) for images in maps]
        assert got == [pair_scan_violation(lat, images) for images in maps]
        axioms.update(v.axiom for v in got)
    assert axioms == {"S.1", "S.2"}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_validation_matches_pair_scan_on_downset_lattices(seed):
    rng = random.Random(seed)
    lat = ls.random_distributive_lattice(rng, points=5)
    fs = [ls.random_space_function(lat, rng) for _ in range(20)]
    assert validation_verdicts({"downsets": fs}, rng) == 60


def test_images_must_be_element_ids(m2):
    with pytest.raises(InvalidElement):
        ls.validate_space_function(m2, (0, 1, 2, 9))
    with pytest.raises(InvalidElement):
        ls.validate_space_function(m2, (0, 1, 2))


def test_every_space_function_is_monotone(canonical, space_functions):
    for name, fs in space_functions.items():
        leq = canonical[name].leq
        for f in fs:
            images = np.asarray(f.images)
            assert not (leq & ~leq[np.ix_(images, images)]).any(), f"{name}: {f!r}"


# -- classification ------------------------------------------------------------


def test_classify_identity(m2):
    kind = ls.classify(ls.identity_function(m2))
    assert kind.idempotent and kind.extensive


def test_classify_constant_bottom(m2):
    kind = ls.classify(ls.bottom_function(m2))
    assert kind.idempotent and not kind.extensive


def test_classify_knowledge_example():
    # six-element implication order with p∨q interpreted as p, the rest fixed
    lat = ls.build_lattice(
        ["true", "p∨q", "p", "q", "p∧q", "false"],
        [
            ("true", "p∨q"),
            ("p∨q", "p"),
            ("p∨q", "q"),
            ("p", "p∧q"),
            ("q", "p∧q"),
            ("p∧q", "false"),
        ],
    )
    images = tuple(
        lat.id_of("p") if lab == "p∨q" else lat.id_of(lab) for lab in lat.labels
    )
    kind = ls.classify_images(lat, images)
    assert kind.idempotent and kind.extensive
    # the map narrowly misses being a space function: it is not monotone
    # along p∨q below q, so join preservation fails there
    v = ls.validate_space_function(lat, images)
    assert v is not None and v.axiom == "S.2"
    assert set(v.witness) == {lat.id_of("p∨q"), lat.id_of("q")}


# -- the function order ----------------------------------------------------------


def test_extremes_bound_everything(space_functions):
    selfcheck.function_extremes(space_functions)


def test_function_leq_needs_same_lattice(m2, m3):
    with pytest.raises(LatticeMismatch):
        ls.function_leq(ls.identity_function(m2), ls.identity_function(m3))


def test_pointwise_join_frozen_m2_case(m2_scs):
    m2 = m2_scs.lattice
    joined = ls.pointwise_join([m2_scs.agent("1"), m2_scs.agent("2")])
    assert joined.images == (0, 3, 3, 3)


def test_pointwise_join_laws(m2_scs):
    f = m2_scs.agent("1")
    assert ls.pointwise_join([f]).images == f.images
    lo = ls.bottom_function(m2_scs.lattice)
    assert ls.pointwise_join([lo, f]).images == f.images


def test_pointwise_join_always_validates(space_functions):
    rng = random.Random(5)
    for name in ("M2", "M3", "N5"):
        fs = space_functions[name]
        selfcheck.join_upper_bounds([(rng.choice(fs), rng.choice(fs)) for _ in range(40)])


def test_pointwise_meet_raw_single_and_top(m2_scs):
    f = m2_scs.agent("1")
    assert ls.pointwise_meet_raw([f]) == list(f.images)
    hi = ls.top_function(m2_scs.lattice)
    assert ls.pointwise_meet_raw([hi, f]) == list(f.images)


def test_pointwise_folds_of_three_match_the_element_folds(canonical, space_functions):
    rng = random.Random(3)
    for name, lat in canonical.items():
        for _ in range(10):
            fs = [rng.choice(space_functions[name]) for _ in range(3)]
            columns = [[f.images[x] for f in fs] for x in range(lat.n)]
            assert ls.pointwise_join(fs).images == tuple(lat.join_of(c) for c in columns)
            meet = ls.pointwise_meet_raw(fs)
            assert meet == [lat.meet_of(c) for c in columns]
            assert all(type(y) is int for y in meet)


# -- enumeration ------------------------------------------------------------------


def test_three_element_chain_count_against_filtration():
    chain = ls.chain_lattice(3)
    enumerated = sorted(f.images for f in ls.enumerate_space_functions(chain))
    brute = sorted(brute_force_space_functions(chain))
    assert enumerated == brute
    assert len(enumerated) == 6  # frozen from the filtration oracle


def test_m2_count_against_filtration(m2):
    enumerated = sorted(f.images for f in ls.enumerate_space_functions(m2))
    brute = sorted(brute_force_space_functions(m2))
    assert enumerated == brute
    assert len(enumerated) == 16  # frozen: 4^4 = 256 maps filtered


@pytest.mark.parametrize("name,count", [("M3", 50), ("N5", 43)])
def test_nondistributive_counts_against_filtration(canonical, name, count):
    lat = canonical[name]
    enumerated = sorted(f.images for f in ls.enumerate_space_functions(lat))
    brute = sorted(brute_force_space_functions(lat))
    assert enumerated == brute
    assert len(enumerated) == count  # frozen from the filtration oracle


def test_below_bottom_gives_only_bottom(m2):
    only = ls.enumerate_space_functions(m2, [ls.bottom_function(m2)])
    assert [f.images for f in only] == [ls.bottom_function(m2).images]


def test_below_filters_correctly(m2_scs):
    m2 = m2_scs.lattice
    bounds = [m2_scs.agent("1"), m2_scs.agent("2")]
    below = {f.images for f in ls.enumerate_space_functions(m2, bounds)}
    expected = {
        f.images
        for f in ls.enumerate_space_functions(m2)
        if all(ls.function_leq(f, g) for g in bounds)
    }
    assert below == expected


def test_enumeration_is_deterministic(m3):
    first = [f.images for f in ls.enumerate_space_functions(m3)]
    second = [f.images for f in ls.enumerate_space_functions(m3)]
    assert first == second


ORDER_CASES = [
    *ls.fixtures(),
    *[f"downsets/{seed}" for seed in range(6)],
    *[f"chain/{k}" for k in (1, 2, 5, 9)],
    *[f"{shape}/{k}" for shape in STACKS for k in range(3)],
]


def order_case(name):
    kind, split, arg = name.partition("/")
    if not split:
        return ls.fixtures()[name]
    if kind == "downsets":
        return ls.random_distributive_lattice(random.Random(int(arg)), points=4)
    if kind == "chain":
        return ls.chain_lattice(int(arg))
    return stacked_lattice(int(arg), kind)


@pytest.mark.parametrize("name", ORDER_CASES)
def test_enumeration_order_matches_backtracking_reference(name):
    lat = order_case(name)
    rng = random.Random(name)
    draws = [ls.random_space_function(lat, rng) for _ in range(2)]
    while enumeration_size_estimate(lat, draws) > enum_budget():  # the 9-element chain
        draws.append(ls.random_space_function(lat, rng))
    for below in (None, draws):
        if enumeration_size_estimate(lat, below) > enum_budget():
            with pytest.raises(TooLarge):
                ls.enumerate_space_functions(lat, below)
            continue
        reference = backtracking_space_functions(lat, below)
        assert [f.images for f in ls.enumerate_space_functions(lat, below)] == reference
        joined = tuple(lat.join_of(column) for column in zip(*reference))
        assert ls.function_meet_oracle(lat, below or []).images == joined


def irreducible_meet_reference(lat, fs, members):
    """Reference for spaces._irreducible_meet: for each group (column of
    members), the meet-table fold of its functions' images at J, from top."""
    irr = list(lat.irreducibles)
    out = np.full((len(irr), members.shape[1]), lat.top_id)
    for g in range(members.shape[1]):
        for f, member in zip(fs, members[:, g]):
            if member:
                out[:, g] = lat.meet_table[out[:, g], [f.images[j] for j in irr]]
    return out


def assert_irreducible_meet_matches_the_meet_table(lat, rng):
    for m in range(4):
        fs = [ls.random_space_function(lat, rng) for _ in range(m)]
        members = np.array([[rng.random() < 0.6 for _ in range(5)] for _ in range(m)],
                           dtype=bool).reshape(m, 5)
        members[:, 0] = False  # a group with no functions meets to top
        want = irreducible_meet_reference(lat, fs, members)
        assert np.array_equal(spaces._irreducible_meet(lat, fs, members), want)
        whole = irreducible_meet_reference(lat, fs, np.ones((m, 1), dtype=bool))[:, 0]
        assert np.array_equal(spaces._irreducible_meet(lat, fs), whole)
        pointwise = np.full(lat.n, lat.top_id)
        for f in fs:
            pointwise = lat.meet_table[pointwise, f.images]
        assert [lat.meet_of([f.images[x] for f in fs]) for x in range(lat.n)] == pointwise.tolist()
        assert not fs or ls.pointwise_meet_raw(fs) == pointwise.tolist()
    top = np.full(len(lat.irreducibles), lat.top_id)
    assert np.array_equal(spaces._irreducible_meet(lat, None), top)
    assert np.array_equal(spaces._irreducible_meet(lat, []), top)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_irreducible_meet_matches_the_meet_table_on_closure_systems(seed):
    # closure systems are seldom distributive; the key meet holds on any lattice
    rng = random.Random(seed)
    assert_irreducible_meet_matches_the_meet_table(closure_system_lattice(rng, rng.randint(2, 5)), rng)


@pytest.mark.parametrize("size", [1, 2, 65, 130])
def test_irreducible_meet_matches_the_meet_table_on_chains(size):
    # the keys of the longer chains span more than 64 bits; the 1-element
    # chain has no irreducibles
    assert_irreducible_meet_matches_the_meet_table(ls.chain_lattice(size), random.Random(size))


def test_irreducible_meet_matches_the_meet_table_on_the_fixtures(canonical):
    rng = random.Random(5)
    for lat in [*canonical.values(), stacked_lattice(3, "M3"), stacked_lattice(3, "N5")]:
        assert_irreducible_meet_matches_the_meet_table(lat, rng)


def test_enumeration_validates_no_member_again(m3, monkeypatch):
    def refuse(lattice, images):
        raise AssertionError("enumerate_space_functions validated a member again")

    monkeypatch.setattr(spaces, "validate_space_function", refuse)
    fs = ls.enumerate_space_functions(m3)
    monkeypatch.undo()
    assert fs == [ls.SpaceFunction(m3, f.images) for f in fs]
    assert all(type(y) is int for f in fs for y in f.images)
    assert sorted(f.images for f in fs) == sorted(brute_force_space_functions(m3))


def test_enumeration_order_across_blocks(monkeypatch):
    lat = stacked_lattice(2, "N5")
    monkeypatch.setattr(spaces, "_BLOCK_CELLS", 7 * lat.n * len(lat.irreducibles))  # 7 per block
    estimate = enumeration_size_estimate(lat)
    assert estimate > 7 and estimate % 7  # several blocks, the last one partial
    reference = backtracking_space_functions(lat)
    assert [f.images for f in ls.enumerate_space_functions(lat)] == reference
    joined = tuple(lat.join_of(column) for column in zip(*reference))
    assert ls.function_meet_oracle(lat, []).images == joined


def test_enumeration_cap(monkeypatch):
    lat = ls.powerset_lattice(["a", "b", "c", "d"])
    monkeypatch.setenv("LATSPACE_MAX_ENUM", "10")
    with pytest.raises(TooLarge) as err:
        ls.enumerate_space_functions(lat)
    assert "candidates" in str(err.value)


def test_default_budget_refuses_just_above_it_quickly(monkeypatch):
    # M6: six atoms between bottom and top, 8^6 = 262,144 candidates
    atoms = list("abcdef")
    m6 = ls.build_lattice(["0", *atoms, "1"], [("0", a) for a in atoms] + [(a, "1") for a in atoms])
    assert DEFAULT_MAX_ENUM < enumeration_size_estimate(m6) < 1.1 * DEFAULT_MAX_ENUM
    monkeypatch.delenv("LATSPACE_MAX_ENUM", raising=False)
    t0 = time.monotonic()
    with pytest.raises(TooLarge):
        ls.function_meet_oracle(m6, [])
    assert time.monotonic() - t0 < 1.0


def test_enum_cap_env_override(monkeypatch):
    lat = ls.powerset_lattice(["a", "b", "c"])
    for raw in ("3", "0"):  # 0 is a budget, not a malformed value
        monkeypatch.setenv("LATSPACE_MAX_ENUM", raw)
        with pytest.raises(TooLarge):
            ls.enumerate_space_functions(lat)
    monkeypatch.setenv("LATSPACE_MAX_ENUM", "100000")
    assert ls.enumerate_space_functions(lat)


# -- the meet oracle ---------------------------------------------------------------


def test_meet_oracle_single(m2_scs):
    f = m2_scs.agent("1")
    assert ls.function_meet_oracle(m2_scs.lattice, [f]).images == f.images


def test_meet_oracle_empty_is_top(m2):
    assert ls.function_meet_oracle(m2, []).images == ls.top_function(m2).images


def test_meet_oracle_m2_table(m2_scs):
    got = ls.function_meet_oracle(m2_scs.lattice, [m2_scs.agent("1"), m2_scs.agent("2")])
    assert got.images == (0, 2, 0, 2)


def test_meet_oracle_is_the_greatest_lower_bound(canonical):
    for name in ("M2", "M3"):
        lat = canonical[name]
        fs = ls.enumerate_space_functions(lat)
        rng = random.Random(name)
        for _ in range(10):
            bounds = [rng.choice(fs), rng.choice(fs)]
            meet = ls.function_meet_oracle(lat, bounds)
            assert all(ls.function_leq(meet, g) for g in bounds)
            for f in fs:
                if all(ls.function_leq(f, g) for g in bounds):
                    assert ls.function_leq(f, meet)


# -- projections -------------------------------------------------------------------


def test_projection_values_on_m2(m2_scs):
    m2 = m2_scs.lattice
    p, notp = m2.id_of("p"), m2.id_of("¬p")
    assert ls.agent_projection(m2_scs.agent("1"), p) == notp
    assert ls.agent_projection(m2_scs.agent("2"), p) == m2.bottom_id
    for f in m2_scs.agents.values():
        assert ls.agent_projection(f, m2.top_id) == m2.top_id


def assert_projections_match_reference(f):
    for c in range(f.lattice.n):
        assert ls.agent_projection(f, c) == agent_projection_reference(f, c)


@pytest.mark.parametrize("name", ["M2", "M3", "N5", "herbrand-xy-ab", "chain3"])
def test_projection_matches_reference_on_every_space_function(space_functions, name):
    for f in space_functions[name]:
        assert_projections_match_reference(f)


def test_projection_matches_reference_on_the_extreme_spaces(canonical):
    for lat in canonical.values():
        for f in (ls.top_function(lat), ls.bottom_function(lat), ls.identity_function(lat)):
            assert_projections_match_reference(f)


def test_projection_matches_reference_on_closure_systems():
    # eight lattices that are not distributive and two that are, each also
    # reversed, so that the ids do not always grow along the order
    rng = random.Random(23)
    wanted = {False: 8, True: 2}
    while any(wanted.values()):
        lat = closure_system_lattice(rng, rng.randint(3, 5))
        if wanted[lat.is_distributive]:
            wanted[lat.is_distributive] -= 1
            for each in (lat, ls.FiniteLattice(lat.labels, lat.leq.T)):
                for _ in range(4):
                    assert_projections_match_reference(ls.random_space_function(each, rng))


@pytest.mark.parametrize("size", [1, 2, 1024])
def test_projection_matches_reference_at_the_edges_of_the_irreducibles(size):
    """The 1-element lattice has no join-irreducible, the 2-chain one, and
    the 1024-element chain 1023, every element but bottom.  On a chain a
    space function is a monotone map that fixes bottom."""
    lat = ls.chain_lattice(size)
    rng = random.Random(size)
    by_rank = np.argsort(lat.down_sizes)
    for _ in range(3 if size > 2 else 1):
        ranks = [0] + sorted(rng.randrange(size) for _ in range(size - 1))
        f = ls.SpaceFunction(lat, by_rank[np.take(ranks, lat.down_sizes - 1)])
        assert_projections_match_reference(f)
    for f in ls.enumerate_space_functions(lat) if size < 3 else ():
        assert_projections_match_reference(f)


def test_the_constant_spaces_are_space_functions_on_every_lattice(canonical):
    """top_function, bottom_function and identity_function skip validation;
    each is a space function on every lattice, distributive or not."""
    rng = random.Random(37)
    lats = [*canonical.values(), ls.chain_lattice(1), ls.chain_lattice(2)]
    lats += [closure_system_lattice(rng, rng.randint(1, 5)) for _ in range(20)]
    assert {False, True} <= {lat.is_distributive for lat in lats}
    for lat in lats:
        for make in (ls.top_function, ls.bottom_function, ls.identity_function):
            f = make(lat)
            assert ls.validate_space_function(lat, f.images) is None
            assert f == ls.SpaceFunction(lat, f.images)
            assert type(f.images) is tuple and all(type(y) is int for y in f.images)


def test_down_sizes_count_the_elements_below(canonical):
    for lat in canonical.values():
        assert lat.down_sizes.tolist() == [np.count_nonzero(lat.leq[:, x]) for x in range(lat.n)]
        for table in (lat.down_sizes, lat.cover):
            assert not table.flags.writeable


# -- agent systems ------------------------------------------------------------------


def test_scs_rejects_foreign_lattice(m2, m3):
    with pytest.raises(LatticeMismatch):
        ls.Scs(m2, {"1": ls.identity_function(m3)})


def test_scs_agents_are_a_read_only_copy(m2, m2_scs):
    with pytest.raises(TypeError):
        m2_scs.agents["3"] = m2_scs.agent("1")
    given = {"1": ls.identity_function(m2)}
    scs = ls.Scs(m2, given)
    given["2"] = ls.identity_function(m2)
    assert list(scs.agents) == ["1"]


def test_read_only_scs_loads_dumps_compares_and_replaces(m2_scs):
    doc = m2_scs.to_json()
    assert ls.Scs.from_json(doc).to_json() == doc
    assert json.loads(json.dumps(doc)) == doc
    twin = ls.Scs(m2_scs.lattice, dict(m2_scs.agents))
    ls.delta_group(twin, ["1", "2"])
    assert twin.pooled and twin == m2_scs
    one = dataclasses.replace(twin, agents={"1": m2_scs.agent("1")})
    assert list(one.agents) == ["1"] and one.pooled == {}
    with pytest.raises(TypeError):
        one.agents["2"] = m2_scs.agent("2")


def test_scs_unknown_agent(m2_scs):
    with pytest.raises(ls.UnknownAgent):
        m2_scs.agent("9")


def test_scs_json_round_trip(m2_scs, tmp_path):
    path = tmp_path / "scs.json"
    m2_scs.dump(path)
    loaded = ls.Scs.load(path)
    assert loaded.lattice.labels == m2_scs.lattice.labels
    for name in m2_scs.agents:
        assert loaded.agent(name).images == m2_scs.agent(name).images


def test_scs_arrow_image_format(m2, tmp_path):
    doc = {
        "lattice": m2.to_json(),
        "agents": {"1": ["¬p→p", "p∨¬p→p∨¬p", "p∧¬p→p∧¬p", "p→¬p"]},
    }
    scs = ls.Scs.from_json(doc)
    assert scs.agent("1").images == (0, 2, 1, 3)


def _chain_doc(labels, images):
    covers = [[lo, hi] for lo, hi in zip(labels, labels[1:])]
    return {"lattice": {"elements": labels, "covers": covers}, "agents": {"1": images}}


@pytest.mark.parametrize("labels,images,want", [
    (["bot", "p→q", "top"], ["bot", "p→q", "top"], (0, 1, 2)),
    (["bot", "a->b", "top"], ["bot", "a->b", "top"], (0, 1, 2)),
    (["bot", "p→q", "top"], ["bot→bot", "p→q→top", "top->top"], (0, 2, 2)),
], ids=["plain-unicode-arrow", "plain-ascii-arrow", "arrow-from-arrow-label"])
def test_scs_labels_that_contain_arrows(labels, images, want):
    assert ls.Scs.from_json(_chain_doc(labels, images)).agent("1").images == want


@pytest.mark.parametrize("labels,images,message", [
    # "a→b→c" reads as a→(b→c) and as (a→b)→c.
    (["a", "a→b", "b→c", "c"], ["a→a", "a→b→c", "b→c→c", "c→c"],
     "'a→b→c' is an arrow between two labels in 2 ways"),
    (["bot", "p→q", "top"], ["bot", "p→q", "tpo"], "unknown element label 'tpo'"),
    (["bot", "p→q", "top"], ["bot→bot", "p→q→top", "top→tpo"], "unknown element label 'tpo'"),
], ids=["ambiguous-arrow", "plain-unknown-label", "arrow-unknown-label"])
def test_scs_refused_agent_images_name_the_entry(labels, images, message):
    with pytest.raises(InvalidElement, match=message):
        ls.Scs.from_json(_chain_doc(labels, images))


def test_scs_lattice_by_path(m2, tmp_path):
    m2.dump(tmp_path / "lat.json")
    doc = {"lattice": "lat.json", "agents": {"1": list(m2.labels)}}
    (tmp_path / "scs.json").write_text(
        json.dumps(doc, ensure_ascii=False), encoding="utf-8"
    )
    scs = ls.Scs.load(tmp_path / "scs.json")
    assert scs.agent("1").images == tuple(range(4))


def test_scs_missing_arrow_entry(m2):
    doc = {"lattice": m2.to_json(), "agents": {"1": ["p→p", "p→p", "p→p", "p→p"]}}
    with pytest.raises(InvalidElement):
        ls.Scs.from_json(doc)


@pytest.mark.parametrize("doc", [
    [1, 2],
    "scs",
    {"lattice": {"elements": ["a"], "covers": []}, "agents": [["a"]]},
])
def test_scs_rejects_malformed_documents(doc):
    with pytest.raises(InvalidElement):
        ls.Scs.from_json(doc)


def test_enum_cap_env_must_be_an_integer(monkeypatch):
    lat = ls.powerset_lattice(["a"])
    for raw in ("abc", "-1"):
        monkeypatch.setenv("LATSPACE_MAX_ENUM", raw)
        with pytest.raises(FormatError):
            ls.enumerate_space_functions(lat)
