import random
from functools import reduce

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import latspace as ls
from latspace import distributed, selfcheck, spaces
from latspace import epistemic as ep
from latspace.distributed import pair_formula_images, subgroups
from latspace.spaces import enumeration_size_estimate
from latspace.errors import LatticeMismatch, NotDistributive, TooLarge, UnknownAgent

from conftest import STACKS, agent_projection_reference, closure_system_lattice, stacked_lattice


def naive_pair_formula(lat, f, g):
    """Independent cubic evaluation of the pair formula."""
    out = []
    for c in range(lat.n):
        acc = lat.top_id
        for a in range(lat.n):
            for b in range(lat.n):
                if lat.leq[c, lat.join_table[a, b]]:
                    val = lat.join_table[f.images[a], g.images[b]]
                    acc = lat.meet_table[acc, val]
        out.append(int(acc))
    return out


def subtract_recursion_reference(lat, f_images, g_images):
    """Element-by-element subtraction recursion: for each c, the meet of
    f(a) join g(c minus a) over a below c."""
    sub = lat.subtract_table
    join = lat.join_rows
    meet = lat.meet_rows
    images = []
    for c in range(lat.n):
        acc = lat.top_id
        for a in lat.down_ids(c):
            acc = meet[acc][join[f_images[a]][g_images[sub[c][a]]]]
        images.append(acc)
    return tuple(images)


FROZEN_M2_TABLE = (0, 2, 0, 2)  # bottom, ¬p, bottom, ¬p


def test_delta_pair_reproduces_the_m2_table(m2_scs):
    got = ls.delta_pair(m2_scs.lattice, m2_scs.agent("1"), m2_scs.agent("2"))
    assert got.images == FROZEN_M2_TABLE
    assert ls.function_leq(got, m2_scs.agent("1"))
    assert ls.function_leq(got, m2_scs.agent("2"))


def test_delta_pair_subtract_matches(m2_scs):
    got = ls.delta_pair_subtract(m2_scs.lattice, m2_scs.agent("1"), m2_scs.agent("2"))
    assert got.images == FROZEN_M2_TABLE


def test_delta_pair_with_least_space_is_identity_of_meet(m2_scs):
    lat = m2_scs.lattice
    f = m2_scs.agent("1")
    assert ls.delta_pair(lat, f, ls.top_function(lat)).images == f.images


def test_delta_pair_idempotent(canonical):
    rng = random.Random(1)
    for _ in range(10):
        lat = ls.random_distributive_lattice(rng)
        f = ls.random_space_function(lat, rng)
        assert ls.delta_pair(lat, f, f).images == f.images


def test_delta_pair_requires_distributive(m3):
    fs = ls.enumerate_space_functions(m3)
    refusal = ("lattice is not distributive (witness triple 'd', 'b', 'c'); "
               "use the oracle method or the raw pair formula")
    for step in (ls.delta_pair, ls.delta_pair_subtract):
        with pytest.raises(NotDistributive) as err:
            step(m3, fs[0], fs[1])
        assert str(err.value) == refusal


def test_raw_pair_formula_matches_naive_everywhere(canonical):
    rng = random.Random(2)
    lats = [canonical["M2"], canonical["M3"], canonical["N5"]]
    for _ in range(10):
        lats.append(ls.random_distributive_lattice(rng))
    for lat in lats:
        fs = ls.enumerate_space_functions(lat)
        for _ in range(8):
            f, g = rng.choice(fs), rng.choice(fs)
            assert pair_formula_images(lat, f.images, g.images) == naive_pair_formula(
                lat, f, g
            )


def test_batched_pair_formula_matches_naive_on_every_pair(canonical):
    for name in ("M2", "M3", "N5", "chain3"):
        lat = canonical[name]
        fs = ls.enumerate_space_functions(lat)
        pairs = [(f, g) for i, f in enumerate(fs) for g in fs[i:]]
        table = np.array([f.images for f in fs], dtype=np.int32).T
        firsts, seconds = np.triu_indices(len(fs))
        images = pair_formula_images(lat, table[:, firsts], table[:, seconds])
        assert images.shape == (lat.n, len(pairs))
        for k, (f, g) in enumerate(pairs):
            assert images[:, k].tolist() == naive_pair_formula(lat, f, g)


def test_batched_pair_formula_matches_naive_on_closure_systems():
    rng = random.Random(12)
    lats = []
    while len(lats) < 4:
        lat = closure_system_lattice(rng, rng.randint(3, 4))
        if not lat.is_distributive:
            lats.append(lat)
    for lat in lats:
        fs = [ls.random_space_function(lat, rng) for _ in range(12)]
        f_block = np.array([f.images for f in fs[:6]]).T
        g_block = np.array([g.images for g in fs[6:]]).T
        images = pair_formula_images(lat, f_block, g_block)
        for k in range(6):
            assert images[:, k].tolist() == naive_pair_formula(lat, fs[k], fs[6 + k])
        # a block of one pair, and the 1-D call on the same pair
        one = pair_formula_images(lat, f_block[:, :1], g_block[:, :1])
        assert one.shape == (lat.n, 1) and one[:, 0].tolist() == images[:, 0].tolist()
        assert pair_formula_images(lat, fs[0].images, fs[6].images) == images[:, 0].tolist()


def test_pair_formula_verdict_names_the_failed_axiom(m3):
    collapse_to_b = ls.SpaceFunction(m3, (0, 1, 1, 1, 1))
    ident = ls.identity_function(m3)
    images = pair_formula_images(m3, collapse_to_b.images, ident.images)
    verdict = ls.validate_space_function(m3, images)
    assert verdict is not None and verdict.axiom == "S.2"
    # the counterexample shape: both atoms map below their join's image
    c, d = verdict.witness
    jt = m3.join_table
    assert images[jt[c, d]] != jt[images[c], images[d]]


def test_swap_collapse_pair_on_m3_gives_constant_bottom(m3):
    # swap two atoms / send one atom to the top: the formula collapses
    swap_cd = ls.SpaceFunction(m3, (0, 1, 3, 2, 4))
    b_to_top = ls.SpaceFunction(m3, (0, 4, 2, 3, 4))
    images = pair_formula_images(m3, swap_cd.images, b_to_top.images)
    verdict = ls.validate_space_function(m3, images)
    assert images == [m3.bottom_id] * m3.n
    assert verdict is None  # constantly-bottom IS a space function


# -- group fold --------------------------------------------------------------------


def test_delta_group_empty_is_least_space(m2_scs):
    got = ls.delta_group(m2_scs, [])
    assert got.images == ls.top_function(m2_scs.lattice).images


def test_delta_group_singleton_is_the_agent(m2_scs):
    assert ls.delta_group(m2_scs, ["2"]).images == m2_scs.agent("2").images


def test_delta_group_unknown_agent(m2_scs):
    with pytest.raises(UnknownAgent):
        ls.delta_group(m2_scs, ["1", "9"])


def test_delta_group_method_validation(m2_scs):
    with pytest.raises(ValueError):
        ls.delta_group(m2_scs, ["1"], method="bogus")


def test_delta_group_refuses_nondistributive_folds(m3):
    fs = ls.enumerate_space_functions(m3)
    scs = ls.Scs(m3, {"1": fs[3], "2": fs[5]})
    for method in ("tuple", "subtract"):
        with pytest.raises(NotDistributive):
            ls.delta_group(scs, ["1", "2"], method=method)
    # the oracle route still works and sits below both agents
    meet = ls.delta_group(scs, ["1", "2"], method="oracle")
    assert ls.function_leq(meet, fs[3]) and ls.function_leq(meet, fs[5])


def test_delta_group_order_independent():
    rng = random.Random(17)
    scs = selfcheck.random_scs(ls.powerset_lattice(["a", "b", "c"]), rng, 4)
    names = list(scs.agents)
    reference = ls.delta_group(scs, names).images
    for _ in range(5):
        rng.shuffle(names)
        assert ls.delta_group(scs, names).images == reference


def test_delta_family_caches(m2_scs):
    family = ls.DeltaFamily(m2_scs)
    first = family.get(["1", "2"])
    assert family.get(["2", "1"]) is first
    assert frozenset(["1", "2"]) in family.cache


def family_systems():
    """Random systems of 2-5 agents on random distributive lattices, and
    4 agents on the 512-element powerset."""
    rng = random.Random(71)
    systems = [selfcheck.random_scs(ls.random_distributive_lattice(rng, points=rng.randint(1, 6)),
                                    rng, agents)
               for agents in range(2, 6) for _ in range(3)]
    big = ls.powerset_lattice([f"g{i}" for i in range(9)])
    return systems + [selfcheck.random_scs(big, rng, 4)]


@pytest.mark.parametrize("scs", family_systems())
def test_family_entries_equal_delta_group(scs):
    family = ls.DeltaFamily(scs)
    groups = subgroups(scs)
    got = [family.get(group) for group in groups]
    assert [f.images for f in got] == [ls.delta_group(scs, g).images for g in groups]
    assert all(f.lattice is scs.lattice for f in got)
    assert len(family.cache) == 2 ** len(scs.agents)
    assert all(family.get(group) is f for group, f in zip(groups, got))


@pytest.mark.parametrize("name", ["M3", "N5"])
def test_family_on_nondistributive_answers_small_groups(canonical, name):
    lat = canonical[name]
    scs = selfcheck.random_scs(lat, random.Random(3), 3)
    family = ls.DeltaFamily(scs)
    assert family.get([]).images == ls.top_function(lat).images
    for agent in scs.agents:
        assert family.get([agent]) is scs.agent(agent)
    with pytest.raises(NotDistributive) as refused:
        family.get(["1", "2"])
    with pytest.raises(NotDistributive) as direct:
        ls.delta_group(scs, ["1", "2"])
    assert str(refused.value) == str(direct.value)
    assert "not distributive (witness triple" in str(refused.value)
    assert len(family.cache) == 1 + len(scs.agents)


def test_family_caps_the_agent_count():
    lat = ls.powerset_lattice(["a", "b"])
    rng = random.Random(9)
    five = selfcheck.random_scs(lat, rng, distributed.MAX_GDC_AGENTS)
    assert len(ls.DeltaFamily(five).get(five.agents).images) == lat.n
    six = selfcheck.random_scs(lat, rng, distributed.MAX_GDC_AGENTS + 1)
    with pytest.raises(TooLarge):
        ls.DeltaFamily(six)


def test_family_reports_a_failed_column_as_a_space_function_would(m2_scs, monkeypatch):
    lat = m2_scs.lattice
    broken = np.array([[0, 1, 0, 3]], dtype=np.int32).T  # breaks join preservation
    monkeypatch.setattr(lat, "extend", lambda values: broken)
    fresh = ls.Scs(lat, dict(m2_scs.agents))  # the shared fixture's memo may hold the group
    with pytest.raises(ls.NotASpaceFunction) as batched:
        ls.DeltaFamily(fresh).get(["1", "2"])
    with pytest.raises(ls.NotASpaceFunction) as single:
        ls.SpaceFunction(lat, (0, 1, 0, 3))
    assert str(batched.value) == str(single.value)


def test_delta_tuples_direct_values(m2_scs):
    lat = m2_scs.lattice
    for c in range(lat.n):
        assert ls.delta_tuples_direct(m2_scs, ["1"], c) == m2_scs.agent("1").images[c]
        assert (
            ls.delta_tuples_direct(m2_scs, ["1", "2"], c) == FROZEN_M2_TABLE[c]
        )
    assert ls.delta_tuples_direct(m2_scs, ["1", "2"], lat.top_id) == lat.id_of("¬p")


def test_delta_tuples_direct_cap(m2_scs, monkeypatch):
    monkeypatch.setenv("LATSPACE_MAX_ENUM", "3")
    with pytest.raises(TooLarge):
        ls.delta_tuples_direct(m2_scs, ["1", "2"], 0)
    monkeypatch.setenv("LATSPACE_MAX_ENUM", "16")
    assert ls.delta_tuples_direct(m2_scs, ["1", "2"], 0) == FROZEN_M2_TABLE[0]


def test_delta_general_matches_fold_on_distributive():
    rng = random.Random(23)
    selfcheck.methods_agree(
        selfcheck.random_scs(ls.random_distributive_lattice(rng), rng, 2) for _ in range(10)
    )



def test_compositionality_on_random_distributive_systems():
    rng = random.Random(31)
    systems = [selfcheck.random_scs(ls.random_distributive_lattice(rng), rng, rng.randint(2, 4))
               for _ in range(15)]
    assert selfcheck.compositionality(systems) >= 15 * 16

def test_delta_general_below_inputs_on_n5(n5):
    fs = ls.enumerate_space_functions(n5)
    rng = random.Random(4)
    for _ in range(10):
        f, g = rng.choice(fs), rng.choice(fs)
        meet = ls.function_meet_oracle(n5, [f, g])
        assert ls.function_leq(meet, f)
        assert ls.function_leq(meet, g)


def test_direct_tuple_scan_matches_pair_formula_on_m3(m3):
    fs = ls.enumerate_space_functions(m3)
    rng = random.Random(13)
    for _ in range(10):
        f, g = rng.choice(fs), rng.choice(fs)
        scs = ls.Scs(m3, {"1": f, "2": g})
        direct = [ls.delta_tuples_direct(scs, ["1", "2"], c) for c in range(m3.n)]
        assert direct == pair_formula_images(m3, f.images, g.images)


def test_m3_general_vs_raw_formula(m3):
    # on the non-distributive fixture the raw formula may sit strictly
    # above the true meet; the oracle is the ground truth
    collapse_to_b = ls.SpaceFunction(m3, (0, 1, 1, 1, 1))
    ident = ls.identity_function(m3)
    exact = ls.function_meet_oracle(m3, [collapse_to_b, ident])
    raw = pair_formula_images(m3, collapse_to_b.images, ident.images)
    verdict = ls.validate_space_function(m3, raw)
    assert verdict is not None
    assert all(m3.leq[e, r] for e, r in zip(exact.images, raw))
    assert exact.images != tuple(raw)


# -- the join-prime fold against its references -------------------------------------

ORACLE_CAP = 3000  # enumeration candidates; above it the oracle check is skipped


def assert_fold_matches_references(lat, rng, agents) -> bool:
    """Checks the fold of random agents; returns whether the oracle ran."""
    scs = ls.Scs(lat, {str(i): ls.random_space_function(lat, rng) for i in range(agents)})
    names = sorted(scs.agents)
    images = [scs.agent(x).images for x in names]
    by_tuple = ls.delta_group(scs, names, "tuple").images
    assert ls.delta_group(scs, names, "subtract").images == by_tuple
    assert tuple(reduce(lambda acc, g: pair_formula_images(lat, acc, g), images)) == by_tuple
    assert reduce(lambda acc, g: subtract_recursion_reference(lat, acc, g), images) == by_tuple
    fs = [scs.agent(x) for x in names]
    if enumeration_size_estimate(lat, fs) > ORACLE_CAP:
        return False
    assert ls.function_meet_oracle(lat, fs).images == by_tuple
    return True


def oracle_event(checked: bool) -> None:
    event("oracle checked" if checked else "oracle infeasible")


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), agents=st.integers(2, 4))
def test_fold_matches_references_on_random_downset_lattices(seed, agents):
    rng = random.Random(seed)
    lat = ls.random_distributive_lattice(rng, points=7)
    oracle_event(assert_fold_matches_references(lat, rng, agents))


@settings(max_examples=50, deadline=None)
@given(k=st.integers(0, 4), seed=st.integers(0, 10_000), agents=st.integers(2, 4))
def test_fold_matches_references_on_powersets(k, seed, agents):
    lat = ls.powerset_lattice([f"g{i}" for i in range(k)])
    oracle_event(assert_fold_matches_references(lat, random.Random(seed), agents))


def test_fold_matches_references_on_m2_and_chain(canonical):
    rng = random.Random(7)
    for name in ("M2", "chain3"):
        for agents in (2, 3, 4):
            assert assert_fold_matches_references(canonical[name], rng, agents)


@pytest.mark.parametrize("shape,size", [("chain", 63), ("chain", 64), ("chain", 65),
                                        ("chain", 129), ("powerset", 6), ("powerset", 7)])
def test_meet_reductions_match_references_past_one_word(shape, size):
    # down-sets of 65 or more elements span more than one 64-bit word
    if shape == "chain":
        lat = ls.chain_lattice(size)
    else:
        lat = ls.powerset_lattice([f"g{i}" for i in range(size)])
    rng = random.Random(size)
    for _ in range(2):
        f, g = ls.random_space_function(lat, rng), ls.random_space_function(lat, rng)
        assert ls.delta_pair_subtract(lat, f, g).images == subtract_recursion_reference(
            lat, f.images, g.images
        )
        assert pair_formula_images(lat, f.images, g.images) == naive_pair_formula(lat, f, g)


def fold_lattices():
    """Distributive lattices for the group fold: every one of at most 16
    elements is also checked against the oracle."""
    rng = random.Random(41)
    lats = [ls.random_distributive_lattice(rng, points=4) for _ in range(4)]
    lats += [ls.powerset_lattice(["a", "b", "c", "d"]), ls.chain_lattice(5), ls.fixtures()["M2"]]
    return lats + [ls.powerset_lattice([f"g{i}" for i in range(6)]),
                   ls.random_distributive_lattice(rng, points=7)]


@pytest.mark.parametrize("agents", range(2, 6))
def test_delta_group_equals_the_left_fold_of_pair_steps(agents):
    rng = random.Random(agents)
    for lat in fold_lattices():
        scs = selfcheck.random_scs(lat, rng, agents)
        fs = [scs.agent(x) for x in sorted(scs.agents)]
        by_tuple = ls.delta_group(scs, scs.agents, "tuple")
        by_subtract = ls.delta_group(scs, scs.agents, "subtract")
        assert by_tuple.images == reduce(lambda f, g: ls.delta_pair(lat, f, g), fs).images
        assert by_subtract.images == reduce(
            lambda f, g: ls.delta_pair_subtract(lat, f, g), fs
        ).images
        assert by_subtract.images == by_tuple.images
        if lat.n <= 16:
            assert ls.function_meet_oracle(lat, fs).images == by_tuple.images


def spy_on_verdicts(monkeypatch):
    """Record every validation verdict: the lattice and the n x B block of
    images it judged, as a list of B image tuples."""
    calls = []
    verdict = spaces._is_space_function

    def spy(lattice, images):
        calls.append((lattice, [tuple(c) for c in images.reshape(lattice.n, -1).T.tolist()]))
        return verdict(lattice, images)

    for module in (spaces, distributed):
        monkeypatch.setattr(module, "_is_space_function", spy)
    return calls


@pytest.mark.parametrize("method", ["tuple", "subtract"])
def test_delta_group_validates_once_per_call(monkeypatch, method):
    lat = ls.powerset_lattice(["a", "b", "c", "d"])
    scs = selfcheck.random_scs(lat, random.Random(5), 5)
    calls = spy_on_verdicts(monkeypatch)
    for size in range(2, 6):
        calls.clear()
        got = ls.delta_group(scs, sorted(scs.agents)[:size], method)
        assert calls == [(lat, [got.images])]


@pytest.mark.parametrize("agents", range(2, 6))
def test_family_fill_validates_once(monkeypatch, agents):
    lat = ls.powerset_lattice(["a", "b", "c", "d"])
    scs = selfcheck.random_scs(lat, random.Random(agents), agents)
    calls = spy_on_verdicts(monkeypatch)
    family = ls.DeltaFamily(scs)
    family.get(sorted(scs.agents)[:2])
    pooled = [g for g in subgroups(scs) if len(g) > 1]
    assert calls == [(lat, [family.cache[frozenset(g)].images for g in pooled])]
    for group in pooled:
        family.get(group)
    assert len(calls) == 1


# -- the memo of pooled spaces -------------------------------------------------------


def test_a_system_pools_each_group_once(monkeypatch):
    lat = ls.powerset_lattice(["a", "b", "c", "d"])
    scs = selfcheck.random_scs(lat, random.Random(13), 3)
    names = sorted(scs.agents)
    calls = spy_on_verdicts(monkeypatch)
    for c in (0, 3, 6, 9, lat.top_id):
        ls.group_projection(scs, names, c)
    pooled = ls.delta_group(scs, names)
    assert calls == [(lat, [pooled.images])]
    assert ls.DeltaFamily(scs).get(names) is pooled
    twin = ls.Scs(lat, dict(scs.agents))  # its own memo
    ls.group_projection(twin, names, 0)
    assert len(calls) == 2


def test_the_family_fill_keeps_what_delta_group_handed_out():
    lat = ls.powerset_lattice(["a", "b", "c"])
    scs = selfcheck.random_scs(lat, random.Random(19), 3)
    pair = ls.delta_group(scs, ["1", "2"])
    family = ls.DeltaFamily(scs)
    family.get(["2", "3"])  # fills every group of two or more agents
    assert family.cache is scs.pooled
    assert family.get(["1", "2"]) is pair
    assert ls.delta_group(scs, scs.agents) is family.get(scs.agents)


def test_kripke_evaluation_pools_a_group_once(monkeypatch):
    model = ep.KripkeModel(
        states=("s", "t", "u"),
        props=("p", "q"),
        valuation={"s": {"p": 1, "q": 0}, "t": {"p": 0, "q": 1}, "u": {"p": 1, "q": 1}},
        relations={"a": frozenset({("s", "t"), ("t", "t"), ("u", "s")}),
                   "b": frozenset({("s", "s"), ("t", "u"), ("u", "u")})},
    )
    ks = ep.kripke_to_scs([model])
    calls = spy_on_verdicts(monkeypatch)
    ks.evaluate(ep.parse_formula("D{a,b} p & ~D{b,a} q"))
    assert calls == [(ks.lattice, [ks.delta(["a", "b"]).images])]


def test_the_memo_never_answers_a_cross_check(monkeypatch):
    lat = ls.powerset_lattice(["a", "b", "c"])
    scs = selfcheck.random_scs(lat, random.Random(29), 3)
    names = sorted(scs.agents)
    by_tuple = ls.delta_group(scs, names, "tuple")
    steps, oracles = [], []
    step, oracle = distributed._subtract_step, distributed.function_meet_oracle
    monkeypatch.setattr(distributed, "_subtract_step",
                        lambda *args: steps.append(1) or step(*args))
    monkeypatch.setattr(distributed, "function_meet_oracle",
                        lambda *args: oracles.append(1) or oracle(*args))
    for _ in range(2):
        assert ls.delta_group(scs, names, "subtract").images == by_tuple.images
        assert ls.delta_group(scs, names, "oracle").images == by_tuple.images
    assert (len(steps), len(oracles)) == (2 * (len(names) - 1), 2)
    assert scs.pooled[frozenset(names)] is by_tuple


def test_a_wrong_subtraction_step_is_caught_after_the_memo_is_warm(m2_scs, monkeypatch):
    scs = ls.Scs(m2_scs.lattice, dict(m2_scs.agents))
    selfcheck.methods_agree([scs])  # warms the memo
    assert frozenset(["1", "2"]) in scs.pooled
    monkeypatch.setattr(distributed, "_subtract_step", lambda lat, f, g: np.asarray(f))
    with pytest.raises(AssertionError, match="subtract disagrees"):
        selfcheck.methods_agree([scs])


@pytest.mark.parametrize("name", ["M3", "N5"])
def test_a_refusal_is_raised_again_and_kept_nowhere(canonical, name):
    scs = selfcheck.random_scs(canonical[name], random.Random(3), 2)
    texts = []
    for _ in range(2):
        with pytest.raises(NotDistributive) as refused:
            ls.delta_group(scs, ["1", "2"])
        texts.append(str(refused.value))
    assert texts[0] == texts[1]
    assert frozenset(["1", "2"]) not in scs.pooled


def assert_fold_refuses(lat):
    rng = random.Random(11)
    f, g = ls.random_space_function(lat, rng), ls.random_space_function(lat, rng)
    scs = ls.Scs(lat, {"1": f, "2": g})
    for step in (ls.delta_pair, ls.delta_pair_subtract):
        with pytest.raises(NotDistributive):
            step(lat, f, g)
    for method in ("tuple", "subtract"):
        with pytest.raises(NotDistributive):
            ls.delta_group(scs, ["1", "2"], method=method)


@pytest.mark.parametrize("name", ["M3", "N5", "herbrand-xy-ab"])
def test_fold_refuses_nondistributive_fixtures(canonical, name):
    assert_fold_refuses(canonical[name])


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("shape", sorted(STACKS))
def test_fold_refuses_stacked_lattices(k, shape):
    assert_fold_refuses(stacked_lattice(k, shape))


# -- projections -------------------------------------------------------------------


def test_group_projection_matches_agent_projection_on_singletons(m2_scs):
    lat = m2_scs.lattice
    for name in m2_scs.agents:
        for c in range(lat.n):
            assert ls.group_projection(m2_scs, [name], c) == ls.agent_projection(
                m2_scs.agent(name), c
            )


def test_group_projection_sees_disjunctive_information(m2_scs):
    lat = m2_scs.lattice
    notp = lat.id_of("¬p")
    d = lat.meet_of([m2_scs.agent("1").images[notp], m2_scs.agent("2").images[notp]])
    assert d == lat.bottom_id
    # the group recovers ¬p from the empty information ...
    assert lat.leq[notp, ls.group_projection(m2_scs, ["1", "2"], d)]
    # ... but joined individual projections do not
    assert ls.join_projection(m2_scs, ["1", "2"], d) == lat.bottom_id


def test_join_projection_singleton(m2_scs):
    lat = m2_scs.lattice
    for c in range(lat.n):
        assert ls.join_projection(m2_scs, ["1"], c) == ls.agent_projection(
            m2_scs.agent("1"), c
        )


def test_group_dominates_join_projection(m2_scs):
    selfcheck.group_adjunction([m2_scs])


def test_group_galois_exhaustive(m2_scs):
    rng = random.Random(31)
    ps3 = ls.powerset_lattice(["a", "b", "c"])
    selfcheck.group_adjunction([m2_scs, selfcheck.random_scs(ps3, rng, 2)])


def test_group_adjunction_on_a_512_element_powerset():
    lat = ls.powerset_lattice([f"g{i}" for i in range(9)])
    rng = random.Random(37)
    scs = selfcheck.random_scs(lat, rng, 4)
    points = [lat.bottom_id, lat.top_id] + [rng.randrange(lat.n) for _ in range(4)]
    for group in subgroups(scs):
        delta = ls.delta_group(scs, group)
        images = np.asarray(delta.images)
        for c in points:
            proj = ls.group_projection(scs, group, c)
            assert proj == agent_projection_reference(delta, c)
            assert (lat.leq[images, c] == lat.leq[:, proj]).all()
            assert lat.leq[ls.join_projection(scs, group, c), proj]


# -- compositionality ---------------------------------------------------------------


def _family_over(scs):
    family = ls.DeltaFamily(scs)
    for group in subgroups(scs):
        family.get(group)
    return family


def test_subgroup_composition_equation():
    rng = random.Random(41)
    for _ in range(5):
        lat = ls.random_distributive_lattice(rng)
        scs = selfcheck.random_scs(lat, rng, 3)
        family = _family_over(scs)
        dj = family.get(["1"]).images
        dk = family.get(["2", "3"]).images
        di = family.get(["1", "2", "3"]).images
        for c in range(lat.n):
            vals = [
                lat.join_of([dj[a], dk[b]])
                for a in range(lat.n)
                for b in range(lat.n)
                if lat.leq[c, lat.join_table[a, b]]
            ]
            assert lat.meet_of(vals) == di[c]


def test_subgroup_bound_property(m2_scs):
    # joining subgroup values always dominates the full group at the join
    family = _family_over(m2_scs)
    lat = m2_scs.lattice
    groups = [frozenset(), frozenset(["1"]), frozenset(["2"]), frozenset(["1", "2"])]
    full = frozenset(["1", "2"])
    for j in groups:
        for k in groups:
            if not (j <= full and k <= full):
                continue
            dj, dk = family.cache[j].images, family.cache[k].images
            di = family.cache[full].images
            for a in range(lat.n):
                for b in range(lat.n):
                    lhs = lat.join_of([dj[a], dk[b]])
                    assert lat.leq[di[lat.join_table[a, b]], lhs]


def test_subgroup_bound_property_powerset3():
    rng = random.Random(43)
    lat = ls.powerset_lattice(["a", "b", "c"])
    scs = selfcheck.random_scs(lat, rng, 2)
    family = _family_over(scs)
    full = frozenset(["1", "2"])
    subsets = [frozenset(), frozenset(["1"]), frozenset(["2"]), full]
    di = family.cache[full].images
    for j in subsets:
        for k in subsets:
            dj, dk = family.cache[j].images, family.cache[k].images
            for a in range(lat.n):
                for b in range(lat.n):
                    assert lat.leq[
                        di[lat.join_table[a, b]], lat.join_of([dj[a], dk[b]])
                    ]


# -- gdc verification ----------------------------------------------------------------


def test_verify_gdc_accepts_the_computed_family(m2_scs):
    report = ls.verify_gdc(m2_scs, _family_over(m2_scs))
    assert report.ok
    assert str(report) == "gdc ok over 4 groups incl. maximality"
    assert report.checked_subsets == 4


def test_verify_gdc_flags_constant_bottom_family(m2_scs):
    family = _family_over(m2_scs)
    entries = dict(family.cache)
    entries[frozenset(["1", "2"])] = ls.bottom_function(m2_scs.lattice)
    report = ls.verify_gdc(m2_scs, entries)
    assert not report.ok
    assert any("maximality" in f for f in report.failures)
    assert len(report.failures) == 1


def test_verify_gdc_flags_d3_violation(m2_scs):
    family = _family_over(m2_scs)
    entries = dict(family.cache)
    entries[frozenset(["1", "2"])] = ls.top_function(m2_scs.lattice)
    report = ls.verify_gdc(m2_scs, entries)
    assert not report.ok
    assert any("D.3" in f for f in report.failures)
    assert len(report.failures) == 1


def test_verify_gdc_checks_d3_on_one_agent_steps():
    rng = random.Random(53)
    scs = selfcheck.random_scs(ls.random_distributive_lattice(rng), rng, 3)
    entries = dict(_family_over(scs).cache)
    full = frozenset(scs.agents)
    entries[full] = ls.top_function(scs.lattice)
    report = ls.verify_gdc(scs, entries)
    steps = {f"D.3 fails: entry for {sorted(full)} is not below entry for {sorted(full - {x})}"
             for x in full}
    assert not report.ok and report.failures[0] in steps and len(report.failures) == 1


def test_verify_gdc_refuses_entries_on_another_lattice(m2_scs):
    # the right images on a separately built M2, and a space function on a 4-chain
    entries = dict(_family_over(m2_scs).cache)
    full = frozenset(["1", "2"])
    twin = ls.fixtures()["M2"]
    assert twin is not m2_scs.lattice
    for foreign in (ls.SpaceFunction(twin, entries[full].images),
                    ls.identity_function(ls.chain_lattice(4))):
        with pytest.raises(LatticeMismatch):
            ls.verify_gdc(m2_scs, {**entries, full: foreign})
    raw = {key: f.images for key, f in entries.items()}
    assert ls.verify_gdc(m2_scs, raw).ok


def test_verify_gdc_flags_d1_violation(m2_scs):
    family = _family_over(m2_scs)
    entries = {k: v.images for k, v in family.cache.items()}
    entries[frozenset(["1", "2"])] = (0, 1, 0, 3)  # breaks join preservation
    report = ls.verify_gdc(m2_scs, entries)
    assert not report.ok
    assert any("D.1" in f for f in report.failures)
    assert len(report.failures) == 1


def test_verify_gdc_flags_d2_violation(m2_scs):
    family = _family_over(m2_scs)
    entries = dict(family.cache)
    entries[frozenset(["1"])] = ls.identity_function(m2_scs.lattice)
    report = ls.verify_gdc(m2_scs, entries)
    assert not report.ok
    assert any("D.2" in f for f in report.failures)
    assert len(report.failures) == 1


def test_verify_gdc_propagates_the_oracle_budget(m2_scs, monkeypatch):
    family = _family_over(m2_scs)
    monkeypatch.setenv("LATSPACE_MAX_ENUM", "1")
    with pytest.raises(TooLarge):
        ls.verify_gdc(m2_scs, family)


def test_verify_gdc_missing_entry(m2_scs):
    report = ls.verify_gdc(m2_scs, {})
    assert not report.ok
    assert len(report.failures) == 1


def test_verify_gdc_agent_cap(m2):
    agents = {str(i): ls.identity_function(m2) for i in range(6)}
    scs = ls.Scs(m2, agents)
    with pytest.raises(TooLarge):
        ls.verify_gdc(scs, {})


# -- the survey ------------------------------------------------------------------------


def survey_entry(entry):
    f, g, images, verdict = entry
    return f.images, g.images, images, verdict


def test_survey_finds_counterexamples_on_m3(m3):
    survey = ls.survey_tuple_formula(m3, "M3")
    assert survey.function_count == 50
    assert survey.pair_count == 50 * 51 // 2
    assert survey.monotone_everywhere
    assert survey.found_counterexample
    assert len(survey.violations) == 216  # frozen by the exhaustive scan
    f, g, images, verdict = survey.violations[0]
    assert ls.validate_space_function(m3, images) == verdict
    assert "violates S.2" in survey.summary()
    # frozen by the per-pair scan
    assert survey_entry(survey.violations[0]) == (
        (0, 1, 1, 1, 1), (0, 1, 2, 3, 4), [0, 1, 0, 0, 1], ls.AxiomViolation("S.2", (2, 3)))
    assert survey_entry(survey.violations[-1]) == (
        (0, 4, 3, 2, 4), (0, 4, 4, 1, 4), [0, 4, 3, 0, 4], ls.AxiomViolation("S.2", (2, 3)))


def test_survey_finds_counterexamples_on_n5(n5):
    survey = ls.survey_tuple_formula(n5, "N5")
    assert survey.monotone_everywhere
    assert survey.found_counterexample
    assert len(survey.violations) == 30  # frozen by the exhaustive scan
    # frozen by the per-pair scan
    assert survey_entry(survey.violations[0]) == (
        (0, 1, 1, 2, 2), (0, 1, 1, 3, 4), [0, 1, 1, 0, 2], ls.AxiomViolation("S.2", (1, 3)))
    assert survey_entry(survey.violations[-1]) == (
        (0, 2, 4, 4, 4), (0, 3, 4, 1, 4), [0, 0, 2, 1, 2], ls.AxiomViolation("S.2", (1, 3)))


def test_survey_is_the_same_in_blocks_of_seven_pairs(canonical, monkeypatch):
    for name in ("M3", "N5"):
        lat = canonical[name]
        whole = ls.survey_tuple_formula(lat, name)
        monkeypatch.setattr(distributed, "_BLOCK_PAIRS", 7 * lat.n**2)
        assert whole.pair_count % 7  # the last block is partial
        blocked = ls.survey_tuple_formula(lat, name)
        monkeypatch.undo()
        assert blocked == whole


def test_survey_pair_count_is_capped_by_the_budget(m3, monkeypatch):
    monkeypatch.setenv("LATSPACE_MAX_ENUM", "1274")
    with pytest.raises(TooLarge, match="1275 pairs, cap is 1274"):
        ls.survey_tuple_formula(m3, "M3")
    monkeypatch.setenv("LATSPACE_MAX_ENUM", "1275")
    assert ls.survey_tuple_formula(m3, "M3").pair_count == 1275


def test_survey_refuses_herbrand_before_scanning(canonical, monkeypatch):
    # 6,086 space functions: 18,522,741 pairs
    monkeypatch.delenv("LATSPACE_MAX_ENUM", raising=False)
    monkeypatch.setattr(distributed, "pair_formula_images", None)  # never reached
    with pytest.raises(TooLarge, match="18522741 pairs, cap is 250000"):
        ls.survey_tuple_formula(canonical["herbrand-xy-ab"], "herbrand-xy-ab")


def test_survey_clean_on_distributive(m2):
    survey = ls.survey_tuple_formula(m2, "M2")
    assert not survey.found_counterexample
    assert survey.monotone_everywhere
    assert "no pair" in survey.summary()
