import itertools
import random

import pytest

import latspace as ls
from latspace import epistemic as ep
from latspace import selfcheck
from latspace.errors import InvalidElement, TooLarge, UnknownAgent, UnknownProp


@pytest.fixture(scope="module")
def two_state_model():
    return ep.KripkeModel(
        states=("s", "t"),
        props=("p",),
        valuation={"s": {"p": 1}, "t": {"p": 0}},
        relations={"1": frozenset({("s", "t")}), "2": frozenset({("s", "s"), ("t", "t")})},
    )


# -- boolean constraint system -------------------------------------------------


def test_boolean_cs_constants():
    bc = ep.boolean_cs(["p", "q"])
    assert bc.lattice.n == 16
    assert bc.evaluate(ep.parse_formula("T")) == bc.lattice.bottom_id
    assert bc.evaluate(ep.parse_formula("F")) == bc.lattice.top_id
    assert bc.evaluate(ep.parse_formula("p & ~p")) == bc.lattice.top_id


def test_boolean_cs_atom_and_conjunction():
    bc = ep.boolean_cs(["p", "q"])
    p = bc.evaluate(ep.parse_formula("p"))
    q = bc.evaluate(ep.parse_formula("q"))
    # two assignments satisfy p; conjunction is the lattice join
    assert len(bc.set_of(p)) == 2
    assert all(bc.pointed_label(a)[0] == "1" for a in bc.set_of(p))
    assert bc.evaluate(ep.parse_formula("p & q")) == bc.lattice.join_of([p, q])
    assert bc.evaluate(ep.parse_formula("p | q")) == bc.lattice.meet_of([p, q])


def test_boolean_cs_entailment_is_implication_validity():
    bc = ep.boolean_cs(["p", "q"])
    pq = bc.evaluate(ep.parse_formula("p & q"))
    p = bc.evaluate(ep.parse_formula("p"))
    assert bc.lattice.leq[p, pq]  # p&q entails p
    assert not bc.lattice.leq[pq, p]


def test_boolean_cs_caps():
    with pytest.raises(TooLarge):
        ep.boolean_cs(["a", "b", "c", "d", "e"])
    # 3 props means a 256-element lattice: allowed by the default caps
    bc = ep.boolean_cs(["a", "b", "c"])
    assert bc.lattice.n == 256
    # 4 props would need a 65536-element lattice: rejected by the element cap
    with pytest.raises(TooLarge):
        ep.boolean_cs(["a", "b", "c", "d"])


def test_boolean_cs_unknown_prop():
    bc = ep.boolean_cs(["p"])
    with pytest.raises(UnknownProp):
        bc.evaluate(ep.parse_formula("q"))


def test_boolean_cs_has_no_agents():
    bc = ep.boolean_cs(["p"])
    for text in ("[]1 p", "D{1} p"):
        with pytest.raises(UnknownAgent):
            bc.evaluate(ep.parse_formula(text))


# -- formula parsing --------------------------------------------------------------


def test_parser_precedence_and_shapes():
    f = ep.parse_formula("~p & q | r")
    assert isinstance(f, ep.Or)
    assert isinstance(f.left, ep.And)
    assert isinstance(f.left.left, ep.Not)
    # D.2: an agent's box is the one-agent group's distributed knowledge
    assert ep.parse_formula("[]1 (p & q)") == ep.Dk(frozenset({"1"}), ep.And(ep.Atom("p"), ep.Atom("q")))
    dk = ep.parse_formula("D{2,1} p")
    assert isinstance(dk, ep.Dk) and dk.agents == frozenset({"1", "2"})


@pytest.mark.parametrize("bad", ["p &", "(p", "D{} p", "p ? q"])
def test_parser_rejects_malformed(bad):
    with pytest.raises(InvalidElement):
        ep.parse_formula(bad)


# -- Kripke operators -------------------------------------------------------------


def test_box_of_full_universe_is_full(two_state_model):
    models = [two_state_model]
    full = frozenset(ep.pointed_states(models))
    assert ep.kripke_box(models, "1", full) == full


def test_kripke_model_leaves_the_valuation_unchanged():
    valuation = {"s": {"p": 1}}
    m = ep.KripkeModel(("s", "t"), ("p", "q"), valuation, {"1": frozenset()})
    assert valuation == {"s": {"p": 1}}
    assert m.valuation == {"s": {"p": 1, "q": 0}, "t": {"p": 0, "q": 0}}


def test_box_with_empty_relation_is_full():
    m = ep.KripkeModel(("s", "t"), ("p",), {}, {"1": frozenset()})
    full = frozenset(ep.pointed_states([m]))
    assert ep.kripke_box([m], "1", frozenset()) == full


def test_box_two_state_example(two_state_model):
    models = [two_state_model]
    x = frozenset({(0, "t")})
    assert ep.kripke_box(models, "1", x) == frozenset({(0, "s"), (0, "t")})
    # the agent is normalised with str(), as in kripke_dk and Scs.group
    assert ep.kripke_box(models, 1, x) == frozenset({(0, "s"), (0, "t")})


def test_box_unknown_agent(two_state_model):
    for agent in ("9", 9):
        with pytest.raises(UnknownAgent):
            ep.kripke_box([two_state_model], agent, frozenset())


def test_dk_singleton_equals_box(two_state_model):
    models = [two_state_model]
    for mask_states in itertools.chain.from_iterable(
        itertools.combinations(ep.pointed_states(models), r) for r in range(3)
    ):
        x = frozenset(mask_states)
        assert ep.kripke_dk(models, ["1"], x) == ep.kripke_box(models, "1", x)


def test_dk_empty_intersection_is_full(two_state_model):
    # agents 1 and 2 share no accessibility pairs
    models = [two_state_model]
    full = frozenset(ep.pointed_states(models))
    assert ep.kripke_dk(models, ["1", "2"], frozenset()) == full


def test_kripke_to_scs_validates(two_state_model):
    ks = ep.kripke_to_scs([two_state_model])
    assert ks.lattice.n == 4
    for f in ks.scs.agents.values():
        assert ls.validate_space_function(ks.lattice, f.images) is None


def test_kripke_empty_relations_give_constant_bottom():
    m = ep.KripkeModel(("s", "t"), ("p",), {}, {"1": frozenset()})
    ks = ep.kripke_to_scs([m])
    assert ks.scs.agent("1").images == ls.bottom_function(ks.lattice).images


def test_kripke_caps():
    # 11 states give 2^11 > MAX_ELEMENTS elements; Aumann structures share the construction
    states = tuple(f"s{i}" for i in range(11))
    m = ep.KripkeModel(states, (), {}, {"1": frozenset()})
    with pytest.raises(TooLarge):
        ep.kripke_to_scs([m])
    with pytest.raises(TooLarge):
        ep.aumann_to_scs(ep.AumannStructure(states, {"1": (frozenset(states),)}))


def test_kripke_rejects_bad_relation():
    with pytest.raises(InvalidElement):
        ep.KripkeModel(("s",), (), {}, {"1": frozenset({("s", "zz")})})


KRIPKE_DOC = {"states": ["s", "u"], "props": ["p"], "rel": {"1": [["s", "u"]]}}


@pytest.mark.parametrize("change", [
    {"rel": {"1": ["su", "us"]}},
    {"rel": {"1": [["s", "u", "s"]]}},
    {"rel": {"1": "su"}},
    {"states": "su"},
    {"props": "p"},
])
def test_kripke_from_json_rejects_strings_and_bad_pairs(change):
    with pytest.raises(InvalidElement):
        ep.KripkeModel.from_json({**KRIPKE_DOC, **change})


def test_kripke_json_round_trip(two_state_model, tmp_path):
    doc = {
        "states": ["s", "t"],
        "props": ["p"],
        "val": {"s": {"p": 1}, "t": {"p": 0}},
        "rel": {"1": [["s", "t"]], "2": [["s", "s"], ["t", "t"]]},
    }
    path = tmp_path / "model.json"
    import json

    path.write_text(json.dumps(doc))
    loaded = ep.KripkeModel.load(path)
    assert loaded == two_state_model


# -- Kripke distributed-knowledge equivalence ----------------------------------------


def _wide_model_sets(rng, sizes):
    """One model set per pointed-state count in `sizes`, each two seeded draws joined."""
    found = {}
    while found.keys() != set(sizes):
        models = selfcheck.random_kripke_models(rng) + selfcheck.random_kripke_models(rng)
        if len(ep.pointed_states(models)) in sizes:
            found.setdefault(len(ep.pointed_states(models)), models)
    return [found[n] for n in sizes]


def test_kripke_delta_equals_intersection_knowledge_seeded():
    rng = random.Random(20260809)
    model_sets = [selfcheck.random_kripke_models(rng) for _ in range(100)]
    selfcheck.kripke_knowledge(model_sets + _wide_model_sets(rng, range(5, 9)))


def test_kripke_delta_matches_enumeration_oracle():
    rng = random.Random(99)
    selfcheck.methods_agree(
        ep.kripke_to_scs(selfcheck.random_kripke_models(rng)).scs for _ in range(10)
    )



def test_compositionality_on_induced_systems():
    rng = random.Random(41)
    systems = [ep.kripke_to_scs(selfcheck.random_kripke_models(rng)).scs for _ in range(15)]
    systems += [ep.aumann_to_scs(selfcheck.random_aumann(rng)).scs for _ in range(15)]
    assert selfcheck.compositionality(systems) >= 30 * 4

def test_kripke_need_not_be_closure_operator():
    # a non-reflexive relation gives knowledge without truth
    m = ep.KripkeModel(("s", "t"), ("p",), {}, {"1": frozenset({("s", "t"), ("t", "s")})})
    ks = ep.kripke_to_scs([m])
    kind = ls.classify(ks.scs.agent("1"))
    assert not (kind.idempotent and kind.extensive)


# -- modal evaluation ---------------------------------------------------------------


def test_evaluate_constants(two_state_model):
    ks = ep.kripke_to_scs([two_state_model])
    assert ks.evaluate(ep.parse_formula("T")) == ks.lattice.bottom_id
    assert ks.evaluate(ep.parse_formula("F")) == ks.lattice.top_id
    assert ks.evaluate(ep.parse_formula("[]1 T")) == ks.lattice.bottom_id


def test_evaluate_box_and_negation(two_state_model):
    ks = ep.kripke_to_scs([two_state_model])
    # agent 1 sees only t, where p is false
    got = ks.set_of(ks.evaluate(ep.parse_formula("[]1 ~p")))
    assert got == frozenset({(0, "s"), (0, "t")})
    got = ks.set_of(ks.evaluate(ep.parse_formula("[]2 p")))
    assert got == frozenset({(0, "s")})


def test_evaluate_conjunction_is_join(two_state_model):
    ks = ep.kripke_to_scs([two_state_model])
    rng = random.Random(3)
    atoms = ["p", "~p", "T", "F", "[]1 p", "[]2 p"]
    for _ in range(20):
        a, b = rng.choice(atoms), rng.choice(atoms)
        lhs = ks.evaluate(ep.parse_formula(f"({a}) & ({b})"))
        rhs = ks.lattice.join_of(
            [ks.evaluate(ep.parse_formula(a)), ks.evaluate(ep.parse_formula(b))]
        )
        assert lhs == rhs


def test_shared_knowledge_derives_pooled_knowledge():
    rng = random.Random(8)
    for _ in range(20):
        models = selfcheck.random_kripke_models(rng)
        ks = ep.kripke_to_scs(models)
        agents = sorted(ks.scs.agents)
        if len(agents) < 2:
            continue
        i, j = agents[0], agents[1]
        lhs = ks.evaluate(ep.parse_formula(f"[]{i} p & []{j} q"))
        rhs = ks.evaluate(ep.parse_formula(f"D{{{i},{j}}} (p & q)"))
        assert ks.lattice.leq[rhs, lhs]


def test_dk_formula_matches_operator(two_state_model):
    ks = ep.kripke_to_scs([two_state_model])
    got = ks.set_of(ks.evaluate(ep.parse_formula("D{1,2} ~p")))
    want = ep.kripke_dk([two_state_model], ["1", "2"], ks.set_of(ks.evaluate(ep.parse_formula("~p"))))
    assert got == want


def test_multi_model_sets():
    m1 = ep.KripkeModel(("s",), ("p",), {"s": {"p": 1}}, {"1": frozenset({("s", "s")})})
    m2 = ep.KripkeModel(("s", "u"), ("p",), {"s": {"p": 0}, "u": {"p": 1}}, {"1": frozenset()})
    ks = ep.kripke_to_scs([m1, m2])
    assert len(ks.pointed) == 3
    got = ks.set_of(ks.evaluate(ep.parse_formula("p")))
    assert got == frozenset({(0, "s"), (1, "u")})
    labels = sorted(ks.pointed_label(p) for p in ks.pointed)
    assert labels == ["m0:s", "m1:s", "m1:u"]


def test_box_is_the_one_agent_group_and_the_reference_box():
    rng = random.Random(23)
    for _ in range(30):
        models = selfcheck.random_kripke_models(rng)
        ks = ep.kripke_to_scs(models)
        for agent in sorted(ks.scs.agents):
            for body in ("p", "~q", "p | q"):
                boxed = ks.evaluate(ep.parse_formula(f"[]{agent} ({body})"))
                assert boxed == ks.evaluate(ep.parse_formula(f"D{{{agent}}} ({body})"))
                inner = ks.set_of(ks.evaluate(ep.parse_formula(body)))
                assert ks.set_of(boxed) == ep.kripke_box(models, agent, inner)


# States whose set labels would collide: {a,b} against {"a,b"}, and the empty
# set against {""}, both printed "{}".
SET_LIKE_STATES = [("a", "b", "a,b"), ("{x}", "{}", "")]


@pytest.mark.parametrize("states", SET_LIKE_STATES)
def test_set_like_state_names_answer_and_keep_their_names(states):
    rel = {"1": frozenset({(states[0], states[1]), (states[2], states[2])}),
           "2": frozenset((s, t) for s in states for t in states if s <= t)}
    models = [ep.KripkeModel(states, ("p",), {states[1]: {"p": 1}}, rel)]
    ks = ep.kripke_to_scs(models)
    assert [ks.pointed_label(p) for p in ks.pointed] == list(states)
    for group in (["1"], ["2"], ["1", "2"]):
        pooled = ks.delta(group)
        for x in range(ks.lattice.n):
            assert ks.set_of(pooled.images[x]) == ep.kripke_dk(models, group, ks.set_of(x))
    with pytest.raises(InvalidElement):
        ks.pointed_label((0, "missing"))


def test_aumann_state_named_by_the_empty_string():
    a = ep.AumannStructure(("", "a", "b"), {
        "1": (frozenset({"", "a"}), frozenset({"b"})),
        "2": (frozenset({""}), frozenset({"a", "b"})),
    })
    induced = ep.aumann_to_scs(a)
    assert [induced.pointed_label(s) for s in induced.pointed] == ["", "a", "b"]
    assert induced.lattice.labels[induced.element_of({"", "b"})] == "{0,2}"
    for group in (["1"], ["2"], ["1", "2"]):
        pooled = induced.delta(group)
        for x in range(induced.lattice.n):
            assert induced.set_of(pooled.images[x]) == ep.aumann_dk(a, group, induced.set_of(x))


# -- Aumann structures ---------------------------------------------------------------


@pytest.fixture(scope="module")
def grid_structure():
    return ep.AumannStructure(
        states=("1", "2", "3", "4"),
        partitions={
            "1": (frozenset({"1", "2"}), frozenset({"3", "4"})),
            "2": (frozenset({"1", "3"}), frozenset({"2", "4"})),
        },
    )


def test_aumann_know_basics(grid_structure):
    s = frozenset(grid_structure.states)
    assert ep.aumann_know(grid_structure, "1", s) == s
    assert ep.aumann_know(grid_structure, "1", frozenset({"1", "2"})) == frozenset({"1", "2"})
    assert ep.aumann_know(grid_structure, "1", frozenset({"1"})) == frozenset()
    # the agent is normalised with str(), as in aumann_dk; unknown names raise
    assert ep.aumann_know(grid_structure, 1, frozenset({"1", "2"})) == frozenset({"1", "2"})
    for agent in ("9", 9):
        with pytest.raises(UnknownAgent):
            ep.aumann_know(grid_structure, agent, s)


def test_aumann_know_three_state_example():
    a = ep.AumannStructure(
        ("1", "2", "3"), {"1": (frozenset({"1", "2"}), frozenset({"3"}))}
    )
    assert ep.aumann_know(a, "1", frozenset({"1", "2"})) == frozenset({"1", "2"})


def test_aumann_discrete_partition_is_identity():
    a = ep.AumannStructure(
        ("1", "2"), {"1": (frozenset({"1"}), frozenset({"2"}))}
    )
    for event in (frozenset(), frozenset({"1"}), frozenset({"1", "2"})):
        assert ep.aumann_know(a, "1", event) == event


def test_aumann_trivial_partition():
    a = ep.AumannStructure(("1", "2"), {"1": (frozenset({"1", "2"}),)})
    s = frozenset(a.states)
    assert ep.aumann_know(a, "1", s) == s
    assert ep.aumann_know(a, "1", frozenset({"1"})) == frozenset()


def test_aumann_dk_grid_is_discrete(grid_structure):
    # intersected blocks are singletons, so the group knows everything
    states = list(grid_structure.states)
    for r in range(len(states) + 1):
        for event in itertools.combinations(states, r):
            e = frozenset(event)
            assert ep.aumann_dk(grid_structure, ["1", "2"], e) == e


def test_aumann_dk_singleton(grid_structure):
    for event in (frozenset({"1"}), frozenset({"1", "2"}), frozenset()):
        assert ep.aumann_dk(grid_structure, ["1"], event) == ep.aumann_know(
            grid_structure, "1", event
        )


def test_aumann_partition_validation():
    with pytest.raises(InvalidElement):
        ep.AumannStructure(("1", "2"), {"1": (frozenset({"1"}),)})  # no cover
    with pytest.raises(InvalidElement):
        ep.AumannStructure(
            ("1", "2"), {"1": (frozenset({"1", "2"}), frozenset({"2"}))}
        )  # overlap


AUMANN_DOC = {"states": ["a", "b", "c"], "partitions": {"1": [["a", "b"], ["c"]]}}


@pytest.mark.parametrize("change", [
    {"partitions": {"1": ["ab", "c"]}},
    {"partitions": {"1": "abc"}},
    {"states": "abc"},
])
def test_aumann_from_json_rejects_strings(change):
    with pytest.raises(InvalidElement):
        ep.AumannStructure.from_json({**AUMANN_DOC, **change})


def test_aumann_to_scs_closure_operators(grid_structure):
    ascs = ep.aumann_to_scs(grid_structure)
    for f in ascs.scs.agents.values():
        assert ls.validate_space_function(ascs.lattice, f.images) is None
        kind = ls.classify(f)
        assert kind.idempotent and kind.extensive


# Eight states and three agents: more than the seeded draws reach.
WIDE_AUMANN = ep.AumannStructure(
    states=tuple("12345678"),
    partitions={
        "1": (frozenset("1234"), frozenset("5678")),
        "2": (frozenset("12"), frozenset("3456"), frozenset("7"), frozenset("8")),
        "3": (frozenset("15"), frozenset("26"), frozenset("37"), frozenset("48")),
    },
)


def test_aumann_delta_equals_block_knowledge_seeded():
    rng = random.Random(20260810)
    structs = [selfcheck.random_aumann(rng) for _ in range(100)]
    selfcheck.aumann_knowledge(structs + [WIDE_AUMANN])


def test_aumann_empty_group_is_least_space():
    a = ep.AumannStructure(("1", "2"), {"1": (frozenset({"1", "2"}),)})
    ascs = ep.aumann_to_scs(a)
    dfun = ls.delta_group(ascs.scs, [])
    assert dfun.images == ls.top_function(ascs.lattice).images
    # the block-intersection operator agrees on the empty group here
    for mask in range(4):
        event = ascs.set_of(mask)
        assert ep.aumann_dk(a, [], event) == ascs.set_of(dfun.images[mask])


def test_aumann_json_round_trip(grid_structure, tmp_path):
    import json

    doc = {
        "states": ["1", "2", "3", "4"],
        "partitions": {"1": [["1", "2"], ["3", "4"]], "2": [["1", "3"], ["2", "4"]]},
    }
    path = tmp_path / "aumann.json"
    path.write_text(json.dumps(doc))
    assert ep.AumannStructure.load(path) == grid_structure
