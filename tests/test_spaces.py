import json
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latspace as ls
from latspace import selfcheck
from latspace.errors import (
    FormatError,
    InvalidElement,
    LatticeMismatch,
    NotASpaceFunction,
    TooLarge,
)
from latspace.spaces import DEFAULT_MAX_ENUM, enumeration_size_estimate
from conftest import STACKS, brute_force_space_functions, pair_scan_violation, stacked_lattice


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
    checked = selfcheck.validation_verdicts(functions, rng, pair_scan_violation)
    assert checked == 3 * sum(map(len, functions.values()))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_validation_matches_pair_scan_on_downset_lattices(seed):
    rng = random.Random(seed)
    lat = ls.random_distributive_lattice(rng, points=5)
    fs = [ls.random_space_function(lat, rng) for _ in range(20)]
    assert selfcheck.validation_verdicts({"downsets": fs}, rng, pair_scan_violation) == 60


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
    monkeypatch.setenv("LATSPACE_MAX_ENUM", "3")
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


# -- agent systems ------------------------------------------------------------------


def test_scs_rejects_foreign_lattice(m2, m3):
    with pytest.raises(LatticeMismatch):
        ls.Scs(m2, {"1": ls.identity_function(m3)})


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
    monkeypatch.setenv("LATSPACE_MAX_ENUM", "abc")
    with pytest.raises(FormatError):
        ls.enumerate_space_functions(lat)
