import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latspace as ls
from latspace import selfcheck
from latspace.lattice import _BLOCK_PAIRS as BLOCK_PAIRS
from latspace.lattice import MAX_ELEMENTS
from latspace.errors import (
    InvalidElement,
    NotALattice,
    NotAntisymmetric,
    NotDistributive,
    TooLarge,
)

from conftest import STACKS, bound_table_reference, distributivity_reference, stacked_lattice


@pytest.fixture(scope="module")
def lattices(canonical):
    """The canonical fixtures plus stacked non-distributive lattices."""
    return {**canonical, "powerset3+M3": stacked_lattice(3, "M3"),
            "powerset3+N5": stacked_lattice(3, "N5")}


def triple_scan_is_distributive(lat):
    """Reference: the law a join (b meet c) = (a join b) meet (a join c)
    at every triple, as one n x n x n comparison."""
    jt, mt = lat.join_table, lat.meet_table
    ids = np.arange(lat.n)
    lhs = jt[ids[:, None, None], mt[None, :, :]]
    rhs = mt[jt[:, :, None], jt[:, None, :]]
    return bool((lhs == rhs).all())


def one_lower_cover(lat):
    """Reference irreducibles: elements with exactly one lower cover."""
    lt = lat.leq & ~np.eye(lat.n, dtype=bool)
    out = []
    for x in range(lat.n):
        below = [y for y in range(lat.n) if lt[y, x]]
        covers = [y for y in below if not any(lt[y, z] for z in below)]
        if len(covers) == 1:
            out.append(x)
    return tuple(out)


def assert_derived_structures_agree(lat):
    selfcheck.distributivity_verdicts({"lattice": (lat, triple_scan_is_distributive(lat))})
    assert lat.distributivity() == distributivity_reference(lat)
    assert lat.irreducibles == one_lower_cover(lat)
    assert_subtract_table_matches_pointwise(lat)


def assert_subtract_table_matches_pointwise(lat):
    """The table equals `subtract` entry by entry; a non-distributive
    lattice has no table and refuses it."""
    if not lat.is_distributive:
        with pytest.raises(NotDistributive, match="^the subtraction table needs a distributive"):
            lat.subtract_table
        return
    table = lat.subtract_table
    for d in range(lat.n):
        for c in range(lat.n):
            assert table[d, c] == lat.subtract(d, c)


def test_singleton_lattice():
    lat = ls.build_lattice(["⊥"], [])
    assert lat.n == 1
    assert lat.bottom_id == lat.top_id == 0


def test_m2_is_the_four_element_boolean_algebra(m2):
    assert m2.n == 4
    assert m2.labels[m2.bottom_id] == "p∨¬p"
    assert m2.labels[m2.top_id] == "p∧¬p"
    p, notp = m2.id_of("p"), m2.id_of("¬p")
    assert m2.join_of([p, notp]) == m2.top_id
    assert m2.meet_of([p, notp]) == m2.bottom_id


def test_bowtie_is_not_a_lattice():
    # two incomparable minimal upper bounds for the bottom pair
    with pytest.raises(NotALattice) as err:
        ls.build_lattice(
            ["a", "b", "c", "d"],
            [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
        )
    assert str(err.value) == "pair ('a', 'b') has no unique least upper bound"


def test_shared_keys_do_not_hide_a_missing_bound():
    # a and b have two minimal upper bounds, t and u; the weighted sum over
    # their common upper bounds lies past the last id and is clamped to 1, an
    # upper bound that only the size check refuses
    labels = ["t", "0", "a", "b", "u", "v", "p", "q", "1"]
    covers = [("0", "a"), ("0", "b"), ("a", "t"), ("b", "t"), ("a", "u"), ("b", "u"),
              ("t", "v"), ("u", "v"), ("v", "p"), ("v", "q"), ("p", "1"), ("q", "1")]
    with pytest.raises(NotALattice) as err:
        ls.build_lattice(labels, covers)
    assert str(err.value) == "pair ('a', 'b') has no unique least upper bound"


def test_cover_cycle_is_rejected():
    with pytest.raises(NotAntisymmetric) as err:
        ls.build_lattice(["a", "b"], [("a", "b"), ("b", "a")])
    assert str(err.value) == "cycle through 'a' and 'b'"


def test_intransitive_order_names_the_first_missing_pair():
    # a < b < c < d with no composite pairs: (a, c) is the first row-major gap
    leq = np.eye(4, dtype=bool)
    leq[0, 1] = leq[1, 2] = leq[2, 3] = True
    with pytest.raises(NotALattice) as err:
        ls.FiniteLattice("abcd", leq)
    assert str(err.value) == "order relation is not transitive at ('a', 'c')"


def test_unknown_cover_labels_are_rejected():
    with pytest.raises(InvalidElement):
        ls.build_lattice(["a"], [("a", "zz")])


def test_the_first_cover_with_an_unknown_label_is_named():
    labels = ["0", "a", "b", "1"]
    covers = [("0", "a"), ("0", "b"), ("a", "x"), ("y", "1"), ("b", "1")]
    with pytest.raises(InvalidElement) as err:
        ls.build_lattice(labels, covers)
    assert str(err.value) == "cover ('a', 'x') references unknown labels"
    with pytest.raises(InvalidElement) as err:
        ls.build_lattice(labels, [("0", "a"), ["z", "b"], ("a", "x")])
    assert str(err.value) == "cover ('z', 'b') references unknown labels"


def test_duplicate_labels_are_rejected():
    with pytest.raises(InvalidElement):
        ls.build_lattice(["a", "a"], [])


def test_join_meet_conventions(m2):
    assert m2.join_of([]) == m2.bottom_id
    assert m2.meet_of([]) == m2.top_id
    for x in range(m2.n):
        assert m2.join_of([x]) == x
        assert m2.meet_of([x, m2.top_id]) == x


def test_join_of_rejects_bad_ids(m2):
    with pytest.raises(InvalidElement):
        m2.join_of([99])


@pytest.mark.parametrize("name,expected", [
    ("M2", True),
    ("M3", False),
    ("N5", False),
    ("herbrand-xy-ab", False),
    ("chain3", True),
    ("powerset3+M3", False),
    ("powerset3+N5", False),
])
def test_distributivity_verdicts(lattices, name, expected):
    selfcheck.distributivity_verdicts({name: (lattices[name], expected)})


@pytest.mark.parametrize("name", [
    "M2", "M3", "N5", "herbrand-xy-ab", "chain3", "powerset3+M3", "powerset3+N5",
])
def test_derived_structures_agree_on_fixtures(lattices, name):
    assert_derived_structures_agree(lattices[name])


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_derived_structures_agree_on_random_downset_lattices(seed):
    lat = ls.random_distributive_lattice(random.Random(seed), points=7)
    assert_derived_structures_agree(lat)


@settings(max_examples=10, deadline=None)
@given(k=st.integers(0, 4), shape=st.sampled_from(sorted(STACKS)))
def test_derived_structures_agree_on_stacked_lattices(k, shape):
    lat = stacked_lattice(k, shape)
    assert not lat.is_distributive
    assert_derived_structures_agree(lat)


def test_m3_shape(m3):
    atoms = [x for x in range(m3.n) if x not in (m3.bottom_id, m3.top_id)]
    assert len(atoms) == 3
    for a, b in itertools.combinations(atoms, 2):
        assert not m3.leq[a, b] and not m3.leq[b, a]
        assert m3.join_of([a, b]) == m3.top_id
        assert m3.meet_of([a, b]) == m3.bottom_id


def test_n5_is_a_pentagon(n5):
    p, q, r = n5.id_of("p"), n5.id_of("q"), n5.id_of("r")
    assert n5.leq[p, q]
    assert not n5.leq[p, r] and not n5.leq[r, p]
    assert n5.join_of([p, r]) == n5.top_id
    assert n5.meet_of([q, r]) == n5.bottom_id


@pytest.mark.parametrize("k", range(5))
def test_powerset_lattices_are_distributive(k):
    lat = ls.powerset_lattice([f"g{i}" for i in range(k)])
    assert lat.n == 1 << k
    assert lat.is_distributive


def test_powerset_join_is_union():
    lat = ls.powerset_lattice(["a", "b", "c"])
    a, b = lat.id_of("{a}"), lat.id_of("{b}")
    assert lat.labels[lat.join_of([a, b])] == "{a,b}"
    assert lat.bottom_id == lat.id_of("{}")
    assert lat.top_id == lat.id_of("{a,b,c}")


def test_powerset_of_two_is_m2_shaped(m2):
    lat = ls.powerset_lattice(["u", "v"])
    assert lat.n == 4
    assert sorted(np.asarray(lat.leq).sum(axis=1).tolist()) == sorted(
        np.asarray(m2.leq).sum(axis=1).tolist()
    )


def test_powerset_caps():
    with pytest.raises(TooLarge):
        ls.powerset_lattice([str(i) for i in range(17)])
    with pytest.raises(TooLarge):
        ls.powerset_lattice([str(i) for i in range(13)])  # 8192 > 1024 elements
    with pytest.raises(TooLarge):
        ls.powerset_lattice([str(i) for i in range(11)])  # 2048 > 1024 elements


def test_chain_lattices():
    chain = ls.chain_lattice(3)
    assert chain.labels == ("0", "1", "2")
    assert chain.leq[0, 2] and not chain.leq[2, 0]
    assert chain.is_distributive
    with pytest.raises(InvalidElement):
        ls.chain_lattice(0)


def test_bound_laws_exhaustive(canonical):
    selfcheck.bound_laws(canonical)


def test_absorption_exhaustive(canonical):
    selfcheck.absorption_laws(canonical)


# -- bound tables against the per-pair reference -------------------------------------


def assert_bound_tables_match_reference(labels, leq) -> bool:
    """The constructor's tables, or its NotALattice text, equal those of the
    per-pair reference, join table first; returns whether leq is a lattice."""
    labels = tuple(labels)
    try:
        want = (bound_table_reference(labels, leq, "least upper"),
                bound_table_reference(labels, leq.T, "greatest lower"))
    except NotALattice as exc:
        with pytest.raises(NotALattice) as err:
            ls.FiniteLattice(labels, leq)
        assert str(err.value) == str(exc)
        return False
    lat = ls.FiniteLattice(labels, leq)
    assert np.array_equal(lat.join_table, want[0])
    assert np.array_equal(lat.meet_table, want[1])
    return True


def random_order(rng, n):
    """A seeded random partial order on n shuffled ids, often given a
    greatest or a least element so that failures lie deeper in the table."""
    rank = list(range(n))
    rng.shuffle(rank)
    density = rng.uniform(0.1, 0.5)
    leq = np.eye(n, dtype=bool)
    for i, j in itertools.permutations(range(n), 2):
        if rank[i] < rank[j] and rng.random() < density:
            leq[i, j] = True
    if n > 2 and rng.random() < 0.5:
        leq[:, rank.index(n - 1)] = True
    if n > 2 and rng.random() < 0.5:
        leq[rank.index(0)] = True
    for m in range(n):
        leq |= leq[:, m : m + 1] & leq[m : m + 1, :]
    return leq


def test_bound_tables_match_reference_on_fixed_lattices(lattices):
    shapes = [*lattices.values(), *(stacked_lattice(k, s) for k in range(4) for s in STACKS),
              *(ls.powerset_lattice([f"g{i}" for i in range(k)]) for k in range(7))]
    for lat in shapes:
        assert_bound_tables_match_reference(lat.labels, np.asarray(lat.leq))


@pytest.mark.parametrize("k", [2, 3, 8, 9, 63, 64, 65, 66, 129, 130])
def test_bound_tables_match_reference_on_chains(k):
    # keys of the longest chains span more than 64 bits
    lat = ls.chain_lattice(k)
    assert_bound_tables_match_reference(lat.labels, np.asarray(lat.leq))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_bound_tables_match_reference_on_downset_lattices(seed):
    lat = ls.random_distributive_lattice(random.Random(seed), points=7)
    assert_bound_tables_match_reference(lat.labels, np.asarray(lat.leq))


def test_bound_tables_match_reference_across_row_blocks():
    # past 128 elements a table is built in more than one block of rows; the
    # pair the bowtie above the powerset leaves unbounded lies past the first
    lat = stacked_lattice(8, "M3")
    assert_bound_tables_match_reference(lat.labels, np.asarray(lat.leq))
    base = ls.powerset_lattice([f"g{i}" for i in range(8)])
    top = base.labels[base.top_id]
    labels = [*base.labels, "x", "y", "z", "w"]
    index = {label: i for i, label in enumerate(labels)}
    leq = np.eye(len(labels), dtype=bool)
    bowtie = [(top, "x"), (top, "y"), ("x", "z"), ("y", "z"), ("x", "w"), ("y", "w")]
    for lo, hi in base.cover_pairs() + bowtie:
        leq[index[lo], index[hi]] = True
    for m in range(len(labels)):
        leq |= leq[:, m : m + 1] & leq[m : m + 1, :]
    assert_bound_tables_match_reference(labels, leq)
    # only meets fail below a chain over the nonempty subsets of eight
    # generators: 385 elements give blocks of 42 rows, and row 131 is the
    # first with a disjoint pair
    masks = np.arange(255, 0, -1)
    leq = np.block([[np.triu(np.ones((130, 130), dtype=bool)), np.zeros((130, 255), dtype=bool)],
                    [np.ones((255, 130), dtype=bool), (masks[:, None] & ~masks[None, :]) == 0]])
    labels = [*(f"c{i}" for i in range(130)), *(f"s{m}" for m in masks)]
    assert not assert_bound_tables_match_reference(labels, leq)
    with pytest.raises(NotALattice) as err:
        ls.FiniteLattice(labels, leq)
    assert str(err.value) == "pair ('s254', 's1') has no unique greatest lower bound"



def test_bound_table_key_candidate_must_be_least():
    # the weighted sum over the common upper bounds of x and y names d, an
    # upper bound that is not least (c is another), so only the size check
    # refuses d; row x lies in the first row block and c, d in the second
    chain = [f"w{i}" for i in range(130)]
    labels = ["x", "y", "bot", "mx", "my", *chain, "c", "d", "e", "e2", "m", "1"]
    covers = [("bot", "x"), ("bot", "y"), ("x", "c"), ("y", "c"), ("x", "d"), ("y", "d"),
              ("x", "mx"), ("y", "my"), ("mx", "1"), ("my", "1"), ("c", "e"), ("c", "e2"),
              ("c", "m"), ("d", "e"), ("d", "e2"), ("e", "1"), ("e2", "1"), ("m", "w0"),
              *zip(chain, chain[1:]), ("w129", "1")]
    with pytest.raises(NotALattice) as err:
        ls.build_lattice(labels, covers)
    assert str(err.value) == "pair ('x', 'y') has no unique least upper bound"
    index = {label: i for i, label in enumerate(labels)}
    leq = np.eye(len(labels), dtype=bool)
    for lo, hi in covers:
        leq[index[lo], index[hi]] = True
    for m in range(len(labels)):
        leq |= leq[:, m : m + 1] & leq[m : m + 1, :]
    assert not assert_bound_tables_match_reference(labels, leq)

def test_bound_tables_match_reference_on_random_orders():
    rng = random.Random(2024)
    lattices = 0
    for _ in range(240):
        n = rng.randint(1, 12)
        lattices += assert_bound_tables_match_reference([f"x{i}" for i in range(n)],
                                                        random_order(rng, n))
    assert lattices < 120  # most of the orders are not lattices


def test_bound_tables_at_the_cap():
    # the powerset's ids are bitmasks; the chain has the most levels (1024)
    # and, with the powerset, the largest modulus (2048)
    ps = ls.powerset_lattice([f"g{i}" for i in range(MAX_ELEMENTS.bit_length() - 1)])
    chain = ls.chain_lattice(MAX_ELEMENTS)
    ids = np.arange(MAX_ELEMENTS)
    assert ps.n == chain.n == MAX_ELEMENTS
    assert np.array_equal(ps.join_table, ids[:, None] | ids)
    assert np.array_equal(ps.meet_table, ids[:, None] & ids)
    assert np.array_equal(chain.join_table, np.maximum(ids[:, None], ids))
    assert np.array_equal(chain.meet_table, np.minimum(ids[:, None], ids))


def test_bound_table_sums_are_exact_in_float32_up_to_the_cap():
    # at most n weights below the modulus 2**n.bit_length() are summed
    assert MAX_ELEMENTS * (1 << MAX_ELEMENTS.bit_length()) < 2**24


def test_distributivity_matches_reference_on_random_orders():
    # verdict and witness on lattices beyond the downset and stacked shapes
    rng = random.Random(7)
    verdicts = []
    for _ in range(400):
        n = rng.randint(1, 12)
        try:
            lat = ls.FiniteLattice([f"x{i}" for i in range(n)], random_order(rng, n))
        except NotALattice:
            continue
        assert lat.distributivity() == distributivity_reference(lat)
        verdicts.append(lat.is_distributive)
    assert verdicts.count(False) >= 20 and verdicts.count(True) >= 20


@pytest.mark.parametrize("name", ["M3", "N5", "chain9", "chain10", "chain17", "chain63",
                                  "chain64", "chain65", "chain129", "powerset6", "powerset7",
                                  "powerset9"])
def test_run_meets_matches_meet_of(lattices, name):
    # keys hold one bit per join-irreducible: up to 8 fill one byte (chain9),
    # 9 spill into a second (chain10, powerset9) and 16 fill two (chain17);
    # short runs fill more than one block around a run longer than it
    if name.startswith("chain"):
        lat = ls.chain_lattice(int(name[5:]))
    elif name.startswith("powerset"):
        lat = ls.powerset_lattice([f"g{i}" for i in range(int(name[8:]))])
    else:
        lat = lattices[name]
    rng = random.Random(name)
    lengths = [rng.choice([1, 1, 2, 3, 9]) for _ in range(3000)]
    lengths[1500] = BLOCK_PAIRS + 5
    values = np.array([rng.randrange(lat.n) for _ in range(sum(lengths))])
    starts = np.cumsum([0, *lengths[:-1]])
    expected = [lat.meet_of(values[s : s + m]) for s, m in zip(starts, lengths)]
    assert lat.run_meets(values, starts).tolist() == expected


@pytest.mark.parametrize("name", ["chain1", "chain2", "M3", "N5", "herbrand-xy-ab", "powerset3"])
def test_extend_is_the_join_over_irreducibles_below(lattices, name):
    # chain1 has no irreducibles and chain2 one
    if name.startswith("chain"):
        lat = ls.chain_lattice(int(name[5:]))
    elif name == "powerset3":
        lat = ls.powerset_lattice(["a", "b", "c"])
    else:
        lat = lattices[name]
    irr = lat.irreducibles
    values = np.random.default_rng(len(name)).integers(0, lat.n, size=(len(irr), 7))

    def literal(column):
        return [lat.join_of([v for v, j in zip(column, irr) if lat.leq[j, x]])
                for x in range(lat.n)]

    batch = lat.extend(values)
    assert batch.shape == (lat.n, 7)
    assert batch.T.tolist() == [literal(column) for column in values.T]
    assert lat.extend(values[:, 0]).tolist() == literal(values[:, 0])


# -- subtraction ----------------------------------------------------------------


def test_subtract_on_m2(m2):
    top, p, notp, bot = m2.top_id, m2.id_of("p"), m2.id_of("¬p"), m2.bottom_id
    assert m2.subtract(top, p) == notp
    for d in range(m2.n):
        assert m2.subtract(d, bot) == d
        assert m2.subtract(d, d) == bot


@given(a=st.integers(0, 15), b=st.integers(0, 15))
def test_powerset_subtract_is_set_difference(a, b):
    lat = ls.powerset_lattice(["w", "x", "y", "z"])
    assert lat.subtract(b, a) == b & ~a & 15


def test_subtract_table_matches_pointwise(canonical):
    for lat in canonical.values():
        assert_subtract_table_matches_pointwise(lat)


def test_subtract_runs_are_cached_read_only_runs_of_the_down_sets(canonical):
    lats = [canonical["M2"], canonical["chain3"], ls.powerset_lattice(["a", "b", "c"]),
            ls.random_distributive_lattice(random.Random(3), points=5)]
    for lat in lats:
        runs = lat.subtract_runs
        assert lat.subtract_runs is runs
        a, rest, starts = runs
        for array in runs:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        ends = [*starts[1:], len(a)]
        for c in range(lat.n):
            run = a[starts[c] : ends[c]].tolist()
            assert run == np.flatnonzero(lat.leq[:, c]).tolist() and c in run
            assert rest[starts[c] : ends[c]].tolist() == [lat.subtract(c, x) for x in run]


def test_packed_keys_name_each_element_in_both_lookups(canonical):
    """Each element's key is its down-set on J, packed; find and the
    single-set lookup both map it back to the element through the one
    dict, and gather reads a sequence at J."""
    for lat in [*canonical.values(), ls.powerset_lattice("abcd"), ls.chain_lattice(2), ls.chain_lattice(1)]:
        irr, _, gather = lat.irreducible_columns
        keys = lat.down_packed_lookup
        assert type(keys)._fields == ("rows", "ids")
        assert gather(range(lat.n)) == lat.irreducibles == tuple(irr.tolist())
        assert keys.find(keys.rows).tolist() == list(range(lat.n))
        for x in range(lat.n):
            assert keys.element(lat.leq[irr, x]) == x
            assert keys.find(keys.rows[x]) == x
            assert np.array_equal(np.packbits(lat.leq[irr, x]), keys.rows[x]) or not irr.size
    assert ls.chain_lattice(1).down_packed_lookup.ids == {b"": 0}


def test_a_key_no_element_has_raises_key_error(canonical):
    # in M3 two atoms join to top, so no element has exactly two atoms below it
    keys = canonical["M3"].down_packed_lookup
    two_atoms = [True, True, False]
    with pytest.raises(KeyError):
        keys.find(np.packbits(two_atoms)[None])
    with pytest.raises(KeyError):
        keys.element(two_atoms)


@pytest.mark.parametrize("name", ["M3", "N5", "herbrand-xy-ab"])
def test_subtract_runs_refuse_nondistributive(canonical, name):
    for _ in range(2):  # a refusal caches nothing
        with pytest.raises(NotDistributive) as err:
            canonical[name].subtract_runs
        assert str(err.value) == "the subtraction table needs a distributive lattice"


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_subtraction_on_the_pairs_below_matches_pointwise(seed):
    # the runs are built on the pairs a below c alone, the table on all pairs
    lat = ls.random_distributive_lattice(random.Random(seed), points=7)
    a, rest, starts = lat.subtract_runs
    cs = np.repeat(np.arange(lat.n), np.diff([*starts, len(a)]))
    assert rest.tolist() == [lat.subtract(c, x) for c, x in zip(cs.tolist(), a.tolist())]
    assert_subtract_table_matches_pointwise(lat)


def spy_on_bound_tables(monkeypatch):
    """Record the kind of every bound table FiniteLattice builds."""
    built = []
    original = ls.FiniteLattice._bound_table

    def spy(self, above, above32, levels, kind):
        built.append(kind)
        return original(self, above, above32, levels, kind)

    monkeypatch.setattr(ls.FiniteLattice, "_bound_table", spy)
    return built


def test_a_lattice_with_a_least_element_builds_one_table(canonical, monkeypatch):
    built = spy_on_bound_tables(monkeypatch)
    shapes = [*canonical.values(), ls.powerset_lattice("abcd"), ls.chain_lattice(70),
              ls.random_distributive_lattice(random.Random(4), points=6), stacked_lattice(3, "N5")]
    for lat in shapes:
        built.clear()
        lat = ls.FiniteLattice(lat.labels, lat.leq)
        assert built == ["least upper"]
        table = lat.meet_table  # built on first read, once
        assert lat.meet_table is table and built == ["least upper", "greatest lower"]
        assert table.dtype == np.int32 and table.shape == (lat.n, lat.n)
        assert not table.flags.writeable
        assert np.array_equal(table, bound_table_reference(lat.labels, np.asarray(lat.leq).T,
                                                           "greatest lower"))


def test_cached_tables_are_properties_read_from_one_cache(canonical):
    # perfbench/spans.py wraps cached tables through property.fget
    lat = canonical["M2"]
    for name in ("meet_table", "irreducible_columns", "down_packed_lookup", "subtract_table",
                 "subtract_runs", "join_rows", "meet_rows", "leq_rows"):
        assert isinstance(vars(ls.FiniteLattice)[name], property)
        assert getattr(lat, name) is getattr(lat, name)


def test_the_distributive_routes_build_no_meet_table(m3, monkeypatch):
    built = spy_on_bound_tables(monkeypatch)
    rng = random.Random(11)
    lat = ls.random_distributive_lattice(rng, points=7)
    assert built == ["least upper"]
    scs = ls.Scs(lat, {str(k): ls.random_space_function(lat, rng) for k in range(3)})
    assert lat.distributivity() == (True, None)
    by_tuple = ls.delta_group(scs, ["0", "1", "2"], "tuple")
    assert ls.delta_group(scs, ["0", "1", "2"], "subtract").images == by_tuple.images
    assert built == ["least upper"]
    # no production route builds it: not the refusal's witness, not the
    # element meets, subtraction or projections on a non-distributive lattice
    m3 = ls.FiniteLattice(m3.labels, m3.leq)
    assert not m3.is_distributive
    fs = [ls.random_space_function(m3, rng) for _ in range(3)]
    for d, c in itertools.product(range(m3.n), repeat=2):
        m3.meet_of([d, c])
        m3.subtract(d, c)
        ls.agent_projection(fs[0], c)
    ls.pointwise_meet_raw(fs)
    assert built == ["least upper", "least upper"]
    table = m3.meet_table  # a direct read still builds and checks it
    assert built == ["least upper", "least upper", "greatest lower"]
    assert np.array_equal(table, bound_table_reference(m3.labels, np.asarray(m3.leq).T,
                                                       "greatest lower"))


def test_subtract_defined_on_nondistributive(m3):
    # value exists on every lattice even where the residual laws fail
    for d in range(m3.n):
        for c in range(m3.n):
            e = m3.subtract(d, c)
            assert 0 <= e < m3.n


# -- the Herbrand fragment -------------------------------------------------------


def herbrand_oracle():
    """Independent derivation: close every equality set by congruence,
    quotient, order by entailment."""
    terms = ["x", "y", "a", "b"]
    pairs = list(itertools.combinations(terms, 2))
    closures = set()
    for r in range(len(pairs) + 1):
        for chosen in itertools.combinations(pairs, r):
            groups = {t: {t} for t in terms}
            for s, t in chosen:
                merged = groups[s] | groups[t]
                for u in merged:
                    groups[u] = merged
            if any(len(g & {"a", "b"}) > 1 for g in groups.values()):
                closures.add("false")
            else:
                closures.add(
                    frozenset(
                        frozenset(p)
                        for g in groups.values()
                        for p in itertools.combinations(sorted(g), 2)
                    )
                )
    return closures


def test_herbrand_fixture_matches_oracle(canonical):
    herb = canonical["herbrand-xy-ab"]
    closures = herbrand_oracle()
    assert herb.n == len(closures) == 11

    def closure_of_label(label):
        if label == "true":
            return frozenset()
        if label == "false":
            return "false"
        return frozenset(frozenset(eq.split("=")) for eq in label.split(","))

    assert {closure_of_label(lab) for lab in herb.labels} == closures
    # selfcheck output and the distributivity witness depend on the id order
    assert herb.labels == ('true', 'x=y', 'x=a', 'x=b', 'y=a', 'y=b', 'x=a,y=b', 'x=b,y=a',
                           'x=y,x=a,y=a', 'x=y,x=b,y=b', 'false')
    # entailment order: label closure containment
    for i, li in enumerate(herb.labels):
        for j, lj in enumerate(herb.labels):
            ci, cj = closure_of_label(li), closure_of_label(lj)
            if cj == "false":
                expected = True
            elif ci == "false":
                expected = i == j
            else:
                expected = ci <= cj
            assert bool(herb.leq[i, j]) == expected


def test_herbrand_distributivity_witness(canonical):
    herb = canonical["herbrand-xy-ab"]
    c = herb.id_of("x=a")
    d = herb.id_of("x=y,x=a,y=a")
    e = herb.id_of("x=b")
    assert herb.meet_of([d, e]) == herb.id_of("true")
    assert herb.join_of([c, herb.meet_of([d, e])]) == c
    assert herb.meet_of([herb.join_of([c, d]), herb.join_of([c, e])]) == d


# -- random distributive lattices and serialization ------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_downset_lattices_are_distributive(seed):
    lat = ls.random_distributive_lattice(random.Random(seed))
    assert lat.n <= 16
    assert lat.is_distributive


def test_json_round_trip(canonical, tmp_path):
    for name, lat in canonical.items():
        path = tmp_path / f"{name}.json"
        lat.dump(path)
        loaded = ls.FiniteLattice.load(path)
        assert loaded.labels == lat.labels  # label order preserved
        assert np.array_equal(loaded.leq, lat.leq)
        assert np.array_equal(loaded.join_table, lat.join_table)
        assert loaded.to_json() == lat.to_json()


def test_from_json_rejects_malformed():
    with pytest.raises(InvalidElement):
        ls.FiniteLattice.from_json({"covers": []})


@pytest.mark.parametrize("elements", ["ab", ["a", 1], {"a": "b"}, None])
def test_from_json_rejects_elements_that_are_not_a_list_of_strings(elements):
    with pytest.raises(InvalidElement):
        ls.FiniteLattice.from_json({"elements": elements, "covers": []})


@pytest.mark.parametrize("covers", [
    [["a"]], [["a", "b", "c"]], "ab", [["a", 1]], [("a", "b")], [{"a": "b"}], None,
])
def test_from_json_rejects_covers_that_are_not_two_string_lists(covers):
    with pytest.raises(InvalidElement):
        ls.FiniteLattice.from_json({"elements": ["a", "b"], "covers": covers})


def test_dual_swaps_everything(m2):
    dual = ls.FiniteLattice(m2.labels, m2.leq.T)
    assert dual.bottom_id == m2.top_id
    assert dual.top_id == m2.bottom_id
    assert np.array_equal(dual.join_table, m2.meet_table)
    assert np.array_equal(dual.meet_table, m2.join_table)
    assert np.array_equal(dual.leq, m2.leq.T)


def test_element_cap():
    with pytest.raises(TooLarge):
        ls.build_lattice([str(i) for i in range(1025)], [])
    with pytest.raises(TooLarge):
        ls.downset_lattice(np.eye(11, dtype=bool))  # 2048 downsets of an antichain


def test_downset_cap_stops_an_antichain_early():
    t0 = time.monotonic()
    with pytest.raises(TooLarge):
        ls.downset_lattice(np.eye(18, dtype=bool))  # 2^18 downsets
    assert time.monotonic() - t0 < 1.0


def downset_labels_by_filter(poset_leq):
    """Reference: every subset of the k points, kept when downward closed,
    in ascending bitmask order."""
    k = len(poset_leq)
    return tuple(
        "{" + ",".join(f"e{i}" for i in range(k) if mask >> i & 1) + "}"
        for mask in range(1 << k)
        if all(mask >> i & 1 for i in range(k) for j in range(k) if poset_leq[i, j] and mask >> j & 1)
    )


def test_downset_labels_match_the_subset_filter():
    rng = random.Random(12)
    for _ in range(50):
        k, density = rng.randint(0, 10), rng.random()
        leq = np.eye(k, dtype=bool)
        for i in range(k):
            for j in range(i + 1, k):
                leq[i, j] = rng.random() < density
        for m in range(k):
            leq |= leq[:, m : m + 1] & leq[m : m + 1, :]
        assert ls.downset_lattice(leq).labels == downset_labels_by_filter(leq)
