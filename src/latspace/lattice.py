"""Finite complete lattices with precomputed join/meet tables.

Element identity is a dense integer id; labels appear only at I/O
boundaries.  The order relation follows the information-order
convention: the bottom element plays the role of "true" (empty
information) and the top element the role of "false" (inconsistent
information).  Validation is eager: a constructed lattice has been
checked exhaustively, so every later query may assume a valid lattice.
Instances are immutable after construction (derived tables are cached
lazily but idempotently), so unsynchronized concurrent reads are safe.
"""

from __future__ import annotations

import itertools
import json
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import InvalidElement, NotALattice, NotAntisymmetric, NotDistributive, TooLarge

# Largest lattice built.  Construction is super-quadratic: a powerset
# builds in about 0.24 s at 1024 elements and 1.5 s at 2048 (see README).
MAX_ELEMENTS = 1024

# Pairs per row block of a bound-table build; it bounds the temporaries.
_BLOCK_PAIRS = 1 << 14


class _KeyIndex(NamedTuple):
    """Each element's key, rows[x], packed into bytes, and `order`, the ids
    in ascending key order.  In a lattice the keys are distinct."""

    rows: np.ndarray
    order: np.ndarray
    sorted_keys: np.ndarray

    def find(self, rows: np.ndarray) -> np.ndarray:
        """Id with each packed key in `rows` (C-contiguous, bytes last); a key
        no element has yields some id, which callers verify or rule out."""
        at = np.searchsorted(self.sorted_keys, rows.view(self.sorted_keys.dtype)[..., 0])
        return self.order[np.minimum(at, len(self.order) - 1)]


class FiniteLattice:
    """A validated finite complete lattice.

    Attributes:
        labels: element labels, indexed by element id.
        leq: read-only boolean matrix, leq[a, b] iff a is below b.
        join_table, meet_table: int matrices of pairwise lubs/glbs.
        bottom_id, top_id: ids of the least and greatest elements.
    """

    def __init__(self, labels, leq):
        labels = tuple(str(x) for x in labels)
        n = len(labels)
        if n == 0:
            raise NotALattice("a lattice needs at least one element")
        _check_elements(n)
        if len(set(labels)) != n:
            raise InvalidElement("element labels must be distinct")
        leq = np.asarray(leq, dtype=bool)
        if leq.shape != (n, n):
            raise NotALattice(f"order relation must be {n}x{n}, got {leq.shape}")

        if not leq[np.diag_indices(n)].all():
            raise NotAntisymmetric("order relation is not reflexive")
        sym = leq & leq.T
        if int(sym.sum()) != n:
            a, b = map(int, np.argwhere(sym & ~np.eye(n, dtype=bool))[0])
            raise NotAntisymmetric(
                f"cycle through {labels[a]!r} and {labels[b]!r}"
            )
        # float32 products run on BLAS and are exact while n < 2**24.
        # interval[a, b] counts the z with a <= z <= b, so on a transitive
        # relation it is positive exactly where leq holds.
        interval = leq.astype(np.float32) @ leq.astype(np.float32)
        gaps = (interval > 0) & ~leq
        if gaps.any():
            a, b = map(int, np.argwhere(gaps)[0])
            raise NotALattice(
                f"order relation is not transitive at ({labels[a]!r}, {labels[b]!r})"
            )

        leq = leq.copy()
        leq.flags.writeable = False
        self.labels = labels
        self.leq = leq
        self.n = n
        self._label_to_id = {lab: i for i, lab in enumerate(labels)}

        cover = interval == 2  # b covers a iff the interval [a, b] is {a, b}
        cover.flags.writeable = False
        join_irr = np.flatnonzero(cover.sum(axis=0) == 1)  # one lower cover
        meet_irr = np.flatnonzero(cover.sum(axis=1) == 1)  # one upper cover
        self.join_table, _ = self._bound_table(leq, meet_irr, "least upper")
        self.meet_table, down_keys = self._bound_table(leq.T, join_irr, "greatest lower")
        self.bottom_id = self._extreme(least=True)
        self.top_id = self._extreme(least=False)

        self._caches: dict[str, object] = {
            "cover": cover,
            "irreducibles": tuple(int(j) for j in join_irr),
            "down_keys": down_keys,
        }

    # -- construction helpers ------------------------------------------------

    def _bound_table(self, above: np.ndarray, key_ids: np.ndarray, kind: str):
        """(table, keys): the unique least upper bounds w.r.t. the rows of
        `above`, and the _KeyIndex of the keys they were looked up by.

        above[x] is the set of elements weakly above x.  In a finite lattice
        every element is the meet of the meet-irreducibles above it
        (Birkhoff), so above[x] restricted to them, `key_ids`, is a key that
        identifies x, and the lub of {a, b} carries the key key(a) & key(b).
        Each candidate found by that key is checked exactly: it is the lub
        iff it lies above a and b and its above-set is as large as
        above[a] & above[b].  Rows are processed in blocks, so temporaries
        stay O(block * n).  Called with the transposed relation and the
        join-irreducibles it yields the glb table.
        """
        n = self.n
        bits = above[:, key_ids] if len(key_ids) else np.zeros((n, 1), bool)
        packed = np.ascontiguousarray(np.packbits(bits, axis=1))
        packed.flags.writeable = False
        as_bytes = packed.view(f"S{packed.shape[1]}")[:, 0]
        order = np.argsort(as_bytes, kind="stable")
        keys = _KeyIndex(packed, order, as_bytes[order])
        size = above.sum(axis=1)
        weights = above.astype(np.float32)
        ids = np.arange(n)
        table = np.empty((n, n), dtype=np.int32)
        step = max(1, _BLOCK_PAIRS // n)
        for start in range(0, n, step):
            rows = slice(start, start + step)
            found = keys.find(packed[rows, None, :] & packed[None, :, :])
            shared = weights[rows] @ weights.T  # |above[a] & above[b]|
            exact = above[ids[rows, None], found] & above[ids[None, :], found]
            if not (exact & (size[found] == shared)).all():
                a, b = _first_unbounded(above, size, start)
                raise NotALattice(
                    f"pair ({self.labels[a]!r}, {self.labels[b]!r}) has no "
                    f"unique {kind} bound"
                )
            table[rows] = found
        table.flags.writeable = False
        return table, keys

    def _extreme(self, *, least: bool) -> int:
        counts = self.leq.sum(axis=1 if least else 0)
        ids = np.nonzero(counts == self.n)[0]
        if len(ids) != 1:
            which = "bottom" if least else "top"
            raise NotALattice(f"expected a unique {which} element, found {len(ids)}")
        return int(ids[0])

    # -- basic queries -------------------------------------------------------

    def __repr__(self) -> str:
        return f"FiniteLattice(n={self.n}, bottom={self.labels[self.bottom_id]!r})"

    def check_id(self, x: int) -> int:
        if not 0 <= x < self.n:
            raise InvalidElement(f"element id {x} out of range 0..{self.n - 1}")
        return int(x)

    def id_of(self, label: str) -> int:
        try:
            return self._label_to_id[label]
        except KeyError:
            raise InvalidElement(f"unknown element label {label!r}") from None

    def join_of(self, ids) -> int:
        """Least upper bound of a set of ids; the empty join is bottom."""
        ids = [self.check_id(x) for x in ids]
        return reduce(lambda a, b: int(self.join_table[a, b]), ids, self.bottom_id)

    def meet_of(self, ids) -> int:
        """Greatest lower bound of a set of ids; the empty meet is top."""
        ids = [self.check_id(x) for x in ids]
        return reduce(lambda a, b: int(self.meet_table[a, b]), ids, self.top_id)

    def up_ids(self, x: int) -> list[int]:
        return [int(i) for i in np.nonzero(self.leq[self.check_id(x)])[0]]

    def down_ids(self, x: int) -> list[int]:
        return [int(i) for i in np.nonzero(self.leq[:, self.check_id(x)])[0]]

    # -- cached derived structure ---------------------------------------------

    def _cached(self, key: str, make):
        if key not in self._caches:
            self._caches[key] = make()
        return self._caches[key]

    @property
    def cover(self) -> np.ndarray:
        """cover[a, b] iff b covers a (a strictly below b, nothing between)."""
        return self._caches["cover"]

    @property
    def irreducibles(self) -> tuple[int, ...]:
        """Join-irreducible elements, in id order: in a finite lattice these
        are exactly the elements with one lower cover."""
        return self._caches["irreducibles"]

    @property
    def irreducible_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """(J, join_table[:, J]): the join-irreducibles as an index array
        and the n x |J| columns of the join table at them."""

        def make():
            ids = np.array(self.irreducibles, dtype=np.intp)
            columns = self.join_table[:, ids]
            ids.flags.writeable = columns.flags.writeable = False
            return ids, columns

        return self._cached("irreducible_columns", make)

    @property
    def join_rows(self) -> list[list[int]]:
        return self._cached("join_rows", lambda: self.join_table.tolist())

    @property
    def meet_rows(self) -> list[list[int]]:
        return self._cached("meet_rows", lambda: self.meet_table.tolist())

    @property
    def leq_rows(self) -> list[list[bool]]:
        return self._cached("leq_rows", lambda: self.leq.tolist())

    @property
    def down_packed_lookup(self) -> _KeyIndex:
        """The meet table's keys: each element's down-set on the
        join-irreducibles, packed into bytes, and their lookup."""
        return self._caches["down_keys"]

    def run_meets(self, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Meet of each run values[starts[k]:starts[k + 1]] of element ids (the
        last run ends at len(values)).  An irreducible j lies below the meet
        iff it lies below every member, so the meet's key is the AND of the
        run's down_packed_lookup rows.  Runs must be non-empty, since reduceat
        gives values[starts[k]] for an empty one.  Whole runs go in blocks of
        about _BLOCK_PAIRS rows, so temporaries stay bounded.
        """
        keys = self.down_packed_lookup
        ends = np.append(starts[1:], len(values))
        out = np.empty(len(starts), dtype=np.int32)
        k = 0
        while k < len(starts):
            stop = max(k + 1, int(np.searchsorted(ends, starts[k] + _BLOCK_PAIRS, "right")))
            rows = keys.rows[values[starts[k] : ends[stop - 1]]]
            meets = np.bitwise_and.reduceat(rows, starts[k:stop] - starts[k], axis=0)
            out[k:stop] = keys.find(meets)
            k = stop
        return out

    # -- distributivity and subtraction ---------------------------------------

    def distributivity(self) -> tuple[bool, tuple[int, int, int] | None]:
        """Distributivity test; returns (flag, witness or None).

        A finite lattice is distributive iff every join-irreducible j is
        join-prime: j below a join b implies j below a or j below b.  Each
        j costs one vectorised n x n step.  When j is below a join b but
        below neither, one of the triples (b, j, a) and (j meet a, j, b)
        is a witness (x, y, z) with x join (y meet z) != (x join y) meet
        (x join z).  Cached after the first call.
        """

        def make():
            jt, mt, leq = self.join_table, self.meet_table, self.leq
            for j in self.irreducibles:
                up = leq[j]
                broken = up[jt] & ~up[:, None] & ~up[None, :]
                if broken.any():
                    a, b = map(int, np.argwhere(broken)[0])
                    if jt[b, mt[j, a]] != jt[b, j]:
                        return False, (b, j, a)
                    # Now b join (j meet a) = b join j lies above j, so the
                    # right side is j; the left side joins two elements
                    # strictly below the irreducible j, so it is not j.
                    return False, (int(mt[j, a]), j, b)
            return True, None

        return self._cached("distributivity", make)

    @property
    def is_distributive(self) -> bool:
        return self.distributivity()[0]

    def subtract(self, d: int, c: int) -> int:
        """Weakest e whose join with c derives d: meet of {e | c join e >= d}.

        Defined on every lattice; the residuation laws are only guaranteed
        on distributive ones.
        """
        d, c = self.check_id(d), self.check_id(c)
        joined = self.join_table[c]
        candidates = np.nonzero(self.leq[d, joined])[0]
        return self.meet_of(candidates)

    @property
    def subtract_table(self) -> np.ndarray:
        """Full n x n table, table[d, c] = subtract(d, c), built on first use.

        Only distributive lattices have one: there d minus c is the join of
        the irreducibles below d and not below c (Birkhoff), so the table
        grows from all bottom by one masked join per irreducible.
        """

        def make():
            if not self.is_distributive:
                raise NotDistributive("the subtraction table needs a distributive lattice")
            jt, leq = self.join_table, self.leq
            table = np.full((self.n, self.n), self.bottom_id, dtype=np.int32)
            for j in self.irreducibles:
                sel = leq[j][:, None] & ~leq[j][None, :]  # j below d, not below c
                table = np.where(sel, jt[table, j], table)
            table.flags.writeable = False
            return table

        return self._cached("subtract_table", make)

    # -- derived lattices ------------------------------------------------------

    def dual(self) -> "FiniteLattice":
        """The same elements under the reversed order (joins become meets)."""
        return FiniteLattice(self.labels, self.leq.T)

    # -- serialization ----------------------------------------------------------

    def cover_pairs(self) -> list[tuple[str, str]]:
        return [(self.labels[a], self.labels[b]) for a, b in np.argwhere(self.cover)]

    def to_json(self) -> dict:
        return {
            "elements": list(self.labels),
            "covers": [[lo, hi] for lo, hi in self.cover_pairs()],
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, ensure_ascii=False, indent=1)
            fh.write("\n")

    @classmethod
    def from_json(cls, doc: dict):
        try:
            labels, covers = doc["elements"], doc["covers"]
        except (KeyError, TypeError) as exc:
            raise InvalidElement(f"malformed lattice document: {exc}") from None
        if not _is_str_list(labels):
            raise InvalidElement('"elements" must be a list of strings')
        if not isinstance(covers, list) or not all(
            _is_str_list(pair) and len(pair) == 2 for pair in covers
        ):
            raise InvalidElement('"covers" must be a list of two-string lists')
        return build_lattice(labels, covers)

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def _first_unbounded(above: np.ndarray, size: np.ndarray, start: int) -> tuple[int, int]:
    """First pair (a, b), a <= b, in row-major order from row `start`, with
    no element whose above-set is above[a] & above[b].

    A failed key check always has such a pair: where every pair has a lub,
    the keys are distinct and each lub carries the key it is looked up by.
    Rows before `start` passed, so the pair is the first of the whole scan.
    """
    for a in range(start, len(above)):
        common = above[a] & above[a:]
        exact = (common & (size == common.sum(axis=1)[:, None])).any(axis=1)
        if not exact.all():
            return a, a + int(np.argmin(exact))
    raise AssertionError("a failed bound check has no unbounded pair")


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _check_elements(n: int) -> None:
    if n > MAX_ELEMENTS:
        raise TooLarge(f"{n} elements exceeds the cap of {MAX_ELEMENTS}")


def build_lattice(labels, covers) -> FiniteLattice:
    """Build a lattice from its cover relation (pairs of labels, low first).

    The reflexive-transitive closure is computed here; the constructor then
    checks the order axioms and that all pairwise bounds exist and are unique.
    """
    labels = [str(x) for x in labels]
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise InvalidElement("element labels must be distinct")
    n = len(labels)
    _check_elements(n)
    leq = np.eye(n, dtype=bool)
    for lo, hi in covers:
        if lo not in index or hi not in index:
            raise InvalidElement(f"cover ({lo!r}, {hi!r}) references unknown labels")
        leq[index[lo], index[hi]] = True
    # Closure by float32 squaring, which doubles the path length reached
    # each time; antisymmetry violations surface in the constructor.
    while True:
        step = leq.astype(np.float32)
        closed = (step @ step) > 0
        if (closed == leq).all():
            return FiniteLattice(labels, leq)
        leq = closed


def subset_labels(ground, masks) -> list[str]:
    ground = list(ground)
    out = []
    for mask in masks:
        members = [ground[i] for i in range(len(ground)) if mask >> i & 1]
        out.append("{" + ",".join(members) + "}")
    return out


def powerset_order(ground) -> tuple[list[str], np.ndarray]:
    """Labels and inclusion matrix of the subsets of `ground`, indexed by
    bitmask over the ground order; the element cap is checked first."""
    ground = [str(x) for x in ground]
    if len(set(ground)) != len(ground):
        raise InvalidElement("ground labels must be distinct")
    if 1 << len(ground) > MAX_ELEMENTS:
        raise TooLarge(f"2^{len(ground)} elements exceeds the cap of {MAX_ELEMENTS}")
    masks = np.arange(1 << len(ground), dtype=np.int64)
    return subset_labels(ground, masks.tolist()), (masks[:, None] & ~masks[None, :]) == 0


def powerset_lattice(ground) -> FiniteLattice:
    """Powerset of `ground` ordered by inclusion; join is union.

    Element ids are subset bitmasks over the ground order, so id 0 is the
    empty set (the bottom).
    """
    return FiniteLattice(*powerset_order(ground))


def chain_lattice(k: int) -> FiniteLattice:
    """The k-element chain 0 < 1 < ... < k-1."""
    if k < 1:
        raise InvalidElement("a chain needs at least one element")
    labels = [str(i) for i in range(k)]
    return build_lattice(labels, [(labels[i], labels[i + 1]) for i in range(k - 1)])


def downset_lattice(poset_leq: np.ndarray) -> FiniteLattice:
    """Lattice of downward-closed subsets of a poset, ordered by inclusion.

    Always distributive; used to generate distributive test lattices from
    small random posets.  Downsets are bitmasks over the points, grown
    from the empty set by adding one point whose predecessors are already
    in, so the element cap stops the growth; ids follow ascending masks.
    """
    poset_leq = np.asarray(poset_leq, dtype=bool)
    k = poset_leq.shape[0]
    preds = [sum(1 << i for i in range(k) if i != j and poset_leq[i, j]) for j in range(k)]
    seen, queue = {0}, [0]
    for d in queue:  # the queue grows while it is read: breadth first
        for j in range(k):
            e = d | 1 << j
            if e not in seen and preds[j] & ~d == 0:
                seen.add(e)
                queue.append(e)
                _check_elements(len(seen))
    downsets = sorted(seen)
    arr = np.array(downsets, dtype=np.int64)
    leq = (arr[:, None] & ~arr[None, :]) == 0
    labels = subset_labels([f"e{i}" for i in range(k)], downsets)
    return FiniteLattice(labels, leq)


_HERBRAND_TERMS = ("x", "y", "a", "b")
_HERBRAND_CONSTANTS = {"a", "b"}


def _herbrand_close(pairs: frozenset) -> frozenset | None:
    """Deductive closure of a set of term equalities; None if inconsistent.

    Closure classes are computed by merging; two distinct constants in one
    class is a contradiction.
    """
    parent = {t: t for t in _HERBRAND_TERMS}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for s, t in pairs:
        parent[find(s)] = find(t)
    classes: dict[str, set[str]] = {}
    for t in _HERBRAND_TERMS:
        classes.setdefault(find(t), set()).add(t)
    for members in classes.values():
        if len(members & _HERBRAND_CONSTANTS) > 1:
            return None
    order = _HERBRAND_TERMS.index
    closed = set()
    for members in classes.values():
        for s, t in itertools.combinations(sorted(members, key=order), 2):
            closed.add((s, t))
    return frozenset(closed)


def herbrand_xy_ab() -> FiniteLattice:
    """Syntactic-equality lattice over variables x, y and constants a, b.

    Elements are deductively closed consistent equality sets plus a single
    inconsistent top; the order is entailment (set inclusion of closures).
    Not distributive.
    """
    all_pairs = list(itertools.combinations(sorted(_HERBRAND_TERMS), 2))
    closures = set()
    for r in range(len(all_pairs) + 1):
        for chosen in itertools.combinations(all_pairs, r):
            closures.add(_herbrand_close(frozenset(chosen)))
    order = _HERBRAND_TERMS.index

    def pair_key(pair):
        return (order(pair[0]), order(pair[1]))

    consistent = sorted(
        (c for c in closures if c is not None),
        key=lambda c: (len(c), sorted(pair_key(p) for p in c)),
    )

    def label(pairs):
        if not pairs:
            return "true"
        return ",".join(f"{s}={t}" for s, t in sorted(pairs, key=pair_key))

    labels = [label(c) for c in consistent] + ["false"]
    n = len(labels)
    leq = np.zeros((n, n), dtype=bool)
    for i, ci in enumerate(consistent):
        for j, cj in enumerate(consistent):
            leq[i, j] = ci <= cj
        leq[i, n - 1] = True
    leq[n - 1, n - 1] = True
    return FiniteLattice(labels, leq)


def random_distributive_lattice(rng, *, points: int = 4) -> FiniteLattice:
    """Downset lattice of a seeded random poset on 1 to `points` points."""
    k = rng.randint(1, points)
    leq = np.eye(k, dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < 0.4:
                leq[i, j] = True
    for m in range(k):  # transitive closure keeps it a partial order
        leq |= leq[:, m : m + 1] & leq[m : m + 1, :]
    return downset_lattice(leq)


def fixtures() -> dict[str, FiniteLattice]:
    """Named canonical lattices used across the test and selfcheck suites."""
    m2 = build_lattice(
        ["p∨¬p", "p", "¬p", "p∧¬p"],
        [("p∨¬p", "p"), ("p∨¬p", "¬p"), ("p", "p∧¬p"), ("¬p", "p∧¬p")],
    )
    m3 = build_lattice(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("a", "c"), ("a", "d"), ("b", "e"), ("c", "e"), ("d", "e")],
    )
    n5 = build_lattice(
        ["0", "p", "q", "r", "1"],
        [("0", "p"), ("p", "q"), ("q", "1"), ("0", "r"), ("r", "1")],
    )
    return {
        "M2": m2,
        "M3": m3,
        "N5": n5,
        "herbrand-xy-ab": herbrand_xy_ab(),
        "chain3": chain_lattice(3),
    }
