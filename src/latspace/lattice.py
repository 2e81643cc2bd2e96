"""Finite complete lattices with checked join and meet tables.

Element identity is a dense integer id; labels appear only at I/O
boundaries.  The order relation follows the information-order
convention: the bottom element plays the role of "true" (empty
information) and the top element the role of "false" (inconsistent
information).  Validation happens at construction: the order axioms,
every pairwise join and a least element are checked exhaustively, which
makes a finite order a lattice, so every later query may assume a valid
lattice.  The meet table and the other derived tables are built on
first read.  Instances are immutable after construction (derived tables
are cached lazily but idempotently), so unsynchronized concurrent reads
are safe.
"""

from __future__ import annotations

import itertools
import json
import operator
from functools import reduce
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidElement, NotALattice, NotAntisymmetric, NotDistributive, TooLarge
from .errors import json_list, json_object, json_pairs, read_json

# Largest lattice built.  Construction is super-quadratic: a powerset
# builds in about 0.1 s at 1024 elements and 0.7-0.95 s at 2048, and its
# meet table, built on first read, costs about as much again (see README).
# The bound tables' float32 sums stay exact while n * 2**n.bit_length() < 2**24.
MAX_ELEMENTS = 1024

# Pairs per row block of a bound-table build; it bounds the temporaries.
_BLOCK_PAIRS = 1 << 14


class _KeyIndex(NamedTuple):
    """Each element's key, rows[x], packed into bytes, with two lookups:
    `order`, the ids in ascending key order, for find on whole arrays, and
    `ids`, a dict from each key's bytes to its id, for one key at a time.
    In a lattice the keys are distinct."""

    rows: np.ndarray
    order: np.ndarray
    sorted_keys: np.ndarray
    ids: dict[bytes, int]

    def find(self, rows: np.ndarray) -> np.ndarray:
        """Id with each packed key in `rows` (C-contiguous, bytes last); a key
        no element has yields some id, which callers verify or rule out."""
        at = np.searchsorted(self.sorted_keys, rows.view(self.sorted_keys.dtype)[..., 0])
        return self.order[np.minimum(at, len(self.order) - 1)]


def _cached(build):
    """A read-only property whose value, build(self), is made on first read
    and kept in the instance's _caches, so a later read is one dict lookup."""
    key = build.__name__

    def read(self):
        try:
            return self._caches[key]
        except KeyError:
            value = self._caches[key] = build(self)
            return value

    read.__name__, read.__doc__ = key, build.__doc__
    return property(read)


class FiniteLattice:
    """A validated finite complete lattice.

    Attributes:
        labels: element labels, indexed by element id.
        leq: read-only boolean matrix, leq[a, b] iff a is below b.
        join_table, meet_table: read-only int32 matrices of pairwise
            lubs/glbs; the meet table is built on first read.
        bottom_id, top_id: ids of the least and greatest elements.
        cover: read-only boolean matrix, cover[a, b] iff b covers a.
        down_sizes: read-only, down_sizes[x] counts the elements below x.
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
        above32 = leq.astype(np.float32)
        interval = above32 @ above32
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

        self.cover = interval == 2  # b covers a iff the interval [a, b] is {a, b}
        self.cover.flags.writeable = False
        self._irreducibles = tuple(int(j) for j in np.flatnonzero(self.cover.sum(axis=0) == 1))
        self._caches: dict[str, object] = {}
        levels = _levels(np.ascontiguousarray(above32.T))  # rows are down-sets
        self.join_table = self._bound_table(leq, above32, levels, "least upper")
        # A finite order in which every pair has a join and which has a least
        # element is a lattice (Davey and Priestley, ch. 2), so the meet table
        # waits for its first read.  Without a least element it is built now,
        # and its checks name the first pair that has no meet.
        up_sizes = leq.sum(axis=1)
        self.bottom_id = int(np.argmax(up_sizes))
        if up_sizes[self.bottom_id] != n:
            self.meet_table  # raises NotALattice
        self.down_sizes = leq.sum(axis=0)
        self.down_sizes.flags.writeable = False
        self.top_id = int(np.argmax(self.down_sizes))

    # -- construction helpers ------------------------------------------------

    def _bound_table(self, above: np.ndarray, above32: np.ndarray, levels, kind: str):
        """The unique least upper bounds w.r.t. the rows of `above`.

        above[x] is the set of elements weakly above x, and `above32` is the
        same relation as float32.  Weights w with sum(w[z] for z above x)
        = x modulo 2**k, where 2**k > n, come from Möbius inversion of the
        ids, one level at a time (`levels` runs from the maximal elements
        down, see _levels).  In a lattice the common upper bounds of a and b
        are exactly the elements above a join b, so (above * w) @ above.T is
        the table modulo 2**k.  The sum has at most n terms below 2**k and
        n * 2**k < 2**24, so float32 holds it exactly.  Each candidate is
        then checked exactly: it is the lub iff it lies above a and b and its
        above-set is as large as above[a] & above[b].  A pair fails the check
        iff it has no lub, since where the lub exists the sum names it, so
        the first failing pair in row-major order is the one reported; its
        b is at least a, as failure is symmetric and earlier rows passed.
        Rows are processed in blocks, so temporaries stay O(block * n).
        Called with the transposed relation and the levels reversed it
        yields the glb table.
        """
        n = self.n
        mask = (1 << n.bit_length()) - 1
        w = np.zeros(n, dtype=np.float32)
        for level in levels:  # w[x] = x - (sum of w strictly above x)
            w[level] = (level - (above32[level] @ w).astype(np.int64)) & mask
        size = above.sum(axis=1)
        flat, offsets = above.ravel(), np.arange(0, n * n, n)  # above[a, z] is flat[a*n + z]
        table = np.empty((n, n), dtype=np.int32)
        step = max(1, _BLOCK_PAIRS // n)
        for start in range(0, n, step):
            rows = slice(start, start + step)
            block = above32[rows]
            # one product: |above[a] & above[b]| over the weighted sums
            both = np.concatenate([block, block * w]) @ above32.T
            shared, sums = both[: len(block)], both[len(block) :]
            # off a lattice a sum can name no element: clamp it for the checks
            found = np.minimum(sums.astype(np.int32) & mask, n - 1)
            exact = flat.take(found + offsets[rows, None]) & flat.take(found + offsets)
            failed = ~(exact & (size[found] == shared))
            if failed.any():
                a, b = np.argwhere(failed)[0]
                raise NotALattice(
                    f"pair ({self.labels[start + a]!r}, {self.labels[b]!r}) has no "
                    f"unique {kind} bound"
                )
            table[rows] = found
        table.flags.writeable = False
        return table

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

    # -- cached derived structure ---------------------------------------------

    @property
    def irreducibles(self) -> tuple[int, ...]:
        """Join-irreducible elements, in id order: in a finite lattice these
        are exactly the elements with one lower cover."""
        return self._irreducibles

    @_cached
    def meet_table(self) -> np.ndarray:
        """Read-only int32 n x n table of pairwise greatest lower bounds,
        built and checked on first read as the join table is, over the
        transposed order with its levels from the bottom."""
        below32 = np.ascontiguousarray(self.leq.T, dtype=np.float32)  # rows are down-sets
        return self._bound_table(self.leq.T, below32, _levels(below32)[::-1], "greatest lower")

    @_cached
    def irreducible_columns(self) -> tuple[np.ndarray, np.ndarray, Callable]:
        """(J, join_table[:, J], gather): the join-irreducibles as an index
        array, the n x |J| columns of the join table at them, and gather,
        where gather(seq) is the tuple of seq's entries at J in one
        itemgetter call."""
        irr = self.irreducibles
        ids = np.array(irr, dtype=np.intp)
        columns = self.join_table[:, ids]
        ids.flags.writeable = columns.flags.writeable = False
        gather = operator.itemgetter(*irr) if len(irr) > 1 else lambda seq: tuple(seq[j] for j in irr)
        return ids, columns, gather

    @_cached
    def join_rows(self) -> list[list[int]]:
        return self.join_table.tolist()

    @_cached
    def meet_rows(self) -> list[list[int]]:
        return self.meet_table.tolist()

    @_cached
    def leq_rows(self) -> list[list[bool]]:
        return self.leq.tolist()

    @_cached
    def down_packed_lookup(self) -> _KeyIndex:
        """Each element's down-set on the join-irreducibles, packed into
        bytes by np.packbits, and their lookups; built on first use.  Every
        element is the join of the irreducibles below it (Birkhoff), so the
        keys differ.  The 1-element lattice has no irreducibles: its row is
        one zero byte, and its key in `ids` is b"", the packing of no bits."""
        irr = list(self.irreducibles)
        bits = self.leq.T[:, irr] if irr else np.zeros((self.n, 1), dtype=bool)
        packed = np.ascontiguousarray(np.packbits(bits, axis=1))
        packed.flags.writeable = False
        as_bytes = packed.view(f"S{packed.shape[1]}")[:, 0]
        order = np.argsort(as_bytes, kind="stable")
        ids = {row.tobytes(): x for x, row in enumerate(packed)} if irr else {b"": self.bottom_id}
        return _KeyIndex(packed, order, as_bytes[order], ids)

    def extend(self, values) -> np.ndarray:
        """Extension by joins of images given on the join-irreducibles:
        images[x, ...] = join of values[k, ...] over the k with
        irreducibles[k] below x.  `values` has one row per irreducible and
        an optional batch axis after it; the empty join puts bottom at
        bottom.  A space function is the extension of its own images on J,
        since every element is the join of the irreducibles below it.
        """
        values = np.asarray(values, dtype=np.int32)
        images = np.full((self.n, *values.shape[1:]), self.bottom_id, dtype=np.int32)
        ups = self.leq.reshape(self.n, self.n, *[1] * (values.ndim - 1))  # batch axes last
        joins = self.join_table.ravel()
        for j, value in zip(self.irreducibles, values):
            np.copyto(images, joins.take(images * self.n + value), where=ups[j])
        return images

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
            rows = keys.rows.take(values[starts[k] : ends[stop - 1]], axis=0)
            meets = np.bitwise_and.reduceat(rows, starts[k:stop] - starts[k], axis=0)
            out[k:stop] = keys.find(meets)
            k = stop
        return out

    # -- distributivity and subtraction ---------------------------------------

    def distributivity(self) -> tuple[bool, tuple[int, int, int] | None]:
        """Distributivity test; returns (flag, witness or None).

        A finite lattice is distributive iff every join-irreducible j is
        join-prime: j below a join b implies j below a or j below b.  One
        |J| x n x n product tests every j.  For the first j that is not
        join-prime, one n x n scan finds the first pair a, b whose join is
        above j while neither is; one of the triples (b, j, a) and
        (j meet a, j, b) is then a witness (x, y, z) with x join (y meet z)
        != (x join y) meet (x join z).  Cached after the first call.
        """
        return self._distributivity

    @_cached
    def _distributivity(self) -> tuple[bool, tuple[int, int, int] | None]:
        jt, leq = self.join_table, self.leq
        irr = np.array(self.irreducibles, dtype=np.intp)
        # j is join-prime iff {x : j not below x} has an upper bound not
        # above j, i.e. one u outside with the whole set below it.
        # inside[k, u] counts the members below u; float32 is exact here.
        outside = ~leq[irr]
        inside = outside.astype(np.float32) @ leq.astype(np.float32)
        bounded = inside == outside.sum(axis=1)[:, None]
        prime = (bounded & outside).any(axis=1)
        if prime.all():
            return True, None
        j = int(irr[np.argmin(prime)])
        up = leq[j]
        broken = up[jt] & ~up[:, None] & ~up[None, :]
        a, b = map(int, np.argwhere(broken)[0])
        ja = int(self.meet_table[j, a])
        if jt[b, ja] != jt[b, j]:
            return False, (b, j, a)
        # Now b join (j meet a) = b join j lies above j, so the right side
        # is j; the left side joins two elements strictly below the
        # irreducible j, so it is not j.
        return False, (ja, j, b)

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

    def _subtract_at(self, d: np.ndarray, c: np.ndarray) -> np.ndarray:
        """d minus c at every pair of the broadcast index arrays d and c, on a
        distributive lattice only.  There d minus c is the join of the
        irreducibles below d and not below c (Birkhoff), so the result grows
        from all bottom by one masked join per irreducible."""
        if not self.is_distributive:
            raise NotDistributive("the subtraction table needs a distributive lattice")
        jt, leq = self.join_table, self.leq
        out = np.full(np.broadcast_shapes(d.shape, c.shape), self.bottom_id, dtype=np.int32)
        # Its own loop: through extend this step measured 20-50% slower.
        for j in self.irreducibles:
            up = leq[j]
            out = np.where(up[d] & ~up[c], jt[:, j].take(out), out)  # j below d, not below c
        return out

    @_cached
    def subtract_table(self) -> np.ndarray:
        """Full n x n table, table[d, c] = subtract(d, c), built on first use.
        Only distributive lattices have one (see _subtract_at)."""
        ids = np.arange(self.n)
        table = self._subtract_at(ids[:, None], ids[None, :])
        table.flags.writeable = False
        return table

    @_cached
    def subtract_runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(a, c minus a, starts) over the pairs a below c, in runs by c in
        id order, each run in ascending a and holding a = c; starts[c] is
        where the run of c begins.  Built on first use, on those pairs
        alone, so only distributive lattices have it."""
        cs, a = np.nonzero(np.ascontiguousarray(self.leq.T))
        rest = self._subtract_at(cs, a)
        starts = np.searchsorted(cs, np.arange(self.n))
        for array in (a, rest, starts):
            array.flags.writeable = False
        return a, rest, starts

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
        doc = json_object(doc, "a lattice document")
        labels = json_list(doc.get("elements"), '"elements"', item=str)
        covers = json_pairs(doc.get("covers"), '"covers"')
        return build_lattice(labels, covers)

    @classmethod
    def load(cls, path):
        return cls.from_json(read_json(path))


def _levels(below: np.ndarray) -> list[np.ndarray]:
    """The ids by levels from the top (Kahn's order), given the order with
    below[x] the down-set of x: level 0 holds the maximal elements, and each
    later level the elements whose strict upper bounds all lie in earlier
    levels.  Reversed, the levels run from the minimal elements up.  O(n^2)
    in all, one numpy step per level."""
    above = below.sum(axis=0) - 1  # strict upper bounds not yet in a level
    levels = []
    level = (above == 0).nonzero()[0]
    while len(level):
        levels.append(level)
        # a level is an antichain, so its members drop to -1 and stay out
        above -= below[level].sum(axis=0)
        level = (above == 0).nonzero()[0]
    return levels


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
    covers = list(covers)
    try:
        flat = [index[lo] * n + index[hi] for lo, hi in covers]
    except KeyError:
        lo, hi = next((lo, hi) for lo, hi in covers if lo not in index or hi not in index)
        raise InvalidElement(f"cover ({lo!r}, {hi!r}) references unknown labels") from None
    leq = np.eye(n, dtype=bool)
    leq.ravel()[flat] = True
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


def herbrand_xy_ab() -> FiniteLattice:
    """Syntactic-equality lattice over variables x, y and constants a, b.

    The deductively closed consistent equality sets are the partitions of
    {x, y, a, b} that keep a and b apart, each given by the pairs of terms
    it puts in one block; a single inconsistent top follows.  Ids order
    them by size and then by the pairs' term indices; the order is
    entailment (inclusion of the pair sets).  Not distributive.
    """
    terms = "xyab"
    pairs = list(itertools.combinations(range(4), 2))
    closures = {frozenset((s, t) for s, t in pairs if block[s] == block[t])
                for block in itertools.product(range(4), repeat=4)}
    consistent = sorted((c for c in closures if (2, 3) not in c), key=lambda c: (len(c), sorted(c)))
    labels = [",".join(f"{terms[s]}={terms[t]}" for s, t in sorted(c)) or "true"
              for c in consistent]
    n = len(consistent)
    leq = np.ones((n + 1, n + 1), dtype=bool)  # "false", last, lies above every element
    leq[:n, :n] = [[ci <= cj for cj in consistent] for ci in consistent]
    leq[n, :n] = False
    return FiniteLattice([*labels, "false"], leq)


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
