"""Seeded input generators and the reference values derived from them.

Everything here uses the standard library only, so the values a benchmark
operation is checked against never come from latspace itself.  Lattices are
represented as the downsets of a finite poset (a powerset is the downset
lattice of an antichain), elements as bitmasks over the poset's points.
"""

from __future__ import annotations

import json
import random
from itertools import combinations


def random_poset(rng: random.Random, k: int, density: float) -> list[int]:
    """below[p]: bitmask of the points under p, itself included.

    Points are numbered along a linear extension (i below j implies i < j),
    so the highest point of a downset is maximal in it.
    """
    below = [1 << p for p in range(k)]
    for j in range(k):
        for i in range(j):
            if rng.random() < density:
                below[j] |= below[i]
    return below


class Downsets:
    """The distributive lattice of downsets of a poset, ordered by inclusion."""

    def __init__(self, below: list[int], names: list[str]):
        self.below = below
        self.k = len(below)
        self.masks = [
            m for m in range(1 << self.k)
            if all(below[p] & ~m == 0 for p in range(self.k) if m >> p & 1)
        ]
        self.index = {m: i for i, m in enumerate(self.masks)}
        self.labels = [
            "{" + ",".join(names[p] for p in range(self.k) if m >> p & 1) + "}"
            for m in self.masks
        ]

    @property
    def n(self) -> int:
        return len(self.masks)

    @property
    def top(self) -> int:
        return self.n - 1

    def covers(self) -> list[list[str]]:
        out = []
        for m in self.masks:
            for p in range(self.k):
                up = m | 1 << p
                if up != m and up in self.index:
                    out.append([self.labels[self.index[m]], self.labels[self.index[up]]])
        return out

    def leq_matrix(self) -> list[list[bool]]:
        """Order relation of the poset itself, for `downset_lattice`."""
        return [[bool(self.below[j] >> i & 1) for j in range(self.k)] for i in range(self.k)]

    def random_agent(self, rng: random.Random) -> list[int]:
        """Images (as masks) of the principal downsets under a random space
        function; monotone, so the map is determined by them."""
        out = []
        for p in range(self.k):
            image = rng.choice(self.masks)
            for q in range(p):
                if self.below[p] >> q & 1:
                    image |= out[q]
            out.append(image)
        return out

    def extend(self, irreducible_images: list[int]) -> list[int]:
        """Element ids of the join-preserving map with the given images of the
        principal downsets."""
        image = {0: 0}
        ids = []
        for m in self.masks:
            if m:
                top = m.bit_length() - 1
                image[m] = image[m ^ 1 << top] | irreducible_images[top]
            ids.append(self.index[image[m]])
        return ids

    def pooled(self, agents: list[list[int]]) -> list[int]:
        """Pooled space of a group: on a distributive lattice each principal
        downset is join-prime, so its image is the meet of the members'."""
        meet = []
        for p in range(self.k):
            value = (1 << self.k) - 1
            for agent in agents:
                value &= agent[p]
            meet.append(value)
        return self.extend(meet)


def sized_downsets(rng: random.Random, k: int, density: float, low: int, high: int, prefix: str) -> Downsets:
    """A random downset lattice whose size lies in [low, high]."""
    names = [f"{prefix}{p}" for p in range(k)]
    while True:
        lat = Downsets(random_poset(rng, k, density), names)
        if low <= lat.n <= high:
            return lat


def powerset(k: int, prefix: str = "g") -> Downsets:
    return Downsets([1 << p for p in range(k)], [f"{prefix}{p}" for p in range(k)])


def subgroups(names: list[str]) -> list[tuple[str, ...]]:
    return [c for r in range(len(names) + 1) for c in combinations(names, r)]


def agent_system_doc(lat: Downsets, agents: dict[str, list[int]]) -> dict:
    return {
        "lattice": {"elements": lat.labels, "covers": lat.covers()},
        "agents": {
            name: [lat.labels[y] for y in lat.extend(images)]
            for name, images in agents.items()
        },
    }


# Non-distributive tops stacked over a powerset: (extra labels, covers among
# them); "" stands for the powerset's top, which is the bottom of the stack.
STACKS = {
    "M3": (["x", "y", "z", "top"],
           [("", "x"), ("", "y"), ("", "z"), ("x", "top"), ("y", "top"), ("z", "top")]),
    "N5": (["p", "q", "r", "top"],
           [("", "p"), ("p", "q"), ("q", "top"), ("", "r"), ("r", "top")]),
}


def stacked_system_doc(rng: random.Random, base: Downsets, stack: str, agents: int) -> dict:
    """Agent system on a powerset with M3 or N5 stacked above its top.

    Each agent is a space function on the powerset extended to the stack by
    the identity, by the stack's top, or by the image of the powerset's top;
    each extension preserves joins, and the lattice is not distributive.
    """
    extras, links = STACKS[stack]
    top_label = base.labels[base.top]
    covers = base.covers() + [[lo or top_label, hi] for lo, hi in links]
    docs = {}
    for a in range(agents):
        ids = base.extend(base.random_agent(rng))
        rule = rng.choice(("identity", "top", "cap"))
        tail = {
            "identity": extras,
            "top": ["top"] * len(extras),
            "cap": [base.labels[ids[base.top]]] * len(extras),
        }[rule]
        docs[str(a + 1)] = [base.labels[y] for y in ids] + tail
    return {"lattice": {"elements": base.labels + extras, "covers": covers}, "agents": docs}


# -- epistemic models ------------------------------------------------------------


def kripke_models(rng: random.Random, agents: list[str], total_states: int) -> list[dict]:
    """One or two Kripke model documents with `total_states` states in all."""
    split = [total_states]
    if total_states >= 2 and rng.random() < 0.5:
        first = rng.randint(1, total_states - 1)
        split = [first, total_states - first]
    docs = []
    for mi, size in enumerate(split):
        states = [f"s{mi}{j}" for j in range(size)]
        docs.append({
            "states": states,
            "props": ["p", "q"],
            "val": {s: {"p": rng.randint(0, 1), "q": rng.randint(0, 1)} for s in states},
            "rel": {
                a: [[s, t] for s in states for t in states if rng.random() < 0.45]
                for a in agents
            },
        })
    return docs


def random_formula(rng: random.Random, agents: list[str], depth: int):
    """(text, tree) of a random modal formula over p and q."""
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        atom = rng.choice("pq")
        return atom, ("atom", atom)
    if roll < 0.35:
        text, tree = random_formula(rng, agents, depth - 1)
        return f"~({text})", ("not", tree)
    if roll < 0.6:
        op = rng.choice("&|")
        lt, ltree = random_formula(rng, agents, depth - 1)
        rt, rtree = random_formula(rng, agents, depth - 1)
        return f"({lt} {op} {rt})", (op, ltree, rtree)
    text, tree = random_formula(rng, agents, depth - 1)
    if roll < 0.8:
        agent = rng.choice(agents)
        return f"[]{agent} ({text})", ("dk", (agent,), tree)
    group = tuple(sorted(rng.sample(agents, rng.randint(1, len(agents)))))
    return f"D{{{','.join(group)}}} ({text})", ("dk", group, tree)


def kripke_truth(docs: list[dict], tree) -> frozenset:
    """Pointed states (model index, state) where the formula holds; a box is
    the distributed-knowledge operator of a one-agent group."""
    everything = frozenset((i, s) for i, d in enumerate(docs) for s in d["states"])
    kind = tree[0]
    if kind == "atom":
        return frozenset((i, s) for i, s in everything if docs[i]["val"][s][tree[1]])
    if kind == "not":
        return everything - kripke_truth(docs, tree[1])
    if kind in "&|":
        left, right = kripke_truth(docs, tree[1]), kripke_truth(docs, tree[2])
        return left & right if kind == "&" else left | right
    inner = kripke_truth(docs, tree[2])
    out = set()
    for i, s in everything:
        successors = {t for t in docs[i]["states"]}
        for agent in tree[1]:
            successors &= {t for u, t in docs[i]["rel"][agent] if u == s}
        if all((i, t) in inner for t in successors):
            out.add((i, s))
    return frozenset(out)


def aumann_doc(rng: random.Random, agents: list[str], states: int) -> dict:
    names = [f"s{i}" for i in range(states)]
    partitions = {}
    for a in agents:
        order = names[:]
        rng.shuffle(order)
        blocks: list[list[str]] = []
        for s in order:
            if blocks and rng.random() < 0.5:
                rng.choice(blocks).append(s)
            else:
                blocks.append([s])
        partitions[a] = blocks
    return {"states": names, "partitions": partitions}


# -- point sets and images ------------------------------------------------------------


def random_points(rng: random.Random, count: int, low: int, high: int, *, with_origin: bool = False) -> set:
    grid = [(x, y) for x in range(low, high + 1) for y in range(low, high + 1)]
    points = set(rng.sample(grid, count))
    if with_origin:
        points.add((0, 0))
    return points


def dilation(points, brush) -> set:
    return {(x + u, y + v) for x, y in points for u, v in brush}


def pbm_text(rng: random.Random, width: int, height: int, density: float) -> str:
    """A plain PBM raster with at least one black pixel."""
    bits = [["1" if rng.random() < density else "0" for _ in range(width)] for _ in range(height)]
    bits[height // 2][width // 2] = "1"
    return "P1\n" + f"{width} {height}\n" + "\n".join(" ".join(row) for row in bits) + "\n"


def dump(doc) -> str:
    return json.dumps(doc, ensure_ascii=False)
