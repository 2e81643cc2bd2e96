"""Epistemic instantiations: boolean assignments, Kripke and Aumann models.

Every instance is read as a set of Kripke models, and one construction
(`_induce`) turns that set into an agent system on the reverse-inclusion
powerset of its pointed states: the empty set is the inconsistent top,
the full universe the empty-information bottom, and each agent map is
the box operator of the agent's accessibility relation.  An Aumann
structure is the S5 model whose relations are its partition
equivalences; the boolean constraint system is one agentless model whose
states are all truth assignments.  The element cap bounds every system
at 10 pointed states.  The distributed spaces coincide with the classic
distributed-knowledge operators `kripke_dk` and `aumann_dk`, which stay
independent references for the selfcheck catalogue.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .distributed import delta_group
from .errors import InvalidElement, TooLarge, UnknownAgent, UnknownProp
from .errors import json_list, json_object, json_pairs, read_json
from .lattice import MAX_ELEMENTS, FiniteLattice, powerset_order
from .spaces import Scs, SpaceFunction


# -- formulas ------------------------------------------------------------------


class Formula:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class Top(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Dk(Formula):
    agents: frozenset[str]
    arg: Formula


_TOKEN = re.compile(
    r"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<neg>~)|(?P<and>&)|(?P<or>\|)"
    r"|(?P<box>\[\]\s*\w+)|(?P<dk>D\{[^}]*\})|(?P<name>\w+))"
)


def parse_formula(text: str) -> Formula:
    """Parse the surface syntax: p, ~f, f & g, f | g, []i f, D{1,2} f, T, F.

    Negation and the modalities bind tighter than &, which binds tighter
    than |.  `[]i f` parses to `D{i} f`, as axiom D.2 makes an agent's own
    space the one-agent group's.
    """
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise InvalidElement(f"cannot tokenize formula at {text[pos:]!r}")
            break
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind).strip()))
    idx = 0

    def peek():
        return tokens[idx][0] if idx < len(tokens) else None

    def take(kind):
        nonlocal idx
        if peek() != kind:
            raise InvalidElement(f"expected {kind} in formula {text!r}")
        tok = tokens[idx][1]
        idx += 1
        return tok

    def parse_or():
        node = parse_and()
        while peek() == "or":
            take("or")
            node = Or(node, parse_and())
        return node

    def parse_and():
        node = parse_unary()
        while peek() == "and":
            take("and")
            node = And(node, parse_unary())
        return node

    def parse_unary():
        kind = peek()
        if kind == "neg":
            take("neg")
            return Not(parse_unary())
        if kind == "box":
            agent = take("box")[2:].strip()
            return Dk(frozenset({agent}), parse_unary())  # D.2: []i is D{i}
        if kind == "dk":
            body = take("dk")[2:-1]
            agents = frozenset(a.strip() for a in body.split(",") if a.strip())
            if not agents:
                raise InvalidElement("D{} needs at least one agent")
            return Dk(agents, parse_unary())
        if kind == "lpar":
            take("lpar")
            node = parse_or()
            take("rpar")
            return node
        if kind == "name":
            name = take("name")
            if name == "T":
                return Top()
            if name == "F":
                return Bottom()
            return Atom(name)
        raise InvalidElement(f"unexpected end of formula {text!r}")

    node = parse_or()
    if idx != len(tokens):
        raise InvalidElement(f"trailing tokens in formula {text!r}")
    return node


# -- Kripke models --------------------------------------------------------------


@dataclass
class KripkeModel:
    """States, valuation and per-agent relations; each names only declared states and props."""

    states: tuple[str, ...]
    props: tuple[str, ...]
    valuation: dict[str, dict[str, int]]
    relations: dict[str, frozenset[tuple[str, str]]]

    def __post_init__(self):
        states = set(self.states)
        if len(states) != len(self.states) or not states:
            raise InvalidElement("states must be distinct and non-empty")
        if len(set(self.props)) != len(self.props):
            raise InvalidElement("propositions must be distinct")
        for agent, pairs in self.relations.items():
            for s, t in pairs:
                if s not in states or t not in states:
                    raise InvalidElement(
                        f"relation of agent {agent!r} references unknown state "
                        f"({s!r}, {t!r})"
                    )
        for s, row in self.valuation.items():
            if s not in states:
                raise InvalidElement(f"valuation references unknown state {s!r}")
            for p, v in row.items():
                if p not in self.props:
                    raise InvalidElement(f"valuation of state {s!r} references unknown prop {p!r}")
                if type(v) is not int or v not in (0, 1):
                    raise InvalidElement(f"value of prop {p!r} at state {s!r} is {v!r}, not 0 or 1")
        valuation = {s: dict(row) for s, row in self.valuation.items()}
        for s in self.states:
            row = valuation.setdefault(s, {})
            for p in self.props:
                row.setdefault(p, 0)
        self.valuation = valuation

    def successors(self, agent: str, state: str) -> frozenset[str]:
        pairs = self.relations.get(agent, frozenset())
        return frozenset(t for s, t in pairs if s == state)

    @classmethod
    def from_json(cls, doc: dict) -> "KripkeModel":
        doc = json_object(doc, "a Kripke document")
        states = tuple(json_list(doc.get("states"), '"states"', item=str))
        props = tuple(json_list(doc.get("props", []), '"props"', item=str))
        val = {s: json_object(row, "a valuation row")
               for s, row in json_object(doc.get("val", {}), '"val"').items()}
        rel = {agent: frozenset(map(tuple, json_pairs(pairs, f"relation {agent!r}")))
               for agent, pairs in json_object(doc.get("rel", {}), '"rel"').items()}
        return cls(states, props, val, rel)

    @classmethod
    def load(cls, path) -> "KripkeModel":
        return cls.from_json(read_json(path))


PointedState = tuple[int, str]  # (model index, state)


def _model_agents(models: Sequence[KripkeModel]) -> set[str]:
    agents: set[str] = set()
    for m in models:
        agents |= set(m.relations)
    return agents


def pointed_states(models: Sequence[KripkeModel]) -> list[PointedState]:
    return [(i, s) for i, m in enumerate(models) for s in m.states]


def kripke_box(
    models: Sequence[KripkeModel], agent: str, x: frozenset[PointedState]
) -> frozenset[PointedState]:
    """The one-agent kripke_dk: states whose agent-successors all lie in x."""
    return kripke_dk(models, [agent], x)


def kripke_dk(
    models: Sequence[KripkeModel], group, x: frozenset[PointedState]
) -> frozenset[PointedState]:
    """Box along the intersection of the group's accessibility relations.

    The empty group intersects to the universal relation of each model.
    """
    agents = _model_agents(models)
    names = sorted({str(g) for g in group})
    for name in names:
        if name not in agents:
            raise UnknownAgent(f"unknown agent {name!r}")
    out = []
    for i, m in enumerate(models):
        for s in m.states:
            successors = set(m.states)
            for name in names:
                successors &= m.successors(name, s)
            if all((i, t) in x for t in successors):
                out.append((i, s))
    return frozenset(out)


@dataclass
class KripkeScs:
    """Induced agent system over the reverse-inclusion powerset of its points.

    Bit k of an element id is `pointed[k]`: a (model index, state) pair for
    Kripke models and boolean assignments, a plain state for an Aumann
    structure.  `names[k]` prints it: its state, or `m<i>:state` when the
    points span several models; lattice labels are bit sets such as {0,3}.
    The full mask is the empty-information bottom and 0 the inconsistent
    top, so join is intersection and negation is complement.
    """

    models: tuple[KripkeModel, ...]
    pointed: tuple
    scs: Scs
    names: tuple[str, ...]

    @property
    def lattice(self) -> FiniteLattice:
        return self.scs.lattice

    def pointed_label(self, p) -> str:
        return self.names[self.element_of([p]).bit_length() - 1]

    def element_of(self, members: Iterable) -> int:
        mask = 0
        for p in members:
            if p not in self.pointed:
                raise InvalidElement(f"unknown universe member {p!r}")
            mask |= 1 << self.pointed.index(p)
        return mask

    def set_of(self, element: int) -> frozenset:
        self.lattice.check_id(element)
        return frozenset(p for k, p in enumerate(self.pointed) if element >> k & 1)

    def delta(self, group) -> SpaceFunction:
        return delta_group(self.scs, group)

    def evaluate(self, formula: Formula) -> int:
        """Interpret a modal formula as the mask of its satisfying points."""
        if isinstance(formula, Atom):
            if any(formula.name not in m.props for m in self.models):
                raise UnknownProp(f"unknown proposition {formula.name!r}")
            return sum(1 << k for k, (i, s) in enumerate(pointed_states(self.models))
                       if self.models[i].valuation[s][formula.name])
        if isinstance(formula, Top):
            return self.lattice.bottom_id
        if isinstance(formula, Bottom):
            return 0
        if isinstance(formula, Not):
            return self.lattice.bottom_id ^ self.evaluate(formula.arg)
        if isinstance(formula, And):
            return self.evaluate(formula.left) & self.evaluate(formula.right)
        if isinstance(formula, Or):
            return self.evaluate(formula.left) | self.evaluate(formula.right)
        if isinstance(formula, Dk):
            return self.delta(formula.agents).images[self.evaluate(formula.arg)]
        raise InvalidElement(f"unsupported formula node {formula!r}")


def _induce(models: tuple[KripkeModel, ...]) -> KripkeScs:
    """The one construction behind every induced agent system.

    Bit k of an element mask is pointed state k, and an agent maps a mask
    x to the states whose successor mask lies inside x: the box operator,
    which validates against the space axioms.  The join-irreducibles are
    the co-singletons; the box maps the one without t to the states that
    do not see t, and each agent is the extension of those images.
    `powerset_order` raises TooLarge before any work past 10 pointed states.
    """
    pts = pointed_states(models)
    labels, leq = powerset_order(range(len(pts)))
    lattice = FiniteLattice(labels, leq.T)
    bit = {p: 1 << k for k, p in enumerate(pts)}
    agents = {}
    for agent in sorted(_model_agents(models)):
        succ = dict.fromkeys(pts, 0)
        for i, m in enumerate(models):
            for s, t in m.relations.get(agent, ()):
                succ[i, s] |= bit[i, t]
        boxes = [sum(bit[p] for p in pts if not succ[p] & ~j) for j in lattice.irreducibles]
        agents[agent] = SpaceFunction(lattice, lattice.extend(boxes))
    names = tuple(s if len(models) == 1 else f"m{i}:{s}" for i, s in pts)
    return KripkeScs(models, tuple(pts), Scs(lattice, agents), names)


def kripke_to_scs(models: Sequence[KripkeModel]) -> KripkeScs:
    """Build the induced agent system of a set of Kripke models.

    The universe is the disjoint union of pointed states; each agent map
    is the box operator.
    """
    models = tuple(models)
    if not models:
        raise InvalidElement("need at least one Kripke model")
    return _induce(models)


# -- boolean constraint system -----------------------------------------------------


def boolean_cs(props: Sequence[str]) -> KripkeScs:
    """All truth assignments over the props, as one agentless Kripke model
    whose states are labelled by their bits in prop order.

    The lattice has 2^(2^k) elements, so only k <= 3 (256 elements) fits
    the element cap, which is checked before the assignments are listed.
    """
    props = tuple(str(p) for p in props)
    if len(set(props)) != len(props):
        raise InvalidElement("propositions must be distinct")
    count = 1 << len(props)
    if count > MAX_ELEMENTS.bit_length() - 1:  # 2^count > MAX_ELEMENTS
        raise TooLarge(
            f"{len(props)} props give 2^{count} elements, cap is {MAX_ELEMENTS}"
        )
    val = {
        "".join(str(b >> i & 1) for i in range(len(props))):
            {p: b >> i & 1 for i, p in enumerate(props)}
        for b in range(count)
    }
    return _induce((KripkeModel(tuple(val), props, val, {}),))


# -- Aumann structures -------------------------------------------------------------


@dataclass
class AumannStructure:
    """States with one information partition per agent."""

    states: tuple[str, ...]
    partitions: dict[str, tuple[frozenset[str], ...]]

    def __post_init__(self):
        states = set(self.states)
        if len(states) != len(self.states) or not states:
            raise InvalidElement("states must be distinct and non-empty")
        for agent, blocks in self.partitions.items():
            seen: set[str] = set()
            for block in blocks:
                if not block:
                    raise InvalidElement(f"agent {agent!r} has an empty block")
                if block & seen:
                    raise InvalidElement(f"agent {agent!r} has overlapping blocks")
                if not block <= states:
                    raise InvalidElement(
                        f"agent {agent!r} block references unknown states"
                    )
                seen |= block
            if seen != states:
                raise InvalidElement(f"partition of agent {agent!r} does not cover")

    def block_of(self, agent: str, state: str) -> frozenset[str]:
        if agent not in self.partitions:
            raise UnknownAgent(f"unknown agent {agent!r}")
        for block in self.partitions[agent]:
            if state in block:
                return block
        raise InvalidElement(f"unknown state {state!r}")

    @classmethod
    def from_json(cls, doc: dict) -> "AumannStructure":
        doc = json_object(doc, "an Aumann document")
        states = tuple(json_list(doc.get("states"), '"states"', item=str))
        partitions = {
            agent: tuple(frozenset(json_list(block, f"a block of agent {agent!r}", item=str))
                         for block in json_list(blocks, f"partition {agent!r}"))
            for agent, blocks in json_object(doc.get("partitions"), '"partitions"').items()
        }
        return cls(states, partitions)

    @classmethod
    def load(cls, path) -> "AumannStructure":
        return cls.from_json(read_json(path))


def aumann_know(a: AumannStructure, agent: str, event: frozenset[str]) -> frozenset[str]:
    """The one-agent aumann_dk: states whose block lies inside the event."""
    return aumann_dk(a, [agent], event)


def aumann_dk(a: AumannStructure, group, event: frozenset[str]) -> frozenset[str]:
    """Knowledge along intersected blocks; the empty group intersects to
    the full state space."""
    names = sorted({str(g) for g in group})
    out = []
    for s in a.states:
        common = set(a.states)
        for name in names:
            common &= a.block_of(name, s)
        if common <= event:
            out.append(s)
    return frozenset(out)


def aumann_to_scs(a: AumannStructure) -> KripkeScs:
    """Induced agent system: events under reverse inclusion, knowledge maps.

    The structure is the S5 Kripke model whose relations are the partition
    equivalences, so each knowledge map is that model's box operator; its
    points are the plain states, so `set_of` returns events.
    """
    relations = {
        agent: frozenset((s, t) for block in blocks for s in block for t in block)
        for agent, blocks in a.partitions.items()
    }
    induced = _induce((KripkeModel(a.states, (), {}, relations),))
    return replace(induced, pointed=a.states)
