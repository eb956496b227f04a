"""Correct-by-construction net assembly.

Each function mirrors one sequent-style building rule and type-checks its
arguments eagerly, so everything built here is sequentializable and passes
the switching-acyclicity criterion.  Every rule edits one mutable draft,
``_Draft``, which holds a net's edges, links, boxes, conclusions and id
counter: a rule takes its net into a draft, absorbs a second net if it has
one, adds its link, and freezes the draft into one ``Net`` that hands the
id mark on, so the next rule draws fresh ids without scanning the net.
The seeded random generator chains the rules on drafts and freezes once;
it drives the property-test corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .formula import (
    Atom,
    Bottom,
    Formula,
    ONE,
    OfCourse,
    One,
    Par,
    Paragraph,
    Tensor,
    WhyNot,
    dual,
)
from .net import Box, Label, Link, Net, _Fresh


class RuleError(ValueError):
    """A building rule was applied to unsuitable conclusions."""


def _conclusion(net: Net | _Draft, i: int) -> str:
    try:
        return net.conclusions[i]
    except IndexError:
        raise RuleError(f"conclusion index {i} out of range (net has {len(net.conclusions)})")


class _Draft:
    """A net under construction, edited in place by the rules below and
    frozen once.  New ids come from one counter, which starts at the id
    mark of the net taken."""

    def __init__(self, edges=(), links=(), boxes=(), conclusions=(), mark: int = 0):
        self.edges: dict[str, Label] = dict(edges)
        self.links: dict[str, Link] = dict(links)
        self.boxes: list[Box] = list(boxes)
        self.conclusions: list[str] = list(conclusions)
        self.fresh = _Fresh()
        self.fresh.n = mark

    @classmethod
    def take(cls, net: Net) -> _Draft:
        return cls(net.edges, net.links, net.boxes, net.conclusions, net.id_mark())

    def id_mark(self) -> int:
        return self.fresh.n

    def freeze(self) -> Net:
        return Net(self.edges, self.links, tuple(self.boxes), tuple(self.conclusions), mark=self.fresh.n)

    def absorb(self, other: Net | _Draft) -> _Draft:
        """Juxtaposition: the other net's parts go after this draft's.  Only
        when one of its ids is taken here are all of them renamed, edges
        first, then links, counting on from the larger of the two marks."""
        fresh = self.fresh
        fresh.n = max(fresh.n, other.id_mark())
        edges, links, boxes, conclusions = other.edges, other.links, other.boxes, other.conclusions
        if not (self.edges.keys().isdisjoint(edges) and self.links.keys().isdisjoint(links)):
            emap = {e: fresh.edge() for e in edges}
            lmap = {l: fresh.link() for l in links}

            renamed: dict[int, Box] = {}  # by id: a Box hashes its whole subtree
            for box in reversed([b for top in boxes for b in top.walk()]):  # children first
                renamed[id(box)] = Box(
                    lmap[box.principal],
                    tuple(lmap[a] for a in box.auxiliaries),
                    frozenset(map(lmap.__getitem__, box.contents)),
                    tuple(renamed[id(ch)] for ch in box.children),
                )
            edges = {emap[e]: lab for e, lab in edges.items()}
            links = {
                lmap[l]: Link(lk.kind, tuple(emap[e] for e in lk.premises), tuple(emap[e] for e in lk.conclusions))
                for l, lk in links.items()
            }
            boxes = [renamed[id(b)] for b in boxes]
            conclusions = [emap[e] for e in conclusions]
        self.edges.update(edges)
        self.links.update(links)
        self.boxes += boxes
        self.conclusions += conclusions
        return self

    def add(self, kind: str, premises: tuple[str, ...], label: Label | None = None, in_place: bool = False) -> str:
        """Add one link on some conclusions and return its id, drawn before
        its conclusion's.  The premises stop being conclusions; the link's
        conclusion, when it has a label, takes the place of the earliest
        premise (in_place) or goes last."""
        lid = self.fresh.link()
        at = min(map(self.conclusions.index, premises)) if in_place else None
        self.conclusions = [e for e in self.conclusions if e not in premises]
        new = ()
        if label is not None:
            new = (self.fresh.edge(),)
            self.edges[new[0]] = label
            self.conclusions.insert(len(self.conclusions) if at is None else at, new[0])
        self.links[lid] = Link(kind, premises, new)
        return lid

    def join(self, kind: str, i: int, other: Net | _Draft, j: int) -> _Draft:
        """Absorb the other net and cut or tensor conclusion i of this draft
        with conclusion j of the other, neither of them flat."""
        _conclusion(self, i), _conclusion(other, j)
        offset = len(self.conclusions)
        self.absorb(other)
        # the other net's edges may have been renamed; take both by position
        premises = (self.conclusions[i], self.conclusions[offset + j])
        la, lb = (self.edges[e] for e in premises)
        if la.flat or lb.flat:
            raise RuleError(f"{kind} premises cannot be flat-labelled")
        if kind == "tensor":
            self.add(kind, premises, Label(Tensor(la.formula, lb.formula)))
        elif dual(la.formula) != lb.formula:
            raise RuleError(f"cut premises are not dual: {la}, {lb}")
        else:
            self.add(kind, premises)
        return self

    def _in_place(self, kind: str, indices: tuple[int, ...], label, flat_error: str) -> _Draft:
        """Add a link on the given conclusions, none of them flat, in place
        of the earliest; label maps their formulas to its conclusion's label."""
        picked = tuple(_conclusion(self, i) for i in indices)
        if any(self.edges[e].flat for e in picked):
            raise RuleError(flat_error)
        self.add(kind, picked, label(*(self.edges[e].formula for e in picked)), in_place=True)
        return self

    def par(self, i: int, j: int) -> _Draft:
        if i == j:
            raise RuleError("par needs two distinct conclusions")
        return self._in_place("par", (i, j), lambda l, r: Label(Par(l, r)), "par premises cannot be flat-labelled")

    def bottom(self) -> _Draft:
        self.add("bot", (), Label(Bottom()))
        return self

    def flat(self, i: int) -> _Draft:
        return self._in_place("flat", (i,), lambda f: Label(f, flat=True), "conclusion is already flat-labelled")

    def whynot(self, indices: list[int], weakening_of: Formula | None = None) -> _Draft:
        if len(set(indices)) != len(indices):
            raise RuleError("duplicate conclusion index")
        picked = tuple(_conclusion(self, i) for i in indices)
        if picked:
            labels = [self.edges[e] for e in picked]
            if not all(l.flat for l in labels):
                raise RuleError("why-not premises must be flat-labelled")
            body = labels[0].formula
            if any(l.formula != body for l in labels):
                raise RuleError("why-not premises must share one formula")
        elif weakening_of is None:
            raise RuleError("a weakening needs an explicit formula")
        else:
            body = weakening_of
        self.add("whynot", picked, Label(WhyNot(body)), in_place=bool(picked))
        return self

    def paragraph(self, i: int) -> _Draft:
        flat_error = "paragraph premise cannot be flat-labelled"
        return self._in_place("paragraph", (i,), lambda f: Label(Paragraph(f)), flat_error)

    def promote(self, principal_index: int) -> _Draft:
        ep = _conclusion(self, principal_index)
        lp = self.edges[ep]
        if lp.flat:
            raise RuleError("the principal conclusion cannot be flat-labelled")
        others = [e for e in self.conclusions if e != ep]
        not_flat = [e for e in others if not self.edges[e].flat]
        if not_flat:
            raise RuleError(f"promotion requires flat labels on the non-principal conclusions: {not_flat}")
        contents, children = frozenset(self.links), tuple(self.boxes)
        oc = self.add("ofcourse", (ep,), Label(OfCourse(lp.formula)), in_place=True)
        auxiliaries = tuple(self.add("pax", (e,), self.edges[e], in_place=True) for e in others)
        self.boxes = [Box(oc, auxiliaries, contents, children)]
        return self


def _axiom(a: Formula) -> _Draft:
    edges = {"e0": Label(dual(a)), "e1": Label(a)}
    return _Draft(edges, {"l0": Link("ax", (), ("e0", "e1"))}, (), ("e0", "e1"), mark=2)


def _one() -> _Draft:
    return _Draft({"e0": Label(ONE)}, {"l0": Link("one", (), ("e0",))}, (), ("e0",), mark=1)


def daimon() -> Net:
    return _Draft().freeze()


def ax(a: Formula) -> Net:
    """Axiom with conclusions dual(a), a."""
    return _axiom(a).freeze()


def one_rule() -> Net:
    return _one().freeze()


def mix(a: Net, b: Net) -> Net:
    """Juxtaposition; conclusions of a then b."""
    return _Draft.take(a).absorb(b).freeze()


def cut_rule(a: Net, i: int, b: Net, j: int) -> Net:
    return _Draft.take(a).join("cut", i, b, j).freeze()


def tensor_rule(a: Net, i: int, b: Net, j: int) -> Net:
    return _Draft.take(a).join("tensor", i, b, j).freeze()


def par_rule(a: Net, i: int, j: int) -> Net:
    """Join two distinct conclusions of one net: i becomes the left premise,
    j the right one.  The new conclusion takes the earlier position."""
    return _Draft.take(a).par(i, j).freeze()


def bottom_rule(a: Net) -> Net:
    return _Draft.take(a).bottom().freeze()


def flat_rule(a: Net, i: int) -> Net:
    return _Draft.take(a).flat(i).freeze()


def whynot_rule(a: Net, indices: list[int], weakening_of: Formula | None = None) -> Net:
    """Gather n >= 0 flat conclusions of one formula into a ?-conclusion.
    With an empty index list this is a weakening and the formula must be
    supplied explicitly."""
    return _Draft.take(a).whynot(indices, weakening_of).freeze()


def paragraph_rule(a: Net, i: int) -> Net:
    return _Draft.take(a).paragraph(i).freeze()


def promotion(a: Net, principal_index: int) -> Net:
    """Enclose the net in a box.  The selected conclusion A becomes !A under
    a new of-course link; every other conclusion must be flat-labelled and
    receives a pax port on the border."""
    return _Draft.take(a).promote(principal_index).freeze()


# -- seeded random generation ------------------------------------------------


@dataclass(frozen=True)
class GenParams:
    target_size: int = 20
    box_bias: float = 0.3
    paragraph_bias: float = 0.2
    exponential_bias: float = 0.3
    cut_bias: float = 0.2

    def clamped(self) -> "GenParams":
        c = lambda x: min(max(x, 0.0), 1.0)
        return GenParams(
            max(self.target_size, 0),
            c(self.box_bias),
            c(self.paragraph_bias),
            c(self.exponential_bias),
            c(self.cut_bias),
        )


_ATOMS = ("X", "Y", "Z")


def random_formula(rng: random.Random, budget: int, params: GenParams) -> Formula:
    if budget <= 0:
        return Atom(rng.choice(_ATOMS), rng.random() < 0.5)
    roll = rng.random()
    p_exp = params.exponential_bias * (0.5 + 0.5 * params.box_bias)
    if roll < p_exp:
        inner = random_formula(rng, budget - 1, params)
        return OfCourse(inner) if rng.random() < 0.5 else WhyNot(inner)
    roll -= p_exp
    if roll < params.paragraph_bias:
        return Paragraph(random_formula(rng, budget - 1, params))
    roll -= params.paragraph_bias
    if roll < 0.1:
        return ONE if rng.random() < 0.5 else Bottom()
    half = (budget - 1) // 2
    left = random_formula(rng, half, params)
    right = random_formula(rng, budget - 1 - half, params)
    return Tensor(left, right) if rng.random() < 0.5 else Par(left, right)


def _gen_with(rng: random.Random, f: Formula, params: GenParams) -> tuple[_Draft, int]:
    """A sequentializable net having f among its conclusions; returns the
    draft and the position of f.  Leaves are atomic axioms, so the output
    has no compound axiom links."""
    match f:
        case Atom():
            return _axiom(f), 1
        case Tensor(l, r):
            nl, il = _gen_with(rng, l, params)
            nr, ir = _gen_with(rng, r, params)
            nl.join("tensor", il, nr, ir)
            return nl, len(nl.conclusions) - 1
        case Par(l, r):
            nl, il = _gen_with(rng, l, params)
            nr, ir = _gen_with(rng, r, params)
            offset = len(nl.conclusions)
            nl.absorb(nr).par(il, offset + ir)
            return nl, il
        case Paragraph(b):
            n, i = _gen_with(rng, b, params)
            return n.paragraph(i), i
        case OfCourse(b):
            n, i = _gen_with(rng, b, params)
            for pos in range(len(n.conclusions)):
                if pos != i and not n.edges[n.conclusions[pos]].flat:
                    n.flat(pos)
            return n.promote(i), i
        case WhyNot(b):
            k = rng.choice((0, 1, 1, 2))
            if k == 0:
                return _Draft().whynot([], weakening_of=b), 0
            # each piece's only flat conclusion of formula b is the one
            # flattened here: its other conclusions are atoms, flat or not
            acc, positions = _Draft(), []
            for n, i in [_gen_with(rng, b, params) for _ in range(k)]:
                positions.append(len(acc.conclusions) + i)
                acc.absorb(n.flat(i))
            return acc.whynot(positions), positions[0]
        case One():
            return _one(), 0
        case Bottom():
            return _Draft().bottom(), 0
    raise AssertionError(f"unhandled formula {f!r}")


def random_net(seed: int, params: GenParams | None = None) -> Net:
    """Deterministic in the seed.  Every output is built by the rules above,
    hence valid and switching-acyclic; cut_bias 0 keeps it cut-free."""
    params = (params or GenParams()).clamped()
    rng = random.Random(seed)
    if params.target_size <= 0:
        return ax(Atom(rng.choice(_ATOMS))) if rng.random() < 0.7 else daimon()

    net = _Draft()
    while len(net.links) < params.target_size:
        depth = rng.randint(1, 3)
        if rng.random() < params.cut_bias:
            a = random_formula(rng, depth, params)
            na, ia = _gen_with(rng, a, params)
            nb, ib = _gen_with(rng, dual(a), params)
            piece = na.join("cut", ia, nb, ib)
        else:
            f = random_formula(rng, depth, params)
            piece, _ = _gen_with(rng, f, params)
        net.absorb(piece)

    # Consume pending flat conclusions so the result is a DR-net candidate:
    # group them by formula, in order of first appearance, and gather each
    # group under a why-not link.
    groups: dict[Formula, list[str]] = {}
    for e in net.conclusions:
        if net.edges[e].flat:
            groups.setdefault(net.edges[e].formula, []).append(e)
    for group in groups.values():
        net.whynot(list(map(net.conclusions.index, group)))

    # Close a few conclusion pairs, none of them flat now, with pars so
    # multi-conclusion structure does not dominate.
    while len(net.conclusions) > 2 and rng.random() < 0.6:
        net.par(*rng.sample(range(len(net.conclusions)), 2))
    return net.freeze()


__all__ = [
    "RuleError",
    "GenParams",
    "daimon",
    "ax",
    "one_rule",
    "mix",
    "cut_rule",
    "tensor_rule",
    "par_rule",
    "bottom_rule",
    "flat_rule",
    "whynot_rule",
    "paragraph_rule",
    "promotion",
    "random_formula",
    "random_net",
]
