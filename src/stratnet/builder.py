"""Correct-by-construction net assembly.

Each function mirrors one sequent-style building rule and type-checks its
arguments eagerly, so everything built here is sequentializable and passes
the switching-acyclicity criterion.  Every rule edits the one mutable net,
``rewrite._Workspace``, that the rewrite steps edit: a rule loads its net
into a workspace, absorbs a second net if it has one, adds its link from
the workspace's id counter, and freezes it into one ``Net`` that hands the
id mark on, so the next rule draws fresh ids without scanning the net.
A promotion opens one box at the top around everything there.  The
seeded random generator chains the rules on workspaces and freezes once;
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
from .net import Label, Link, Net
from .rewrite import _MBox, _Workspace


class RuleError(ValueError):
    """A building rule was applied to unsuitable conclusions."""


def _conclusion(net: Net | _Workspace, i: int) -> str:
    if not 0 <= i < len(net.conclusions):
        raise RuleError(f"conclusion index {i} out of range (net has {len(net.conclusions)})")
    return net.conclusions[i]


def _add(
    ws: _Workspace, kind: str, premises: tuple[str, ...], label: Label | None = None, in_place: bool = False, box=None
) -> _Workspace:
    """Add one link on some conclusions, at the top or in a box, its id
    drawn before its conclusion's.  The premises stop being conclusions;
    the link's conclusion, when it has a label, takes the place of the
    earliest premise (in_place) or goes last."""
    lid = ws.new_id("l")
    at = min(map(ws.conclusions.index, premises)) if in_place else None
    ws.conclusions = [e for e in ws.conclusions if e not in premises]
    new = ()
    if label is not None:
        new = (ws.new_id("e"),)
        ws.edges[new[0]] = label
        ws.conclusions.insert(len(ws.conclusions) if at is None else at, new[0])
    ws.add_link(lid, Link(kind, premises, new), box)
    return ws


def _join(ws: _Workspace, kind: str, i: int, other: Net | _Workspace, j: int) -> _Workspace:
    """Absorb the other net and cut or tensor conclusion i of this one
    with conclusion j of the other, neither of them flat."""
    _conclusion(ws, i), _conclusion(other, j)
    offset = len(ws.conclusions)
    ws.absorb(other)
    # the other net's edges may have been renamed; take both by position
    premises = (ws.conclusions[i], ws.conclusions[offset + j])
    la, lb = (ws.edges[e] for e in premises)
    if la.flat or lb.flat:
        raise RuleError(f"{kind} premises cannot be flat-labelled")
    if kind == "tensor":
        return _add(ws, kind, premises, Label(Tensor(la.formula, lb.formula)))
    if dual(la.formula) != lb.formula:
        raise RuleError(f"cut premises are not dual: {la}, {lb}")
    return _add(ws, kind, premises)


def _in_place(ws: _Workspace, kind: str, indices: tuple[int, ...], label, flat_error: str) -> _Workspace:
    """Add a link on the given conclusions, none of them flat, in place
    of the earliest; label maps their formulas to its conclusion's label."""
    picked = tuple(_conclusion(ws, i) for i in indices)
    if any(ws.edges[e].flat for e in picked):
        raise RuleError(flat_error)
    return _add(ws, kind, picked, label(*(ws.edges[e].formula for e in picked)), in_place=True)


def _par(ws: _Workspace, i: int, j: int) -> _Workspace:
    if i == j:
        raise RuleError("par needs two distinct conclusions")
    return _in_place(ws, "par", (i, j), lambda l, r: Label(Par(l, r)), "par premises cannot be flat-labelled")


def _flat(ws: _Workspace, i: int) -> _Workspace:
    return _in_place(ws, "flat", (i,), lambda f: Label(f, flat=True), "conclusion is already flat-labelled")


def _whynot(ws: _Workspace, indices: list[int], weakening_of: Formula | None = None) -> _Workspace:
    if len(set(indices)) != len(indices):
        raise RuleError("duplicate conclusion index")
    picked = tuple(_conclusion(ws, i) for i in indices)
    if picked:
        labels = [ws.edges[e] for e in picked]
        if not all(l.flat for l in labels):
            raise RuleError("why-not premises must be flat-labelled")
        body = labels[0].formula
        if any(l.formula != body for l in labels):
            raise RuleError("why-not premises must share one formula")
    elif weakening_of is None:
        raise RuleError("a weakening needs an explicit formula")
    else:
        body = weakening_of
    return _add(ws, "whynot", picked, Label(WhyNot(body)), in_place=bool(picked))


def _paragraph(ws: _Workspace, i: int) -> _Workspace:
    flat_error = "paragraph premise cannot be flat-labelled"
    return _in_place(ws, "paragraph", (i,), lambda f: Label(Paragraph(f)), flat_error)


def _promote(ws: _Workspace, principal_index: int) -> _Workspace:
    """Open one box at the top: the boxes there become its children and
    the links there its direct links; then put the of-course link and one
    pax link per other conclusion on its border."""
    ep = _conclusion(ws, principal_index)
    lp = ws.edges[ep]
    if lp.flat:
        raise RuleError("the principal conclusion cannot be flat-labelled")
    others = [e for e in ws.conclusions if e != ep]
    not_flat = [e for e in others if not ws.edges[e].flat]
    if not_flat:
        raise RuleError(f"promotion requires flat labels on the non-principal conclusions: {not_flat}")
    box = _MBox(None)
    box.children, ws.roots = ws.roots, [box]
    for child in box.children:
        child.parent = box
    box.direct = {lid: None for lid, at in ws.loc.items() if at is None}
    ws.loc.update(dict.fromkeys(box.direct, box))
    _add(ws, "ofcourse", (ep,), Label(OfCourse(lp.formula)), in_place=True, box=box)
    for e in others:
        _add(ws, "pax", (e,), ws.edges[e], in_place=True, box=box)
    return ws


def _leaf(link: Link, *labels: Label) -> _Workspace:
    """A net of one link, l0, with no premise: an axiom or a one."""
    ws = _Workspace()
    ws.edges.update(zip(link.conclusions, labels))
    ws.add_link("l0", link, None)
    ws.conclusions += link.conclusions
    ws.mark = len(labels)
    return ws


_AX, _ONE = Link("ax", (), ("e0", "e1")), Link("one", (), ("e0",))


def daimon() -> Net:
    return Net({}, {}, mark=0)


def ax(a: Formula) -> Net:
    """Axiom with conclusions dual(a), a."""
    return _leaf(_AX, Label(dual(a)), Label(a)).freeze()


def one_rule() -> Net:
    return _leaf(_ONE, Label(ONE)).freeze()


def mix(a: Net, b: Net) -> Net:
    """Juxtaposition; conclusions of a then b."""
    return _Workspace(a).absorb(b).freeze()


def cut_rule(a: Net, i: int, b: Net, j: int) -> Net:
    return _join(_Workspace(a), "cut", i, b, j).freeze()


def tensor_rule(a: Net, i: int, b: Net, j: int) -> Net:
    return _join(_Workspace(a), "tensor", i, b, j).freeze()


def par_rule(a: Net, i: int, j: int) -> Net:
    """Join two distinct conclusions of one net: i becomes the left premise,
    j the right one.  The new conclusion takes the earlier position."""
    return _par(_Workspace(a), i, j).freeze()


def bottom_rule(a: Net) -> Net:
    return _add(_Workspace(a), "bot", (), Label(Bottom())).freeze()


def flat_rule(a: Net, i: int) -> Net:
    return _flat(_Workspace(a), i).freeze()


def whynot_rule(a: Net, indices: list[int], weakening_of: Formula | None = None) -> Net:
    """Gather n >= 0 flat conclusions of one formula into a ?-conclusion.
    With an empty index list this is a weakening and the formula must be
    supplied explicitly."""
    return _whynot(_Workspace(a), indices, weakening_of).freeze()


def paragraph_rule(a: Net, i: int) -> Net:
    return _paragraph(_Workspace(a), i).freeze()


def promotion(a: Net, principal_index: int) -> Net:
    """Enclose the net in a box.  The selected conclusion A becomes !A under
    a new of-course link; every other conclusion must be flat-labelled and
    receives a pax port on the border."""
    return _promote(_Workspace(a), principal_index).freeze()


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


def _gen_with(rng: random.Random, f: Formula, params: GenParams) -> tuple[_Workspace, int]:
    """A sequentializable net having f among its conclusions; returns the
    workspace and the position of f.  Leaves are atomic axioms, so the output
    has no compound axiom links."""
    match f:
        case Atom():
            return _leaf(_AX, Label(dual(f)), Label(f)), 1
        case Tensor(l, r):
            nl, il = _gen_with(rng, l, params)
            nr, ir = _gen_with(rng, r, params)
            _join(nl, "tensor", il, nr, ir)
            return nl, len(nl.conclusions) - 1
        case Par(l, r):
            nl, il = _gen_with(rng, l, params)
            nr, ir = _gen_with(rng, r, params)
            offset = len(nl.conclusions)
            _par(nl.absorb(nr), il, offset + ir)
            return nl, il
        case Paragraph(b):
            n, i = _gen_with(rng, b, params)
            return _paragraph(n, i), i
        case OfCourse(b):
            n, i = _gen_with(rng, b, params)
            for pos in range(len(n.conclusions)):
                if pos != i and not n.edges[n.conclusions[pos]].flat:
                    _flat(n, pos)
            return _promote(n, i), i
        case WhyNot(b):
            k = rng.choice((0, 1, 1, 2))
            if k == 0:
                return _whynot(_Workspace(), [], weakening_of=b), 0
            # each piece's only flat conclusion of formula b is the one
            # flattened here: its other conclusions are atoms, flat or not
            acc, positions = _Workspace(), []
            for n, i in [_gen_with(rng, b, params) for _ in range(k)]:
                positions.append(len(acc.conclusions) + i)
                acc.absorb(_flat(n, i))
            return _whynot(acc, positions), positions[0]
        case One():
            return _leaf(_ONE, Label(ONE)), 0
        case Bottom():
            return _add(_Workspace(), "bot", (), Label(Bottom())), 0
    raise AssertionError(f"unhandled formula {f!r}")


def random_net(seed: int, params: GenParams | None = None) -> Net:
    """Deterministic in the seed.  Every output is built by the rules above,
    hence valid and switching-acyclic; cut_bias 0 keeps it cut-free."""
    params = (params or GenParams()).clamped()
    rng = random.Random(seed)
    if params.target_size <= 0:
        return ax(Atom(rng.choice(_ATOMS))) if rng.random() < 0.7 else daimon()

    net = _Workspace()
    while len(net.links) < params.target_size:
        depth = rng.randint(1, 3)
        if rng.random() < params.cut_bias:
            a = random_formula(rng, depth, params)
            na, ia = _gen_with(rng, a, params)
            nb, ib = _gen_with(rng, dual(a), params)
            piece = _join(na, "cut", ia, nb, ib)
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
        _whynot(net, list(map(net.conclusions.index, group)))

    # Close a few conclusion pairs, none of them flat now, with pars so
    # multi-conclusion structure does not dominate.
    while len(net.conclusions) > 2 and rng.random() < 0.6:
        _par(net, *rng.sample(range(len(net.conclusions)), 2))
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
