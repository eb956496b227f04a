"""The builder as it was before the sequent rules shared one mutable
draft: every rule builds a new ``Net`` from the parts of its operands, and
``mix`` renames the second operand's ids through ``_relabel`` on a clash.
Kept, verbatim, as the oracle that the draft-based rules, ``random_net``
and ``interactive.cut_compose`` must agree with, id for id and in dict
order."""

from __future__ import annotations

import random
from typing import NamedTuple

from stratnet.builder import _ATOMS, GenParams, RuleError, random_formula
from stratnet.formula import (
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
from stratnet.interactive import CompositionError
from stratnet.net import Box, Label, Link, Net, _Fresh


def daimon() -> Net:
    return Net({}, {}, (), (), mark=0)


def ax(a: Formula) -> Net:
    """Axiom with conclusions dual(a), a."""
    return Net(
        {"e0": Label(dual(a)), "e1": Label(a)},
        {"l0": Link("ax", (), ("e0", "e1"))},
        (),
        ("e0", "e1"),
        mark=2,
    )


def one_rule() -> Net:
    return Net({"e0": Label(ONE)}, {"l0": Link("one", (), ("e0",))}, (), ("e0",), mark=1)


def _relabel(net: Net, fresh: _Fresh) -> tuple[dict[str, Label], dict[str, Link], tuple[Box, ...], tuple[str, ...]]:
    """The net's edges, links, boxes and conclusions under fresh ids."""
    emap = {e: fresh.edge() for e in net.edges}
    lmap = {l: fresh.link() for l in net.links}

    def rebox(box: Box) -> Box:
        return Box(
            lmap[box.principal],
            tuple(lmap[a] for a in box.auxiliaries),
            frozenset(lmap[c] for c in box.contents),
            tuple(rebox(ch) for ch in box.children),
        )

    return (
        {emap[e]: lab for e, lab in net.edges.items()},
        {
            lmap[l]: Link(lk.kind, tuple(emap[e] for e in lk.premises), tuple(emap[e] for e in lk.conclusions))
            for l, lk in net.links.items()
        },
        tuple(rebox(b) for b in net.boxes),
        tuple(emap[e] for e in net.conclusions),
    )


class _Parts(NamedTuple):
    """A net's parts and id mark, before the net is built."""

    edges: dict[str, Label]
    links: dict[str, Link]
    boxes: tuple[Box, ...]
    conclusions: tuple[str, ...]
    mark: int

    def id_mark(self) -> int:
        return self.mark


def _merge(a: Net, b: Net) -> _Parts:
    """The parts of mix(a, b)."""
    fresh = _Fresh(a, b)
    edges, links, boxes, conclusions = b.edges, b.links, b.boxes, b.conclusions
    if set(a.edges) & set(b.edges) or set(a.links) & set(b.links):
        edges, links, boxes, conclusions = _relabel(b, fresh)
    return _Parts({**a.edges, **edges}, {**a.links, **links}, a.boxes + boxes, a.conclusions + conclusions, fresh.n)


def mix(a: Net, b: Net) -> Net:
    """Juxtaposition; conclusions of a then b."""
    *parts, mark = _merge(a, b)
    return Net(*parts, mark=mark)


def _conclusion(net: Net, i: int) -> str:
    try:
        return net.conclusions[i]
    except IndexError:
        raise RuleError(f"conclusion index {i} out of range (net has {len(net.conclusions)})")


def _extend(
    a: Net | _Parts, kind: str, premises: tuple[str, ...], label: Label | None = None, in_place: bool = False
) -> Net:
    """The net with one new link on some of its conclusions.  The premises
    stop being conclusions; the link's conclusion, when it has a label,
    takes the place of the first premise (in_place) or goes last."""
    fresh = _Fresh(a)
    lid = fresh.link()
    conclusions = [e for e in a.conclusions if e not in premises]
    edges, new = a.edges, ()
    if label is not None:
        new = (fresh.edge(),)
        edges = {**edges, new[0]: label}
        conclusions.insert(min(map(a.conclusions.index, premises)) if in_place else len(conclusions), new[0])
    return Net(edges, {**a.links, lid: Link(kind, premises, new)}, a.boxes, tuple(conclusions), mark=fresh.n)


def _pair(a: Net, i: int, b: Net, j: int, rule: str) -> tuple[_Parts, tuple[str, str], Label, Label]:
    """The parts of the mix of a and b, conclusion i of a and j of b in it,
    and their labels, which must not be flat."""
    _conclusion(a, i), _conclusion(b, j)
    m = _merge(a, b)
    # the merge may have renamed b's edges; take both by position
    premises = (m.conclusions[i], m.conclusions[len(a.conclusions) + j])
    la, lb = (m.edges[e] for e in premises)
    if la.flat or lb.flat:
        raise RuleError(f"{rule} premises cannot be flat-labelled")
    return m, premises, la, lb


def cut_rule(a: Net, i: int, b: Net, j: int) -> Net:
    m, premises, la, lb = _pair(a, i, b, j, "cut")
    if dual(la.formula) != lb.formula:
        raise RuleError(f"cut premises are not dual: {la}, {lb}")
    return _extend(m, "cut", premises)


def tensor_rule(a: Net, i: int, b: Net, j: int) -> Net:
    m, premises, la, lb = _pair(a, i, b, j, "tensor")
    return _extend(m, "tensor", premises, Label(Tensor(la.formula, lb.formula)))


def par_rule(a: Net, i: int, j: int) -> Net:
    """Join two distinct conclusions of one net: i becomes the left premise,
    j the right one.  The new conclusion takes the earlier position."""
    if i == j:
        raise RuleError("par needs two distinct conclusions")
    ei, ej = _conclusion(a, i), _conclusion(a, j)
    li, lj = a.edges[ei], a.edges[ej]
    if li.flat or lj.flat:
        raise RuleError("par premises cannot be flat-labelled")
    return _extend(a, "par", (ei, ej), Label(Par(li.formula, lj.formula)), in_place=True)


def bottom_rule(a: Net) -> Net:
    return _extend(a, "bot", (), Label(Bottom()))


def flat_rule(a: Net, i: int) -> Net:
    ei = _conclusion(a, i)
    li = a.edges[ei]
    if li.flat:
        raise RuleError("conclusion is already flat-labelled")
    return _extend(a, "flat", (ei,), Label(li.formula, flat=True), in_place=True)


def whynot_rule(a: Net, indices: list[int], weakening_of: Formula | None = None) -> Net:
    """Gather n >= 0 flat conclusions of one formula into a ?-conclusion.
    With an empty index list this is a weakening and the formula must be
    supplied explicitly."""
    if len(set(indices)) != len(indices):
        raise RuleError("duplicate conclusion index")
    picked = tuple(_conclusion(a, i) for i in indices)
    if picked:
        labels = [a.edges[e] for e in picked]
        if not all(l.flat for l in labels):
            raise RuleError("why-not premises must be flat-labelled")
        body = labels[0].formula
        if any(l.formula != body for l in labels):
            raise RuleError("why-not premises must share one formula")
    elif weakening_of is None:
        raise RuleError("a weakening needs an explicit formula")
    else:
        body = weakening_of
    return _extend(a, "whynot", picked, Label(WhyNot(body)), in_place=bool(picked))


def paragraph_rule(a: Net, i: int) -> Net:
    ei = _conclusion(a, i)
    li = a.edges[ei]
    if li.flat:
        raise RuleError("paragraph premise cannot be flat-labelled")
    return _extend(a, "paragraph", (ei,), Label(Paragraph(li.formula)), in_place=True)


def promotion(a: Net, principal_index: int) -> Net:
    """Enclose the net in a box.  The selected conclusion A becomes !A under
    a new of-course link; every other conclusion must be flat-labelled and
    receives a pax port on the border."""
    ep = _conclusion(a, principal_index)
    lp = a.edges[ep]
    if lp.flat:
        raise RuleError("the principal conclusion cannot be flat-labelled")
    others = [e for e in a.conclusions if e != ep]
    not_flat = [e for e in others if not a.edges[e].flat]
    if not_flat:
        raise RuleError(f"promotion requires flat labels on the non-principal conclusions: {not_flat}")
    fresh = _Fresh(a)
    edges, links = dict(a.edges), dict(a.links)
    oc, oc_edge = fresh.link(), fresh.edge()
    edges[oc_edge] = Label(OfCourse(lp.formula))
    links[oc] = Link("ofcourse", (ep,), (oc_edge,))
    replacement = {ep: oc_edge}
    auxiliaries = []
    for e in others:
        pax, replacement[e] = fresh.link(), fresh.edge()
        edges[replacement[e]] = a.edges[e]
        links[pax] = Link("pax", (e,), (replacement[e],))
        auxiliaries.append(pax)
    box = Box(oc, tuple(auxiliaries), frozenset(a.links), a.boxes)
    return Net(edges, links, (box,), tuple(replacement[e] for e in a.conclusions), mark=fresh.n)


def _gen_with(rng: random.Random, f: Formula, params: GenParams) -> tuple[Net, int]:
    """A sequentializable net having f among its conclusions; returns the
    net and the position of f.  Leaves are atomic axioms, so the output has
    no compound axiom links."""
    match f:
        case Atom():
            return ax(f), 1
        case Tensor(l, r):
            nl, il = _gen_with(rng, l, params)
            nr, ir = _gen_with(rng, r, params)
            net = tensor_rule(nl, il, nr, ir)
            return net, len(net.conclusions) - 1
        case Par(l, r):
            nl, il = _gen_with(rng, l, params)
            nr, ir = _gen_with(rng, r, params)
            m = mix(nl, nr)
            net = par_rule(m, il, len(nl.conclusions) + ir)
            return net, il
        case Paragraph(b):
            n, i = _gen_with(rng, b, params)
            return paragraph_rule(n, i), i
        case OfCourse(b):
            n, i = _gen_with(rng, b, params)
            for pos in range(len(n.conclusions)):
                if pos != i and not n.edges[n.conclusions[pos]].flat:
                    n = flat_rule(n, pos)
            return promotion(n, i), i
        case WhyNot(b):
            k = rng.choice((0, 1, 1, 2))
            if k == 0:
                net = whynot_rule(daimon(), [], weakening_of=b)
                return net, 0
            pieces = []
            for _ in range(k):
                n, i = _gen_with(rng, b, params)
                pieces.append(flat_rule(n, i))
            acc = pieces[0]
            positions = [_find_flat(acc, b)]
            for extra in pieces[1:]:
                offset = len(acc.conclusions)
                acc = mix(acc, extra)
                positions.append(offset + _find_flat(extra, b))
            net = whynot_rule(acc, positions)
            return net, min(positions)
        case One():
            return one_rule(), 0
        case Bottom():
            net = bottom_rule(daimon())
            return net, 0
    raise AssertionError(f"unhandled formula {f!r}")


def _find_flat(net: Net, body: Formula) -> int:
    for pos, e in enumerate(net.conclusions):
        lab = net.edges[e]
        if lab.flat and lab.formula == body:
            return pos
    raise AssertionError("flattened conclusion disappeared")


def random_net(seed: int, params: GenParams | None = None) -> Net:
    """Deterministic in the seed.  Every output is built by the rules above,
    hence valid and switching-acyclic; cut_bias 0 keeps it cut-free."""
    params = (params or GenParams()).clamped()
    rng = random.Random(seed)
    if params.target_size <= 0:
        return ax(Atom(rng.choice(_ATOMS))) if rng.random() < 0.7 else daimon()

    pool: list[Net] = []
    total = 0
    while total < params.target_size:
        depth = rng.randint(1, 3)
        if rng.random() < params.cut_bias:
            a = random_formula(rng, depth, params)
            na, ia = _gen_with(rng, a, params)
            nb, ib = _gen_with(rng, dual(a), params)
            piece = cut_rule(na, ia, nb, ib)
        else:
            f = random_formula(rng, depth, params)
            piece, _ = _gen_with(rng, f, params)
        pool.append(piece)
        total += piece.size()

    net = pool[0]
    for piece in pool[1:]:
        net = mix(net, piece)

    # Consume pending flat conclusions so the result is a DR-net candidate:
    # group them by formula and gather each group under a why-not link.
    while True:
        flats = [(idx, net.edges[e].formula) for idx, e in enumerate(net.conclusions) if net.edges[e].flat]
        if not flats:
            break
        body = flats[0][1]
        group = [idx for idx, f in flats if f == body]
        net = whynot_rule(net, group)

    # Close a few conclusion pairs with pars so multi-conclusion structure
    # does not dominate, keeping at least one conclusion when possible.
    plain = lambda: [
        idx for idx, e in enumerate(net.conclusions) if not net.edges[e].flat
    ]
    while len(plain()) > 2 and rng.random() < 0.6:
        candidates = plain()
        i, j = rng.sample(candidates, 2)
        net = par_rule(net, i, j)
    return net


def cut_compose(net: Net, partners: list[Net | tuple[Net, int]]) -> Net:
    """Juxtapose the net with one partner per conclusion and cut each
    conclusion against the partner's unique dual conclusion (an explicit
    index resolves ambiguity).  Result: the partners' remaining conclusions,
    in partner order."""
    if len(partners) != len(net.conclusions):
        raise CompositionError(
            f"need one partner per conclusion ({len(net.conclusions)}), got {len(partners)}"
        )
    acc = net
    offsets: list[int] = []
    partner_sizes: list[int] = []
    picks: list[int] = []
    for item in partners:
        partner, index = item if isinstance(item, tuple) else (item, -1)
        offsets.append(len(acc.conclusions))
        partner_sizes.append(len(partner.conclusions))
        picks.append(index)
        acc = mix(acc, partner)
    edges = dict(acc.edges)
    links = dict(acc.links)
    fresh = _Fresh(acc)
    consumed: set[str] = set()
    for i in range(len(partners)):
        mine = acc.conclusions[i]
        want = dual(acc.edges[mine].formula)
        span = acc.conclusions[offsets[i] : offsets[i] + partner_sizes[i]]
        if picks[i] >= 0:
            candidates = [span[picks[i]]]
        else:
            candidates = [e for e in span if not acc.edges[e].flat and acc.edges[e].formula == want]
        if len(candidates) != 1:
            raise CompositionError(
                f"partner {i} has {len(candidates)} conclusions labelled {want}; pass an explicit index"
            )
        other = candidates[0]
        if acc.edges[other].flat or acc.edges[other].formula != want:
            raise CompositionError(f"partner {i} conclusion {other} is not dual to {acc.edges[mine]}")
        links[fresh.link()] = Link("cut", (mine, other), ())
        consumed.add(mine)
        consumed.add(other)
    conclusions = tuple(e for e in acc.conclusions if e not in consumed)
    return Net(edges, links, acc.boxes, conclusions, mark=fresh.n)
