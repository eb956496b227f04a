"""Core net data model: typed links, directed labelled edges, nested boxes.

A net is a graph-like object.  Nodes are links; every edge is produced by
exactly one link and consumed by at most one.  Edges without a consumer are
the conclusions of the net, in a declared order.  Boxes carry an explicit
border (one principal of-course link plus pax auxiliaries) and an explicit
set of contained links; two boxes are disjoint or nested.

Nets are immutable after construction.  The sequent rules, cut
elimination and the net transforms (eta-expansion, doubling, the shift)
all edit one kind of mutable net, ``rewrite._Workspace``, and build the
new net once, at the end, on the wiring the workspace kept.  No walk of a
built net's box tree recurses, so boxes nest to any depth.  New ids e<n>
and l<n> count on from a net's id mark, one past every such id: the
workspace keeps the counter, and ``_Fresh`` names the closing pars.  The
builder's rules and the interactive transforms hand the mark to the nets
they build; any other net, one from ``load`` say, scans its ids for it
once, on first use.

A net's saved document decodes the encoding behind ``canonical_form``, so
isomorphic nets save to the same bytes.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Mapping, Sequence

from .formula import (
    BOTTOM,
    ONE,
    Formula,
    MAX_FORMULA_DEPTH,
    FormulaSyntaxError,
    OfCourse,
    Par,
    Paragraph,
    Tensor,
    WhyNot,
    _TEMPLATE,
    _Interned,
    _nesting,
    dual,
    parse_formula,
    print_formula,
)

# Link kinds and their fixed (arity, co-arity); None means arbitrary arity.
LINK_ARITIES: dict[str, tuple[int | None, int]] = {
    "ax": (0, 2),
    "cut": (2, 0),
    "one": (0, 1),
    "bot": (0, 1),
    "tensor": (2, 1),
    "par": (2, 1),
    "flat": (1, 1),
    "pax": (1, 1),
    "whynot": (None, 1),
    "ofcourse": (1, 1),
    "paragraph": (1, 1),
}

# Links whose premise list is a multiset rather than a sequence.
UNORDERED_PREMISES = frozenset({"cut", "whynot"})


class Label(_Interned):
    """Edge label: a formula, optionally under the flat wrapper.  Hash-consed
    like formulas, one live label per formula and flag, so equality is
    identity; its text is made once, from the formula's kept text."""

    __slots__ = ("formula", "flat", "_text")
    __match_args__ = ("formula", "flat")

    def __new__(cls, formula: Formula, flat: bool = False):
        return _Interned.__new__(cls, formula, bool(flat))

    def __str__(self) -> str:
        text = getattr(self, "_text", None)
        if text is None:
            text = self._text = ("%" if self.flat else "") + print_formula(self.formula)
        return text


def parse_label(text: str) -> Label:
    """Read an edge label; NetFormatError on anything but a well-formed,
    boundedly nested label string."""
    if type(text) is not str:
        raise NetFormatError(f"an edge label must be a string, not {type(text).__name__}")
    text = text.strip()
    flat = text.startswith("%")
    try:
        return Label(parse_formula(text[1:] if flat else text), flat=flat)
    except FormulaSyntaxError as exc:
        shown = text if len(text) <= 40 else text[:37] + "..."
        raise NetFormatError(f"bad edge label {shown!r}: {exc}") from exc


@dataclass(frozen=True, slots=True)
class Link:
    kind: str
    premises: tuple[str, ...]
    conclusions: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Box:
    """A box: one principal of-course link, pax auxiliaries, and the set of
    all links strictly inside (child borders and interiors included)."""

    principal: str
    auxiliaries: tuple[str, ...]
    contents: frozenset[str]
    children: tuple["Box", ...] = ()

    def border(self) -> tuple[str, ...]:
        return (self.principal,) + self.auxiliaries

    def walk(self) -> Iterator["Box"]:
        """This box and every box inside it, parents before children."""
        stack = [self]
        while stack:
            box = stack.pop()
            yield box
            stack += reversed(box.children)


@dataclass(frozen=True, slots=True)
class Violation:
    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.subject}: {self.message}"


@dataclass(frozen=True, slots=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok():
            return "valid"
        return "\n".join(str(v) for v in self.violations)


class InvalidNetError(ValueError):
    def __init__(self, report: ValidationReport):
        super().__init__(str(report))
        self.report = report


class Net:
    """Immutable net.  Use the builder module or ``load`` to construct."""

    __slots__ = (
        "edges",
        "links",
        "boxes",
        "conclusions",
        "_producer",
        "_consumer",
        "_box_of_border",
        "_enclosing",
        "_mark",
    )

    def __init__(
        self,
        edges: Mapping[str, Label],
        links: Mapping[str, Link],
        boxes: tuple[Box, ...] = (),
        conclusions: tuple[str, ...] = (),
        mark: int | None = None,
        _wired: tuple[dict[str, str], dict[str, str]] | None = None,
    ):
        self.edges: dict[str, Label] = dict(edges)
        self.links: dict[str, Link] = dict(links)
        self.boxes = boxes
        self.conclusions = conclusions
        self._producer, self._consumer = _wired or _ends(self.links)
        box_of_border: dict[str, Box] = {}
        enclosing: dict[str, tuple[Box, ...]] = {lid: () for lid in self.links}

        stack = [(b, ()) for b in reversed(boxes)]
        while stack:  # parents before children, so the innermost box wins
            box, chain = stack.pop()
            for lid in box.border():
                box_of_border[lid] = box
            inner = chain + (box,)
            for lid in box.contents:
                if lid in enclosing:
                    enclosing[lid] = inner
            stack += ((child, inner) for child in reversed(box.children))
        self._box_of_border = box_of_border
        self._enclosing = enclosing
        self._mark = mark

    def id_mark(self) -> int:
        """One past the largest n among the ids e<n> and l<n>, as given by
        the net's maker or found on first use: names from here are new."""
        if self._mark is None:
            numbers = (x[1:] for ids in (self.edges, self.links) for x in ids if x[:1] in ("e", "l"))
            self._mark = max((int(n) + 1 for n in numbers if n.isdigit() and n.isascii()), default=0)
        return self._mark

    # -- basic queries ----------------------------------------------------

    def producer(self, edge: str) -> str:
        return self._producer[edge]

    def consumer(self, edge: str) -> str | None:
        return self._consumer.get(edge)

    def all_boxes(self) -> Iterator[Box]:
        for b in self.boxes:
            yield from b.walk()

    def box_of_border_link(self, lid: str) -> Box | None:
        return self._box_of_border.get(lid)

    def enclosing_boxes(self, lid: str) -> tuple[Box, ...]:
        """Boxes strictly containing the link, outermost first."""
        return self._enclosing[lid]

    def depth(self, x: str) -> int:
        """Number of boxes strictly containing a link or edge.  Border links
        sit at the depth of their box; an edge sits where its producer does."""
        if x in self.links:
            return len(self._enclosing[x])
        if x in self.edges:
            return len(self._enclosing[self._producer[x]])
        raise KeyError(f"unknown link or edge id: {x}")

    def has_flat_conclusion(self) -> bool:
        return any(self.edges[e].flat for e in self.conclusions)

    def cut_links(self) -> list[str]:
        return [lid for lid, lk in self.links.items() if lk.kind == "cut"]

    def size(self) -> int:
        return len(self.links)

    def __repr__(self) -> str:
        concl = ", ".join(str(self.edges[e]) for e in self.conclusions)
        return f"<Net {len(self.links)} links |- {concl}>"


def _ends(links: Mapping[str, Link]) -> tuple[dict[str, str], dict[str, str]]:
    """The producer and the consumer of each edge; the first in link order
    where there are several."""
    producer: dict[str, str] = {}
    consumer: dict[str, str] = {}
    for lid, link in reversed(links.items()):
        for e in link.conclusions:
            producer[e] = lid
        for e in link.premises:
            consumer[e] = lid
    return producer, consumer


class _Fresh:
    """Names e<n> and l<n> from one counter that starts past every such id
    of the given nets, so no name it gives is taken."""

    def __init__(self, *nets: Net):
        self.n = max((net.id_mark() for net in nets), default=0)

    def edge(self) -> str:
        return self._next("e")

    def link(self) -> str:
        return self._next("l")

    def _next(self, prefix: str) -> str:
        self.n += 1
        return f"{prefix}{self.n - 1}"


# -- validation -----------------------------------------------------------


# Per link kind, what validate says when its premises are flat (a pax's: are
# not), and when its conclusions are not those they require ({0}, {1}, ...
# stand for its conclusions, then its premises).
_COMPLAINTS = {
    "ax": ("", "axiom conclusions are not dual: {0}, {1}"),
    "cut": ("cut premises cannot be flat-labelled", ""),
    "one": ("", "one link must conclude 1, got {0}"),
    "bot": ("", "bottom link must conclude bot, got {0}"),
    "tensor": ("multiplicative premises cannot be flat-labelled", "conclusion {0} does not match premises {1}, {2}"),
    "par": ("multiplicative premises cannot be flat-labelled", "conclusion {0} does not match premises {1}, {2}"),
    "flat": ("flat premise is already flat-labelled", "flat conclusion {0} does not wrap premise {1}"),
    "pax": ("pax premise must be flat-labelled", "pax must preserve its label, got {1} -> {0}"),
    "ofcourse": ("of-course premise cannot be flat-labelled", "of-course conclusion {0} does not match premise {1}"),
    "paragraph": ("paragraph premise cannot be flat-labelled", "paragraph conclusion {0} does not match premise {1}"),
}
_CONNECTIVE = {"tensor": Tensor, "par": Par, "ofcourse": OfCourse, "paragraph": Paragraph}
_FLAT, _FORMULA, _PREMISES, _CONCLUSIONS = map(attrgetter, ("flat", "formula", "premises", "conclusions"))


def _typing(kind: str, prem: list[Label], given: Sequence[Label]) -> tuple[Label, ...] | list[str]:
    """The conclusion labels a link of this kind requires over these premise
    labels, or why it can have none.  Of ``given``, its conclusion labels as
    far as known, the rule reads an axiom's and a why-not's (a weakening's)."""
    if kind == "ax":
        if any(c.flat for c in given):
            return ["axiom conclusions cannot be flat-labelled"]
        return given[0], Label(dual(given[0].formula))
    if kind == "whynot":
        (c,) = given or (Label(WhyNot(prem[0].formula)),)
        if c.flat or not isinstance(c.formula, WhyNot):
            return [f"why-not conclusion must be a ?-formula, got {c}"]
        body = Label(c.formula.body, True)
        return [f"why-not premise {p} does not match conclusion {c}" for p in prem if p is not body] or (c,)
    if kind == "one" or kind == "bot":
        return (Label(ONE if kind == "one" else BOTTOM),)
    if any(map(_FLAT, prem)) != (kind == "pax"):
        return [_COMPLAINTS[kind][0]]
    if kind == "cut":
        a, b = prem
        return () if dual(a.formula) is b.formula else [f"cut premises are not dual: {a}, {b}"]
    if kind == "pax":
        return (prem[0],)
    if kind == "flat":
        return (Label(prem[0].formula, True),)
    return (Label(_CONNECTIVE[kind](*map(_FORMULA, prem))),)


def _wiring(edges: Mapping, links: Mapping[str, Link], conclusions: tuple) -> tuple[list[Violation], dict, dict]:
    """Violations of the link kinds and arities, of one producer and at most
    one consumer per edge, and of the declared conclusions (none after a
    wrong kind, arity or edge id); and each edge's producer and consumer."""
    out: list[Violation] = []
    producer, consumer = _ends(links)
    strays = not (producer.keys() <= edges.keys() and consumer.keys() <= edges.keys())
    for lid, link in links.items():
        shape = LINK_ARITIES.get(link.kind)
        if shape is None:
            out.append(Violation("kind", lid, f"unknown link kind {link.kind!r}"))
            continue
        arity, coarity = shape
        if arity is not None and len(link.premises) != arity:
            out.append(Violation("arity", lid, f"{link.kind} expects {arity} premises, has {len(link.premises)}"))
        if len(link.conclusions) != coarity:
            n = len(link.conclusions)
            out.append(Violation("arity", lid, f"{link.kind} expects {coarity} conclusions, has {n}"))
        for e in link.premises + link.conclusions if strays else ():
            if e not in edges:
                out.append(Violation("edge", lid, f"references unknown edge {e!r}"))
    declared = set(conclusions)
    if out or (
        len(producer) == len(edges) == sum(map(len, map(_CONCLUSIONS, links.values())))
        and len(consumer) == sum(map(len, map(_PREMISES, links.values())))
        and declared == edges.keys() - consumer.keys()
        and len(conclusions) == len(declared)
    ):
        return out, producer, consumer
    made = Counter(e for link in links.values() for e in link.conclusions)
    used = Counter(e for link in links.values() for e in link.premises)
    for e in edges:
        if made[e] != 1:
            out.append(Violation("producer", e, f"edge is conclusion of {made[e]} links, expected 1"))
        if used[e] > 1:
            out.append(Violation("consumer", e, "edge is premise of more than one link"))
    pending = {e for e in edges if e not in consumer}
    for e in sorted(pending - declared):
        out.append(Violation("conclusions", e, "pending edge not declared as a conclusion"))
    for e in sorted(declared - pending):
        out.append(Violation("conclusions", e, "declared conclusion has a consumer or is unknown"))
    if len(conclusions) != len(declared):
        out.append(Violation("conclusions", "-", "duplicate edge in conclusions list"))
    return out, producer, consumer


def _box_violations(links: Mapping[str, Link], boxes: tuple[Box, ...], producer: dict, consumer: dict) -> list:
    """Box conditions: principal/pax bookkeeping, laminarity, and closure."""
    out: list[Violation] = []
    seen_principals: dict[str, str] = {}
    seen_pax: dict[str, str] = {}
    all_boxes = [b for top in boxes for b in top.walk()]
    for i, box in enumerate(all_boxes):
        tag = f"box#{i}"
        if box.principal not in links or links[box.principal].kind != "ofcourse":
            out.append(Violation("box", tag, "principal is not an of-course link"))
            continue
        if box.principal in seen_principals:
            out.append(Violation("box", tag, "of-course link is principal of two boxes"))
        seen_principals[box.principal] = tag
        for a in box.auxiliaries:
            if a not in links or links[a].kind != "pax":
                out.append(Violation("box", tag, f"auxiliary {a} is not a pax link"))
            elif a in seen_pax:
                out.append(Violation("box", tag, f"pax {a} is in the border of two boxes"))
            else:
                seen_pax[a] = tag
        for lid in sorted(box.contents):
            if lid not in links:
                out.append(Violation("box", tag, f"contents reference unknown link {lid}"))
        border = set(box.border())
        if border & box.contents:
            out.append(Violation("box", tag, "border links may not be listed in contents"))
        for child in box.children:
            if not (set(child.border()) | child.contents) <= box.contents:
                out.append(Violation("box", tag, "child box is not contained in parent"))
    for lid, link in links.items():
        if link.kind == "ofcourse" and lid not in seen_principals:
            out.append(Violation("box", lid, "of-course link is not the principal of any box"))
        if link.kind == "pax" and lid not in seen_pax:
            out.append(Violation("box", lid, "pax link is not in the border of any box"))

    # Disjoint-or-nested, including across different roots: every pair is
    # compared, for the messages, only when one pass finds an overlap.
    sets = [(set(b.border()) | b.contents, i) for i, b in enumerate(all_boxes)]
    if not _laminar(sets):
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                a, b = sets[i][0], sets[j][0]
                if a & b and not (a <= b or b <= a):
                    out.append(Violation("box", f"box#{sets[i][1]}/box#{sets[j][1]}", "boxes overlap without nesting"))

    # The contents of a box, with the border premises as conclusions, must
    # form a self-contained subnet: no edge may cross the border sideways.
    for i, box in enumerate(all_boxes):
        inside = box.contents
        border = set(box.border())
        prem_edges = {e for lid in border if lid in links for e in links[lid].premises}
        for lid in sorted(inside):
            link = links.get(lid)
            if link is None:
                continue
            for e in link.conclusions:
                cons = consumer.get(e)
                if e in prem_edges:
                    continue
                if cons is None:
                    out.append(Violation("box", f"box#{i}", f"edge {e} escapes the box as a pending conclusion"))
                elif cons not in inside:
                    out.append(Violation("box", f"box#{i}", f"edge {e} crosses the border to {cons}"))
            for e in link.premises:
                if e in producer and producer[e] not in inside:
                    out.append(Violation("box", f"box#{i}", f"premise {e} is produced outside the box"))
        for lid in sorted(border):
            link = links.get(lid)
            if link is None:
                continue
            for e in link.premises:
                if e in producer and producer[e] not in inside:
                    out.append(Violation("box", f"box#{i}", f"border premise {e} does not come from inside"))
    return out


def _laminar(sets: list[tuple[set[str], int]]) -> bool:
    """Whether every two of these member sets are disjoint or nested.  Taken
    largest first, the members of each set must share one owner, the last
    set before it to contain them, or none: then every earlier set that
    meets it contains it."""
    owner: dict[str, int] = {}
    for members, i in sorted(sets, key=lambda s: -len(s[0])):
        if len(set(map(owner.get, members))) > 1:
            return False
        owner.update(dict.fromkeys(members, i))
    return True


def validate(net: Net) -> ValidationReport:
    """Structural validation of the net conditions.  Violations are data;
    an empty report means every condition holds.  Flat-labelled net
    conclusions are legal here (rule intermediates need them) and are
    rejected separately by the correctness predicates and the file loader."""
    out, producer, consumer = _wiring(net.edges, net.links, net.conclusions)
    if any(v.code in ("kind", "arity", "edge") for v in out):
        return ValidationReport(tuple(out))

    for lid, link in net.links.items():
        prem = [net.edges[e] for e in link.premises]
        conc = [net.edges[e] for e in link.conclusions]
        want = _typing(link.kind, prem, conc)
        if type(want) is list:
            out += (Violation("typing", lid, why) for why in want)
        elif any(w is not c for w, c in zip(want, conc)):
            out.append(Violation("typing", lid, _COMPLAINTS[link.kind][1].format(*conc, *prem)))

    # Flat-labelled edges may only feed pax or why-not links.
    for e, lab in net.edges.items():
        if lab.flat and e in consumer:
            kind = net.links[consumer[e]].kind
            if kind not in ("pax", "whynot"):
                out.append(Violation("flat-wire", e, f"flat-labelled edge feeds a {kind} link"))

    out += _box_violations(net.links, net.boxes, producer, consumer)
    return ValidationReport(tuple(out))


# -- derived constructions -------------------------------------------------


def _closing_pars(net: Net) -> list[tuple[str, tuple[str, str], str]]:
    """The par links that close the net, as (link id, premises, conclusion
    edge), innermost first: the last conclusion is joined with the one
    before it, and so on up to the first.  Ids come from one ``_Fresh``,
    link then edge; none for zero or one conclusion."""
    if any(net.edges[e].flat for e in net.conclusions):
        raise ValueError("cannot close a net with a flat-labelled conclusion")
    if len(net.conclusions) <= 1:
        return []
    fresh = _Fresh(net)
    pars = []
    current = net.conclusions[-1]
    for other in reversed(net.conclusions[:-1]):
        lid = fresh.link()
        eid = fresh.edge()
        pars.append((lid, (other, current), eid))
        current = eid
    return pars


def parr_closure(net: Net) -> Net:
    """Join all conclusions with a right-nested tree of par links, yielding
    a single conclusion A1 @ (A2 @ (... )).  A net with zero or one
    conclusion is returned unchanged."""
    pars = _closing_pars(net)
    if not pars:
        return net
    edges = dict(net.edges)
    links = dict(net.links)
    for lid, (other, current), eid in pars:
        edges[eid] = Label(Par(edges[other].formula, edges[current].formula))
        links[lid] = Link("par", (other, current), (eid,))
    return Net(edges, links, net.boxes, (eid,))


@dataclass(frozen=True)
class UGraph:
    """Undirected multigraph over links.  Parallel edges are kept."""

    nodes: tuple[str, ...]
    # (node, node, edge-id); node order within a pair is not significant.
    edges: tuple[tuple[str, str, str], ...]


def underlying_graph(net: Net) -> UGraph:
    """Forget conclusions, orientation and premise order: the whole net at
    every depth as one undirected multigraph."""
    edges = tuple((net.producer(e), lid, e) for e in net.edges if (lid := net.consumer(e)) is not None)
    return UGraph(tuple(net.links), edges)


# -- canonical form ---------------------------------------------------------
#
# A canonical labelling by individualization-refinement (McKay & Piperno,
# "Practical graph isomorphism, II", 2014).  The links are the vertices.  An
# edge joins its producer to its consumer, and a box joins each link to the
# principal of the innermost box around it (an auxiliary, to the principal
# of its own box).  Colour refinement splits an ordered partition of the
# links until it is equitable; the colour of a link is the position of its
# cell, and cells are ordered by their signatures, never by input order.
# While a cell has more than one member, each member is individualized in
# turn and the least leaf encoding wins.  Two leaves that encode equally
# give an automorphism, which prunes the rest of the search.


def _edge_order(net: Net, by_rank: list[str], rank: Mapping[str, int], lab: Mapping[str, str]) -> list[str]:
    """Edges in the order of their producers; the two sides of an axiom by
    label, then by where they lead."""

    def side(e: str):
        cons = net.consumer(e)
        if cons is None:
            return (lab[e], -1, net.conclusions.index(e))
        link = net.links[cons]
        return (lab[e], rank[cons], -1 if link.kind in UNORDERED_PREMISES else link.premises.index(e))

    out: list[str] = []
    for lid in by_rank:
        conclusions = net.links[lid].conclusions
        out.extend(sorted(conclusions, key=side) if net.links[lid].kind == "ax" else conclusions)
    return out


def _box_place(net: Net, lid: str) -> tuple[int, str | None]:
    """A link's box role (0 plain, 1 box principal, 2 box auxiliary) and
    the principal of the box it borders as an auxiliary, else of the
    innermost box around it.  Together over all links they fix the boxes."""
    box = net.box_of_border_link(lid)
    if box is not None and box.principal != lid:
        return 2, box.principal
    chain = net.enclosing_boxes(lid)
    return int(box is not None), chain[-1].principal if chain else None


class _Canonicalizer:
    """Canonical labelling of one net.  The part reached from the
    conclusions is labelled as one piece; every closed component (one with
    no conclusion) is labelled on its own, and these follow in the order of
    their encodings."""

    def __init__(self, net: Net):
        self.net = net
        self.ids = ids = list(net.links)
        self.index = index = {lid: i for i, lid in enumerate(ids)}
        self.lab = lab = {e: str(l) for e, l in net.edges.items()}
        position = {e: i for i, e in enumerate(net.conclusions)}
        self.role: dict[str, int] = {}
        self.up: dict[str, str | None] = {}
        ports: list[list[tuple[int, tuple[int, int, str]]]] = [[] for _ in ids]
        self.keys: list[tuple] = []
        for i, lid in enumerate(ids):
            link = net.links[lid]
            role, up = _box_place(net, lid)
            self.role[lid], self.up[lid] = role, up
            if up is not None:
                ports[i].append((index[up], (2, role, "")))
                ports[index[up]].append((i, (3, role, "")))
            unordered = link.kind in UNORDERED_PREMISES
            for slot, e in enumerate(link.premises):
                j = index[net.producer(e)]
                port = -1 if unordered else slot
                ports[i].append((j, (1, port, lab[e])))
                ports[j].append((i, (0, port, lab[e])))
            anchors = tuple(sorted(position[e] for e in link.conclusions if e in position))
            self.keys.append((link.kind, role, net.depth(lid), anchors))
        # Port tags are ranks of the sorted port descriptions, so that they
        # order the same way in every isomorphic net.
        tag = {p: t for t, p in enumerate(sorted({p for row in ports for _, p in row}))}
        self.adj = [[(j, tag[p]) for j, p in row] for row in ports]

    def labelling(self) -> tuple[list[str], list]:
        """Link ids in canonical order, and their encoding."""
        n = len(self.ids)
        component = [-1] * n
        parts: list[list[int]] = []
        for root in range(n):
            if component[root] >= 0:
                continue
            component[root] = len(parts)
            members, stack = [], [root]
            while stack:
                v = stack.pop()
                members.append(v)
                for w, _ in self.adj[v]:
                    if component[w] < 0:
                        component[w] = component[root]
                        stack.append(w)
            parts.append(members)
        anchored = {component[self.index[self.net.producer(e)]] for e in self.net.conclusions}
        head = [v for c in sorted(anchored) for v in parts[c]]
        found = [self._search(head)] if head else []
        found += sorted(
            (self._search(p) for c, p in enumerate(parts) if c not in anchored),
            key=lambda leaf: leaf[0],
        )
        by_rank = [self.ids[v] for _, order in found for v in order]
        return by_rank, found[0][0] if len(found) == 1 else self.encode(by_rank)

    def encode(self, by_rank: list[str]) -> list:
        """Encoding of the links listed, which must be closed under edges
        and boxes, numbered in the order given: per link its kind, box role,
        box, premises (edge numbers) and number of conclusions, then the edge
        labels, then the conclusions of the net among them."""
        net, lab = self.net, self.lab
        rank = {lid: r for r, lid in enumerate(by_rank)}
        edges = _edge_order(net, by_rank, rank, lab)
        number = {e: i for i, e in enumerate(edges)}
        links = []
        for lid in by_rank:
            link = net.links[lid]
            premises = [number[e] for e in link.premises]
            if link.kind in UNORDERED_PREMISES:
                premises.sort()
            up = self.up[lid]
            links.append(
                [
                    link.kind,
                    self.role[lid],
                    -1 if up is None else rank[up],
                    premises,
                    len(link.conclusions),
                ]
            )
        conclusions = [number[e] for e in net.conclusions if e in number]
        return [links, [lab[e] for e in edges], conclusions]

    # -- search ---------------------------------------------------------------

    def _search(self, part: list[int]) -> tuple[list, list[int]]:
        """Least leaf encoding of a part and the vertex order that gives it."""
        keys = self.keys
        order = sorted(part, key=keys.__getitem__)
        cell = [0] * len(self.ids)  # vertex -> start of its cell in order
        end = [0] * len(order)  # cell start -> end of the cell
        starts = []
        for i, v in enumerate(order):
            if i == 0 or keys[v] != keys[order[i - 1]]:
                starts.append(i)
            cell[v] = starts[-1]
        for s, e in zip(starts, starts[1:] + [len(order)]):
            end[s] = e
        self._refine(order, cell, end, starts)

        first: tuple | None = None  # (encoding, order, path) of the first leaf
        best: tuple | None = None
        path: list[int] = []
        # orbits[i]: union-find over the vertices, merged by the automorphisms
        # found that fix the first i vertices individualized on the first path
        orbits: list[list[int]] = []

        def root(parent: list[int], x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def leaf(order: list[int]) -> int | None:
            """Record a leaf; return the level to go back to when the leaf
            equals an earlier one."""
            nonlocal first, best
            enc = self.encode([self.ids[v] for v in order])
            if first is None:
                first = best = (enc, order, list(path))
                orbits.extend(list(range(len(self.ids))) for _ in path)
                return None
            for known in (first, best):
                if enc == known[0]:
                    gamma = [(x, y) for x, y in zip(order, known[1]) if x != y]
                    moved = {x for x, _ in gamma}
                    first_path = first[2]
                    fixed = 0
                    while fixed < len(first_path) and first_path[fixed] not in moved:
                        fixed += 1
                    for parent in orbits[: fixed + 1]:
                        for x, y in gamma:
                            a, b = root(parent, x), root(parent, y)
                            if a != b:
                                parent[max(a, b)] = min(a, b)
                    common = 0
                    while path[common] == known[2][common]:
                        common += 1
                    return common
            if enc < best[0]:
                best = (enc, order, list(path))
            return None

        def visit(order: list[int], cell: list[int], end: list[int], level: int, on_first: bool) -> int | None:
            t = 0
            while t < len(order) and end[t] - t == 1:
                t = end[t]
            if t == len(order):
                return leaf(order)
            done: list[int] = []
            for v in order[t : end[t]]:
                if on_first and first is not None:
                    parent = orbits[level]
                    if any(root(parent, v) == root(parent, u) for u in done):
                        continue
                child, child_cell, child_end = list(order), list(cell), list(end)
                i = child.index(v, t, end[t])
                child[t], child[i] = v, child[t]
                child_end[t], child_end[t + 1] = t + 1, end[t]
                for x in child[t + 1 : end[t]]:
                    child_cell[x] = t + 1
                self._refine(child, child_cell, child_end, [t])
                path.append(v)
                jump = visit(
                    child, child_cell, child_end, level + 1,
                    on_first and (first is None or v == first[2][level]),
                )
                path.pop()
                if jump is not None and jump < level:
                    return jump
                done.append(v)
            return None

        visit(order, cell, end, 0, True)
        return best[0], best[1]

    def _refine(self, order: list[int], cell: list[int], end: list[int], queue: list[int]) -> None:
        """Split cells until every cell is equitable: each member has the
        same multiset of port tags into every cell.  Fragments of a split
        cell are ordered by that multiset."""
        adj = self.adj
        pending = set(queue)
        queue = deque(queue)
        while queue:
            w = queue.popleft()
            pending.discard(w)
            seen: dict[int, list[int]] = {}
            for u in order[w : end[w]]:
                for x, t in adj[u]:
                    if x in seen:
                        seen[x].append(t)
                    else:
                        seen[x] = [t]
            hit = {cell[x] for x in seen if end[cell[x]] - cell[x] > 1}
            for c in sorted(hit):
                stop = end[c]
                groups: dict[tuple, list[int]] = {}
                for x in order[c:stop]:
                    tags = seen.get(x)
                    key = () if tags is None else tuple(tags) if len(tags) == 1 else tuple(sorted(tags))
                    if key in groups:
                        groups[key].append(x)
                    else:
                        groups[key] = [x]
                if len(groups) == 1:
                    continue
                pos = c
                fragments = []
                for key in sorted(groups):
                    members = groups[key]
                    order[pos : pos + len(members)] = members
                    for x in members:
                        cell[x] = pos
                    end[pos] = pos + len(members)
                    fragments.append(pos)
                    pos += len(members)
                if c not in pending:
                    # Every cell already agrees on its tags into the whole of
                    # c, so the largest fragment splits nothing the others
                    # leave whole.
                    fragments.remove(max(fragments, key=lambda f: (end[f] - f, -f)))
                for f in fragments:
                    if f not in pending:
                        pending.add(f)
                        queue.append(f)


def _labelling(net: Net) -> list:
    """The encoding behind the canonical form."""
    return _Canonicalizer(net).labelling()[1]


def traversal_order(net: Net) -> dict[str, int]:
    """Cheap anchored rank: one depth-first sweep from the conclusions with
    label-based ordering at unordered ports.  Deterministic for a given net
    value, but unlike the canonical labelling behind canonical_form not
    guaranteed invariant under id renaming; used where only reproducibility
    matters."""
    rank: dict[str, int] = {}
    lab = {e: str(l) for e, l in net.edges.items()}

    def key(eid: str, towards_producer: bool):
        other = net.producer(eid) if towards_producer else net.consumer(eid)
        kind = net.links[other].kind if other is not None else "-"
        return (lab[eid], kind, eid)

    def walk(start: str) -> None:
        stack = [start]
        while stack:
            cur = stack.pop()
            if cur in rank:
                continue
            rank[cur] = len(rank)
            link = net.links[cur]
            prem = list(link.premises)
            if link.kind in UNORDERED_PREMISES:
                prem.sort(key=lambda e: key(e, True))
            conc = list(link.conclusions)
            if link.kind == "ax":
                conc.sort(key=lambda e: key(e, False))
            nexts = []
            for e in prem:
                nexts.append(net.producer(e))
            for e in conc:
                c = net.consumer(e)
                if c is not None:
                    nexts.append(c)
            stack.extend(reversed([l for l in nexts if l not in rank]))

    for eid in net.conclusions:
        walk(net.producer(eid))
    for lid in sorted(net.links):
        if lid not in rank:
            walk(lid)
    return rank


def canonical_form(net: Net) -> bytes:
    """Byte string identifying the net up to id renaming and reordering of
    unordered structure: two nets have the same form exactly when they are
    isomorphic.  Conclusion order and labels are significant."""
    return _form(_labelling(net))


def _form(encoding: list) -> bytes:
    return json.dumps(encoding, separators=(",", ":")).encode()


def nets_equal(a: Net, b: Net) -> bool:
    """Equality up to id renaming and reordering of unordered structure.
    A walk that pairs the nets from their conclusions proves most equal
    pairs in linear time; when it finds no isomorphism, the canonical
    forms decide."""
    return _walk_isomorphic(a, b) or canonical_form(a) == canonical_form(b)


def _walk_isomorphic(a, b) -> bool:
    """Walk both nets from their conclusions in step, pairing links and
    edges one to one: conclusions in order, premises slot by slot, an
    axiom's conclusions by label.  A cut is reached through one premise,
    which fixes the other.  A why-not with several premises not yet
    paired waits until their producers pair all of them but at most one;
    only when nothing else is left does the walk guess, pairing a waiting
    why-not's premises in stored order, so False proves nothing.  True
    means the pairing covers every link and keeps kinds, labels (by
    identity, as they are interned), premise slots, box roles and boxes:
    an isomorphism in ``canonical_form``'s sense.  Either side may also be
    a rewrite workspace, which has the same maps and places its links
    itself."""
    if len(a.links) != len(b.links) or len(a.conclusions) != len(b.conclusions):
        return False
    a_links, a_edges, a_producer, a_consumer, a_place = _walk_view(a)
    b_links, b_edges, b_producer, b_consumer, b_place = _walk_view(b)
    link_to: dict[str, str] = {}
    edge_to: dict[str, str] = {}
    todo: list[tuple[str, str]] = []
    waiting: dict[str, int] = {}  # why-not -> its premises not yet paired

    def pair_link(x: str, y: str) -> bool:
        if x not in link_to:
            link_to[x] = y
            todo.append((x, y))
        return link_to[x] == y

    def pair_edge(e: str, f: str) -> bool:
        if e in edge_to:
            return edge_to[e] == f
        edge_to[e] = f
        ca, cb = a_consumer.get(e), b_consumer.get(f)
        if ca in waiting:
            waiting[ca] -= 1
            if waiting[ca] < 2:
                del waiting[ca]
                todo.append((ca, link_to[ca]))
        return (
            a_edges[e] is b_edges[f]
            and (ca is None) == (cb is None)
            and pair_link(a_producer[e], b_producer[f])
            and (ca is None or pair_link(ca, cb))
        )

    if not all(pair_edge(e, f) for e, f in zip(a.conclusions, b.conclusions)):
        return False
    while todo or waiting:
        guess = not todo
        if guess:
            x = waiting.popitem()[0]
            todo.append((x, link_to[x]))
        x, y = todo.pop()
        lx, ly = a_links[x], b_links[y]
        if (lx.kind, len(lx.premises), len(lx.conclusions)) != (
            ly.kind, len(ly.premises), len(ly.conclusions)
        ):
            return False
        premises = ly.premises
        if lx.kind in UNORDERED_PREMISES:
            partners = [edge_to.get(e) for e in lx.premises]
            if partners.count(None) > 1 and not guess:
                waiting[x] = partners.count(None)
                continue
            rest = iter([f for f in premises if f not in partners])
            premises = [next(rest, None) if f is None else f for f in partners]
        conclusions = ly.conclusions
        if lx.kind == "ax" and a_edges[lx.conclusions[0]] is not b_edges[conclusions[0]]:
            conclusions = conclusions[::-1]
        if not all(
            f is not None and pair_edge(e, f)
            for e, f in zip(lx.premises + lx.conclusions, (*premises, *conclusions))
        ):
            return False
    # Each paired edge keeps its producer's and consumer's pairing, so a
    # one-to-one pairing of all links pairs all edges one to one.
    if len(link_to) != len(a_links) or len(set(link_to.values())) != len(link_to):
        return False
    for x, y in link_to.items():
        role, up = a_place(x)
        if b_place(y) != (role, None if up is None else link_to[up]):
            return False
    return True


def _walk_view(x) -> tuple:
    """What the walk reads of a net or a workspace: links, edges, the
    producer and consumer maps, and each link's box place."""
    if isinstance(x, Net):
        return x.links, x.edges, x._producer, x._consumer, lambda lid: _box_place(x, lid)
    return x.links, x.edges, x.producer, x.consumer, x.box_place


# -- serialization ----------------------------------------------------------


class NetFormatError(ValueError):
    pass


def to_document(net: Net) -> dict:
    """The decoding of the encoding behind ``canonical_form``: link r is l<r>
    and edge i is e<i>.  Box members and boxes go in the string order of
    their ids, l10 before l2."""
    links, labels, conclusions = _labelling(net)
    names = lambda numbers: [f"e{i}" for i in numbers]
    docs, edge = [], 0
    for r, (kind, _, _, premises, count) in enumerate(links):
        concluded = names(range(edge, edge + count))
        docs.append({"id": f"l{r}", "kind": kind, "premises": names(premises), "conclusions": concluded})
        edge += count
    boxes = {
        r: {"principal": f"l{r}", "auxiliaries": [], "contents": [], "boxes": []}
        for r, link in enumerate(links)
        if link[1] == 1
    }
    top: list[dict] = []
    for r in sorted(range(len(links)), key=str):
        _, role, up, _, _ = links[r]
        if role == 1:
            (top if up < 0 else boxes[up]["boxes"]).append(boxes[r])
        elif up >= 0:
            boxes[up]["auxiliaries" if role == 2 else "contents"].append(f"l{r}")
    edges = [{"id": f"e{i}", "label": label} for i, label in enumerate(labels)]
    return {"edges": edges, "links": docs, "boxes": top, "conclusions": names(conclusions)}


def save(net: Net, pretty: bool = False) -> bytes:
    doc = to_document(net)
    if pretty:
        return (json.dumps(doc, indent=2) + "\n").encode()
    return json.dumps(doc, separators=(",", ":")).encode()


def _id(value, what: str) -> str:
    if type(value) is not str:
        raise NetFormatError(f"{what} must be a string, not {type(value).__name__}")
    return value


def _ids(value, what: str) -> tuple[str, ...]:
    if type(value) is list:
        for x in value:
            if type(x) is not str:
                break
        else:
            return tuple(value)
    raise NetFormatError(f"{what} must be a list of string ids, not {json.dumps(value)[:40]}")


def _read(doc: dict, label) -> tuple[dict, dict[str, Link], tuple[Box, ...], tuple[str, ...]]:
    """A document's edges (each label read by ``label``), links, boxes and conclusions."""
    try:
        edges = {_id(e["id"], "an edge id"): label(e["label"]) for e in doc["edges"]}
        links = {
            _id(l["id"], "a link id"): Link(
                _id(l["kind"], "a link kind"),
                _ids(l["premises"], "link premises"),
                _ids(l["conclusions"], "link conclusions"),
            )
            for l in doc["links"]
        }
        for table, listed, what in ((edges, doc["edges"], "edge"), (links, doc["links"], "link")):
            if len(table) < len(listed):
                repeated = Counter(x["id"] for x in listed).most_common(1)[0][0]
                raise NetFormatError(f"{what} id {repeated!r} is repeated")

        def parse_box(b: dict) -> Box:
            if type(b) is not dict:
                raise NetFormatError(f"a box must be an object, not {type(b).__name__}")
            children = tuple(parse_box(ch) for ch in b.get("boxes", []))
            contents = set(_ids(b.get("contents", []), "box contents"))
            for ch in children:
                contents |= set(ch.border()) | ch.contents
            return Box(
                _id(b["principal"], "a box principal"),
                _ids(b.get("auxiliaries", []), "box auxiliaries"),
                frozenset(contents),
                children,
            )

        boxes = tuple(parse_box(b) for b in doc.get("boxes", []))
        conclusions = _ids(doc.get("conclusions", []), "net conclusions")
    except (KeyError, TypeError) as exc:
        raise NetFormatError(f"malformed net document: {exc}") from exc
    return edges, links, boxes, conclusions


# A conclusion's text from its premises' texts, as print_formula writes it,
# and the links whose conclusion nests one deeper than their premises.
_TEXT = {kind: _TEMPLATE[c] for kind, c in _CONNECTIVE.items()} | {
    "flat": "%{}".format, "pax": str, "whynot": lambda flat, *_: _TEMPLATE[WhyNot](flat[1:]),
}
_DEEPER = frozenset({"tensor", "par", "ofcourse", "paragraph", "whynot"})


def _typed(texts: dict, links: dict[str, Link], boxes: tuple[Box, ...], conclusions: tuple[str, ...]) -> Net | None:
    """The net of a document whose labels its links determine: an axiom's
    first conclusion and a weakening's are parsed, each other label derived
    from its link's premises, in dependency order, and its text from
    theirs.  None on a label spaced or nested otherwise, a premise cycle
    or any violation."""
    wrong, producer, consumer = _wiring(texts, links, conclusions)
    if wrong:
        return None
    # (kind, first conclusion's text) of a link with no premises -> its
    # labels, their texts, and their nesting depth
    leaves: dict[tuple[str, str], tuple] = {}
    labels = dict.fromkeys(texts)
    depth: dict[str, int] = {}
    waiting = dict(zip(links, map(len, map(_PREMISES, links.values()))))
    ready = [lid for lid, n in waiting.items() if not n]
    label_of, depth_of, text_of = labels.__getitem__, depth.__getitem__, texts.__getitem__
    for lid in ready:
        link = links[lid]
        kind, prem, conc = link.kind, link.premises, link.conclusions
        if prem:
            want = _typing(kind, list(map(label_of, prem)), ())
            d = max(map(depth_of, prem)) + (kind in _DEEPER)
            ok = type(want) is tuple and (not conc or _TEXT[kind](*map(text_of, prem)) == texts[conc[0]])
        else:
            key = kind, texts[conc[0]]
            if key not in leaves:
                given = (parse_label(key[1]),) if kind in ("ax", "whynot") else ()
                want = _typing(kind, [], given)
                shown = type(want) is tuple and [*map(str, want)]
                leaves[key] = want, shown, _nesting(given[0].formula) if given else 0
            want, shown, d = leaves[key]
            ok = shown == [*map(text_of, conc)]
        if not ok or d > MAX_FORMULA_DEPTH:
            return None
        for e, lab in zip(conc, want):
            labels[e], depth[e] = lab, d
            if (c := consumer.get(e)) is not None:
                waiting[c] -= 1
                if not waiting[c]:
                    ready.append(c)
    if len(ready) < len(links) or _box_violations(links, boxes, producer, consumer):
        return None
    return Net(labels, links, boxes, conclusions, _wired=(producer, consumer))


def from_document(doc: dict, allow_flat_conclusions: bool = False) -> Net:
    """The net of a document.  Labels are derived from their links where
    they can be; a document that is not certified that way has every label
    parsed and the whole net validated, which words every error."""
    try:
        # str.__str__ passes a string label through and fails on any other,
        # whose error the way below words
        net = _typed(*_read(doc, str.__str__))
    except NetFormatError:
        net = None
    if net is None:
        net = Net(*_read(doc, parse_label))
        report = validate(net)
        if not report.ok():
            raise InvalidNetError(report)
    if not allow_flat_conclusions and net.has_flat_conclusion():
        bad = [e for e in net.conclusions if net.edges[e].flat]
        raise NetFormatError(f"net conclusions carry flat labels: {', '.join(bad)}")
    return net


def load(data: bytes | str, allow_flat_conclusions: bool = False) -> Net:
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise NetFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise NetFormatError("JSON nested too deeply") from exc
    if not isinstance(doc, dict):
        raise NetFormatError("net document must be a JSON object")
    return from_document(doc, allow_flat_conclusions=allow_flat_conclusions)


__all__ = [
    "Label",
    "parse_label",
    "Link",
    "Box",
    "Net",
    "Violation",
    "ValidationReport",
    "InvalidNetError",
    "NetFormatError",
    "LINK_ARITIES",
    "UNORDERED_PREMISES",
    "validate",
    "parr_closure",
    "UGraph",
    "underlying_graph",
    "canonical_form",
    "nets_equal",
    "save",
    "load",
    "to_document",
    "from_document",
]
