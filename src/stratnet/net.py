"""Core net data model: typed links, directed labelled edges, nested boxes.

A net is a graph-like object.  Nodes are links; every edge is produced by
exactly one link and consumed by at most one.  Edges without a consumer are
the conclusions of the net, in a declared order.  Boxes carry an explicit
border (one principal of-course link plus pax auxiliaries) and an explicit
set of contained links; two boxes are disjoint or nested.

Nets are immutable after construction.  Rewrites build new nets.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Mapping

from .formula import (
    Bottom,
    Formula,
    FormulaSyntaxError,
    OfCourse,
    One,
    Par,
    Paragraph,
    Tensor,
    WhyNot,
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


@dataclass(frozen=True, slots=True)
class Label:
    """Edge label: a formula, optionally under the flat wrapper."""

    formula: Formula
    flat: bool = False

    def __str__(self) -> str:
        return ("%" if self.flat else "") + print_formula(self.formula)


# Printing big formulas dominates several hot paths; labels are shared
# between net revisions, so cache their strings by object identity (the
# strong reference keeps the id stable).  Cleared wholesale when full.
_label_strings: dict[int, tuple[Label, str]] = {}
_LABEL_CACHE_LIMIT = 250_000


def label_str(lab: Label) -> str:
    key = id(lab)
    hit = _label_strings.get(key)
    if hit is not None and hit[0] is lab:
        return hit[1]
    s = str(lab)
    if len(_label_strings) >= _LABEL_CACHE_LIMIT:
        _label_strings.clear()
    _label_strings[key] = (lab, s)
    return s


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
        yield self
        for child in self.children:
            yield from child.walk()


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
        "_link_depth",
        "_box_of_border",
        "_enclosing",
    )

    def __init__(
        self,
        edges: Mapping[str, Label],
        links: Mapping[str, Link],
        boxes: tuple[Box, ...] = (),
        conclusions: tuple[str, ...] = (),
    ):
        self.edges: dict[str, Label] = dict(edges)
        self.links: dict[str, Link] = dict(links)
        self.boxes = boxes
        self.conclusions = conclusions
        producer: dict[str, str] = {}
        consumer: dict[str, str] = {}
        for lid, link in self.links.items():
            for e in link.conclusions:
                producer[e] = lid
            for e in link.premises:
                consumer[e] = lid
        self._producer = producer
        self._consumer = consumer
        depth: dict[str, int] = {lid: 0 for lid in self.links}
        box_of_border: dict[str, Box] = {}
        enclosing: dict[str, tuple[Box, ...]] = {lid: () for lid in self.links}

        def sweep(box: Box, chain: tuple[Box, ...]) -> None:
            for lid in box.border():
                box_of_border[lid] = box
            inner = chain + (box,)
            for lid in box.contents:
                if lid in depth:
                    depth[lid] = len(inner)
                    enclosing[lid] = inner
            for child in box.children:
                sweep(child, inner)

        for b in self.boxes:
            sweep(b, ())
        self._link_depth = depth
        self._box_of_border = box_of_border
        self._enclosing = enclosing

    # -- basic queries ----------------------------------------------------

    def producer(self, edge: str) -> str:
        return self._producer[edge]

    def consumer(self, edge: str) -> str | None:
        return self._consumer.get(edge)

    def label(self, edge: str) -> Label:
        return self.edges[edge]

    def all_boxes(self) -> Iterator[Box]:
        for b in self.boxes:
            yield from b.walk()

    def box_of_principal(self, lid: str) -> Box | None:
        box = self._box_of_border.get(lid)
        if box is not None and box.principal == lid:
            return box
        return None

    def box_of_border_link(self, lid: str) -> Box | None:
        return self._box_of_border.get(lid)

    def enclosing_boxes(self, lid: str) -> tuple[Box, ...]:
        """Boxes strictly containing the link, outermost first."""
        return self._enclosing[lid]

    def depth(self, x: str) -> int:
        """Number of boxes strictly containing a link or edge.  Border links
        sit at the depth of their box; an edge sits where its producer does."""
        if x in self.links:
            return self._link_depth[x]
        if x in self.edges:
            return self._link_depth[self._producer[x]]
        raise KeyError(f"unknown link or edge id: {x}")

    def has_flat_conclusion(self) -> bool:
        return any(self.edges[e].flat for e in self.conclusions)

    def conclusion_formulas(self) -> tuple[Label, ...]:
        return tuple(self.edges[e] for e in self.conclusions)

    def cut_links(self) -> list[str]:
        return [lid for lid, lk in self.links.items() if lk.kind == "cut"]

    def size(self) -> int:
        return len(self.links)

    def __repr__(self) -> str:
        concl = ", ".join(str(self.edges[e]) for e in self.conclusions)
        return f"<Net {len(self.links)} links |- {concl}>"


# -- validation -----------------------------------------------------------


def _expected_labels_ok(net: Net, lid: str, link: Link, out: list[Violation]) -> None:
    def bad(msg: str) -> None:
        out.append(Violation("typing", lid, msg))

    prem = [net.edges[e] for e in link.premises]
    conc = [net.edges[e] for e in link.conclusions]
    kind = link.kind
    if kind == "ax":
        a, b = conc
        if a.flat or b.flat:
            bad("axiom conclusions cannot be flat-labelled")
        elif dual(a.formula) != b.formula:
            bad(f"axiom conclusions are not dual: {a}, {b}")
    elif kind == "cut":
        a, b = prem
        if a.flat or b.flat:
            bad("cut premises cannot be flat-labelled")
        elif dual(a.formula) != b.formula:
            bad(f"cut premises are not dual: {a}, {b}")
    elif kind == "one":
        if conc[0] != Label(One()):
            bad(f"one link must conclude 1, got {conc[0]}")
    elif kind == "bot":
        if conc[0] != Label(Bottom()):
            bad(f"bottom link must conclude bot, got {conc[0]}")
    elif kind in ("tensor", "par"):
        l, r = prem
        if l.flat or r.flat:
            bad("multiplicative premises cannot be flat-labelled")
            return
        want = Tensor(l.formula, r.formula) if kind == "tensor" else Par(l.formula, r.formula)
        if conc[0] != Label(want):
            bad(f"conclusion {conc[0]} does not match premises {l}, {r}")
    elif kind == "flat":
        if prem[0].flat:
            bad("flat premise is already flat-labelled")
        elif conc[0] != Label(prem[0].formula, flat=True):
            bad(f"flat conclusion {conc[0]} does not wrap premise {prem[0]}")
    elif kind == "pax":
        if not prem[0].flat:
            bad("pax premise must be flat-labelled")
        elif conc[0] != prem[0]:
            bad(f"pax must preserve its label, got {prem[0]} -> {conc[0]}")
    elif kind == "whynot":
        if not isinstance(conc[0].formula, WhyNot) or conc[0].flat:
            bad(f"why-not conclusion must be a ?-formula, got {conc[0]}")
            return
        body = conc[0].formula.body
        for p in prem:
            if p != Label(body, flat=True):
                bad(f"why-not premise {p} does not match conclusion {conc[0]}")
    elif kind == "ofcourse":
        if prem[0].flat:
            bad("of-course premise cannot be flat-labelled")
        elif conc[0] != Label(OfCourse(prem[0].formula)):
            bad(f"of-course conclusion {conc[0]} does not match premise {prem[0]}")
    elif kind == "paragraph":
        if prem[0].flat:
            bad("paragraph premise cannot be flat-labelled")
        elif conc[0] != Label(Paragraph(prem[0].formula)):
            bad(f"paragraph conclusion {conc[0]} does not match premise {prem[0]}")


def validate(net: Net) -> ValidationReport:
    """Structural validation of the net conditions.  Violations are data;
    an empty report means every condition holds.  Flat-labelled net
    conclusions are legal here (rule intermediates need them) and are
    rejected separately by the correctness predicates and the file loader."""
    out: list[Violation] = []

    for lid, link in net.links.items():
        shape = LINK_ARITIES.get(link.kind)
        if shape is None:
            out.append(Violation("kind", lid, f"unknown link kind {link.kind!r}"))
            continue
        arity, coarity = shape
        if arity is not None and len(link.premises) != arity:
            out.append(
                Violation("arity", lid, f"{link.kind} expects {arity} premises, has {len(link.premises)}")
            )
        if len(link.conclusions) != coarity:
            out.append(
                Violation("arity", lid, f"{link.kind} expects {coarity} conclusions, has {len(link.conclusions)}")
            )
        for e in link.premises + link.conclusions:
            if e not in net.edges:
                out.append(Violation("edge", lid, f"references unknown edge {e!r}"))

    if any(v.code in ("kind", "arity", "edge") for v in out):
        return ValidationReport(tuple(out))

    producers: dict[str, list[str]] = {e: [] for e in net.edges}
    consumers: dict[str, list[str]] = {e: [] for e in net.edges}
    for lid, link in net.links.items():
        for e in link.conclusions:
            producers[e].append(lid)
        for e in link.premises:
            consumers[e].append(lid)
    for e in net.edges:
        if len(producers[e]) != 1:
            out.append(Violation("producer", e, f"edge is conclusion of {len(producers[e])} links, expected 1"))
        if len(consumers[e]) > 1:
            out.append(Violation("consumer", e, "edge is premise of more than one link"))

    declared = set(net.conclusions)
    pending = {e for e in net.edges if not consumers[e]}
    if declared != pending:
        for e in sorted(pending - declared):
            out.append(Violation("conclusions", e, "pending edge not declared as a conclusion"))
        for e in sorted(declared - pending):
            out.append(Violation("conclusions", e, "declared conclusion has a consumer or is unknown"))
    if len(net.conclusions) != len(declared):
        out.append(Violation("conclusions", "-", "duplicate edge in conclusions list"))

    for lid, link in net.links.items():
        _expected_labels_ok(net, lid, link, out)

    # Flat-labelled edges may only feed pax or why-not links.
    for e, lab in net.edges.items():
        if lab.flat and consumers.get(e):
            kind = net.links[consumers[e][0]].kind
            if kind not in ("pax", "whynot"):
                out.append(Violation("flat-wire", e, f"flat-labelled edge feeds a {kind} link"))

    # Box conditions: principal/pax bookkeeping, laminarity, and closure.
    seen_principals: dict[str, str] = {}
    seen_pax: dict[str, str] = {}
    all_boxes = list(net.all_boxes())
    for i, box in enumerate(all_boxes):
        tag = f"box#{i}"
        if box.principal not in net.links or net.links[box.principal].kind != "ofcourse":
            out.append(Violation("box", tag, "principal is not an of-course link"))
            continue
        if box.principal in seen_principals:
            out.append(Violation("box", tag, "of-course link is principal of two boxes"))
        seen_principals[box.principal] = tag
        for a in box.auxiliaries:
            if a not in net.links or net.links[a].kind != "pax":
                out.append(Violation("box", tag, f"auxiliary {a} is not a pax link"))
            elif a in seen_pax:
                out.append(Violation("box", tag, f"pax {a} is in the border of two boxes"))
            else:
                seen_pax[a] = tag
        for lid in box.contents:
            if lid not in net.links:
                out.append(Violation("box", tag, f"contents reference unknown link {lid}"))
        border = set(box.border())
        if border & box.contents:
            out.append(Violation("box", tag, "border links may not be listed in contents"))
        for child in box.children:
            if not (set(child.border()) | child.contents) <= box.contents:
                out.append(Violation("box", tag, "child box is not contained in parent"))
    for lid, link in net.links.items():
        if link.kind == "ofcourse" and lid not in seen_principals:
            out.append(Violation("box", lid, "of-course link is not the principal of any box"))
        if link.kind == "pax" and lid not in seen_pax:
            out.append(Violation("box", lid, "pax link is not in the border of any box"))

    # Disjoint-or-nested, including across different roots.
    sets = [(set(b.border()) | b.contents, i) for i, b in enumerate(all_boxes)]
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
        prem_edges = set()
        for lid in box.border():
            if lid in net.links:
                prem_edges.update(net.links[lid].premises)
        for lid in inside:
            link = net.links.get(lid)
            if link is None:
                continue
            for e in link.conclusions:
                cons = consumers.get(e, [])
                if e in prem_edges:
                    continue
                if not cons:
                    out.append(Violation("box", f"box#{i}", f"edge {e} escapes the box as a pending conclusion"))
                elif cons[0] not in inside:
                    out.append(Violation("box", f"box#{i}", f"edge {e} crosses the border to {cons[0]}"))
            for e in link.premises:
                if e in producers and producers[e] and producers[e][0] not in inside:
                    out.append(Violation("box", f"box#{i}", f"premise {e} is produced outside the box"))
        for lid in border:
            link = net.links.get(lid)
            if link is None:
                continue
            for e in link.premises:
                if e in producers and producers[e] and producers[e][0] not in inside:
                    out.append(Violation("box", f"box#{i}", f"border premise {e} does not come from inside"))

    return ValidationReport(tuple(out))


# -- derived constructions -------------------------------------------------


def parr_closure(net: Net) -> Net:
    """Join all conclusions with a right-nested tree of par links, yielding
    a single conclusion A1 @ (A2 @ (... )).  A net with zero or one
    conclusion is returned unchanged."""
    if any(net.edges[e].flat for e in net.conclusions):
        raise ValueError("cannot close a net with a flat-labelled conclusion")
    if len(net.conclusions) <= 1:
        return net
    edges = dict(net.edges)
    links = dict(net.links)
    fresh = _fresh_namer(net)
    current = net.conclusions[-1]
    for other in reversed(net.conclusions[:-1]):
        lid = fresh("l")
        eid = fresh("e")
        edges[eid] = Label(Par(edges[other].formula, edges[current].formula))
        links[lid] = Link("par", (other, current), (eid,))
        current = eid
    return Net(edges, links, net.boxes, (current,))


@dataclass(frozen=True)
class UGraph:
    """Undirected multigraph over links at depth zero, with boxes optionally
    collapsed into single nodes.  Parallel edges are kept."""

    nodes: tuple[str, ...]
    # (node, node, edge-id); node order within a pair is not significant.
    edges: tuple[tuple[str, str, str], ...]

    def adjacency(self) -> dict[str, list[tuple[str, str]]]:
        adj: dict[str, list[tuple[str, str]]] = {n: [] for n in self.nodes}
        for a, b, e in self.edges:
            adj[a].append((b, e))
            adj[b].append((a, e))
        return adj

    def has_cycle(self) -> bool:
        return self.find_cycle() is not None

    def find_cycle(self) -> list[str] | None:
        """Return the edge ids of some cycle, or None.  Parallel edges count."""
        adj = self.adjacency()
        seen: set[str] = set()
        for start in self.nodes:
            if start in seen:
                continue
            # Iterative DFS tracking the edge used to enter each node.
            stack: list[tuple[str, str | None]] = [(start, None)]
            parent_edge: dict[str, str | None] = {start: None}
            parent_node: dict[str, str | None] = {start: None}
            while stack:
                node, via = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                for neigh, eid in adj[node]:
                    if eid == via:
                        continue
                    if neigh in parent_edge:
                        # Found a cycle: walk both endpoints up to their
                        # common ancestor.  For reporting we return the
                        # closing edge plus the tree paths.
                        return _cycle_edges(parent_node, parent_edge, node, neigh, eid)
                    parent_edge[neigh] = eid
                    parent_node[neigh] = node
                    stack.append((neigh, eid))
        return None


def _cycle_edges(
    parent_node: dict[str, str | None],
    parent_edge: dict[str, str | None],
    a: str,
    b: str,
    closing: str,
) -> list[str]:
    def path_to_root(x: str) -> list[tuple[str, str]]:
        out = []
        while parent_edge.get(x) is not None:
            out.append((x, parent_edge[x]))
            x = parent_node[x]  # type: ignore[assignment]
        out.append((x, ""))
        return out

    pa = path_to_root(a)
    pb = path_to_root(b)
    nodes_a = [n for n, _ in pa]
    set_b = {n for n, _ in pb}
    meet = next(n for n in nodes_a if n in set_b)
    edges: list[str] = [closing]
    for n, e in pa:
        if n == meet:
            break
        edges.append(e)
    for n, e in pb:
        if n == meet:
            break
        edges.append(e)
    return [e for e in edges if e]


def underlying_graph(net: Net, at_depth_zero: bool = False) -> UGraph:
    """Forget conclusions, orientation and premise order.  With the flag,
    collapse each depth-zero box into a single node; without it, take the
    whole net at every depth as one undirected multigraph."""
    if at_depth_zero:
        node_of: dict[str, str] = {}
        top_boxes = list(net.boxes)
        for i, box in enumerate(top_boxes):
            name = f"box:{box.principal}"
            for lid in box.border():
                node_of[lid] = name
            for lid in box.contents:
                node_of[lid] = name
        nodes = []
        for lid in net.links:
            if lid not in node_of:
                node_of[lid] = lid
                nodes.append(lid)
        nodes.extend(f"box:{b.principal}" for b in top_boxes)
    else:
        node_of = {lid: lid for lid in net.links}
        nodes = list(net.links)
    edges = []
    for eid in net.edges:
        prod = node_of[net.producer(eid)]
        cons_link = net.consumer(eid)
        if cons_link is None:
            continue
        cons = node_of[cons_link]
        if prod == cons and prod.startswith("box:"):
            continue  # internal to a collapsed box
        edges.append((prod, cons, eid))
    return UGraph(tuple(nodes), tuple(edges))


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


def _fresh_namer(net: Net):
    used = set(net.edges) | set(net.links)
    counter = [0]

    def fresh(prefix: str) -> str:
        while True:
            name = f"{prefix}{counter[0]}"
            counter[0] += 1
            if name not in used:
                used.add(name)
                return name

    return fresh


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


class _Canonicalizer:
    """Canonical labelling of one net.  The part reached from the
    conclusions is labelled as one piece; every closed component (one with
    no conclusion) is labelled on its own, and these follow in the order of
    their encodings."""

    def __init__(self, net: Net):
        self.net = net
        self.ids = ids = list(net.links)
        self.index = index = {lid: i for i, lid in enumerate(ids)}
        self.lab = lab = {e: label_str(l) for e, l in net.edges.items()}
        position = {e: i for i, e in enumerate(net.conclusions)}
        # role: 0 plain, 1 box principal, 2 box auxiliary; up: the principal
        # of the box an auxiliary borders, else of the innermost box around.
        self.role: dict[str, int] = {}
        self.up: dict[str, str | None] = {}
        ports: list[list[tuple[int, tuple[int, int, str]]]] = [[] for _ in ids]
        self.keys: list[tuple] = []
        for i, lid in enumerate(ids):
            link = net.links[lid]
            box = net.box_of_border_link(lid)
            if box is not None and box.principal != lid:
                role, up = 2, box.principal
            else:
                chain = net.enclosing_boxes(lid)
                role, up = int(box is not None), chain[-1].principal if chain else None
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


def canonical_order(net: Net) -> dict[str, int]:
    """Canonical rank of every link; stable under id renaming and under
    permutation of unordered premise lists and box auxiliary lists."""
    return {lid: r for r, lid in enumerate(_Canonicalizer(net).labelling()[0])}


def traversal_order(net: Net) -> dict[str, int]:
    """Cheap anchored rank: one depth-first sweep from the conclusions with
    label-based ordering at unordered ports.  Deterministic for a given net
    value, but unlike canonical_order not guaranteed invariant under id
    renaming; used where only reproducibility matters."""
    rank: dict[str, int] = {}
    lab = {e: label_str(l) for e, l in net.edges.items()}

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
    return json.dumps(_Canonicalizer(net).labelling()[1], separators=(",", ":")).encode()


def nets_equal(a: Net, b: Net) -> bool:
    """Equality up to id renaming and reordering of unordered structure."""
    return canonical_form(a) == canonical_form(b)


def renumber(net: Net) -> Net:
    """Rebuild the net with canonical sequential ids (l0,l1,... / e0,e1,...),
    unordered premises and axiom sides in canonical order.  Saving a
    renumbered net gives the same bytes for every isomorphic net."""
    rank = canonical_order(net)
    by_rank = sorted(net.links, key=rank.__getitem__)
    lab = {e: label_str(l) for e, l in net.edges.items()}
    number = {e: i for i, e in enumerate(_edge_order(net, by_rank, rank, lab))}
    edge_name = {e: f"e{i}" for e, i in number.items()}
    link_name = {lid: f"l{r}" for lid, r in rank.items()}

    def ports(edges: tuple[str, ...], unordered: bool) -> tuple[str, ...]:
        return tuple(edge_name[e] for e in (sorted(edges, key=number.__getitem__) if unordered else edges))

    links = {
        link_name[lid]: Link(
            lk.kind,
            ports(lk.premises, lk.kind in UNORDERED_PREMISES),
            ports(lk.conclusions, lk.kind == "ax"),
        )
        for lid, lk in net.links.items()
    }
    edges = {edge_name[e]: label for e, label in net.edges.items()}

    def rebox(box: Box) -> Box:
        return Box(
            link_name[box.principal],
            tuple(link_name[a] for a in box.auxiliaries),
            frozenset(link_name[c] for c in box.contents),
            tuple(sorted((rebox(ch) for ch in box.children), key=lambda bb: bb.principal)),
        )

    boxes = tuple(sorted((rebox(b) for b in net.boxes), key=lambda bb: bb.principal))
    return Net(edges, links, boxes, tuple(edge_name[e] for e in net.conclusions))


# -- serialization ----------------------------------------------------------


class NetFormatError(ValueError):
    pass


def to_document(net: Net) -> dict:
    net = renumber(net)

    def box_doc(box: Box) -> dict:
        direct = box.contents - {
            lid for ch in box.children for lid in (set(ch.border()) | ch.contents)
        }
        return {
            "principal": box.principal,
            "auxiliaries": sorted(box.auxiliaries),
            "contents": sorted(direct),
            "boxes": [box_doc(ch) for ch in box.children],
        }

    return {
        "edges": [{"id": e, "label": str(net.edges[e])} for e in sorted(net.edges, key=_id_key)],
        "links": [
            {
                "id": lid,
                "kind": lk.kind,
                "premises": list(lk.premises),
                "conclusions": list(lk.conclusions),
            }
            for lid, lk in sorted(net.links.items(), key=lambda kv: _id_key(kv[0]))
        ],
        "boxes": [box_doc(b) for b in net.boxes],
        "conclusions": list(net.conclusions),
    }


def _id_key(name: str):
    head = name.rstrip("0123456789")
    tail = name[len(head) :]
    return (head, int(tail) if tail else -1)


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


def from_document(doc: dict, allow_flat_conclusions: bool = False) -> Net:
    try:
        edges = {_id(e["id"], "an edge id"): parse_label(e["label"]) for e in doc["edges"]}
        links = {
            _id(l["id"], "a link id"): Link(
                _id(l["kind"], "a link kind"),
                _ids(l["premises"], "link premises"),
                _ids(l["conclusions"], "link conclusions"),
            )
            for l in doc["links"]
        }

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
    net = Net(edges, links, boxes, conclusions)
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
    "canonical_order",
    "canonical_form",
    "nets_equal",
    "renumber",
    "save",
    "load",
    "to_document",
    "from_document",
]
