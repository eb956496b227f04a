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
from dataclasses import dataclass
from typing import Iterator, Mapping

from .formula import (
    Bottom,
    Formula,
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
    text = text.strip()
    if text.startswith("%"):
        return Label(parse_formula(text[1:]), flat=True)
    return Label(parse_formula(text))


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


class _Canonicalizer:
    """Assigns canonical numbers to links, invariant under id renaming and
    under permutation of unordered premise lists and box auxiliary lists.

    Two phases: an iterated color refinement separates links by structure
    (with the declared conclusion positions as anchors), then an anchored
    depth-first traversal numbers the links, ordering unordered ports by
    edge label and refined color.  Exact color ties among unnumbered
    neighbours fall back to independent recursive encodings."""

    def __init__(self, net: Net):
        self.net = net
        self.glob: dict[str, int] = {}
        self.order: list[str] = []
        self.conclusion_pos = {e: i for i, e in enumerate(net.conclusions)}
        self.lab = {e: label_str(lab) for e, lab in net.edges.items()}
        self.color = self._refine()

    # Phase 1: color refinement ---------------------------------------------

    def _initial_color(self, lid: str):
        net = self.net
        link = net.links[lid]
        box = net.box_of_border_link(lid)
        role = ""
        if box is not None:
            role = "principal" if box.principal == lid else "aux"
        conc_anchor = tuple(
            sorted(self.conclusion_pos[e] for e in link.conclusions if e in self.conclusion_pos)
        )
        labels_prem = tuple(self.lab[e] for e in link.premises)
        if link.kind in UNORDERED_PREMISES:
            labels_prem = tuple(sorted(labels_prem))
        labels_conc = tuple(self.lab[e] for e in link.conclusions)
        if link.kind == "ax":
            labels_conc = tuple(sorted(labels_conc))
        return (link.kind, net.depth(lid), role, conc_anchor, labels_prem, labels_conc)

    _MAX_ROUNDS = 12

    def _refine(self) -> dict[str, int]:
        net = self.net
        keys = {lid: self._initial_color(lid) for lid in net.links}
        palette: dict = {}
        color = {lid: palette.setdefault(keys[lid], len(palette)) for lid in net.links}
        # Precompute the port structure: (label, neighbour link or None,
        # slot descriptor) per premise/conclusion; only colors vary below.
        ports: dict[str, tuple] = {}
        for lid, link in net.links.items():
            prem = tuple(
                (self.lab[e],) + self._neighbor_slot(e, True) for e in link.premises
            )
            conc = tuple(
                (self.lab[e],) + self._neighbor_slot(e, False) for e in link.conclusions
            )
            ports[lid] = (link.kind in UNORDERED_PREMISES, link.kind == "ax", prem, conc)
        width = len(set(color.values()))
        for _ in range(min(len(net.links) + 1, self._MAX_ROUNDS)):
            palette = {}
            new: dict[str, int] = {}
            for lid in net.links:
                unordered, is_ax, prem, conc = ports[lid]
                ps = [
                    (lab, color[other] if other is not None else -1, slot)
                    for (lab, other, slot) in prem
                ]
                if unordered:
                    ps.sort()
                cs = [
                    (lab, color[other] if other is not None else -1, slot)
                    for (lab, other, slot) in conc
                ]
                if is_ax:
                    cs.sort()
                new[lid] = palette.setdefault((color[lid], tuple(ps), tuple(cs)), len(palette))
            new_width = len(set(new.values()))
            if new_width == width:
                return new
            color = new
            width = new_width
        return color

    def _neighbor_slot(self, eid: str, towards_producer: bool) -> tuple:
        net = self.net
        other = net.producer(eid) if towards_producer else net.consumer(eid)
        if other is None:
            return (None, ("pending", self.conclusion_pos[eid]))
        link = net.links[other]
        if eid in link.premises:
            slot = ("u", -1) if link.kind in UNORDERED_PREMISES else ("p", link.premises.index(eid))
        else:
            slot = ("c", -1) if link.kind == "ax" else ("c", link.conclusions.index(eid))
        return (other, slot)

    # Phase 2: anchored numbering --------------------------------------------

    def number(self) -> dict[str, int]:
        net = self.net
        for eid in net.conclusions:
            prod = net.producer(eid)
            if prod not in self.glob:
                self._walk_link(prod)
        remaining = sorted(
            (lid for lid in net.links if lid not in self.glob),
            key=lambda lid: (self.color[lid], self._encode(lid, None)),
        )
        for lid in remaining:
            if lid not in self.glob:
                self._walk_link(lid)
        return self.glob

    def _walk_link(self, start: str) -> None:
        stack = [start]
        while stack:
            cur = stack.pop()
            if cur in self.glob:
                continue
            self.glob[cur] = len(self.order)
            self.order.append(cur)
            nexts: list[str] = []
            for eid, upward in self._ports(cur):
                other = self.net.producer(eid) if upward else self.net.consumer(eid)
                if other is not None and other not in self.glob:
                    nexts.append(other)
            stack.extend(reversed(nexts))

    def _ports(self, lid: str) -> list[tuple[str, bool]]:
        link = self.net.links[lid]
        if link.kind in UNORDERED_PREMISES:
            prem = self._sort_edges(link.premises, True)
        else:
            prem = list(link.premises)
        if link.kind == "ax":
            conc = self._sort_edges(link.conclusions, False)
        else:
            conc = list(link.conclusions)
        return [(e, True) for e in prem] + [(e, False) for e in conc]

    def _sort_edges(self, edges: tuple[str, ...], towards_producer: bool) -> list[str]:
        def quick(eid: str):
            net = self.net
            other = net.producer(eid) if towards_producer else net.consumer(eid)
            if other is None:
                return (self.lab[eid], 0, ("pending", self.conclusion_pos[eid]), -1)
            assigned = self.glob.get(other)
            return (
                self.lab[eid],
                1 if assigned is None else 0,
                ("n", self.color[other]) if assigned is None else ("g", assigned),
                0,
            )

        groups: dict = {}
        for e in edges:
            groups.setdefault(quick(e), []).append(e)
        out: list[tuple] = []
        for key, members in groups.items():
            if len(members) == 1:
                out.append((key, (), members[0]))
            else:
                for e in members:
                    other = (
                        self.net.producer(e) if towards_producer else self.net.consumer(e)
                    )
                    deep = self._encode(other, e) if other is not None else ()
                    out.append((key, deep, e))
        out.sort(key=lambda item: (item[0], item[1]))
        return [e for _, _, e in out]

    def _encode(self, lid: str | None, via: str | None):
        """Independent structural encoding used only to break exact ties.
        Global numbers anchor the walk; inner unordered ports are ordered by
        label and color, which suffices at this depth."""
        if lid is None:
            return ()
        local: dict[str, int] = {}
        net = self.net

        def enc(cur: str, came: str | None):
            if cur in self.glob:
                return ("G", self.glob[cur])
            if cur in local:
                return ("L", local[cur])
            local[cur] = len(local)
            link = net.links[cur]
            items: list = [link.kind, self.color[cur]]
            prem = [e for e in link.premises if e != came]
            conc = [e for e in link.conclusions if e != came]
            if link.kind in UNORDERED_PREMISES:
                prem = sorted(prem, key=lambda e: (self.lab[e], self._peek_color(e, True)))
            if link.kind == "ax":
                conc = sorted(conc, key=lambda e: (self.lab[e], self._peek_color(e, False)))
            for e in prem:
                items.append(("p", self.lab[e], self._follow(enc, e, True)))
            for e in conc:
                items.append(("c", self.lab[e], self._follow(enc, e, False)))
            return ("N", tuple(items))

        return enc(lid, via)

    def _peek_color(self, eid: str, towards_producer: bool):
        net = self.net
        other = net.producer(eid) if towards_producer else net.consumer(eid)
        if other is None:
            return ("pending", self.conclusion_pos[eid])
        return ("c", self.color[other])

    def _follow(self, enc, eid: str, towards_producer: bool):
        net = self.net
        other = net.producer(eid) if towards_producer else net.consumer(eid)
        if other is None:
            return ("pending", self.conclusion_pos[eid])
        return enc(other, eid)


def canonical_order(net: Net) -> dict[str, int]:
    """Canonical rank of every link; stable under id renaming and under
    permutation of unordered premise lists and box auxiliary lists."""
    return _Canonicalizer(net).number()


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
    unordered structure.  Conclusion order and labels are significant."""
    rank = canonical_order(net)
    edge_rank: dict[str, int] = {}
    by_rank = sorted(net.links, key=lambda lid: rank[lid])

    def edge_key(eid: str):
        cons = net.consumer(eid)
        if cons is None:
            return (1, net.conclusions.index(eid), 0)
        link = net.links[cons]
        pos = link.premises.index(eid)
        return (0, rank[cons], pos)

    for lid in by_rank:
        link = net.links[lid]
        conclusions = link.conclusions
        if link.kind == "ax":
            conclusions = tuple(sorted(conclusions, key=lambda e: (str(net.edges[e]), edge_key(e))))
        for eid in conclusions:
            edge_rank[eid] = len(edge_rank)

    def fmt_edge(eid: str) -> list:
        return [edge_rank[eid], str(net.edges[eid])]

    links_out = []
    for lid in by_rank:
        link = net.links[lid]
        prem = [edge_rank[e] for e in link.premises]
        if link.kind in UNORDERED_PREMISES:
            prem = sorted(prem)
        conc = sorted(edge_rank[e] for e in link.conclusions) if link.kind == "ax" else [
            edge_rank[e] for e in link.conclusions
        ]
        links_out.append([rank[lid], link.kind, prem, conc])

    def fmt_box(box: Box) -> list:
        return [
            rank[box.principal],
            sorted(rank[a] for a in box.auxiliaries),
            sorted(rank[c] for c in box.contents),
            sorted((fmt_box(ch) for ch in box.children)),
        ]

    doc = {
        "conclusions": [fmt_edge(e) for e in net.conclusions],
        "edges": sorted([edge_rank[e], str(net.edges[e])] for e in net.edges),
        "links": sorted(links_out),
        "boxes": sorted(fmt_box(b) for b in net.boxes),
    }
    return json.dumps(doc, separators=(",", ":")).encode()


def nets_equal(a: Net, b: Net) -> bool:
    """Equality up to id renaming and reordering of unordered structure.

    The canonical byte form decides almost every comparison.  The anchored
    canonicalization can, rarely, assign different forms to genuinely
    isomorphic nets whose symmetric pieces tie under color refinement, so a
    byte mismatch falls back to an exact isomorphism check."""
    if canonical_form(a) == canonical_form(b):
        return True
    if len(a.links) != len(b.links) or len(a.edges) != len(b.edges):
        return False
    if [label_str(a.edges[e]) for e in a.conclusions] != [
        label_str(b.edges[e]) for e in b.conclusions
    ]:
        return False
    if sorted(label_str(l) for l in a.edges.values()) != sorted(
        label_str(l) for l in b.edges.values()
    ):
        return False
    return _isomorphic(a, b)


def _isomorphic(a: Net, b: Net) -> bool:
    import networkx as nx

    def to_graph(net: Net) -> "nx.MultiGraph":
        g = nx.MultiGraph()
        for lid, lk in net.links.items():
            box = net.box_of_border_link(lid)
            role = "" if box is None else ("principal" if box.principal == lid else "aux")
            g.add_node(("l", lid), kind=lk.kind, depth=net.depth(lid), role=role)
        for i, e in enumerate(net.conclusions):
            g.add_node(("c", i), kind=f"conclusion{i}", depth=-1, role="")
            g.add_edge(("l", net.producer(e)), ("c", i), label=label_str(net.edges[e]), slot="c")
        for e in net.edges:
            cons = net.consumer(e)
            if cons is None:
                continue
            lk = net.links[cons]
            slot = "u" if lk.kind in UNORDERED_PREMISES else str(lk.premises.index(e))
            g.add_edge(
                ("l", net.producer(e)), ("l", cons), label=label_str(net.edges[e]), slot=slot
            )
        # The box forest: one node per box, wired to its border and to the
        # child boxes, so the partition must match too.
        def add_box(box: Box, parent) -> None:
            node = ("b", box.principal)
            g.add_node(node, kind="box", depth=-1, role="")
            g.add_edge(node, ("l", box.principal), label="", slot="principal")
            for aux in box.auxiliaries:
                g.add_edge(node, ("l", aux), label="", slot="aux")
            if parent is not None:
                g.add_edge(node, parent, label="", slot="nest")
            for child in box.children:
                add_box(child, node)

        for box in net.boxes:
            add_box(box, None)
        return g

    nm = nx.algorithms.isomorphism.categorical_node_match(["kind", "depth", "role"], ["", 0, ""])
    em = nx.algorithms.isomorphism.categorical_multiedge_match(["label", "slot"], ["", ""])
    return nx.is_isomorphic(to_graph(a), to_graph(b), node_match=nm, edge_match=em)


def renumber(net: Net) -> Net:
    """Rebuild the net with canonical sequential ids (l0,l1,... / e0,e1,...).
    Saving a renumbered net is deterministic across independent builds."""
    rank = canonical_order(net)
    link_name = {lid: f"l{rank[lid]}" for lid in net.links}
    by_rank = sorted(net.links, key=lambda lid: rank[lid])
    edge_name: dict[str, str] = {}
    counter = 0
    for lid in by_rank:
        for eid in net.links[lid].conclusions:
            edge_name[eid] = f"e{counter}"
            counter += 1
    links = {
        link_name[lid]: Link(
            lk.kind,
            tuple(edge_name[e] for e in lk.premises),
            tuple(edge_name[e] for e in lk.conclusions),
        )
        for lid, lk in net.links.items()
    }
    edges = {edge_name[e]: lab for e, lab in net.edges.items()}

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


def from_document(doc: dict, allow_flat_conclusions: bool = False) -> Net:
    try:
        edges = {e["id"]: parse_label(e["label"]) for e in doc["edges"]}
        links = {
            l["id"]: Link(l["kind"], tuple(l["premises"]), tuple(l["conclusions"]))
            for l in doc["links"]
        }

        def parse_box(b: dict) -> Box:
            children = tuple(parse_box(ch) for ch in b.get("boxes", []))
            contents = set(b.get("contents", []))
            for ch in children:
                contents |= set(ch.border()) | ch.contents
            return Box(
                b["principal"],
                tuple(b.get("auxiliaries", [])),
                frozenset(contents),
                children,
            )

        boxes = tuple(parse_box(b) for b in doc.get("boxes", []))
        conclusions = tuple(doc.get("conclusions", []))
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
