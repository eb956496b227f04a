"""Cut-elimination engine: redex discovery, the five step families,
normalization strategies, and residue tracking.

``normalize`` loads the net into the one mutable net, ``_Workspace``,
and reduces it there with ``_reduce``, which the interactive check also
runs on a workspace it fills itself.  The workspace owns the links and
edges, their producer and consumer maps, the box tree with each link's
place in it, and the counter behind new ids e<n> and l<n>; a step edits
them in place around its cut and records its lift map, and the immutable
``Net`` is built once, at the end.  The trace composes the lift maps
forward, once, when an id is first lifted to the input.  ``apply_step``
runs the same step code on a fresh workspace and freezes after one step.

The sequent rules in ``builder``, the rewrite steps and the transforms
all edit a net through the workspace.  A link's location is the box it
sits in or on whose border it sits, or None at the top, and its kind
gives its role there, as ``validate`` requires: an of-course link is the
box's principal, a pax link an auxiliary, any other link a direct link.
``_place`` applies this rule and ``remove_link`` undoes it; ``add_link``
adds a link and places it, ``open_box`` opens an empty box whose border
links are added afterwards, and ``remove_box`` removes a box whole.
Loading a net, absorbing one beside the net already there (renamed on a
clash, as the builder's juxtaposition wants), copying a box's contents in
the exponential step, ``shift_net`` here and ``eta_expand`` and
``bullet_net`` in ``interactive`` all go through these; only taking a box
and the builder's promotion move links between boxes themselves.
``box_place`` reads a link's box role back, as the isomorphism walk in
``net`` compares it.

Cuts wait in a priority worklist.  A cut is classified by its premise
producers (the shared ``_family``, which ``find_redexes`` also uses) when
it enters; after a step only the cuts it created and the cut whose premise
an axiom step rewired are classified again.  The key of a cut depends on
the strategy:

- ``lo`` (leftmost-outermost): the cut's rank.  The input's cuts are ranked
  by one ``traversal_order`` of the input net, which a lone input cut
  skips: every later rank extends its rank.  A cut a step creates
  inherits the rank of the cut it replaces (the redex, or, for a copy of a
  box, the original cut inside it) followed by its position among the
  step's new cuts, so ranks stay distinct and deterministic.  A cut that
  moves with its box keeps its id and its rank.
- ``in`` (innermost): the deepest cut first, its depth read from the
  workspace's location map, then rank.  No cut waits inside a box that
  moves: its cuts are deeper than the redex, so they went first.
- ``level``: the lowest level first, then rank.  A cut's level is that of
  its first premise under a plain indexing of the input net, shifted to
  start at zero in each indexing component and carried to new edges along
  each step's lift map, as ``transport_indexing`` does; all levels are zero
  when the input has no plain indexing.

Confluence makes the normal form independent of the strategy; the strategy
only shapes the trace.

The exponential step is implemented in full generality.  A why-not premise
may reach its flat link through a chain of pax ports (the flat then lives
inside those boxes), and a box auxiliary wire may exit through the pax
ports of enclosing boxes before meeting the why-not that consumes it.  When
the why-not has one premise, the step takes the box: its contents move
next to the flat under their own ids (each direct link changes place and
each child box its parent; nothing deeper is visited), every auxiliary wire leaves through new pax ports on the
flat's chain and rejoins its own chain down to its why-not, and only the
box's border goes.  Otherwise the step places one copy of the box
contents next to each flat, re-routes every copied auxiliary wire through
fresh pax chains, merges the wires into the original target why-not
links, and removes the box; with no premise it only removes it.  Either
way each wire ends its why-not's premises.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

from .correctness import BudgetExceeded, Indexing, PreconditionError, _propagate
from .formula import Paragraph, shift_formula
from .net import Box, Label, Link, Net, traversal_order

DEFAULT_STEP_BUDGET = 1_000_000

STEP_AXIOM = "axiom"
STEP_UNIT = "unit"
STEP_MULT = "multiplicative"
STEP_EXP = "exponential"
STEP_PARG = "paragraph"

@dataclass(frozen=True)
class Redex:
    cut: str
    kind: str


@dataclass(frozen=True)
class Step:
    redex: Redex
    lift: dict[str, str]  # result id -> source id; identity entries omitted


@dataclass(frozen=True)
class RewriteTrace:
    steps: tuple[Step, ...]

    def to_document(self) -> list:
        return [
            {"cut": s.redex.cut, "kind": s.redex.kind, "lift": dict(sorted(s.lift.items()))}
            for s in self.steps
        ]

    @cached_property
    def _source(self) -> dict[str, str]:
        """Each id a step made -> the input id it lifts to, composed once."""
        source: dict[str, str] = {}
        for step in self.steps:
            source.update({new: source.get(old, old) for new, old in step.lift.items()})
        return source

    def lift_to_source(self, x: str) -> str:
        return self._source.get(x, x)


# Keyed by the premise producers' kinds, in either order.
_FAMILIES = {
    ("one", "bot"): STEP_UNIT, ("bot", "one"): STEP_UNIT,
    ("tensor", "par"): STEP_MULT, ("par", "tensor"): STEP_MULT,
    ("ofcourse", "whynot"): STEP_EXP, ("whynot", "ofcourse"): STEP_EXP,
    ("paragraph", "paragraph"): STEP_PARG,
}


def _family(kind1: str, kind2: str) -> str | None:
    """Step family of a cut whose premises are produced by links of these
    kinds; an axiom producer always makes an axiom step."""
    if kind1 == "ax" or kind2 == "ax":
        return STEP_AXIOM
    return _FAMILIES.get((kind1, kind2))


def find_redexes(net: Net) -> list[Redex]:
    """One redex per cut whose premise producers match a step pattern.
    In a well-typed net every cut matches; an axiom producer always makes
    an axiom step."""
    out = []
    for lid in sorted(net.links):
        link = net.links[lid]
        if link.kind == "cut":
            kind = _family(*(net.links[net.producer(p)].kind for p in link.premises))
            if kind is not None:
                out.append(Redex(lid, kind))
    return out


# -- the mutable net ------------------------------------------------------------


class _MBox:
    __slots__ = ("principal", "auxiliaries", "direct", "children", "parent")

    def __init__(self, parent: "_MBox | None"):
        self.principal = ""
        self.auxiliaries: list[str] = []
        self.direct: dict[str, None] = {}  # insertion-ordered set
        self.children: list[_MBox] = []
        self.parent = parent


class _Workspace:
    """The one mutable net: the sequent rules in ``builder`` build on it,
    the reduction steps and the transforms edit it in place, and ``freeze``
    builds the immutable ``Net``, handing on ``mark``, the counter behind
    new ids e<n> and l<n>.  Each link's location, ``loc[lid]``, is its box
    or None at the top; its kind gives its role there.  ``step`` resets
    ``lift`` (the step's new ids -> their sources) and ``touched`` (the
    cuts the step put, each with the cut whose rank it inherits, or None
    when a rewired cut keeps its own); ``queued`` holds the redexes waiting
    in ``normalize``.  A box lists its direct links in insertion order, so
    no order in the workspace depends on the hash seed."""

    def __init__(self, net: Net | None = None):
        self.edges: dict[str, Label] = {}
        self.links: dict[str, Link] = {}
        self.producer: dict[str, str] = {}
        self.consumer: dict[str, str] = {}
        self.conclusions: list[str] = []
        self.lift: dict[str, str] = {}
        self.touched: list[tuple[str, str | None]] = []
        self.queued: dict[str, tuple[tuple, str]] = {}  # cut -> (key, step family)
        self.roots: list[_MBox] = []
        self.loc: dict[str, _MBox | None] = {}
        self._serial = 0
        self.mark: int | None = None
        self._start = net
        if net is not None:
            self.absorb(net)
            self.mark = None

    # identifiers ------------------------------------------------------------

    def id_mark(self) -> int:
        """The counter's next n, past every id e<n> and l<n> here; read
        first, it is the loaded net's mark, and unread, none is handed on."""
        if self.mark is None:
            self.mark = 0 if self._start is None else self._start.id_mark()
        return self.mark

    def new_id(self, prefix: str) -> str:
        self.mark = self.id_mark() + 1
        return f"{prefix}{self.mark - 1}"

    def fresh(self, base: str, tag: str) -> str:
        name = f"{base}~{tag}"
        while name in self.edges or name in self.links:
            self._serial += 1
            name = f"{base}~{tag}.{self._serial}"
        return name

    def absorb(self, other: Net | _Workspace) -> _Workspace:
        """Juxtaposition, and the loader: the other net's parts go after
        this one's, wiring included, its boxes (outermost first, each with
        its border) after the boxes at the top.  Only when one of its ids is
        taken here are all of them renamed, edges first, then links,
        counting on from the larger of the two marks."""
        self.mark = max(self.id_mark(), other.id_mark())
        edges, links, conclusions = other.edges, other.links, other.conclusions
        if isinstance(other, Net):
            producer, consumer, roots, enclosing = other._producer, other._consumer, other.boxes, other._enclosing
            around = lambda lid: enclosing[lid][-1] if enclosing[lid] else None
        else:
            producer, consumer, roots, around = other.producer, other.consumer, other.roots, other.loc.__getitem__
        lmap: dict[str, str] = {}
        if not (self.edges.keys().isdisjoint(edges) and self.links.keys().isdisjoint(links)):
            n = self.mark
            emap = {e: f"e{i}" for i, e in enumerate(edges, n)}
            lmap = {l: f"l{i}" for i, l in enumerate(links, n + len(emap))}
            self.mark = n + len(emap) + len(lmap)
            rename = emap.__getitem__
            edges = {emap[e]: lab for e, lab in edges.items()}
            links = {
                lmap[l]: Link(lk.kind, tuple(map(rename, lk.premises)), tuple(map(rename, lk.conclusions)))
                for l, lk in links.items()
            }
            producer = {emap[e]: lmap[l] for e, l in producer.items()}
            consumer = {emap[e]: lmap[l] for e, l in consumer.items()}
            conclusions = map(rename, conclusions)
        self.edges.update(edges)
        self.links.update(links)
        self.producer.update(producer)
        self.consumer.update(consumer)
        self.conclusions += conclusions
        opened: dict[int, _MBox] = {}  # by id: a Box hashes its whole subtree
        stack = [(box, None) for box in reversed(roots)]
        while stack:  # parents before children
            box, parent = stack.pop()
            mb = opened[id(box)] = self.open_box(parent)
            for lid in (box.principal, *box.auxiliaries):
                self._place(lmap.get(lid, lid), mb, other.links[lid].kind)
            stack += ((child, mb) for child in reversed(box.children))
        for lid, new in zip(other.links, links):
            if new not in self.loc:
                box = around(lid)
                self._place(new, None if box is None else opened[id(box)], links[new].kind)
        return self

    # queries ------------------------------------------------------------------

    def kind_of_producer(self, edge: str) -> str:
        return self.links[self.producer[edge]].kind

    def family(self, cut: str) -> str | None:
        return _family(*(self.kind_of_producer(p) for p in self.links[cut].premises))

    def depth(self, lid: str) -> int:
        """Number of boxes around a link that is not on a box border."""
        d, mb = 0, self.loc[lid]
        while mb is not None:
            d, mb = d + 1, mb.parent
        return d

    def box_place(self, lid: str) -> tuple[int, str | None]:
        """``net._box_place`` read off the location map: the link's box role
        (0 plain, 1 box principal, 2 box auxiliary) and the principal of the
        box it borders as an auxiliary, else of the innermost box around it."""
        mb = self.loc[lid]
        if mb is None:
            return 0, None
        kind = self.links[lid].kind
        if kind == "pax":
            return 2, mb.principal
        if kind == "ofcourse":
            return 1, None if mb.parent is None else mb.parent.principal
        return 0, mb.principal

    # structural edits --------------------------------------------------------

    def put_link(self, lid: str, link: Link, origin: str | None = None) -> None:
        """Add a link or replace its ports, keeping producer and consumer
        maps; a cut is recorded in ``touched`` with its rank origin."""
        links = self.links
        old = links.get(lid)
        if old is not None:
            self._unhook(lid, old)
        links[lid] = link
        consumer, producer = self.consumer, self.producer
        for e in link.premises:
            consumer[e] = lid
        for e in link.conclusions:
            producer[e] = lid
        if link.kind == "cut":
            self.touched.append((lid, origin))

    def _unhook(self, lid: str, link: Link) -> None:
        consumer, producer = self.consumer, self.producer
        for e in link.premises:
            if consumer.get(e) == lid:
                del consumer[e]
        for e in link.conclusions:
            if producer.get(e) == lid:
                del producer[e]

    def add_link(self, lid: str, link: Link, box: _MBox | None, origin: str | None = None) -> None:
        """Add a link in a box, or at the top, which also places it there."""
        self.put_link(lid, link, origin)
        self._place(lid, box, link.kind)

    def _place(self, lid: str, box: _MBox | None, kind: str) -> None:
        """Put a link in a box, or at the top with None; in a box an
        of-course link becomes its principal, a pax link its next auxiliary
        and any other link a direct link.  ``remove_link`` undoes it."""
        self.loc[lid] = box
        if box is not None:
            if kind == "ofcourse":
                box.principal = lid
            elif kind == "pax":
                box.auxiliaries.append(lid)
            else:
                box.direct[lid] = None

    def open_box(self, parent: _MBox | None) -> _MBox:
        """An empty box in a box, or at the top with None; its border links
        are added afterwards, in the new box."""
        mb = _MBox(parent)
        (self.roots if parent is None else parent.children).append(mb)
        return mb

    def remove_link(self, lid: str) -> None:
        box = self.loc.pop(lid)
        link = self.links.pop(lid)
        kind = link.kind
        if box is not None:
            if kind == "ofcourse":
                box.principal = ""
            elif kind == "pax":
                box.auxiliaries.remove(lid)
            else:
                del box.direct[lid]
        self._unhook(lid, link)
        if kind == "cut":
            self.queued.pop(lid, None)

    def remove_edge(self, e: str) -> None:
        del self.edges[e]

    def remove_box(self, mb: _MBox) -> None:
        """Remove a box with its border links, everything inside it and the
        edges those links conclude."""
        stack = [mb]
        while stack:
            box = stack.pop()
            for lid in [box.principal, *box.auxiliaries, *box.direct]:
                for e in self.links[lid].conclusions:
                    self.remove_edge(e)
                self.remove_link(lid)
            stack += reversed(box.children)
        (mb.parent.children if mb.parent is not None else self.roots).remove(mb)

    # one step --------------------------------------------------------------------

    def step(self, redex: Redex) -> None:
        """Apply one cut-elimination step in place."""
        self.lift, self.touched, self._serial = {}, [], 0
        cut = redex.cut
        p1, p2 = self.links[cut].premises
        k1 = self.kind_of_producer(p1)
        if redex.kind == STEP_AXIOM:
            # Prefer the lexicographically first axiom for determinism when
            # both producers are axioms.
            pa = min(p for p in (p1, p2) if self.kind_of_producer(p) == "ax")
            _axiom_step(self, cut, pa, p2 if pa == p1 else p1)
        elif redex.kind == STEP_UNIT:
            _unit_step(self, cut, p1, p2)
        elif redex.kind == STEP_MULT:
            if k1 != "tensor":
                p1, p2 = p2, p1
            _mult_step(self, cut, p1, p2)
        elif redex.kind == STEP_PARG:
            _paragraph_step(self, cut, p1, p2)
        elif redex.kind == STEP_EXP:
            if k1 != "ofcourse":
                p1, p2 = p2, p1
            _exponential_step(self, cut, p1, p2)
        else:
            raise StepError(f"unknown step kind {redex.kind}")

    def freeze(self) -> Net:
        order, stack = [], self.roots[::-1]
        while stack:  # every box, parents before children
            order.append(stack.pop())
            stack += reversed(order[-1].children)
        built: dict[_MBox, Box] = {}
        for mb in reversed(order):  # each box after the boxes inside it
            children = tuple(map(built.__getitem__, mb.children))
            total: set[str] = set(mb.direct)
            for cb in children:
                total |= cb.contents
                total.update(cb.border())
            built[mb] = Box(mb.principal, tuple(mb.auxiliaries), frozenset(total), children)
        boxes = tuple(map(built.__getitem__, self.roots))
        wired = dict(self.producer), dict(self.consumer)
        return Net(self.edges, self.links, boxes, tuple(self.conclusions), self.mark, _wired=wired)


# -- the five step families ---------------------------------------------------


class StepError(RuntimeError):
    pass


def apply_step(net: Net, redex: Redex) -> tuple[Net, dict[str, str]]:
    """Apply one cut-elimination step; returns the new net and the lift map
    (result link/edge id -> source id, identity entries omitted)."""
    ws = _Workspace(net)
    ws.step(redex)
    return ws.freeze(), ws.lift


def _axiom_step(ws: _Workspace, cut: str, pa: str, pb: str) -> None:
    ax_id = ws.producer[pa]
    ax = ws.links[ax_id]
    other = ax.conclusions[0] if ax.conclusions[1] == pa else ax.conclusions[1]
    if other == pb:
        raise StepError("axiom cut with itself; the net cannot be switching-acyclic")
    consumer = ws.consumer.get(other)
    ws.remove_link(cut)
    ws.remove_link(ax_id)
    ws.remove_edge(pa)
    if consumer is None:
        pos = ws.conclusions.index(other)
        ws.conclusions[pos] = pb
    else:
        lk = ws.links[consumer]
        ws.put_link(
            consumer,
            Link(lk.kind, tuple(pb if e == other else e for e in lk.premises), lk.conclusions),
        )
    ws.remove_edge(other)


def _unit_step(ws: _Workspace, cut: str, p1: str, p2: str) -> None:
    for p in (p1, p2):
        ws.remove_link(ws.producer[p])
        ws.remove_edge(p)
    ws.remove_link(cut)


def _mult_step(ws: _Workspace, cut: str, pt: str, pp: str) -> None:
    tid = ws.producer[pt]
    pid = ws.producer[pp]
    tens = ws.links[tid]
    par = ws.links[pid]
    where = ws.loc[cut]
    ws.remove_link(cut)
    ws.remove_link(tid)
    ws.remove_link(pid)
    ws.remove_edge(pt)
    ws.remove_edge(pp)
    for i in range(2):
        ws.add_link(ws.fresh(cut, f"m{i}"), Link("cut", (tens.premises[i], par.premises[i]), ()), where, cut)


def _paragraph_step(ws: _Workspace, cut: str, p1: str, p2: str) -> None:
    l1 = ws.producer[p1]
    l2 = ws.producer[p2]
    where = ws.loc[cut]
    prem1 = ws.links[l1].premises[0]
    prem2 = ws.links[l2].premises[0]
    ws.remove_link(cut)
    ws.remove_link(l1)
    ws.remove_link(l2)
    ws.remove_edge(p1)
    ws.remove_edge(p2)
    ws.add_link(ws.fresh(cut, "p"), Link("cut", (prem1, prem2), ()), where, cut)


# Exponential step helpers ----------------------------------------------------


def _trace_up(ws: _Workspace, premise: str) -> tuple[list[_MBox], str]:
    """From a why-not premise up through pax ports to the producing flat.
    Returns the boxes whose border is crossed (outermost first) and the
    flat link id."""
    boxes: list[_MBox] = []
    e = premise
    while True:
        prod = ws.producer[e]
        kind = ws.links[prod].kind
        if kind == "flat":
            return boxes, prod
        if kind != "pax":
            raise StepError(f"why-not premise {premise} is produced by a {kind} link")
        boxes.append(ws.loc[prod])
        e = ws.links[prod].premises[0]


def _trace_down(ws: _Workspace, pax_conclusion: str) -> tuple[list[tuple[_MBox, str, str]], str]:
    """From a box auxiliary conclusion down through pax ports to the why-not
    that consumes the wire.  Returns [(box, pax id, its conclusion edge)]
    and the target why-not id."""
    chain: list[tuple[_MBox, str, str]] = []
    e = pax_conclusion
    while True:
        consumer = ws.consumer.get(e)
        if consumer is None:
            raise PreconditionError(
                "a box auxiliary wire reaches a net conclusion; the exponential "
                "step needs every flat wire consumed"
            )
        kind = ws.links[consumer].kind
        if kind == "whynot":
            return chain, consumer
        if kind != "pax":
            raise StepError(f"auxiliary wire {pax_conclusion} feeds a {kind} link")
        out_edge = ws.links[consumer].conclusions[0]
        chain.append((ws.loc[consumer], consumer, out_edge))
        e = out_edge


def _copy_contents(ws: _Workspace, box: _MBox, where: _MBox | None, tag: str) -> dict[str, str]:
    """Copy the subnet inside a box (everything but its own border) into a
    box or the top, opening a copy of each box inside it; returns the edge map."""
    placed = [(lid, where) for lid in box.direct]
    stack = [(child, where) for child in reversed(box.children)]
    while stack:
        child, at = stack.pop()
        nb = ws.open_box(at)
        placed.extend((lid, nb) for lid in (child.principal, *child.auxiliaries, *child.direct))
        stack += ((grandchild, nb) for grandchild in reversed(child.children))
    link_map = {lid: ws.fresh(lid, tag) for lid, _ in placed}
    edge_map = {e: ws.fresh(e, tag) for lid in link_map for e in ws.links[lid].conclusions}
    for lid, at in placed:
        lk = ws.links[lid]
        premises = tuple(edge_map.get(e, e) for e in lk.premises)
        ws.add_link(link_map[lid], Link(lk.kind, premises, tuple(edge_map[e] for e in lk.conclusions)), at, lid)
        ws.lift[link_map[lid]] = lid
    for e, new_e in edge_map.items():
        ws.edges[new_e] = ws.edges[e]
        ws.lift[new_e] = e
    return edge_map


def _exponential_step(ws: _Workspace, cut: str, p_oc: str, p_wn: str) -> None:
    links = ws.links
    oc_id = ws.producer[p_oc]
    wn_id = ws.producer[p_wn]
    box = ws.loc[oc_id]
    if box is None:
        raise StepError("of-course link without a box")
    premises = list(links[wn_id].premises)

    # Resolve both sides of the wiring before any mutation.
    ups = [_trace_up(ws, p) for p in premises]
    for up_boxes, _ in ups:
        if box in up_boxes:
            raise StepError("box feeds its own cut partner; not switching-acyclic")
    aux_info = []
    for pax_id in box.auxiliaries:
        q = links[pax_id].conclusions[0]
        u = links[pax_id].premises[0]
        down_chain, target_wn = _trace_down(ws, q)
        if target_wn == wn_id:
            raise StepError("auxiliary wire reaches the cut partner; not switching-acyclic")
        aux_info.append((pax_id, u, q, down_chain, target_wn))

    oc_premise = links[oc_id].premises[0]  # the A conclusion of the contents
    if len(ups) == 1:
        _take_box(ws, cut, box, ups[0], oc_premise, aux_info)
    else:
        _copy_box(ws, cut, box, ups, oc_premise, aux_info)
    ws.remove_link(cut)
    ws.remove_link(wn_id)
    ws.remove_edge(p_wn)
    for e in premises:
        _remove_up_chain(ws, e)


def _take_box(
    ws: _Workspace, cut: str, box: _MBox, up: tuple[list[_MBox], str], oc_premise: str, aux_info: list
) -> None:
    """The step for a why-not with one premise: the box's contents move to
    the flat's place under their own ids, and each auxiliary wire leaves
    through new pax links on the flat's up-chain and rejoins the pax chain
    it had down to its why-not.  Only the box's border goes."""
    links, loc = ws.links, ws.loc
    up_boxes, flat_id = up
    where = loc[flat_id]
    for lid in box.direct:
        loc[lid] = where
    if where is None:
        ws.roots += box.children
    else:
        where.direct.update(box.direct)
        where.children += box.children
    for child in box.children:
        child.parent = where
    # A moved cut keeps its id and its queue key: its rank and its level
    # do not change, and under ``in`` no cut waits inside the box, since
    # every cut in it is deeper than the redex and went first.
    ws.add_link(ws.fresh(cut, "x0"), Link("cut", (oc_premise, links[flat_id].premises[0]), ()), where, cut)
    for pax_id, u, q, down_chain, target_wn in aux_info:
        wire, label = u, ws.edges[u]
        for mb in reversed(up_boxes):  # innermost first
            wire = _add_pax(ws, mb, wire, label, lift_to=pax_id, edge_lift=q)
        if down_chain:  # the wire enters its chain's first pax
            first = down_chain[0][1]
            ws.put_link(first, Link("pax", (wire,), links[first].conclusions))
            gone = last = down_chain[-1][2]
        else:  # the wire takes q's place
            gone, last = q, wire
        # The wire comes last among the why-not's premises, as a rebuilt
        # chain's would.
        tgt = links[target_wn]
        kept = tuple(e for e in tgt.premises if e != gone)
        ws.put_link(target_wn, Link(tgt.kind, kept + (last,), tgt.conclusions))
        ws.remove_link(pax_id)
        ws.remove_edge(q)
    oc_id = box.principal
    ws.remove_edge(links[oc_id].conclusions[0])
    ws.remove_link(oc_id)
    (ws.roots if box.parent is None else box.parent.children).remove(box)


def _copy_box(ws: _Workspace, cut: str, box: _MBox, ups: list, oc_premise: str, aux_info: list) -> None:
    """The step for a why-not with no premise or several: one copy of the
    box's contents per premise, placed next to its flat, each auxiliary
    wire routed through a fresh pax chain down to its why-not; then the
    box goes whole."""
    links = ws.links
    # New premises to merge into each target why-not, in deterministic order.
    merged: dict[str, list[str]] = {}

    for i, (up_boxes, flat_id) in enumerate(ups):
        flat_loc = ws.loc[flat_id]
        edge_map = _copy_contents(ws, box, flat_loc, f"c{i}")
        # Cut the copied principal premise against the flat's own premise.
        a_i = links[flat_id].premises[0]
        ws.add_link(ws.fresh(cut, f"x{i}"), Link("cut", (edge_map[oc_premise], a_i), ()), flat_loc, cut)
        # Route every copied auxiliary wire out of the up-chain boxes and
        # down the original pax chain to its why-not.
        for (pax_id, u, q, down_chain, target_wn) in aux_info:
            wire = edge_map[u]
            label = ws.edges[wire]
            for mb in reversed(up_boxes):  # innermost first
                wire = _add_pax(ws, mb, wire, label, lift_to=pax_id, edge_lift=q)
            for (mb, chain_pax, chain_edge) in down_chain:
                wire = _add_pax(ws, mb, wire, label, lift_to=chain_pax, edge_lift=chain_edge)
            merged.setdefault(target_wn, []).append(wire)

    # Remove the consumed material: the original aux chains, the box and
    # the original contents (now replaced by the copies).
    for (pax_id, u, q, down_chain, target_wn) in aux_info:
        last_edge = q if not down_chain else down_chain[-1][2]
        tgt = links[target_wn]
        new_premises = tuple(e for e in tgt.premises if e != last_edge) + tuple(
            merged.pop(target_wn, [])
        )
        ws.put_link(target_wn, Link(tgt.kind, new_premises, tgt.conclusions))
        for (mb, chain_pax, chain_edge) in down_chain:
            ws.remove_link(chain_pax)
            ws.remove_edge(chain_edge)
    ws.remove_box(box)


def _remove_up_chain(ws: _Workspace, e: str) -> None:
    """Remove a why-not premise's pax chain up to its flat link, with the
    edges they conclude."""
    while True:
        prod = ws.producer[e]
        link = ws.links[prod]
        ws.remove_edge(e)
        ws.remove_link(prod)
        if link.kind == "flat":
            return
        e = link.premises[0]


def _add_pax(
    ws: _Workspace,
    mb: _MBox,
    wire: str,
    label: Label,
    lift_to: str,
    edge_lift: str,
) -> str:
    pax_id = ws.fresh(lift_to, "px")
    out_edge = ws.fresh(wire, "px")
    ws.edges[out_edge] = label
    ws.add_link(pax_id, Link("pax", (wire,), (out_edge,)), mb)
    ws.lift[pax_id] = lift_to
    ws.lift[out_edge] = edge_lift
    return out_edge


# -- normalization ------------------------------------------------------------


def _plain_levels(net: Net) -> dict[str, int]:
    """Level of each edge under a plain indexing, shifted to start at zero
    in each indexing component; empty when the net has no plain indexing."""
    offset, _, comp, conflict = _propagate(net, "plain")
    if conflict is not None:
        return {}
    low: dict[str, int] = {}
    for e, v in offset.items():
        low[comp[e]] = min(low.get(comp[e], v), v)
    return {e: v - low[comp[e]] for e, v in offset.items()}


def normalize(
    net: Net,
    strategy: str = "lo",
    budget: int = DEFAULT_STEP_BUDGET,
    no_axiom: bool = False,
) -> tuple[Net, RewriteTrace]:
    """Reduce to the cut-free form (or, with no_axiom, to the fixed point of
    the non-axiom steps).  Confluence makes the result independent of the
    strategy; the strategy only shapes the trace.  A net with no redex is
    returned as is."""
    cuts = sorted(lid for lid, link in net.links.items() if link.kind == "cut")
    if not cuts:
        return net, RewriteTrace(())
    ws = _Workspace(net)
    order = traversal_order(net) if len(cuts) > 1 else {cuts[0]: 0}
    levels = _plain_levels(net) if strategy == "level" else None
    trace = _reduce(ws, {c: (order[c],) for c in cuts}, strategy, budget, no_axiom, levels)
    return (ws.freeze() if trace.steps else net), trace


def _reduce(
    ws: _Workspace, rank: dict[str, tuple], strategy="lo", budget=DEFAULT_STEP_BUDGET, no_axiom=False, levels=None
) -> RewriteTrace:
    """``normalize``'s reduction loop, in place on a workspace whose cuts
    are the keys of ``rank``; ``levels`` are the ``level`` strategy's."""

    def enqueue(cut: str) -> None:
        family = ws.family(cut)
        if family is None or (no_axiom and family == STEP_AXIOM):
            ws.queued.pop(cut, None)
            return
        if strategy == "lo":
            key = rank[cut]
        elif strategy == "in":
            key = (-ws.depth(cut), rank[cut])
        elif strategy == "level":
            key = (levels.get(ws.links[cut].premises[0], 0), rank[cut])
        else:
            raise ValueError(f"unknown strategy {strategy!r}; use lo, in, or level")
        ws.queued[cut] = (key, family)
        heapq.heappush(heap, (key, cut))

    heap: list[tuple] = []
    for c in rank:
        enqueue(c)
    steps: list[Step] = []
    while heap:
        key, cut = heapq.heappop(heap)
        hit = ws.queued.get(cut)
        if hit is None or hit[0] != key:
            continue  # the cut left the net, or waits under a newer entry
        if len(steps) >= budget:
            raise BudgetExceeded("cut-elimination steps", len(steps) + 1, budget)
        del ws.queued[cut]
        redex = Redex(cut, hit[1])
        ws.step(redex)
        steps.append(Step(redex, ws.lift))
        if levels:
            for new, src in ws.lift.items():
                if src in levels and new in ws.edges:
                    levels[new] = levels[src]
        for i, (c, origin) in enumerate(ws.touched):
            if origin is not None:
                rank[c] = rank[origin] + (i,)
            enqueue(c)
    return RewriteTrace(tuple(steps))


def normalize_no_axiom(
    net: Net, strategy: str = "lo", budget: int = DEFAULT_STEP_BUDGET
) -> tuple[Net, RewriteTrace]:
    return normalize(net, strategy=strategy, budget=budget, no_axiom=True)


# -- the shifted net ----------------------------------------------------------


def _shift_label(lab: Label) -> Label:
    if lab.flat:
        return Label(Paragraph(shift_formula(lab.formula)), flat=True)
    return Label(shift_formula(lab.formula))


def shift_net(net: Net) -> Net:
    """Insert a paragraph link above every of-course and flat link and shift
    every edge label accordingly; conclusions become their shifted forms.
    A paragraph sits where its flat link does, or inside its of-course
    link's box."""
    ws = _Workspace(net)
    for e, lab in ws.edges.items():
        ws.edges[e] = _shift_label(lab)
    shifted = sorted(lid for lid, link in net.links.items() if link.kind in ("ofcourse", "flat"))
    for serial, lid in enumerate(shifted):
        link = net.links[lid]
        prem = link.premises[0]
        eid = ws.fresh(prem, f"sh{serial}")
        ws.edges[eid] = Label(Paragraph(ws.edges[prem].formula))
        ws.put_link(lid, Link(link.kind, (eid,), link.conclusions))
        ws.add_link(ws.fresh(lid, f"sh{serial}"), Link("paragraph", (prem,), (eid,)), ws.loc[lid])
    return ws.freeze()


# -- transporting quasi-indexings ---------------------------------------------


def transport_indexing(q: Indexing, trace: RewriteTrace, target: Net) -> Indexing:
    """Compose a quasi-indexing of the trace's source with the lift maps of
    every step.  The trace must contain no axiom steps."""
    if q.flavor != "quasi":
        raise ValueError("only quasi-indexings transport along reductions")
    for step in trace.steps:
        if step.redex.kind == STEP_AXIOM:
            raise ValueError("trace contains an axiom step; quasi-indexings do not survive it")
    return Indexing({e: q.assignment[trace.lift_to_source(e)] for e in target.edges}, "quasi")


__all__ = [
    "DEFAULT_STEP_BUDGET",
    "Redex",
    "Step",
    "RewriteTrace",
    "StepError",
    "find_redexes",
    "apply_step",
    "normalize",
    "normalize_no_axiom",
    "shift_net",
    "transport_indexing",
    "STEP_AXIOM",
    "STEP_UNIT",
    "STEP_MULT",
    "STEP_EXP",
    "STEP_PARG",
]
