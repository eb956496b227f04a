"""Cut-elimination engine: redex discovery, the five step families,
normalization strategies, and residue tracking.

``normalize`` reduces one mutable net, ``_Workspace``, from start to
finish.  The workspace owns the links and edges, their producer and
consumer maps, and the box tree with each link's place in it; a step edits
them in place around its cut and records its lift map, and the immutable
``Net`` is built once, at the end.  ``apply_step`` runs the same step code
on a fresh workspace and freezes after one step.

Cuts wait in a priority worklist.  A cut is classified by its premise
producers (the shared ``_family``, which ``find_redexes`` also uses) when
it enters; after a step only the cuts it created and the cut whose premise
an axiom step rewired are classified again.  The key of a cut depends on
the strategy:

- ``lo`` (leftmost-outermost): the cut's rank.  The input's cuts are ranked
  by one ``traversal_order`` of the input net.  A cut a step creates
  inherits the rank of the cut it replaces (the redex, or, for a copy of a
  box, the original cut inside it) followed by its position among the
  step's new cuts, so ranks stay distinct and deterministic.
- ``in`` (innermost): the deepest cut first, its depth read from the
  workspace's location map, then rank.
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
ports of enclosing boxes before meeting the why-not that consumes it.  The
step therefore places each copy of the box contents next to its flat,
re-routes every copied auxiliary wire through fresh pax chains, and merges
the wires into the original target why-not links.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .correctness import BalanceWitness, BudgetExceeded, Indexing, PreconditionError
from .correctness import indexing_components, solve_indexing
from .formula import Paragraph
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

    def lift_of(self, x: str) -> str:
        return self.lift.get(x, x)


@dataclass(frozen=True)
class RewriteTrace:
    steps: tuple[Step, ...]

    def to_document(self) -> list:
        return [
            {"cut": s.redex.cut, "kind": s.redex.kind, "lift": dict(sorted(s.lift.items()))}
            for s in self.steps
        ]

    def lift_to_source(self, x: str) -> str:
        for step in reversed(self.steps):
            x = step.lift_of(x)
        return x


_FAMILIES = {
    frozenset(("one", "bot")): STEP_UNIT,
    frozenset(("tensor", "par")): STEP_MULT,
    frozenset(("ofcourse", "whynot")): STEP_EXP,
    frozenset(("paragraph",)): STEP_PARG,
}


def _family(kind1: str, kind2: str) -> str | None:
    """Step family of a cut whose premises are produced by links of these
    kinds; an axiom producer always makes an axiom step."""
    if kind1 == "ax" or kind2 == "ax":
        return STEP_AXIOM
    return _FAMILIES.get(frozenset((kind1, kind2)))


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

    def __init__(self, principal: str, auxiliaries: list[str], parent: "_MBox | None"):
        self.principal = principal
        self.auxiliaries = auxiliaries
        self.direct: set[str] = set()
        self.children: list[_MBox] = []
        self.parent = parent


class _Workspace:
    """A net under reduction, edited in place.  Each link's location is
    ("top",), ("in", box) or ("border", box).  ``step`` resets ``lift`` (the
    step's new ids -> their sources) and ``touched`` (the cuts the step put,
    each with the cut whose rank it inherits, or None when a rewired cut
    keeps its own); ``queued`` holds the redexes waiting in ``normalize``."""

    def __init__(self, net: Net):
        self.edges: dict[str, Label] = dict(net.edges)
        self.links: dict[str, Link] = dict(net.links)
        self.producer = {e: lid for lid, link in self.links.items() for e in link.conclusions}
        self.consumer = {e: lid for lid, link in self.links.items() for e in link.premises}
        self.conclusions: list[str] = list(net.conclusions)
        self.lift: dict[str, str] = {}
        self.touched: list[tuple[str, str | None]] = []
        self.queued: dict[str, tuple[tuple, str]] = {}  # cut -> (key, step family)
        self.roots: list[_MBox] = []
        self.loc: dict[str, tuple] = {lid: ("top",) for lid in net.links}
        self.box_by_principal: dict[str, _MBox] = {}
        self.box_by_pax: dict[str, _MBox] = {}
        self._serial = 0

        def build(box: Box, parent: _MBox | None) -> _MBox:
            mb = _MBox(box.principal, list(box.auxiliaries), parent)
            self.box_by_principal[box.principal] = mb
            self.loc[box.principal] = ("border", mb)
            for a in box.auxiliaries:
                self.box_by_pax[a] = mb
                self.loc[a] = ("border", mb)
            inner = box.contents
            child_ids: set[str] = set()
            for ch in box.children:
                cmb = build(ch, mb)
                mb.children.append(cmb)
                child_ids |= set(ch.contents) | set(ch.border())
            mb.direct = {lid for lid in inner if lid not in child_ids}
            for lid in mb.direct:
                self.loc[lid] = ("in", mb)
            return mb

        for b in net.boxes:
            self.roots.append(build(b, None))

    # identifiers ------------------------------------------------------------

    def fresh(self, base: str, tag: str) -> str:
        name = f"{base}~{tag}"
        while name in self.edges or name in self.links:
            self._serial += 1
            name = f"{base}~{tag}.{self._serial}"
        return name

    # queries ------------------------------------------------------------------

    def kind_of_producer(self, edge: str) -> str:
        return self.links[self.producer[edge]].kind

    def family(self, cut: str) -> str | None:
        return _family(*(self.kind_of_producer(p) for p in self.links[cut].premises))

    def depth(self, lid: str) -> int:
        """Number of boxes around a link that is not on a box border."""
        where = self.loc[lid]
        d, mb = 0, where[1] if where[0] == "in" else None
        while mb is not None:
            d, mb = d + 1, mb.parent
        return d

    # structural edits --------------------------------------------------------

    def put_link(self, lid: str, link: Link, origin: str | None = None) -> None:
        """Add a link or replace its ports, keeping producer and consumer
        maps; a cut is recorded in ``touched`` with its rank origin."""
        old = self.links.get(lid)
        if old is not None:
            self._unhook(lid, old)
        self.links[lid] = link
        for e in link.premises:
            self.consumer[e] = lid
        for e in link.conclusions:
            self.producer[e] = lid
        if link.kind == "cut":
            self.touched.append((lid, origin))

    def _unhook(self, lid: str, link: Link) -> None:
        for e in link.premises:
            if self.consumer.get(e) == lid:
                del self.consumer[e]
        for e in link.conclusions:
            if self.producer.get(e) == lid:
                del self.producer[e]

    def add_cut(self, cid: str, premises: tuple[str, str], where: tuple, origin: str) -> None:
        self.put_link(cid, Link("cut", premises, ()), origin)
        self.loc[cid] = where
        if where[0] == "in":
            where[1].direct.add(cid)

    def remove_link(self, lid: str) -> None:
        kind = self.loc.pop(lid)
        if kind[0] == "in":
            kind[1].direct.discard(lid)
        elif kind[0] == "border":
            mb = kind[1]
            if mb.principal == lid:
                mb.principal = ""
                del self.box_by_principal[lid]
            else:
                mb.auxiliaries.remove(lid)
                del self.box_by_pax[lid]
        self._unhook(lid, self.links.pop(lid))
        self.queued.pop(lid, None)

    def remove_edge(self, e: str) -> None:
        del self.edges[e]

    def remove_box_record(self, mb: _MBox) -> None:
        """Drop the box node itself, leaving its (already removed or moved)
        contents alone."""
        owner = mb.parent.children if mb.parent is not None else self.roots
        owner.remove(mb)

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
        def rebuild(mb: _MBox) -> Box:
            children = tuple(rebuild(c) for c in mb.children)
            total: set[str] = set(mb.direct)
            for cb in children:
                total |= cb.contents
                total.update(cb.border())
            return Box(mb.principal, tuple(mb.auxiliaries), frozenset(total), children)

        boxes = tuple(rebuild(mb) for mb in self.roots)
        return Net(self.edges, self.links, boxes, tuple(self.conclusions))


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
        ws.add_cut(ws.fresh(cut, f"m{i}"), (tens.premises[i], par.premises[i]), where, cut)


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
    ws.add_cut(ws.fresh(cut, "p"), (prem1, prem2), where, cut)


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
        mb = ws.box_by_pax[prod]
        boxes.append(mb)
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
        mb = ws.box_by_pax[consumer]
        out_edge = ws.links[consumer].conclusions[0]
        chain.append((mb, consumer, out_edge))
        e = out_edge


def _copy_contents(
    ws: _Workspace, box: _MBox, tag: str
) -> tuple[dict[str, str], dict[str, str], list[_MBox], set[str]]:
    """Deep-copy the subnet contained in a box (everything except its own
    border).  Returns (link map, edge map, copied child boxes, loose link
    ids that sat directly in the box)."""
    link_map: dict[str, str] = {}
    edge_map: dict[str, str] = {}

    def collect(mb: _MBox) -> None:
        for lid in mb.direct:
            link_map[lid] = ws.fresh(lid, tag)
        for child in mb.children:
            link_map[child.principal] = ws.fresh(child.principal, tag)
            for a in child.auxiliaries:
                link_map[a] = ws.fresh(a, tag)
            collect(child)

    collect(box)
    for lid in link_map:
        for e in ws.links[lid].conclusions:
            edge_map[e] = ws.fresh(e, tag)

    for lid, new_lid in link_map.items():
        lk = ws.links[lid]
        ws.put_link(
            new_lid,
            Link(
                lk.kind,
                tuple(edge_map.get(e, e) for e in lk.premises),
                tuple(edge_map[e] for e in lk.conclusions),
            ),
            origin=lid,
        )
        ws.lift[new_lid] = lid
    for e, new_e in edge_map.items():
        ws.edges[new_e] = ws.edges[e]
        ws.lift[new_e] = e

    def clone(mb: _MBox, parent: _MBox | None) -> _MBox:
        nb = _MBox(link_map[mb.principal], [link_map[a] for a in mb.auxiliaries], parent)
        ws.box_by_principal[nb.principal] = nb
        ws.loc[nb.principal] = ("border", nb)
        for a in nb.auxiliaries:
            ws.box_by_pax[a] = nb
            ws.loc[a] = ("border", nb)
        nb.direct = {link_map[l] for l in mb.direct}
        for l in nb.direct:
            ws.loc[l] = ("in", nb)
        nb.children = [clone(c, nb) for c in mb.children]
        return nb

    loose = {link_map[l] for l in box.direct}
    copied_children = [clone(c, None) for c in box.children]
    return link_map, edge_map, copied_children, loose


def _remove_contents(ws: _Workspace, box: _MBox) -> None:
    def wipe(mb: _MBox) -> None:
        for lid in list(mb.direct):
            for e in ws.links[lid].conclusions:
                ws.remove_edge(e)
            ws.remove_link(lid)
        for child in list(mb.children):
            for a in list(child.auxiliaries) + [child.principal]:
                for e in ws.links[a].conclusions:
                    ws.remove_edge(e)
                ws.remove_link(a)
            wipe(child)
            ws.remove_box_record(child)

    wipe(box)


def _exponential_step(ws: _Workspace, cut: str, p_oc: str, p_wn: str) -> None:
    links = ws.links
    oc_id = ws.producer[p_oc]
    wn_id = ws.producer[p_wn]
    box = ws.box_by_principal.get(oc_id)
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

    # New premises to merge into each target why-not, in deterministic order.
    merged: dict[str, list[str]] = {}

    for i, (up_boxes, flat_id) in enumerate(ups):
        tag = f"c{i}"
        link_map, edge_map, child_boxes, loose = _copy_contents(ws, box, tag)
        flat_loc = ws.loc[flat_id]
        # Plant the copy where the flat lives.
        if flat_loc[0] == "in":
            host = flat_loc[1]
            host.direct |= loose
            for lid in loose:
                ws.loc[lid] = ("in", host)
            for cb in child_boxes:
                cb.parent = host
                host.children.append(cb)
        else:
            for lid in loose:
                ws.loc[lid] = ("top",)
            ws.roots.extend(child_boxes)
        # Cut the copied principal premise against the flat's own premise.
        a_i = links[flat_id].premises[0]
        ws.add_cut(ws.fresh(cut, f"x{i}"), (edge_map[oc_premise], a_i), flat_loc, cut)
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

    # Remove the consumed material: flats, up-chain paxes, the why-not, the
    # cut, the box border, the original aux chains, and the original
    # contents (now replaced by the copies).
    for e in premises:
        while True:
            prod = ws.producer[e]
            link = links[prod]
            ws.remove_edge(e)
            ws.remove_link(prod)
            if link.kind == "flat":
                break
            e = link.premises[0]
    for (pax_id, u, q, down_chain, target_wn) in aux_info:
        last_edge = q if not down_chain else down_chain[-1][2]
        tgt = links[target_wn]
        new_premises = tuple(e for e in tgt.premises if e != last_edge) + tuple(
            merged.pop(target_wn, [])
        )
        ws.put_link(target_wn, Link(tgt.kind, new_premises, tgt.conclusions))
        ws.remove_link(pax_id)
        ws.remove_edge(q)
        for (mb, chain_pax, chain_edge) in down_chain:
            ws.remove_link(chain_pax)
            ws.remove_edge(chain_edge)
    for target_wn, wires in merged.items():
        tgt = links[target_wn]
        ws.put_link(target_wn, Link(tgt.kind, tgt.premises + tuple(wires), tgt.conclusions))
    ws.remove_link(cut)
    ws.remove_link(wn_id)
    ws.remove_edge(p_wn)
    ws.remove_link(oc_id)
    ws.remove_edge(p_oc)
    _remove_contents(ws, box)
    ws.remove_box_record(box)


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
    ws.put_link(pax_id, Link("pax", (wire,), (out_edge,)))
    mb.auxiliaries.append(pax_id)
    ws.box_by_pax[pax_id] = mb
    ws.loc[pax_id] = ("border", mb)
    ws.lift[pax_id] = lift_to
    ws.lift[out_edge] = edge_lift
    return out_edge


# -- normalization ------------------------------------------------------------


def _plain_levels(net: Net) -> dict[str, int]:
    """Level of each edge under a plain indexing, shifted to start at zero
    in each indexing component; empty when the net has no plain indexing."""
    result = solve_indexing(net, "plain")
    if isinstance(result, BalanceWitness):
        return {}
    comp = indexing_components(net, "plain")
    low: dict[str, int] = {}
    for e, v in result.assignment.items():
        low[comp[e]] = min(low.get(comp[e], v), v)
    return {e: v - low[comp[e]] for e, v in result.assignment.items()}


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
    order = traversal_order(net)
    rank: dict[str, tuple[int, ...]] = {c: (order[c],) for c in cuts}
    levels = _plain_levels(net) if strategy == "level" else {}

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
    for c in cuts:
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
    return (ws.freeze() if steps else net), RewriteTrace(tuple(steps))


def normalize_no_axiom(
    net: Net, strategy: str = "lo", budget: int = DEFAULT_STEP_BUDGET
) -> tuple[Net, RewriteTrace]:
    return normalize(net, strategy=strategy, budget=budget, no_axiom=True)


# -- the shifted net ----------------------------------------------------------


def _shift_label(lab: Label) -> Label:
    from .formula import shift_formula

    if lab.flat:
        return Label(Paragraph(shift_formula(lab.formula)), flat=True)
    return Label(shift_formula(lab.formula))


def shift_net(net: Net) -> Net:
    """Insert a paragraph link above every of-course and flat link and shift
    every edge label accordingly; conclusions become their shifted forms."""
    edges = {e: _shift_label(lab) for e, lab in net.edges.items()}
    links = dict(net.links)
    new_in_box: dict[str, list[str]] = {}
    serial = 0
    for lid in sorted(net.links):
        link = net.links[lid]
        if link.kind not in ("ofcourse", "flat"):
            continue
        prem = link.premises[0]
        pid = f"{lid}~sh{serial}"
        eid = f"{prem}~sh{serial}"
        serial += 1
        edges[eid] = Label(Paragraph(edges[prem].formula))
        links[pid] = Link("paragraph", (prem,), (eid,))
        links[lid] = Link(link.kind, (eid,), link.conclusions)
        new_in_box.setdefault(lid, []).append(pid)

    def rebox(box: Box) -> Box:
        extra: set[str] = set()
        for lid in box.contents | set(box.border()):
            if lid in new_in_box and _paragraph_sits_inside(net, lid, box):
                extra.update(new_in_box[lid])
        return Box(
            box.principal,
            box.auxiliaries,
            frozenset(box.contents) | extra,
            tuple(rebox(c) for c in box.children),
        )

    boxes = tuple(rebox(b) for b in net.boxes)
    return Net(edges, links, boxes, net.conclusions)


def _paragraph_sits_inside(net: Net, lid: str, box: Box) -> bool:
    # A paragraph inserted above a border of-course goes inside that box; one
    # above an interior link shares the link's box.
    if box.principal == lid:
        return True
    return lid in box.contents


# -- transporting quasi-indexings ---------------------------------------------


def transport_indexing(q: Indexing, trace: RewriteTrace, target: Net) -> Indexing:
    """Compose a quasi-indexing of the trace's source with the lift maps of
    every step.  The trace must contain no axiom steps."""
    if q.flavor != "quasi":
        raise ValueError("only quasi-indexings transport along reductions")
    for step in trace.steps:
        if step.redex.kind == STEP_AXIOM:
            raise ValueError("trace contains an axiom step; quasi-indexings do not survive it")
    assignment = {}
    for e in target.edges:
        src = trace.lift_to_source(e)
        assignment[e] = q.assignment[src]
    return Indexing(assignment, "quasi")


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
