"""The per-step normalization driver, kept as the reference for the
worklist engine in ``stratnet.rewrite``.

Each step rescans the net for redexes, ranks them by a fresh
``traversal_order`` (and, for ``level``, a fresh plain indexing of the
current net), and rebuilds the net with ``apply_step``; its cost per step
grows with the net.  ``lift_to_source_by_walk`` is the reference for
``RewriteTrace.lift_to_source``: it walks one id back through every step.

``copying_exponential_step`` is the reference for the exponential step:
it copies the box once per why-not premise, routes every copied auxiliary
wire through a pax chain rebuilt down to its why-not, and then removes the
original box.  ``rewrite._exponential_step`` takes the box instead when the
why-not has one premise.
"""

from __future__ import annotations

from stratnet.net import Link, Net, traversal_order
from stratnet.rewrite import (
    STEP_AXIOM,
    RewriteTrace,
    Step,
    StepError,
    _add_pax,
    _MBox,
    _plain_levels,
    _trace_down,
    _trace_up,
    _Workspace,
    apply_step,
    find_redexes,
)


def lift_to_source_by_walk(trace: RewriteTrace, x: str) -> str:
    for step in reversed(trace.steps):
        x = step.lift.get(x, x)
    return x


def oracle_normalize(net: Net, strategy: str = "lo", no_axiom: bool = False) -> tuple[Net, list[Step]]:
    steps: list[Step] = []
    while True:
        redexes = [r for r in find_redexes(net) if not (no_axiom and r.kind == STEP_AXIOM)]
        if not redexes:
            return net, steps
        rank = traversal_order(net)
        if strategy == "lo":
            key = lambda r: rank[r.cut]
        elif strategy == "in":
            key = lambda r: (-net.depth(r.cut), rank[r.cut])
        else:
            levels = _plain_levels(net)
            key = lambda r: (levels.get(net.links[r.cut].premises[0], 0), rank[r.cut])
        redex = min(redexes, key=key)
        net, lift = apply_step(net, redex)
        steps.append(Step(redex, lift))


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


def copying_exponential_step(ws: _Workspace, cut: str, p_oc: str, p_wn: str) -> None:
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
        for (mb, chain_pax, chain_edge) in down_chain:
            ws.remove_link(chain_pax)
            ws.remove_edge(chain_edge)
    for target_wn, wires in merged.items():
        tgt = links[target_wn]
        ws.put_link(target_wn, Link(tgt.kind, tgt.premises + tuple(wires), tgt.conclusions))
    ws.remove_link(cut)
    ws.remove_link(wn_id)
    ws.remove_edge(p_wn)
    ws.remove_box(box)
