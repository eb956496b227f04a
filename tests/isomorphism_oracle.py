"""Exact isomorphism of nets by VF2 (networkx), the reference that the
canonical form is checked against.

Each net becomes a labelled directed multigraph: one node per link (kind,
depth, box role), one per net conclusion (its position), one per box wired
to its principal, its auxiliaries, the links directly inside it and its
parent box; a wire runs from producer to consumer and carries its label
and the premise slot it enters ("u" for unordered premises)."""

from __future__ import annotations

import networkx as nx

from stratnet.net import UNORDERED_PREMISES, Box, Net


def _graph(net: Net) -> nx.MultiDiGraph:
    g = nx.MultiDiGraph()
    for lid, lk in net.links.items():
        box = net.box_of_border_link(lid)
        role = "" if box is None else ("principal" if box.principal == lid else "aux")
        g.add_node(("l", lid), kind=lk.kind, depth=net.depth(lid), role=role)
    for i, e in enumerate(net.conclusions):
        g.add_node(("c", i), kind=f"conclusion{i}", depth=-1, role="")
        g.add_edge(("l", net.producer(e)), ("c", i), label=str(net.edges[e]), slot="c")
    for e in net.edges:
        cons = net.consumer(e)
        if cons is None:
            continue
        lk = net.links[cons]
        slot = "u" if lk.kind in UNORDERED_PREMISES else str(lk.premises.index(e))
        g.add_edge(("l", net.producer(e)), ("l", cons), label=str(net.edges[e]), slot=slot)

    def add_box(box: Box, parent) -> None:
        node = ("b", box.principal)
        g.add_node(node, kind="box", depth=-1, role="")
        g.add_edge(node, ("l", box.principal), label="", slot="principal")
        for aux in box.auxiliaries:
            g.add_edge(node, ("l", aux), label="", slot="aux")
        for lid in box.contents - {x for ch in box.children for x in ch.contents}:
            g.add_edge(node, ("l", lid), label="", slot="in")
        if parent is not None:
            g.add_edge(node, parent, label="", slot="nest")
        for child in box.children:
            add_box(child, node)

    for box in net.boxes:
        add_box(box, None)
    return g


def isomorphic(a: Net, b: Net) -> bool:
    """Equality up to id renaming and reordering of unordered structure."""
    nm = nx.algorithms.isomorphism.categorical_node_match(["kind", "depth", "role"], ["", 0, ""])
    em = nx.algorithms.isomorphism.categorical_multiedge_match(["label", "slot"], ["", ""])
    return nx.is_isomorphic(_graph(a), _graph(b), node_match=nm, edge_match=em)
