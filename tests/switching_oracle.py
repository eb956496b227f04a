"""Exhaustive switching enumeration, kept as the reference for the
polynomial switching-acyclicity check in ``stratnet.correctness``, with
the depth-first cycle search it runs on each switching's graph.

Its cost doubles with each par, so it serves small nets only; the budget
guards the test suite against a net too large to enumerate.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterator

from stratnet.correctness import BudgetExceeded, CyclicSwitching
from stratnet.net import Box, Net, UGraph

ORACLE_BUDGET = 1 << 20


def collapsed_graph(net: Net) -> UGraph:
    """The depth-zero underlying graph: each depth-zero box collapsed into
    one node, the links outside every box first, then one node per box;
    edges inside a box are dropped, parallel edges kept."""
    node_of: dict[str, str] = {}
    for box in net.boxes:
        for lid in (*box.border(), *box.contents):
            node_of[lid] = f"box:{box.principal}"
    nodes = [lid for lid in net.links if lid not in node_of]
    node_of.update((lid, lid) for lid in nodes)
    nodes.extend(f"box:{b.principal}" for b in net.boxes)
    edges = []
    for eid in net.edges:
        cons = net.consumer(eid)
        if cons is None:
            continue
        a, b = node_of[net.producer(eid)], node_of[cons]
        if a != b or not a.startswith("box:"):
            edges.append((a, b, eid))
    return UGraph(tuple(nodes), tuple(edges))


def _top_structure(net: Net):
    """The nodes of the depth-zero underlying graph (boxes collapsed into
    single nodes), its edges split in one pass into fixed ones and premises
    of switched links (keyed by edge id), and the premise groups of the
    switched links."""
    graph = collapsed_graph(net)
    top_links = graph.nodes[: len(graph.nodes) - len(net.boxes)]
    switched: list[tuple[str, list[str]]] = []
    switched_premises: set[str] = set()
    for lid in top_links:
        link = net.links[lid]
        if link.kind in ("par", "whynot") and link.premises:
            switched.append((lid, list(link.premises)))
            switched_premises.update(link.premises)
    fixed: list[tuple[str, str, str]] = []
    candidates: dict[str, tuple[str, str, str]] = {}
    for edge in graph.edges:
        if edge[2] in switched_premises:
            candidates[edge[2]] = edge
        else:
            fixed.append(edge)
    return graph.nodes, fixed, switched, candidates


def contained_net(net: Net, box: Box) -> Net:
    """The net contained in a box: its conclusions are the premises of the
    border links (auxiliaries first, principal last)."""
    links = {lid: net.links[lid] for lid in box.contents}
    edges = {e: net.edges[e] for lid in links for e in net.links[lid].conclusions}
    conclusions = []
    for lid in box.auxiliaries:
        conclusions.extend(net.links[lid].premises)
    conclusions.extend(net.links[box.principal].premises)
    return Net(edges, links, box.children, tuple(conclusions))


@dataclass(frozen=True)
class Switching:
    """One premise chosen for every par and non-weakening why-not link at
    depth zero, with depth-zero boxes collapsed into single nodes."""

    chosen: dict[str, str]
    graph: UGraph


def count_switchings(net: Net) -> int:
    _, _, switched, _ = _top_structure(net)
    n = 1
    for _, prems in switched:
        n *= len(prems)
    return n


def total_switchings(net: Net) -> int:
    """Switchings the oracle enumerates for a correct net: the sum over
    depth zero and every box level."""
    return count_switchings(net) + sum(total_switchings(contained_net(net, box)) for box in net.boxes)


def _graph(structure, chosen: dict[str, str]) -> UGraph:
    nodes, fixed, _, candidates = structure
    edges = list(fixed) + [(candidates[e][0], candidates[e][1], e) for e in chosen.values()]
    return UGraph(nodes, tuple(edges))


def enumerate_switchings(net: Net, budget: int = ORACLE_BUDGET) -> Iterator[Switching]:
    """All switchings of the net at depth zero.  Weakening links contribute
    no choice; deeper levels are reached by recursing into box contents."""
    structure = _top_structure(net)
    switched = structure[2]
    total = count_switchings(net)
    if total > budget:
        raise BudgetExceeded("switching enumeration", total, budget)
    names = [lid for lid, _ in switched]
    for combo in itertools.product(*(prems for _, prems in switched)):
        chosen = dict(zip(names, combo))
        yield Switching(chosen, _graph(structure, chosen))


def find_cycle(graph: UGraph) -> list[str] | None:
    """Return the edge ids of some cycle of the graph, or None.  Parallel
    edges count."""
    adj: dict[str, list[tuple[str, str]]] = {n: [] for n in graph.nodes}
    for a, b, e in graph.edges:
        adj[a].append((b, e))
        adj[b].append((a, e))
    seen: set[str] = set()
    for start in graph.nodes:
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


def find_cyclic_switching(net: Net, _context: tuple[str, ...] = ()) -> CyclicSwitching | None:
    """The first switching with a cycle, depth zero first, then each box."""
    for sw in enumerate_switchings(net):
        cyc = find_cycle(sw.graph)
        if cyc is not None:
            return CyclicSwitching(sw.chosen, tuple(cyc), _context)
    for box in net.boxes:
        inner = find_cyclic_switching(contained_net(net, box), _context + (box.principal,))
        if inner is not None:
            return inner
    return None


def witness_problem(net: Net, witness: CyclicSwitching) -> str | None:
    """None when ``chosen`` names one premise of every switched link at the
    witness's depth and ``cycle_edges`` is a cycle of that switching's
    graph; otherwise what is wrong."""
    level = net
    for principal in witness.depth_context:
        box = next((b for b in level.boxes if b.principal == principal), None)
        if box is None:
            return f"no box with principal {principal} at this depth"
        level = contained_net(level, box)
    structure = _top_structure(level)
    switched = dict(structure[2])
    if set(witness.chosen) != set(switched):
        return "chosen does not name exactly the switched links"
    for lid, prems in switched.items():
        if witness.chosen[lid] not in prems:
            return f"{witness.chosen[lid]} is not a premise of {lid}"
    ends = {e: (a, b) for a, b, e in _graph(structure, witness.chosen).edges}
    cycle = witness.cycle_edges
    if not cycle or len(set(cycle)) != len(cycle):
        return "cycle_edges is empty or repeats an edge"
    if any(e not in ends for e in cycle):
        return "cycle_edges leaves the switching graph"
    degree: Counter = Counter()
    neighbours = defaultdict(set)
    for e in cycle:
        a, b = ends[e]
        degree[a] += 1
        degree[b] += 1
        neighbours[a].add(b)
        neighbours[b].add(a)
    if any(d != 2 for d in degree.values()):
        return "cycle_edges is not 2-regular"
    reached = {ends[cycle[0]][0]}
    frontier = list(reached)
    while frontier:
        for y in neighbours[frontier.pop()] - reached:
            reached.add(y)
            frontier.append(y)
    if reached != set(degree):
        return "cycle_edges is not connected"
    return None
