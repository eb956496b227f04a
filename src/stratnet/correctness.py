"""Switching acyclicity, integer indexings, and the level-membership
deciders that rest on them.

Switching acyclicity is decided per depth in polynomial time, without
enumerating switchings.  One pass over the net builds every depth's graph,
and the depths are decided in turn.  Union-find contraction merges the ends
of every fixed edge and merges a par or why-not link into its premises'
component once they all lie in one; an edge inside one component closes a
cycle.  Contraction alone decides connected nets only, and nets built with
mix may stop short while correct, so the switched links left over are read
as edge colours on the graph of components and a vertex that every other
component meets in one colour is deleted until the graph empties (correct)
or no such vertex is left (some switching has a cycle).  A negative verdict
always carries a concrete switching and one of its cycles.  The check has
no budget.

An indexing assigns an integer to every edge so that each link equates the
indexes of its incident edges, except that crossing a paragraph link shifts
by one (plain flavor) and, in the exponential flavor, crossing an of-course
or why-not link shifts as well.  The quasi flavor further drops the
constraint on axiom conclusions.  Every indexing question here is answered
by one traversal of the constraint graph (``_propagate``): it walks each
component depth-first from its least edge id, anchored at zero, and keeps
the offsets, the spanning tree and the first violated constraint.  Both
witnesses are read off the spanning tree: a violated constraint plus the
tree path between its edges is an unbalanced cycle, and the tree path
between two conclusions of one component whose offsets differ is an
unbalanced conclusion-to-conclusion path.  ``strong_indexing`` is the one
strong check (equal conclusion indexes within each component); the
proof-net criterion asks it with plain weights and the indexing route to
level membership with exponential ones.  The geometric route asks for an
exponential indexing of the par-closure, which it never builds: the
traversal takes the closing pars as extra constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, Literal

from .net import Net, _closing_pars

Flavor = Literal["plain", "exponential", "quasi"]


class BudgetExceeded(RuntimeError):
    def __init__(self, what: str, needed: int, budget: int):
        super().__init__(f"{what} needs {needed} > budget {budget}")
        self.what = what
        self.needed = needed
        self.budget = budget


class PreconditionError(ValueError):
    pass


# -- switching acyclicity ---------------------------------------------------------
#
# A switching keeps one premise of every par and non-weakening why-not link
# at one depth, with the boxes at that depth collapsed into single nodes; the
# net is switching-acyclic when no switching's graph has a cycle, at every
# depth.  Contraction grows components that stay trees under every
# switching, so on the graph of components, where each leftover switched
# link colours its premise edges, a switching cycle shows as a cycle whose
# consecutive edges differ in colour (the edges of one colour all meet at
# the link's own component, so such a cycle uses at most one of them).


@dataclass
class _SwitchingGraph:
    """The switching graph at one depth: its nodes, its edges split into
    fixed ones and premises of switched links (keyed by edge id), and the
    premise groups of the switched links.  ``context`` names the
    principals of the boxes entered to reach the depth."""

    context: tuple[str, ...]
    nodes: list[str] = field(default_factory=list)
    fixed: list[tuple[str, str, str]] = field(default_factory=list)
    switched: list[tuple[str, list[str]]] = field(default_factory=list)
    candidates: dict[str, tuple[str, str, str]] = field(default_factory=dict)


def _switching_graphs(net: Net) -> list[_SwitchingGraph]:
    """Every depth's switching graph, depth zero first and then the boxes
    in preorder, from one pass over the links and one over the edges.  A
    link sits at the depth of its innermost box: preorder places a box's
    contents after those of the box around it.  The border links of a box
    stand for the box as one node, named by its principal, at the depth
    around it.  An edge is kept when both its ends sit at one depth, so an
    edge from inside a box into its border belongs to no graph."""
    top = _SwitchingGraph(())
    graphs = [top]
    graph_of = dict.fromkeys(net.links, top)
    node_of = {lid: lid for lid in net.links}
    for box in net.all_boxes():
        inner = _SwitchingGraph(graph_of[box.principal].context + (box.principal,))
        graphs.append(inner)
        graph_of.update(dict.fromkeys(box.contents, inner))
        node_of.update(dict.fromkeys(box.auxiliaries, box.principal))
    for lid, link in net.links.items():
        if node_of[lid] == lid:
            graph_of[lid].nodes.append(lid)
        if link.kind in ("par", "whynot") and link.premises:
            graph_of[lid].switched.append((lid, list(link.premises)))
    for eid in net.edges:
        consumer = net.consumer(eid)
        if consumer is None:
            continue
        producer = net.producer(eid)
        graph = graph_of[producer]
        if graph is not graph_of[consumer]:
            continue
        edge = (node_of[producer], node_of[consumer], eid)
        if net.links[consumer].kind in ("par", "whynot"):
            graph.candidates[eid] = edge
        else:
            graph.fixed.append(edge)
    return graphs


@dataclass(frozen=True)
class CyclicSwitching:
    """Witness that some switching contains a cycle."""

    chosen: dict[str, str]
    cycle_edges: tuple[str, ...]
    depth_context: tuple[str, ...]  # principals of the boxes entered

    def __str__(self) -> str:
        where = " inside box " + "/".join(self.depth_context) if self.depth_context else ""
        return f"cyclic switching{where}: cycle through edges {', '.join(self.cycle_edges)}"


class _Forest:
    """Union-find over graph nodes that keeps the edges joining its classes,
    so that an edge inside one class can be closed into a cycle."""

    def __init__(self, nodes) -> None:
        self.parent = {n: n for n in nodes}
        self.tree: dict[str, list[tuple[str, str]]] = {n: [] for n in nodes}

    def find(self, x: str) -> str:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: str, b: str, eid: str) -> None:
        self.parent[self.find(a)] = self.find(b)
        self.tree[a].append((b, eid))
        self.tree[b].append((a, eid))

    def cycle(self, a: str, b: str, eid: str) -> tuple[str, ...]:
        """The edge eid plus the tree path from b back to a."""
        via: dict[str, tuple[str, str] | None] = {a: None}
        stack = [a]
        while b not in via:
            x = stack.pop()
            for y, e in self.tree[x]:
                if y not in via:
                    via[y] = (x, e)
                    stack.append(y)
        edges = [eid]
        step = via[b]
        while step is not None:
            x, e = step
            edges.append(e)
            step = via[x]
        return tuple(edges)


def _has_properly_coloured_cycle(edges: list[tuple[str, str, str]]) -> bool:
    """Whether the multigraph of (x, y, colour) edges has a cycle in which
    consecutive edges differ in colour.  A vertex z such that every
    component of the graph without z meets z in one colour lies on no such
    cycle, so it can be deleted; while the graph has no such cycle, it has
    such a vertex (Yeo, JCTB 1997).  The graph empties iff no cycle exists."""
    adj: dict[str, list[tuple[str, str]]] = {}
    for x, y, colour in edges:
        adj.setdefault(x, []).append((y, colour))
        adj.setdefault(y, []).append((x, colour))
    alive = dict.fromkeys(adj)

    def separates(z: str) -> bool:
        around = [(y, colour) for y, colour in adj[z] if y in alive]
        if len({colour for _, colour in around}) <= 1:
            return True
        component: dict[str, int] = {}
        meets: list[str] = []  # the colour in which each component meets z
        for y, colour in around:
            if y in component:
                if meets[component[y]] != colour:
                    return False
                continue
            component[y] = len(meets)
            meets.append(colour)
            stack = [y]
            while stack:
                v = stack.pop()
                for w, _ in adj[v]:
                    if w != z and w in alive and w not in component:
                        component[w] = component[y]
                        stack.append(w)
        return True

    while alive:
        stuck = True
        for z in list(alive):
            if separates(z):
                del alive[z]
                stuck = False
        if stuck:
            return True
    return False


def _decide(
    nodes, fixed, choice: dict[str, list[str]], candidates: dict[str, tuple[str, str, str]]
) -> tuple[str, ...] | list[str] | None:
    """One switching-acyclicity decision at one depth, the switched links
    restricted to the premises in ``choice``.

    Contraction merges the ends of every fixed edge, and merges a switched
    link into its premises' component once they all lie in one; each
    component stays a tree under every switching.  An edge whose ends are
    already merged closes a cycle that every switching (agreeing with the
    tree edges) contains; it is returned as edge ids.  Otherwise the
    switched links left over are returned when the coloured graph of
    components has a properly coloured cycle, and None when no switching
    has a cycle."""
    forest = _Forest(nodes)
    find = forest.find
    for a, b, eid in fixed:
        if find(a) == find(b):
            return forest.cycle(a, b, eid)
        forest.union(a, b, eid)
    pending = list(choice)
    while pending:
        left = []
        for lid in pending:
            home = find(lid)
            roots = set()
            for p in choice[lid]:
                a = candidates[p][0]
                root = find(a)
                if root == home:
                    return forest.cycle(a, lid, p)
                roots.add(root)
            if len(roots) == 1:
                first = choice[lid][0]
                forest.union(candidates[first][0], lid, first)
            else:
                left.append(lid)
        if len(left) == len(pending):
            break
        pending = left
    coloured = [(find(candidates[p][0]), find(lid), lid) for lid in pending for p in choice[lid]]
    return pending if coloured and _has_properly_coloured_cycle(coloured) else None


def find_cyclic_switching(net: Net) -> CyclicSwitching | None:
    """A switching with a cycle, at depth zero or inside some box, or None
    when the net is switching-acyclic at every depth.  Polynomial: see
    ``_decide``.  The depths are tried in the order of ``_switching_graphs``.
    When only the coloured graph finds a cycle, the leftover switched links
    are fixed to one premise at a time, each time keeping a premise under
    which some cycle remains, until contraction itself closes one.  The
    witness names a premise for every switched link at its depth and the
    edges of one cycle of that switching."""
    for graph in _switching_graphs(net):
        choice = dict(graph.switched)
        outcome = _decide(graph.nodes, graph.fixed, choice, graph.candidates)
        while isinstance(outcome, list):
            lid = outcome[0]
            for p in choice[lid]:
                trial = {**choice, lid: [p]}
                again = _decide(graph.nodes, graph.fixed, trial, graph.candidates)
                if again is not None:
                    choice, outcome = trial, again
                    break
            else:
                raise AssertionError(f"no premise of {lid} keeps the switching cycle")
        if outcome is not None:
            on_cycle = set(outcome)
            chosen = {lid: next((p for p in ps if p in on_cycle), choice[lid][0]) for lid, ps in graph.switched}
            return CyclicSwitching(chosen, outcome, graph.context)
    return None


def is_dr_correct(net: Net) -> bool:
    return find_cyclic_switching(net) is None


# -- indexings ---------------------------------------------------------------


@dataclass(frozen=True)
class Indexing:
    assignment: dict[str, int]
    flavor: Flavor

    def to_document(self) -> dict:
        return {"flavor": self.flavor, "assignment": dict(sorted(self.assignment.items()))}


@dataclass(frozen=True)
class BalanceWitness:
    """An unbalanced cycle (or, for strong indexability, a path between two
    conclusions) as an alternating edge/link sequence."""

    elements: tuple[str, ...]  # e0, l0, e1, l1, ...; links between edges
    balance: int
    flavor: Flavor
    closed: bool = True

    def __str__(self) -> str:
        kind = "cycle" if self.closed else "conclusion-to-conclusion path"
        return f"unbalanced {kind} (balance {self.balance}, {self.flavor} weights): " + " - ".join(self.elements)


def _link_constraints(net: Net, flavor: Flavor) -> Iterator[tuple[str, str, int, str]]:
    """Yield (e1, e2, w, link) meaning idx(e1) = idx(e2) + w."""
    shift_exp = flavor in ("exponential", "quasi")
    for lid, link in net.links.items():
        kind = link.kind
        if kind == "ax":
            if flavor != "quasi":
                yield link.conclusions[0], link.conclusions[1], 0, lid
        elif kind == "cut":
            yield link.premises[0], link.premises[1], 0, lid
        elif kind in ("tensor", "par"):
            c = link.conclusions[0]
            yield link.premises[0], c, 0, lid
            yield link.premises[1], c, 0, lid
        elif kind in ("flat", "pax"):
            yield link.premises[0], link.conclusions[0], 0, lid
        elif kind == "whynot":
            c = link.conclusions[0]
            w = 1 if shift_exp else 0
            for p in link.premises:
                yield p, c, w, lid
        elif kind == "ofcourse":
            yield link.premises[0], link.conclusions[0], 1 if shift_exp else 0, lid
        elif kind == "paragraph":
            yield link.premises[0], link.conclusions[0], 1, lid
        # one / bot have a single incident edge and induce no constraint


def _propagate(net: Net, flavor: Flavor, closing=()):
    """The one traversal of the constraint graph.  Every component is walked
    depth-first from its least edge id, anchored at zero.  Returns the
    offsets, the spanning-tree parent of each edge ((edge, link) it was
    reached from, None at an anchor), each edge's component representative
    (its anchor), and the first constraint the offsets violate as
    (e1, e2, link, balance), or None.  ``closing`` adds par links after the
    net's own, as (link id, premises, conclusion edge): given
    ``_closing_pars(net)``, the walk is that of the par-closure."""
    adjacency: dict[str, list[tuple[str, int, str]]] = {e: [] for e in net.edges}
    adjacency.update((c, []) for _, _, c in closing)
    pars = ((p, c, 0, lid) for lid, premises, c in closing for p in premises)
    for e1, e2, w, lid in chain(_link_constraints(net, flavor), pars):
        adjacency[e1].append((e2, -w, lid))  # idx(e2) = idx(e1) - w
        adjacency[e2].append((e1, w, lid))
    offset: dict[str, int] = {}
    parent: dict[str, tuple[str, str] | None] = {}
    rep: dict[str, str] = {}
    conflict: tuple[str, str, str, int] | None = None
    for start in sorted(adjacency):
        if start in rep:
            continue
        offset[start], parent[start], rep[start] = 0, None, start
        stack = [start]
        while stack:
            cur = stack.pop()
            for other, delta, lid in adjacency[cur]:
                want = offset[cur] + delta
                if other not in rep:
                    offset[other], parent[other], rep[other] = want, (cur, lid), start
                    stack.append(other)
                elif conflict is None and offset[other] != want:
                    conflict = (cur, other, lid, abs(offset[other] - want))
    return offset, parent, rep, conflict


def _tree_path(parent: dict[str, tuple[str, str] | None], a: str, b: str) -> tuple[list[str], list[str]]:
    """The spanning-tree path between two edges of one component, as two
    alternating edge/link sequences: from a up to the edge where the
    branches of a and b meet, and from that edge down to b."""

    def to_anchor(x: str) -> list[str]:
        seq = [x]
        while parent[x] is not None:
            x, lid = parent[x]  # type: ignore[misc]
            seq += (lid, x)
        return seq

    up_a, up_b = to_anchor(a), to_anchor(b)
    on_b = up_b[0::2]
    meet = next(i for i in range(0, len(up_a), 2) if up_a[i] in on_b)
    return up_a[: meet + 1], up_b[: 2 * on_b.index(up_a[meet]) + 1][::-1]


def _unbalanced_cycle(
    parent: dict[str, tuple[str, str] | None], conflict: tuple[str, str, str, int], flavor: Flavor
) -> BalanceWitness:
    """A violated constraint closed into a cycle by the tree path between
    its edges, starting where the two branches meet."""
    e1, e2, lid, bal = conflict
    up, down = _tree_path(parent, e2, e1)
    return BalanceWitness((*down, lid, *up[:-1]), bal, flavor)


def solve_indexing(net: Net, flavor: Flavor = "plain") -> Indexing | BalanceWitness:
    """Propagate offsets over each connected component of the constraint
    graph, anchoring its least edge id at zero.  Returns a satisfying
    assignment or a cycle on which the accumulated shift does not cancel."""
    offset, parent, _, conflict = _propagate(net, flavor)
    return Indexing(offset, flavor) if conflict is None else _unbalanced_cycle(parent, conflict, flavor)


def check_indexing(net: Net, ix: Indexing) -> bool:
    """Re-check every link constraint; solver soundness oracle."""
    for e1, e2, w, _ in _link_constraints(net, ix.flavor):
        if ix.assignment[e1] != ix.assignment[e2] + w:
            return False
    return set(ix.assignment) >= set(net.edges)


def indexing_components(net: Net, flavor: Flavor = "plain") -> dict[str, str]:
    """Map each edge to its component representative (least edge id) in the
    constraint graph of the given flavor."""
    return _propagate(net, flavor)[2]


def shift_indexing(ix: Indexing, net: Net, shifts: dict[str, int]) -> Indexing:
    """Translate each component by its own constant; the result satisfies
    the same constraints."""
    comp = indexing_components(net, ix.flavor)
    known = set(comp.values())
    for c in shifts:
        if c not in known:
            raise KeyError(f"unknown component representative {c!r}")
    moved = {e: v + shifts.get(comp[e], 0) for e, v in ix.assignment.items()}
    return Indexing(moved, ix.flavor)


def strong_indexing(net: Net, flavor: Flavor = "plain") -> Indexing | BalanceWitness:
    """An indexing under which, inside each component, all net conclusions
    receive one index (differences across components are repairable by
    translation).  Otherwise a witness: an unbalanced cycle, or a path
    between two conclusions of one component whose shift does not cancel."""
    offset, parent, rep, conflict = _propagate(net, flavor)
    if conflict is not None:
        return _unbalanced_cycle(parent, conflict, flavor)
    first: dict[str, str] = {}
    for e in net.conclusions:
        a = first.setdefault(rep[e], e)
        if offset[a] != offset[e]:
            up, down = _tree_path(parent, a, e)
            return BalanceWitness((*up, *down[1:]), abs(offset[a] - offset[e]), flavor, closed=False)
    return Indexing(offset, flavor)


def is_strongly_indexable(net: Net) -> bool | BalanceWitness:
    """True iff a plain strong indexing exists (see ``strong_indexing``).
    Returns the blocking witness instead of False so callers can report
    it."""
    if net.has_flat_conclusion():
        raise PreconditionError("net has a flat-labelled conclusion")
    result = strong_indexing(net, "plain")
    return result if isinstance(result, BalanceWitness) else True


def is_proof_net(net: Net) -> bool:
    """Switching-acyclic, no flat conclusion, and strongly indexable."""
    if net.has_flat_conclusion():
        return False
    if not is_dr_correct(net):
        return False
    return is_strongly_indexable(net) is True


def _require_l3_preconditions(net: Net) -> None:
    if net.has_flat_conclusion():
        raise PreconditionError("net has a flat-labelled conclusion")
    if not is_dr_correct(net):
        raise PreconditionError("net is not switching-acyclic")


def is_l3_indexing_route(net: Net, check_preconditions: bool = True) -> bool | BalanceWitness:
    """Membership via existence of an exponential indexing with equal
    conclusion indexes (component-wise, translations being free)."""
    if check_preconditions:
        _require_l3_preconditions(net)
    result = strong_indexing(net, "exponential")
    return result if isinstance(result, BalanceWitness) else True


def is_l3_geometric(net: Net, check_preconditions: bool = True) -> bool | BalanceWitness:
    """Membership via balance: every cycle of the par-closure must cancel
    its exponential and paragraph crossings.  The closure is not built: its
    pars join the constraint graph under the ids ``parr_closure`` would
    give them, so the witness is the one the closure's indexing gives."""
    if check_preconditions:
        _require_l3_preconditions(net)
    _, parent, _, conflict = _propagate(net, "exponential", _closing_pars(net))
    return True if conflict is None else _unbalanced_cycle(parent, conflict, "exponential")


def default_exponential_quasi_indexing(net: Net, allow_cuts: bool = False) -> Indexing:
    """Assign zero to all conclusions and increment upward across the
    paragraph, of-course and why-not links.  Defined on cut-free nets; with
    allow_cuts, cut premises are also anchored at zero, which joins the
    per-part defaults of a composition."""
    cuts = net.cut_links()
    if cuts and not allow_cuts:
        raise PreconditionError("net has cuts; the default quasi-indexing is defined on cut-free nets")
    offset, _, rep, _ = _propagate(net, "quasi")
    # Without axiom constraints each component hangs from one root: a
    # conclusion, or the two premises of a cut.
    roots = list(net.conclusions) + [net.links[c].premises[0] for c in cuts]
    base = {rep[e]: offset[e] for e in roots}
    return Indexing({e: v - base[rep[e]] for e, v in offset.items()}, "quasi")


def balance(net: Net, elements: list[str], exponential: bool = False, closed: bool = True) -> int:
    """Balance of a path or cycle given as an alternating edge/link
    sequence e0, l0, e1, l1, ...; paragraph crossings count (plus the
    exponential links when asked)."""
    if not elements:
        return 0
    edges = elements[0::2]
    links = elements[1::2]
    if closed and len(links) == len(edges) - 1:
        raise ValueError("a closed sequence must end with the link back to its first edge")
    counted = {"paragraph"} | ({"ofcourse", "whynot"} if exponential else set())
    total = 0
    pairs = len(links)
    for i in range(pairs):
        a = edges[i]
        b = edges[(i + 1) % len(edges)]
        lid = links[i]
        link = net.links[lid]
        if a not in link.premises + link.conclusions or b not in link.premises + link.conclusions:
            raise ValueError(f"edges {a}, {b} are not both incident to link {lid}")
        if link.kind not in counted:
            continue
        if a in link.premises and b in link.conclusions:
            total += 1
        elif a in link.conclusions and b in link.premises:
            total -= 1
    return abs(total)


__all__ = [
    "Flavor",
    "BudgetExceeded",
    "PreconditionError",
    "CyclicSwitching",
    "find_cyclic_switching",
    "is_dr_correct",
    "Indexing",
    "BalanceWitness",
    "solve_indexing",
    "check_indexing",
    "indexing_components",
    "shift_indexing",
    "strong_indexing",
    "is_strongly_indexable",
    "is_proof_net",
    "is_l3_indexing_route",
    "is_l3_geometric",
    "default_exponential_quasi_indexing",
    "balance",
]
