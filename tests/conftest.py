"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import random

import pytest

from stratnet.formula import Atom, OfCourse, Tensor
from stratnet.net import Box, Label, Link, Net, UNORDERED_PREMISES, _Fresh
from stratnet import builder


# -- reference nets ------------------------------------------------------------


@pytest.fixture
def dereliction_net() -> Net:
    """?X^ @ X, the dereliction principle."""
    n = builder.ax(Atom("X"))
    n = builder.flat_rule(n, 0)
    n = builder.whynot_rule(n, [0])
    return builder.par_rule(n, 0, 1)


@pytest.fixture
def shift_source_net() -> Net:
    """Axiom, flat + unary why-not on one side, paragraph on the other."""
    n = builder.ax(Atom("X"))
    n = builder.flat_rule(n, 0)
    n = builder.whynot_rule(n, [0])
    return builder.paragraph_rule(n, 1)


@pytest.fixture
def par_shift_net() -> Net:
    """#X^ @ X: the closed form of the downward shift implication."""
    n = builder.paragraph_rule(builder.ax(Atom("X")), 0)
    return builder.par_rule(n, 0, 1)


@pytest.fixture
def shift_par_net() -> Net:
    """X^ @ #X: the closed form of the upward shift implication."""
    n = builder.paragraph_rule(builder.ax(Atom("X")), 1)
    return builder.par_rule(n, 0, 1)


def make_id_bang(a) -> Net:
    """Eta-expanded identity of !a built by the rules."""
    n = builder.flat_rule(builder.ax(a), 0)
    n = builder.promotion(n, 1)
    return builder.whynot_rule(n, [0])


def make_unstable_membership_net():
    """A DR-net with a cut that is outside the level fragment while its
    normal form is inside: a doubly boxed axiom mismatched against a
    singly boxed partner."""
    A = Atom("X")
    b1 = builder.promotion(builder.flat_rule(builder.ax(A), 0), 1)
    b2 = builder.promotion(b1, 1)
    net1 = builder.whynot_rule(b2, [0])
    ax3 = builder.ax(OfCourse(A))
    t = builder.tensor_rule(ax3, 0, net1, 1)
    t = builder.par_rule(t, 1, 0)
    partner = make_id_bang(A)
    partner = builder.flat_rule(partner, 0)
    partner = builder.whynot_rule(partner, [0])
    partner = builder.par_rule(partner, 1, 0)
    left = builder.cut_rule(t, 1, partner, 0)
    normal_form = builder.par_rule(make_id_bang(A), 0, 1)
    return left, normal_form


def tensor_last_two(base: Net) -> Net:
    """The net with a tensor link, under fresh ids, over its last two
    conclusions, which no sequent rule allows when they already share a
    component.  The tensor's conclusion is the last conclusion."""
    e1, e2 = base.conclusions[-2:]
    fresh = _Fresh(base)
    lid, loop = fresh.link(), fresh.edge()
    edges = dict(base.edges)
    links = dict(base.links)
    edges[loop] = Label(Tensor(edges[e1].formula, edges[e2].formula))
    links[lid] = Link("tensor", (e1, e2), (loop,))
    conclusions = tuple(e for e in base.conclusions if e not in (e1, e2)) + (loop,)
    return Net(edges, links, base.boxes, conclusions, mark=fresh.n)


def paragraph_chain(depth: int) -> dict:
    """The document of an X axiom under a chain of depth paragraph links,
    whose top label nests depth deep."""
    edges = [{"id": "a", "label": "X^"}, {"id": "p0", "label": "X"}]
    links = [{"id": "ax", "kind": "ax", "premises": [], "conclusions": ["a", "p0"]}]
    for i in range(1, depth + 1):
        edges.append({"id": f"p{i}", "label": "#" * i + "X"})
        links.append({"id": f"l{i}", "kind": "paragraph", "premises": [f"p{i - 1}"], "conclusions": [f"p{i}"]})
    return {"edges": edges, "links": links, "conclusions": ["a", f"p{depth}"]}


def tensor_loop_net(context: Net | None = None) -> Net:
    """A valid net that fails switching-acyclicity: a tensor over both
    conclusions of one axiom, optionally juxtaposed with a correct context."""
    base = builder.ax(Atom("X")) if context is None else builder.mix(context, builder.ax(Atom("X")))
    return tensor_last_two(base)


# -- shuffling oracle -----------------------------------------------------------


def shuffle_net(net: Net, seed: int) -> Net:
    """Same net with fresh random ids in shuffled dict order, shuffled
    unordered premise lists, shuffled axiom conclusion pairs, and shuffled
    box bookkeeping."""
    rng = random.Random(seed)
    em = {e: f"E{rng.random():.17f}" for e in net.edges}
    lm = {l: f"L{rng.random():.17f}" for l in net.links}

    def shuffled(items):
        items = list(items)
        rng.shuffle(items)
        return tuple(items)

    links = {}
    for l, lk in shuffled(net.links.items()):
        prem = tuple(em[e] for e in lk.premises)
        if lk.kind in UNORDERED_PREMISES:
            prem = shuffled(prem)
        conc = tuple(em[e] for e in lk.conclusions)
        if lk.kind == "ax":
            conc = shuffled(conc)
        links[lm[l]] = Link(lk.kind, prem, conc)

    def rebox(b: Box) -> Box:
        return Box(
            lm[b.principal],
            shuffled(lm[a] for a in b.auxiliaries),
            frozenset(lm[c] for c in b.contents),
            shuffled(rebox(c) for c in b.children),
        )

    return Net(
        {em[e]: lab for e, lab in shuffled(net.edges.items())},
        links,
        shuffled(rebox(b) for b in net.boxes),
        tuple(em[e] for e in net.conclusions),
    )


# -- independent indexing oracle --------------------------------------------------
#
# The relations below are written out from the link typing directly, kept
# apart from the solver's own constraint extraction on purpose.


def _relations(net: Net, flavor: str):
    shift_exp = flavor in ("exponential", "quasi")
    for lid, link in net.links.items():
        k = link.kind
        if k == "ax" and flavor != "quasi":
            yield (link.conclusions[0], link.conclusions[1], 0)
        elif k == "cut":
            yield (link.premises[0], link.premises[1], 0)
        elif k in ("tensor", "par"):
            yield (link.premises[0], link.conclusions[0], 0)
            yield (link.premises[1], link.conclusions[0], 0)
        elif k in ("flat", "pax"):
            yield (link.premises[0], link.conclusions[0], 0)
        elif k == "whynot":
            for p in link.premises:
                yield (p, link.conclusions[0], 1 if shift_exp else 0)
        elif k == "ofcourse":
            yield (link.premises[0], link.conclusions[0], 1 if shift_exp else 0)
        elif k == "paragraph":
            yield (link.premises[0], link.conclusions[0], 1)


def brute_force_indexable(net: Net, flavor: str) -> bool:
    """Backtracking search over all assignments of [-E, E] to the edges,
    checking every relation among already-assigned edges.  Exhaustive, and
    independent of the propagation solver."""
    relations = list(_relations(net, flavor))
    edges = list(net.edges)
    e_count = len(edges)
    if e_count == 0:
        return True
    adjacency: dict[str, list[tuple[str, int, int]]] = {e: [] for e in edges}
    for a, b, w in relations:
        adjacency[a].append((b, w, -1))
        adjacency[b].append((a, w, +1))

    # Order edges so each one touches an assigned neighbour when possible.
    ordered: list[str] = []
    seen: set[str] = set()
    for start in edges:
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        while queue:
            cur = queue.pop(0)
            ordered.append(cur)
            for other, _, _ in adjacency[cur]:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)

    assignment: dict[str, int] = {}

    def consistent(e: str) -> bool:
        for a, b, w in relations:
            if a in assignment and b in assignment and (e in (a, b)):
                if assignment[a] != assignment[b] + w:
                    return False
        return True

    def search(i: int) -> bool:
        if i == len(ordered):
            return True
        e = ordered[i]
        for v in range(-e_count, e_count + 1):
            assignment[e] = v
            if consistent(e) and search(i + 1):
                return True
        del assignment[e]
        return False

    return search(0)
