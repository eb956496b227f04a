"""Interactive membership machinery: eta-expansion, the atomic doubling
substitution, identity and swap nets, level tests, and test-driven
membership checking.

A test of type A at level k is the identity net of the doubled formula with
every atomic identity block sitting at level k replaced by the crossed
variant.  A cut-free net with conclusion A is accepted at level k when
cutting its doubled form against the test reduces back to the doubled form
itself.

A level-k test differs from the identity test only in the order of some
tensor premises, which no reduction step looks at, and doubling commutes
with cut-elimination: a doubled atomic identity block reduces as the atomic
axiom it replaces.  So the decider reduces once, undoubled, in one
workspace: the net is eta-expanded there, and each compound conclusion is
cut against the identity test of its formula, expanded there too,
recording the level of each atom position it builds.  An atomic
conclusion gets no test: its test would be a bare axiom, whose one step
hands the conclusion back.  A net with several conclusions gets the
report of its par-closure, which is never built: the closing pars only
peel off against the closed test's tensors, and pars add no level.

Each atomic axiom of the normal form is a block of the doubled one, whose
par and tensor are the two test links that consume the axiom's ends,
lifted through the trace; an end that is an atomic conclusion counts at
level 0, where the closed test's par would consume it, so such a net has
level 0 even when no test has an atom.  One pass over the axioms reads
both levels of each.  The block is crossed at level k when exactly one of
its two positions is at level k.  The doubled form crosses no block, so a
level passes when none is crossed and the normal form equals the
eta-expanded net, which is frozen for the comparison only when the net
has a compound axiom.  The walk behind ``nets_equal`` compares the reduced
workspace with that net in place; only when it fails is the normal form
frozen for ``nets_equal``.  The doubled reduction and the per-level one,
both of the par-closure, are kept as oracles in
``tests/interactive_oracle.py``, with ``atom_sites``, the reference for
the test's block levels.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

from . import builder
from .correctness import PreconditionError
from .formula import (
    Atom,
    Bottom,
    Formula,
    OfCourse,
    One,
    Par,
    Paragraph,
    RESERVED_ATOM,
    Tensor,
    WhyNot,
    bullet_formula,
    dual,
    print_formula,
)
from .net import Label, Link, Net, _walk_isomorphic, nets_equal
from .rewrite import DEFAULT_STEP_BUDGET, RewriteTrace, _MBox, _reduce, _Workspace, normalize, normalize_no_axiom


# -- eta-expansion ------------------------------------------------------------


# The entries of ``_EtaBuilder.expand``'s stack: a subformula to open, a
# connective's two links to close, an exponential box to close.
_OPEN, _CLOSE, _CLOSE_BOX = range(3)


class _EtaBuilder:
    """Expands axioms into a workspace, drawing ids from its counter.
    Each new link goes to ``where``: the replaced axiom's box (None at the
    top), or the box being built, whose border takes its of-course and pax
    links.  ``levels`` records
    the level of each atom position built, the number of paragraph,
    of-course and why-not links below it down to the replaced axiom's
    wires, keyed by the new link and premise slot that consume the
    position; ``atoms`` holds the positions not yet consumed."""

    def __init__(self, ws: _Workspace):
        self.ws = ws
        ws.id_mark()  # taken: the net frozen from the workspace hands it on
        self.where: _MBox | None = None
        self.atoms: dict[str, int] = {}
        self.levels: dict[tuple[str, int], int] = {}

    def edge(self, label: Label) -> str:
        e = self.ws.new_id("e")
        self.ws.edges[e] = label
        return e

    def link(self, kind: str, premises: tuple[str, ...], conclusions: tuple[str, ...]) -> str:
        ws, atoms = self.ws, self.atoms
        lid = ws.new_id("l")
        ws.add_link(lid, Link(kind, premises, conclusions), self.where)
        for slot, e in enumerate(premises):
            if e in atoms:
                self.levels[lid, slot] = atoms.pop(e)
        return lid

    def expand(self, a: Formula, da: Formula, out_neg: str, out_pos: str) -> None:
        """Build links concluding out_neg (labelled da, the dual of a) and
        out_pos (labelled a).  Iterative: a connective's own links wait on
        the stack, tagged, until the expansions of its subformulas, pushed
        after them, are built."""
        link = self.link
        depth = 0
        stack: list[tuple] = [(_OPEN, a, da, out_neg, out_pos)]
        while stack:
            item = stack.pop()
            tag = item[0]
            if tag == _CLOSE:
                _, levels, neg, neg_in, out_neg, pos, pos_in, out_pos = item
                depth -= levels
                link(neg, neg_in, (out_neg,))
                link(pos, pos_in, (out_pos,))
                continue
            if tag == _CLOSE_BOX:
                # The box of an exponential axiom: its principal door bangs
                # one side of the body's expansion; the other side is
                # flattened inside, exits through one pax port, and meets a
                # unary why-not.
                _, outer, principal_in, flat_in, flat_body, oc_out, wn_out = item
                depth -= 1
                flat_label = Label(flat_body, flat=True)
                flat_out = self.edge(flat_label)
                link("flat", (flat_in,), (flat_out,))
                pax_out = self.edge(flat_label)
                link("pax", (flat_out,), (pax_out,))
                link("ofcourse", (principal_in,), (oc_out,))
                self.where = outer
                link("whynot", (pax_out,), (wn_out,))
                continue
            _, a, da, out_neg, out_pos = item
            cls = type(a)
            if cls is Atom:
                link("ax", (), (out_neg, out_pos))
                self.atoms[out_neg] = self.atoms[out_pos] = depth
            elif cls is One or cls is Bottom:
                neg, pos = ("bot", "one") if cls is One else ("one", "bot")
                link(neg, (), (out_neg,))
                link(pos, (), (out_pos,))
            elif cls is Tensor or cls is Par:
                nl, pl, nr, pr = map(self.edge, (Label(da.left), Label(a.left), Label(da.right), Label(a.right)))
                neg, pos = ("par", "tensor") if cls is Tensor else ("tensor", "par")
                stack.append((_CLOSE, 0, neg, (nl, nr), out_neg, pos, (pl, pr), out_pos))
                stack.append((_OPEN, a.right, da.right, nr, pr))
                stack.append((_OPEN, a.left, da.left, nl, pl))
            elif cls is Paragraph or cls is OfCourse or cls is WhyNot:
                nb, pb = map(self.edge, (Label(da.body), Label(a.body)))
                depth += 1
                if cls is Paragraph:
                    stack.append((_CLOSE, 1, "paragraph", (nb,), out_neg, "paragraph", (pb,), out_pos))
                else:
                    outer, self.where = self.where, self.ws.open_box(self.where)
                    if cls is OfCourse:
                        stack.append((_CLOSE_BOX, outer, pb, nb, da.body, out_pos, out_neg))
                    else:
                        stack.append((_CLOSE_BOX, outer, nb, pb, a.body, out_neg, out_pos))
                stack.append((_OPEN, a.body, da.body, nb, pb))
            else:
                raise TypeError(f"not a formula: {a!r}")


def eta_expand(net: Net) -> Net:
    """Replace every axiom on a compound formula by its recursive expansion
    until all axioms are atomic; conclusions are untouched."""
    return _eta_expand(net)[0]


def _eta_expand(net: Net) -> tuple[Net, dict[tuple[str, int], int]]:
    """``eta_expand``, and the levels of the atom positions it built."""
    if net.cut_links():
        raise PreconditionError("eta-expansion is defined on cut-free nets")
    ws = _Workspace(net)
    levels = _expand_axioms(ws, net)
    return (net, {}) if levels is None else (ws.freeze(), levels)


def _expand_axioms(ws: _Workspace, net: Net) -> dict[tuple[str, int], int] | None:
    """Expand in place each axiom on a compound formula of the net loaded
    into the workspace; the levels of the atom positions built, or None
    when every axiom is atomic."""
    targets = [
        lid
        for lid in sorted(net.links)
        if net.links[lid].kind == "ax"
        and not isinstance(net.edges[net.links[lid].conclusions[0]].formula, Atom)
    ]
    eb = _EtaBuilder(ws)
    for lid in targets:
        e_neg, e_pos = net.links[lid].conclusions
        eb.where = ws.loc[lid]
        ws.remove_link(lid)
        eb.expand(net.edges[e_pos].formula, net.edges[e_neg].formula, e_neg, e_pos)
    return eb.levels if targets else None


def identity_net(a: Formula) -> Net:
    """Eta-expansion of the axiom on a; conclusions dual(a), a."""
    return eta_expand(builder.ax(a))


def swap_net() -> Net:
    """The crossed variant of the atomic identity block: same conclusions,
    axioms connecting the par and tensor crosswise."""
    block = identity_net(Tensor(Atom(RESERVED_ATOM), Atom(RESERVED_ATOM)))
    return _swap_sites(block, _blocks(block))


# -- atomic identity blocks ----------------------------------------------------


@dataclass(frozen=True)
class AtomSite:
    """One atomic identity (or swap) block: two axioms joined by one par and
    one tensor.  Levels are those of the positions the par and the tensor
    consume, as ``_EtaBuilder`` records them; blocks found by ``_blocks``
    leave them unread."""

    par: str
    tensor: str
    axioms: tuple[str, str]
    crossed: bool
    levels: tuple[int, int] | None = None

    @property
    def level(self) -> int | None:
        return self.levels[0] if self.levels[0] == self.levels[1] else None


def _blocks(net: Net) -> list[AtomSite]:
    """Every atomic identity/swap block of the net, without levels."""
    sites: list[AtomSite] = []
    for lid in sorted(net.links):
        link = net.links[lid]
        if link.kind != "par":
            continue
        producers = [net.producer(e) for e in link.premises]
        if not all(net.links[p].kind == "ax" for p in producers):
            continue
        if producers[0] == producers[1]:
            continue
        ax1, ax2 = producers
        # The other conclusions of both axioms must meet in one tensor.
        others = []
        for axid, prem in zip(producers, link.premises):
            axl = net.links[axid]
            other = axl.conclusions[0] if axl.conclusions[1] == prem else axl.conclusions[1]
            others.append(other)
        cons = [net.consumer(e) for e in others]
        if cons[0] is None or cons[0] != cons[1]:
            continue
        tid = cons[0]
        tlink = net.links[tid]
        if tlink.kind != "tensor":
            continue
        if not all(isinstance(net.edges[e].formula, Atom) for e in link.premises + tlink.premises):
            continue
        # id wiring: the axiom feeding the left par premise also feeds the
        # left tensor premise; otherwise the block is crossed.
        left_par_ax = producers[0]
        left_tensor_ax = net.producer(tlink.premises[0])
        crossed = left_par_ax != left_tensor_ax
        sites.append(AtomSite(lid, tid, (ax1, ax2), crossed))
    return sites


def _swap_sites(net: Net, sites: list[AtomSite]) -> Net:
    """Exchange the tensor premises of each listed block, turning identity
    wiring into crossed wiring and back."""
    links = dict(net.links)
    for site in sites:
        t = links[site.tensor]
        links[site.tensor] = Link("tensor", (t.premises[1], t.premises[0]), t.conclusions)
    return Net(net.edges, links, net.boxes, net.conclusions)


def bullet_net(net: Net) -> Net:
    """Double every edge label atom-wise and replace each atomic axiom with
    the identity block on the doubled atom."""
    axioms = sorted(lid for lid, link in net.links.items() if link.kind == "ax")
    if not all(isinstance(net.edges[net.links[lid].conclusions[0]].formula, Atom) for lid in axioms):
        raise PreconditionError("bullet substitution needs atomic axioms; eta-expand first")
    ws = _Workspace(net)
    for e, lab in ws.edges.items():
        ws.edges[e] = Label(bullet_formula(lab.formula), lab.flat)
    eb = _EtaBuilder(ws)
    for lid in axioms:
        e_neg, e_pos = net.links[lid].conclusions
        if isinstance(ws.edges[e_pos].formula, Par):
            e_neg, e_pos = e_pos, e_neg
        eb.where = ws.loc[lid]
        ws.remove_link(lid)
        eb.expand(ws.edges[e_pos].formula, ws.edges[e_neg].formula, e_neg, e_pos)
    return ws.freeze()


# -- tests ---------------------------------------------------------------------


@dataclass(frozen=True)
class Test:
    net: Net
    formula: Formula
    level: int
    swapped_sites: tuple[AtomSite, ...]


def make_test(a: Formula, k: int) -> Test:
    """Identity net of the doubled formula with every block at level k
    crossed.  Levels above the deepest block give back the identity."""
    base, sites = _test_base(a)
    picked = [s for s in sites if s.level == k]
    return Test(_swap_sites(base, picked), a, k, tuple(picked))


def test_levels(a: Formula) -> list[int]:
    return _levels(s.level for s in _test_base(a)[1])


def _test_base(a: Formula) -> tuple[Net, list[AtomSite]]:
    """The identity net of the doubled formula and its blocks, in the order
    of ``_blocks``: what every test of a shares.  The expanded axiom
    concludes the net, so its block levels are those of the default
    quasi-indexing."""
    base, level = _eta_expand(builder.ax(bullet_formula(a)))
    return base, [replace(s, levels=(level[s.par, 0], level[s.tensor, 0])) for s in _blocks(base)]


def _levels(levels: Iterable[int]) -> list[int]:
    """The levels of a test: zero up to its deepest block or atom."""
    return list(range(1 + max(levels, default=-1)))


# -- composition ----------------------------------------------------------------


class CompositionError(ValueError):
    pass


def cut_compose(net: Net, partners: list[Net | tuple[Net, int]]) -> Net:
    """Juxtapose the net with one partner per conclusion and cut each
    conclusion against the partner's unique dual conclusion (an explicit
    index resolves ambiguity).  Result: the partners' remaining conclusions,
    in partner order."""
    if len(partners) != len(net.conclusions):
        raise CompositionError(
            f"need one partner per conclusion ({len(net.conclusions)}), got {len(partners)}"
        )
    ws, spans = _Workspace(net), []
    for item in partners:
        partner, pick = item if isinstance(item, tuple) else (item, -1)
        offset = len(ws.conclusions)
        spans.append((ws.absorb(partner).conclusions[offset:], pick))
    edges = ws.edges
    for i, (span, pick) in enumerate(spans):
        mine = net.conclusions[i]
        want = dual(edges[mine].formula)
        if pick >= 0:
            candidates = [span[pick]]
        else:
            candidates = [e for e in span if not edges[e].flat and edges[e].formula == want]
        if len(candidates) != 1:
            raise CompositionError(
                f"partner {i} has {len(candidates)} conclusions labelled {want}; pass an explicit index"
            )
        other = candidates[0]
        if edges[other].flat or edges[other].formula != want:
            raise CompositionError(f"partner {i} conclusion {other} is not dual to {edges[mine]}")
        builder._add(ws, "cut", (mine, other))
    return ws.freeze()


def compose(f: Net, g: Net) -> Net:
    """Arrow composition: cut f's second conclusion against g's first.
    For f with conclusions A', B and g with B', C the result concludes
    A', C."""
    if len(f.conclusions) != 2 or len(g.conclusions) != 2:
        raise CompositionError("arrow composition needs two-conclusion nets")
    return builder.cut_rule(f, 1, g, 0)


def syntactic_interpretation(net: Net, budget: int = DEFAULT_STEP_BUDGET) -> Net:
    """Normal form, eta-expanded, atom-doubled, with one bottom link set
    beside it."""
    nf, _ = normalize(net, budget=budget)
    return builder.bottom_rule(bullet_net(eta_expand(nf)))


# -- the interactive decider -----------------------------------------------------


@dataclass(frozen=True)
class LevelReport:
    k: int
    passed: bool
    swapped_sites: int
    residue_is_swapping: bool


@dataclass(frozen=True)
class InteractiveReport:
    member: bool
    levels: tuple[LevelReport, ...]

    def to_document(self, formula_text: str) -> dict:
        return {
            "formula": formula_text,
            "member": self.member,
            "levels": [
                {"k": r.k, "pass": r.passed, "swapped_sites": r.swapped_sites}
                for r in self.levels
            ],
        }


def interactive_l3_check(
    net: Net, budget: int = DEFAULT_STEP_BUDGET, level: int | None = None
) -> InteractiveReport:
    """Cut the doubled form against the test of every level (or of the one
    level given) and demand it reduce back to itself, all by one reduction
    of the undoubled net against the identity test of each compound
    conclusion (see the module docstring).  The report is that of the net's par-closure.
    Levels range over the atoms of the conclusions; higher tests equal the
    identity and pass trivially."""
    if net.cut_links():
        raise PreconditionError("the interactive check needs a cut-free net; normalize first")
    if not net.conclusions or net.has_flat_conclusion():
        raise PreconditionError("the interactive check needs a net with a conclusion and no flat one")
    eta, ws, cuts, level_of = _identity_cut(net)
    levels = _levels(level_of.values())
    if not levels and len(cuts) < len(net.conclusions):
        levels = [0]  # an atomic conclusion gets no test, but its end is at level 0
    if level is not None:
        if level not in levels:
            raise PreconditionError(f"{level} is not a level of {closed_text(net)}; its levels are {levels}")
        levels = [level]
    if not levels:
        return InteractiveReport(True, ())
    trace = _reduce(ws, {cut: (i,) for i, cut in enumerate(cuts)}, budget=budget)
    # The levels of the test positions that each axiom's ends lift to; an
    # atomic conclusion gets no test and stays a conclusion, whose end
    # counts at level 0, where the closed test's par would consume it.
    links, consumer, lift = ws.links, ws.consumer, trace.lift_to_source
    pairs = []
    for link in links.values():
        if link.kind == "ax":
            pair = []
            for e in link.conclusions:
                c = consumer.get(e)
                pair.append(0 if c is None else level_of.get((lift(c), links[c].premises.index(e))))
            pairs.append(pair)
    same = _walk_isomorphic(ws, eta) or nets_equal(ws.freeze(), eta)
    reports: list[LevelReport] = []
    for k in levels:
        crossed = sum(pair.count(k) == 1 for pair in pairs)
        # pib crosses no block, so a level's doubled normal form is pib
        # exactly when it crosses none and the normal form is the net.
        passed = same and crossed == 0
        reports.append(LevelReport(k, passed, crossed, same and not passed))
    return InteractiveReport(all(r.passed for r in reports), tuple(reports))


def closed_text(net: Net) -> str:
    """The text of the par-closure's conclusion, ``(A1 @ (A2 @ ... An))``,
    joined from the conclusions' texts without building the closure."""
    texts = [print_formula(net.edges[e].formula) for e in net.conclusions]
    return "".join(f"({t} @ " for t in texts[:-1]) + texts[-1] + ")" * (len(texts) - 1)


def _identity_cut(net: Net) -> tuple[Net, _Workspace, list[str], dict[tuple[str, int], int]]:
    """The eta-expansion of a cut-free net; a workspace that holds it with
    each compound conclusion cut against the identity test of its formula
    (``cut_compose`` up to the tests' ids), the tests' positive sides as
    its conclusions, in order, where an atomic conclusion stays itself:
    its test would be a bare axiom, which the axiom step removes again; the
    cuts, in conclusion order; and the level of each atom position of the
    tests, keyed by the link and premise slot that consume it.  The net is
    expanded there, and frozen only if it has a compound axiom."""
    ws = _Workspace(net)
    eta = net if _expand_axioms(ws, net) is None else ws.freeze()
    eb = _EtaBuilder(ws)
    cuts, positives = [], []
    for c in net.conclusions:
        a = ws.edges[c].formula
        if isinstance(a, Atom):
            positives.append(c)
            continue
        da = dual(a)
        neg, pos = eb.edge(Label(da)), eb.edge(Label(a))
        eb.expand(a, da, neg, pos)
        cuts.append(eb.link("cut", (c, neg), ()))
        positives.append(pos)
    ws.conclusions = positives
    return eta, ws, cuts, eb.levels


# -- feet --------------------------------------------------------------------------


@dataclass(frozen=True)
class Foot:
    """Composition residue of one atomic block cut against identity blocks
    on both sides, after reduction without axiom steps: two three-axiom
    chains between one surviving par and one surviving tensor."""

    par: str
    tensor: str
    inner_axioms: tuple[str, str]
    outer_axioms: tuple[str, ...]


def detect_feet(net: Net) -> list[Foot]:
    feet = []
    for pid in sorted(net.links):
        plink = net.links[pid]
        if plink.kind != "par":
            continue
        chains = []
        for prem in plink.premises:
            chain = _axiom_chain(net, prem)
            if chain is None:
                break
            chains.append(chain)
        if len(chains) != 2:
            continue
        (u1, m1, v1, t1, _), (u2, m2, v2, t2, _) = chains
        if t1 != t2:
            continue
        if len({u1, m1, v1, u2, m2, v2}) != 6:
            continue
        feet.append(Foot(pid, t1, (m1, m2), (u1, v1, u2, v2)))
    return feet


def _axiom_chain(net: Net, start_edge: str):
    """Follow par-premise -> axiom -> cut -> axiom -> cut -> axiom ->
    tensor-premise; returns (ax, ax, ax, tensor, edges) or None."""

    def across_axiom(axid: str, via: str) -> str | None:
        link = net.links[axid]
        if link.kind != "ax":
            return None
        return link.conclusions[0] if link.conclusions[1] == via else link.conclusions[1]

    def across_cut(edge: str) -> str | None:
        cons = net.consumer(edge)
        if cons is None or net.links[cons].kind != "cut":
            return None
        cut = net.links[cons]
        return cut.premises[0] if cut.premises[1] == edge else cut.premises[1]

    u = net.producer(start_edge)
    e1 = across_axiom(u, start_edge)
    if e1 is None:
        return None
    e2 = across_cut(e1)
    if e2 is None:
        return None
    m = net.producer(e2)
    e3 = across_axiom(m, e2)
    if e3 is None:
        return None
    e4 = across_cut(e3)
    if e4 is None:
        return None
    v = net.producer(e4)
    e5 = across_axiom(v, e4)
    if e5 is None:
        return None
    cons = net.consumer(e5)
    if cons is None or net.links[cons].kind != "tensor":
        return None
    return (u, m, v, cons, (start_edge, e1, e2, e3, e4, e5))


def feet_composition(net: Net, budget: int = DEFAULT_STEP_BUDGET) -> tuple[Net, RewriteTrace, Net]:
    """Cut the doubled form of an eta-expanded net against identity nets on
    all conclusions and reduce without axiom steps.  Returns the fixed
    point, its trace, and the doubled form it started from."""
    pib = bullet_net(net)
    ids = [identity_net(bullet_formula(net.edges[e].formula)) for e in net.conclusions]
    composed = cut_compose(pib, list(ids))
    nf, trace = normalize_no_axiom(composed, budget=budget)
    return nf, trace, pib


__all__ = [
    "eta_expand",
    "identity_net",
    "swap_net",
    "AtomSite",
    "bullet_net",
    "Test",
    "make_test",
    "test_levels",
    "CompositionError",
    "cut_compose",
    "compose",
    "syntactic_interpretation",
    "LevelReport",
    "InteractiveReport",
    "interactive_l3_check",
    "closed_text",
    "Foot",
    "detect_feet",
    "feet_composition",
]
