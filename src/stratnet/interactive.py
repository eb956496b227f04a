"""Interactive membership machinery: eta-expansion, the atomic doubling
substitution, identity and swap nets, level tests, and test-driven
membership checking.

A test of type A at level k is the identity net of the doubled formula with
every atomic identity block sitting at level k replaced by the crossed
variant.  A cut-free net with conclusion A is accepted at level k when
cutting its doubled form against the test reduces back to the doubled form
itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .builder import _Fresh
from .correctness import (
    Indexing,
    PreconditionError,
    default_exponential_quasi_indexing,
)
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
from .net import Box, Label, Link, Net, canonical_form, canonical_order
from .rewrite import DEFAULT_STEP_BUDGET, RewriteTrace, normalize, normalize_no_axiom


# -- eta-expansion ------------------------------------------------------------


class _EtaBuilder:
    """Accumulates the expansion of one axiom; boxes produced along the way
    are collected so the caller can splice them at the axiom's location."""

    def __init__(self, fresh: _Fresh):
        self.fresh = fresh
        self.edges: dict[str, Label] = {}
        self.links: dict[str, Link] = {}
        self.all_links: set[str] = set()

    def edge(self, label: Label) -> str:
        e = self.fresh.edge()
        self.edges[e] = label
        return e

    def link(self, kind: str, premises: tuple[str, ...], conclusions: tuple[str, ...]) -> str:
        lid = self.fresh.link()
        self.links[lid] = Link(kind, premises, conclusions)
        self.all_links.add(lid)
        return lid

    def expand(self, a: Formula, out_neg: str, out_pos: str) -> tuple[Box, ...]:
        """Build links concluding out_neg (labelled dual a) and out_pos
        (labelled a); returns the boxes created at this level."""
        match a:
            case Atom():
                self.link("ax", (), (out_neg, out_pos))
                return ()
            case One():
                self.link("bot", (), (out_neg,))
                self.link("one", (), (out_pos,))
                return ()
            case Bottom():
                self.link("one", (), (out_neg,))
                self.link("bot", (), (out_pos,))
                return ()
            case Tensor(l, r):
                nl = self.edge(Label(dual(l)))
                pl = self.edge(Label(l))
                nr = self.edge(Label(dual(r)))
                pr = self.edge(Label(r))
                boxes = self.expand(l, nl, pl) + self.expand(r, nr, pr)
                self.link("par", (nl, nr), (out_neg,))
                self.link("tensor", (pl, pr), (out_pos,))
                return boxes
            case Par(l, r):
                nl = self.edge(Label(dual(l)))
                pl = self.edge(Label(l))
                nr = self.edge(Label(dual(r)))
                pr = self.edge(Label(r))
                boxes = self.expand(l, nl, pl) + self.expand(r, nr, pr)
                self.link("tensor", (nl, nr), (out_neg,))
                self.link("par", (pl, pr), (out_pos,))
                return boxes
            case Paragraph(b):
                nb = self.edge(Label(dual(b)))
                pb = self.edge(Label(b))
                boxes = self.expand(b, nb, pb)
                self.link("paragraph", (nb,), (out_neg,))
                self.link("paragraph", (pb,), (out_pos,))
                return boxes
            case OfCourse(b):
                return (self._box(b, flat_side_neg=True, out_neg=out_neg, out_pos=out_pos),)
            case WhyNot(b):
                return (self._box(b, flat_side_neg=False, out_neg=out_neg, out_pos=out_pos),)
        raise TypeError(f"not a formula: {a!r}")

    def _box(self, b: Formula, flat_side_neg: bool, out_neg: str, out_pos: str) -> Box:
        """Box for an exponential axiom: the expansion of the body sits in a
        box whose principal door bangs one side; the other side is flattened
        inside, exits through one pax port, and meets a unary why-not."""
        before = set(self.all_links)
        nb = self.edge(Label(dual(b)))
        pb = self.edge(Label(b))
        children = self.expand(b, nb, pb)
        if flat_side_neg:
            principal_in, flat_in = pb, nb
            oc_out, wn_out = out_pos, out_neg
        else:
            principal_in, flat_in = nb, pb
            oc_out, wn_out = out_neg, out_pos
        flat_label = Label(self.edges[flat_in].formula, flat=True)
        flat_out = self.edge(flat_label)
        flat_id = self.link("flat", (flat_in,), (flat_out,))
        inside = (self.all_links - before) | {flat_id}
        pax_out = self.edge(flat_label)
        pax_id = self.link("pax", (flat_out,), (pax_out,))
        oc_id = self.link("ofcourse", (principal_in,), (oc_out,))
        self.link("whynot", (pax_out,), (wn_out,))
        return Box(oc_id, (pax_id,), frozenset(inside), children)


def eta_expand(net: Net) -> Net:
    """Replace every axiom on a compound formula by its recursive expansion
    until all axioms are atomic; conclusions are untouched."""
    if net.cut_links():
        raise PreconditionError("eta-expansion is defined on cut-free nets")
    targets = [
        lid
        for lid in sorted(net.links)
        if net.links[lid].kind == "ax"
        and not isinstance(net.edges[net.links[lid].conclusions[0]].formula, Atom)
    ]
    if not targets:
        return net
    fresh = _Fresh(net)
    edges = dict(net.edges)
    links = dict(net.links)
    new_boxes_at: dict[str, tuple[Box, ...]] = {}
    new_links_at: dict[str, set[str]] = {}
    innermost: dict[str, str | None] = {}
    for lid in targets:
        e_neg, e_pos = net.links[lid].conclusions
        eb = _EtaBuilder(fresh)
        boxes = eb.expand(edges[e_pos].formula, e_neg, e_pos)
        del links[lid]
        links.update(eb.links)
        edges.update(eb.edges)
        new_boxes_at[lid] = boxes
        new_links_at[lid] = set(eb.all_links)
        chain = net.enclosing_boxes(lid)
        innermost[lid] = chain[-1].principal if chain else None

    def rebox(box: Box) -> Box:
        extra_links: set[str] = set()
        extra_boxes: list[Box] = []
        for lid, new_ids in new_links_at.items():
            if lid in box.contents:
                extra_links |= new_ids
                if innermost[lid] == box.principal:
                    extra_boxes.extend(new_boxes_at[lid])
        contents = (box.contents - set(new_links_at)) | extra_links
        children = tuple(rebox(c) for c in box.children) + tuple(extra_boxes)
        return Box(box.principal, box.auxiliaries, frozenset(contents), children)

    boxes = tuple(rebox(b) for b in net.boxes)
    top_extra = [b for lid in targets if innermost[lid] is None for b in new_boxes_at[lid]]
    return Net(edges, links, boxes + tuple(top_extra), net.conclusions)


def identity_net(a: Formula) -> Net:
    """Eta-expansion of the axiom on a; conclusions dual(a), a."""
    from .builder import ax

    return eta_expand(ax(a))


def swap_net() -> Net:
    """The crossed variant of the atomic identity block: same conclusions,
    axioms connecting the par and tensor crosswise."""
    block = identity_net(Tensor(Atom(RESERVED_ATOM), Atom(RESERVED_ATOM)))
    return _swap_sites(block, [s for s in atom_sites(block)])


# -- atomic identity blocks ----------------------------------------------------


@dataclass(frozen=True)
class AtomSite:
    """One atomic identity (or swap) block: two axioms joined by one par and
    one tensor.  Levels are the default quasi-indexing values of the par and
    tensor conclusion wires."""

    par: str
    tensor: str
    axioms: tuple[str, str]
    crossed: bool
    levels: tuple[int, int]

    @property
    def level(self) -> int | None:
        return self.levels[0] if self.levels[0] == self.levels[1] else None

    def link_ids(self) -> tuple[str, str, str, str]:
        return (self.par, self.tensor) + self.axioms


def atom_sites(net: Net, indexing: Indexing | None = None) -> list[AtomSite]:
    """Locate every atomic identity/swap block.  The net must be of doubled
    shape: every axiom is atomic and feeds exactly one par and one tensor
    forming a block."""
    quasi = indexing or default_exponential_quasi_indexing(net)
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
        levels = (quasi.assignment[link.conclusions[0]], quasi.assignment[tlink.conclusions[0]])
        sites.append(AtomSite(lid, tid, (ax1, ax2), crossed, levels))
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
    for lid in net.links:
        if net.links[lid].kind == "ax":
            f = net.edges[net.links[lid].conclusions[0]].formula
            if not isinstance(f, Atom):
                raise PreconditionError("bullet substitution needs atomic axioms; eta-expand first")
    edges = {e: Label(bullet_formula(lab.formula), lab.flat) for e, lab in net.edges.items()}
    links = dict(net.links)
    fresh = _Fresh(net)
    replaced: dict[str, set[str]] = {}
    X = Atom(RESERVED_ATOM)
    Xd = Atom(RESERVED_ATOM, True)
    for lid in sorted(net.links):
        link = net.links[lid]
        if link.kind != "ax":
            continue
        e_neg, e_pos = link.conclusions
        if isinstance(edges[e_pos].formula, Par):
            e_neg, e_pos = e_pos, e_neg
        new_ids: set[str] = set()

        def mk_edge(lab: Label) -> str:
            e = fresh.edge()
            edges[e] = lab
            return e

        def mk_link(kind: str, prem: tuple[str, ...], conc: tuple[str, ...]) -> str:
            l = fresh.link()
            links[l] = Link(kind, prem, conc)
            new_ids.add(l)
            return l

        n1, p1 = mk_edge(Label(Xd)), mk_edge(Label(X))
        n2, p2 = mk_edge(Label(Xd)), mk_edge(Label(X))
        mk_link("ax", (), (n1, p1))
        mk_link("ax", (), (n2, p2))
        mk_link("par", (n1, n2), (e_neg,))
        mk_link("tensor", (p1, p2), (e_pos,))
        del links[lid]
        replaced[lid] = new_ids

    def rebox(box: Box) -> Box:
        contents = set(box.contents)
        for lid, new_ids in replaced.items():
            if lid in contents:
                contents.discard(lid)
                contents |= new_ids
        return Box(box.principal, box.auxiliaries, frozenset(contents), tuple(rebox(c) for c in box.children))

    return Net(edges, links, tuple(rebox(b) for b in net.boxes), net.conclusions)


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
    return _make_test(a, k, *_test_base(a))


def test_levels(a: Formula) -> list[int]:
    return _levels(*_test_base(a))


def _test_base(a: Formula) -> tuple[Net, list[AtomSite]]:
    """The identity net of the doubled formula and its blocks: what every
    test of a shares."""
    base = identity_net(bullet_formula(a))
    return base, atom_sites(base)


def _make_test(a: Formula, k: int, base: Net, sites: list[AtomSite]) -> Test:
    picked = [s for s in sites if s.level == k]
    return Test(_swap_sites(base, picked), a, k, tuple(picked))


def _levels(base: Net, sites: list[AtomSite]) -> list[int]:
    if not base.links:
        return []
    levels = sorted({s.level for s in sites if s.level is not None})
    return list(range(0, (max(levels) + 1) if levels else 0))


# -- composition ----------------------------------------------------------------


class CompositionError(ValueError):
    pass


def cut_compose(net: Net, partners: list[Net | tuple[Net, int]]) -> Net:
    """Juxtapose the net with one partner per conclusion and cut each
    conclusion against the partner's unique dual conclusion (an explicit
    index resolves ambiguity).  Result: the partners' remaining conclusions,
    in partner order."""
    from .builder import mix

    if len(partners) != len(net.conclusions):
        raise CompositionError(
            f"need one partner per conclusion ({len(net.conclusions)}), got {len(partners)}"
        )
    acc = net
    offsets: list[int] = []
    partner_sizes: list[int] = []
    picks: list[int] = []
    for item in partners:
        partner, index = item if isinstance(item, tuple) else (item, -1)
        offsets.append(len(acc.conclusions))
        partner_sizes.append(len(partner.conclusions))
        picks.append(index)
        acc = mix(acc, partner)
    edges = dict(acc.edges)
    links = dict(acc.links)
    fresh = _Fresh(acc)
    consumed: set[str] = set()
    for i in range(len(partners)):
        mine = acc.conclusions[i]
        want = dual(acc.edges[mine].formula)
        span = acc.conclusions[offsets[i] : offsets[i] + partner_sizes[i]]
        if picks[i] >= 0:
            candidates = [span[picks[i]]]
        else:
            candidates = [e for e in span if not acc.edges[e].flat and acc.edges[e].formula == want]
        if len(candidates) != 1:
            raise CompositionError(
                f"partner {i} has {len(candidates)} conclusions labelled {want}; pass an explicit index"
            )
        other = candidates[0]
        if acc.edges[other].flat or acc.edges[other].formula != want:
            raise CompositionError(f"partner {i} conclusion {other} is not dual to {acc.edges[mine]}")
        links[fresh.link()] = Link("cut", (mine, other), ())
        consumed.add(mine)
        consumed.add(other)
    conclusions = tuple(e for e in acc.conclusions if e not in consumed)
    return Net(edges, links, acc.boxes, conclusions)


def compose(f: Net, g: Net) -> Net:
    """Arrow composition: cut f's second conclusion against g's first.
    For f with conclusions A', B and g with B', C the result concludes
    A', C."""
    from .builder import cut_rule

    if len(f.conclusions) != 2 or len(g.conclusions) != 2:
        raise CompositionError("arrow composition needs two-conclusion nets")
    return cut_rule(f, 1, g, 0)


def syntactic_interpretation(net: Net, budget: int = DEFAULT_STEP_BUDGET) -> Net:
    """Normal form, eta-expanded, atom-doubled, with one bottom link set
    beside it."""
    from .builder import bottom_rule

    nf, _ = normalize(net, budget=budget)
    return bottom_rule(bullet_net(eta_expand(nf)))


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

    def to_document(self, formula: Formula) -> dict:
        return {
            "formula": print_formula(formula),
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
    level given) and demand it reduce back to itself.  Levels range over
    the blocks of the identity net of the doubled conclusion; higher tests
    equal the identity and pass trivially."""
    if net.cut_links():
        raise PreconditionError("the interactive check needs a cut-free net; normalize first")
    if len(net.conclusions) != 1:
        raise PreconditionError("the interactive check needs a single conclusion; close the net first")
    a = net.edges[net.conclusions[0]].formula
    base, sites = _test_base(a)
    levels = _levels(base, sites)
    if level is not None:
        if level not in levels:
            raise PreconditionError(
                f"{level} is not a level of {print_formula(a)}; its levels are {levels}"
            )
        levels = [level]
    pib = bullet_net(eta_expand(net))
    pib_form = canonical_form(pib)
    pib_unswapped = None
    reports: list[LevelReport] = []
    ok = True
    for k in levels:
        theta = _make_test(a, k, base, sites)
        composed = cut_compose(pib, [theta.net])
        nf, _ = normalize(composed, budget=budget)
        passed = canonical_form(nf) == pib_form
        swapped = 0
        residue_swapping = False
        if not passed:
            ok = False
            nf_unswapped = _unswapped(nf)
            swapped = sum(1 for s in nf_unswapped[0] if s.crossed)
            pib_unswapped = pib_unswapped or _unswapped(pib)
            residue_swapping = _swap_residue(nf_unswapped, pib_unswapped)
        reports.append(LevelReport(k, passed, swapped, residue_swapping))
    return InteractiveReport(ok, tuple(reports))


# -- comparison up to block swaps -------------------------------------------------


def swapping_compare(a: Net, b: Net) -> bool:
    """True iff a is b with at least one identity block turned into a swap
    block (and no change in the other direction)."""
    return _swap_residue(_unswapped(a), _unswapped(b))


def _unswapped(net: Net) -> tuple[list[AtomSite], Net, bytes]:
    """The net's blocks, the net with every swap block turned back into an
    identity block, and that net's canonical form."""
    sites = atom_sites(net)
    plain = _swap_sites(net, [s for s in sites if s.crossed])
    return sites, plain, canonical_form(plain)


def _swap_residue(a: tuple[list[AtomSite], Net, bytes], b: tuple[list[AtomSite], Net, bytes]) -> bool:
    """swapping_compare on the _unswapped views of both nets."""
    (sa, na, form_a), (sb, nb, form_b) = a, b
    if len(sa) != len(sb) or form_a != form_b:
        return False
    strict = 0
    for fa, fb in zip(_flags_in_canonical_order(sa, na), _flags_in_canonical_order(sb, nb)):
        if fa and not fb:
            strict += 1
        elif fb and not fa:
            return False
    return strict > 0


def _flags_in_canonical_order(sites: list[AtomSite], normalized: Net) -> list[bool]:
    """Crossed-flags of the blocks, listed by the canonical rank of their
    tensor links in the identity-normalized net (ids are shared)."""
    rank = canonical_order(normalized)
    return [s.crossed for s in sorted(sites, key=lambda s: rank[s.tensor])]


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
    "atom_sites",
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
    "swapping_compare",
    "Foot",
    "detect_feet",
    "feet_composition",
]
