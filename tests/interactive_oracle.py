"""Two references for ``stratnet.interactive.interactive_l3_check``;
``atom_sites``, the reference for the block levels that the eta-expansion
of a test records; and ``swapping_compare``, which the per-level reference
uses to tell a block swapping.

``oracle_level_normal_forms`` builds each level's test, cuts the doubled
net against it, normalizes the composite and labels the normal form.
``doubled_l3_check`` reduces the doubled net once, against the identity
test of its doubled conclusion, and derives every level's normal form from
that reduction: a normal-form block is crossed at level k when its par and
tensor lift to test blocks of which exactly one is at level k.  The
decider reduces the undoubled net instead, where each such block is one
atomic axiom.
"""

from __future__ import annotations

from dataclasses import replace

from stratnet.correctness import PreconditionError, default_exponential_quasi_indexing
from stratnet.formula import dual, print_formula
from stratnet.interactive import (
    AtomSite,
    InteractiveReport,
    LevelReport,
    _blocks,
    _EtaBuilder,
    _levels,
    _swap_sites,
    _test_base,
    bullet_net,
    cut_compose,
    eta_expand,
)
from stratnet.net import Label, Net, _Canonicalizer, canonical_form, nets_equal
from stratnet.rewrite import DEFAULT_STEP_BUDGET, _reduce, _Workspace, normalize


def atom_sites(net: Net) -> list[AtomSite]:
    """Locate every atomic identity/swap block, with the default
    quasi-indexing values of its par and tensor conclusion wires as its
    levels.  The net must be of doubled shape: every axiom is atomic and
    feeds exactly one par and one tensor forming a block."""
    quasi = default_exponential_quasi_indexing(net).assignment
    level = {lid: quasi[link.conclusions[0]] for lid, link in net.links.items() if link.kind in ("par", "tensor")}
    return [replace(s, levels=(level[s.par], level[s.tensor])) for s in _blocks(net)]


def swapping_compare(a: Net, b: Net) -> bool:
    """True iff a is b with at least one identity block turned into a swap
    block (and no change in the other direction)."""
    views = []
    for net in (a, b):
        # The encoding of the net with every swap block turned back into an
        # identity block, and the crossed-flags of its blocks by the
        # canonical rank of their tensors there.
        sites = _blocks(net)
        by_rank, encoding = _Canonicalizer(_swap_sites(net, [s for s in sites if s.crossed])).labelling()
        rank = {lid: r for r, lid in enumerate(by_rank)}
        views.append((encoding, [s.crossed for s in sorted(sites, key=lambda s: rank[s.tensor])]))
    (form_a, flags_a), (form_b, flags_b) = views
    # Equal forms have as many blocks, ranked alike.
    return form_a == form_b and flags_a != flags_b and all(fa >= fb for fa, fb in zip(flags_a, flags_b))


def oracle_level_normal_forms(
    net: Net, budget: int = DEFAULT_STEP_BUDGET, level: int | None = None
) -> list[tuple[int, Net, LevelReport]]:
    """Per tested level: k, the normal form of the doubled net cut against
    the level-k test, and the level's report."""
    if net.cut_links():
        raise PreconditionError("the interactive check needs a cut-free net; normalize first")
    if len(net.conclusions) != 1:
        raise PreconditionError("the interactive check needs a single conclusion; close the net first")
    a = net.edges[net.conclusions[0]].formula
    base, sites = _test_base(a)
    levels = _levels(s.level for s in sites)
    if level is not None:
        if level not in levels:
            raise PreconditionError(
                f"{level} is not a level of {print_formula(a)}; its levels are {levels}"
            )
        levels = [level]
    pib = bullet_net(eta_expand(net))
    pib_form = canonical_form(pib)
    out = []
    for k in levels:
        test = _swap_sites(base, [s for s in sites if s.level == k])
        nf, _ = normalize(cut_compose(pib, [test]), budget=budget)
        passed = canonical_form(nf) == pib_form
        swapped, residue_swapping = 0, False
        if not passed:
            swapped = sum(s.crossed for s in _blocks(nf))
            residue_swapping = swapping_compare(nf, pib)
        out.append((k, nf, LevelReport(k, passed, swapped, residue_swapping)))
    return out


def doubled_l3_check(
    net: Net, budget: int = DEFAULT_STEP_BUDGET, level: int | None = None
) -> InteractiveReport:
    """The interactive check by one reduction of the doubled net against
    the doubled identity test, every level's normal form derived from it."""
    if net.cut_links():
        raise PreconditionError("the interactive check needs a cut-free net; normalize first")
    if len(net.conclusions) != 1:
        raise PreconditionError("the interactive check needs a single conclusion; close the net first")
    pib, ws, cut, sites = _identity_cut(net)
    levels = _levels(s.level for s in sites)
    if level is not None:
        if level not in levels:
            a = net.edges[net.conclusions[0]].formula
            raise PreconditionError(
                f"{level} is not a level of {print_formula(a)}; its levels are {levels}"
            )
        levels = [level]
    if not levels:
        return InteractiveReport(True, ())
    level_of = {lid: s.level for s in sites for lid in (s.par, s.tensor)}
    trace = _reduce(ws, {cut: (0,)}, budget=budget)
    nf = ws.freeze()
    nf_sites = _blocks(nf)
    # The levels of the test blocks that each block's par and tensor lift to.
    ends = [tuple(level_of.get(trace.lift_to_source(x)) for x in (s.par, s.tensor)) for s in nf_sites]
    # Every level's normal form, its blocks uncrossed, is the identity's.
    same = nets_equal(_swap_sites(nf, [s for s in nf_sites if s.crossed]), pib)
    reports: list[LevelReport] = []
    for k in levels:
        flip = {s.tensor for s in _crossed_at(k, nf_sites, ends)}
        swapped = sum(s.crossed != (s.tensor in flip) for s in nf_sites)
        # pib crosses no block, so a level's normal form is pib exactly
        # when it crosses none and is pib once uncrossed.
        passed = same and swapped == 0
        reports.append(LevelReport(k, passed, swapped, same and not passed))
    return InteractiveReport(all(r.passed for r in reports), tuple(reports))


def _identity_cut(net: Net) -> tuple[Net, _Workspace, str, list[AtomSite]]:
    """``pib``, the doubled eta-expansion of a closed cut-free net; its
    workspace, which goes on to hold ``pib`` cut against the identity test
    of its conclusion (``cut_compose`` up to the test's ids); the cut; and
    the test's blocks, with their levels."""
    pib = bullet_net(eta_expand(net))
    ws = _Workspace(pib)
    (c,) = ws.conclusions
    a = ws.edges[c].formula
    eb = _EtaBuilder(ws)
    neg, pos = eb.edge(Label(dual(a))), eb.edge(Label(a))
    eb.expand(a, dual(a), neg, pos)
    cut = eb.link("cut", (c, neg), ())
    ws.conclusions = [pos]
    return pib, ws, cut, _recorded_blocks(ws, eb.levels)


def _recorded_blocks(ws: _Workspace, level: dict[tuple[str, int], int]) -> list[AtomSite]:
    """The blocks of the test just expanded into the workspace, with the
    levels its eta-expansion recorded: each par both of whose premises are
    recorded atom positions, with the tensor its axioms also feed."""
    sites = []
    for (lid, slot), k in level.items():
        link = ws.links[lid]
        if slot == 0 and link.kind == "par" and (lid, 1) in level:
            axioms = tuple(ws.producer[e] for e in link.premises)
            other = next(e for e in ws.links[axioms[0]].conclusions if e != link.premises[0])
            sites.append(AtomSite(lid, ws.consumer[other], axioms, False, (k, k)))
    return sites


def _crossed_at(k: int, sites: list[AtomSite], ends: list[tuple]) -> list[AtomSite]:
    """The normal-form blocks whose wires pass through exactly one crossed
    block of the level-k test."""
    return [s for s, (p, t) in zip(sites, ends) if (p == k) != (t == k)]
