"""The per-level interactive check, kept as the reference for
``stratnet.interactive.interactive_l3_check``, and ``atom_sites``, the
reference for the block levels that the check's eta-expansion records.

For every level it builds the level's test, cuts the doubled net against
it, normalizes the composite and labels the normal form; the decider reads
every level off one reduction against the identity test instead.
"""

from __future__ import annotations

from dataclasses import replace

from stratnet.correctness import PreconditionError, default_exponential_quasi_indexing
from stratnet.formula import print_formula
from stratnet.interactive import (
    AtomSite,
    LevelReport,
    _blocks,
    _levels,
    _swap_sites,
    _test_base,
    bullet_net,
    cut_compose,
    eta_expand,
    swapping_compare,
)
from stratnet.net import Net, canonical_form
from stratnet.rewrite import DEFAULT_STEP_BUDGET, normalize


def atom_sites(net: Net) -> list[AtomSite]:
    """Locate every atomic identity/swap block, with the default
    quasi-indexing values of its par and tensor conclusion wires as its
    levels.  The net must be of doubled shape: every axiom is atomic and
    feeds exactly one par and one tensor forming a block."""
    quasi = default_exponential_quasi_indexing(net).assignment
    level = {lid: quasi[link.conclusions[0]] for lid, link in net.links.items() if link.kind in ("par", "tensor")}
    return [replace(s, levels=(level[s.par], level[s.tensor])) for s in _blocks(net)]


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
    levels = _levels(sites)
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
