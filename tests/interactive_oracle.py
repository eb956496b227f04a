"""The per-level interactive check, kept as the reference for
``stratnet.interactive.interactive_l3_check``.

For every level it builds the level's test, cuts the doubled net against
it, normalizes the composite and labels the normal form; the decider reads
every level off one reduction against the identity test instead.
"""

from __future__ import annotations

from stratnet.correctness import PreconditionError
from stratnet.formula import print_formula
from stratnet.interactive import (
    LevelReport,
    _levels,
    _swap_residue,
    _swap_sites,
    _test_base,
    _unswapped,
    bullet_net,
    cut_compose,
    eta_expand,
)
from stratnet.net import Net, canonical_form
from stratnet.rewrite import DEFAULT_STEP_BUDGET, normalize


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
            nf_unswapped = _unswapped(nf)
            swapped = sum(1 for s in nf_unswapped[0] if s.crossed)
            residue_swapping = _swap_residue(nf_unswapped, _unswapped(pib))
        out.append((k, nf, LevelReport(k, passed, swapped, residue_swapping)))
    return out
