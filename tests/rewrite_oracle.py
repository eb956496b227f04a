"""The per-step normalization driver, kept as the reference for the
worklist engine in ``stratnet.rewrite``.

Each step rescans the net for redexes, ranks them by a fresh
``traversal_order`` (and, for ``level``, a fresh plain indexing of the
current net), and rebuilds the net with ``apply_step``; its cost per step
grows with the net.  ``lift_to_source_by_walk`` is the reference for
``RewriteTrace.lift_to_source``: it walks one id back through every step.
"""

from __future__ import annotations

from stratnet.net import Net, traversal_order
from stratnet.rewrite import STEP_AXIOM, RewriteTrace, Step, _plain_levels, apply_step, find_redexes


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
