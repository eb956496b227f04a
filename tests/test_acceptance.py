"""Acceptance suite.

Each test implements one acceptance criterion at its stated size and
tolerance and prints a single pass/fail line.  Everything here is exact:
zero tolerated violations unless the criterion says otherwise.
"""

from __future__ import annotations

import random

from stratnet.formula import bullet_formula
from stratnet.net import nets_equal, parr_closure, validate
from stratnet import builder
from stratnet.builder import GenParams
from stratnet.correctness import (
    BalanceWitness,
    check_indexing,
    default_exponential_quasi_indexing,
    indexing_components,
    is_dr_correct,
    is_l3_geometric,
    is_l3_indexing_route,
    is_proof_net,
    is_strongly_indexable,
    shift_indexing,
    solve_indexing,
)
from stratnet.interactive import (
    bullet_net,
    compose,
    cut_compose,
    detect_feet,
    eta_expand,
    feet_composition,
    identity_net,
    interactive_l3_check,
    make_test,
)
from stratnet.interactive import test_levels as level_range
from stratnet.rewrite import (
    apply_step,
    find_redexes,
    normalize,
    normalize_no_axiom,
    shift_net,
    transport_indexing,
)

from conftest import (
    brute_force_indexable,
    make_unstable_membership_net,
    tensor_loop_net,
)
from interactive_oracle import atom_sites


def report(number: int, ok: bool, description: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status}: {description}")


BIAS_MIXES = [
    GenParams(cut_bias=0.0, exponential_bias=0.35, paragraph_bias=0.15, box_bias=0.3),
    GenParams(cut_bias=0.0, exponential_bias=0.55, paragraph_bias=0.05, box_bias=0.5),
    GenParams(cut_bias=0.0, exponential_bias=0.15, paragraph_bias=0.4, box_bias=0.2),
    GenParams(cut_bias=0.0, exponential_bias=0.0, paragraph_bias=0.0, box_bias=0.0),
    GenParams(cut_bias=0.0, exponential_bias=0.45, paragraph_bias=0.3, box_bias=0.4),
]


def cut_free_corpus(count: int, max_links: int = 40):
    """Cut-free DR-net corpus with mixed biases and sizes up to max_links."""
    out = []
    seed = 0
    rng = random.Random(99)
    while len(out) < count:
        params = BIAS_MIXES[seed % len(BIAS_MIXES)]
        size = rng.randint(2, 34)
        n = builder.random_net(10_000 + seed, GenParams(
            target_size=size,
            cut_bias=0.0,
            exponential_bias=params.exponential_bias,
            paragraph_bias=params.paragraph_bias,
            box_bias=params.box_bias,
        ))
        seed += 1
        if n.conclusions and not n.has_flat_conclusion() and len(n.links) <= max_links:
            out.append(n)
    return out


def test_criterion_1_three_way_agreement():
    corpus = cut_free_corpus(1000)
    disagreements = 0
    members = 0
    for n in corpus:
        assert not n.cut_links() and is_dr_correct(n)
        closed = parr_closure(n)
        v_index = is_l3_indexing_route(closed, check_preconditions=False) is True
        v_geo = is_l3_geometric(closed, check_preconditions=False) is True
        v_inter = interactive_l3_check(closed).member
        if not (v_index == v_geo == v_inter):
            disagreements += 1
        members += v_geo
    ok = disagreements == 0
    report(1, ok, f"three-way agreement on {len(corpus)} cut-free DR-nets "
                  f"({members} members), {disagreements} disagreements")
    assert ok


def test_criterion_2_reference_net_regressions(
    shift_source_net, dereliction_net, par_shift_net, shift_par_net
):
    failures = []

    if isinstance(solve_indexing(shift_source_net, "exponential"), BalanceWitness):
        failures.append("shift figure: exponential indexing missing")
    if is_strongly_indexable(shift_source_net) is True:
        failures.append("shift figure: plain strong indexing should fail")
    if not is_proof_net(shift_net(shift_source_net)):
        failures.append("shift figure: shifted net should be a proof net")

    left, normal_form = make_unstable_membership_net()
    if is_l3_indexing_route(left, check_preconditions=False) is True:
        failures.append("unstable example: membership should fail before reduction")
    nf, _ = normalize(left)
    if not nets_equal(nf, normal_form):
        failures.append("unstable example: wrong normal form")
    if is_l3_indexing_route(nf, check_preconditions=False) is not True:
        failures.append("unstable example: normal form should be a member")

    der_closed = dereliction_net
    if is_l3_indexing_route(der_closed, check_preconditions=False) is True:
        failures.append("dereliction: indexing route should reject")
    if is_l3_geometric(der_closed, check_preconditions=False) is True:
        failures.append("dereliction: geometric route should reject")
    rep = interactive_l3_check(der_closed)
    if rep.member:
        failures.append("dereliction: interactive route should reject")
    if not any((not r.passed) and r.residue_is_swapping for r in rep.levels):
        failures.append("dereliction: failing level should leave a swapping residue")

    if is_strongly_indexable(par_shift_net) is True:
        failures.append("downward shift implication should not be strongly indexable")
    if is_strongly_indexable(shift_par_net) is True:
        failures.append("upward shift implication should not be strongly indexable")

    ok = not failures
    report(2, ok, "reference net regressions" + ("" if ok else f": {failures}"))
    assert ok, failures


def test_criterion_3_sequentialization_sanity():
    violations = 0
    for seed in range(300):
        n = builder.random_net(seed, GenParams(target_size=14, cut_bias=0.3))
        if not is_dr_correct(n):
            violations += 1
    for seed in range(100):
        n = builder.random_net(20_000 + seed, GenParams(target_size=14, cut_bias=0.2, paragraph_bias=0.0))
        if not is_proof_net(n):
            violations += 1
    flipped = 0
    for seed in range(20):
        context = builder.random_net(30_000 + seed, GenParams(target_size=10, cut_bias=0.2))
        mutated = tensor_loop_net(context)
        assert validate(mutated).ok()
        if not is_dr_correct(mutated):
            flipped += 1
    ok = violations == 0 and flipped == 20
    report(3, ok, f"300 builder outputs DR-correct, 100 paragraph-free outputs proof nets "
                  f"({violations} violations); {flipped}/20 mutations flip the criterion")
    assert ok


def test_criterion_4_rewrite_preservation():
    violations = 0
    steps = 0
    for seed in range(80):
        net = builder.random_net(40_000 + seed, GenParams(target_size=16, cut_bias=0.4))
        was_proof = is_proof_net(net)
        conclusions = [str(net.edges[e]) for e in net.conclusions]
        while True:
            redexes = find_redexes(net)
            if not redexes:
                break
            net, _ = apply_step(net, redexes[0])
            steps += 1
            if not validate(net).ok():
                violations += 1
                break
            if not is_dr_correct(net):
                violations += 1
                break
            if was_proof and not is_proof_net(net):
                violations += 1
                break
            if [str(net.edges[e]) for e in net.conclusions] != conclusions:
                violations += 1
                break
    ok = violations == 0
    report(4, ok, f"validity, acyclicity, proof-net status and conclusions preserved "
                  f"across {steps} individual steps ({violations} violations)")
    assert ok


def test_criterion_5_confluence_and_identity_laws():
    violations = 0
    with_cuts = 0
    seed = 0
    while with_cuts < 200:
        n = builder.random_net(50_000 + seed, GenParams(target_size=15, cut_bias=0.5))
        seed += 1
        if not n.cut_links():
            continue
        with_cuts += 1
        results = [normalize(n, strategy=s)[0] for s in ("lo", "in", "level")]
        if not (nets_equal(results[0], results[1]) and nets_equal(results[1], results[2])):
            violations += 1
    identity_checked = 0
    seed = 0
    while identity_checked < 100:
        n = builder.random_net(60_000 + seed, GenParams(target_size=10, cut_bias=0.0))
        seed += 1
        if n.has_flat_conclusion() or not n.conclusions:
            continue
        identity_checked += 1
        ids = [identity_net(n.edges[e].formula) for e in n.conclusions]
        nf, _ = normalize(cut_compose(n, list(ids)))
        if not nets_equal(nf, n):
            violations += 1
    ok = violations == 0
    report(5, ok, f"confluence on {with_cuts} nets with cuts and identity law on "
                  f"{identity_checked} cut-free nets ({violations} violations)")
    assert ok


def test_criterion_6_solver_vs_brute_force():
    instances = 0
    disagreements = 0
    seed = 0
    while instances < 300:
        n = builder.random_net(70_000 + seed, GenParams(target_size=6, cut_bias=0.25))
        seed += 1
        if len(n.edges) > 12:
            continue
        instances += 1
        for flavor in ("plain", "exponential"):
            fast = not isinstance(solve_indexing(n, flavor), BalanceWitness)
            slow = brute_force_indexable(n, flavor)
            if fast != slow:
                disagreements += 1
    ok = disagreements == 0
    report(6, ok, f"solver agrees with exhaustive search on {instances} nets "
                  f"(both flavors, {disagreements} disagreements)")
    assert ok


def interactive_corpus():
    nets = []
    seed = 0
    while len(nets) < 25:
        n = builder.random_net(80_000 + seed, GenParams(target_size=8, cut_bias=0.0, exponential_bias=0.4))
        seed += 1
        if n.has_flat_conclusion() or not n.conclusions:
            continue
        nets.append(parr_closure(n))
    return nets


def test_criterion_7_shift_and_transport():
    violations = 0
    rng = random.Random(7)
    trials = 0
    seed = 0
    while trials < 500:
        n = builder.random_net(90_000 + seed, GenParams(target_size=12, cut_bias=0.3))
        seed += 1
        for flavor in ("plain", "exponential"):
            if trials >= 500:
                break
            result = solve_indexing(n, flavor)
            if isinstance(result, BalanceWitness):
                continue
            comp = indexing_components(n, flavor)
            reps = sorted(set(comp.values()))
            shifts = {r: rng.randint(-5, 5) for r in reps if rng.random() < 0.8}
            moved = shift_indexing(result, n, shifts)
            trials += 1
            if not check_indexing(n, moved):
                violations += 1
    transports = 0
    for net in interactive_corpus():
        a = net.edges[net.conclusions[0]].formula
        pib = bullet_net(eta_expand(net))
        for k in level_range(a):
            theta = make_test(a, k)
            composition = cut_compose(pib, [theta.net])
            q = default_exponential_quasi_indexing(composition, allow_cuts=True)
            fixed, trace = normalize_no_axiom(composition)
            q2 = transport_indexing(q, trace, fixed)
            transports += 1
            if not check_indexing(fixed, q2):
                violations += 1
    ok = violations == 0
    report(7, ok, f"{trials} component shifts and {transports} quasi-indexing transports "
                  f"re-validate ({violations} violations)")
    assert ok


def test_criterion_8_feet_structure():
    violations = 0
    checked = 0
    seed = 0
    while checked < 100:
        n = builder.random_net(95_000 + seed, GenParams(target_size=7, cut_bias=0.0, exponential_bias=0.3))
        seed += 1
        if n.has_flat_conclusion() or not n.conclusions:
            continue
        pi = eta_expand(parr_closure(n))
        checked += 1
        axioms = sum(1 for l in pi.links.values() if l.kind == "ax")
        fixed, trace, pib = feet_composition(pi)
        feet = detect_feet(fixed)
        if len(feet) != axioms:
            violations += 1
            continue
        site_axioms = set()
        for s in atom_sites(pib):
            site_axioms.update(s.axioms)
        for foot in feet:
            if not all(trace.lift_to_source(m) in site_axioms for m in foot.inner_axioms):
                violations += 1
                break
    ok = violations == 0
    report(8, ok, f"exactly one foot per atomic axiom with inner toes lifting to the "
                  f"doubled sites, over {checked} nets ({violations} violations)")
    assert ok


def test_criterion_9_test_self_inverse():
    rng = random.Random(9)
    violations = 0
    formulas = 0
    compositions = 0
    while formulas < 50:
        f = builder.random_formula(rng, rng.randint(0, 4), GenParams(exponential_bias=0.35, paragraph_bias=0.2))
        formulas += 1
        expected = identity_net(bullet_formula(f))
        for k in level_range(f):
            theta = make_test(f, k)
            nf, _ = normalize(compose(theta.net, theta.net))
            compositions += 1
            if not nets_equal(nf, expected):
                violations += 1
    ok = violations == 0
    report(9, ok, f"{compositions} self-compositions of tests over {formulas} formulas "
                  f"reduce to the identity ({violations} violations)")
    assert ok
