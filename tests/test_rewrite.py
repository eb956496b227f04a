import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stratnet.formula import Atom, OfCourse, Tensor, bullet_formula, dual, parse_formula, shift_formula
from stratnet import interactive, rewrite
from stratnet.net import Label, Link, Net, nets_equal, parr_closure, save, validate
from stratnet import builder
from stratnet.builder import GenParams
from stratnet.correctness import (
    BudgetExceeded,
    check_indexing,
    default_exponential_quasi_indexing,
    is_dr_correct,
    is_proof_net,
)
from stratnet.rewrite import (
    STEP_AXIOM,
    STEP_EXP,
    STEP_MULT,
    STEP_PARG,
    STEP_UNIT,
    _plain_levels,
    _reduce,
    apply_step,
    find_redexes,
    normalize,
    normalize_no_axiom,
    shift_net,
    transport_indexing,
)

from conftest import make_id_bang, make_unstable_membership_net
from rewrite_oracle import copying_exponential_step, lift_to_source_by_walk, oracle_normalize
from test_acceptance import cut_free_corpus

X = Atom("X")
Y = Atom("Y")


def conclusions_of(net):
    return [str(net.edges[e]) for e in net.conclusions]


# -- redex discovery ---------------------------------------------------------------


def test_cut_free_net_has_no_redexes():
    assert find_redexes(builder.random_net(1, GenParams(target_size=12, cut_bias=0))) == []


def test_axiom_redex():
    n2 = builder.cut_rule(builder.ax(X), 1, builder.ax(X), 0)
    assert [r.kind for r in find_redexes(n2)] == [STEP_AXIOM]
    # an axiom against a par producer is still an axiom step
    pi = builder.par_rule(builder.ax(X), 0, 1)
    n3 = builder.cut_rule(builder.ax(parse_formula("(X^ @ X)")), 0, pi, 0)
    assert [r.kind for r in find_redexes(n3)] == [STEP_AXIOM]


def test_box_against_weakening_is_exponential_redex():
    weak = builder.whynot_rule(builder.daimon(), [], weakening_of=Atom("X", True))
    n = builder.cut_rule(make_id_bang(X), 1, weak, 0)
    assert [r.kind for r in find_redexes(n)] == [STEP_EXP]


def test_each_step_kind_detected():
    u = builder.cut_rule(builder.one_rule(), 0, builder.bottom_rule(builder.daimon()), 0)
    assert [r.kind for r in find_redexes(u)] == [STEP_UNIT]
    t = builder.tensor_rule(builder.ax(X), 1, builder.ax(Y), 1)
    p = builder.par_rule(builder.mix(builder.ax(X), builder.ax(Y)), 0, 2)
    m = builder.cut_rule(t, 2, p, 0)
    assert [r.kind for r in find_redexes(m)] == [STEP_MULT]
    g = builder.cut_rule(
        builder.paragraph_rule(builder.ax(X), 1), 1, builder.paragraph_rule(builder.ax(X), 0), 0
    )
    assert [r.kind for r in find_redexes(g)] == [STEP_PARG]


# -- single steps ---------------------------------------------------------------------


def test_axiom_step_splices():
    pi = builder.par_rule(builder.whynot_rule(builder.flat_rule(builder.ax(X), 0), [0]), 0, 1)
    n = builder.cut_rule(builder.ax(parse_formula("(?X^ @ X)")), 0, pi, 0)
    (redex,) = find_redexes(n)
    result, lift = apply_step(n, redex)
    assert nets_equal(result, pi)


def test_mult_step_produces_two_cuts():
    t = builder.tensor_rule(builder.ax(X), 1, builder.ax(Y), 1)
    p = builder.par_rule(builder.mix(builder.ax(X), builder.ax(Y)), 0, 2)
    n = builder.cut_rule(t, 2, p, 0)
    (redex,) = find_redexes(n)
    result, _ = apply_step(n, redex)
    assert validate(result).ok()
    cuts = result.cut_links()
    assert len(cuts) == 2
    cut_labels = sorted(
        tuple(sorted(str(result.edges[e]) for e in result.links[c].premises)) for c in cuts
    )
    assert cut_labels == [("X", "X^"), ("Y", "Y^")]


def test_paragraph_step():
    g = builder.cut_rule(
        builder.paragraph_rule(builder.ax(X), 1), 1, builder.paragraph_rule(builder.ax(X), 0), 0
    )
    (redex,) = find_redexes(g)
    result, _ = apply_step(g, redex)
    assert validate(result).ok()
    (cut,) = result.cut_links()
    assert sorted(str(result.edges[e]) for e in result.links[cut].premises) == ["X", "X^"]
    nf, _ = normalize(result)
    assert nets_equal(nf, builder.ax(X))


def test_exponential_step_duplicates_box():
    two = builder.mix(builder.flat_rule(builder.ax(X), 0), builder.flat_rule(builder.ax(X), 0))
    contraction = builder.whynot_rule(two, [0, 2])
    n = builder.cut_rule(make_id_bang(X), 1, contraction, 0)
    (redex,) = find_redexes(n)
    result, lift = apply_step(n, redex)
    assert validate(result).ok()
    # two copies of the boxed axiom plus the two partner axioms
    assert sum(1 for l in result.links.values() if l.kind == "ax") == 4
    # copies lift to the original box contents
    copied = [l for l in result.links if l in lift and result.links[l].kind == "ax"]
    assert len(copied) == 2


def test_exponential_step_weakening_erases():
    weak = builder.whynot_rule(builder.daimon(), [], weakening_of=Atom("X", True))
    n = builder.cut_rule(make_id_bang(X), 1, weak, 0)
    (redex,) = find_redexes(n)
    result, _ = apply_step(n, redex)
    assert validate(result).ok()
    assert conclusions_of(result) == ["?X^"]
    assert not result.boxes


def test_exponential_step_requires_consumed_aux():
    boxed = builder.promotion(builder.flat_rule(builder.ax(X), 0), 1)  # flat conclusion pending
    weak = builder.whynot_rule(builder.daimon(), [], weakening_of=Atom("X", True))
    n = builder.cut_rule(boxed, 1, weak, 0)
    (redex,) = find_redexes(n)
    from stratnet.correctness import PreconditionError

    with pytest.raises(PreconditionError):
        apply_step(n, redex)


# -- normalization -----------------------------------------------------------------------


def test_normalize_cut_free_unchanged():
    n = builder.random_net(4, GenParams(target_size=12, cut_bias=0))
    nf, trace = normalize(n)
    assert nf is n and trace.steps == ()


def test_normalize_unstable_example():
    left, right = make_unstable_membership_net()
    nf, _ = normalize(left)
    assert nets_equal(nf, right)


def test_normalize_strategies_confluent():
    checked = 0
    for seed in range(60):
        n = builder.random_net(seed, GenParams(target_size=15, cut_bias=0.4))
        if not n.cut_links():
            continue
        checked += 1
        results = [normalize(n, strategy=s)[0] for s in ("lo", "in", "level")]
        assert nets_equal(results[0], results[1])
        assert nets_equal(results[1], results[2])
    assert checked >= 20


def test_normalize_budget():
    left, _ = make_unstable_membership_net()
    with pytest.raises(BudgetExceeded):
        normalize(left, budget=1)


def test_normalize_preserves_conclusions():
    for seed in range(25):
        n = builder.random_net(seed, GenParams(target_size=14, cut_bias=0.4))
        nf, _ = normalize(n)
        assert conclusions_of(nf) == conclusions_of(n)


def test_stepwise_preservation():
    for seed in range(25):
        net = builder.random_net(seed, GenParams(target_size=14, cut_bias=0.4))
        proof = is_proof_net(net)
        while True:
            redexes = find_redexes(net)
            if not redexes:
                break
            net, _ = apply_step(net, redexes[0])
            assert validate(net).ok()
            assert is_dr_correct(net)
            if proof:
                assert is_proof_net(net)


def test_normalize_no_axiom_keeps_axiom_cuts():
    n = builder.cut_rule(builder.ax(X), 1, builder.ax(X), 0)
    nf, trace = normalize_no_axiom(n)
    assert nf.cut_links() and trace.steps == ()


# -- the shifted net -----------------------------------------------------------------------


def test_shift_net_figure(shift_source_net):
    plus = shift_net(shift_source_net)
    assert validate(plus).ok()
    assert conclusions_of(plus) == ["?#X^", "#X"]
    right = builder.paragraph_rule(
        builder.whynot_rule(
            builder.flat_rule(builder.paragraph_rule(builder.ax(X), 0), 0), [0]
        ),
        1,
    )
    assert nets_equal(plus, right)
    assert is_proof_net(plus)


def test_shift_net_exponential_free_unchanged():
    n = builder.par_rule(builder.paragraph_rule(builder.ax(X), 1), 0, 1)
    assert nets_equal(shift_net(n), n)


def test_shift_net_conclusions_are_shifted_formulas():
    for seed in range(20):
        n = builder.random_net(seed, GenParams(target_size=12, cut_bias=0.2))
        plus = shift_net(n)
        assert validate(plus).ok()
        for e_old, e_new in zip(n.conclusions, plus.conclusions):
            if n.edges[e_old].flat:
                continue
            assert plus.edges[e_new].formula == shift_formula(n.edges[e_old].formula)
        assert is_dr_correct(n) == is_dr_correct(plus)


def test_shift_net_does_not_overwrite_taken_ids():
    # the shift names the edge and link it puts above the flat link l2
    # "e0~sh0" and "l2~sh0"; here a conclusion of the net already is "e0~sh0"
    n = builder.whynot_rule(builder.promotion(builder.flat_rule(builder.ax(X), 0), 1), [0])
    assert n.conclusions == ("e9", "e5") and n.links["l2"].kind == "flat"
    name = {"e9": "e0~sh0"}
    renamed = Net(
        {name.get(e, e): lab for e, lab in n.edges.items()},
        {
            lid: Link(lk.kind, lk.premises, tuple(name.get(e, e) for e in lk.conclusions))
            for lid, lk in n.links.items()
        },
        n.boxes,
        ("e0~sh0", "e5"),
    )
    assert validate(renamed).ok()
    plus = shift_net(renamed)
    assert validate(plus).ok()
    assert nets_equal(plus, shift_net(n))


# -- transport ---------------------------------------------------------------------------


def test_transport_identity_on_empty_trace():
    n = builder.random_net(2, GenParams(target_size=10, cut_bias=0))
    nf, trace = normalize(n)
    q = default_exponential_quasi_indexing(n)
    q2 = transport_indexing(q, trace, nf)
    assert q2.assignment == q.assignment


def test_transport_one_paragraph_step():
    g = builder.cut_rule(
        builder.paragraph_rule(builder.ax(X), 1), 1, builder.paragraph_rule(builder.ax(X), 0), 0
    )
    q = default_exponential_quasi_indexing(g, allow_cuts=True)
    nf, trace = normalize_no_axiom(g)
    assert [s.redex.kind for s in trace.steps] == [STEP_PARG]
    q2 = transport_indexing(q, trace, nf)
    assert check_indexing(nf, q2)


def test_transport_rejects_axiom_steps():
    n = builder.cut_rule(builder.ax(X), 1, builder.ax(X), 0)
    q = default_exponential_quasi_indexing(n, allow_cuts=True)
    nf, trace = normalize(n)
    with pytest.raises(ValueError):
        transport_indexing(q, trace, nf)


def test_trace_serialization():
    left, _ = make_unstable_membership_net()
    nf, trace = normalize(left)
    doc = trace.to_document()
    assert all(set(step) == {"cut", "kind", "lift"} for step in doc)
    assert [s["kind"] for s in doc] == [s.redex.kind for s in trace.steps]


def test_shifted_members_are_proof_nets():
    # members of the level fragment shift to full proof nets
    for seed in range(20):
        n = builder.random_net(seed, GenParams(target_size=12, cut_bias=0.2, exponential_bias=0.4))
        from stratnet.correctness import is_l3_indexing_route

        if is_l3_indexing_route(n, check_preconditions=False) is True:
            assert is_proof_net(shift_net(n))


def test_lift_totality():
    # every non-cut link and every edge of a step's result lifts to a
    # source element (identity entries are omitted from the map)
    for seed in range(15):
        net = builder.random_net(seed, GenParams(target_size=14, cut_bias=0.4))
        while True:
            redexes = find_redexes(net)
            if not redexes:
                break
            result, lift = apply_step(net, redexes[0])
            source_ids = set(net.links) | set(net.edges)
            for lid, lk in result.links.items():
                if lk.kind == "cut":
                    continue
                assert lift.get(lid, lid) in source_ids
            for eid in result.edges:
                assert lift.get(eid, eid) in source_ids
            net = result


# -- the worklist engine against the per-step oracle ---------------------------------------


def axiom_between_logical_links():
    """An axiom cut on both sides against a tensor and a par: whichever
    axiom step comes first rewires the other cut into a multiplicative one."""
    t = builder.tensor_rule(builder.ax(X), 1, builder.ax(Y), 1)
    p = builder.par_rule(builder.mix(builder.ax(X), builder.ax(Y)), 0, 2)
    r = builder.cut_rule(t, 2, builder.ax(parse_formula("(X * Y)")), 0)
    return builder.cut_rule(r, 2, p, 0)


def nested_contraction():
    """A box cut against a contraction of two flats, inside a box whose
    auxiliary door carries the inner box's auxiliary wire out: both copies
    route a pax through the outer door, so the second one's id is made
    unique with a serial suffix."""
    inner = builder.promotion(builder.flat_rule(builder.ax(X), 0), 1)
    two = builder.mix(builder.flat_rule(builder.ax(X), 0), builder.flat_rule(builder.ax(X), 0))
    c = builder.cut_rule(inner, 1, builder.whynot_rule(two, [0, 2]), 0)
    outer = builder.promotion(builder.par_rule(c, 1, 2), 1)
    return builder.whynot_rule(outer, [0])


def box_with_cut_against_contraction():
    """lo duplicates the box before it reduces the cut inside, which leaves
    the worklist with the box."""
    inner = builder.cut_rule(builder.ax(X), 1, builder.ax(X), 0)
    box = builder.whynot_rule(builder.promotion(builder.flat_rule(inner, 0), 1), [0])
    two = builder.mix(builder.flat_rule(builder.ax(X), 0), builder.flat_rule(builder.ax(X), 0))
    return builder.cut_rule(builder.whynot_rule(two, [0, 2]), 0, box, 1)


def box_copied_two_boxes_deep():
    """A box holding a box (??X^, ?Y^, !(!X * Y)) cut against a why-not
    whose flat sits two boxes deep (?(?X^ @ Y^), !!(!X * Y)): after the
    multiplicative and axiom steps the copy of the inner box stays in the
    normal form, inside both boxes."""
    boxed = builder.tensor_rule(make_id_bang(X), 1, builder.ax(Y), 1)
    boxed = builder.promotion(builder.flat_rule(builder.flat_rule(boxed, 0), 1), 2)
    boxed = builder.whynot_rule(builder.whynot_rule(boxed, [0]), [1])
    deep = builder.par_rule(builder.tensor_rule(builder.ax(OfCourse(X)), 1, builder.ax(Y), 1), 0, 1)
    deep = builder.promotion(builder.promotion(builder.flat_rule(deep, 0), 1), 1)
    return builder.cut_rule(boxed, 2, builder.whynot_rule(deep, [0]), 0)


def test_exponential_ids_and_boxes_are_pinned():
    # the ids the exponential step hands out and the box each copy lands in
    # (per box: principal, auxiliaries, the links directly inside, child
    # boxes), for flats one box deep, two boxes deep and at top level; the
    # copied box holds a box of its own in the last two, and in the second
    # that box stays in the normal form, two boxes deep.  A why-not with one
    # premise takes the box: its contents keep their ids (l0, where a copy
    # was l0~c0), and only the flat's up-chain gets new pax links (l21~px,
    # l21~px.1); in the last net each copy of the outer box gives its inner
    # box's contents to the flat inside it (l2~c0, once l2~c0~c0)
    def shape(net):
        def tree(box):
            inner = {lid for c in box.children for lid in c.contents | set(c.border())}
            return (box.principal, box.auxiliaries, sorted(box.contents - inner), [tree(c) for c in box.children])

        assert validate(net).ok()
        return sorted(net.links), sorted(net.edges), [tree(b) for b in net.boxes]

    bang_bang = builder.whynot_rule(builder.promotion(builder.flat_rule(make_id_bang(X), 0), 1), [0])
    two = builder.mix(builder.flat_rule(make_id_bang(X), 0), builder.flat_rule(make_id_bang(X), 0))
    top = builder.cut_rule(bang_bang, 1, builder.whynot_rule(two, [0, 2]), 0)

    assert shape(normalize(nested_contraction())[0]) == (
        ["l0~c0", "l0~c1", "l24", "l26", "l28~px", "l28~px.1", "l2~c0", "l2~c1", "l30"],
        ["e0~c0", "e0~c1", "e1~c0", "e1~c1", "e25", "e27", "e31", "e3~c0", "e3~c0~px", "e3~c1", "e3~c1~px"],
        [("l26", ("l28~px", "l28~px.1"), ["l0~c0", "l0~c1", "l24", "l2~c0", "l2~c1"], [])],
    )
    assert shape(normalize(box_copied_two_boxes_deep())[0]) == (
        ["l0", "l15", "l17", "l2", "l21~px", "l21~px.1", "l23~px", "l23~px.2", "l25", "l27", "l4", "l42", "l43",
         "l46", "l48", "l6", "l8"],
        ["e0", "e1", "e16", "e16~px", "e16~px~px", "e18", "e18~px", "e18~px~px", "e26", "e28", "e3", "e31", "e32",
         "e33", "e36", "e38", "e5", "e7", "e9"],
        [("l48", ("l21~px.1", "l23~px.2"), [], [
            ("l46", ("l21~px", "l23~px"), ["l15", "l17", "l42", "l43", "l8"], [
                ("l4", ("l6",), ["l0", "l2"], []),
            ]),
        ])],
    )
    assert shape(normalize(top)[0]) == (
        ["l10~c0", "l10~c1", "l16", "l2~c0", "l2~c1", "l42", "l44", "l48", "l50", "l6~c0~px", "l6~c1~px",
         "l8~c0", "l8~c1"],
        ["e11~c0", "e11~c1", "e17", "e27", "e28", "e30", "e34", "e35", "e37", "e3~c0", "e3~c0~px", "e3~c1",
         "e3~c1~px", "e9~c0", "e9~c1"],
        [("l44", ("l6~c0~px",), ["l2~c0", "l42"], []), ("l50", ("l6~c1~px",), ["l2~c1", "l48"], [])],
    )


@pytest.fixture(scope="module")
def differential_corpus():
    """Criterion 5's nets with cuts, larger random nets with boxes, the
    doubled nets the interactive check cuts against its level tests and
    against its identity test (one cut each, which ``normalize`` ranks
    without a traversal and the oracle by one), the latter both as
    ``cut_compose`` names them and as the check builds them, and the four
    hand-made nets above."""
    nets = [
        axiom_between_logical_links(),
        builder.mix(nested_contraction(), nested_contraction()),
        box_with_cut_against_contraction(),
        box_copied_two_boxes_deep(),
    ]
    seed = 0
    while len(nets) < 204:
        n = builder.random_net(50_000 + seed, GenParams(target_size=15, cut_bias=0.5))
        seed += 1
        if n.cut_links():
            nets.append(n)
    nets += [
        builder.random_net(s, GenParams(target_size=60, cut_bias=0.4, exponential_bias=0.4))
        for s in range(1, 41)
    ]
    for n in cut_free_corpus(30):
        closed = parr_closure(n)
        a = closed.edges[closed.conclusions[0]].formula
        pib = interactive.bullet_net(interactive.eta_expand(closed))
        nets += [
            interactive.cut_compose(pib, [interactive.make_test(a, k).net])
            for k in interactive.test_levels(a)
        ]
    for n in cut_free_corpus(50)[30:]:
        closed = parr_closure(n)
        a = closed.edges[closed.conclusions[0]].formula
        pib = interactive.bullet_net(interactive.eta_expand(closed))
        nets.append(interactive.cut_compose(pib, [interactive.identity_net(bullet_formula(a))]))
        nets.append(check_composite(closed))
    return nets


def check_composite(closed):
    """The composite the interactive check reduces, frozen."""
    _, ws, _, _ = interactive._identity_cut(closed)
    return ws.freeze()


def test_the_check_reduces_its_composite_as_normalize_does():
    # The check reduces the workspace it built the composite in; normalize
    # loads the frozen composite into a new one.  Same steps, lift maps,
    # ids and dict orders, so the per-step oracle covers the check.  A
    # closed net has one conclusion, hence one cut.
    for n in cut_free_corpus(50):
        closed = parr_closure(n)
        _, ws, (cut,), _ = interactive._identity_cut(closed)
        nf, trace = normalize(ws.freeze())
        assert _reduce(ws, {cut: (0,)}) == trace
        in_place = ws.freeze()
        assert same_ids(in_place, nf)
        assert (list(in_place.links), list(in_place.edges)) == (list(nf.links), list(nf.edges))


def test_the_check_reduces_an_unclosed_composite_as_normalize_does():
    # On a net as loaded the check ranks its cuts by conclusion and
    # normalize by traversal, so the traces differ in order (on 26 of these
    # 50 nets; on 38 while each atomic conclusion had a cut of its own),
    # but not in length, which the step budget bounds, nor in the normal
    # form.
    reordered = 0
    for n in cut_free_corpus(50):
        _, ws, cuts, _ = interactive._identity_cut(n)
        nf, trace = normalize(ws.freeze())
        in_place = _reduce(ws, {cut: (i,) for i, cut in enumerate(cuts)})
        reordered += in_place != trace
        assert len(in_place.steps) == len(trace.steps)
        assert save(ws.freeze()) == save(nf)
    assert reordered == 26


def same_ids(a, b):
    return (a.edges, a.links, a.boxes, a.conclusions) == (b.edges, b.links, b.boxes, b.conclusions)


@pytest.mark.parametrize("no_axiom", [False, True], ids=["all-steps", "no-axiom"])
@pytest.mark.parametrize("strategy", ["lo", "in", "level"])
def test_normalize_agrees_with_per_step_oracle(differential_corpus, strategy, no_axiom):
    byte_diffs = replay_diffs = key_misses = invalid = source_diffs = steps = 0
    families = set()
    for net in differential_corpus:
        nf, trace = normalize(net, strategy=strategy, no_axiom=no_axiom)
        oracle_nf, _ = oracle_normalize(net, strategy, no_axiom)
        byte_diffs += save(nf) != save(oracle_nf)
        # The composed source map against one walk back per id, and the
        # quasi-indexing transported through it.
        source_diffs += any(
            trace.lift_to_source(x) != lift_to_source_by_walk(trace, x) for x in (*nf.links, *nf.edges)
        )
        if no_axiom:
            q = default_exponential_quasi_indexing(net, allow_cuts=True)
            walked = {e: q.assignment[lift_to_source_by_walk(trace, e)] for e in nf.edges}
            source_diffs += transport_indexing(q, trace, nf).assignment != walked
        # Both run the same exponential step; the structural validation
        # checks its box trees on its own.
        invalid += not validate(nf).ok()
        # Replaying the trace through apply_step gives every lift map and
        # the normal form with the same ids; each step reduces a redex of
        # least key: the deepest for in, and for level the least level of
        # the input indexing, read through the lift maps so far.
        levels = _plain_levels(net)
        source: dict[str, str] = {}
        current = net

        def key(cut):
            if strategy == "in":
                return -current.depth(cut)
            if strategy == "level":
                e = current.links[cut].premises[0]
                return levels.get(source.get(e, e), 0)
            return 0

        for step in trace.steps:
            redexes = [r for r in find_redexes(current) if not (no_axiom and r.kind == STEP_AXIOM)]
            key_misses += step.redex not in redexes or key(step.redex.cut) > min(key(r.cut) for r in redexes)
            current, lift = apply_step(current, step.redex)
            replay_diffs += lift != step.lift
            source.update({new: source.get(old, old) for new, old in lift.items()})
            families.add(step.redex.kind)
        replay_diffs += not same_ids(current, nf)
        steps += len(trace.steps)
    assert (byte_diffs, replay_diffs, key_misses, invalid, source_diffs) == (0, 0, 0, 0, 0)
    expected = {STEP_UNIT, STEP_MULT, STEP_EXP, STEP_PARG} | (set() if no_axiom else {STEP_AXIOM})
    assert families == expected and steps > 2000


def lifted_links(net, trace):
    """Each link but a cut as the input link it lifts to, with the input
    edges its premises lift to, in premise order, sorted."""
    lift = trace.lift_to_source
    return sorted(
        (lift(lid), link.kind, [lift(e) for e in link.premises])
        for lid, link in net.links.items()
        if link.kind != "cut"
    )


def box_with_cut_against_dereliction():
    """A box with a cut inside it, cut against a one-premise why-not: lo
    and level take the box first, with the inner cut, which keeps its id
    and its rank; in reduces the inner cut first."""
    inner = builder.cut_rule(builder.ax(X), 1, builder.ax(X), 0)
    box = builder.whynot_rule(builder.promotion(builder.flat_rule(inner, 0), 1), [0])
    return builder.cut_rule(builder.whynot_rule(builder.flat_rule(builder.ax(X), 0), [0]), 0, box, 1)


@pytest.fixture(scope="module")
def box_heavy_draws():
    params = GenParams(target_size=40, cut_bias=0.4, exponential_bias=0.5, box_bias=0.5)
    return [builder.random_net(seed, params) for seed in range(200)]


@pytest.mark.parametrize("no_axiom", [False, True], ids=["all-steps", "no-axiom"])
@pytest.mark.parametrize("strategy", ["lo", "in", "level"])
def test_taking_the_box_agrees_with_copying_it(differential_corpus, box_heavy_draws, monkeypatch, strategy, no_axiom):
    # A why-not with one premise takes the box where the copying step made
    # a copy and removed the original: the same normal form under save, the
    # same sequence of step families, and every id of the normal form but a
    # cut lifts to an input id.  A waiting cut that moves with its box keeps
    # its queue key, which is right under lo and level, whose keys do not
    # change, and under in no taken box holds a waiting cut (the per-step
    # oracle test checks that each step reduces a deepest cut).
    taken = exponential = carried = 0
    take_box = rewrite._take_box

    def counted(ws, cut, box, *args):
        nonlocal carried
        stack = [box]
        while stack:
            mb = stack.pop()
            carried += sum(lid in ws.queued for lid in mb.direct)
            stack += mb.children
        return take_box(ws, cut, box, *args)

    monkeypatch.setattr(rewrite, "_take_box", counted)
    for net in [*differential_corpus, *box_heavy_draws, box_with_cut_against_dereliction()]:
        nf, trace = normalize(net, strategy=strategy, no_axiom=no_axiom)
        with monkeypatch.context() as m:
            m.setattr(rewrite, "_exponential_step", copying_exponential_step)
            copied_nf, copied = normalize(net, strategy=strategy, no_axiom=no_axiom)
        assert save(nf) == save(copied_nf)
        assert [s.redex.kind for s in trace.steps] == [s.redex.kind for s in copied.steps]
        # Without axiom steps, which pick the surviving axiom by id, each
        # link of the two normal forms lifts to the same input link with
        # the same premises, in order.
        assert not no_axiom or lifted_links(nf, trace) == lifted_links(copied_nf, copied)
        inputs = set(net.links) | set(net.edges)
        assert all(trace.lift_to_source(x) in inputs for x in nf.edges)
        assert all(trace.lift_to_source(x) in inputs for x, link in nf.links.items() if link.kind != "cut")
        taken += set(nf.links) != set(copied_nf.links)
        exponential += any(s.redex.kind == STEP_EXP for s in trace.steps)
    # 384 of the 556 nets take an exponential step, and 254 take a box;
    # only the last takes one with a cut waiting inside, an axiom cut, under
    # lo and level with axiom steps
    assert (len(differential_corpus) + len(box_heavy_draws), exponential, taken) == (555, 384, 254)
    assert carried == (strategy != "in" and not no_axiom)
    _, trace = normalize(box_with_cut_against_dereliction(), strategy=strategy, no_axiom=no_axiom)
    expected = ["l24", "l29", "l29~x0"] if strategy == "in" else ["l29", "l29~x0", "l24"]
    assert [s.redex.cut for s in trace.steps] == (["l29"] if no_axiom else expected)


def test_lo_cuts_inherit_the_rank_of_the_cut_they_replace():
    # The multiplicative cut comes first in traversal order; the two cuts
    # its step creates take its place, in creation order, ahead of the
    # axiom cut of the second component.
    t = builder.tensor_rule(builder.ax(X), 1, builder.ax(Y), 1)
    p = builder.par_rule(builder.mix(builder.ax(X), builder.ax(Y)), 0, 2)
    n = builder.mix(builder.cut_rule(t, 2, p, 0), builder.cut_rule(builder.ax(X), 1, builder.ax(X), 0))
    (mult,) = [r.cut for r in find_redexes(n) if r.kind == STEP_MULT]
    (axiom,) = [r.cut for r in find_redexes(n) if r.kind == STEP_AXIOM]
    _, trace = normalize(n)
    assert [s.redex.cut for s in trace.steps] == [mult, f"{mult}~m0", f"{mult}~m1", axiom]


NORMALIZE_ALL = """
import contextlib, io, json, os, pathlib, sys
from stratnet.cli import main
from stratnet.interactive import bullet_net, eta_expand
from stratnet.net import canonical_form, load, save
from stratnet.rewrite import normalize
out = pathlib.Path(sys.argv[1])
for f in sys.argv[2:]:
    for s in ("lo", "in", "level"):
        stem = f"{pathlib.Path(f).stem}-{s}"
        main(["normalize", "--strategy", s, f, "-o", str(out / f"{stem}.json"),
              "--trace", str(out / f"{stem}.trace.json")])
        nf, _ = normalize(load(pathlib.Path(f).read_bytes()), strategy=s)
        (out / f"{stem}.order").write_text(json.dumps([list(nf.links), list(nf.edges)]))
os.chdir(out)  # l3 prints the path it is given
for f in sys.argv[2:]:
    stem = pathlib.Path(f).stem
    nf = load(pathlib.Path(f"{stem}-lo.json").read_bytes(), allow_flat_conclusions=True)
    pathlib.Path(f"{stem}.form").write_bytes(canonical_form(load(pathlib.Path(f).read_bytes())))
    pathlib.Path(f"{stem}-lo.bullet.json").write_bytes(save(bullet_net(eta_expand(nf))))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stdout):
        code = main(["l3", "--method", "all", f"{stem}-lo.json"])
    pathlib.Path(f"{stem}.l3").write_text(f"{code}\\n{stdout.getvalue()}")
"""


def _boxed_cycle_beside_pars():
    """A net whose only cyclic switching sits inside a box beside four
    pars: (A^*B^) and (A*B) over two axioms, par-closed, tensored with
    three more axioms, par-closed again and promoted."""
    a, b = Atom("A"), Atom("B")
    edges = {
        "e0": Label(dual(a)), "e1": Label(a), "e2": Label(dual(b)), "e3": Label(b),
        "e4": Label(Tensor(dual(a), dual(b))), "e5": Label(Tensor(a, b)),
    }
    links = {
        "l0": Link("ax", (), ("e0", "e1")),
        "l1": Link("ax", (), ("e2", "e3")),
        "l2": Link("tensor", ("e0", "e2"), ("e4",)),
        "l3": Link("tensor", ("e1", "e3"), ("e5",)),
    }
    n = parr_closure(Net(edges, links, (), ("e4", "e5")))
    for name in "CDE":
        n = builder.tensor_rule(n, 0, builder.ax(Atom(name)), 0)
    return builder.promotion(parr_closure(n), 0)


def test_normalize_output_ignores_hash_seed(tmp_path):
    boxed = tmp_path / "boxed.json"
    boxed.write_bytes(save(_boxed_cycle_beside_pars()))
    files = []
    for s in range(1, 9):
        n = builder.random_net(s, GenParams(target_size=40, cut_bias=0.4, exponential_bias=0.5))
        files.append(str(tmp_path / f"n{s}.json"))
        Path(files[-1]).write_bytes(save(n))
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / f"out{hash_seed}"
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", NORMALIZE_ALL, str(out), *files], env=env, check=True)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        check = [sys.executable, "-m", "stratnet.cli", "check", "--criterion", "dr", str(boxed)]
        outputs[-1]["boxed.check"] = subprocess.run(check, env=env, capture_output=True).stdout
    assert len(outputs[0]) == (3 * 3 + 3) * len(files) + 1
    witness = json.loads(outputs[0]["boxed.check"])["witness"]
    assert witness["inside"] and len(witness["chosen"]) == 4
    assert b"exponential" in b"".join(outputs[0].values())
    assert all(b'"verdicts"' in v for k, v in outputs[0].items() if k.endswith(".l3"))
    assert outputs[0] == outputs[1]
