import os
import subprocess
import sys
from pathlib import Path

import pytest

from stratnet.formula import Atom, parse_formula, shift_formula
from stratnet import interactive
from stratnet.net import label_str, nets_equal, parr_closure, save, validate
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
    apply_step,
    find_redexes,
    normalize,
    normalize_no_axiom,
    shift_net,
    transport_indexing,
)

from conftest import make_id_bang, make_unstable_membership_net
from rewrite_oracle import oracle_normalize
from test_acceptance import cut_free_corpus

X = Atom("X")
Y = Atom("Y")


def conclusions_of(net):
    return [label_str(net.edges[e]) for e in net.conclusions]


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
        tuple(sorted(label_str(result.edges[e]) for e in result.links[c].premises)) for c in cuts
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
    assert sorted(label_str(result.edges[e]) for e in result.links[cut].premises) == ["X", "X^"]
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


@pytest.fixture(scope="module")
def differential_corpus():
    """Criterion 5's nets with cuts, larger random nets with boxes, the
    doubled nets the interactive check cuts against its level tests, and
    the three hand-made nets above."""
    nets = [
        axiom_between_logical_links(),
        builder.mix(nested_contraction(), nested_contraction()),
        box_with_cut_against_contraction(),
    ]
    seed = 0
    while len(nets) < 203:
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
    return nets


def same_ids(a, b):
    return (a.edges, a.links, a.boxes, a.conclusions) == (b.edges, b.links, b.boxes, b.conclusions)


@pytest.mark.parametrize("no_axiom", [False, True], ids=["all-steps", "no-axiom"])
@pytest.mark.parametrize("strategy", ["lo", "in", "level"])
def test_normalize_agrees_with_per_step_oracle(differential_corpus, strategy, no_axiom):
    byte_diffs = replay_diffs = key_misses = steps = 0
    families = set()
    for net in differential_corpus:
        nf, trace = normalize(net, strategy=strategy, no_axiom=no_axiom)
        oracle_nf, _ = oracle_normalize(net, strategy, no_axiom)
        byte_diffs += save(nf) != save(oracle_nf)
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
    assert (byte_diffs, replay_diffs, key_misses) == (0, 0, 0)
    expected = {STEP_UNIT, STEP_MULT, STEP_EXP, STEP_PARG} | (set() if no_axiom else {STEP_AXIOM})
    assert families == expected and steps > 2000


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
import pathlib, sys
from stratnet.cli import main
out = pathlib.Path(sys.argv[1])
for f in sys.argv[2:]:
    for s in ("lo", "in", "level"):
        stem = f"{pathlib.Path(f).stem}-{s}"
        main(["normalize", "--strategy", s, f, "-o", str(out / f"{stem}.json"),
              "--trace", str(out / f"{stem}.trace.json")])
"""


def test_normalize_output_ignores_hash_seed(tmp_path):
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
    assert len(outputs[0]) == 2 * 3 * len(files)
    assert b"exponential" in b"".join(outputs[0].values())
    assert outputs[0] == outputs[1]
