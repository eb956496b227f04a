import itertools
import random
from collections import defaultdict

import pytest

from stratnet.formula import Atom, Paragraph, parse_formula
from stratnet.net import Link, Net, nets_equal, parr_closure, validate
from stratnet import builder
from stratnet.builder import GenParams
from stratnet.correctness import (
    _link_constraints,
    BalanceWitness,
    BudgetExceeded,
    PreconditionError,
    balance,
    check_indexing,
    default_exponential_quasi_indexing,
    find_cyclic_switching,
    indexing_components,
    is_dr_correct,
    is_l3_geometric,
    is_l3_indexing_route,
    is_proof_net,
    is_strongly_indexable,
    shift_indexing,
    solve_indexing,
    strong_indexing,
)

from conftest import brute_force_indexable, make_unstable_membership_net, tensor_last_two, tensor_loop_net
from test_acceptance import BIAS_MIXES
from test_cli import WIDE_NETS, wide_net
from test_interactive_oracle import l3_cutfree_nets
from switching_oracle import count_switchings, enumerate_switchings, total_switchings, witness_problem
from switching_oracle import find_cyclic_switching as oracle_find_cyclic_switching

X = Atom("X")


# -- switchings -----------------------------------------------------------------


def test_switching_count_trivial():
    n = builder.tensor_rule(builder.ax(X), 1, builder.ax(X), 0)
    assert count_switchings(n) == 1
    assert len(list(enumerate_switchings(n))) == 1


def test_switching_count_one_par():
    n = builder.par_rule(builder.ax(X), 0, 1)
    assert count_switchings(n) == 2
    assert len(list(enumerate_switchings(n))) == 2


def test_switching_count_par_and_binary_whynot():
    par = builder.par_rule(builder.ax(X), 0, 1)
    two_flats = builder.mix(
        builder.flat_rule(builder.ax(X), 0), builder.flat_rule(builder.ax(X), 0)
    )
    wn = builder.whynot_rule(two_flats, [0, 2])
    n = builder.mix(par, wn)
    assert count_switchings(n) == 4
    switchings = list(enumerate_switchings(n))
    assert len(switchings) == 4
    # the product formula agrees with explicit enumeration of choices
    chosen = {tuple(sorted(s.chosen.items())) for s in switchings}
    assert len(chosen) == 4


def test_switching_budget():
    nets = [builder.par_rule(builder.ax(X), 0, 1) for _ in range(5)]
    n = nets[0]
    for extra in nets[1:]:
        n = builder.mix(n, extra)
    assert count_switchings(n) == 32
    with pytest.raises(BudgetExceeded):
        list(enumerate_switchings(n, budget=31))


# -- switching acyclicity ----------------------------------------------------------


def test_axiom_dr_correct():
    assert is_dr_correct(builder.ax(X))


def loop_premises(net: Net) -> set[str]:
    """The premises of the tensor that ``tensor_last_two`` put over the
    net's last two conclusions."""
    return set(net.links[net.producer(net.conclusions[-1])].premises)


def test_tensor_loop_not_dr():
    bad = tensor_loop_net()
    witness = find_cyclic_switching(bad)
    assert witness is not None
    assert set(witness.cycle_edges) == loop_premises(bad)


def test_tensor_loop_beside_a_tensor_loop():
    # the second loop takes fresh ids, so the first stays as it was
    inner = tensor_loop_net()
    bad = tensor_loop_net(inner)
    assert validate(bad).ok()
    assert len(bad.links) == 2 * len(inner.links)
    assert not is_dr_correct(bad)
    witness = find_cyclic_switching(bad)
    assert witness is not None and witness_problem(bad, witness) is None


def test_builder_outputs_dr():
    for seed in range(40):
        assert is_dr_correct(builder.random_net(seed, GenParams(target_size=12, cut_bias=0.3)))


def test_dr_recurses_into_boxes():
    # a tensor loop inside a box is only visible at depth one
    bad = tensor_loop_net()
    flat = builder.flat_rule(builder.ax(X), 0)
    m = builder.mix(bad, flat)
    m = builder.flat_rule(m, 2)
    pr = builder.promotion(m, 0)  # principal = the loop tensor conclusion
    witness = find_cyclic_switching(pr)
    assert witness is not None and witness.depth_context != ()
    assert witness_problem(pr, witness) is None


def _loop_in_a_box() -> Net:
    """A tensor loop inside a box, beside a flat axiom whose two ends leave
    through pax ports."""
    m = builder.mix(tensor_loop_net(), builder.flat_rule(builder.ax(X), 0))
    return builder.promotion(builder.flat_rule(m, 2), 0)


def test_dr_names_every_box_entered():
    n = builder.promotion(_loop_in_a_box(), 0)
    outer = n.boxes[0]
    (inner,) = outer.children
    witness = find_cyclic_switching(n)
    assert witness is not None and witness.depth_context == (outer.principal, inner.principal)
    assert witness_problem(n, witness) is None


def test_dr_reports_depth_zero_before_a_box():
    loop = tensor_loop_net()
    n = builder.mix(loop, _loop_in_a_box())
    witness = find_cyclic_switching(n)
    assert witness is not None and witness.depth_context == ()
    assert set(witness.cycle_edges) == loop_premises(loop)


def test_dr_builds_no_net(monkeypatch):
    nets = [builder.promotion(_loop_in_a_box(), 0)]
    seed = 0
    while len(nets) < 20:
        seed += 1
        n = builder.random_net(seed, GenParams(target_size=30, box_bias=0.6, exponential_bias=0.5))
        if any(b.children for b in n.boxes):
            nets.append(n)
    made = []
    init = Net.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Net, "__init__", counted)
    assert [find_cyclic_switching(n) is None for n in nets] == [False] + [True] * 19
    assert made == []


def _crossed_pars() -> Net:
    """A^ @ B^, A @ B over two mixed axioms: each par's premises lie in
    two components, so contraction stops with both pars left over."""
    A, B = Atom("A"), Atom("B")
    n = builder.mix(builder.ax(A), builder.ax(B))  # A^, A, B^, B
    n = builder.par_rule(n, 1, 3)  # A^, A @ B, B^
    return builder.par_rule(n, 0, 2)  # A^ @ B^, A @ B


def test_dr_correct_net_that_contraction_leaves():
    n = _crossed_pars()
    assert count_switchings(n) == 4
    assert find_cyclic_switching(n) is None
    assert oracle_find_cyclic_switching(n) is None


def test_dr_cycle_found_only_past_contraction():
    # (A^ @ B^) * (A @ B): the switching taking A^ and A has the cycle
    # axiom - par - tensor - par - axiom, yet each par's premises still lie
    # in two components when contraction stops.
    n = tensor_last_two(_crossed_pars())
    witness = find_cyclic_switching(n)
    assert witness is not None and witness.depth_context == ()
    assert witness_problem(n, witness) is None
    assert oracle_find_cyclic_switching(n) is not None


def _premise_swaps(net: Net, rng: random.Random, count: int) -> list[Net]:
    """Valid nets made by swapping two equal-labelled premises between
    their consuming links; the labels still match, the switchings change."""
    by_label: dict = defaultdict(list)
    for e in net.edges:
        if net.consumer(e) is not None:
            by_label[net.edges[e]].append(e)
    pairs = [
        (a, b)
        for group in by_label.values()
        for a, b in itertools.combinations(group, 2)
        if net.consumer(a) != net.consumer(b)
    ]
    out = []
    for a, b in rng.sample(pairs, min(count, len(pairs))):
        links = dict(net.links)
        for old, new in ((a, b), (b, a)):
            lid = net.consumer(old)
            link = links[lid]
            links[lid] = Link(link.kind, tuple(new if e == old else e for e in link.premises), link.conclusions)
        mutated = Net(net.edges, links, net.boxes, net.conclusions)
        if validate(mutated).ok():
            out.append(mutated)
    return out


def test_dr_check_agrees_with_switching_enumeration():
    """The polynomial check against the exhaustive oracle on 1000 generated
    nets (mixed biases, boxes included), each also with a tensor loop beside
    it and with premise swaps.  A net the oracle would spend more than 2048
    switchings on is passed over, which keeps the test to seconds."""
    rng = random.Random(2024)
    nets: list[Net] = []
    seed = 0
    while len(nets) < 1000:
        seed += 1
        params = GenParams(
            target_size=rng.randint(2, 24),
            cut_bias=rng.choice((0.0, 0.2, 0.4)),
            box_bias=rng.choice((0.1, 0.3, 0.6)),
            paragraph_bias=rng.choice((0.0, 0.2)),
            exponential_bias=rng.choice((0.1, 0.3, 0.5)),
        )
        n = builder.random_net(seed, params)
        if total_switchings(n) <= 2048:
            nets.append(n)
    loops = [tensor_loop_net(n) for n in nets]
    swaps = [m for n in nets for m in _premise_swaps(n, rng, 3)]
    disagreements, bad_witnesses = [], []
    negatives = {"generated": 0, "loop": 0, "swap": 0}
    for kind, group in (("generated", nets), ("loop", loops), ("swap", swaps)):
        for i, n in enumerate(group):
            witness = find_cyclic_switching(n)
            if (witness is None) != (oracle_find_cyclic_switching(n) is None):
                disagreements.append((kind, i))
            if witness is not None:
                negatives[kind] += 1
                problem = witness_problem(n, witness)
                if problem is not None:
                    bad_witnesses.append((kind, i, problem))
    assert disagreements == []
    assert bad_witnesses == []
    assert negatives["generated"] == 0 and negatives["loop"] == len(loops)
    # the loops fail contraction outright; the swaps give subtler negatives
    assert len(swaps) >= 1000 and negatives["swap"] >= 100


# -- indexings ----------------------------------------------------------------------


def test_plain_indexing_paragraph_free_all_zero():
    n = builder.random_net(5, GenParams(target_size=12, paragraph_bias=0, exponential_bias=0))
    result = solve_indexing(n, "plain")
    assert not isinstance(result, BalanceWitness)
    assert set(result.assignment.values()) == {0}


def test_shift_implication_has_no_plain_indexing(par_shift_net):
    # the closure of the shift implication has an unbalanced cycle
    result = solve_indexing(par_shift_net, "plain")
    assert isinstance(result, BalanceWitness)
    assert result.balance == 1
    assert balance(par_shift_net, list(result.elements)) == 1


def test_shift_source_net_exponential_indexing(shift_source_net):
    result = solve_indexing(shift_source_net, "exponential")
    assert not isinstance(result, BalanceWitness)
    assert check_indexing(shift_source_net, result)


def least_edge_of_component(net: Net, flavor: str) -> dict[str, str]:
    """Union-find over the link constraints; each class is rooted at its
    least edge id."""
    parent = {e: e for e in net.edges}

    def find(x: str) -> str:
        while parent[x] != x:
            x = parent[x]
        return x

    for e1, e2, _, _ in _link_constraints(net, flavor):
        a, b = find(e1), find(e2)
        parent[max(a, b)] = min(a, b)
    return {e: find(e) for e in net.edges}


SOUNDNESS_MIXES = (
    GenParams(target_size=14, cut_bias=0.2),
    GenParams(target_size=12, cut_bias=0.0, paragraph_bias=0.5, exponential_bias=0.2),
    GenParams(target_size=12, cut_bias=0.4, paragraph_bias=0.1, exponential_bias=0.5, box_bias=0.5),
    GenParams(target_size=10, cut_bias=0.1, paragraph_bias=0.3, exponential_bias=0.4, box_bias=0.1),
)


def test_solver_soundness_on_corpus():
    seen = defaultdict(int)
    for seed in range(520):
        n = builder.random_net(seed, SOUNDNESS_MIXES[seed % len(SOUNDNESS_MIXES)])
        for flavor in ("plain", "exponential"):
            weights = flavor == "exponential"
            comp = indexing_components(n, flavor)
            assert comp == least_edge_of_component(n, flavor), (seed, flavor)
            seen["components > 1"] += len(set(comp.values())) > 1
            for strong, result in ((False, solve_indexing(n, flavor)), (True, strong_indexing(n, flavor))):
                if isinstance(result, BalanceWitness):
                    closed = result.closed
                    assert closed or strong
                    assert balance(n, list(result.elements), exponential=weights, closed=closed) == result.balance > 0
                    if not closed:
                        a, b = result.elements[0], result.elements[-1]
                        assert a in n.conclusions and b in n.conclusions and comp[a] == comp[b]
                    seen[("path", "cycle")[closed]] += strong
                    continue
                assert check_indexing(n, result)
                if strong:
                    index: dict[str, int] = {}
                    for e in n.conclusions:
                        assert index.setdefault(comp[e], result.assignment[e]) == result.assignment[e]
                    seen["strong"] += 1
    assert min(seen.values()) >= 20, dict(seen)


def test_solver_vs_brute_force_small_nets():
    checked = 0
    for seed in range(200):
        n = builder.random_net(seed, GenParams(target_size=6, cut_bias=0.2))
        if len(n.edges) > 12:
            continue
        checked += 1
        for flavor in ("plain", "exponential"):
            fast = not isinstance(solve_indexing(n, flavor), BalanceWitness)
            assert fast == brute_force_indexable(n, flavor), (seed, flavor)
    assert checked >= 50


def test_strongly_indexable_examples(shift_source_net, par_shift_net, shift_par_net):
    assert is_strongly_indexable(builder.ax(X)) is True
    w = is_strongly_indexable(shift_source_net)
    assert isinstance(w, BalanceWitness) and not w.closed and w.balance == 1
    assert is_strongly_indexable(par_shift_net) is not True
    assert is_strongly_indexable(shift_par_net) is not True
    from stratnet.rewrite import shift_net

    assert is_strongly_indexable(shift_net(shift_source_net)) is True


def test_strongly_indexable_rejects_flat_conclusion():
    n = builder.flat_rule(builder.ax(X), 0)
    with pytest.raises(PreconditionError):
        is_strongly_indexable(n)


def test_cross_component_conclusions_are_fine():
    # two identity nets of different level shape, joined by mix: strongly
    # indexable thanks to per-component translation
    a = builder.paragraph_rule(builder.paragraph_rule(builder.ax(X), 0), 1)
    m = builder.mix(a, builder.ax(X))
    assert is_strongly_indexable(m) is True


def test_proof_net_examples(par_shift_net):
    id_par = builder.ax(Paragraph(X))
    assert is_proof_net(id_par)
    assert not is_proof_net(par_shift_net)
    for seed in range(25):
        n = builder.random_net(seed, GenParams(target_size=12, paragraph_bias=0, cut_bias=0.2))
        assert is_proof_net(n)


def test_shift_indexing_examples(shift_source_net):
    ix = solve_indexing(shift_source_net, "exponential")
    comp = indexing_components(shift_source_net, "exponential")
    reps = sorted(set(comp.values()))
    same = shift_indexing(ix, shift_source_net, {})
    assert same.assignment == ix.assignment
    moved = shift_indexing(ix, shift_source_net, {reps[0]: 5})
    assert check_indexing(shift_source_net, moved)
    with pytest.raises(KeyError):
        shift_indexing(ix, shift_source_net, {"nope": 1})


def test_shift_indexing_two_components():
    m = builder.mix(builder.ax(X), builder.paragraph_rule(builder.ax(X), 1))
    ix = solve_indexing(m, "plain")
    comp = indexing_components(m, "plain")
    reps = sorted(set(comp.values()))
    assert len(reps) == 2
    moved = shift_indexing(ix, m, {reps[1]: 5})
    assert check_indexing(m, moved)
    assert any(moved.assignment[e] != ix.assignment[e] for e in m.edges)


# -- level membership -----------------------------------------------------------------


def test_dereliction_not_in_l3(dereliction_net):
    assert is_l3_indexing_route(dereliction_net) is not True
    w = is_l3_geometric(dereliction_net)
    assert isinstance(w, BalanceWitness)
    assert balance(dereliction_net, list(w.elements), exponential=True) == w.balance > 0


def test_shift_source_net_in_l3(shift_source_net):
    assert is_l3_indexing_route(shift_source_net) is True
    assert is_l3_geometric(shift_source_net) is True


def test_unstable_membership_example():
    left, normal_form = make_unstable_membership_net()
    assert is_dr_correct(left)
    assert is_l3_indexing_route(left, check_preconditions=False) is not True
    from stratnet.rewrite import normalize

    nf, _ = normalize(left)
    assert nets_equal(nf, normal_form)
    assert is_l3_indexing_route(nf, check_preconditions=False) is True


def test_l3_routes_agree_on_corpus():
    for seed in range(80):
        n = builder.random_net(seed, GenParams(target_size=14, cut_bias=0.2, exponential_bias=0.4))
        v1 = is_l3_indexing_route(n, check_preconditions=False) is True
        v2 = is_l3_geometric(n, check_preconditions=False) is True
        assert v1 == v2, seed


def closed_geometric(net: Net) -> bool | BalanceWitness:
    """The geometric route on the par-closure built: the oracle for
    ``is_l3_geometric``, which walks the closing pars without building
    them."""
    result = solve_indexing(parr_closure(net), "exponential")
    return result if isinstance(result, BalanceWitness) else True


def assert_geometric_matches_the_closure(nets) -> int:
    """Same verdict and same witness on every net; returns the members."""
    members = 0
    for net in nets:
        verdict = is_l3_geometric(net, check_preconditions=False)
        assert verdict == closed_geometric(net)
        members += verdict is True
    return members


def test_geometric_route_matches_the_closure_on_the_l3_cutfree_corpus():
    assert assert_geometric_matches_the_closure(l3_cutfree_nets(201)) == 94


def test_geometric_route_matches_the_closure_on_random_nets():
    # criterion 1's five bias mixes at target sizes 0 to 34, with and
    # without cuts; the counts are nets with 0, 1 and more conclusions,
    # and members
    rng = random.Random(24)
    nets = []
    for seed in range(1_500):
        mix = BIAS_MIXES[seed % len(BIAS_MIXES)]
        params = GenParams(
            target_size=rng.randint(0, 34),
            cut_bias=rng.choice([0.0, 0.4]),
            exponential_bias=mix.exponential_bias,
            paragraph_bias=mix.paragraph_bias,
            box_bias=mix.box_bias,
        )
        nets.append(builder.random_net(seed, params))
    members = assert_geometric_matches_the_closure(nets)
    widths = [min(len(n.conclusions), 2) for n in nets]
    assert (widths.count(0), widths.count(1), widths.count(2), members) == (16, 16, 1468, 538)


@pytest.mark.parametrize("name", WIDE_NETS)
def test_geometric_route_matches_the_closure_on_wide_nets(name):
    assert_geometric_matches_the_closure([wide_net(name)])


def test_geometric_route_rejects_a_flat_conclusion_as_the_closure_does():
    n = builder.flat_rule(builder.ax(X), 0)
    with pytest.raises(ValueError) as closing:
        parr_closure(n)
    with pytest.raises(ValueError) as route:
        is_l3_geometric(n, check_preconditions=False)
    assert type(route.value) is type(closing.value) is ValueError
    assert str(route.value) == str(closing.value) == "cannot close a net with a flat-labelled conclusion"


def test_l3_preconditions():
    with pytest.raises(PreconditionError):
        is_l3_indexing_route(tensor_loop_net())
    with pytest.raises(PreconditionError):
        is_l3_geometric(builder.flat_rule(builder.ax(X), 0))


def test_exponential_free_paragraph_free_in_l3():
    n = builder.random_net(9, GenParams(target_size=10, paragraph_bias=0, exponential_bias=0))
    assert is_l3_geometric(n, check_preconditions=False) is True


# -- quasi-indexings --------------------------------------------------------------------


def test_default_quasi_axiom():
    q = default_exponential_quasi_indexing(builder.ax(X))
    assert set(q.assignment.values()) == {0}


def test_default_quasi_dereliction_mismatch(dereliction_net):
    q = default_exponential_quasi_indexing(dereliction_net)
    ax_id = next(l for l, lk in dereliction_net.links.items() if lk.kind == "ax")
    c1, c2 = dereliction_net.links[ax_id].conclusions
    assert sorted((q.assignment[c1], q.assignment[c2])) == [0, 1]
    assert check_indexing(dereliction_net, q)


def test_default_quasi_requires_cut_free():
    n = builder.cut_rule(builder.ax(X), 1, builder.ax(X), 0)
    with pytest.raises(PreconditionError):
        default_exponential_quasi_indexing(n)
    q = default_exponential_quasi_indexing(n, allow_cuts=True)
    assert check_indexing(n, q)


def test_default_quasi_is_exponential_indexing_for_members():
    from stratnet.interactive import identity_net
    from stratnet.formula import bullet_formula

    for text in ("X", "(X * Y)", "!X", "?(X * X)", "#X"):
        net = identity_net(bullet_formula(parse_formula(text)))
        q = default_exponential_quasi_indexing(net)
        # axiom constraints hold too, so it is a genuine exponential indexing
        for lid, lk in net.links.items():
            if lk.kind == "ax":
                a, b = lk.conclusions
                assert q.assignment[a] == q.assignment[b]
        assert all(q.assignment[e] == 0 for e in net.conclusions)
        assert all(v >= 0 for v in q.assignment.values())


# -- balance ------------------------------------------------------------------------------


def test_balance_empty():
    assert balance(builder.ax(X), []) == 0


def test_balance_up_then_down():
    n = builder.paragraph_rule(builder.ax(X), 1)
    pid = next(l for l, lk in n.links.items() if lk.kind == "paragraph")
    prem = n.links[pid].premises[0]
    conc = n.links[pid].conclusions[0]
    walk = [conc, pid, prem, pid, conc]
    assert balance(n, walk, closed=False) == 0


def test_balance_shift_cycle(par_shift_net):
    w = solve_indexing(par_shift_net, "plain")
    assert isinstance(w, BalanceWitness)
    assert balance(par_shift_net, list(w.elements)) == 1


def test_balance_rejects_non_incident():
    n = builder.paragraph_rule(builder.ax(X), 1)
    pid = next(l for l, lk in n.links.items() if lk.kind == "paragraph")
    other = [e for e in n.edges if e not in n.links[pid].premises + n.links[pid].conclusions]
    with pytest.raises(ValueError):
        balance(n, [other[0], pid, other[0]], closed=False)
