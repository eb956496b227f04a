import pytest

from stratnet.formula import (
    Atom,
    OfCourse,
    Par,
    Paragraph,
    Tensor,
    WhyNot,
    bullet_formula,
    dual,
    parse_formula,
)
from stratnet.net import nets_equal, parr_closure, validate
from stratnet import builder
from stratnet.builder import GenParams
from stratnet.correctness import (
    PreconditionError,
    check_indexing,
    default_exponential_quasi_indexing,
    is_dr_correct,
    is_l3_geometric,
    is_proof_net,
)
from stratnet.interactive import (
    CompositionError,
    InteractiveReport,
    LevelReport,
    bullet_net,
    compose,
    cut_compose,
    detect_feet,
    eta_expand,
    feet_composition,
    identity_net,
    interactive_l3_check,
    make_test,
    swap_net,
    syntactic_interpretation,
)
from stratnet.interactive import test_levels as level_range
from stratnet.rewrite import normalize, normalize_no_axiom, transport_indexing

from interactive_oracle import atom_sites, swapping_compare

X = Atom("X")
Y = Atom("Y")
Z = Atom("Z")


# -- eta expansion -------------------------------------------------------------


def test_eta_atomic_unchanged():
    n = builder.ax(X)
    assert eta_expand(n) is n


def test_eta_tensor_axiom():
    n = eta_expand(builder.ax(Tensor(X, Y)))
    kinds = sorted(l.kind for l in n.links.values())
    assert kinds == ["ax", "ax", "par", "tensor"]
    assert [str(n.edges[e]) for e in n.conclusions] == ["(X^ @ Y^)", "(X * Y)"]
    assert is_proof_net(n)


def test_eta_bang_axiom():
    n = eta_expand(builder.ax(OfCourse(X)))
    kinds = sorted(l.kind for l in n.links.values())
    assert kinds == ["ax", "flat", "ofcourse", "pax", "whynot"]
    assert [str(n.edges[e]) for e in n.conclusions] == ["?X^", "!X"]
    assert len(n.boxes) == 1 and len(n.boxes[0].auxiliaries) == 1
    assert is_proof_net(n)


def test_eta_requires_cut_free():
    n = builder.cut_rule(builder.ax(X), 1, builder.ax(X), 0)
    with pytest.raises(PreconditionError):
        eta_expand(n)


def test_eta_inside_boxes():
    inner = builder.flat_rule(builder.ax(OfCourse(X)), 0)
    boxed = builder.whynot_rule(builder.promotion(inner, 1), [0])
    expanded = eta_expand(boxed)
    assert validate(expanded).ok()
    assert all(
        isinstance(expanded.edges[lk.conclusions[0]].formula, Atom)
        for lk in expanded.links.values()
        if lk.kind == "ax"
    )
    assert is_dr_correct(expanded)


def test_transform_ids_and_boxes_are_pinned():
    # a compound axiom on !X * Y and a flat link, both two boxes deep: the
    # ids eta-expansion, doubling and the shift hand out, and the box each
    # new link lands in (per box: principal, auxiliaries, the links directly
    # inside, child boxes)
    from stratnet.rewrite import shift_net

    n = builder.flat_rule(builder.ax(Tensor(OfCourse(X), Y)), 0)
    n = builder.whynot_rule(builder.promotion(builder.promotion(n, 1), 1), [0])

    def shape(net):
        def tree(box):
            inner = {lid for c in box.children for lid in c.contents | set(c.border())}
            return (box.principal, box.auxiliaries, sorted(box.contents - inner), [tree(c) for c in box.children])

        assert validate(net).ok()
        return sorted(net.links), sorted(net.edges), [tree(b) for b in net.boxes]

    eta = eta_expand(n)
    assert shape(eta) == (
        ["l10", "l12", "l2", "l20", "l22", "l24", "l25", "l26", "l27", "l28", "l29", "l4", "l6", "l8"],
        ["e0", "e1", "e11", "e13", "e14", "e15", "e16", "e17", "e18", "e19", "e21", "e23", "e3", "e5", "e7", "e9"],
        [("l8", ("l10",), [], [
            ("l4", ("l6",), ["l2", "l26", "l27", "l28", "l29"], [("l25", ("l24",), ["l20", "l22"], [])]),
        ])],
    )
    assert eta.conclusions == n.conclusions
    assert shape(bullet_net(eta)) == (
        ["l10", "l12", "l2", "l22", "l24", "l25", "l26", "l28", "l29", "l34", "l35", "l36", "l37",
         "l4", "l42", "l43", "l44", "l45", "l6", "l8"],
        ["e0", "e1", "e11", "e13", "e14", "e15", "e16", "e17", "e18", "e19", "e21", "e23", "e3",
         "e30", "e31", "e32", "e33", "e38", "e39", "e40", "e41", "e5", "e7", "e9"],
        [("l8", ("l10",), [], [
            ("l4", ("l6",), ["l2", "l26", "l28", "l29", "l42", "l43", "l44", "l45"], [
                ("l25", ("l24",), ["l22", "l34", "l35", "l36", "l37"], []),
            ]),
        ])],
    )
    assert shape(shift_net(n)) == (
        ["l0", "l10", "l12", "l2", "l2~sh0", "l4", "l4~sh1", "l6", "l8", "l8~sh2"],
        ["e0", "e0~sh0", "e1", "e11", "e13", "e1~sh1", "e3", "e5", "e5~sh2", "e7", "e9"],
        [("l8", ("l10",), ["l8~sh2"], [("l4", ("l6",), ["l0", "l2", "l2~sh0", "l4~sh1"], [])])],
    )


def test_identity_nets(dereliction_net):
    assert nets_equal(identity_net(X), builder.ax(X))
    idxx = identity_net(Tensor(X, X))
    assert len(idxx.links) == 4
    for f in (Tensor(X, Y), OfCourse(X), Paragraph(X), WhyNot(Tensor(X, X))):
        n = identity_net(f)
        assert [n.edges[e].formula for e in n.conclusions] == [dual(f), f]
        assert is_proof_net(n)


def test_identity_composition_law():
    for f in (X, Tensor(X, Y), OfCourse(X), Paragraph(Tensor(X, X))):
        ident = identity_net(f)
        nf, _ = normalize(compose(ident, ident))
        assert nets_equal(nf, ident)


# -- swap net and sites -----------------------------------------------------------


def test_swap_net_differs_from_identity():
    assert not nets_equal(swap_net(), identity_net(Tensor(X, X)))
    assert is_proof_net(swap_net())


def test_swap_self_inverse():
    nf, _ = normalize(compose(swap_net(), swap_net()))
    assert nets_equal(nf, identity_net(Tensor(X, X)))


def test_atom_sites_identity():
    idb = identity_net(bullet_formula(Z))
    sites = atom_sites(idb)
    assert len(sites) == 1 and sites[0].level == 0 and not sites[0].crossed


def test_atom_sites_levels_under_exponential():
    a = parse_formula("(?Z^ @ Z)")
    idb = identity_net(bullet_formula(a))
    sites = atom_sites(idb)
    assert sorted(s.level for s in sites) == [0, 1]


def test_site_count_matches_axiom_count():
    for seed in range(12):
        n = builder.random_net(seed, GenParams(target_size=10, cut_bias=0))
        if n.has_flat_conclusion() or not n.conclusions:
            continue
        closed = parr_closure(n)
        eta = eta_expand(closed)
        n_ax = sum(1 for l in eta.links.values() if l.kind == "ax")
        pib = bullet_net(eta)
        assert len(atom_sites(pib)) == n_ax


def test_bullet_requires_atomic_axioms():
    with pytest.raises(PreconditionError):
        bullet_net(builder.ax(Tensor(X, Y)))


def test_bullet_preserves_dr_and_membership():
    for seed in range(12):
        n = builder.random_net(seed, GenParams(target_size=10, cut_bias=0, exponential_bias=0.4))
        if n.has_flat_conclusion() or not n.conclusions:
            continue
        closed = eta_expand(parr_closure(n))
        doubled = bullet_net(closed)
        assert validate(doubled).ok()
        assert is_dr_correct(doubled)
        assert len(doubled.conclusions) == len(closed.conclusions)
        before = is_l3_geometric(closed, check_preconditions=False) is True
        after = is_l3_geometric(doubled, check_preconditions=False) is True
        assert before == after


def test_bullet_atom_free_unchanged():
    n = builder.one_rule()
    assert nets_equal(bullet_net(n), n)


# -- tests --------------------------------------------------------------------------


def test_make_test_atomic():
    t = make_test(Z, 0)
    assert len(t.swapped_sites) == 1
    assert nets_equal(t.net, swap_net())


def test_make_test_above_levels_is_identity():
    t = make_test(Z, 3)
    assert t.swapped_sites == ()
    assert nets_equal(t.net, identity_net(bullet_formula(Z)))


def test_make_test_under_exponential():
    a = parse_formula("(?Z^ @ Z)")
    t = make_test(a, 1)
    assert len(t.swapped_sites) == 1
    assert t.swapped_sites[0].level == 1
    t0 = make_test(a, 0)
    assert len(t0.swapped_sites) == 1 and t0.swapped_sites[0].level == 0


def test_tests_self_inverse():
    for text in ("Z", "(Z * Y)", "!Z", "(?Z^ @ Z)", "#(Z * Z)"):
        a = parse_formula(text)
        for k in level_range(a):
            t = make_test(a, k)
            nf, _ = normalize(compose(t.net, t.net))
            assert nets_equal(nf, identity_net(bullet_formula(a))), (text, k)


# -- composition -----------------------------------------------------------------------


def test_cut_compose_identity_law():
    for seed in range(10):
        n = builder.random_net(seed, GenParams(target_size=8, cut_bias=0))
        if n.has_flat_conclusion() or not n.conclusions:
            continue
        ids = [identity_net(n.edges[e].formula) for e in n.conclusions]
        nf, _ = normalize(cut_compose(n, list(ids)))
        assert nets_equal(nf, n), seed


def test_cut_compose_axiom():
    nf, _ = normalize(cut_compose(builder.ax(X), [builder.ax(X), builder.ax(X)]))
    assert nets_equal(nf, builder.ax(X))


def test_cut_compose_arity_mismatch():
    with pytest.raises(CompositionError):
        cut_compose(builder.ax(X), [builder.ax(X)])


def test_cut_compose_ambiguity_needs_index():
    both = builder.mix(builder.ax(X), builder.ax(X))  # two X^ and two X
    with pytest.raises(CompositionError):
        cut_compose(builder.ax(X), [both, builder.ax(X)])
    ok = cut_compose(builder.ax(X), [(both, 1), builder.ax(X)])
    assert validate(ok).ok()


# -- interpretation ----------------------------------------------------------------------


def test_syntactic_interpretation_shapes():
    n = builder.ax(Z)
    interp = syntactic_interpretation(n)
    assert sum(1 for l in interp.links.values() if l.kind == "bot") == 1
    assert len(atom_sites(bullet_net(eta_expand(n)))) == 1


def test_syntactic_interpretation_invariant_under_reduction():
    left, right = __import__("conftest").make_unstable_membership_net()
    a = syntactic_interpretation(left)
    b = syntactic_interpretation(right)
    assert nets_equal(a, b)


def test_syntactic_interpretation_idempotent_up_to_bottom():
    n = builder.ax(Z)
    once = syntactic_interpretation(n)
    twice = syntactic_interpretation(once)
    bots_once = sum(1 for l in once.links.values() if l.kind == "bot")
    bots_twice = sum(1 for l in twice.links.values() if l.kind == "bot")
    assert bots_twice == bots_once + 1


def test_eta_expansion_runs_far_deeper_than_the_recursion_limit():
    # a par, tensor and # chain 2,000 deep, expanded from an explicit stack
    f = X
    for i in range(2_000):
        f = (Par(f, Y), Tensor(X, f), Paragraph(f))[i % 3]
    n = eta_expand(builder.ax(f))
    assert [n.edges[e].formula for e in n.conclusions] == [dual(f), f]
    assert sum(link.kind == "ax" for link in n.links.values()) == 1 + 667 + 667
    assert interactive_l3_check(builder.ax(f)).member


# -- the interactive decider ----------------------------------------------------------------


def test_interactive_identity_passes():
    rep = interactive_l3_check(parr_closure(identity_net(Z)))
    assert rep.member and all(r.passed for r in rep.levels)


def test_interactive_dereliction_fails_with_swapping_residue(dereliction_net):
    rep = interactive_l3_check(dereliction_net)
    assert not rep.member
    failing = [r for r in rep.levels if not r.passed]
    assert failing and all(r.swapped_sites >= 1 for r in failing)
    assert any(r.residue_is_swapping for r in failing)


def test_interactive_preconditions():
    # a cut-free net with at least one conclusion, none of them flat: two
    # conclusions get the report of their par-closure
    with pytest.raises(PreconditionError):
        interactive_l3_check(builder.cut_rule(builder.ax(X), 1, builder.ax(X), 0))
    assert interactive_l3_check(builder.ax(X)) == interactive_l3_check(parr_closure(builder.ax(X)))
    with pytest.raises(PreconditionError):
        interactive_l3_check(builder.daimon())
    with pytest.raises(PreconditionError):
        interactive_l3_check(builder.flat_rule(builder.ax(X), 0))


def test_axiom_on_an_atom_has_level_zero():
    # neither conclusion is tested, but both ends sit at level 0
    report = InteractiveReport(True, (LevelReport(0, True, 0, False),))
    assert interactive_l3_check(builder.ax(X)) == interactive_l3_check(builder.ax(X), level=0) == report
    with pytest.raises(PreconditionError, match="1 is not a level of"):
        interactive_l3_check(builder.ax(X), level=1)


def test_interactive_agrees_with_geometric():
    for seed in range(40):
        n = builder.random_net(seed, GenParams(target_size=10, cut_bias=0, exponential_bias=0.4))
        if n.has_flat_conclusion() or not n.conclusions:
            continue
        closed = parr_closure(n)
        geo = is_l3_geometric(closed, check_preconditions=False) is True
        assert interactive_l3_check(closed).member == geo, seed


# -- swapping comparison -----------------------------------------------------------------------


def test_swapping_compare_reflexive_is_false():
    idb = identity_net(bullet_formula(Z))
    assert not swapping_compare(idb, idb)


def test_swapping_compare_one_swap():
    idb = identity_net(bullet_formula(Z))
    swapped = make_test(Z, 0).net
    assert swapping_compare(swapped, idb)
    assert not swapping_compare(idb, swapped)


def test_swapping_compare_shape_mismatch():
    assert not swapping_compare(identity_net(bullet_formula(Z)), identity_net(bullet_formula(Tensor(Z, Z))))


# -- feet ---------------------------------------------------------------------------------------


def test_feet_cut_free_empty():
    assert detect_feet(builder.random_net(3, GenParams(target_size=10, cut_bias=0))) == []


def test_feet_counts_and_lifts():
    cases = [
        builder.ax(Z),
        identity_net(Tensor(Z, Y)),
        identity_net(OfCourse(Z)),
        eta_expand(parr_closure(builder.ax(Tensor(Z, Z)))),
    ]
    for pi in cases:
        n_ax = sum(1 for l in pi.links.values() if l.kind == "ax")
        fixed, trace, pib = feet_composition(pi)
        feet = detect_feet(fixed)
        assert len(feet) == n_ax
        site_axioms = set()
        for s in atom_sites(pib):
            site_axioms.update(s.axioms)
        for foot in feet:
            for mid in foot.inner_axioms:
                assert trace.lift_to_source(mid) in site_axioms


def test_feet_transport_quasi():
    pi = identity_net(OfCourse(Z))
    pib = bullet_net(pi)
    ids = [identity_net(bullet_formula(pi.edges[e].formula)) for e in pi.conclusions]
    composed = cut_compose(pib, list(ids))
    q = default_exponential_quasi_indexing(composed, allow_cuts=True)
    fixed, trace = normalize_no_axiom(composed)
    q2 = transport_indexing(q, trace, fixed)
    assert check_indexing(fixed, q2)
