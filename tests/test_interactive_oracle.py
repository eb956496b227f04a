"""The interactive decider against its oracles.

The decider reduces each eta-expanded net once, undoubled, against the
identity test of each conclusion.  ``interactive_oracle`` keeps, for the
par-closure, the doubled form of that reduction, which derives every
level's normal form from one reduction of the doubled net, and the
per-level reduction.  Per level, the
derived and the per-level normal forms must be the same, byte for byte
under ``save``, and all three must give the same ``LevelReport``.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

import stratnet
from stratnet import builder, correctness, interactive, net as net_mod, rewrite
from stratnet.builder import GenParams
from stratnet.interactive import _swap_sites, _test_base, identity_net, interactive_l3_check
from stratnet.formula import Atom, OfCourse, Tensor, bullet_formula, parse_formula
from stratnet.cli import main
from stratnet.net import Link, parr_closure, save

import interactive_oracle
from conftest import make_unstable_membership_net
from interactive_oracle import atom_sites, doubled_l3_check, oracle_level_normal_forms
from test_acceptance import cut_free_corpus

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import L3CutFree  # noqa: E402


class Observed:
    """Counts the decider's compositions and reductions, and keeps the
    normal form that the doubled oracle derives for each level.  Both build
    their composite in a workspace, before they know the levels, and
    reduce it there: each reduction is of the composite just built."""

    def __init__(self, monkeypatch):
        self.compositions = self.reductions = 0
        self.composed = self.nf = None
        self.derived: list[tuple[int, bytes]] = []
        compose, reduce = interactive._identity_cut, interactive._reduce

        def counted_compose(*args, **kwargs):
            self.compositions += 1
            self.composed = compose(*args, **kwargs)
            return self.composed

        def counted_reduce(ws, *args, **kwargs):
            assert ws is self.composed[1]
            self.reductions += 1
            return reduce(ws, *args, **kwargs)

        def kept_reduce(ws, *args, **kwargs):
            trace = reduce(ws, *args, **kwargs)
            self.nf = ws.freeze()
            return trace

        def kept_crossed_at(k, *args):
            crossed = crossed_at(k, *args)
            self.derived.append((k, save(_swap_sites(self.nf, crossed))))
            return crossed

        crossed_at = interactive_oracle._crossed_at
        monkeypatch.setattr(interactive, "_identity_cut", counted_compose)
        monkeypatch.setattr(interactive, "_reduce", counted_reduce)
        monkeypatch.setattr(interactive_oracle, "_reduce", kept_reduce)
        monkeypatch.setattr(interactive_oracle, "_crossed_at", kept_crossed_at)

    def check(self, net, level: int | None = None) -> int:
        """Compare one check with both oracles; returns the levels tested."""
        self.derived.clear()
        report = interactive_l3_check(net, level=level)
        assert doubled_l3_check(net, level=level) == report
        expected = oracle_level_normal_forms(net, level=level)
        assert report.levels == tuple(r for _, _, r in expected)
        assert report.member == all(r.passed for r in report.levels)
        assert self.derived == [(k, save(nf)) for k, nf, _ in expected]
        return len(expected)


def reference_nets(request) -> list:
    """Criterion 2's nets and a few identity nets."""
    names = ("shift_source_net", "dereliction_net", "par_shift_net", "shift_par_net")
    nets = [request.getfixturevalue(name) for name in names] + [make_unstable_membership_net()[1]]
    return nets + [identity_net(f) for f in (Atom("X"), Tensor(Atom("X"), Atom("Y")), OfCourse(Atom("X")))]


def test_oracle_on_reference_nets(monkeypatch, request):
    # every level alone as well as all together
    observed = Observed(monkeypatch)
    failing = 0
    for net in map(parr_closure, reference_nets(request)):
        levels = observed.check(net)
        failing += not interactive_l3_check(net).member
        for k in range(levels):
            assert observed.check(net, level=k) == 1
    assert failing >= 3


def test_oracle_on_criterion_1_nets(monkeypatch):
    # every eighth net of criterion 1's corpus (125 nets): the oracle costs
    # a reduction per level; every check composes, and reduces once exactly
    # when it has a level to test (one of these nets has none)
    observed = Observed(monkeypatch)
    nets = [parr_closure(n) for n in cut_free_corpus(1000)[::8]]
    levels = [observed.check(net) for net in nets]
    assert observed.compositions == len(nets) < sum(levels)
    assert observed.reductions == sum(map(bool, levels)) == len(nets) - 1


@cache
def l3_cutfree_nets(seed: int) -> tuple:
    """The benchmark's l3-cutfree nets for a seed."""
    return tuple(n for _, n in L3CutFree().stratified(seed))


@cache
def l3_cutfree_corpus(seed: int) -> tuple:
    """The benchmark's l3-cutfree nets for a seed, closed."""
    return tuple(map(parr_closure, l3_cutfree_nets(seed)))


def random_boxed_nets() -> list:
    """Seeded cut-free nets heavy in boxes, contraction and paragraphs, and
    compound axioms, which the check eta-expands."""
    params = GenParams(target_size=24, cut_bias=0, exponential_bias=0.7, box_bias=0.7, paragraph_bias=0.3)
    nets = [builder.random_net(seed, params) for seed in range(300)]
    rng = random.Random(5)
    nets += [builder.ax(builder.random_formula(rng, 4, params)) for _ in range(60)]
    return [n for n in nets if n.conclusions and not n.has_flat_conclusion()]


def outcome(check, net, level):
    """A check's report, or the text of the error it raises."""
    try:
        return check(net, level=level)
    except interactive.PreconditionError as exc:
        return str(exc)


CORPORA = ["reference", "criterion-1", "l3-cutfree-201", "random-boxed"]


def corpus_nets(request, corpus: str) -> list:
    """A corpus's nets, unclosed."""
    return {
        "reference": lambda: reference_nets(request),
        "criterion-1": lambda: cut_free_corpus(1000),
        "l3-cutfree-201": lambda: l3_cutfree_nets(201),
        "random-boxed": random_boxed_nets,
    }[corpus]()


@pytest.mark.parametrize("corpus", CORPORA)
def test_reports_equal_the_doubled_check(request, corpus):
    # the undoubled check against the doubled one: the same report for all
    # levels, for each level alone, and the same error for a level out of
    # range, on every net of each corpus; the counts are nets, members and
    # nets with a contraction
    nets = [parr_closure(n) for n in corpus_nets(request, corpus)]
    members = contracted = 0
    for net in nets:
        report = doubled_l3_check(net)
        for level in [None, -1, *range(len(report.levels) + 1)]:
            assert outcome(interactive_l3_check, net, level) == outcome(doubled_l3_check, net, level)
        members += report.member
        contracted += any(link.kind == "whynot" and len(link.premises) > 1 for link in net.links.values())
    assert (len(nets), members, contracted) == {
        "reference": (8, 5, 0),
        "criterion-1": (1000, 320, 263),
        "l3-cutfree-201": (300, 94, 81),
        "random-boxed": (360, 60, 235),
    }[corpus]


@pytest.mark.parametrize("corpus", CORPORA)
def test_reports_equal_the_closed_check(request, corpus):
    # the check on a net as loaded, each conclusion cut against its own
    # identity test, against the check on its par-closure: the same report
    # for all levels, for each level alone, and the same error for a level
    # out of range; the counts are nets and nets with several conclusions
    nets = corpus_nets(request, corpus)
    for net in nets:
        closed = parr_closure(net)
        report = interactive_l3_check(closed)
        for level in [None, -1, *range(len(report.levels) + 1)]:
            assert outcome(interactive_l3_check, net, level) == outcome(interactive_l3_check, closed, level)
    assert (len(nets), sum(len(n.conclusions) > 1 for n in nets)) == {
        "reference": (8, 4),
        "criterion-1": (1000, 997),
        "l3-cutfree-201": (300, 300),
        "random-boxed": (360, 360),
    }[corpus]


def is_atomic(net, e) -> bool:
    return isinstance(net.edges[e].formula, Atom)


def test_atomic_beside_compound_conclusions_equal_the_doubled_check():
    # an atomic conclusion gets no test, yet its end counts at level 0:
    # against the doubled check of the par-closure, on the seed-201
    # l3-cutfree nets with both kinds of conclusion, and on atoms beside
    # units, which have no level of their own: the report for all levels,
    # and the error for a level out of range (each level alone is the
    # closed check's, as test_reports_equal_the_closed_check shows); the
    # counts are nets and members
    X = Atom("X")
    nets = [
        n
        for n in l3_cutfree_nets(201)
        if any(is_atomic(n, e) for e in n.conclusions) and not all(is_atomic(n, e) for e in n.conclusions)
    ]
    nets += [
        builder.mix(builder.ax(X), builder.one_rule()),
        builder.mix(builder.one_rule(), builder.bottom_rule(builder.ax(X))),
        builder.mix(builder.ax(OfCourse(X)), builder.ax(X)),
    ]
    members = 0
    for net in nets:
        closed = parr_closure(net)
        report = doubled_l3_check(closed)
        assert interactive_l3_check(net) == report
        level = len(report.levels)
        assert outcome(interactive_l3_check, net, level) == outcome(doubled_l3_check, closed, level)
        members += report.member
    assert (len(nets), members) == (284, 94)


def test_one_cut_per_compound_conclusion_and_no_test_for_an_atomic_one():
    # on the seed-201 l3-cutfree nets: each compound conclusion is cut
    # against a test of as many links as its identity net, and each atomic
    # one stays a conclusion, with no test link or cut
    atomic = compound = 0
    for net in l3_cutfree_nets(201):
        eta, ws, cuts, _ = interactive._identity_cut(net)
        kept = [e for e in net.conclusions if is_atomic(net, e)]
        tested = [net.edges[e].formula for e in net.conclusions if not is_atomic(net, e)]
        assert len(cuts) == len(tested) == sum(link.kind == "cut" for link in ws.links.values())
        assert len(ws.links) - len(eta.links) == sum(len(identity_net(a).links) + 1 for a in tested)
        assert [e for e in ws.conclusions if e in eta.edges] == kept
        atomic, compound = atomic + len(kept), compound + len(tested)
    assert (atomic, atomic + compound) == (1802, 3388)


def test_one_reduction_per_check_on_the_l3_cutfree_corpus(monkeypatch):
    # the benchmark's seed-201 l3-cutfree corpus: 300 nets and 710 levels,
    # so reducing once per level would take 710 reductions
    observed = Observed(monkeypatch)
    nets = l3_cutfree_corpus(201)
    levels = sum(observed.check(net) for net in nets)
    assert (len(nets), levels) == (300, 710)
    assert observed.compositions == observed.reductions == 300


def test_no_labelling_traversal_or_quasi_indexing_per_check(monkeypatch):
    # on the same corpus: no labelling, where one of pib and one of the
    # normal form per check took 600 and labelling each level's view
    # 1,010, since the walk proves the reduced workspace isomorphic to the
    # eta-expanded net in place on all 300 checks, freezing nothing (on
    # one check it took two labellings and a freeze while the walk paired
    # a why-not's premises in stored order, the wrong way round, before
    # their producers were paired); no traversal to rank the composite's
    # lone cut; no quasi-indexing of the identity test, whose levels the
    # eta-expansion counts; no block scan, since the undoubled normal form
    # has one atomic axiom where the doubled one has a block (scanning the
    # doubled normal form took 300, and scanning pib too 600)
    nets = l3_cutfree_corpus(201)  # drawn first: the builder freezes a workspace too
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(net_mod, "_labelling")
    count(rewrite, "traversal_order")
    count(net_mod, "traversal_order")
    count(correctness, "default_exponential_quasi_indexing")
    count(interactive, "_blocks")
    count(rewrite._Workspace, "freeze")
    for net in nets:
        interactive_l3_check(net)
    assert (len(nets), calls["_labelling"], calls["freeze"]) == (300, 0, 0)
    assert calls["_blocks"] == 0
    assert calls["traversal_order"] == calls["default_exponential_quasi_indexing"] == 0


def test_the_verdict_compares_the_normal_form_with_pib(monkeypatch):
    # after the reduction, exchange the premises of one tensor that no
    # axiom feeds and whose premises differ in label: every axiom's ends
    # lift to the test positions they lifted to, so the crossed blocks stay
    # as they were, but the normal form is no longer the eta-expanded net,
    # nor its doubling pib once doubled and uncrossed, so every level fails
    # and no residue is a block swapping
    reduce = interactive._reduce
    changed = []

    def reduce_and_change(ws, *args, **kwargs):
        trace = reduce(ws, *args, **kwargs)
        for lid, link in ws.links.items():
            if (
                link.kind == "tensor"
                and all(ws.kind_of_producer(e) != "ax" for e in link.premises)
                and len({ws.edges[e] for e in link.premises}) == 2
            ):
                ws.put_link(lid, Link("tensor", link.premises[::-1], link.conclusions))
                changed.append(lid)
                break
        return trace

    monkeypatch.setattr(interactive, "_reduce", reduce_and_change)
    uncrossed = 0
    for net in l3_cutfree_corpus(201)[:60]:
        before = len(changed)
        report = interactive_l3_check(net)
        if len(changed) > before:
            assert not any(r.passed or r.residue_is_swapping for r in report.levels)
            uncrossed += sum(r.swapped_sites == 0 for r in report.levels)
    # 19 nets have such a tensor; their 12 levels whose normal form crosses
    # no block fail by the comparison alone
    assert (len(changed), uncrossed) == (19, 12)


def test_the_in_place_walk_agrees_with_nets_equal(monkeypatch):
    # on the seed-201 l3-cutfree nets, as loaded and closed: the walk over
    # the reduced workspace, with the workspace on either side, says what
    # the walk over its frozen normal form says, and the check's
    # comparison is nets_equal's on the frozen normal form; the walk
    # proves all 600 (598 while it paired a why-not's premises in stored
    # order before their producers were paired)
    made = []
    identity_cut = interactive._identity_cut

    def keep(net):
        made.append(identity_cut(net))
        return made[-1]

    monkeypatch.setattr(interactive, "_identity_cut", keep)
    walked = equal = 0
    for net in l3_cutfree_nets(201) + l3_cutfree_corpus(201):
        report = interactive_l3_check(net)
        eta, ws, _, _ = made[-1]
        frozen = ws.freeze()
        in_place = net_mod._walk_isomorphic(ws, eta)
        assert in_place == net_mod._walk_isomorphic(eta, ws) == net_mod._walk_isomorphic(frozen, eta)
        same = any(r.passed or r.residue_is_swapping for r in report.levels)
        assert same == net_mod.nets_equal(frozen, eta)
        walked, equal = walked + in_place, equal + same
    assert (len(made), walked, equal) == (600, 600, 600)


def test_one_workspace_and_no_closing_per_l3_call(monkeypatch, tmp_path, capsys):
    # l3 --method all on the same 300 nets, unclosed: the check builds its
    # composite in the workspace it loads the net into, so no sequent rule
    # adds a link, and the one absorb per call is that load: nothing
    # absorbs or renames the identity test (300 absorbs before), nothing
    # composes nets (300), nothing loads the composite into a second
    # workspace or the identity test into a third (900 workspaces), and
    # one net is made per call, the one loaded (3,563, then 1,763 while the
    # check froze pib and uncrossed its doubled normal form, 900 while the
    # geometric route closed each net, and 600 while the check froze its
    # normal form to compare it; the walk compares the workspace in place,
    # and a normal form is frozen only when the walk fails, which it does
    # on none of these documents), and no route closes a net: the
    # interactive check tests each conclusion on its own, and the geometric
    # route walks the closing pars without building them (600 closings of
    # a net with more than one conclusion while both routes closed it, 300
    # while the geometric route did)
    calls = Counter()

    def count(name, *modules):
        for module in modules:
            fn = getattr(module, name)

            def counted(*args, fn=fn, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

    def count_made(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            calls[cls.__name__] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    paths = []
    for i, net in enumerate(l3_cutfree_nets(201)):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_bytes(save(net))
    count("absorb", rewrite._Workspace)
    count("_add", builder)
    count("cut_compose", interactive)
    for module in (net_mod, stratnet):
        close = module.parr_closure

        def counted_closure(net, close=close):
            calls["parr_closure"] += len(net.conclusions) > 1
            return close(net)

        monkeypatch.setattr(module, "parr_closure", counted_closure)
    count_made(rewrite._Workspace)
    count_made(net_mod.Net)
    for path in paths:
        assert main(["l3", "--method", "all", str(path)]) in (0, 1)
    assert '"verdicts"' in capsys.readouterr().out
    assert (calls["absorb"], calls["_add"], calls["cut_compose"], calls["parr_closure"]) == (300, 0, 0, 0)
    assert (calls["_Workspace"], calls["Net"]) == (300, 300)


def test_no_closing_on_the_interactive_route(monkeypatch, tmp_path, capsys):
    # l3 --method interactive and test on the same 300 nets: every
    # compound conclusion gets its own identity test, so neither closes a
    # net (each closed the 300 nets, all with more than one conclusion,
    # before)
    closings = 0
    for module in (net_mod, stratnet):

        def counted_closure(net, close=module.parr_closure):
            nonlocal closings
            closings += 1
            return close(net)

        monkeypatch.setattr(module, "parr_closure", counted_closure)
    for i, net in enumerate(l3_cutfree_nets(201)):
        path = tmp_path / f"{i}.json"
        path.write_bytes(save(net))
        assert main(["l3", "--method", "interactive", str(path)]) in (0, 1)
        assert main(["test", str(path)]) in (0, 1)
    assert capsys.readouterr().out.count('"verdicts"') == 300
    assert closings == 0


def assert_test_base_matches_atom_sites(a) -> None:
    """The identity test of a, with the levels its eta-expansion counted,
    against the identity net and its quasi-indexing levels."""
    base, sites = _test_base(a)
    reference = identity_net(bullet_formula(a))
    assert sites == atom_sites(reference)
    assert save(base) == save(reference)


@pytest.mark.parametrize("seed", [201, 202, 203])
def test_test_levels_equal_the_quasi_indexing_on_the_l3_cutfree_corpus(seed):
    for net in l3_cutfree_corpus(seed):
        assert_test_base_matches_atom_sites(net.edges[net.conclusions[0]].formula)


@pytest.mark.parametrize(
    "text",
    [
        "X", "X^", "1", "bot", "(1 @ bot)", "!X", "?X^", "#X", "##X", "!?X", "?!#X^",
        "#(!X * ?Y^)", "!(X @ #?(Y * !Z))", "(#!X @ ?#(X^ * #Y))", "?(!(#X @ X^) * #!#Y)",
    ],
)
def test_test_levels_equal_the_quasi_indexing_under_nested_modalities(text):
    assert_test_base_matches_atom_sites(parse_formula(text))


@pytest.mark.parametrize("level", [None, 0])
def test_no_reduction_for_a_formula_without_levels(monkeypatch, level):
    # 1 @ _|_ has no atom, hence no block and no level
    net = parr_closure(builder.mix(builder.one_rule(), builder.bottom_rule(builder.daimon())))
    observed = Observed(monkeypatch)
    if level is None:
        assert interactive_l3_check(net).levels == ()
    else:
        with pytest.raises(interactive.PreconditionError):
            interactive_l3_check(net, level=level)
    assert observed.reductions == 0
