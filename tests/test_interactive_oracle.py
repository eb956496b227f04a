"""The interactive decider against the per-level oracle.

The decider reduces each doubled net once, against the identity test, and
derives every level's normal form from that reduction; the oracle
(``interactive_oracle``) reduces once per level.  Per level, both must give
the same normal form, byte for byte under ``save``, and the same
``LevelReport``.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

from stratnet import builder, correctness, interactive, net as net_mod, rewrite
from stratnet.interactive import _swap_sites, _test_base, atom_sites, identity_net, interactive_l3_check
from stratnet.formula import Atom, OfCourse, Tensor, bullet_formula, parse_formula
from stratnet.net import parr_closure, save

from conftest import make_unstable_membership_net
from interactive_oracle import oracle_level_normal_forms
from test_acceptance import cut_free_corpus

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import L3CutFree  # noqa: E402


class Observed:
    """Counts the decider's compositions and reductions, and keeps the
    normal form it derives for each level."""

    def __init__(self, monkeypatch):
        self.compositions = self.reductions = 0
        self.nf = None
        self.derived: list[tuple[int, bytes]] = []
        compose, reduce, crossed_at = interactive.cut_compose, interactive.normalize, interactive._crossed_at

        def counted_compose(*args, **kwargs):
            self.compositions += 1
            return compose(*args, **kwargs)

        def kept_normalize(*args, **kwargs):
            self.reductions += 1
            self.nf, trace = reduce(*args, **kwargs)
            return self.nf, trace

        def kept_crossed_at(k, *args):
            crossed = crossed_at(k, *args)
            self.derived.append((k, save(_swap_sites(self.nf, crossed))))
            return crossed

        monkeypatch.setattr(interactive, "cut_compose", counted_compose)
        monkeypatch.setattr(interactive, "normalize", kept_normalize)
        monkeypatch.setattr(interactive, "_crossed_at", kept_crossed_at)

    def check(self, net, level: int | None = None) -> int:
        """Compare one check with the oracle; returns the levels tested."""
        self.derived.clear()
        report = interactive_l3_check(net, level=level)
        expected = oracle_level_normal_forms(net, level=level)
        assert report.levels == tuple(r for _, _, r in expected)
        assert report.member == all(r.passed for r in report.levels)
        assert self.derived == [(k, save(nf)) for k, nf, _ in expected]
        return len(expected)


def test_oracle_on_reference_nets(
    monkeypatch, shift_source_net, dereliction_net, par_shift_net, shift_par_net
):
    # criterion 2's nets, closed, and a few identity nets; every level
    # alone as well as all together
    _, unstable_normal_form = make_unstable_membership_net()
    nets = [shift_source_net, dereliction_net, par_shift_net, shift_par_net, unstable_normal_form]
    nets += [identity_net(f) for f in (Atom("X"), Tensor(Atom("X"), Atom("Y")), OfCourse(Atom("X")))]
    observed = Observed(monkeypatch)
    failing = 0
    for net in map(parr_closure, nets):
        levels = observed.check(net)
        failing += not interactive_l3_check(net).member
        for k in range(levels):
            assert observed.check(net, level=k) == 1
    assert failing >= 3


def test_oracle_on_criterion_1_nets(monkeypatch):
    # every eighth net of criterion 1's corpus (125 nets): the oracle costs
    # a reduction per level
    observed = Observed(monkeypatch)
    nets = [parr_closure(n) for n in cut_free_corpus(1000)[::8]]
    levels = sum(observed.check(net) for net in nets)
    assert observed.compositions == observed.reductions <= len(nets) < levels


@cache
def l3_cutfree_corpus(seed: int) -> tuple:
    """The benchmark's l3-cutfree nets for a seed, closed."""
    return tuple(parr_closure(n) for _, n in L3CutFree().stratified(seed))


def test_one_reduction_per_check_on_the_l3_cutfree_corpus(monkeypatch):
    # the benchmark's seed-201 l3-cutfree corpus: 300 nets and 710 levels,
    # so reducing once per level would take 710 reductions
    observed = Observed(monkeypatch)
    nets = l3_cutfree_corpus(201)
    levels = sum(observed.check(net) for net in nets)
    assert (len(nets), levels) == (300, 710)
    assert observed.compositions == observed.reductions == 300


def test_two_labellings_and_no_traversal_or_quasi_indexing_per_check(monkeypatch):
    # on the same corpus: one labelling of pib and one of the normal form
    # per check, where labelling each level's view took 1,010; no traversal
    # to rank the composite's lone cut; no quasi-indexing of the identity
    # test, whose levels the eta-expansion counts
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(interactive, "_labelling")
    count(net_mod, "_labelling")
    count(rewrite, "traversal_order")
    count(net_mod, "traversal_order")
    count(interactive, "default_exponential_quasi_indexing")
    count(correctness, "default_exponential_quasi_indexing")
    nets = l3_cutfree_corpus(201)
    for net in nets:
        interactive_l3_check(net)
    assert calls["_labelling"] <= 2 * len(nets) == 600
    assert calls["traversal_order"] == calls["default_exponential_quasi_indexing"] == 0


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
