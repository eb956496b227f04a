"""The draft-based builder against the rules as they were before the draft
(``builder_oracle``): the same edges and links in the same dict order, the
same boxes, conclusions and id mark, and the same errors."""

import sys
from pathlib import Path

import builder_oracle as oracle
from stratnet import builder
from stratnet.builder import GenParams, RuleError
from stratnet.formula import Atom
from stratnet.interactive import CompositionError, cut_compose
from stratnet.net import Label, Link, Net, load
from stratnet.rewrite import _Workspace

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import CheckDR, L3CutFree  # noqa: E402

X = Atom("X")
Y = Atom("Y")

# Criterion 1's five bias mixes, the check-dr corpus's cut bias, and a
# box-heavy mix at 300 links
MIXES = [
    GenParams(cut_bias=0.0, exponential_bias=0.35, paragraph_bias=0.15, box_bias=0.3),
    GenParams(cut_bias=0.0, exponential_bias=0.55, paragraph_bias=0.05, box_bias=0.5),
    GenParams(cut_bias=0.0, exponential_bias=0.15, paragraph_bias=0.4, box_bias=0.2),
    GenParams(cut_bias=0.0, exponential_bias=0.0, paragraph_bias=0.0, box_bias=0.0),
    GenParams(cut_bias=0.0, exponential_bias=0.45, paragraph_bias=0.3, box_bias=0.4),
    GenParams(target_size=60, cut_bias=0.4),
    GenParams(target_size=300, exponential_bias=0.6, box_bias=0.6, cut_bias=0.3),
]


def parts(net: Net) -> tuple:
    return list(net.edges.items()), list(net.links.items()), net.boxes, net.conclusions, net.id_mark()


def test_random_net_matches_the_oracle():
    draws = [(seed, params) for params in MIXES for seed in range(60)]
    draws += [(seed, GenParams(target_size=3000, cut_bias=bias)) for seed, bias in ((0, 0.4), (1, 0.0), (2, 0.2))]
    for seed, params in draws:
        assert parts(builder.random_net(seed, params)) == parts(oracle.random_net(seed, params)), (seed, params)
    assert len(builder.random_net(0, GenParams(target_size=3000, cut_bias=0.4)).links) > 3000


def rule_calls(lib):
    x, fx, fy = lib.ax(X), lib.flat_rule(lib.ax(X), 0), lib.flat_rule(lib.ax(Y), 0)
    apart = Net({"e5": Label(X)}, {"l9": Link("one", (), ("e5",))}, (), ("e5",))
    two_flats = lib.mix(lib.flat_rule(lib.ax(X), 1), lib.flat_rule(lib.ax(Y), 0))
    boxed = lib.promotion(fx, 1)
    two_deep = lib.promotion(lib.tensor_rule(boxed, 1, fy, 1), 2)
    return {
        "daimon": lambda: lib.daimon(),
        "axiom": lambda: x,
        "one": lambda: lib.one_rule(),
        "mix with clashing ids": lambda: lib.mix(x, x),
        "mix without a clash": lambda: lib.mix(x, apart),
        "mix into a daimon": lambda: lib.mix(lib.daimon(), x),
        "cut": lambda: lib.cut_rule(x, 1, x, 0),
        "tensor": lambda: lib.tensor_rule(x, 0, lib.ax(Y), 1),
        "par": lambda: lib.par_rule(lib.mix(x, lib.ax(Y)), 3, 0),
        "bottom": lambda: lib.bottom_rule(x),
        "flat": lambda: fx,
        "why-not": lambda: lib.whynot_rule(lib.mix(fx, fx), [2, 0]),
        "weakening": lambda: lib.whynot_rule(x, [], weakening_of=Y),
        "paragraph": lambda: lib.paragraph_rule(x, 1),
        "promotion": lambda: lib.promotion(fx, 1),
        "promotion with flat sides": lambda: lib.promotion(lib.tensor_rule(fx, 1, fy, 1), 2),
        "promotion of a box": lambda: two_deep,
        "mix of boxed nets with clashing ids": lambda: lib.mix(boxed, boxed),
        "two-deep boxed net absorbed into a boxed one": lambda: lib.mix(boxed, two_deep),
        "tensor of a boxed net and a two-deep one": lambda: lib.tensor_rule(boxed, 1, two_deep, 2),
        # the errors each rule raises, with their messages
        "cut out of range": lambda: lib.cut_rule(x, 0, x, 2),
        "cut not dual": lambda: lib.cut_rule(x, 1, lib.ax(Y), 1),
        "cut on flat": lambda: lib.cut_rule(fx, 0, x, 1),
        "tensor on flat": lambda: lib.tensor_rule(x, 0, fx, 0),
        "par on one conclusion": lambda: lib.par_rule(x, 1, 1),
        "par on flat": lambda: lib.par_rule(fx, 0, 1),
        "flat twice": lambda: lib.flat_rule(fx, 0),
        "why-not duplicate": lambda: lib.whynot_rule(fx, [0, 0]),
        "why-not not flat": lambda: lib.whynot_rule(fx, [1]),
        "why-not mixed": lambda: lib.whynot_rule(two_flats, [1, 2]),
        "weakening without formula": lambda: lib.whynot_rule(x, []),
        "paragraph on flat": lambda: lib.paragraph_rule(fx, 0),
        "promotion on flat": lambda: lib.promotion(fx, 0),
        "promotion with a plain side": lambda: lib.promotion(x, 1),
    }


def outcome(call):
    try:
        return parts(call())
    except RuleError as exc:
        return str(exc)


def test_each_rule_matches_the_oracle():
    new, old = rule_calls(builder), rule_calls(oracle)
    assert {name: outcome(call) for name, call in new.items()} == {name: outcome(call) for name, call in old.items()}
    assert isinstance(outcome(new["promotion with flat sides"]), tuple)
    assert isinstance(outcome(new["promotion with a plain side"]), str)


def test_cut_compose_matches_the_oracle():
    x, one = builder.ax(X), builder.one_rule()
    bottom = builder.bottom_rule(builder.daimon())
    cases = [
        (builder.par_rule(x, 0, 1), [builder.tensor_rule(x, 1, x, 0)]),
        (x, [x, (builder.mix(x, x), 2)]),
        (builder.mix(x, one), [x, x, bottom]),
        (builder.mix(x, one), [x, x, x]),  # no dual for the third conclusion
        (x, [x]),  # one partner short
    ]
    failed = []
    for net, partners in cases:
        results = []
        for compose in (cut_compose, oracle.cut_compose):
            try:
                results.append(parts(compose(net, partners)))
            except CompositionError as exc:
                results.append(str(exc))
        assert results[0] == results[1], (net, partners)
        failed.append(isinstance(results[0], str))
    assert failed == [False, False, False, True, True]


def test_a_workspace_freezes_to_the_net_it_loads(tmp_path):
    # the rules absorb with the loader that normalize and the interactive
    # check load with: on both seed-201 benchmark corpora, as loaded from
    # their documents, and on box-heavy draws, a workspace loaded with a
    # net, or started empty and absorbing it, freezes back to the net
    slots = L3CutFree().generate(201, tmp_path) + CheckDR().generate(201, tmp_path)
    nets = [load(Path(slot.path).read_bytes()) for slot in slots]
    nets += [builder.random_net(seed, MIXES[-1]) for seed in range(30)]
    assert len(nets) == 830 and sum(bool(net.boxes) for net in nets) > 400
    for net in nets:
        assert parts(_Workspace(net).freeze()) == parts(_Workspace().absorb(net).freeze()) == parts(net)
