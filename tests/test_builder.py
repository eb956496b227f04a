import pytest

from stratnet.formula import Atom, parse_formula
from stratnet.net import nets_equal, save, validate
from stratnet import builder
from stratnet.builder import GenParams, RuleError
from stratnet.correctness import is_dr_correct

X = Atom("X")
Y = Atom("Y")


def test_daimon_axiom_one():
    assert builder.daimon().links == {}
    n = builder.ax(X)
    assert [str(n.edges[e]) for e in n.conclusions] == ["X^", "X"]
    assert [str(e) for e in builder.one_rule().conclusion_formulas()] == ["1"]


def test_ax_compound():
    n = builder.ax(parse_formula("(X * Y)"))
    assert [str(n.edges[e]) for e in n.conclusions] == ["(X^ @ Y^)", "(X * Y)"]


def test_mix():
    m = builder.mix(builder.daimon(), builder.ax(X))
    assert nets_equal(m, builder.ax(X))
    m2 = builder.mix(builder.ax(X), builder.ax(Y))
    assert len(m2.conclusions) == 4
    # id collision between operands is resolved by renaming
    m3 = builder.mix(builder.ax(X), builder.ax(X))
    assert validate(m3).ok() and len(m3.links) == 2


def test_mix_deterministic():
    a = builder.mix(builder.ax(X), builder.ax(Y))
    b = builder.mix(builder.ax(X), builder.ax(Y))
    assert save(a) == save(b)


def test_cut_requires_dual_labels():
    with pytest.raises(RuleError):
        builder.cut_rule(builder.ax(X), 1, builder.ax(Y), 1)
    n = builder.cut_rule(builder.ax(X), 1, builder.ax(X), 0)
    assert validate(n).ok()
    assert len(n.cut_links()) == 1


def test_index_out_of_range():
    with pytest.raises(RuleError):
        builder.par_rule(builder.ax(X), 0, 5)
    with pytest.raises(RuleError):
        builder.flat_rule(builder.ax(X), 7)


def test_dereliction_shape(dereliction_net):
    assert validate(dereliction_net).ok()
    assert [str(e) for e in dereliction_net.conclusion_formulas()] == ["(?X^ @ X)"]
    kinds = sorted(l.kind for l in dereliction_net.links.values())
    assert kinds == ["ax", "flat", "par", "whynot"]


def test_promotion_shape():
    n = builder.promotion(builder.flat_rule(builder.ax(X), 0), 1)
    assert [str(e) for e in n.conclusion_formulas()] == ["%X^", "!X"]
    box = n.boxes[0]
    assert len(box.auxiliaries) == 1
    assert n.links[box.principal].kind == "ofcourse"


def test_promotion_rejects_two_plain_conclusions():
    with pytest.raises(RuleError):
        builder.promotion(builder.ax(X), 1)


def test_weakening_needs_formula():
    with pytest.raises(RuleError):
        builder.whynot_rule(builder.daimon(), [])
    n = builder.whynot_rule(builder.daimon(), [], weakening_of=X)
    assert [str(e) for e in n.conclusion_formulas()] == ["?X"]
    wid = next(iter(n.links))
    assert n.links[wid].premises == ()


def test_whynot_rejects_mixed_formulas():
    a = builder.mix(builder.flat_rule(builder.ax(X), 0), builder.flat_rule(builder.ax(Y), 0))
    with pytest.raises(RuleError):
        builder.whynot_rule(a, [0, 2])


def test_random_net_size_zero():
    for seed in range(10):
        n = builder.random_net(seed, GenParams(target_size=0))
        assert len(n.links) <= 1


def test_random_net_deterministic():
    p = GenParams(target_size=25, cut_bias=0.3)
    assert save(builder.random_net(11, p)) == save(builder.random_net(11, p))


def test_random_net_cut_bias_zero_is_cut_free():
    for seed in range(30):
        n = builder.random_net(seed, GenParams(target_size=20, cut_bias=0.0))
        assert not n.cut_links()


def test_random_net_no_flat_conclusions():
    for seed in range(30):
        n = builder.random_net(seed, GenParams(target_size=20, cut_bias=0.3))
        assert not n.has_flat_conclusion()


def test_builder_outputs_valid_and_dr():
    for seed in range(60):
        n = builder.random_net(seed, GenParams(target_size=15, cut_bias=0.3))
        assert validate(n).ok()
        assert is_dr_correct(n)


def test_weakening_contributes_no_switching_choice():
    from switching_oracle import count_switchings

    n = builder.whynot_rule(builder.daimon(), [], weakening_of=X)
    assert count_switchings(n) == 1


def test_generator_covers_rule_kinds():
    kinds = set()
    boxes = 0
    for seed in range(40):
        n = builder.random_net(seed, GenParams(target_size=25, cut_bias=0.3))
        kinds.update(l.kind for l in n.links.values())
        boxes += sum(1 for _ in n.all_boxes())
    assert {"ax", "tensor", "par", "flat", "whynot", "ofcourse", "pax", "paragraph", "cut"} <= kinds
    assert boxes > 0
