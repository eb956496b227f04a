import hashlib

import pytest

from stratnet.formula import ONE, Atom, parse_formula
from stratnet.net import Label, Link, Net, nets_equal, save, validate
from stratnet import builder
from stratnet.builder import GenParams, RuleError
from stratnet.net import _Fresh
from stratnet.correctness import is_dr_correct

X = Atom("X")
Y = Atom("Y")


def test_daimon_axiom_one():
    assert builder.daimon().links == {}
    n = builder.ax(X)
    assert [str(n.edges[e]) for e in n.conclusions] == ["X^", "X"]
    n = builder.one_rule()
    assert [str(n.edges[e]) for e in n.conclusions] == ["1"]


def test_ax_compound():
    n = builder.ax(parse_formula("(X * Y)"))
    assert [str(n.edges[e]) for e in n.conclusions] == ["(X^ @ Y^)", "(X * Y)"]


def test_fresh_names_start_past_every_numbered_id():
    # e<n> and l<n> share one counter; other ids, and digits that are not
    # ASCII, do not count; a leading zero counts by value
    odd = ("e7", "e007", "x99", "e", "e5x", "l\u0669\u0669")
    net = Net({e: Label(X) for e in odd}, {"l12": Link("one", (), ())})
    fresh = _Fresh(net)
    assert (fresh.edge(), fresh.link(), fresh.edge()) == ("e13", "l14", "e15")
    assert net.id_mark() == 13
    assert _Fresh(builder.ax(X), net).link() == "l13"
    assert _Fresh().edge() == "e0"


def test_doubled_composite_ids_are_pinned(dereliction_net):
    # the ids eta-expansion, doubling, composition and reduction hand out,
    # which the trace and the interactive check's lift maps carry; the
    # test's box meets a one-premise why-not, which takes its contents under
    # their own ids (l53, l54; copies were l53~c0, l54~c0)
    from stratnet.formula import bullet_formula
    from stratnet.interactive import bullet_net, cut_compose, eta_expand, identity_net
    from stratnet.rewrite import normalize

    pib = bullet_net(eta_expand(dereliction_net))
    test = identity_net(bullet_formula(dereliction_net.edges[dereliction_net.conclusions[0]].formula))
    nf, trace = normalize(cut_compose(pib, [test]))
    assert sorted(pib.links) == ["l12", "l13", "l14", "l15", "l2", "l4", "l6"]
    assert [s.redex.cut for s in trace.steps[:3]] == ["l64", "l64~m0", "l64~m0~x0"]
    assert sorted(nf.links) == ["l12", "l53", "l54", "l57", "l59", "l61", "l63"]


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


def test_negative_indices_are_out_of_range():
    # Python's negative indexing let these through: a cut of one axiom
    # with itself (a cyclic switching), and rules that used one edge as
    # two premises (an invalid net)
    x, fx = builder.ax(X), builder.flat_rule(builder.ax(X), 0)
    calls = {
        "cut": lambda: builder.cut_rule(x, -1, x, 0),
        "cut, second net": lambda: builder.cut_rule(x, 1, x, -2),
        "tensor": lambda: builder.tensor_rule(x, 0, x, -1),
        "why-not": lambda: builder.whynot_rule(builder.mix(fx, fx), [0, -4]),
        "par": lambda: builder.par_rule(x, 0, -2),
        "flat": lambda: builder.flat_rule(x, -1),
        "paragraph": lambda: builder.paragraph_rule(x, -1),
        "promotion": lambda: builder.promotion(fx, -1),
    }
    for name, call in calls.items():
        with pytest.raises(RuleError, match=r"conclusion index -\d+ out of range \(net has [24]\)"):
            call()


def test_dereliction_shape(dereliction_net):
    assert validate(dereliction_net).ok()
    assert [str(dereliction_net.edges[e]) for e in dereliction_net.conclusions] == ["(?X^ @ X)"]
    kinds = sorted(l.kind for l in dereliction_net.links.values())
    assert kinds == ["ax", "flat", "par", "whynot"]


def test_promotion_shape():
    n = builder.promotion(builder.flat_rule(builder.ax(X), 0), 1)
    assert [str(n.edges[e]) for e in n.conclusions] == ["%X^", "!X"]
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
    assert [str(n.edges[e]) for e in n.conclusions] == ["?X"]
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


def test_rules_hand_on_the_id_mark_a_scan_finds():
    # a mark below the scan would hand out ids that are already taken
    x, fx = builder.ax(X), builder.flat_rule(builder.ax(X), 0)
    apart = Net({"e5": Label(ONE)}, {"l9": Link("one", (), ("e5",))}, (), ("e5",))
    built = [
        builder.daimon(),
        x,
        builder.one_rule(),
        builder.mix(x, builder.ax(Y)),
        builder.mix(x, apart),
        builder.mix(builder.daimon(), x),
        builder.cut_rule(x, 1, x, 0),
        builder.tensor_rule(x, 0, x, 1),
        builder.par_rule(x, 1, 0),
        builder.bottom_rule(x),
        fx,
        builder.whynot_rule(fx, [0]),
        builder.whynot_rule(x, [], weakening_of=Y),
        builder.paragraph_rule(x, 1),
        builder.promotion(fx, 1),
    ]
    built += [builder.random_net(seed, GenParams(target_size=30, cut_bias=0.4)) for seed in range(20)]
    for net in built:
        assert net._mark == Net(net.edges, net.links, net.boxes, net.conclusions).id_mark()


def test_random_net_scans_no_ids_and_each_rule_builds_one_net(monkeypatch):
    counts = {"builds": 0, "scans": 0}
    init, id_mark = Net.__init__, Net.id_mark

    def counted_init(self, *args, **kwargs):
        counts["builds"] += 1
        init(self, *args, **kwargs)

    def counted_id_mark(self):
        counts["scans"] += self._mark is None
        return id_mark(self)

    monkeypatch.setattr(Net, "__init__", counted_init)
    monkeypatch.setattr(Net, "id_mark", counted_id_mark)
    for seed in range(50):
        counts["builds"] = 0
        builder.random_net(seed, GenParams(target_size=60, cut_bias=0.4))
        assert counts["builds"] == 1
    assert counts["scans"] == 0

    from stratnet.interactive import cut_compose

    x, fx = builder.ax(X), builder.flat_rule(builder.ax(X), 0)
    closed, tensor = builder.par_rule(x, 0, 1), builder.tensor_rule(x, 1, x, 0)
    with_one, bottom = builder.mix(x, builder.one_rule()), builder.bottom_rule(builder.daimon())
    rules = {
        "mix with clashing ids": lambda: builder.mix(x, x),
        "par": lambda: builder.par_rule(x, 0, 1),
        "bottom": lambda: builder.bottom_rule(x),
        "flat": lambda: builder.flat_rule(x, 1),
        "why-not": lambda: builder.whynot_rule(fx, [0]),
        "paragraph": lambda: builder.paragraph_rule(x, 0),
        "promotion": lambda: builder.promotion(fx, 1),
        "cut": lambda: builder.cut_rule(x, 1, x, 0),
        "tensor": lambda: builder.tensor_rule(x, 1, x, 0),
        "cut_compose, one partner": lambda: cut_compose(closed, [tensor]),
        "cut_compose, two partners": lambda: cut_compose(x, [x, x]),
        "cut_compose, three partners": lambda: cut_compose(with_one, [x, x, bottom]),
    }
    builds = {}
    for name, rule in rules.items():
        counts["builds"] = 0
        rule()
        builds[name] = counts["builds"]
    assert builds == {name: 1 for name in rules}


# Criterion 1's five bias mixes and the check-dr corpus's cut bias; the
# test and benchmark corpora come from this generator.
PINNED_PARAMS = [
    GenParams(cut_bias=0.0, exponential_bias=0.35, paragraph_bias=0.15, box_bias=0.3),
    GenParams(cut_bias=0.0, exponential_bias=0.55, paragraph_bias=0.05, box_bias=0.5),
    GenParams(cut_bias=0.0, exponential_bias=0.15, paragraph_bias=0.4, box_bias=0.2),
    GenParams(cut_bias=0.0, exponential_bias=0.0, paragraph_bias=0.0, box_bias=0.0),
    GenParams(cut_bias=0.0, exponential_bias=0.45, paragraph_bias=0.3, box_bias=0.4),
    GenParams(target_size=60, cut_bias=0.4),
]


def test_random_net_output_is_pinned():
    saved, ids = hashlib.sha256(), hashlib.sha256()
    for params in PINNED_PARAMS:
        for seed in range(30):
            n = builder.random_net(seed, params)
            saved.update(save(n))
            ids.update(repr(sorted(n.links)).encode())
    assert saved.hexdigest() == "ae76afa30f3ad1b685e0fa9d7b253861b29e636aab1f42e7ef10e7f7b8bfb6c3"
    assert ids.hexdigest() == "d9c2147aa9693e8cf397410d29bdddfbac3547572ca521530c5783fcd78c4abf"
