import copy
import hashlib
import json
import pickle
import random
import time

import pytest

from stratnet.formula import Atom, Paragraph, dual, parse_formula
from stratnet.net import (
    Box,
    InvalidNetError,
    Label,
    Link,
    Net,
    NetFormatError,
    _walk_isomorphic,
    canonical_form,
    load,
    nets_equal,
    parse_label,
    parr_closure,
    save,
    underlying_graph,
    validate,
)
from stratnet import builder
from stratnet.correctness import find_cyclic_switching
from stratnet import rewrite
from stratnet.interactive import bullet_net, eta_expand, interactive_l3_check
from stratnet.rewrite import normalize, shift_net

from conftest import make_id_bang, paragraph_chain, shuffle_net, tensor_loop_net
from isomorphism_oracle import isomorphic
from switching_oracle import collapsed_graph, find_cycle


X = Atom("X")
Y = Atom("Y")
Z = Atom("Z")


def test_single_axiom_valid():
    n = builder.ax(X)
    assert validate(n).ok()
    assert [str(n.edges[e]) for e in n.conclusions] == ["X^", "X"]


def test_edge_premise_of_two_links_flagged():
    n = builder.ax(X)
    links = dict(n.links)
    links["extra"] = Link("flat", (n.conclusions[0],), ("fe",))
    links["extra2"] = Link("paragraph", (n.conclusions[0],), ("pe",))
    edges = dict(n.edges)
    edges["fe"] = Label(Atom("X", True), flat=True)
    edges["pe"] = Label(parse_formula("#X^"))
    bad = Net(edges, links, (), (n.conclusions[1], "fe", "pe"))
    report = validate(bad)
    assert not report.ok()
    assert any(v.code == "consumer" for v in report.violations)


def test_overlapping_boxes_flagged():
    b1 = make_id_bang(X)
    b2 = make_id_bang(Y)
    m = builder.mix(b1, b2)
    boxes = list(m.boxes)
    inner1 = set(boxes[0].contents) | set(boxes[0].border())
    inner2 = set(boxes[1].contents) | set(boxes[1].border())
    # Forge two overlapping non-nested boxes sharing one link.
    shared = next(iter(inner2))
    forged = Box(boxes[0].principal, boxes[0].auxiliaries, frozenset(boxes[0].contents | {shared}))
    bad = Net(m.edges, m.links, (forged, boxes[1]), m.conclusions)
    report = validate(bad)
    assert not report.ok()
    assert any("overlap" in v.message or "box" == v.code for v in report.violations)


def test_typing_violation_reported():
    n = builder.ax(X)
    edges = dict(n.edges)
    edges[n.conclusions[0]] = Label(Atom("Y", True))
    bad = Net(edges, n.links, (), n.conclusions)
    report = validate(bad)
    assert any(v.code == "typing" for v in report.violations)


def test_depth():
    flat = builder.par_rule(builder.ax(X), 0, 1)
    assert all(flat.depth(l) == 0 for l in flat.links)
    one_box = make_id_bang(X)
    box = one_box.boxes[0]
    assert one_box.depth(box.principal) == 0
    assert all(one_box.depth(l) == 1 for l in box.contents)
    # doubly nested: box around the box
    b1 = builder.promotion(builder.flat_rule(builder.ax(X), 0), 1)
    b2 = builder.promotion(b1, 1)
    inner_box = b2.boxes[0].children[0]
    assert b2.depth(inner_box.principal) == 1
    assert all(b2.depth(l) == 2 for l in inner_box.contents)
    with pytest.raises(KeyError):
        b2.depth("nonexistent")


def test_box_walks_run_far_deeper_than_the_recursion_limit(monkeypatch):
    # A promotion chain 1,500 boxes deep, closed by a why-not.  Not
    # validated: the box-closure check walks every box's whole contents.
    ws = rewrite._Workspace(builder.flat_rule(builder.ax(X), 0))
    for _ in range(1_500):
        builder._promote(ws, 1)
    n = builder._whynot(ws, [0]).freeze()
    assert n.depth("l0") == 1_500 and len(list(n.all_boxes())) == 1_500
    assert find_cyclic_switching(n) is None
    assert len(list(bullet_net(n).all_boxes())) == 1_500
    # cut against a weakening, which erases the boxes, and against a
    # one-premise why-not, which takes the chain's boxes under their own ids
    body = dual(n.edges[n.conclusions[1]].formula).body
    weakening = builder.whynot_rule(builder.daimon(), [], weakening_of=body)
    nf, trace = normalize(builder.cut_rule(n, 1, weakening, 0))
    assert len(trace.steps) == 1
    assert [link.kind for link in nf.links.values()] == ["whynot"] and not nf.boxes
    dereliction = builder.whynot_rule(builder.flat_rule(builder.ax(body), 1), [1])
    nf, trace = normalize(builder.cut_rule(dereliction, 1, n, 1))
    assert not nf.cut_links() and len(list(nf.all_boxes())) == 1_499
    # the interactive check cuts the chain against its identity test; each
    # of its 1,501 exponential steps meets a one-premise why-not and takes
    # the box, so no box is copied (the copying step did not finish in
    # 300 s).  The axiom's ends sit at levels 1 and 1,500, so those two
    # levels fail.
    copies = 0
    copy_contents = rewrite._copy_contents

    def counted(*args):
        nonlocal copies
        copies += 1
        return copy_contents(*args)

    monkeypatch.setattr(rewrite, "_copy_contents", counted)
    report = interactive_l3_check(n)
    assert copies == 0 and not report.member and len(report.levels) == 1_501
    failed = [(r.k, r.swapped_sites, r.residue_is_swapping) for r in report.levels if not r.passed]
    assert failed == [(1, 1, True), (1_500, 1, True)]


def test_parr_closure_single_and_empty():
    n = builder.ax(X)
    closed = parr_closure(n)
    assert len(closed.conclusions) == 1
    assert str(closed.edges[closed.conclusions[0]]) == "(X^ @ X)"
    single = parr_closure(closed)
    assert nets_equal(single, closed)
    assert parr_closure(builder.daimon()).conclusions == ()


def test_parr_closure_right_nested():
    n = builder.mix(builder.mix(builder.one_rule(), builder.one_rule()), builder.one_rule())
    closed = parr_closure(n)
    assert str(closed.edges[closed.conclusions[0]]) == "(1 @ (1 @ 1))"
    # exactly conclusions - 1 new par links
    assert sum(1 for l in closed.links.values() if l.kind == "par") == 2
    assert len(closed.links) == len(n.links) + 2


def test_parr_closure_rejects_flat():
    n = builder.flat_rule(builder.ax(X), 0)
    with pytest.raises(ValueError):
        parr_closure(n)


def test_underlying_graph_axiom_cut_loop():
    # one axiom whose two conclusions meet one cut (not buildable by the
    # rules, so assembled directly)
    n = Net(
        {"a": Label(Atom("X", True)), "b": Label(Atom("X"))},
        {"ax": Link("ax", (), ("a", "b")), "cut": Link("cut", ("a", "b"), ())},
        (),
        (),
    )
    assert validate(n).ok()
    cycle = find_cycle(underlying_graph(n))
    assert cycle is not None and len(cycle) == 2


def test_underlying_graph_shift_source_acyclic(shift_source_net):
    g = underlying_graph(shift_source_net)
    assert find_cycle(g) is None


def test_underlying_graph_box_collapse_parallel_edges():
    # A box with two auxiliary ports whose wires meet one why-not link:
    # collapsing the box leaves parallel edges, hence a cycle.
    a = builder.mix(builder.flat_rule(builder.ax(X), 0), builder.flat_rule(builder.ax(X), 0))
    joined = builder.par_rule(a, 1, 3)  # (X @ X) with the two flats pending
    boxed = builder.promotion(joined, 1)
    wn = builder.whynot_rule(boxed, [0, 2])
    assert validate(wn).ok()
    g = collapsed_graph(wn)
    assert find_cycle(g) is not None
    # the collapsed node really does carry parallel edges to the why-not
    wid = next(l for l, lk in wn.links.items() if lk.kind == "whynot")
    parallel = [e for e in g.edges if wid in (e[0], e[1]) and "box:" in e[0] + e[1]]
    assert len(parallel) == 2


@pytest.fixture(scope="module")
def oracle_corpus() -> list[Net]:
    """1000 seeded nets with mixed sizes, cuts, boxes and biases."""
    nets = []
    for seed in range(1000):
        rng = random.Random(seed)
        params = builder.GenParams(
            target_size=rng.randint(2, 30),
            box_bias=rng.choice((0.1, 0.3, 0.6)),
            paragraph_bias=rng.choice((0.0, 0.2)),
            exponential_bias=rng.choice((0.2, 0.4, 0.6)),
            cut_bias=rng.choice((0.0, 0.3, 0.5)),
        )
        nets.append(builder.random_net(seed, params))
    return nets


def premise_swaps(net: Net, rng: random.Random, count: int) -> list[Net]:
    """Nets made by exchanging two equally labelled premises between their
    consumers; some are isomorphic to the net, most are not."""
    slots = [(lid, i, e) for lid, lk in net.links.items() for i, e in enumerate(lk.premises)]
    out: list[Net] = []
    for _ in range(5 * count):
        if len(out) == count or len(slots) < 2:
            break
        (l1, i1, e1), (l2, i2, e2) = rng.sample(slots, 2)
        if net.edges[e1] != net.edges[e2] or (l1 == l2 and net.links[l1].kind in ("cut", "whynot")):
            continue
        links = dict(net.links)
        for lid, i, e in ((l1, i1, e2), (l2, i2, e1)):
            premises = list(links[lid].premises)
            premises[i] = e
            links[lid] = Link(links[lid].kind, tuple(premises), links[lid].conclusions)
        out.append(Net(net.edges, links, net.boxes, net.conclusions))
    return out


def test_canonical_invariance_under_shuffle(oracle_corpus):
    for seed, n in enumerate(oracle_corpus):
        shuffled = shuffle_net(n, seed)
        assert canonical_form(n) == canonical_form(shuffled), seed
        assert save(n) == save(shuffled), seed


def test_save_bytes_ignore_document_order(oracle_corpus):
    for seed, n in enumerate(oracle_corpus):
        doc = json.loads(save(n))
        doc["links"].reverse()
        doc["edges"].reverse()
        again = load(json.dumps(doc))
        assert save(again) == save(n), seed
        assert canonical_form(again) == canonical_form(n), seed


def test_canonical_form_agrees_with_isomorphism_oracle(oracle_corpus):
    outcomes = {True: 0, False: 0}
    certified = {True: 0, False: 0}
    disagreements = []
    for seed, n in enumerate(oracle_corpus):
        pairs = [(n, m) for m in premise_swaps(n, random.Random(seed), 3)]
        pairs.append((n, shuffle_net(n, seed)))
        if seed % 10 == 0:
            # alike but for the label of a weakening, which nothing else fixes
            pairs.append(tuple(builder.whynot_rule(n, [], weakening_of=a) for a in (X, Y)))
        if seed:
            pairs.append((oracle_corpus[seed - 1], n))
        for a, b in pairs:
            iso = isomorphic(a, b)
            outcomes[iso] += 1
            walked = _walk_isomorphic(a, b)
            certified[iso] += walked
            agree = (canonical_form(a) == canonical_form(b)) == (save(a) == save(b)) == nets_equal(a, b) == iso
            if not agree or walked and not iso:
                disagreements.append(seed)
    assert disagreements == []
    assert outcomes[True] >= 1020 and outcomes[False] >= 1000
    # the walk proves 954 of the 1,050 isomorphic pairs by itself (905
    # while it paired a why-not's premises in stored order before their
    # producers were paired); it fails on nets with a closed component,
    # which no walk from the conclusions reaches, and where it must guess
    # a why-not's premises and guesses wrong
    assert certified[True] >= 950 and certified[False] == 0


def paired_whynots(k: int) -> Net:
    """?X^ @ ?X over k axioms, each with one side under each why-not: k
    identical premises on each why-not, permuted together by k! automorphisms."""
    n = builder.ax(X)
    for _ in range(k - 1):
        n = builder.mix(n, builder.ax(X))
    for i in range(2 * k):
        n = builder.flat_rule(n, i)
    n = builder.whynot_rule(n, list(range(0, 2 * k, 2)))
    n = builder.whynot_rule(n, list(range(1, k + 1)))
    return builder.par_rule(n, 0, 1)


def closed_islands(k: int) -> Net:
    """An axiom beside k identical closed one-cut-bot components."""
    island = builder.cut_rule(builder.one_rule(), 0, builder.bottom_rule(builder.daimon()), 0)
    n = builder.ax(X)
    for _ in range(k):
        n = builder.mix(n, island)
    return n


@pytest.mark.parametrize("k", [8, 64])
@pytest.mark.parametrize("make", [paired_whynots, closed_islands])
def test_canonical_form_of_symmetric_nets(make, k):
    n = make(k)
    start = time.perf_counter()
    form = canonical_form(n)
    assert time.perf_counter() - start < 1.0
    for seed in range(5):
        assert canonical_form(shuffle_net(n, seed)) == form
        assert nets_equal(shuffle_net(n, seed), n)
    assert not nets_equal(n, make(k - 1))


def test_canonical_form_sees_box_membership():
    """The same links, with a closed one-cut-bot island outside both boxes
    or inside one of them: three nets that only their boxes tell apart."""
    island = builder.cut_rule(builder.one_rule(), 0, builder.bottom_rule(builder.daimon()), 0)

    def bang(a, inside):
        n = builder.flat_rule(builder.ax(a), 0)
        if inside:
            n = builder.mix(n, island)
        return builder.whynot_rule(builder.promotion(n, 1), [0])

    nets = [
        builder.mix(builder.mix(bang(X, False), bang(Y, False)), island),
        builder.mix(bang(X, True), bang(Y, False)),
        builder.mix(bang(X, False), bang(Y, True)),
    ]
    for i, a in enumerate(nets):
        assert validate(a).ok()
        for b in nets[i + 1 :]:
            assert not isomorphic(a, b)
            assert not nets_equal(a, b)
        assert save(load(save(shuffle_net(a, i)))) == save(a)


def test_canonical_distinguishes_tensor_premise_order():
    left = builder.tensor_rule(builder.ax(X), 1, builder.ax(Y), 1)
    right_swapped = builder.tensor_rule(builder.ax(Y), 1, builder.ax(X), 1)
    assert not nets_equal(left, right_swapped)


def test_canonical_ignores_whynot_premise_order():
    a = builder.mix(builder.flat_rule(builder.ax(X), 0), builder.flat_rule(builder.ax(X), 0))
    wn = builder.whynot_rule(a, [0, 2])
    links = dict(wn.links)
    wid = next(l for l, lk in links.items() if lk.kind == "whynot")
    lk = links[wid]
    links[wid] = Link("whynot", (lk.premises[1], lk.premises[0]), lk.conclusions)
    flipped = Net(wn.edges, links, wn.boxes, wn.conclusions)
    assert nets_equal(wn, flipped)


def test_canonical_conclusion_order_matters():
    a = builder.mix(builder.one_rule(), builder.bottom_rule(builder.daimon()))
    b = builder.mix(builder.bottom_rule(builder.daimon()), builder.one_rule())
    assert not nets_equal(a, b)


def test_save_load_roundtrip_corpus():
    for seed in range(30):
        n = builder.random_net(seed, builder.GenParams(target_size=12, cut_bias=0.25))
        again = load(save(n))
        assert nets_equal(n, again)
        assert save(n) == save(again)


def test_save_pretty_loads():
    n = builder.random_net(3, builder.GenParams(target_size=10))
    assert nets_equal(load(save(n, pretty=True)), n)


# Box-heavy mixes with cuts; most nets have more than 10 links, so the
# string order of ids ("l10" before "l2") shows in the saved boxes.
TRANSFORM_PARAMS = [
    builder.GenParams(target_size=14, box_bias=0.8, exponential_bias=0.6, paragraph_bias=0.2, cut_bias=0.3),
    builder.GenParams(target_size=30, box_bias=0.6, exponential_bias=0.5, paragraph_bias=0.1, cut_bias=0.4),
]


def test_save_bytes_of_transformed_nets_are_pinned():
    digest = hashlib.sha256()
    for params in TRANSFORM_PARAMS:
        for seed in range(25):
            n = builder.random_net(seed, params)
            normal = normalize(n)[0]
            for m in (n, shuffle_net(n, seed), shift_net(n), normal, bullet_net(eta_expand(normal))):
                digest.update(save(m))
                digest.update(save(m, pretty=True))
    assert digest.hexdigest() == "ae078f2bb972dd6b351ca8001fe3c39a631e877675e29e572708658a939c407c"


def test_load_minimal_axiom_document():
    doc = {
        "edges": [{"id": "a", "label": "X^"}, {"id": "b", "label": "X"}],
        "links": [{"id": "l", "kind": "ax", "premises": [], "conclusions": ["a", "b"]}],
        "boxes": [],
        "conclusions": ["a", "b"],
    }
    n = load(json.dumps(doc))
    assert len(n.links) == 1 and len(n.edges) == 2


def test_load_rejects_flat_conclusion():
    doc = {
        "edges": [{"id": "a", "label": "X^"}, {"id": "b", "label": "%X"}],
        "links": [
            {"id": "l", "kind": "ax", "premises": [], "conclusions": ["a", "b2"]},
        ],
        "boxes": [],
        "conclusions": ["a", "b"],
    }
    # Proper flat conclusion: a flat link over an axiom side.
    doc = {
        "edges": [
            {"id": "a", "label": "X^"},
            {"id": "b", "label": "X"},
            {"id": "f", "label": "%X^"},
        ],
        "links": [
            {"id": "l", "kind": "ax", "premises": [], "conclusions": ["a", "b"]},
            {"id": "fl", "kind": "flat", "premises": ["a"], "conclusions": ["f"]},
        ],
        "boxes": [],
        "conclusions": ["f", "b"],
    }
    with pytest.raises(NetFormatError):
        load(json.dumps(doc))
    n = load(json.dumps(doc), allow_flat_conclusions=True)
    assert n.has_flat_conclusion()


def test_load_rejects_malformed_json():
    with pytest.raises(NetFormatError) as exc:
        load(b"{ not json")
    assert "line" in str(exc.value)


def test_load_rejects_invalid_net():
    doc = {
        "edges": [{"id": "a", "label": "X"}],
        "links": [{"id": "l", "kind": "one", "premises": [], "conclusions": ["a"]}],
        "boxes": [],
        "conclusions": ["a"],
    }
    with pytest.raises(InvalidNetError):
        load(json.dumps(doc))


def test_tensor_loop_is_valid_net():
    bad = tensor_loop_net()
    assert validate(bad).ok()


def test_flat_wrapper_never_nests():
    from stratnet.net import parse_label

    lab = parse_label("%(X * Y)")
    assert lab.flat and str(lab) == "%(X * Y)"
    with pytest.raises(Exception):
        parse_label("%%X")


def test_labels_are_interned():
    lab = Label(Paragraph(Atom("X", True)), flat=True)
    assert parse_label(" %#X^") is lab is Label(parse_formula("#X^"), True)
    assert Label(dual(Paragraph(X)), 1) is lab and Label(lab.formula) is not lab
    assert str(lab) == "%#X^" and repr(lab) == "<%#X^>"
    assert copy.deepcopy(lab) is lab and pickle.loads(pickle.dumps(lab)) is lab
    n = load(save(builder.ax(Paragraph(X))))
    assert [n.edges[e] for e in n.conclusions] == [Label(Paragraph(dual(X))), Label(Paragraph(X))]
    for other in (copy.deepcopy(n), pickle.loads(pickle.dumps(n))):
        assert all(other.edges[e] is label for e, label in n.edges.items())
    with pytest.raises(AttributeError):
        lab.flat = False


@pytest.mark.parametrize("bad", [["X^"], {"X^": 1}, 5, None, "(X *", "!" * 5000 + "X"], ids=repr)
def test_malformed_label_after_repeated_texts_keeps_its_error(bad):
    # Label texts are parsed once per document; a malformed one still fails
    # with parse_label's own message, wherever it comes.
    doc = json.loads(save(builder.tensor_rule(builder.ax(X), 1, builder.ax(X), 1)))
    doc["edges"].insert(2, {"id": "x", "label": bad})
    with pytest.raises(NetFormatError) as direct:
        parse_label(bad)
    with pytest.raises(NetFormatError) as loaded:
        load(json.dumps(doc))
    assert str(loaded.value) == str(direct.value)


def test_labels_derived_from_links_keep_the_depth_limit():
    # no label of the chain need be parsed to type it, yet the one nested
    # 201 deep is refused as the parser refuses it
    with pytest.raises(NetFormatError) as exc:
        load(json.dumps(paragraph_chain(210)))
    assert str(exc.value) == f"bad edge label '{'#' * 37}...': formula nested deeper than 200 (at position 201)"
    chain = load(json.dumps(paragraph_chain(200)))
    assert str(chain.edges["p200"]) == "#" * 200 + "X"
