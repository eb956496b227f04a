"""``load`` against the loader that parses every label and then validates
(``load_oracle``): the same saved bytes, or the same error, on seeded
documents and on mutants of them."""

import contextlib
import copy
import io
import json
import os
import random
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

from stratnet import builder, cli, net as net_mod
from stratnet.builder import GenParams
from stratnet.formula import Par, Tensor, print_formula
from stratnet.net import Net, from_document, parse_label, save, validate

import load_oracle
from conftest import shuffle_net

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import CheckDR  # noqa: E402

MIXES = (
    GenParams(target_size=30),
    GenParams(target_size=40, cut_bias=0.4, box_bias=0.7, exponential_bias=0.6, paragraph_bias=0.3),
    GenParams(target_size=24, cut_bias=0.2, box_bias=0.8, exponential_bias=0.7, paragraph_bias=0.4),
)


def raw_document(net: Net) -> dict:
    """The net's document with its own ids, in its own order."""

    def box(b):
        return {
            "principal": b.principal,
            "auxiliaries": list(b.auxiliaries),
            "contents": sorted(b.contents),
            "boxes": [box(c) for c in b.children],
        }

    return {
        "edges": [{"id": e, "label": str(lab)} for e, lab in net.edges.items()],
        "links": [
            {"id": lid, "kind": lk.kind, "premises": list(lk.premises), "conclusions": list(lk.conclusions)}
            for lid, lk in net.links.items()
        ],
        "boxes": [box(b) for b in net.boxes],
        "conclusions": list(net.conclusions),
    }


def documents() -> list[dict]:
    """Seeded nets of three mixes, two of them box-heavy with cuts, with
    shuffled ids and order; every third has a flat conclusion."""
    docs = []
    for seed in range(90):
        net = builder.random_net(seed, MIXES[seed % len(MIXES)])
        if seed % 3 == 2 and net.conclusions:
            net = builder.flat_rule(net, 0)
        docs.append(raw_document(shuffle_net(net, seed)))
    return docs


def edges_of(doc, kinds, where):
    """Edge entries at the premises or conclusions of links of these kinds."""
    ids = {e for link in doc["links"] if link["kind"] in kinds for e in link[where]}
    return [e for e in doc["edges"] if e["id"] in ids]


def relabel(doc, rng, entries, change):
    entries = [e for e in entries if change(e["label"]) is not None]
    if not entries:
        return None
    entry = rng.choice(entries)
    entry["label"] = change(entry["label"])
    return doc


def other_connective(text):
    f = parse_label(text).formula
    if isinstance(f, (Tensor, Par)):
        return print_formula((Par if isinstance(f, Tensor) else Tensor)(f.left, f.right))
    return None


def swap_tensor_premises(doc, rng):
    links = [link for link in doc["links"] if link["kind"] == "tensor"]
    if not links:
        return None
    rng.choice(links)["premises"].reverse()
    return doc


def unknown_box_id(doc, rng):
    boxes = doc["boxes"]
    if not boxes:
        return None
    rng.choice(boxes)[rng.choice(["contents", "auxiliaries", "principal"])] = (
        "nowhere" if rng.random() < 0.3 else ["nowhere"]
    )
    return doc


def repeat_id(doc, rng):
    field = rng.choice(["edges", "links"])
    doc[field].insert(rng.randrange(len(doc[field]) + 1), dict(rng.choice(doc[field])))
    return doc


def premise_cycle(doc, rng):
    """Close a chain of two one-premise links into a cycle; every edge keeps
    one producer and one consumer or its place among the conclusions."""
    unary = [link for link in doc["links"] if len(link["premises"]) == 1 == len(link["conclusions"])]
    consumer = {e: link for link in doc["links"] for e in link["premises"]}
    chains = [(a, consumer[a["conclusions"][0]]) for a in unary if consumer.get(a["conclusions"][0]) in unary]
    if not chains:
        return None
    first, second = rng.choice(chains)
    start, end = first["premises"][0], second["conclusions"][0]
    for link in doc["links"]:
        link["premises"] = [start if e == end else e for e in link["premises"]]
    doc["conclusions"] = [start if e == end else e for e in doc["conclusions"]]
    first["premises"] = [end]
    return doc


def overlapping_boxes(doc, rng):
    """Add a link of one box to the contents of a sibling box: the two
    then overlap without nesting."""
    siblings, todo = [], [doc["boxes"]]
    while todo:
        boxes = todo.pop()
        if len(boxes) > 1:
            siblings.append(boxes)
        todo += [b["boxes"] for b in boxes]
    if not siblings:
        return None
    a, b = rng.sample(rng.choice(siblings), 2)
    b["contents"].append(rng.choice([a["principal"], *a["auxiliaries"], *a["contents"]]))
    return doc


MUTANTS = {
    "spacing": lambda doc, rng: relabel(doc, rng, doc["edges"], lambda t: rng.choice([" ", "\t"]) + t.replace(" * ", "*", 1)),
    "swapped-tensor-premises": swap_tensor_premises,
    "wrong-connective": lambda doc, rng: relabel(doc, rng, doc["edges"], other_connective),
    "flat-toggled": lambda doc, rng: relabel(doc, rng, doc["edges"], lambda t: t[1:] if t[0] == "%" else "%" + t),
    "flat-feeds-tensor": lambda doc, rng: relabel(
        doc, rng, edges_of(doc, ("tensor",), "premises"), lambda t: None if t[0] == "%" else "%" + t
    ),
    "non-string-label": lambda doc, rng: relabel(doc, rng, doc["edges"], lambda t: rng.choice([5, None, [t], {t: 1}])),
    "unknown-box-id": unknown_box_id,
    "repeated-id": repeat_id,
    "flat-conclusion": lambda doc, rng: relabel(
        doc, rng, [e for e in doc["edges"] if e["id"] in doc["conclusions"]], lambda t: "%" + t if t[0] != "%" else None
    ),
    "premise-cycle": premise_cycle,
    "overlapping-boxes": overlapping_boxes,
}


def outcome(loader, doc, allow_flat):
    try:
        return "net", save(loader(copy.deepcopy(doc), allow_flat_conclusions=allow_flat))
    except Exception as exc:  # the type and the message must agree
        return type(exc).__name__, str(exc)


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20)
    cases = []
    for i, doc in enumerate(documents()):
        cases.append((f"{i}", doc))
        cases.append((f"{i}-canonical", json.loads(save(from_document(doc, allow_flat_conclusions=True)))))
        for name, mutate in MUTANTS.items():
            mutant = mutate(copy.deepcopy(doc), rng)
            if mutant is not None:
                cases.append((f"{i}-{name}", mutant))
    return cases


def test_load_agrees_with_the_oracle(corpus):
    kinds = Counter()
    for name, doc in corpus:
        for allow_flat in (False, True):
            got = outcome(from_document, doc, allow_flat)
            assert got == outcome(load_oracle.from_document, doc, allow_flat), name
            kinds[got[0]] += 1
    # every way out is taken, most of them by many documents
    assert kinds["net"] > 400 and kinds["InvalidNetError"] > 800 and kinds["NetFormatError"] > 400, kinds


def test_validate_agrees_with_the_oracle(corpus):
    reports = 0
    for name, doc in corpus:
        try:
            net = Net(*net_mod._read(doc, parse_label))
        except net_mod.NetFormatError:
            continue
        assert str(validate(net)) == str(load_oracle.validate(net)), name
        reports += not validate(net).ok()
    assert reports > 250, reports


def test_unmutated_documents_are_typed_from_their_links(corpus, monkeypatch):
    # each label but an axiom's first conclusion and a weakening's is
    # derived, and nothing is validated afterwards
    calls = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(net_mod, name, call)

    counted("validate", net_mod.validate)
    counted("parse_label", net_mod.parse_label)
    docs = [doc for name, doc in corpus if name.isdigit() or name.endswith("-canonical")]
    for doc in docs:
        from_document(doc, allow_flat_conclusions=True)
    leaves = sum(link["kind"] in ("ax", "whynot") and not link["premises"] for doc in docs for link in doc["links"])
    assert calls["validate"] == 0 and 0 < calls["parse_label"] <= leaves


def test_check_dr_pass_parses_few_labels_and_validates_nothing(tmp_path, monkeypatch):
    # one pass of the benchmark's seed-201 check-dr corpus: parsing every
    # distinct label of each document took 16,700 parse_label calls
    slots = CheckDR().generate(201, tmp_path)
    calls = Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    counted(net_mod, "validate")
    counted(net_mod, "parse_label")
    counted(weakref.KeyedRef, "__init__")
    monkeypatch.setitem(os.environ, "STRATNET_BUDGET", "16384")
    codes = Counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for slot in slots:
            codes[cli.main(["check", "--criterion", "dr", slot.path])] += 1
    assert len(slots) == 500 and codes[2] == 0, codes
    assert calls["parse_label"] <= 2000
    assert calls["validate"] == calls["__init__"] == 0
