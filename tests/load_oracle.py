"""The loader and validator as they were before ``load`` derived labels
from their links: every label text parsed, then the whole net validated.
Kept as the oracle that ``load`` and ``validate`` must agree with, byte for
byte, on every document."""

from __future__ import annotations

from collections import Counter

from stratnet.formula import Bottom, One, OfCourse, Par, Paragraph, Tensor, WhyNot, dual
from stratnet.net import (
    LINK_ARITIES,
    Box,
    InvalidNetError,
    Label,
    Link,
    Net,
    NetFormatError,
    ValidationReport,
    Violation,
    _id,
    _ids,
    parse_label,
)


def _expected_labels_ok(net: Net, lid: str, link: Link, out: list[Violation]) -> None:
    def bad(msg: str) -> None:
        out.append(Violation("typing", lid, msg))

    prem = [net.edges[e] for e in link.premises]
    conc = [net.edges[e] for e in link.conclusions]
    kind = link.kind
    if kind == "ax":
        a, b = conc
        if a.flat or b.flat:
            bad("axiom conclusions cannot be flat-labelled")
        elif dual(a.formula) != b.formula:
            bad(f"axiom conclusions are not dual: {a}, {b}")
    elif kind == "cut":
        a, b = prem
        if a.flat or b.flat:
            bad("cut premises cannot be flat-labelled")
        elif dual(a.formula) != b.formula:
            bad(f"cut premises are not dual: {a}, {b}")
    elif kind == "one":
        if conc[0] != Label(One()):
            bad(f"one link must conclude 1, got {conc[0]}")
    elif kind == "bot":
        if conc[0] != Label(Bottom()):
            bad(f"bottom link must conclude bot, got {conc[0]}")
    elif kind in ("tensor", "par"):
        l, r = prem
        if l.flat or r.flat:
            bad("multiplicative premises cannot be flat-labelled")
            return
        want = Tensor(l.formula, r.formula) if kind == "tensor" else Par(l.formula, r.formula)
        if conc[0] != Label(want):
            bad(f"conclusion {conc[0]} does not match premises {l}, {r}")
    elif kind == "flat":
        if prem[0].flat:
            bad("flat premise is already flat-labelled")
        elif conc[0] != Label(prem[0].formula, flat=True):
            bad(f"flat conclusion {conc[0]} does not wrap premise {prem[0]}")
    elif kind == "pax":
        if not prem[0].flat:
            bad("pax premise must be flat-labelled")
        elif conc[0] != prem[0]:
            bad(f"pax must preserve its label, got {prem[0]} -> {conc[0]}")
    elif kind == "whynot":
        if not isinstance(conc[0].formula, WhyNot) or conc[0].flat:
            bad(f"why-not conclusion must be a ?-formula, got {conc[0]}")
            return
        body = conc[0].formula.body
        for p in prem:
            if p != Label(body, flat=True):
                bad(f"why-not premise {p} does not match conclusion {conc[0]}")
    elif kind == "ofcourse":
        if prem[0].flat:
            bad("of-course premise cannot be flat-labelled")
        elif conc[0] != Label(OfCourse(prem[0].formula)):
            bad(f"of-course conclusion {conc[0]} does not match premise {prem[0]}")
    elif kind == "paragraph":
        if prem[0].flat:
            bad("paragraph premise cannot be flat-labelled")
        elif conc[0] != Label(Paragraph(prem[0].formula)):
            bad(f"paragraph conclusion {conc[0]} does not match premise {prem[0]}")


def validate(net: Net) -> ValidationReport:
    """Structural validation of the net conditions.  Violations are data;
    an empty report means every condition holds.  Flat-labelled net
    conclusions are legal here (rule intermediates need them) and are
    rejected separately by the correctness predicates and the file loader."""
    out: list[Violation] = []

    for lid, link in net.links.items():
        shape = LINK_ARITIES.get(link.kind)
        if shape is None:
            out.append(Violation("kind", lid, f"unknown link kind {link.kind!r}"))
            continue
        arity, coarity = shape
        if arity is not None and len(link.premises) != arity:
            out.append(
                Violation("arity", lid, f"{link.kind} expects {arity} premises, has {len(link.premises)}")
            )
        if len(link.conclusions) != coarity:
            out.append(
                Violation("arity", lid, f"{link.kind} expects {coarity} conclusions, has {len(link.conclusions)}")
            )
        for e in link.premises + link.conclusions:
            if e not in net.edges:
                out.append(Violation("edge", lid, f"references unknown edge {e!r}"))

    if any(v.code in ("kind", "arity", "edge") for v in out):
        return ValidationReport(tuple(out))

    producers: dict[str, list[str]] = {e: [] for e in net.edges}
    consumers: dict[str, list[str]] = {e: [] for e in net.edges}
    for lid, link in net.links.items():
        for e in link.conclusions:
            producers[e].append(lid)
        for e in link.premises:
            consumers[e].append(lid)
    for e in net.edges:
        if len(producers[e]) != 1:
            out.append(Violation("producer", e, f"edge is conclusion of {len(producers[e])} links, expected 1"))
        if len(consumers[e]) > 1:
            out.append(Violation("consumer", e, "edge is premise of more than one link"))

    declared = set(net.conclusions)
    pending = {e for e in net.edges if not consumers[e]}
    if declared != pending:
        for e in sorted(pending - declared):
            out.append(Violation("conclusions", e, "pending edge not declared as a conclusion"))
        for e in sorted(declared - pending):
            out.append(Violation("conclusions", e, "declared conclusion has a consumer or is unknown"))
    if len(net.conclusions) != len(declared):
        out.append(Violation("conclusions", "-", "duplicate edge in conclusions list"))

    for lid, link in net.links.items():
        _expected_labels_ok(net, lid, link, out)

    # Flat-labelled edges may only feed pax or why-not links.
    for e, lab in net.edges.items():
        if lab.flat and consumers.get(e):
            kind = net.links[consumers[e][0]].kind
            if kind not in ("pax", "whynot"):
                out.append(Violation("flat-wire", e, f"flat-labelled edge feeds a {kind} link"))

    # Box conditions: principal/pax bookkeeping, laminarity, and closure.
    seen_principals: dict[str, str] = {}
    seen_pax: dict[str, str] = {}
    all_boxes = list(net.all_boxes())
    for i, box in enumerate(all_boxes):
        tag = f"box#{i}"
        if box.principal not in net.links or net.links[box.principal].kind != "ofcourse":
            out.append(Violation("box", tag, "principal is not an of-course link"))
            continue
        if box.principal in seen_principals:
            out.append(Violation("box", tag, "of-course link is principal of two boxes"))
        seen_principals[box.principal] = tag
        for a in box.auxiliaries:
            if a not in net.links or net.links[a].kind != "pax":
                out.append(Violation("box", tag, f"auxiliary {a} is not a pax link"))
            elif a in seen_pax:
                out.append(Violation("box", tag, f"pax {a} is in the border of two boxes"))
            else:
                seen_pax[a] = tag
        for lid in sorted(box.contents):
            if lid not in net.links:
                out.append(Violation("box", tag, f"contents reference unknown link {lid}"))
        border = set(box.border())
        if border & box.contents:
            out.append(Violation("box", tag, "border links may not be listed in contents"))
        for child in box.children:
            if not (set(child.border()) | child.contents) <= box.contents:
                out.append(Violation("box", tag, "child box is not contained in parent"))
    for lid, link in net.links.items():
        if link.kind == "ofcourse" and lid not in seen_principals:
            out.append(Violation("box", lid, "of-course link is not the principal of any box"))
        if link.kind == "pax" and lid not in seen_pax:
            out.append(Violation("box", lid, "pax link is not in the border of any box"))

    # Disjoint-or-nested, including across different roots.
    sets = [(set(b.border()) | b.contents, i) for i, b in enumerate(all_boxes)]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            a, b = sets[i][0], sets[j][0]
            if a & b and not (a <= b or b <= a):
                out.append(Violation("box", f"box#{sets[i][1]}/box#{sets[j][1]}", "boxes overlap without nesting"))

    # The contents of a box, with the border premises as conclusions, must
    # form a self-contained subnet: no edge may cross the border sideways.
    for i, box in enumerate(all_boxes):
        inside = box.contents
        border = set(box.border())
        prem_edges = set()
        for lid in box.border():
            if lid in net.links:
                prem_edges.update(net.links[lid].premises)
        for lid in sorted(inside):
            link = net.links.get(lid)
            if link is None:
                continue
            for e in link.conclusions:
                cons = consumers.get(e, [])
                if e in prem_edges:
                    continue
                if not cons:
                    out.append(Violation("box", f"box#{i}", f"edge {e} escapes the box as a pending conclusion"))
                elif cons[0] not in inside:
                    out.append(Violation("box", f"box#{i}", f"edge {e} crosses the border to {cons[0]}"))
            for e in link.premises:
                if e in producers and producers[e] and producers[e][0] not in inside:
                    out.append(Violation("box", f"box#{i}", f"premise {e} is produced outside the box"))
        for lid in sorted(border):
            link = net.links.get(lid)
            if link is None:
                continue
            for e in link.premises:
                if e in producers and producers[e] and producers[e][0] not in inside:
                    out.append(Violation("box", f"box#{i}", f"border premise {e} does not come from inside"))

    return ValidationReport(tuple(out))


def from_document(doc: dict, allow_flat_conclusions: bool = False) -> Net:
    texts: dict[str, Label] = {}  # each distinct label text is parsed once

    def label(text) -> Label:
        found = texts.get(text) if type(text) is str else None
        return found or texts.setdefault(text, parse_label(text))

    try:
        edges = {_id(e["id"], "an edge id"): label(e["label"]) for e in doc["edges"]}
        links = {
            _id(l["id"], "a link id"): Link(
                _id(l["kind"], "a link kind"),
                _ids(l["premises"], "link premises"),
                _ids(l["conclusions"], "link conclusions"),
            )
            for l in doc["links"]
        }
        for table, listed, what in ((edges, doc["edges"], "edge"), (links, doc["links"], "link")):
            if len(table) < len(listed):
                repeated = Counter(x["id"] for x in listed).most_common(1)[0][0]
                raise NetFormatError(f"{what} id {repeated!r} is repeated")

        def parse_box(b: dict) -> Box:
            if type(b) is not dict:
                raise NetFormatError(f"a box must be an object, not {type(b).__name__}")
            children = tuple(parse_box(ch) for ch in b.get("boxes", []))
            contents = set(_ids(b.get("contents", []), "box contents"))
            for ch in children:
                contents |= set(ch.border()) | ch.contents
            return Box(
                _id(b["principal"], "a box principal"),
                _ids(b.get("auxiliaries", []), "box auxiliaries"),
                frozenset(contents),
                children,
            )

        boxes = tuple(parse_box(b) for b in doc.get("boxes", []))
        conclusions = _ids(doc.get("conclusions", []), "net conclusions")
    except (KeyError, TypeError) as exc:
        raise NetFormatError(f"malformed net document: {exc}") from exc
    net = Net(edges, links, boxes, conclusions)
    report = validate(net)
    if not report.ok():
        raise InvalidNetError(report)
    if not allow_flat_conclusions and net.has_flat_conclusion():
        bad = [e for e in net.conclusions if net.edges[e].flat]
        raise NetFormatError(f"net conclusions carry flat labels: {', '.join(bad)}")
    return net
