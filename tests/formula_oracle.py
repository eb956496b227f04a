"""The formula passes as they were before they became one iterative fold:
``dual``, ``shift_formula``, ``bullet_formula``, ``modal_depth`` and
``print_formula`` from ``stratnet.formula`` and ``_nesting`` from
``stratnet.net``, each a recursive walk with one case per connective.
Kept as the oracle that the fold must agree with; they recurse once per
connective, so they serve shallow formulas only."""

from __future__ import annotations

from weakref import ref

from stratnet.formula import (
    BOTTOM,
    ONE,
    RESERVED_ATOM,
    Atom,
    Bottom,
    Formula,
    OfCourse,
    One,
    Par,
    Paragraph,
    Tensor,
    WhyNot,
)


def dual(a: Formula) -> Formula:
    """De Morgan dual.  Atoms flip their polarity, the paragraph modality
    is self-dual, everything else swaps with its partner connective; kept weakly."""
    kept = getattr(a, "_dual", None)
    d = kept and kept()
    if d is None:
        match a:
            case Atom(name, pol):
                d = Atom(name, not pol)
            case One():
                d = BOTTOM
            case Bottom():
                d = ONE
            case Tensor(l, r):
                d = Par(dual(l), dual(r))
            case Par(l, r):
                d = Tensor(dual(l), dual(r))
            case OfCourse(b):
                d = WhyNot(dual(b))
            case WhyNot(b):
                d = OfCourse(dual(b))
            case Paragraph(b):
                d = Paragraph(dual(b))
            case _:
                raise TypeError(f"not a formula: {a!r}")
        a._dual, d._dual = ref(d), ref(a)
    return d


def shift_formula(a: Formula) -> Formula:
    """Insert a paragraph modality directly under every exponential."""
    match a:
        case Atom() | One() | Bottom():
            return a
        case Tensor(l, r):
            return Tensor(shift_formula(l), shift_formula(r))
        case Par(l, r):
            return Par(shift_formula(l), shift_formula(r))
        case OfCourse(b):
            return OfCourse(Paragraph(shift_formula(b)))
        case WhyNot(b):
            return WhyNot(Paragraph(shift_formula(b)))
        case Paragraph(b):
            return Paragraph(shift_formula(b))
    raise TypeError(f"not a formula: {a!r}")


def bullet_formula(a: Formula) -> Formula:
    """Replace every positive atom with X*X and every dual atom with
    X^@X^, for the one reserved atom name X; kept weakly per node."""
    kept = getattr(a, "_bullet", None)
    b = kept and kept()
    if b is None:
        match a:
            case Atom(_, False):
                b = Tensor(Atom(RESERVED_ATOM), Atom(RESERVED_ATOM))
            case Atom(_, True):
                b = Par(Atom(RESERVED_ATOM, True), Atom(RESERVED_ATOM, True))
            case One() | Bottom():
                b = a
            case Tensor(l, r):
                b = Tensor(bullet_formula(l), bullet_formula(r))
            case Par(l, r):
                b = Par(bullet_formula(l), bullet_formula(r))
            case OfCourse(body):
                b = OfCourse(bullet_formula(body))
            case WhyNot(body):
                b = WhyNot(bullet_formula(body))
            case Paragraph(body):
                b = Paragraph(bullet_formula(body))
            case _:
                raise TypeError(f"not a formula: {a!r}")
        a._bullet = ref(b)
    return b


def modal_depth(a: Formula) -> int:
    """Maximum nesting of index-shifting modalities (!, ?, #) over any leaf."""
    match a:
        case Atom() | One() | Bottom():
            return 0
        case Tensor(l, r) | Par(l, r):
            return max(modal_depth(l), modal_depth(r))
        case OfCourse(b) | WhyNot(b) | Paragraph(b):
            return 1 + modal_depth(b)
    raise TypeError(f"not a formula: {a!r}")


def print_formula(a: Formula) -> str:
    """The formula's text in the grammar above; kept per node."""
    text = getattr(a, "_text", None)
    if text is None:
        match a:
            case Atom(name, d):
                text = name + ("^" if d else "")
            case One():
                text = "1"
            case Bottom():
                text = "bot"
            case Tensor(l, r):
                text = f"({print_formula(l)} * {print_formula(r)})"
            case Par(l, r):
                text = f"({print_formula(l)} @ {print_formula(r)})"
            case OfCourse(b):
                text = "!" + print_formula(b)
            case WhyNot(b):
                text = "?" + print_formula(b)
            case Paragraph(b):
                text = "#" + print_formula(b)
            case _:
                raise TypeError(f"not a formula: {a!r}")
        a._text = text
    return text


def _nesting(a: Formula) -> int:
    """How deep a formula nests, as the parser counts."""
    inner = [f for f in map(a.__getattribute__, a.__match_args__) if isinstance(f, Formula)]
    return 1 + max(map(_nesting, inner)) if inner else 0
