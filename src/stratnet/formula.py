"""Formula language: multiplicative-exponential connectives plus the
self-dual stratification modality, with duality pushed down to atoms.

The ASCII grammar is::

    F ::= ident | ident^ | 1 | bot | (F * F) | (F @ F) | !F | ?F | #F

where ``*`` is tensor, ``@`` is par, ``#`` is the paragraph modality and
``^`` marks a dualized atom.  ``%F`` denotes the flat wrapper and is only
legal as an edge label, never inside a formula.
"""

from __future__ import annotations

from dataclasses import dataclass


class Formula:
    """Base class; all concrete formulas are immutable and hashable."""

    __slots__ = ()

    def __str__(self) -> str:
        return print_formula(self)

    def __repr__(self) -> str:
        return f"<{print_formula(self)}>"


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    name: str
    dual: bool = False


@dataclass(frozen=True, slots=True)
class One(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Tensor(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Par(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class OfCourse(Formula):
    body: Formula


@dataclass(frozen=True, slots=True)
class WhyNot(Formula):
    body: Formula


@dataclass(frozen=True, slots=True)
class Paragraph(Formula):
    body: Formula


ONE = One()
BOTTOM = Bottom()

# The fixed atom used by the atomic doubling substitution.
RESERVED_ATOM = "X"


def dual(a: Formula) -> Formula:
    """De Morgan dual.  Atoms flip their polarity, the paragraph modality
    is self-dual, everything else swaps with its partner connective."""
    match a:
        case Atom(name, d):
            return Atom(name, not d)
        case One():
            return BOTTOM
        case Bottom():
            return ONE
        case Tensor(l, r):
            return Par(dual(l), dual(r))
        case Par(l, r):
            return Tensor(dual(l), dual(r))
        case OfCourse(b):
            return WhyNot(dual(b))
        case WhyNot(b):
            return OfCourse(dual(b))
        case Paragraph(b):
            return Paragraph(dual(b))
    raise TypeError(f"not a formula: {a!r}")


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
    X^@X^, for the one reserved atom name X."""
    match a:
        case Atom(_, False):
            return Tensor(Atom(RESERVED_ATOM), Atom(RESERVED_ATOM))
        case Atom(_, True):
            return Par(Atom(RESERVED_ATOM, True), Atom(RESERVED_ATOM, True))
        case One() | Bottom():
            return a
        case Tensor(l, r):
            return Tensor(bullet_formula(l), bullet_formula(r))
        case Par(l, r):
            return Par(bullet_formula(l), bullet_formula(r))
        case OfCourse(b):
            return OfCourse(bullet_formula(b))
        case WhyNot(b):
            return WhyNot(bullet_formula(b))
        case Paragraph(b):
            return Paragraph(bullet_formula(b))
    raise TypeError(f"not a formula: {a!r}")


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
    match a:
        case Atom(name, d):
            return name + ("^" if d else "")
        case One():
            return "1"
        case Bottom():
            return "bot"
        case Tensor(l, r):
            return f"({print_formula(l)} * {print_formula(r)})"
        case Par(l, r):
            return f"({print_formula(l)} @ {print_formula(r)})"
        case OfCourse(b):
            return "!" + print_formula(b)
        case WhyNot(b):
            return "?" + print_formula(b)
        case Paragraph(b):
            return "#" + print_formula(b)
    raise TypeError(f"not a formula: {a!r}")


class FormulaSyntaxError(ValueError):
    """Raised on malformed input; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Deepest formula nesting the parser accepts.  Formula functions recurse
# once per connective, so this keeps every later pass well inside Python's
# recursion limit.
MAX_FORMULA_DEPTH = 200


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> FormulaSyntaxError:
        return FormulaSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def formula(self, depth: int = 0) -> Formula:
        if depth > MAX_FORMULA_DEPTH:
            raise self.error(f"formula nested deeper than {MAX_FORMULA_DEPTH}")
        c = self.peek()
        if c == "":
            raise self.error("unexpected end of input")
        if c == "(":
            self.pos += 1
            left = self.formula(depth + 1)
            op = self.peek()
            if op not in ("*", "@"):
                raise self.error("expected '*' or '@'")
            self.pos += 1
            right = self.formula(depth + 1)
            self.expect(")")
            return Tensor(left, right) if op == "*" else Par(left, right)
        if c == "!":
            self.pos += 1
            return OfCourse(self.formula(depth + 1))
        if c == "?":
            self.pos += 1
            return WhyNot(self.formula(depth + 1))
        if c == "#":
            self.pos += 1
            return Paragraph(self.formula(depth + 1))
        if c == "1":
            self.pos += 1
            return ONE
        if c.isalpha() or c == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start : self.pos]
            if name == "bot":
                return BOTTOM
            if self.pos < len(self.text) and self.text[self.pos] == "^":
                self.pos += 1
                return Atom(name, True)
            return Atom(name)
        raise self.error(f"unexpected character {c!r}")


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("trailing input")
    return f


__all__ = [
    "Formula",
    "Atom",
    "One",
    "Bottom",
    "Tensor",
    "Par",
    "OfCourse",
    "WhyNot",
    "Paragraph",
    "ONE",
    "BOTTOM",
    "RESERVED_ATOM",
    "dual",
    "shift_formula",
    "bullet_formula",
    "modal_depth",
    "print_formula",
    "parse_formula",
    "FormulaSyntaxError",
    "MAX_FORMULA_DEPTH",
]
