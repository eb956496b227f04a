"""Formula language: multiplicative-exponential connectives plus the
self-dual stratification modality, with duality pushed down to atoms.

The ASCII grammar is::

    F ::= ident | ident^ | 1 | bot | (F * F) | (F @ F) | !F | ?F | #F

where ``*`` is tensor, ``@`` is par, ``#`` is the paragraph modality and
``^`` marks a dualized atom.  ``%F`` denotes the flat wrapper and is only
legal as an edge label, never inside a formula.

Formulas are hash-consed: equal formulas are one node, so equality is
identity.  A node keeps its text, and weakly its dual and doubling image,
once made; the node table holds nodes weakly: no more than live nets use.
"""

from __future__ import annotations

from _weakref import _remove_dead_weakref
from weakref import ref

# Every live formula node and edge label, by class and fields, as a weak
# reference whose callback drops the entry unless a new node took it.  A node
# keeps its dual and doubling image weakly, so no node is in a reference cycle.
_TABLE: dict[tuple, ref] = {}
_GONE = ref(set())  # a dead reference: the default of a lookup that misses


class _Interned:
    """A hash-consed immutable value of the fields in ``__match_args__``."""

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()
    _fill: tuple = ()  # setters of the fields' slots

    def __init_subclass__(cls) -> None:
        cls._fill = tuple(getattr(cls, name).__set__ for name in cls.__match_args__)

    def __new__(cls, *fields):
        key = (cls,) + fields
        node = _TABLE.get(key, _GONE)()
        if node is None:
            made = object.__new__(cls)
            for fill, value in zip(cls._fill, fields):
                fill(made, value)
            kept = ref(made, lambda _: _remove_dead_weakref(_TABLE, key))
            # setdefault is atomic, so threads agree on one node per key; a
            # dead entry whose callback is still to come is replaced
            while (node := _TABLE.setdefault(key, kept)()) is None:
                _remove_dead_weakref(_TABLE, key)
        return node

    def __setattr__(self, name: str, value) -> None:
        if name in self.__match_args__:
            raise AttributeError(f"{type(self).__name__}.{name} cannot be changed")
        object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        return f"<{self}>"


class Formula(_Interned):
    __slots__ = ("_dual", "_bullet", "_text")

    def __str__(self) -> str:
        return print_formula(self)


class Atom(Formula):
    __slots__ = __match_args__ = ("name", "dual")

    def __new__(cls, name: str, dual: bool = False):
        return _Interned.__new__(cls, name, bool(dual))


class One(Formula):
    __slots__ = ()


class Bottom(Formula):
    __slots__ = ()


class Tensor(Formula):
    __slots__ = __match_args__ = ("left", "right")


class Par(Formula):
    __slots__ = __match_args__ = ("left", "right")


class OfCourse(Formula):
    __slots__ = __match_args__ = ("body",)


class WhyNot(Formula):
    __slots__ = __match_args__ = ("body",)


class Paragraph(Formula):
    __slots__ = __match_args__ = ("body",)


ONE = One()
BOTTOM = Bottom()

# The fixed atom used by the atomic doubling substitution.
RESERVED_ATOM = "X"


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
