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
Each pass over a formula is one fold, bottom up from an explicit stack over
its distinct nodes, so no pass recurses.  The parser does, once per level
and only to ``MAX_FORMULA_DEPTH``.
"""

from __future__ import annotations

from _weakref import _remove_dead_weakref
from operator import attrgetter
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

# A node's parts; its connective's partner under duality; and a connective's
# text from the texts of its parts.  The units are connectives with no parts.
_leaf, _pair, _body = (lambda x: ()), attrgetter("left", "right"), (lambda x: (x.body,))
_PARTS = {Atom: _leaf, One: _leaf, Bottom: _leaf, Tensor: _pair, Par: _pair, OfCourse: _body, WhyNot: _body, Paragraph: _body}
_DUAL = {One: Bottom, Bottom: One, Tensor: Par, Par: Tensor, OfCourse: WhyNot, WhyNot: OfCourse, Paragraph: Paragraph}
_TEMPLATE = {One: "1".format, Bottom: "bot".format, Tensor: "({} * {})".format, Par: "({} @ {})".format}
_TEMPLATE |= {OfCourse: "!{}".format, WhyNot: "?{}".format, Paragraph: "#{}".format}
_MODALITIES = frozenset({OfCourse, WhyNot, Paragraph})
_NONE_KEPT = {}.get  # for a pass whose results no node keeps


def _fold(a, known, make):
    """make(x, *results of x's parts) for a, bottom up from an explicit
    stack: each distinct node is made once, and a node whose result
    known(x) gives is not entered.  No result is a tuple: a node's entry
    holds its parts while they are made."""
    done = {}
    todo = [a]
    while todo:
        x = todo[-1]
        r = done.get(x)
        if r is None:
            r = known(x)
            if r is None:
                try:
                    parts = _PARTS[type(x)](x)
                except KeyError:
                    raise TypeError(f"not a formula: {x!r}") from None
                if parts:
                    done[x] = parts
                    todo += parts
                    continue
                r = make(x)
        elif type(r) is tuple:
            r = make(x, *map(done.__getitem__, r))
        todo.pop()
        done[x] = r
    return r


def _weakly_kept(name: str):
    """The result a node keeps weakly in the named slot, or None."""
    return lambda x: (kept := getattr(x, name, None)) and kept()


def _make_dual(x, *parts):
    d = Atom(x.name, not x.dual) if type(x) is Atom else _DUAL[type(x)](*parts)
    x._dual, d._dual = ref(d), ref(x)
    return d


def _make_bullet(x, *parts):
    b = (Par if x.dual else Tensor)(*[Atom(RESERVED_ATOM, x.dual)] * 2) if type(x) is Atom else type(x)(*parts)
    x._bullet = ref(b)
    return b


def _make_shift(x, *parts):
    if type(x) in (OfCourse, WhyNot):
        return type(x)(Paragraph(*parts))
    return x if type(x) is Atom else type(x)(*parts)


def _make_text(x, *parts):
    x._text = text = (x.name + ("^" if x.dual else "")) if type(x) is Atom else _TEMPLATE[type(x)](*parts)
    return text


def dual(a: Formula) -> Formula:
    """De Morgan dual.  Atoms flip their polarity, the paragraph modality
    is self-dual, everything else swaps with its partner connective; kept weakly."""
    kept = getattr(a, "_dual", None)
    return kept and kept() or _fold(a, _weakly_kept("_dual"), _make_dual)


def shift_formula(a: Formula) -> Formula:
    """Insert a paragraph modality directly under every exponential."""
    return _fold(a, _NONE_KEPT, _make_shift)


def bullet_formula(a: Formula) -> Formula:
    """Replace every positive atom with X*X and every dual atom with
    X^@X^, for the one reserved atom name X; kept weakly per node."""
    kept = getattr(a, "_bullet", None)
    return kept and kept() or _fold(a, _weakly_kept("_bullet"), _make_bullet)


def modal_depth(a: Formula) -> int:
    """Maximum nesting of index-shifting modalities (!, ?, #) over any leaf."""
    return _fold(a, _NONE_KEPT, lambda x, left=0, right=0: max(left, right) + (type(x) in _MODALITIES))


def _nesting(a: Formula) -> int:
    """How deep a formula nests, as the parser counts."""
    return _fold(a, _NONE_KEPT, lambda x, *inner: 1 + max(inner) if inner else 0)


def print_formula(a: Formula) -> str:
    """The formula's text in the grammar above; kept per node."""
    text = getattr(a, "_text", None)
    return _fold(a, lambda x: getattr(x, "_text", None), _make_text) if text is None else text


class FormulaSyntaxError(ValueError):
    """Raised on malformed input; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Deepest formula nesting the parser accepts, a rule on documents: the parser
# recurses once per level, and the texts that a formula's nodes keep grow in
# total length with the square of its depth.
MAX_FORMULA_DEPTH = 200
# The parser reads a modality by the prefix it is printed with.
_PREFIX = {_TEMPLATE[c](""): c for c in _MODALITIES}


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
        if c in _PREFIX:
            self.pos += 1
            return _PREFIX[c](self.formula(depth + 1))
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
