import copy
import gc
import pickle
import random
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, strategies as st

from stratnet.formula import (
    Atom,
    BOTTOM,
    FormulaSyntaxError,
    ONE,
    OfCourse,
    Par,
    Paragraph,
    Tensor,
    WhyNot,
    bullet_formula,
    dual,
    modal_depth,
    parse_formula,
    print_formula,
    shift_formula,
)
from stratnet.builder import random_formula
from stratnet.formula import _TABLE, Formula
from stratnet.net import Label, _nesting

import formula_oracle
from test_acceptance import BIAS_MIXES

atoms = st.builds(Atom, st.sampled_from(["X", "Y", "Z", "W"]), st.booleans())
formulas = st.recursive(
    atoms | st.just(ONE) | st.just(BOTTOM),
    lambda inner: st.builds(Tensor, inner, inner)
    | st.builds(Par, inner, inner)
    | st.builds(OfCourse, inner)
    | st.builds(WhyNot, inner)
    | st.builds(Paragraph, inner),
    max_leaves=12,
)


def test_dual_atoms():
    assert dual(Atom("X")) == Atom("X", True)
    assert dual(Atom("X", True)) == Atom("X")


def test_dual_paragraph_pushes_inward():
    a = Paragraph(Tensor(Atom("X"), Atom("Y")))
    assert dual(a) == Paragraph(Par(Atom("X", True), Atom("Y", True)))


def test_dual_units_and_exponentials():
    assert dual(ONE) == BOTTOM
    assert dual(OfCourse(Atom("X"))) == WhyNot(Atom("X", True))


@given(formulas)
def test_dual_involution(a):
    assert dual(dual(a)) == a


def test_shift_examples():
    assert shift_formula(parse_formula("(?X^ @ #X)")) == parse_formula("(?#X^ @ #X)")
    assert shift_formula(parse_formula("(X * Y)")) == parse_formula("(X * Y)")
    # both nesting depths get a paragraph
    assert shift_formula(parse_formula("!!X")) == parse_formula("!#!#X")


def test_shift_not_idempotent_on_exponentials():
    a = OfCourse(Atom("X"))
    once = shift_formula(a)
    assert shift_formula(once) != once
    b = Tensor(Atom("X"), Paragraph(Atom("Y")))
    assert shift_formula(shift_formula(b)) == shift_formula(b)


@given(formulas)
def test_shift_commutes_with_dual(a):
    assert dual(shift_formula(a)) == shift_formula(dual(a))


@given(formulas)
def test_bullet_commutes_with_dual(a):
    assert dual(bullet_formula(a)) == bullet_formula(dual(a))


def test_bullet_examples():
    assert bullet_formula(Atom("Z")) == parse_formula("(X * X)")
    assert bullet_formula(Atom("Z", True)) == parse_formula("(X^ @ X^)")
    assert bullet_formula(ONE) == ONE


def test_parse_examples():
    assert parse_formula("(X^ @ X)") == Par(Atom("X", True), Atom("X"))
    assert parse_formula("!#X") == OfCourse(Paragraph(Atom("X")))
    assert parse_formula("bot") == BOTTOM
    assert parse_formula(" ( 1 * bot ) ") == Tensor(ONE, BOTTOM)


def test_parse_errors_carry_position():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("(X *")
    assert exc.value.position == 4
    with pytest.raises(FormulaSyntaxError):
        parse_formula("X Y")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("")


@given(formulas)
def test_print_parse_roundtrip(a):
    assert parse_formula(print_formula(a)) == a


def test_roundtrip_thousand_random():
    from stratnet.builder import GenParams, random_formula

    rng = random.Random(20240817)
    for _ in range(1000):
        f = random_formula(rng, rng.randint(0, 8), GenParams())
        assert parse_formula(print_formula(f)) == f


def test_modal_depth():
    assert modal_depth(parse_formula("(X * Y)")) == 0
    assert modal_depth(parse_formula("!?X")) == 2
    assert modal_depth(parse_formula("(#X @ !!Y)")) == 2


# -- hash-consing -------------------------------------------------------------


def test_equal_formulas_built_by_different_routes_are_one_object():
    a = Tensor(OfCourse(Atom("X")), Paragraph(Par(Atom("Y", True), ONE)))
    assert parse_formula("(!X * #(Y^ @ 1))") is a
    assert parse_formula(" ( !X*#( Y^@1 ) ) ") is a
    assert dual(dual(a)) is a
    assert dual(a) is parse_formula("(?X^ @ #(Y * bot))")
    assert bullet_formula(a) is parse_formula("(!(X * X) * #((X^ @ X^) @ 1))")
    assert bullet_formula(Atom("Z", True)) is dual(bullet_formula(Atom("Z")))
    assert shift_formula(parse_formula("!X")) is OfCourse(Paragraph(Atom("X")))
    assert Atom("X", 0) is Atom("X") is Atom("X", dual=False)
    assert Atom("X") is not Atom("X", True) and Atom("X") != Atom("X", True)
    assert hash(a) == hash(parse_formula(str(a)))


@given(formulas)
def test_parse_print_and_double_dual_give_the_node_back(a):
    assert parse_formula(print_formula(a)) is a
    assert dual(dual(a)) is a
    assert bullet_formula(dual(a)) is dual(bullet_formula(a))


def test_copies_and_pickles_are_the_interned_node():
    a = parse_formula("(!X * #(Y^ @ 1))")
    dual(a)  # a node with its kept dual copies the same way
    for copied in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert copied is a
    assert copy.deepcopy([a, BOTTOM])[1] is BOTTOM


def test_formulas_cannot_be_changed():
    a = Tensor(Atom("X"), ONE)
    with pytest.raises(AttributeError):
        a.left = ONE
    with pytest.raises(AttributeError):
        Atom("X").name = "Y"
    assert a is Tensor(Atom("X"), ONE) and a.left is Atom("X")


def test_dead_formulas_leave_the_table():
    def entries(name):
        return [f for kept in list(_TABLE.values()) if (f := kept()) is not None and name in str(f)]

    a = parse_formula("(!Unused_atom_q * #(Unused_atom_q^ @ 1))")
    d, b, label = dual(a), bullet_formula(a), Label(a, True)
    probe = weakref.ref(a)
    assert dual(d) is a and print_formula(a) in str(label)
    assert len(entries("Unused_atom_q")) == 11  # 6 nodes of a, 4 more of its dual, the label
    del a, d, b, label
    assert probe() is None  # kept duals and images are weak: no cycle holds a node
    gc.collect()
    assert entries("Unused_atom_q") == []


def test_dead_formulas_leave_no_key_in_the_table():
    a = parse_formula("(!Unused_atom_k * #(Unused_atom_k^ @ 1))")
    dual(a)
    assert any(key[0] is Atom and key[1] == "Unused_atom_k" for key in _TABLE)
    del a
    gc.collect()
    assert not any(key[0] is Atom and key[1] == "Unused_atom_k" for key in list(_TABLE))


def test_threads_build_one_node_per_formula():
    texts = [f"(!A{i} * #(B{i}^ @ (1 * A{i})))" for i in range(300)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            built = list(pool.map(lambda _: [parse_formula(t) for t in texts], range(4)))
    finally:
        sys.setswitchinterval(interval)
    assert all(b[i] is built[0][i] for b in built for i in range(len(texts)))


# -- the one fold, against the recursive passes ---------------------------------

FAST = [dual, shift_formula, bullet_formula, modal_depth, print_formula, _nesting]
ORACLE = [
    formula_oracle.dual,
    formula_oracle.shift_formula,
    formula_oracle.bullet_formula,
    formula_oracle.modal_depth,
    formula_oracle.print_formula,
    formula_oracle._nesting,
]


def _forget(*formulas):
    """Drop every result that a node of these formulas keeps."""
    todo, seen = list(formulas), set()
    while todo:
        x = todo.pop()
        if x not in seen:
            seen.add(x)
            for name in ("_dual", "_bullet", "_text"):
                if hasattr(x, name):
                    delattr(x, name)
            todo += [f for f in map(x.__getattribute__, x.__match_args__) if isinstance(f, Formula)]


def test_passes_agree_with_the_recursive_oracle():
    rng = random.Random(2021)
    for i in range(2000):
        f = random_formula(rng, rng.randint(0, 12), BIAS_MIXES[i % len(BIAS_MIXES)])
        inputs = (f, dual(f), bullet_formula(f), shift_formula(f))
        # every pass misses on f, and later inputs find some parts kept
        _forget(*inputs)
        fast = [p(g) for g in inputs for p in FAST]
        _forget(*inputs, *(r for r in fast if isinstance(r, Formula)))
        slow = [p(g) for g in inputs for p in ORACLE]
        for got, want in zip(fast, slow):
            assert got is want if isinstance(want, Formula) else (type(got), got) == (type(want), want)


def _chain(depth: int) -> tuple[Formula, str]:
    """A formula nested depth deep that cycles through par, tensor, #, ! and
    ?, with its text."""
    steps = [
        (lambda f: Par(f, Atom("Y")), "({} @ Y)"),
        (lambda f: Tensor(ONE, f), "(1 * {})"),
        (Paragraph, "#{}"),
        (OfCourse, "!{}"),
        (WhyNot, "?{}"),
    ]
    f, text = Atom("Deep"), "Deep"
    for i in range(depth):
        make, template = steps[i % len(steps)]
        f, text = make(f), template.format(text)
    return f, text


def test_passes_take_formulas_far_deeper_than_the_recursion_limit():
    f, _ = _chain(10_000)
    assert _nesting(f) == 10_000 and modal_depth(f) == 6_000
    assert dual(dual(f)) is f and _nesting(dual(f)) == 10_000
    assert modal_depth(shift_formula(f)) == 10_000  # a # under each of the 4,000 ! and ?
    assert _nesting(bullet_formula(f)) == 10_001
    g, text = _chain(3_000)
    assert print_formula(g) == text and str(Label(g, True)) == "%" + text


def test_the_fold_makes_each_shared_node_once():
    from stratnet.formula import _NONE_KEPT, _fold

    tower = Atom("Z")
    for _ in range(16):
        tower = Tensor(tower, tower)  # 17 distinct nodes, 131,071 as a tree
    made = []
    assert _fold(tower, _NONE_KEPT, lambda x, *parts: made.append(x) or 1 + sum(parts)) == 2**17 - 1
    assert len(made) == len(set(made)) == 17
