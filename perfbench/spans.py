"""Spans around the public functions of every stratnet module, recorded
from outside the program, and the per-layer metrics derived from them.

``installed(tracer)`` replaces each public function of the seven modules by
a wrapper in every namespace that holds it (``rewrite`` holds
``traversal_order``, ``interactive`` holds ``normalize`` and
``nets_equal``, ``net`` holds ``parse_formula``, ...) and puts the
originals back on exit.  A span is [name, start, end, parent span index,
net id, note]; spans stay in memory until ``write_spans``.

A function that is already open on the span stack records no nested span,
so recursive calls (``print_formula``, ``find_cyclic_switching``) count
once, at their outermost call.  A layer's self time is the time during
which its span is the innermost open one: a span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "net", "formula", "correctness", "rewrite", "interactive", "builder")
# Public but missing from net.__all__; the rewrite engine ranks redexes with it.
EXTRA_PUBLIC = {"net": ("traversal_order",)}

# What a span keeps of its call besides timing.
NOTES = {
    "rewrite.normalize": lambda args, result: len(args[0].links),
    "rewrite.find_redexes": lambda args, result: len(result),
    "rewrite.apply_step": lambda args, result: args[1].kind,
    "net.canonical_form": lambda args, result: hash(result),
    "interactive.interactive_l3_check": lambda args, result: (
        len(result.levels),
        sum(1 for level in result.levels if not level.passed),
    ),
}

SETUP_NET = "setup"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open: set[str] = set()
        self.net: object = None
        self.generator_calls: Counter = Counter()
        self.generator_items: Counter = Counter()

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                self.generator_calls[name] += 1
                for item in fn(*args, **kwargs):
                    self.generator_items[name] += 1
                    yield item

            return generator_wrapper

        note = NOTES.get(name)
        spans, stack, open_names = self.spans, self.stack, self.open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in open_names:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.net, None]
            stack.append(len(spans))
            spans.append(span)
            open_names.add(name)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                open_names.discard(name)
            if note is not None:
                span[5] = note(args, result)
            return result

        return wrapper

    def calls(self, name: str) -> int:
        """Recorded calls of one wrapped function, generators included."""
        return self.generator_calls[name] + sum(1 for s in self.spans if s[0] == name)


def public_functions(module) -> list[str]:
    layer = module.__name__.rsplit(".", 1)[1]
    names = list(getattr(module, "__all__", None) or vars(module)) + list(EXTRA_PUBLIC.get(layer, ()))
    return [
        n
        for n in names
        if not n.startswith("_")
        and inspect.isfunction(getattr(module, n, None))
        and getattr(module, n).__module__ == module.__name__
    ]


@contextmanager
def installed(tracer: Tracer):
    package = importlib.import_module("stratnet")
    modules = {layer: importlib.import_module(f"stratnet.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for name in public_functions(module):
            fn = getattr(module, name)
            wrappers[fn] = tracer.wrap(f"{layer}.{name}", fn)
    patched = []
    for module in (package, *modules.values()):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
                patched.append((module, attr, value))
    try:
        yield tracer
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def write_spans(tracer: Tracer, path: Path) -> None:
    """One tab-separated line per span: index, name, start and end in
    microseconds from the first span, parent index, net id, note."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("index\tname\tstart_us\tend_us\tparent\tnet\tnote\n")
        for i, (name, start, end, parent, net, note) in enumerate(tracer.spans):
            fh.write(
                f"{i}\t{name}\t{(start - origin) * 1e6:.1f}\t{(end - origin) * 1e6:.1f}"
                f"\t{parent}\t{net}\t{'' if note is None else note}\n"
            )


# -- per-layer metrics ------------------------------------------------------------

PER_LAYER_UNITS: dict[str, str] = {}


def _declare(unit: str, *names: str) -> None:
    for n in names:
        PER_LAYER_UNITS[n] = unit


FAMILIES = ("axiom", "unit", "multiplicative", "exponential", "paragraph")

_declare("ms", "rewrite.normalize_ms", "rewrite.self_ms", "rewrite.find_redexes_ms", "rewrite.apply_step_ms")
_declare("count", "rewrite.steps", *(f"rewrite.steps.{f}" for f in FAMILIES))
_declare("ratio", "rewrite.redexes_per_step")
# rewrite.step_us.sizeN covers the normalize calls on nets whose link count
# is nearest N on a log scale: the rungs of normalize-ladder, and the doubled
# nets that interactive_l3_check normalizes on l3-cutfree.
SIZE_BUCKETS = (40, 80, 160, 320, 640)
_declare("us", "rewrite.step_us", *(f"rewrite.step_us.size{n}" for n in SIZE_BUCKETS))
_declare(
    "ms",
    "net.load_ms",
    "net.validate_ms",
    "net.parr_closure_ms",
    "net.save_ms",
    "net.canonical_form_ms",
    "net.canonical_order_ms",
    "net.traversal_order_ms",
    "net.nets_equal_ms",
    "net.nets_equal.fallback_ms",
)
_declare("count", "net.canonical_form.calls", "net.traversal_order.calls", "net.nets_equal.calls")
_declare("ratio", "net.nets_equal.byte_hit_ratio")
_declare(
    "ms",
    "correctness.dr_ms",
    "correctness.solve_indexing_ms",
    "correctness.l3_indexing_ms",
    "correctness.l3_geometric_ms",
)
_declare("count", "correctness.switchings", "correctness.undecided", "correctness.solve_indexing.calls")
_declare("us", "correctness.switching_us")
_declare(
    "ms",
    "interactive.l3_check_ms",
    "interactive.self_ms",
    "interactive.eta_expand_ms",
    "interactive.bullet_net_ms",
    "interactive.make_test_ms",
    "interactive.cut_compose_ms",
    "interactive.swapping_compare_ms",
)
_declare("count", "interactive.levels", "interactive.levels_failed")
_declare("ms", "formula.parse_formula_ms", "formula.print_formula_ms")
_declare("count", "formula.parse_formula.calls", "formula.print_formula.calls")
_declare("ms", "builder.random_net_ms", "cli.self_ms")
_declare("ratio", "trace.overhead_ratio", "undecided_ratio", "error_ratio")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def size_bucket(links: int) -> int:
    return min(SIZE_BUCKETS, key=lambda n: abs(math.log(max(links, 1) / n)))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans recorded for the workload's calls,
    plus builder.random_net_ms from the spans recorded during set-up."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    children: dict[int, list[int]] = defaultdict(list)
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            children[parent].append(i)

    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    layer_self: dict[str, float] = defaultdict(float)
    families: Counter = Counter()
    redexes = 0
    undecided = 0
    size_time: dict[int, float] = defaultdict(float)
    size_steps: Counter = Counter()
    hits = 0
    fallback = 0.0
    levels = levels_failed = 0
    setup_random_net = 0.0
    for i, (name, start, end, parent, net, note) in enumerate(spans):
        duration = end - start
        if net == SETUP_NET:
            if name == "builder.random_net":
                setup_random_net += duration
            continue
        total[name] += duration
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += duration - child_time[i]
        if name == "rewrite.apply_step" and isinstance(note, str):
            families[note] += 1
            if parent >= 0 and spans[parent][0] == "rewrite.normalize" and isinstance(spans[parent][5], int):
                size_steps[size_bucket(spans[parent][5])] += 1
        elif name == "rewrite.normalize" and isinstance(note, int):
            size_time[size_bucket(note)] += duration
        elif name == "rewrite.find_redexes" and isinstance(note, int):
            redexes += note
        elif name == "correctness.find_cyclic_switching" and note == "BudgetExceeded":
            undecided += 1
        elif name == "net.nets_equal":
            fallback += duration - child_time[i]
            forms = [spans[c][5] for c in children[i] if spans[c][0] == "net.canonical_form"]
            hits += len(forms) >= 2 and forms[0] == forms[1]
        elif name == "interactive.interactive_l3_check" and isinstance(note, tuple):
            levels += note[0]
            levels_failed += note[1]

    ms = lambda name: total[name] * 1e3
    steps = calls["rewrite.apply_step"]
    switchings = tracer.generator_items["correctness.enumerate_switchings"]
    return {
        "rewrite.normalize_ms": ms("rewrite.normalize"),
        "rewrite.self_ms": layer_self["rewrite"] * 1e3,
        "rewrite.find_redexes_ms": ms("rewrite.find_redexes"),
        "rewrite.apply_step_ms": ms("rewrite.apply_step"),
        "rewrite.steps": steps,
        **{f"rewrite.steps.{f}": families[f] for f in FAMILIES},
        "rewrite.redexes_per_step": _ratio(redexes, steps),
        "rewrite.step_us": _ratio(ms("rewrite.normalize") * 1e3, steps),
        **{
            f"rewrite.step_us.size{n}": _ratio(size_time[n] * 1e6, size_steps[n])
            for n in SIZE_BUCKETS
        },
        "net.load_ms": ms("net.load"),
        "net.validate_ms": ms("net.validate"),
        "net.parr_closure_ms": ms("net.parr_closure"),
        "net.save_ms": ms("net.save"),
        "net.canonical_form_ms": ms("net.canonical_form"),
        "net.canonical_form.calls": calls["net.canonical_form"],
        "net.canonical_order_ms": ms("net.canonical_order"),
        "net.traversal_order_ms": ms("net.traversal_order"),
        "net.traversal_order.calls": calls["net.traversal_order"],
        "net.nets_equal_ms": ms("net.nets_equal"),
        "net.nets_equal.calls": calls["net.nets_equal"],
        "net.nets_equal.byte_hit_ratio": _ratio(hits, calls["net.nets_equal"]),
        "net.nets_equal.fallback_ms": fallback * 1e3,
        "correctness.dr_ms": ms("correctness.find_cyclic_switching"),
        "correctness.switchings": switchings,
        "correctness.switching_us": _ratio(ms("correctness.find_cyclic_switching") * 1e3, switchings),
        "correctness.undecided": undecided,
        "correctness.solve_indexing_ms": ms("correctness.solve_indexing"),
        "correctness.solve_indexing.calls": calls["correctness.solve_indexing"],
        "correctness.l3_indexing_ms": ms("correctness.is_l3_indexing_route"),
        "correctness.l3_geometric_ms": ms("correctness.is_l3_geometric"),
        "interactive.l3_check_ms": ms("interactive.interactive_l3_check"),
        "interactive.self_ms": layer_self["interactive"] * 1e3,
        "interactive.levels": levels,
        "interactive.levels_failed": levels_failed,
        "interactive.eta_expand_ms": ms("interactive.eta_expand"),
        "interactive.bullet_net_ms": ms("interactive.bullet_net"),
        "interactive.make_test_ms": ms("interactive.make_test"),
        "interactive.cut_compose_ms": ms("interactive.cut_compose"),
        "interactive.swapping_compare_ms": ms("interactive.swapping_compare"),
        "formula.parse_formula_ms": ms("formula.parse_formula"),
        "formula.parse_formula.calls": calls["formula.parse_formula"],
        "formula.print_formula_ms": ms("formula.print_formula"),
        "formula.print_formula.calls": calls["formula.print_formula"],
        "builder.random_net_ms": setup_random_net * 1e3,
        "cli.self_ms": layer_self["cli"] * 1e3,
    }
