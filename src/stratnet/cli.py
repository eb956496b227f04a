"""Command-line front end.

Exit codes: 0 success / property holds, 1 property fails, 2 invalid input
or usage, 3 undecided within the rewrite-step budget, 4 internal
disagreement between deciders (never expected), 141 the reader of stdout
closed the pipe.  The STRATNET_BUDGET
environment variable overrides the rewrite-step budget; the switching
check is polynomial and always decides.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import stat
import sys

from . import builder, correctness, interactive, net as net_mod, rewrite
from .correctness import BalanceWitness, BudgetExceeded, PreconditionError
from .net import InvalidNetError, Net, NetFormatError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_DISAGREE = 4


def _step_budget() -> int:
    raw = os.environ.get("STRATNET_BUDGET")
    if not raw:
        return rewrite.DEFAULT_STEP_BUDGET
    if not (raw.isascii() and raw.isdigit()):
        raise PreconditionError(f"STRATNET_BUDGET must be a non-negative integer, not {raw!r}")
    return int(raw)


def _emit(doc, pretty: bool) -> None:
    if pretty:
        print(json.dumps(doc, indent=2))
    else:
        print(json.dumps(doc, separators=(",", ":")))


def _read_net(path: str, allow_flat: bool = False) -> Net:
    with open(path, "rb") as fh:
        return net_mod.load(fh.read(), allow_flat_conclusions=allow_flat)


def _witness_doc(w: BalanceWitness) -> dict:
    return {
        "kind": "cycle" if w.closed else "path",
        "elements": list(w.elements),
        "balance": w.balance,
        "weights": w.flavor,
    }


def _dot(net: Net) -> str:
    g = net_mod.underlying_graph(net)
    lines = ["graph net {"]
    for n in g.nodes:
        lines.append(f'  "{n}" [label="{n}\\n{net.links[n].kind}"];')
    for a, b, e in g.edges:
        lines.append(f'  "{a}" -- "{b}" [label="{net.edges[e]}"];')
    for e in net.conclusions:
        lines.append(f'  "conc:{e}" [shape=none,label="{net.edges[e]}"];')
        lines.append(f'  "{net.producer(e)}" -- "conc:{e}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- subcommands ----------------------------------------------------------------


def cmd_validate(args) -> int:
    loaded = _read_net(args.file, allow_flat=True)
    flat = [e for e in loaded.conclusions if loaded.edges[e].flat]
    if flat:
        print(
            f"invalid: conclusions carry flat labels on edge(s) {', '.join(flat)}",
            file=sys.stderr,
        )
        return EXIT_INVALID
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(_dot(loaded))
    _emit({"valid": True, "links": len(loaded.links), "edges": len(loaded.edges)}, args.pretty)
    return EXIT_OK


def _check_one(path: str, criterion: str, pretty: bool) -> int:
    try:
        n = _read_net(path)
    except (NetFormatError, InvalidNetError, OSError) as exc:
        print(f"{path}: invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if criterion == "dr":
        witness = correctness.find_cyclic_switching(n)
        if witness is None:
            _emit({"file": path, "criterion": "dr", "holds": True}, pretty)
            return EXIT_OK
        _emit(
            {
                "file": path,
                "criterion": "dr",
                "holds": False,
                "witness": {
                    "chosen": witness.chosen,
                    "cycle_edges": list(witness.cycle_edges),
                    "inside": list(witness.depth_context),
                },
            },
            pretty,
        )
        return EXIT_FAIL
    if not correctness.is_dr_correct(n):
        _emit({"file": path, "criterion": "proofnet", "holds": False, "reason": "not a DR-net"}, pretty)
        return EXIT_FAIL
    strong = correctness.is_strongly_indexable(n)
    if strong is True:
        _emit({"file": path, "criterion": "proofnet", "holds": True}, pretty)
        return EXIT_OK
    _emit(
        {"file": path, "criterion": "proofnet", "holds": False, "witness": _witness_doc(strong)},
        pretty,
    )
    return EXIT_FAIL


def cmd_check(args) -> int:
    return max([_check_one(p, args.criterion, args.pretty) for p in args.files])


def cmd_index(args) -> int:
    n = _read_net(args.file)
    solve = correctness.strong_indexing if args.strong else correctness.solve_indexing
    result = solve(n, args.flavor)
    if isinstance(result, BalanceWitness):
        _emit(_witness_doc(result), args.pretty)
        return EXIT_FAIL
    _emit(result.to_document(), args.pretty)
    return EXIT_OK


def _l3_verdicts(n: Net, methods: list[str], step_budget: int) -> dict[str, bool]:
    out: dict[str, bool] = {}
    for m in methods:
        if m == "indexing":
            out[m] = correctness.is_l3_indexing_route(n, check_preconditions=False) is True
        elif m == "geometric":
            out[m] = correctness.is_l3_geometric(n, check_preconditions=False) is True
        elif m == "interactive":
            out[m] = interactive.interactive_l3_check(n, budget=step_budget).member
    return out


def _l3_one(path: str, method: str, step_budget: int, pretty: bool) -> int:
    try:
        n = _read_net(path)
    except (NetFormatError, InvalidNetError, OSError) as exc:
        print(f"{path}: invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID
    methods = ["indexing", "geometric", "interactive"] if method == "all" else [method]
    if "interactive" in methods and n.cut_links():
        print(
            f"{path}: invalid: the interactive method needs a cut-free net; run normalize first",
            file=sys.stderr,
        )
        return EXIT_INVALID
    if "interactive" in methods and not n.conclusions:
        print(f"{path}: invalid: the interactive method needs a net with a conclusion", file=sys.stderr)
        return EXIT_INVALID
    if not correctness.is_dr_correct(n):
        print(f"{path}: invalid: not a DR-net, membership is undefined", file=sys.stderr)
        return EXIT_INVALID
    try:
        verdicts = _l3_verdicts(n, methods, step_budget)
    except BudgetExceeded as exc:
        print(f"{path}: undecided: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    _emit({"file": path, "verdicts": verdicts}, pretty)
    values = set(verdicts.values())
    if len(values) > 1:
        print(f"{path}: methods disagree; this is a bug", file=sys.stderr)
        return EXIT_DISAGREE
    return EXIT_OK if values == {True} else EXIT_FAIL


def cmd_l3(args) -> int:
    step_budget = _step_budget()
    return max([_l3_one(p, args.method, step_budget, args.pretty) for p in args.files])


def cmd_normalize(args) -> int:
    n = _read_net(args.file)
    result, trace = rewrite.normalize(
        n, strategy=args.strategy, budget=_step_budget(), no_axiom=args.no_axiom
    )
    data = net_mod.save(result, pretty=args.pretty)
    with contextlib.ExitStack() as stack:
        trace_fh = stack.enter_context(_open_untruncated(args.trace)) if args.trace else None
        out_fh = stack.enter_context(_open_untruncated(args.output)) if args.output else None
        # Every path is open: only now are old bytes replaced.
        for fh in filter(None, (trace_fh, out_fh)):
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate(0)
        if trace_fh:
            trace_fh.write(json.dumps(trace.to_document(), indent=2 if args.pretty else None).encode())
        if out_fh:
            out_fh.write(data)
        else:
            print(data.decode().rstrip("\n"))
    return EXIT_OK


@contextlib.contextmanager
def _open_untruncated(path: str):
    """Open a file to write without truncating it, and remove it again if
    the open created it and the body fails."""
    existed = os.path.lexists(path)
    with open(path, "ab") as fh:
        try:
            yield fh
        except BaseException:
            if not existed:
                os.remove(path)
            raise


def cmd_gen(args) -> int:
    params = builder.GenParams(
        target_size=args.size,
        box_bias=args.box_bias,
        paragraph_bias=args.paragraph_bias,
        exponential_bias=args.exponential_bias,
        cut_bias=args.cut_bias,
    )
    n = builder.random_net(args.seed, params)
    data = net_mod.save(n, pretty=args.pretty)
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(data)
    else:
        print(data.decode().rstrip("\n"))
    return EXIT_OK


def cmd_test(args) -> int:
    n = _read_net(args.file)
    if n.cut_links():
        print(
            "invalid: the interactive tests need a cut-free net; run normalize first",
            file=sys.stderr,
        )
        return EXIT_INVALID
    if not n.conclusions:
        print("invalid: the interactive tests need a net with a conclusion", file=sys.stderr)
        return EXIT_INVALID
    if not correctness.is_dr_correct(n):
        print("invalid: the interactive tests need a switching-acyclic net", file=sys.stderr)
        return EXIT_INVALID
    if len(n.conclusions) != 1:
        print(
            f"note: reporting the par-closure of {len(n.conclusions)} conclusions",
            file=sys.stderr,
        )
    report = interactive.interactive_l3_check(n, budget=_step_budget(), level=args.level)
    _emit(report.to_document(interactive.closed_text(n)), args.pretty)
    return EXIT_OK if report.member else EXIT_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="stratnet",
        description="Proof nets with a stratification modality: correctness, indexings, "
        "cut-elimination, and level-membership deciders.",
    )
    parser.add_argument(
        "--pretty", action="store_true", dest="pretty_global", help="human-readable JSON output"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="human-readable JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="structural validation of a net document")
    p.add_argument("file")
    p.add_argument("--dot", metavar="PATH", help="also write the underlying graph in DOT format")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("check", parents=[common], help="switching-acyclicity or full proof-net check")
    p.add_argument("--criterion", choices=["dr", "proofnet"], required=True)
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("index", parents=[common], help="solve for an integer indexing")
    p.add_argument("--flavor", choices=["plain", "exponential"], default="plain")
    p.add_argument("--strong", action="store_true", help="require equal conclusion indexes")
    p.add_argument("file")
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("l3", parents=[common], help="level-membership decision")
    p.add_argument("--method", choices=["indexing", "geometric", "interactive", "all"], default="all")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_l3)

    p = sub.add_parser("normalize", parents=[common], help="cut-elimination to normal form")
    p.add_argument("--strategy", choices=["lo", "in", "level"], default="lo")
    p.add_argument("--no-axiom", action="store_true", help="stop at the fixed point of non-axiom steps")
    p.add_argument("--trace", metavar="PATH", help="write the rewrite trace as JSON")
    p.add_argument("--output", "-o", metavar="PATH", help="write the result here instead of stdout")
    p.add_argument("file")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("gen", parents=[common], help="generate a random sequentializable net")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, default=20)
    p.add_argument("--cut-bias", type=float, default=0.2)
    p.add_argument("--paragraph-bias", type=float, default=0.2)
    p.add_argument("--exponential-bias", type=float, default=0.3)
    p.add_argument("--box-bias", type=float, default=0.3)
    p.add_argument("--output", "-o", metavar="PATH")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("test", parents=[common], help="run the interactive level tests")
    p.add_argument("--level", type=int, default=None, help="run a single level instead of all")
    p.add_argument("file")
    p.set_defaults(fn=cmd_test)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.pretty = args.pretty or getattr(args, "pretty_global", False)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Exit as a shell reports a writer that
        # SIGPIPE ended, 128 + 13, and let the final flush go to /dev/null.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (PreconditionError, rewrite.StepError, NetFormatError, InvalidNetError, OSError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BudgetExceeded as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
