"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks, on a few dozen calls per workload:
- each workload reaches the function it exists to measure (traversal_order
  on normalize-ladder, enumerate_switchings on check-dr, nets_equal on
  l3-cutfree), and check-dr never reaches normalize or
  interactive_l3_check;
- installing the wrappers and removing them leaves the program as it was;
- the outcome digest repeats across runs, equals the traced run's, and
  changes with the seed;
- BENCHMARK.json, perfbench/layers.json and spans.PER_LAYER_UNITS name
  the same per-layer metrics.
Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

run.import_stratnet()

import spans  # noqa: E402
import workloads  # noqa: E402

MUST_REACH = {
    "normalize-ladder": ["net.traversal_order"],
    "check-dr": ["correctness.enumerate_switchings"],
    "l3-cutfree": ["net.nets_equal"],
}
MUST_NOT_REACH = {"check-dr": ["rewrite.normalize", "interactive.interactive_l3_check"]}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def outcomes(workload, seed: int, workdir, tracer=None):
    """Digest and error count of the workload's first digest_calls calls."""
    slots = workload.generate(seed, workdir)
    runner = run.Runner(workload, slots, workdir, tracer)
    if tracer is None:
        calls, _ = runner.loop(count=workload.digest_calls)
    else:
        with spans.installed(tracer):
            calls, _ = runner.loop(count=workload.digest_calls)
    verdicts = runner.judge(calls)
    return run.digest(workload, verdicts), sum(1 for s, _ in verdicts if s == workloads.ERROR)


def main() -> int:
    import stratnet.rewrite

    before = {name: getattr(stratnet.rewrite, name) for name in ("normalize", "traversal_order")}
    workdir = run.ROOT / ".perfbench" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for name, workload in workloads.WORKLOADS.items():
            tracer = spans.Tracer()
            traced, traced_errors = outcomes(workload, 1, workdir, tracer)
            for fn in MUST_REACH.get(name, []):
                check(tracer.calls(fn) > 0, f"{name} reaches {fn} ({tracer.calls(fn)} calls)")
            for fn in MUST_NOT_REACH.get(name, []):
                check(tracer.calls(fn) == 0, f"{name} never reaches {fn}")
            first, errors = outcomes(workload, 1, workdir)
            again, _ = outcomes(workload, 1, workdir)
            other, _ = outcomes(workload, 2, workdir)
            check(errors == 0 and traced_errors == 0, f"{name} outputs pass their checks")
            check(first == again, f"{name} digest repeats ({first})")
            check(first == traced, f"{name} traced digest equals untraced ({traced})")
            check(first != other, f"{name} digest changes with the seed ({other})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    after = {name: getattr(stratnet.rewrite, name) for name in before}
    check(after == before, "wrappers are removed when the traced pass ends")

    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    check(declared == spans.PER_LAYER_UNITS, "BENCHMARK.json per_layer matches spans.PER_LAYER_UNITS")
    layers = json.loads((run.HERE / "layers.json").read_text())
    mapped = {m for layer in layers["layers"].values() for m in layer["metrics"]}
    check(mapped == set(declared), "layers.json maps every per-layer metric, and no other")
    listed = [w["name"] for w in benchmark["workloads"]]
    check(set(listed) <= set(workloads.WORKLOADS), f"BENCHMARK.json lists defined workloads only ({', '.join(listed)})")
    check(set(layers["workloads"]) == set(workloads.WORKLOADS), "layers.json describes every defined workload")
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
