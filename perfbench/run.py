"""stratnet benchmark: one workload, one seed, one closed loop.

    python3 perfbench/run.py --workload l3-cutfree --seed 1 --seconds 45 --trace 0

Builds the inputs from the seed, then calls ``stratnet.cli.main`` in this
process, one net per call, one client, until the time is up, and checks
every output.  The last line of standard output is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
# Share of --seconds the traced run spends on its first, untraced pass;
# two more passes replay the same calls, one untraced and one traced.
UNTRACED_SHARE = 0.3
WORKLOAD_NAMES = ("l3-cutfree", "normalize-ladder", "check-dr")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_stratnet() -> float:
    """Import the program from this checkout's source tree; returns the
    import time in seconds.  Exits with code 2 when there is no source
    tree, so a stray installed copy is never measured."""
    if not (SRC / "stratnet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no stratnet source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import stratnet  # noqa: F401
    import stratnet.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    if SRC not in Path(stratnet.__file__).resolve().parents:
        sys.exit(f"perfbench: imported stratnet from {stratnet.__file__}, not from {SRC}")
    return elapsed


class Runner:
    """Runs one workload's slots through the CLI and keeps every call."""

    def __init__(self, workload, slots, workdir: Path, tracer=None):
        from stratnet import cli

        self.cli = cli  # main is looked up on each call, so tracing can wrap it
        self.workload = workload
        self.slots = slots
        self.workdir = workdir
        self.tracer = tracer
        self.peak_rss_mb = None  # set when a loop completes workload.memory_calls calls

    def call(self, index: int):
        from workloads import Call

        slot = index % len(self.slots)
        argv = self.workload.argv(self.slots[slot], slot, self.workdir)
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.net = slot
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a wrong result, recorded and judged
                code = None
                err.write(f"{type(exc).__name__}: {exc}\n")
            seconds = time.perf_counter() - start
        return Call(slot, code, out.getvalue(), err.getvalue(), seconds)

    def loop(self, seconds: float | None = None, count: int | None = None):
        """Closed loop: the next call starts when the previous one returns.
        Stops after ``count`` calls, or at the first round boundary past
        the deadline once the digest's and the memory reading's calls are
        done."""
        calls = []
        start = time.perf_counter()
        deadline = start + (seconds or 0.0)
        saved = {k: os.environ.get(k) for k in self.workload.env}
        os.environ.update(self.workload.env)
        try:
            while True:
                i = len(calls)
                if count is not None:
                    if i >= count:
                        break
                elif (
                    i >= max(self.workload.digest_calls, self.workload.memory_calls)
                    and i % self.workload.round_size == 0
                    and time.perf_counter() >= deadline
                ):
                    break
                calls.append(self.call(i))
                if len(calls) == self.workload.memory_calls:
                    self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        return calls, time.perf_counter() - start

    def judge(self, calls):
        """Outcome of every call; a repeated slot must repeat its first
        outcome exactly."""
        from workloads import ERROR

        first: dict[int, tuple] = {}
        verdicts = []
        for call in calls:
            if call.slot not in first:
                status, outcome = self.workload.judge(self.slots[call.slot], call.slot, call, self.workdir)
                first[call.slot] = (status, outcome, call.code, call.stdout)
            status, outcome, code, stdout = first[call.slot]
            if (call.code, call.stdout) != (code, stdout):
                status = ERROR
            verdicts.append((status, outcome))
        return verdicts


def digest(workload, verdicts) -> str:
    head = [outcome for _, outcome in verdicts[: workload.digest_calls]]
    return hashlib.sha256(json.dumps(head, sort_keys=True).encode()).hexdigest()[:16]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(50, min(99, math.floor(100 * (n - 10) / n))) if n > 20 else 50


def nearest_rank(sorted_values, p: int) -> float:
    k = max(1, math.ceil(p * len(sorted_values) / 100))
    return sorted_values[k - 1]


def summarize(workload, verdicts, calls) -> tuple[dict, list[str]]:
    from workloads import ERROR, UNDECIDED

    n = len(calls)
    undecided = sum(1 for s, _ in verdicts if s == UNDECIDED)
    errors = sum(1 for s, _ in verdicts if s == ERROR)
    lines = [
        f"  undecided_ratio {undecided / n:.4f} ({undecided}/{n}); error_ratio {errors / n:.4f} ({errors}/{n})",
        f"  digest {digest(workload, verdicts)} over the first {workload.digest_calls} calls",
    ]
    for call, (status, _) in zip(calls, verdicts):
        if status == ERROR:
            lines.append(f"  error on slot {call.slot}: exit {call.code}: {call.stderr.strip()[:300]}")
            break
    # Exit 3 is the CLI's documented answer for a net over its budget, not a
    # wrong result: it is reported as undecided_ratio, and only wrong or
    # missing results count as failed.
    counts = {"attempted": n, "failed": errors, "errors": errors, "undecided": undecided}
    return counts, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_stratnet()
    sys.path.insert(0, str(HERE))
    import spans as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        if args.trace:
            result = traced_run(args, workload, workdir, tracing)
        else:
            result = untraced_run(args, workload, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def untraced_run(args, workload, workdir: Path, import_s: float) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        slots = workload.generate(args.seed, workdir)
        setups.append(import_s + time.perf_counter() - start)
    runner = Runner(workload, slots, workdir)
    runner.loop(count=workload.warmup_calls)
    calls, wall = runner.loop(seconds=args.seconds)
    verdicts = runner.judge(calls)
    counts, lines = summarize(workload, verdicts, calls)

    latencies = sorted(c.seconds * 1e3 for c in calls)
    p = tail_percentile(len(latencies))
    metrics = {
        "nets_per_s": (len(calls) / wall, "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_tail_ms": (nearest_rank(latencies, p), "ms"),
        "peak_rss_mb": (runner.peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(f"  {len(calls)} calls in {wall:.2f} s over {len({s.path for s in slots})} distinct nets")
    print(f"  latency_tail_ms is p{p} of {len(latencies)} samples ({len(latencies) - math.ceil(p * len(latencies) / 100)} beyond)")
    print("\n".join(lines))
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.4f} {unit}")
    return {
        "correct": counts["errors"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def traced_run(args, workload, workdir: Path, tracing) -> dict:
    """An untraced pass for part of the time, the same calls untraced
    again, then the same calls traced.  The per-layer metrics come from the
    traced pass; trace.overhead_ratio is its wall time over that of the
    second pass, which runs as warm as the traced one (the first pass pays
    for first-call costs such as lazy imports)."""
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.net = tracing.SETUP_NET
        slots = workload.generate(args.seed, workdir)
    plain = Runner(workload, slots, workdir)
    plain_calls, _ = plain.loop(seconds=args.seconds * UNTRACED_SHARE)
    plain_verdicts = plain.judge(plain_calls)
    _, plain_wall = plain.loop(count=len(plain_calls))

    traced = Runner(workload, slots, workdir, tracer)
    with tracing.installed(tracer):
        traced_calls, traced_wall = traced.loop(count=len(plain_calls))
    tracer.net = None
    verdicts = traced.judge(traced_calls)
    counts, lines = summarize(workload, verdicts, traced_calls)
    same = [o for _, o in verdicts] == [o for _, o in plain_verdicts]
    lines.append(f"  traced outcomes {'equal' if same else 'DIFFER FROM'} untraced outcomes")

    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    metrics["undecided_ratio"] = counts["undecided"] / counts["attempted"]
    metrics["error_ratio"] = counts["errors"] / counts["attempted"]
    spans_path = ROOT / ".perfbench" / "spans" / f"{workload.name}-seed{args.seed}.tsv.gz"
    tracing.write_spans(tracer, spans_path)

    print(f"  {len(traced_calls)} calls traced in {traced_wall:.2f} s, untraced {plain_wall:.2f} s")
    print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    print("\n".join(lines))
    return {
        "correct": counts["errors"] == 0 and same,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in tracing.PER_LAYER_UNITS.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
