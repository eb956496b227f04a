"""The benchmark's workloads: seeded input corpora, the CLI command each
input is run with, and the known-answer checks on every output.
BENCHMARK.json lists l3-cutfree and check-dr; normalize-ladder is run by
hand (see README.md).

A workload turns a seed into a list of slots.  Each slot is one net file
plus what the benchmark knows about it (its expected answer, its
conclusion labels).  The run loop walks the slots in order and
wraps around at the end, so every prefix of the list must be a balanced
sample.  Per-net cost spans two or three orders of magnitude on l3-cutfree
and check-dr and a few expensive nets carry most of the time, so a plain
random draw would make one 30-second run differ from the next by its luck.
Those two workloads therefore sort generated candidates into cost classes
(computed from the net's shape, before the program runs on it) and fill
the slots from a fixed schedule that holds each class at its natural share
among the candidates; only the nets themselves vary with the seed.

    PYTHONPATH=src python3 perfbench/workloads.py check-dr 8000

prints the natural class shares that a workload's ``shares`` table holds.
"""

from __future__ import annotations

import json
import math
import random
import sys
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

from stratnet import builder, net as net_mod
from stratnet.builder import GenParams
from stratnet.formula import Atom, Tensor, modal_depth
from stratnet.net import Label, Link, Net

OK = "ok"
UNDECIDED = "undecided"
ERROR = "error"


@dataclass
class Slot:
    path: str
    facts: dict = field(default_factory=dict)


@dataclass
class Call:
    """One closed-loop call of ``stratnet.cli.main``."""

    slot: int
    code: int | None  # None when main raised
    stdout: str
    stderr: str
    seconds: float


def _write(net: Net, path: Path) -> str:
    path.write_bytes(net_mod.save(net))
    return str(path)


def _stdout_doc(call: Call) -> dict | None:
    lines = call.stdout.strip().splitlines()
    if len(lines) != 1:
        return None
    try:
        doc = json.loads(lines[0])
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


def smooth_schedule(shares: dict[str, float], length: int) -> list[str]:
    """Smooth weighted round-robin: every prefix holds each class close to
    its share."""
    total = sum(shares.values())
    current = {k: 0.0 for k in shares}
    out = []
    for _ in range(length):
        for k, w in shares.items():
            current[k] += w
        pick = max(current, key=current.__getitem__)
        current[pick] -= total
        out.append(pick)
    return out


def half_octave(value: float, low: float, high: float) -> str:
    """Class name of a positive cost estimate: its log2 clamped to
    [low, high] and rounded down to a half."""
    return f"{math.floor(min(max(math.log2(value), low), high) * 2) / 2:g}"


class Workload:
    name = ""
    why = ""
    # The digest covers the outcomes of this many first calls; every run
    # makes at least this many, so two runs always digest the same nets.
    digest_calls = 0
    # The deadline is only checked after a multiple of this many calls.
    round_size = 1
    # Calls made untimed before the timed loop, which then starts again at
    # the first slot: they pay first-call costs such as lazy imports.
    warmup_calls = 0
    # peak_rss_mb is the process's peak after this many timed calls, and
    # every run makes at least this many.  A fixed count, because the
    # program's label-string cache grows with every call until it is full,
    # so a peak read at the end would follow how many calls the time
    # allowed, that is, the machine's speed.
    memory_calls = 1
    env: dict[str, str] = {}

    def generate(self, seed: int, workdir: Path) -> list[Slot]:
        raise NotImplementedError

    def argv(self, slot: Slot, index: int, workdir: Path) -> list[str]:
        raise NotImplementedError

    def judge(self, slot: Slot, index: int, call: Call, workdir: Path) -> tuple[str, list]:
        """Return (ok | undecided | error, outcome), where the outcome is
        the JSON-able part of the result that must repeat exactly."""
        raise NotImplementedError


class StratifiedWorkload(Workload):
    shares: dict[str, float] = {}
    nets = 0  # distinct generated nets per corpus

    def candidates(self, rng: random.Random):
        raise NotImplementedError

    def cost_class(self, net: Net) -> str:
        raise NotImplementedError

    def stratified(self, seed: int):
        """Yield (position, net) until every position of the class
        schedule is filled.  A candidate takes the first open position of
        its class or is dropped, so set-up holds one net at a time."""
        open_at: dict[str, deque[int]] = defaultdict(deque)
        for i, cls in enumerate(smooth_schedule(self.shares, self.nets)):
            open_at[cls].append(i)
        todo = self.nets
        for net in self.candidates(random.Random(seed)):
            positions = open_at[self.cost_class(net)]
            if positions:
                yield positions.popleft(), net
                todo -= 1
                if not todo:
                    return

    def measure_shares(self, count: int, seed: int = 0) -> dict[str, float]:
        """Per-mille share of each cost class among ``count`` candidates."""
        classes = Counter(self.cost_class(n) for n in islice(self.candidates(random.Random(seed)), count))
        order = sorted(classes, key=lambda k: (k == "over", 0.0 if k == "over" else float(k)))
        return {k: round(1000 * classes[k] / count, 1) for k in order}


# -- l3-cutfree ---------------------------------------------------------------

# The five bias mixes of acceptance criterion 1: (exponential, paragraph, box).
BIAS_MIXES = ((0.35, 0.15, 0.3), (0.55, 0.05, 0.5), (0.15, 0.4, 0.2), (0.0, 0.0, 0.0), (0.45, 0.3, 0.4))
L3_SIZES = (2, 34)
L3_MAX_LINKS = 40


class L3CutFree(StratifiedWorkload):
    name = "l3-cutfree"
    why = (
        "stratnet l3 --method all on cut-free DR-nets drawn like acceptance criterion 1: "
        "the headline query; rewrite on many small nets plus net comparisons"
    )
    digest_calls = 30
    warmup_calls = 10
    memory_calls = 100
    nets = 300
    # Natural shares of the cost classes, as measured (see the module
    # docstring).  The end classes are clamped so that none is rarer than
    # about 1 in 60: filling a rarer one makes set-up time swing.
    shares = {
        "5.5": 49.1, "6": 31.5, "6.5": 36.1, "7": 54.0, "7.5": 66.0, "8": 71.5, "8.5": 102.4,
        "9": 127.8, "9.5": 147.0, "10": 134.0, "10.5": 123.2, "11": 57.4,
    }

    def candidates(self, rng: random.Random):
        # Criterion 1's draw: mix k % 5, target size uniform in 2..34, and
        # only nets with a conclusion, none flat, and at most 40 links.
        k = 0
        while True:
            e, p, b = BIAS_MIXES[k % len(BIAS_MIXES)]
            k += 1
            params = GenParams(
                target_size=rng.randint(*L3_SIZES),
                cut_bias=0.0,
                exponential_bias=e,
                paragraph_bias=p,
                box_bias=b,
            )
            n = builder.random_net(rng.randrange(1 << 31), params)
            if n.conclusions and not n.has_flat_conclusion() and len(n.links) <= L3_MAX_LINKS:
                yield n

    def cost_class(self, net: Net) -> str:
        # The interactive check tests every level of the closed conclusion
        # on the doubled net, which has three more links per axiom; its time
        # follows levels * (doubled size)^1.5 to within a factor of 1.4.
        axioms = sum(1 for link in net.links.values() if link.kind == "ax")
        levels = 1 + max(modal_depth(net.edges[e].formula) for e in net.conclusions)
        return half_octave(levels * (len(net.links) + 3 * axioms) ** 1.5, 5.5, 11)

    def generate(self, seed: int, workdir: Path) -> list[Slot]:
        slots = [Slot("")] * self.nets
        for i, n in self.stratified(seed):
            slots[i] = Slot(_write(n, workdir / f"l3-{i}.json"))
        return slots

    def argv(self, slot: Slot, index: int, workdir: Path) -> list[str]:
        return ["l3", "--method", "all", slot.path]

    def judge(self, slot: Slot, index: int, call: Call, workdir: Path) -> tuple[str, list]:
        if call.code == 3:
            return UNDECIDED, [3]
        doc = _stdout_doc(call)
        if call.code not in (0, 1) or doc is None or not isinstance(doc.get("verdicts"), dict):
            return ERROR, [call.code]
        verdicts = doc["verdicts"]
        values = set(verdicts.values())
        if sorted(verdicts) != ["geometric", "indexing", "interactive"] or len(values) != 1:
            return ERROR, [call.code, verdicts]
        if (call.code == 0) != (values == {True}):
            return ERROR, [call.code, verdicts]
        return OK, [call.code, values == {True}]


# -- check-dr -------------------------------------------------------------------

DR_BUDGET = 1 << 14
DR_SIZES = (18, 90)
DR_CUT_BIAS = 0.4


def switching_levels(net: Net) -> list[tuple[int, int]]:
    """(switchings, links) at each box level, depth zero first.  Switchings
    are counted like correctness._top_structure: one choice per premise of
    every par and non-weakening why-not link directly at that level."""

    def level(ids: list[str]) -> tuple[int, int]:
        p = 1
        for lid in ids:
            link = net.links[lid]
            if link.kind in ("par", "whynot") and link.premises:
                p *= len(link.premises)
        return p, len(ids)

    def inside(boxes) -> set[str]:
        out: set[str] = set()
        for box in boxes:
            out |= box.contents | set(box.border())
        return out

    top = inside(net.boxes)
    levels = [level([lid for lid in net.links if lid not in top])]
    stack = list(net.boxes)
    while stack:
        box = stack.pop()
        inner = inside(box.children)
        levels.append(level([lid for lid in box.contents if lid not in inner]))
        stack.extend(box.children)
    return levels


def tensor_loop(context: Net) -> Net:
    """A valid net that fails switching-acyclicity: the context beside an
    axiom whose two conclusions meet in one tensor (every switching holds
    the cycle)."""
    base = builder.mix(context, builder.ax(Atom("X")))
    e1, e2 = base.conclusions[-2:]
    edges = dict(base.edges)
    links = dict(base.links)
    edges["loop"] = Label(Tensor(edges[e1].formula, edges[e2].formula))
    links["looplink"] = Link("tensor", (e1, e2), ("loop",))
    conclusions = tuple(e for e in base.conclusions if e not in (e1, e2)) + ("loop",)
    return Net(edges, links, base.boxes, conclusions)


class CheckDR(StratifiedWorkload):
    name = "check-dr"
    why = (
        f"stratnet check --criterion dr, STRATNET_BUDGET={DR_BUDGET}, on nets with cuts, "
        "half with a tensor loop: exponential switching enumeration, undecided tail kept"
    )
    digest_calls = 60
    warmup_calls = 20
    memory_calls = 300
    env = {"STRATNET_BUDGET": str(DR_BUDGET)}
    nets = 250
    # Natural shares of the cost classes, as measured (see the module
    # docstring).  The cheap end is clamped; the dear end is not, since the
    # few nets there set latency_tail_ms.
    shares = {
        "6.5": 35.3, "7": 19.6, "7.5": 24.4, "8": 20.6, "8.5": 31.4, "9": 30.4,
        "9.5": 34.2, "10": 39.8, "10.5": 33.5, "11": 42.6, "11.5": 37.4, "12": 42.4, "12.5": 49.0,
        "13": 36.4, "13.5": 45.1, "14": 38.1, "14.5": 47.1, "15": 40.2, "15.5": 39.9, "16": 43.1,
        "16.5": 29.5, "17": 41.4, "17.5": 26.2, "18": 36.8, "18.5": 15.5, "19": 30.1, "19.5": 9.0,
        "20": 20.4, "over": 60.6,
    }

    def candidates(self, rng: random.Random):
        while True:
            size = rng.randint(*DR_SIZES)
            yield builder.random_net(rng.randrange(1 << 31), GenParams(target_size=size, cut_bias=DR_CUT_BIAS))

    def cost_class(self, net: Net) -> str:
        # "over" when one level has more switchings than the budget (the
        # check is undecided); else the switching work, switchings times
        # links summed over levels, which find_cyclic_switching's time
        # follows to within about 15%.
        levels = switching_levels(net)
        if max(p for p, _ in levels) > DR_BUDGET:
            return "over"
        return half_octave(sum(p * n for p, n in levels), 6.5, 20)

    def generate(self, seed: int, workdir: Path) -> list[Slot]:
        # Each generated net fills two slots: as is (known answer: holds)
        # and with a tensor loop beside it (known answer: fails, with a
        # witness).  The loop adds no switching, so both share a class.
        slots = [Slot("")] * (2 * self.nets)
        for i, n in self.stratified(seed):
            slots[2 * i] = Slot(_write(n, workdir / f"dr-{2 * i}.json"), {"holds": True})
            looped = tensor_loop(n)
            slots[2 * i + 1] = Slot(_write(looped, workdir / f"dr-{2 * i + 1}.json"), {"holds": False})
        return slots

    def argv(self, slot: Slot, index: int, workdir: Path) -> list[str]:
        return ["check", "--criterion", "dr", slot.path]

    def judge(self, slot: Slot, index: int, call: Call, workdir: Path) -> tuple[str, list]:
        if call.code == 3:
            return UNDECIDED, [3]
        doc = _stdout_doc(call)
        holds = slot.facts["holds"]
        if doc is None or doc.get("holds") is not holds or call.code != (0 if holds else 1):
            return ERROR, [call.code]
        if holds:
            return OK, [call.code, holds]
        witness = doc.get("witness")
        if not isinstance(witness, dict) or not witness.get("cycle_edges"):
            return ERROR, [call.code, "no witness"]
        return OK, [call.code, holds, witness["cycle_edges"]]


# -- normalize-ladder -----------------------------------------------------------

# Distinct nets per rung.  The median latency falls on the middle rung and
# the time mostly goes to the top one, so each needs enough distinct nets
# for a run not to hinge on a few; small nets are cheap to generate.
LADDER_NETS = {40: 32, 80: 32, 160: 32, 320: 16, 640: 8}
LADDER_CUT_BIAS = 0.4


class NormalizeLadder(Workload):
    name = "normalize-ladder"
    why = (
        "stratnet normalize -o OUT --trace T on cut_bias 0.4 nets, equal counts at 40..640 links: "
        "per-step rewrite cost against net size, plus save"
    )
    digest_calls = 2 * len(LADDER_NETS)
    round_size = len(LADDER_NETS)
    warmup_calls = len(LADDER_NETS)
    memory_calls = 10 * len(LADDER_NETS)

    def generate(self, seed: int, workdir: Path) -> list[Slot]:
        # A round is one net per rung, smallest first, and the loop stops
        # only between rounds, so every run holds equal counts per rung.
        # Round j takes net j mod LADDER_NETS[rung] of each rung.
        rng = random.Random(seed)
        nets: dict[int, list[Slot]] = {}
        for size, count in LADDER_NETS.items():
            nets[size] = []
            for k in range(count):
                n = builder.random_net(rng.randrange(1 << 31), GenParams(target_size=size, cut_bias=LADDER_CUT_BIAS))
                labels = [str(n.edges[e]) for e in n.conclusions]
                path = _write(n, workdir / f"ladder-{size}-{k}.json")
                nets[size].append(Slot(path, {"labels": labels}))
        rounds = max(LADDER_NETS.values())
        return [nets[size][j % len(nets[size])] for j in range(rounds) for size in LADDER_NETS]

    def _outputs(self, index: int, workdir: Path) -> tuple[Path, Path]:
        return workdir / f"nf-{index}.json", workdir / f"trace-{index}.json"

    def argv(self, slot: Slot, index: int, workdir: Path) -> list[str]:
        out, trace = self._outputs(index, workdir)
        return ["normalize", slot.path, "-o", str(out), "--trace", str(trace)]

    def judge(self, slot: Slot, index: int, call: Call, workdir: Path) -> tuple[str, list]:
        if call.code == 3:
            return UNDECIDED, [3]
        if call.code != 0:
            return ERROR, [call.code]
        out, trace = self._outputs(index, workdir)
        try:
            nf = net_mod.load(out.read_bytes())
            steps = json.loads(trace.read_text())
        except (OSError, ValueError) as exc:
            return ERROR, [call.code, type(exc).__name__]
        labels = [str(nf.edges[e]) for e in nf.conclusions]
        if nf.cut_links() or labels != slot.facts["labels"] or not isinstance(steps, list):
            return ERROR, [call.code, "bad normal form"]
        families = Counter(s.get("kind") for s in steps if isinstance(s, dict))
        return OK, [call.code, dict(sorted(families.items()))]


WORKLOADS = {w.name: w for w in (L3CutFree(), NormalizeLadder(), CheckDR())}


if __name__ == "__main__":
    print(json.dumps(WORKLOADS[sys.argv[1]].measure_shares(int(sys.argv[2]))))
