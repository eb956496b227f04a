import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stratnet.cli import main
from stratnet.formula import Atom, dual
from stratnet.net import LINK_ARITIES, load, nets_equal, save, to_document
from stratnet import builder, rewrite

from conftest import make_id_bang, make_unstable_membership_net, paragraph_chain, tensor_loop_net


X = Atom("X")


@pytest.fixture
def dereliction_file(tmp_path, dereliction_net):
    p = tmp_path / "der.json"
    p.write_bytes(save(dereliction_net))
    return str(p)


@pytest.fixture
def shift_source_file(tmp_path, shift_source_net):
    p = tmp_path / "shiftsrc.json"
    p.write_bytes(save(shift_source_net))
    return str(p)


def write_net(tmp_path, name, net):
    p = tmp_path / name
    p.write_bytes(save(net))
    return str(p)


def test_validate_ok(tmp_path, capsys):
    p = write_net(tmp_path, "ax.json", builder.ax(X))
    assert main(["validate", p]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True


def test_validate_flat_conclusion_named(tmp_path, capsys):
    n = builder.flat_rule(builder.ax(X), 0)
    p = tmp_path / "flat.json"
    doc = __import__("stratnet.net", fromlist=["to_document"]).to_document(n)
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert "flat" in err and "e" in err


def test_validate_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{ nope")
    assert main(["validate", str(p)]) == 2
    assert "line" in capsys.readouterr().err


# Each probe used to escape cli.main as an exception (FormulaSyntaxError,
# AttributeError, RecursionError; IndexError from test on a net without
# conclusions; StepError from normalize on the axiom cut against itself), or
# to be accepted: the premise string read as a list of one-letter ids, a
# repeated edge or link merged into one.  Each is (command, field, value).
BOUNDARY_PROBES = {
    "unparsable-label": (["validate"], "label", "(X *"),
    "integer-label": (["validate"], "label", 5),
    "list-label": (["validate"], "label", ["X^"]),
    "dict-label": (["validate"], "label", {"X^": 1}),
    "deep-label": (["validate"], "label", "!" * 5000 + "X"),
    "premises-string": (["validate"], "premises", "ab"),
    "repeated-edge": (["validate"], "edges", 0),
    "repeated-link": (["validate"], "links", 0),
    "normalize-axiom-cut-with-itself": (["normalize"], None, None),
    "test-no-conclusion": (["test"], "empty", None),
    "test-level-no-conclusion": (["test", "--level", "0"], "empty", None),
    "test-tensor-loop": (["test"], "tensor-loop", None),
    "deep-derived-label": (["validate"], "paragraph-chain", 210),
}


@pytest.mark.parametrize("probe", sorted(BOUNDARY_PROBES))
def test_validate_malformed_document_exits_2(tmp_path, capsys, probe):
    command, field, value = BOUNDARY_PROBES[probe]
    # An axiom cut against itself: a valid document once its fields are
    # right, but not a switching-acyclic one.
    doc = {
        "edges": [{"id": "a", "label": "X^"}, {"id": "b", "label": "X"}],
        "links": [
            {"id": "l", "kind": "ax", "premises": [], "conclusions": ["a", "b"]},
            {"id": "c", "kind": "cut", "premises": ["a", "b"], "conclusions": []},
        ],
        "conclusions": [],
    }
    if field == "label":
        doc["edges"][0]["label"] = value
    elif field == "premises":
        doc["links"][1]["premises"] = value
    elif field == "empty":
        doc = {"edges": [], "links": [], "boxes": [], "conclusions": []}
    elif field == "tensor-loop":
        doc = to_document(tensor_loop_net())
    elif field == "paragraph-chain":
        doc = paragraph_chain(value)
    elif field is not None:
        doc[field].append(dict(doc[field][value]))
    p = tmp_path / "probe.json"
    p.write_text(json.dumps(doc))
    assert main(command + [str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid:") and "Traceback" not in err and err.count("\n") == 1


def test_index_ignores_edge_order(tmp_path, capsys):
    # Two components, one with a paragraph: each is anchored at its least
    # edge id, wherever the document lists it.
    doc = to_document(builder.mix(builder.ax(X), builder.paragraph_rule(builder.ax(X), 1)))
    p = tmp_path / "mix.json"
    outputs = []
    for edges in (doc["edges"], doc["edges"][::-1]):
        p.write_text(json.dumps({**doc, "edges": edges}))
        assert main(["index", str(p)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_validate_deeply_nested_json_exits_2(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text('{"edges": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["validate", str(p)]) == 2
    assert capsys.readouterr().err.startswith("invalid:")


def test_validate_messages_ignore_hash_seed(tmp_path):
    doc = to_document(make_id_bang(X))
    doc["boxes"][0]["contents"] += ["ghost_a", "ghost_b", "ghost_c", "ghost_d", "ghost_e"]
    p = tmp_path / "ghosts.json"
    p.write_text(json.dumps(doc))
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = set()
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-m", "stratnet.cli", "validate", str(p)], env=env, capture_output=True)
        runs.add((run.returncode, run.stderr))
    ((code, err),) = runs
    assert code == 2 and err.count(b"contents reference unknown link ghost_") == 5


def test_validate_dot_export(tmp_path, capsys):
    p = write_net(tmp_path, "ax.json", builder.ax(X))
    dot = tmp_path / "g.dot"
    assert main(["validate", "--dot", str(dot), p]) == 0
    assert dot.read_text().startswith("graph net {")


def test_check_dr(tmp_path, capsys):
    good = write_net(tmp_path, "good.json", builder.ax(X))
    assert main(["check", "--criterion", "dr", good]) == 0
    bad = write_net(tmp_path, "bad.json", tensor_loop_net())
    assert main(["check", "--criterion", "dr", bad]) == 1
    out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert out[-1]["holds"] is False and out[-1]["witness"]["cycle_edges"]


def test_check_proofnet(tmp_path, par_shift_net, capsys):
    p = write_net(tmp_path, "shift.json", par_shift_net)
    assert main(["check", "--criterion", "proofnet", p]) == 1
    good = write_net(tmp_path, "ax.json", builder.ax(X))
    assert main(["check", "--criterion", "proofnet", good]) == 0


def test_index_shift_source(shift_source_file, capsys):
    assert main(["index", "--flavor", "exponential", shift_source_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["flavor"] == "exponential" and doc["assignment"]
    assert main(["index", "--flavor", "plain", "--strong", shift_source_file]) == 1
    witness = json.loads(capsys.readouterr().out)
    assert witness["kind"] == "path" and witness["balance"] == 1


def test_index_axiom_all_zero(tmp_path, capsys):
    p = write_net(tmp_path, "ax.json", builder.ax(X))
    assert main(["index", "--flavor", "plain", p]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["assignment"].values()) == {0}


def test_l3_dereliction_unanimous(dereliction_file, capsys):
    assert main(["l3", "--method", "all", dereliction_file]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdicts"] == {"indexing": False, "geometric": False, "interactive": False}


def test_l3_shift_source_member(shift_source_file):
    assert main(["l3", "--method", "all", shift_source_file]) == 0


def test_l3_interactive_rejects_cuts(tmp_path, capsys):
    left, _ = make_unstable_membership_net()
    p = write_net(tmp_path, "left.json", left)
    assert main(["l3", "--method", "interactive", p]) == 2
    assert "normalize" in capsys.readouterr().err
    assert main(["l3", "--method", "indexing", p]) == 1


def test_l3_marks_a_net_with_cuts_invalid(tmp_path, capsys):
    # the exit-2 line for a net with cuts carries the invalid: marker of
    # l3's other exit-2 lines, and l3 goes on to the next file
    cut = str(tmp_path / "cut.json")
    g = str(tmp_path / "g.json")
    main(["gen", "--seed", "3", "--size", "12", "--cut-bias", "0.5", "-o", cut])
    main(["gen", "--seed", "3", "--size", "12", "--cut-bias", "0", "-o", g])
    capsys.readouterr()
    assert main(["l3", "--method", "all", cut, g]) == 2
    out, err = capsys.readouterr()
    assert [json.loads(line)["file"] for line in out.splitlines()] == [g]
    assert err == f"{cut}: invalid: the interactive method needs a cut-free net; run normalize first\n"


def test_l3_marks_a_net_that_is_not_switching_acyclic_invalid(tmp_path, capsys):
    loop = write_net(tmp_path, "loop.json", tensor_loop_net())
    g = write_net(tmp_path, "g.json", builder.ax(X))
    assert main(["l3", "--method", "all", loop, g]) == 2
    out, err = capsys.readouterr()
    assert [json.loads(line)["file"] for line in out.splitlines()] == [g]
    assert err == f"{loop}: invalid: not a DR-net, membership is undefined\n"


def test_l3_goes_on_after_a_net_without_conclusion(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"edges":[],"links":[],"boxes":[],"conclusions":[]}')
    g = str(tmp_path / "g.json")
    main(["gen", "--seed", "3", "--size", "12", "--cut-bias", "0", "-o", g])
    assert main(["l3", "--method", "all", str(empty), g]) == 2
    out, err = capsys.readouterr()
    assert [json.loads(line)["file"] for line in out.splitlines()] == [g]
    assert err == f"{empty}: invalid: the interactive method needs a net with a conclusion\n"
    for method in ("indexing", "geometric"):
        assert main(["l3", "--method", method, str(empty)]) == 0
        assert json.loads(capsys.readouterr().out)["verdicts"] == {method: True}


def test_normalize_then_member(tmp_path, capsys):
    left, right = make_unstable_membership_net()
    p = write_net(tmp_path, "left.json", left)
    out = str(tmp_path / "nf.json")
    assert main(["normalize", p, "-o", out]) == 0
    assert main(["l3", "--method", "all", out]) == 0
    result = load(open(out, "rb").read())
    assert nets_equal(result, right)


def test_normalize_cut_free_is_canonical_bytes(tmp_path, capsys):
    n = builder.random_net(8, builder.GenParams(target_size=12, cut_bias=0))
    p = write_net(tmp_path, "n.json", n)
    assert main(["normalize", p]) == 0
    out = capsys.readouterr().out.strip().encode()
    assert out == save(n).strip()


def test_normalize_strategies_agree(tmp_path):
    n = builder.random_net(77, builder.GenParams(target_size=16, cut_bias=0.5))
    p = write_net(tmp_path, "n.json", n)
    results = []
    for strat in ("lo", "in", "level"):
        out = str(tmp_path / f"nf_{strat}.json")
        assert main(["normalize", "--strategy", strat, p, "-o", out]) == 0
        results.append(load(open(out, "rb").read()))
    assert nets_equal(results[0], results[1]) and nets_equal(results[1], results[2])


def test_normalize_trace_output(tmp_path):
    left, _ = make_unstable_membership_net()
    p = write_net(tmp_path, "left.json", left)
    trace = tmp_path / "trace.json"
    assert main(["normalize", p, "-o", str(tmp_path / "nf.json"), "--trace", str(trace)]) == 0
    doc = json.loads(trace.read_text())
    assert doc and all({"cut", "kind", "lift"} == set(step) for step in doc)


def test_normalize_budget_env(tmp_path, monkeypatch, capsys):
    left, _ = make_unstable_membership_net()
    p = write_net(tmp_path, "left.json", left)
    monkeypatch.setenv("STRATNET_BUDGET", "1")
    assert main(["normalize", p]) == 3
    assert "undecided" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["l3", "normalize", "test"])
@pytest.mark.parametrize("raw", ["abc", "-1", "1.5", "²"])
def test_bad_budget_env_exits_2(dereliction_file, monkeypatch, capsys, command, raw):
    # a budget that is not a non-negative integer is a usage error, not a
    # silent default or a budget that undecides every reduction
    monkeypatch.setenv("STRATNET_BUDGET", raw)
    assert main([command, dereliction_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid: STRATNET_BUDGET") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, option", [("normalize", "-o"), ("normalize", "--trace"), ("gen", "-o"), ("validate", "--dot")]
)
def test_unwritable_output_path_exits_2(dereliction_file, tmp_path, capsys, command, option):
    # an output path in a missing folder is invalid input: one line, exit 2,
    # not a traceback and the exit code of a failed property
    missing = str(tmp_path / "missing" / "out")
    rest = ["--seed", "1"] if command == "gen" else [dereliction_file]
    assert main([command, option, missing, *rest]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid: ") and missing in err and err.count("\n") == 1


@pytest.mark.parametrize("to_file", [True, False], ids=["output-file", "stdout"])
def test_normalize_writes_nothing_when_the_trace_path_fails(dereliction_file, tmp_path, capsys, to_file):
    # both outputs are opened before either is written, so a trace path in
    # a missing folder leaves no normal form behind
    out = tmp_path / "nf.json"
    argv = ["normalize", dereliction_file, "--trace", str(tmp_path / "missing" / "t.json")]
    assert main(argv + (["-o", str(out)] if to_file else [])) == 2
    assert not out.exists() and capsys.readouterr().out == ""


@pytest.mark.parametrize("other_exists", [False, True], ids=["other-new", "other-existing"])
@pytest.mark.parametrize("failing", ["-o", "--trace"])
def test_failed_normalize_leaves_every_path_as_it_was(dereliction_file, tmp_path, capsys, failing, other_exists):
    # whichever output path fails, the other output is neither created nor
    # truncated
    other = tmp_path / "other.json"
    if other_exists:
        other.write_bytes(b"old bytes")
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    paths = {"-o": str(other), "--trace": str(other)}
    paths[failing] = str(tmp_path / "missing" / "out.json")
    argv = ["normalize", dereliction_file, *(x for option_path in paths.items() for x in option_path)]
    assert main(argv) == 2
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert capsys.readouterr().out == ""


def test_normalize_replaces_longer_existing_outputs(tmp_path):
    # outputs opened without truncation are still emptied before writing
    left, _ = make_unstable_membership_net()
    p = write_net(tmp_path, "left.json", left)
    fresh = [tmp_path / "nf.json", tmp_path / "t.json"]
    stale = [tmp_path / "old-nf.json", tmp_path / "old-t.json"]
    for path in stale:
        path.write_bytes(b"x" * 100_000)
    for nf, trace in (fresh, stale):
        assert main(["normalize", p, "-o", str(nf), "--trace", str(trace)]) == 0
    assert [path.read_bytes() for path in stale] == [path.read_bytes() for path in fresh]


def test_normalize_writes_to_character_devices(dereliction_file, capsys):
    # a device is written, not truncated: ftruncate fails on one
    assert main(["normalize", dereliction_file, "-o", os.devnull, "--trace", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


def test_closed_stdout_pipe_exits_141_quietly():
    # the reading end is closed before the writer writes: no invalid: line,
    # no traceback, and the code a shell reports for a writer SIGPIPE ended
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "stratnet.cli", "gen", "--seed", "3", "--size", "12"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["gen", "--seed", "5", "--size", "18", "--cut-bias", "0.3"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_size_zero(tmp_path, capsys):
    assert main(["gen", "--seed", "1", "--size", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["links"]) <= 1


def test_gen_then_dr(tmp_path):
    for seed in range(5):
        out = str(tmp_path / f"g{seed}.json")
        assert main(["gen", "--seed", str(seed), "--size", "20", "-o", out]) == 0
        assert main(["check", "--criterion", "dr", out]) == 0


def test_test_command_identity(tmp_path, capsys):
    from stratnet.interactive import identity_net
    from stratnet.net import parr_closure

    p = write_net(tmp_path, "id.json", parr_closure(identity_net(Atom("Z"))))
    assert main(["test", p]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["member"] is True


def test_test_command_dereliction(dereliction_file, capsys):
    assert main(["test", dereliction_file]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert any(not lvl["pass"] and lvl["swapped_sites"] >= 1 for lvl in doc["levels"])


def test_test_command_single_level(dereliction_file, capsys, monkeypatch):
    from stratnet import interactive

    derived = []
    report = interactive.LevelReport
    monkeypatch.setattr(
        interactive, "LevelReport", lambda k, *shared: derived.append(k) or report(k, *shared)
    )
    assert main(["test", "--level", "0", dereliction_file]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [lvl["k"] for lvl in doc["levels"]] == [0]
    assert derived == [0]


@pytest.mark.parametrize("level", ["99", "-1"])
def test_test_command_rejects_level_out_of_range(tmp_path, capsys, level):
    p = str(tmp_path / "g.json")
    assert main(["gen", "--seed", "3", "--size", "10", "--cut-bias", "0", "-o", p]) == 0
    assert main(["test", "--level", level, p]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{level} is not a level" in captured.err


def test_test_command_autocloses(tmp_path, capsys):
    p = write_net(tmp_path, "ax.json", builder.ax(X))
    assert main(["test", p]) == 0
    assert "note: reporting the par-closure of 2 conclusions" in capsys.readouterr().err


def test_test_command_on_atomic_conclusions(tmp_path, capsys):
    # both conclusions of an axiom are atomic, so neither gets a test, yet
    # their ends sit at level 0, the axiom's one level
    p = write_net(tmp_path, "ax.json", builder.ax(X))
    assert main(["test", "--level", "0", p]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["member"], doc["levels"]) == (True, [{"k": 0, "pass": True, "swapped_sites": 0}])
    assert main(["test", "--level", "1", p]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "1 is not a level of (X^ @ X); its levels are [0]" in captured.err


WIDE_COMMANDS = (
    ["l3", "--method", "all"],
    ["l3", "--method", "interactive"],
    ["test"],
    ["test", "--level", "0"],
    ["check", "--criterion", "dr"],
    ["normalize"],
)


WIDE_NETS = ("axioms", "gen")


def wide_net(name: str):
    """1,000 juxtaposed axioms (2,000 conclusions), or the net of gen
    --seed 1 --size 3000 --cut-bias 0 (1,821 conclusions)."""
    if name == "axioms":
        ws = rewrite._Workspace()  # one workspace: a chain of mix calls copies the net each time
        for _ in range(1_000):
            ws.absorb(builder.ax(X))
        return ws.freeze()
    return builder.random_net(1, builder.GenParams(target_size=3000, cut_bias=0))


@pytest.mark.parametrize("name", WIDE_NETS)
def test_wide_documents_keep_the_exit_contract(tmp_path, capsys, name):
    # a closed formula nests one level per conclusion, far past the
    # recursion limit, and no command may build one
    p = write_net(tmp_path, f"{name}.json", wide_net(name))
    for command in WIDE_COMMANDS:
        assert main(command + [p]) in (0, 1), command
        out = capsys.readouterr().out
        if command[-1] == "all":
            assert set(json.loads(out)["verdicts"]) == {"indexing", "geometric", "interactive"}


def test_test_command_rejects_cuts(tmp_path, capsys):
    left, _ = make_unstable_membership_net()
    generated = str(tmp_path / "g.json")
    assert main(["gen", "--seed", "3", "--size", "12", "--cut-bias", "0.5", "-o", generated]) == 0
    for p in (write_net(tmp_path, "left.json", left), generated):
        capsys.readouterr()
        assert main(["test", p]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid:") and err.count("\n") == 1


def test_several_files(tmp_path, capsys):
    files = []
    for seed in range(4):
        out = str(tmp_path / f"g{seed}.json")
        main(["gen", "--seed", str(seed), "--size", "10", "--cut-bias", "0", "-o", out])
        files.append(out)
    codes = [main(["l3", "--method", "geometric", p]) for p in files]
    capsys.readouterr()
    assert main(["l3", "--method", "geometric"] + files) == max(codes)
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["file"] for line in lines] == files


def test_parser_built_once():
    from stratnet.cli import build_parser

    assert build_parser() is build_parser()


def test_pretty_flag_both_positions(tmp_path, capsys):
    p = write_net(tmp_path, "ax.json", builder.ax(X))
    assert main(["--pretty", "validate", p]) == 0
    first = capsys.readouterr().out
    assert main(["validate", "--pretty", p]) == 0
    second = capsys.readouterr().out
    assert first == second and "\n  " in first


def test_check_budget_exit(tmp_path, monkeypatch, capsys):
    # five pars make 32 switchings; the switching check has no budget, so a
    # step budget of 4 leaves it decided (exit 3 is the rewrite budget's,
    # see test_normalize_budget_env)
    n = builder.par_rule(builder.ax(X), 0, 1)
    for _ in range(4):
        n = builder.mix(n, builder.par_rule(builder.ax(X), 0, 1))
    p = write_net(tmp_path, "wide.json", n)
    monkeypatch.setenv("STRATNET_BUDGET", "4")
    assert main(["check", "--criterion", "dr", p]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True


def test_check_decides_net_with_millions_of_switchings(tmp_path, capsys):
    # 168 links and 6.3M switchings at depth zero, more than an enumeration
    # could visit; both criteria still come back decided
    p = str(tmp_path / "big.json")
    assert main(["gen", "--seed", "1", "--size", "160", "--cut-bias", "0.4", "-o", p]) == 0
    capsys.readouterr()
    assert main(["check", "--criterion", "dr", p]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True
    assert main(["check", "--criterion", "proofnet", p]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds"] is False
    assert doc["witness"]["kind"] == "path" and doc["witness"]["weights"] == "plain"


# stdout of test --level K and of test as the per-level decider printed it;
# the decider now reduces once per check
GEN_7_FORMULA = (
    "(Z @ (#?Z^ @ (X @ (#X^ @ (bot @ (X^ @ (X @ ((1 * (X * X^)) @ "
    "(X^ @ (Y @ (Z @ (X * (Y^ * Z^)))))))))))))"
)
TEST_STDOUT = {
    ("dereliction", None): '{"formula":"(?X^ @ X)","member":false,"levels":'
    '[{"k":0,"pass":false,"swapped_sites":1},{"k":1,"pass":false,"swapped_sites":1}]}\n',
    ("dereliction", "1"): '{"formula":"(?X^ @ X)","member":false,"levels":'
    '[{"k":1,"pass":false,"swapped_sites":1}]}\n',
    ("shift-source", None): '{"formula":"(?X^ @ #X)","member":true,"levels":'
    '[{"k":0,"pass":true,"swapped_sites":0},{"k":1,"pass":true,"swapped_sites":0}]}\n',
    ("gen-7", None): '{"formula":"' + GEN_7_FORMULA + '","member":false,"levels":[{"k":0,"pass":false,'
    '"swapped_sites":2},{"k":1,"pass":false,"swapped_sites":1},{"k":2,"pass":false,"swapped_sites":1}]}\n',
    ("gen-7", "0"): '{"formula":"' + GEN_7_FORMULA + '","member":false,"levels":'
    '[{"k":0,"pass":false,"swapped_sites":2}]}\n',
}


@pytest.mark.parametrize("name, level", sorted(TEST_STDOUT, key=str))
def test_test_command_stdout_unchanged(tmp_path, capsys, name, level, dereliction_net, shift_source_net):
    net = {
        "dereliction": dereliction_net,
        "shift-source": shift_source_net,
        "gen-7": builder.random_net(7, builder.GenParams(target_size=16, cut_bias=0, exponential_bias=0.5)),
    }[name]
    p = write_net(tmp_path, f"{name}.json", net)
    expected = TEST_STDOUT[name, level]
    assert main(["test", p] + (["--level", level] if level else [])) == (0 if '"member":true' in expected else 1)
    assert capsys.readouterr().out == expected


def identity_reduction_steps(net) -> int:
    """Steps of the net, eta-expanded, with each conclusion cut against the
    identity net of its formula: the one reduction of the interactive
    check."""
    from stratnet.interactive import cut_compose, eta_expand, identity_net
    from stratnet.rewrite import normalize

    tests = [identity_net(net.edges[e].formula) for e in net.conclusions]
    return len(normalize(cut_compose(eta_expand(net), tests))[1].steps)


@pytest.mark.parametrize("name, code", [("dereliction", 1), ("shift-source", 0)])
def test_test_command_budget_bounds_the_identity_reduction(
    tmp_path, capsys, monkeypatch, name, code, dereliction_net, shift_source_net
):
    # STRATNET_BUDGET bounds the one reduction, of the undoubled net
    # against the identity test, whatever the levels tested: exit 3 one
    # step short of it, decided at it
    from stratnet.net import parr_closure

    net = parr_closure({"dereliction": dereliction_net, "shift-source": shift_source_net}[name])
    steps = identity_reduction_steps(net)
    p = write_net(tmp_path, f"{name}.json", net)
    for level in ([], ["--level", "0"]):
        monkeypatch.setenv("STRATNET_BUDGET", str(steps - 1))
        assert main(["test", p] + level) == 3
        assert "undecided" in capsys.readouterr().err
        monkeypatch.setenv("STRATNET_BUDGET", str(steps))
        assert main(["test", p] + level) == code


@pytest.mark.parametrize("name, code", [("dereliction", 1), ("shift-source", 0)])
def test_l3_budget_bounds_the_identity_reduction(
    tmp_path, capsys, monkeypatch, name, code, dereliction_net, shift_source_net
):
    # the same boundary for l3 --method interactive, which cuts each
    # conclusion against the identity test of its formula instead of
    # closing the net
    net = {"dereliction": dereliction_net, "shift-source": shift_source_net}[name]
    steps = identity_reduction_steps(net)
    p = write_net(tmp_path, f"{name}.json", net)
    monkeypatch.setenv("STRATNET_BUDGET", str(steps - 1))
    assert main(["l3", "--method", "interactive", p]) == 3
    assert capsys.readouterr().err.startswith(f"{p}: undecided: ")
    monkeypatch.setenv("STRATNET_BUDGET", str(steps))
    assert main(["l3", "--method", "interactive", p]) == code
    assert json.loads(capsys.readouterr().out)["verdicts"] == {"interactive": code == 0}


# -- the input boundary, fuzzed --------------------------------------------------

FUZZ_COMMANDS = (
    ["validate"],
    ["check", "--criterion", "proofnet"],
    ["index", "--strong", "--flavor", "exponential"],
    ["l3"],
    ["normalize"],
    ["test"],
)
IDS = st.sampled_from(["a", "b", "c", "e0", "e1", "l0", "l1"])
LABELS = st.sampled_from(["X", "X^", "1", "bot", "(X * X^)", "(X^ @ X)", "!X", "?X^", "#X", "[X]"])
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)
RANDOM_DOCUMENTS = st.fixed_dictionaries(
    {
        "edges": st.lists(st.fixed_dictionaries({"id": IDS, "label": LABELS}), max_size=5),
        "links": st.lists(
            st.fixed_dictionaries(
                {
                    "id": IDS,
                    "kind": st.sampled_from(sorted(LINK_ARITIES)),
                    "premises": st.lists(IDS, max_size=3),
                    "conclusions": st.lists(IDS, max_size=2),
                }
            ),
            max_size=5,
        ),
        "boxes": st.lists(
            st.fixed_dictionaries(
                {"principal": IDS, "auxiliaries": st.lists(IDS, max_size=2), "contents": st.lists(IDS, max_size=3)}
            ),
            max_size=1,
        ),
        "conclusions": st.lists(IDS, max_size=3),
    }
)


@st.composite
def mutated_documents(draw):
    """A generated net's document after one to three edits: two premise
    slots exchanged, two conclusions joined by a new well-typed cut, tensor
    or par, an entry dropped, repeated or replaced by junk, or a field of an
    entry replaced."""
    params = builder.GenParams(target_size=draw(st.integers(1, 12)), cut_bias=draw(st.sampled_from([0.0, 0.4])))
    net = builder.random_net(draw(st.integers(0, 9999)), params)
    doc = to_document(net)
    ids = [x["id"] for x in doc["edges"] + doc["links"]]
    for n in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["exchange", "join", "exchange", "join", "drop", "repeat", "junk", "field"]))
        part = doc[draw(st.sampled_from(["edges", "links", "boxes", "conclusions"]))]
        if edit == "exchange":
            slots = [(x, i) for x in doc["links"] if type(x) is dict and type(x.get("premises")) is list
                     for i in range(len(x["premises"]))]
            if slots:
                (x, i), (y, j) = draw(st.sampled_from(slots)), draw(st.sampled_from(slots))
                x["premises"][i], y["premises"][j] = y["premises"][j], x["premises"][i]
        elif edit == "join":
            free = [e for e in net.conclusions if e in doc["conclusions"] and not net.edges[e].flat]
            kind = draw(st.sampled_from(["cut", "tensor", "par"]))
            a = draw(st.sampled_from(free)) if free else None
            partners = [e for e in free if e != a and (kind != "cut" or net.edges[e].formula == dual(net.edges[a].formula))]
            if partners:
                b = draw(st.sampled_from(partners))
                out = [] if kind == "cut" else [f"j{n}"]
                op = "*" if kind == "tensor" else "@"
                doc["edges"] += [{"id": e, "label": f"({net.edges[a]} {op} {net.edges[b]})"} for e in out]
                doc["links"].append({"id": f"k{n}", "kind": kind, "premises": [a, b], "conclusions": out})
                doc["conclusions"] = [e for e in doc["conclusions"] if e not in (a, b)] + out
        elif part:
            i = draw(st.integers(0, len(part) - 1))
            if edit == "drop":
                part.pop(i)
            elif edit == "repeat":
                part.append(json.loads(json.dumps(part[i])))
            elif edit == "junk":
                part[i] = draw(JUNK)
            elif type(part[i]) is dict and part[i]:
                part[i][draw(st.sampled_from(sorted(part[i])))] = draw(
                    st.sampled_from(ids) | st.lists(st.sampled_from(ids), max_size=3) | LABELS | JUNK
                )
    return doc


@settings(max_examples=1000, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.one_of(RANDOM_DOCUMENTS, mutated_documents(), mutated_documents()))
def test_every_command_exits_0_to_3_on_any_document(doc):
    # the exit-code contract on hostile input: 0-3, never a traceback; each
    # failure found here is kept as a probe in BOUNDARY_PROBES; the commands
    # that take several files decide a valid net given after the document
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"STRATNET_BUDGET": "200"}):
        path, valid = os.path.join(tmp, "doc.json"), os.path.join(tmp, "valid.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with open(valid, "wb") as fh:
            fh.write(save(builder.ax(X)))
        for command in FUZZ_COMMANDS:
            several = command[0] in ("l3", "check")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(command + [path] + [valid] * several)
            assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue(), (command, code, err.getvalue())
            if several:
                lines = out.getvalue().splitlines()
                assert lines and json.loads(lines[-1])["file"] == valid, (command, code, err.getvalue())
