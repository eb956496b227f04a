import json

import pytest

from stratnet.cli import main
from stratnet.formula import Atom
from stratnet.net import load, nets_equal, save
from stratnet import builder

from conftest import make_unstable_membership_net, tensor_loop_net


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
# AttributeError, RecursionError) or, for the premise string, to be read as
# a list of one-letter ids and accepted.
BOUNDARY_PROBES = {
    "unparsable-label": ("label", "(X *"),
    "integer-label": ("label", 5),
    "deep-label": ("label", "!" * 5000 + "X"),
    "premises-string": ("premises", "ab"),
}


@pytest.mark.parametrize("probe", sorted(BOUNDARY_PROBES))
def test_validate_malformed_document_exits_2(tmp_path, capsys, probe):
    field, value = BOUNDARY_PROBES[probe]
    # An axiom cut against itself: a valid document once its fields are right.
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
    else:
        doc["links"][1]["premises"] = value
    p = tmp_path / "probe.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid:") and "Traceback" not in err


def test_validate_deeply_nested_json_exits_2(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text('{"edges": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["validate", str(p)]) == 2
    assert capsys.readouterr().err.startswith("invalid:")


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

    made = []
    make_test = interactive._make_test
    monkeypatch.setattr(
        interactive, "_make_test", lambda a, k, *shared: made.append(k) or make_test(a, k, *shared)
    )
    assert main(["test", "--level", "0", dereliction_file]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [lvl["k"] for lvl in doc["levels"]] == [0]
    assert made == [0]


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
    assert "joining" in capsys.readouterr().err


def test_test_command_rejects_cuts(tmp_path, capsys):
    left, _ = make_unstable_membership_net()
    p = write_net(tmp_path, "left.json", left)
    assert main(["test", p]) == 2


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
