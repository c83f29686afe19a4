import json
import time

import pytest

from horocp.cli import render_json, run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_render_json_is_deterministic():
    doc = {"b": 2.0, "a": [0.1, True, None, "x"], "c": {"z": 1, "y": 3.5}}
    text = render_json(doc)
    assert text == '{"a":[0.10000000000000001,true,null,"x"],"b":2,"c":{"y":3.5,"z":1}}'
    assert json.loads(text) == {
        "a": [0.1, True, None, "x"], "b": 2, "c": {"y": 3.5, "z": 1}
    }


def test_separate_command(capsys):
    code, out, _ = run_cli(capsys, "separate", "--group", "Z2", "--gens", "diamond")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "separate"
    assert doc["result"]["separated"] is True
    assert doc["result"]["rank"] == 2


def test_separate_central_table(capsys):
    code, out, _ = run_cli(capsys, "separate", "--group", "Z", "--table", "central:10000")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["separated"] is False
    assert doc["result"]["sublinearity"]["ratio_at_horizon"] == pytest.approx(0.04)


def test_verify_cocycle_h3(capsys):
    code, out, err = run_cli(capsys, "verify", "cocycle", "--group", "H3",
                             "--radius", "8", "--pair-radius", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["passed"] is True
    assert doc["result"]["checks"][0]["residual"] == 0
    assert "statement" in doc["result"]["checks"][0]
    assert "[pass] cocycle" in err


def test_group_ball_and_cap_exit(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "group-ball", "--group", "Z2", "--radius", "3")
    assert code == 0
    assert json.loads(out)["result"]["size"] == 25
    code, out, err = run_cli(capsys, "group-ball", "--group", "Z2", "--radius", "40",
                             "--cap", "100")
    assert code == 2
    assert "cap" in json.loads(out)["diagnostics"]


def test_phi_command(capsys):
    code, out, _ = run_cli(capsys, "phi", "--group", "Z", "--g", "2", "--radius", "6")
    assert code == 0
    values = dict()
    for coords, value in json.loads(out)["result"]["values"]:
        values[tuple(coords)] = value
    assert values[(5,)] == 2


def test_busemann_command(capsys):
    code, out, _ = run_cli(capsys, "busemann", "--group", "Z2", "--g", "1,0",
                           "--direction", "1/2,1/2", "--steps", "16")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["value"] == 1
    assert doc["result"]["tail_variation"] == 0
    code, out, _ = run_cli(capsys, "busemann", "--group", "H3", "--g", "a",
                           "--word", "a,b", "--steps", "6")
    assert code == 0
    assert json.loads(out)["result"]["value"] == 1


def test_stable_norm_command(capsys):
    code, out, _ = run_cli(capsys, "stable-norm", "--group", "Z2", "--gens", "hexagonal",
                           "--point", "2,1", "--horizon", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["dual_norm"] == "2"
    assert doc["result"]["agreement_gap"] <= doc["result"]["fekete_gap"] + 1e-9


def test_mk_distance_command(capsys):
    code, out, _ = run_cli(capsys, "mk-distance", "--cyclic-order", "2",
                           "--lengths", "0,1", "--state-a", "char:0",
                           "--state-b", "char:1", "--brute-force")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["lower_bound"] == pytest.approx(2.0, abs=1e-6)
    assert doc["result"]["brute_force"] == pytest.approx(2.0, abs=1e-4)


@pytest.mark.parametrize("flag", [("--restarts", "0"), ("--iters", "-1")])
def test_mk_distance_rejects_empty_search(capsys, flag):
    # --restarts 0 used to die with an IndexError traceback (exit 1)
    code, out, err = run_cli(capsys, "mk-distance", "--cyclic-order", "3",
                             "--lengths", "0,1,1", "--state-a", "char:0",
                             "--state-b", "char:1", *flag)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_af_triple_command(capsys):
    code, out, _ = run_cli(capsys, "af-triple", "--orders", "2,2,2",
                           "--eigenvalues", "0,1,2,3")
    assert code == 0
    assert json.loads(out)["result"]["checks"][0]["passed"] is True


def test_af_triple_command_runs_at_dim_32768(capsys):
    # orders 8,8,8,8,8 were refused while the filtration stored six dense projections
    code, out, _ = run_cli(capsys, "af-triple", "--orders", "8,8,8,8,8",
                           "--eigenvalues", "0,1,2,3,4,5")
    assert code == 0
    check = json.loads(out)["result"]["checks"][0]
    assert check["passed"] is True
    assert check["details"]["ranks"] == [1, 7, 56, 448, 3584, 28672]


def test_af_triple_over_cap_is_refused(capsys):
    # three test blocks of 2^24 x 2 complex entries
    code, out, err = run_cli(capsys, "af-triple", "--orders", "4096,4096",
                             "--eigenvalues", "0,1,2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "nonzero cap" in err


def test_usage_errors(capsys):
    assert run([]) == 2
    assert run(["bogus"]) == 2
    assert run(["group-ball", "--group", "Z2", "--radius", "3", "--unknown-flag"]) == 2
    code, _, err = run_cli(capsys, "group-ball", "--group", "Q7", "--radius", "2")
    assert code == 2 and "unknown group" in err


def test_axioms_failure_exit_code(capsys, tmp_path):
    table = tmp_path / "table.txt"
    lines = ["0:0"]
    for k in range(1, 7):
        lines.append(f"{k}:{k}")
        lines.append(f"{-k}:{k}")
    lines[lines.index("2:2")] = "2:9"  # corrupt one entry
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "axioms", "--group", "Z",
                           "--table-file", str(table), "--radius", "6")
    assert code == 1
    doc = json.loads(out)
    assert doc["result"]["passed"] is False
    assert doc["result"]["checks"][0]["residual"] > 0


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group=Z2\n# comment\ngens=hexagonal\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "facets", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["result"]["count"] == 6


def test_config_supplies_required_flag(capsys, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("radius=3\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "group-ball", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["result"]["size"] == 25
    code, out, _ = run_cli(capsys, "group-ball", "--config", str(cfg), "--radius", "1")
    assert code == 0
    assert json.loads(out)["result"]["size"] == 5  # the explicit flag wins
    cfg.write_text("radius=3\nbogus=1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "group-ball", "--config", str(cfg))
    assert code == 2 and "bogus" in err


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "res.json"
    code = run(["facets", "--group", "Z2", "--output", str(out_path)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out_path.read_text())["result"]["count"] == 4


def test_verify_single_checks_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "commutator", "--group", "Z",
                             "--count", "3", "--seed", "5")
    code2, out2, _ = run_cli(capsys, "verify", "commutator", "--group", "Z",
                             "--count", "3", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ("--group", "C6", "--count", "2"),
    ("--group", "Z2xC3", "--count", "1", "--radius", "2"),
])
def test_verify_conjugation_on_torsion_groups(capsys, argv):
    code, out, _ = run_cli(capsys, "verify", "conjugation", *argv)
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True


@pytest.mark.parametrize("argv", [
    ("--group", "H3", "--radius", "4", "--count", "1"),
    ("--group", "Z2", "--radius", "6", "--count", "1"),
    ("--group", "Z2", "--gens", "hexagonal", "--radius", "3"),
    (),
], ids=["h3-radius-4", "z2-radius-6", "z2-hexagonal-radius-3", "defaults"])
def test_verify_conjugation_beyond_the_old_dense_cap(capsys, argv):
    # doubled spaces of dimension 2,738 to 42,050: the check forms no matrix
    # of that size, only index maps and d x d blocks
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "conjugation", *argv)
    assert time.perf_counter() - started < 5.0
    assert code == 0, err
    assert json.loads(out)["result"]["passed"] is True


@pytest.mark.parametrize("argv", [
    ("commutator", "--group", "Z2", "--gens", "hexagonal", "--count", "2"),
    ("conjugation", "--group", "Z2", "--gens", "hexagonal", "--radius", "2", "--count", "2"),
])
def test_verify_with_generators_outside_the_action(capsys, argv):
    # the action has unitaries for +-e1, +-e2 only; W extends along their
    # geodesic words, not the hexagonal ones
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 0, err
    assert json.loads(out)["result"]["passed"] is True


@pytest.mark.parametrize("value", ["5e6", "abc"])
def test_malformed_cap_environment_is_a_usage_error(capsys, monkeypatch, value):
    # the variable is --cap's default, converted by argparse only when a
    # subcommand parses: --version ignores it, a subcommand exits 2 naming it
    monkeypatch.setenv("HOROCP_CAP", value)
    assert run(["--version"]) == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, "group-ball", "--group", "Z2", "--radius", "3")
    assert code == 2 and out == ""
    assert "HOROCP_CAP" in err and repr(value) in err


def test_cap_environment_sets_the_default(capsys, monkeypatch):
    monkeypatch.setenv("HOROCP_CAP", "100")
    code, out, _ = run_cli(capsys, "group-ball", "--group", "Z2", "--radius", "40")
    assert code == 2
    assert json.loads(out)["inputs"]["cap"] == 100
    code, out, _ = run_cli(capsys, "group-ball", "--group", "Z2", "--radius", "3", "--cap", "30")
    assert code == 0 and json.loads(out)["inputs"]["cap"] == 30


@pytest.mark.parametrize("argv, message", [
    (("nctorus", "--q", "0", "--radius", "2"), "q = 0"),
    (("nctorus", "--q", "3", "--n-min", "5", "--n-max", "4"), "range(5, 5) is empty"),
    (("verify", "tail-bound", "--count", "0"), "--count: must be at least 1, got 0"),
    (("verify", "tail-bound", "--count", "-2"), "--count: must be at least 1, got -2"),
    (("verify", "cocycle", "--pairs", "0"), "--pairs: must be at least 1, got 0"),
    (("group-ball", "--group", "Z", "--radius", "3", "--sample", "-2"),
     "--sample: must be at least 0, got -2"),
    (("group-ball", "--radius", "nan"), "radius must be non-negative, got nan"),
    (("phi", "--g", "1", "--radius", "nan"), "radius must be non-negative, got nan"),
    (("verify", "commutator", "--radius", "nan"), "radius must be non-negative, got nan"),
])
def test_malformed_check_arguments_are_usage_errors(capsys, argv, message):
    # unrefused, q = 0 raised ZeroDivisionError, an empty n range printed "min()
    # arg is an empty sequence", --count 0 and --pairs 0 passed with no check
    # run, --sample -2 dropped the last two of the first elements, and a NaN
    # radius failed with "cannot convert float NaN to integer"
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "error:" in err and message in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (("af-triple", "--orders", "2,2", "--eigenvalues", "0,1,nan"), "eigenvalues must be finite"),
    (("af-triple", "--orders", "2,2", "--eigenvalues", "0,1,inf"), "eigenvalues must be finite"),
    (("mk-distance", "--cyclic-order", "2", "--lengths", "0,nan", "--state-a", "char:0",
      "--state-b", "char:1"), "lengths must be finite"),
    (("mk-distance", "--cyclic-order", "3", "--lengths", "0,1,1", "--state-a", "char:0",
      "--state-b", "vector:0,0,0"), "needs a nonzero finite vector"),
    (("mk-distance", "--cyclic-order", "3", "--lengths", "0,1,1", "--state-a", "vector:1,nan,0",
      "--state-b", "char:1"), "needs a nonzero finite vector"),
    (("mk-distance", "--cyclic-order", "3", "--lengths", "0,1,1", "--state-a", "char:0",
      "--state-b", "vector:1,0"), "needs 3 entries"),
])
def test_non_finite_triple_inputs_are_usage_errors(capsys, argv, message):
    # unrefused, a NaN eigenvalue failed in render_json with a traceback, a
    # NaN length or a zero state vector with "SVD did not converge", and a
    # state vector of the wrong length with numpy's matmul mismatch
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "error:" in err and message in err and "Traceback" not in err


SMALL_NCTORUS = ("nctorus", "--q", "3", "--radius", "2", "--n-min", "-1", "--n-max", "1")


@pytest.mark.parametrize("argv, flag", [
    (SMALL_NCTORUS + ("--norm", "l1"), "--norm l1"),
    (("af-triple", "--orders", "2,2", "--eigenvalues", "0,1,2", "--group", "Z2"), "--group Z2"),
    (("mk-distance", "--cyclic-order", "2", "--lengths", "0,1", "--state-a", "char:0",
      "--state-b", "char:1", "--table", "central:10"), "--table central:10"),
    (("facets", "--group", "Z2", "--table-file", "t.txt"), "--table-file t.txt"),
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, tmp_path, argv, flag):
    # before, each was accepted and ignored: nctorus --norm l1 ran over Z's
    # word length and exited 0
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"error: unrecognized arguments: {flag}" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(flag.lstrip("-").replace(" ", "=", 1) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, *argv[:-2], "--config", str(cfg))
    assert code == 2 and out == ""
    assert "matches no flag" in err
    # --seed and --cap stay on every subcommand: "inputs" prints them
    code, out, _ = run_cli(capsys, *argv[:-2], "--seed", "3", "--cap", "1000")
    assert code == 0
    assert {k: json.loads(out)["inputs"][k] for k in ("seed", "cap")} == {"seed": 3, "cap": 1000}


def test_conjugation_refuses_an_asymmetric_table(capsys, tmp_path):
    # l(-k) = k + 1: 4 lies in the radius-4 ball but -4 does not, so W(4^-1)
    # is not in the ball's stack
    table = tmp_path / "asymmetric.txt"
    table.write_text("0:0\n" + "".join(f"{k}:{k}\n{-k}:{k + 1}\n" for k in range(1, 40)))
    code, out, err = run_cli(capsys, "verify", "conjugation", "--group", "Z",
                             "--table-file", str(table), "--count", "1", "--radius", "4")
    assert code == 2 and out == ""
    assert "not symmetric" in err
