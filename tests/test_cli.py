"""Command-line driver: subcommands, exit codes, report format."""

from __future__ import annotations

import json
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from pmasafety import cli, oracle
from pmasafety.cli import main
from pmasafety.oracle import ConcreteConfig
from pmasafety.models import fixture_text

GOLDEN = Path(__file__).parent / "data" / "cannon.mcmt"


@pytest.fixture(scope="module")
def cannon_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("models") / "cannon.pmas"
    p.write_text(fixture_text("cannon"))
    return str(p)


@pytest.fixture(scope="module")
def trains_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("models") / "trains.pmas"
    p.write_text(fixture_text("trains"))
    return str(p)


def _kv_lines(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        if ": " in line:
            k, _, v = line.partition(": ")
            pairs[k] = v
    return pairs


def test_check_unsafe(cannon_path, capsys):
    code = main(["check", cannon_path])
    out = _kv_lines(capsys.readouterr().out)
    assert code == 1
    assert out["status"] == "UNSAFE"
    assert out["guaranteed-termination"] == "True"
    assert "run-template" in out


def test_check_safe(trains_path, capsys):
    code = main(["check", trains_path])
    out = _kv_lines(capsys.readouterr().out)
    assert code == 0
    assert out["status"] == "SAFE"


def test_check_unknown_on_tiny_budget(cannon_path, capsys):
    assert main(["check", cannon_path, "--max-depth", "1"]) == 2
    assert _kv_lines(capsys.readouterr().out)["status"] == "UNKNOWN"


def test_check_goal_override(cannon_path, capsys):
    code = main(["check", cannon_path, "--goal", "loc[j] = nil"])
    assert code == 0
    assert _kv_lines(capsys.readouterr().out)["status"] == "SAFE"


def test_check_trace_out(cannon_path, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert main(["check", cannon_path, "--trace-out", str(trace)]) == 1
    capsys.readouterr()
    lines = [json.loads(l) for l in trace.read_text().splitlines()]
    assert lines and all({"rule", "kind", "template", "action"} <= set(l) for l in lines)


@pytest.mark.parametrize("argv", [
    ["check", "{model}", "--trace-out", "{out}"],
    ["emit-mcmt", "{model}", "--out", "{out}"],
], ids=["check", "emit-mcmt"])
def test_unwritable_output_is_input_error(cannon_path, tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out.txt"
    assert main([a.format(model=cannon_path, out=out) for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before any work, so no report
    assert captured.err.startswith(f"error: cannot write {out}: ")


def test_missing_file_is_input_error(capsys):
    assert main(["check", "/no/such/file.pmas"]) == 3
    assert "error" in capsys.readouterr().err


def test_bad_goal_is_input_error(cannon_path, capsys):
    # every command reads --goal the same way: an empty one is malformed, not absent
    commands = [["check"], ["encode"], ["emit-mcmt"], ["oracle"],
                ["explain-witness", "[t1]"], ["cross-check"]]
    for goal in ("loc[j] =", ""):
        for cmd, *rest in commands:
            assert main([cmd, cannon_path, *rest, "--goal", goal]) == 3, (cmd, goal)
            assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("goal, message", [
    ("loc[j] = Zed", "loc[j] = Zed ill-sorted"),
    ("loc[self] = target", "self not allowed here"),
])
@pytest.mark.parametrize("cmd", ["check", "oracle"])
def test_goal_override_checked_like_the_models_goal(cannon_path, capsys, cmd, goal, message):
    assert main([cmd, cannon_path, "--goal", goal]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --goal: {message}")


def test_models_goal_diagnostic_is_positioned(tmp_path, capsys):
    src = fixture_text("cannon")
    assert "\ngoal: loc[j] = target\n" in src
    path = tmp_path / "bad_goal.pmas"
    path.write_text(src.replace("\ngoal: loc[j] = target\n", "\ngoal: loc[j] = Zed\n"))
    assert main(["check", str(path)]) == 3
    line = src[:src.index("\ngoal:")].count("\n") + 2
    assert capsys.readouterr().err == f"error:{line}:1: goal: loc[j] = Zed ill-sorted\n"


def test_models_effect_diagnostic_is_positioned(tmp_path, capsys):
    src = fixture_text("cannon")
    lines = src.split("\n")
    assert lines[18] == "    eff: loc := A"  # line 19, in action gotoA
    lines[18] = "    eff: loc := Zed"
    path = tmp_path / "bad_effect.pmas"
    path.write_text("\n".join(lines))
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr().err == "error:19:10: action Att.gotoA: loc := Zed ill-sorted\n"


def test_models_action_and_template_diagnostics_are_positioned(tmp_path, capsys):
    src = fixture_text("cannon")
    src = src.replace("var destroyed: Flag = no", "var destroyed: Flag = init", 1)
    src = src.replace("action goTargetB", "action gotoA", 1)
    path = tmp_path / "bad_names.pmas"
    path.write_text(src)
    assert main(["check", str(path)]) == 3
    second = src[:src.index("action gotoA", src.index("action gotoA") + 1)].count("\n") + 1
    assert capsys.readouterr().err.splitlines() == [
        "error:14:1: template Att: initial value init not of sort Flag",
        f"error:{second}:3: template Att: duplicate action gotoA",
    ]


@pytest.mark.parametrize("old, new, want", [
    ("alternate { Cannon }", "alternate { targetCannon }", [
        "error:59:1: alternation names unknown template targetCannon",
        "error:59:1: templates ['Cannon'] in no alternation group",
    ]),
    ("action blastB : sync {", "action blastC : sync {", [
        "error:55:3: synchronization action blastB declared by no agent template"
        " (environment must not be its only participant)",
        "error:37:3: synchronization action blastC not declared by the environment",
    ]),
    ("sort Flag { no, yes }", "sort Flag { no, yes, init }", [
        "error:10:22: constant init declared in sorts Loc and Flag",
    ]),
    ("sort Flag { no, yes }", "sort Flag { no, turn0 }", ["error:10:17: constant name turn0 is reserved"]),
    ("sort Flag { no, yes }", "sort Flag { no, loc }", ["error:14:1: name loc used both as variable and constant"]),
    ("sort Flag { no, yes }", "sort Flag { no, yes }\nsort Flag { maybe }", ["error:11:1: duplicate sort Flag"]),
    ("relation Snow(Loc, Loc)", "relation Snow(Loc, Loc)\nrelation Snow(Loc)", [
        "error:13:1: duplicate relation Snow",
    ]),
    ("relation Snow(Loc, Loc)", "relation Snow(Loc, Lock)", ["error:12:1: relation Snow: unknown sort Lock"]),
])
def test_models_declaration_diagnostics_are_positioned(tmp_path, capsys, old, new, want):
    src = fixture_text("cannon")
    assert old in src
    path = tmp_path / "bad_declaration.pmas"
    path.write_text(src.replace(old, new, 1))
    assert main(["check", str(path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert set(want) <= set(err), err


@pytest.mark.parametrize("cut, want", [
    ("\ngoal:", "no goal declared"),
    ("\ntemplate Cannon env", "no environment template declared"),
])
def test_missing_declaration_points_at_the_end_of_input(tmp_path, capsys, cut, want):
    src = fixture_text("cannon")
    src = src[:src.index(cut)] + "\n"
    path = tmp_path / "truncated.pmas"
    path.write_text(src)
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr().err == f"error:{src.count(chr(10)) + 1}:1: {want}\n"


_TOKEN = re.compile(r"#[^\n]*|[A-Za-z_][A-Za-z0-9_]*|:=|!=|\S")


def _token_mutants(text: str, rng: random.Random, n: int) -> list[str]:
    """`n` copies of `text`, each with one token deleted, duplicated,
    replaced by another token of the text, or swapped with one."""
    spans = [m.span() for m in _TOKEN.finditer(text) if not m.group().startswith("#")]
    out = []
    for _ in range(n):
        op, (a, b), (c, d) = rng.randrange(4), rng.choice(spans), rng.choice(spans)
        if op == 0:
            out.append(text[:a] + text[b:])
        elif op == 1:
            out.append(text[:a] + text[a:b] + " " + text[a:])
        elif op == 2:
            out.append(text[:a] + text[c:d] + text[b:])
        else:
            (a, b), (c, d) = sorted([(a, b), (c, d)])
            out.append(text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:] if b <= c else text)
    return out


def test_token_mutants_of_the_fixtures_exit_cleanly(tmp_path, capsys):
    """No mutant of a fixture crashes, and every input error it gives points
    at a line of the input."""
    rng = random.Random(20261019)
    codes = []
    t0 = time.monotonic()
    for name in ("cannon", "trains"):
        for k, text in enumerate(_token_mutants(fixture_text(name), rng, 60)):
            path = tmp_path / f"{name}{k}.pmas"
            path.write_text(text)
            code = main(["check", str(path), "--max-depth", "2", "--max-cubes", "500"])
            err = capsys.readouterr().err.splitlines()
            assert code in (0, 1, 2, 3), (name, k, err)
            if code == 3:
                assert err and all(re.match(r"error:[1-9][0-9]*:[0-9]+: ", e) for e in err), (name, k, err)
            codes.append(code)
    assert 3 in codes and len(set(codes)) > 1
    assert time.monotonic() - t0 < 3


def test_encode_report(cannon_path, capsys):
    assert main(["encode", cannon_path]) == 0
    out = _kv_lines(capsys.readouterr().out)
    assert out["rules"] == "22"
    assert out["phases"] == "P0 PL PS"
    assert "rule-1" in out and "rule-22" in out


def test_emit_mcmt_matches_golden(cannon_path, tmp_path, capsys):
    out_file = tmp_path / "cannon.mcmt"
    assert main(["emit-mcmt", cannon_path, "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert out_file.read_text() == GOLDEN.read_text()


def test_emit_mcmt_stdout(cannon_path, capsys):
    assert main(["emit-mcmt", cannon_path]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()


def test_emit_mcmt_concurrent_rejected(cannon_path, capsys):
    assert main(["emit-mcmt", cannon_path, "--semantics", "concurrent"]) == 3
    assert "error" in capsys.readouterr().err


def test_oracle_reached(cannon_path, capsys):
    assert main(["oracle", cannon_path, "--counts", "Att=1"]) == 1
    out = _kv_lines(capsys.readouterr().out)
    assert out["status"] == "REACHED"
    assert "step-1" in out


def test_oracle_silent_with_interp(cannon_path, tmp_path, capsys):
    interp = tmp_path / "snow.interp"
    interp.write_text("# full snow\nSnow(init, A)\nSnow(init, B)\n")
    code = main(["oracle", cannon_path, "--counts", "Att=1", "--interp", str(interp)])
    assert code == 0
    assert _kv_lines(capsys.readouterr().out)["status"] == "SILENT"


_PULSE_A = "  action pulseA : local {\n    pre: true;"


@pytest.mark.parametrize("pre", ["pulse_loc[self] = nil", "j = self"])
@pytest.mark.parametrize("argv", [["check"], ["oracle", "--counts", "Att=1"]])
def test_self_in_environment_precondition_is_input_error(tmp_path, capsys, pre, argv):
    src = fixture_text("cannon")
    assert _PULSE_A in src
    model = tmp_path / "cannon.pmas"
    model.write_text(src.replace(_PULSE_A, _PULSE_A.replace("true", pre)))
    assert main([argv[0], str(model), *argv[1:]]) == 3
    assert "action Cannon.pulseA: self not allowed here" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        ("Snow(init A)", ":2: Snow takes 2 arguments, got 1"),
        ("Snow(init, A, B)", ":2: Snow takes 2 arguments, got 3"),
        ("Snow(foo, bar)", ":2: 'foo' is not a constant of sort Loc"),
        ("Snow(init, no)", ":2: 'no' is not a constant of sort Loc"),
    ],
)
def test_oracle_rejects_ill_formed_interp_line(cannon_path, tmp_path, capsys, line, message):
    interp = tmp_path / "snow.interp"
    interp.write_text(f"Snow(init, A)\n{line}\n")
    code = main(["oracle", cannon_path, "--counts", "Att=1", "--interp", str(interp)])
    assert code == 3
    assert f"{interp}{message}" in capsys.readouterr().err


def test_oracle_rejects_template_counted_twice(cannon_path, capsys):
    assert main(["oracle", cannon_path, "--counts", "Att=5,Att=1"]) == 3
    assert "--counts names template 'Att' twice" in capsys.readouterr().err


def test_oracle_steps_once_per_orbit_of_many_agents(cannon_path, capsys):
    # 20 robots give about 2**20 step vectors per snapshot, but the robots in
    # one local state are interchangeable, so one vector per orbit is examined
    t0 = time.monotonic()
    assert main(["oracle", cannon_path, "--counts", "Att=20", "--max-depth", "3"]) == 0
    out = _kv_lines(capsys.readouterr().out)
    assert (out["status"], out["states"]) == ("SILENT", "123")
    assert main(["oracle", cannon_path, "--counts", "Att=20"]) == 1
    out = _kv_lines(capsys.readouterr().out)
    assert (out["status"], out["depth"]) == ("REACHED", "4")
    assert int(out["examined"]) > int(out["states"])
    assert time.monotonic() - t0 < 30


def test_oracle_overflow_exits_2(cannon_path, capsys, monkeypatch):
    @dataclass(frozen=True)
    class Small(ConcreteConfig):
        max_states: int = 3

    monkeypatch.setattr(cli, "ConcreteConfig", Small)
    assert main(["oracle", cannon_path, "--counts", "Att=2"]) == 2
    out = _kv_lines(capsys.readouterr().out)
    assert (out["status"], out["examined"]) == ("OVERFLOW", "4")


def test_oracle_huge_count_overflows_without_allocating(cannon_path, capsys, monkeypatch):
    def no_snapshot(*args):
        raise AssertionError("initial_snapshot called")

    monkeypatch.setattr(oracle, "initial_snapshot", no_snapshot)
    assert main(["oracle", cannon_path, "--counts", "Att=999999999"]) == 2
    out = _kv_lines(capsys.readouterr().out)
    assert (out["status"], out["states"], out["examined"]) == ("OVERFLOW", "0", "0")


def test_oracle_bad_counts(cannon_path, capsys):
    assert main(["oracle", cannon_path, "--counts", "Nope=2"]) == 3
    assert "unknown template" in capsys.readouterr().err


def test_explain_witness(cannon_path, capsys):
    from pmasafety.dsl import parse_pmas
    from pmasafety.encoder import encode
    from pmasafety.engine import breach
    from pmasafety.mcmt import serialize_witness

    abp = encode(parse_pmas(fixture_text("cannon"), "cannon"), "interleaved")
    v = breach(abp)
    witness = serialize_witness(v.trace, abp.rules)
    assert main(["explain-witness", cannon_path, witness]) == 0
    out = _kv_lines(capsys.readouterr().out)
    assert out["tokens"] == str(len(v.trace))
    assert "step-1" in out
    assert "run-template" in out


def test_explain_witness_malformed(cannon_path, capsys):
    assert main(["explain-witness", cannon_path, "bogus"]) == 3
    capsys.readouterr()


def test_explain_witness_truncated_run(cannon_path, capsys):
    # a lone declare step never commits: not a complete run
    assert main(["explain-witness", cannon_path, "[t1]"]) == 3
    assert "complete run" in capsys.readouterr().err


def test_cross_check_agreement(cannon_path, capsys):
    code = main([
        "cross-check", cannon_path,
        "--max-count", "1", "--oracle-depth", "12", "--interp-budget", "1",
    ])
    out = _kv_lines(capsys.readouterr().out)
    assert code == 0
    assert out["classification"] == "agree-unsafe"


def test_cross_check_cannon_with_default_budget(cannon_path, capsys):
    # 25 relation cells: all 2**25 interpretations would never finish
    assert main(["cross-check", cannon_path]) == 0
    out = _kv_lines(capsys.readouterr().out)
    assert out["classification"] == "agree-unsafe"
    assert out["interpretations"] == f"sampled 64 of {2**25}"


def test_cross_check_reports_exhaustive_interpretations(trains_path, capsys):
    assert main(["cross-check", trains_path, "--max-count", "1"]) == 0
    out = _kv_lines(capsys.readouterr().out)
    assert out["classification"] == "agree-safe"
    assert out["interpretations"] == "exhaustive 1"


def test_cross_check_zero_interp_budget_is_input_error(cannon_path, capsys):
    assert main(["cross-check", cannon_path, "--interp-budget", "0"]) == 3
    assert "--interp-budget" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["check"], "the following arguments are required: model"),
    (["check", "{model}", "--bogus"], "unrecognized arguments: --bogus"),
])
def test_usage_error_is_input_error(cannon_path, capsys, argv, message):
    assert main([a.format(model=cannon_path) for a in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: pmasafety") and message in err


def test_help_exits_0(capsys):
    assert main(["check", "--help"]) == 0
    assert "--max-depth" in capsys.readouterr().out


def test_oracle_negative_count_is_input_error(cannon_path, capsys):
    assert main(["oracle", cannon_path, "--counts", "Att=-2"]) == 3
    assert "--counts" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["check", "{model}", "--max-depth", "-1"], "--max-depth"),
    (["oracle", "{model}", "--max-depth", "-1"], "--max-depth"),
    (["cross-check", "{model}", "--max-depth", "-1"], "--max-depth"),
    (["cross-check", "{model}", "--max-count", "-1"], "--max-count"),
    (["cross-check", "{model}", "--oracle-depth", "-3"], "--oracle-depth"),
    (["check", "{model}", "--max-cubes", "-1"], "--max-cubes"),
    (["cross-check", "{model}", "--max-cubes", "-1"], "--max-cubes"),
])
def test_negative_depth_or_count_is_input_error(cannon_path, capsys, argv, flag):
    assert main([a.format(model=cannon_path) for a in argv]) == 3
    assert flag in capsys.readouterr().err


def test_negative_max_cubes_message(cannon_path, capsys):
    assert main(["check", cannon_path, "--max-cubes", "-1"]) == 3
    assert capsys.readouterr().err == "error: --max-cubes must not be negative, got -1\n"


@pytest.mark.parametrize("model", ["cannon", "trains"])
def test_cross_check_zero_max_count_is_input_error(tmp_path, capsys, model):
    path = tmp_path / f"{model}.pmas"
    path.write_text(fixture_text(model))
    assert main(["cross-check", str(path), "--max-count", "0"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --max-count must be at least 1, got 0\n"


@pytest.mark.parametrize("goal", [
    "not " * 3000 + "loc[j1] = target",
    "(" * 1200 + "loc[j1] = target" + ")" * 1200,
])
def test_deeply_nested_goal_is_input_error(cannon_path, capsys, goal):
    assert main(["check", cannon_path, "--goal", goal]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:1:") and "nested deeper" in err


def test_internal_error_exits_4(cannon_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr("pmasafety.cli.breach", broken)
    assert main(["check", cannon_path]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom second line\n"
