"""Command-line driver: subcommands, exit codes, report format."""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from helpers import cyclic_model_text
from pmasafety import cli, oracle
from pmasafety.cli import main
from pmasafety.corpus import generate_model_text
from pmasafety.dsl import parse_pmas
from pmasafety.encoder import encode
from pmasafety.model import Pmas
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
    ("foo[j] = A", "variable foo owned by 0 templates"),
])
@pytest.mark.parametrize("cmd", ["check", "oracle"])
def test_goal_override_checked_like_the_models_goal(cannon_path, capsys, cmd, goal, message):
    assert main([cmd, cannon_path, "--goal", goal]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error:1:1: --goal: {message}\n")
    assert all(e.startswith("error:1:1: --goal: ") for e in captured.err.splitlines())


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
    *(
        ("sort Flag { no, yes }", f"sort Flag {{ no, yes }}\nsort {s} {{ go }}", [f"error:11:1: sort name {s} is reserved"])
        for s in ("Act", "Phase", "Turn", "Att_id")
    ),
    ("  var destroyed: Flag = no", "  var destroyed: Flag = no\n  var act_Att: Flag = no", [
        "error:14:1: variable name act_Att is reserved",
    ]),
    ("action pulseA", "action yes", ["error:44:3: constant yes declared in sorts Flag and Act"]),
    ("pre: loc[self] = A and destroyed[self] = no;", "pre: loc[self] = A or destroyed[self] = no;", [
        "error:33:3: action Att.blastA: precondition contains a disjunction",
    ]),
])
def test_models_declaration_diagnostics_are_positioned(tmp_path, capsys, old, new, want):
    src = fixture_text("cannon")
    assert old in src
    path = tmp_path / "bad_declaration.pmas"
    path.write_text(src.replace(old, new, 1))
    assert main(["check", str(path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert set(want) <= set(err), err


def test_variable_named_like_an_action_array_is_rejected(tmp_path, capsys):
    """With cannon's `destroyed` renamed `act_Att`, one name denoted both the
    robots' flag and their action array: `check` answered SAFE while
    `cross-check` found the oracle reaching the goal."""
    path = tmp_path / "act_array.pmas"
    path.write_text(fixture_text("cannon").replace("destroyed", "act_Att"))
    for argv in (
        ["check", str(path)],
        ["check", str(path), "--semantics", "concurrent"],
        ["cross-check", str(path), "--max-count", "2"],
    ):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error:14:1: variable name act_Att is reserved\n"


def _declaring(text: str, p: Pmas, role: str, name: str) -> str:
    """`text`, the source of `p`, with `name` declared as a sort, a constant
    of its first sort, a variable of its environment (a "global") or a
    variable of its first agent template (an "array")."""
    first = p.sorts[0]
    sort = re.search(rf"^sort {first.name} {{[^}}]*", text, re.M)
    if role == "sort":
        return f"{text[:sort.start()]}sort {name} {{ fresh }}\n{text[sort.start():]}"
    if role == "constant":
        return f"{text[:sort.end()]}, {name} {text[sort.end():]}"
    t = p.env if role == "global" else p.templates[0]
    head = re.search(rf"^template {t.name}\b.*\n", text, re.M)
    return f"{text[:head.end()]}  var {name}: {first.name} = {first.constants[0]}\n{text[head.end():]}"


@pytest.mark.parametrize("semantics", ["interleaved", "concurrent"])
@pytest.mark.parametrize("name", ["cannon", "trains"])
def test_models_declaring_a_name_the_encoding_adds_are_rejected(tmp_path, capsys, name, semantics):
    """Every sort, global, array and constant the encoding adds to a model,
    declared by the model in the same role, is an input error at a position:
    validation knows every name the encoding adds."""
    text = fixture_text(name)
    p = parse_pmas(text)
    sig = encode(p, semantics).sig
    added = {
        "sort": set(sig.sorts) - {s.name for s in p.sorts},
        "constant": {c for s in sig.sorts.values() for c in s.constants} - {c for s in p.sorts for c in s.constants},
        "global": set(sig.globals) - set(p.env.var_names()),
        "array": set(sig.arrays) - {v for t in p.templates for v in t.var_names()},
    }
    assert all(added.values())
    for role, names in added.items():
        for n in sorted(names):
            path = tmp_path / f"{role}_{n}.pmas"
            path.write_text(_declaring(text, p, role, n))
            assert main(["check", str(path), "--semantics", semantics]) == 3, (role, n)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert re.fullmatch(r"(error:[1-9][0-9]*:[0-9]+: [^\n]*\n)+", captured.err), (role, n, captured.err)


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


def test_token_mutants_of_corpus_models_exit_cleanly(tmp_path, capsys):
    """No mutant of a generated corpus model crashes under either semantics,
    and every input error it gives points at a line of the input."""
    rng = random.Random(20261021)
    codes = []
    t0 = time.monotonic()
    for seed in range(20):
        for k, text in enumerate(_token_mutants(generate_model_text(seed), rng, 2)):
            path = tmp_path / f"corpus{seed}_{k}.pmas"
            path.write_text(text)
            semantics = ("interleaved", "concurrent")[k]
            code = main(["check", str(path), "--semantics", semantics, "--max-depth", "2", "--max-cubes", "500"])
            err = capsys.readouterr().err.splitlines()
            assert code in (0, 1, 2, 3), (seed, k, err)
            if code == 3:
                assert err and all(re.match(r"error:[1-9][0-9]*:[0-9]+: ", e) for e in err), (seed, k, err)
            codes.append(code)
    assert 3 in codes and len(set(codes)) > 1
    assert time.monotonic() - t0 < 3


_GOALS = (
    "loc[j] = target",
    "loc[j1] = target and loc[j2] = target and j1 != j2",
    "not (destroyed[j] = no or Snow(loc[j], target)) and pulse_loc[e] != A",
)


def test_token_mutants_of_goals_and_interpretations_exit_cleanly(cannon_path, tmp_path, capsys):
    """No mutant of a `--goal` formula or an `--interp` file crashes, and
    every input error it gives is positioned: in the formula, or at a line of
    the file."""
    rng = random.Random(20261020)
    codes = []
    t0 = time.monotonic()
    for k, goal in enumerate(m for g in _GOALS for m in _token_mutants(g, rng, 20)):
        cmd = ["check", "--max-depth", "2", "--max-cubes", "500"] if k % 2 else ["oracle", "--counts", "Att=1"]
        code = main([cmd[0], cannon_path, *cmd[1:], "--goal", goal])
        err = capsys.readouterr().err.splitlines()
        assert code in (0, 1, 2, 3), (goal, err)
        if code == 3:
            assert err and all(re.match(r"error:1:[0-9]+: ", e) for e in err), (goal, err)
        codes.append(code)
    interp = tmp_path / "snow.interp"
    for text in _token_mutants("# some snow\nSnow(init, A)\nSnow(B, target)\n", rng, 40):
        interp.write_text(text)
        code = main(["oracle", cannon_path, "--counts", "Att=1", "--interp", str(interp)])
        err = capsys.readouterr().err.splitlines()
        assert code in (0, 1, 2, 3), (text, err)
        if code == 3:
            assert err and all(e.startswith(f"error: {interp}:") and re.match(r"[1-9][0-9]*: ", e[len(f"error: {interp}:"):]) for e in err), (text, err)
        codes.append(code)
    assert 3 in codes and len(set(codes)) > 1
    assert time.monotonic() - t0 < 5


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
    assert capsys.readouterr().err == (
        "error: --semantics concurrent: MCMT emission supports interleaved semantics only\n")


# cannon copies with one name MCMT gives a meaning: `check` accepts each
_MCMT_CLASHES = {
    "constant": (("sort Flag { no, yes }", "sort Flag { no, x }"), ("destroyed := yes", "destroyed := x"),
                 "error:10:17: constant 'x' clashes with an MCMT keyword"),
    "action": (("gotoA", "Nop_Action"),
               "error:17:3: action 'Nop_Action' clashes with an MCMT keyword"),
    "array": (("var destroyed:", "var x:"), ("destroyed", "x"),
              "error:16:7: state variable 'x' clashes with an MCMT keyword"),
    "global": (("var pulse_loc:", "var j:"), ("pulse_loc", "j"),
               "error:43:7: state variable 'j' clashes with an MCMT keyword"),
}


@pytest.mark.parametrize("kind", sorted(_MCMT_CLASHES))
def test_emit_mcmt_clash_is_positioned(kind, tmp_path, capsys):
    *edits, want = _MCMT_CLASHES[kind]
    text = fixture_text("cannon")
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / f"{kind}.pmas"
    path.write_text(text)
    assert main(["check", str(path)]) == 1  # a valid model, UNSAFE as cannon
    capsys.readouterr()
    assert main(["emit-mcmt", str(path)]) == 3
    assert capsys.readouterr().err.splitlines() == [want]


def test_emit_mcmt_reports_every_clash(tmp_path, capsys):
    text = fixture_text("cannon").replace("gotoA", "Nop_Action").replace("destroyed", "x")
    path = tmp_path / "two_clashes.pmas"
    path.write_text(text)
    assert main(["emit-mcmt", str(path)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error:17:3: action 'Nop_Action' clashes with an MCMT keyword",
        "error:16:7: state variable 'x' clashes with an MCMT keyword",
    ]


def test_emit_mcmt_second_template_is_positioned(trains_path, capsys):
    assert main(["emit-mcmt", trains_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:36:1: MCMT emission needs exactly one agent template (got 2)")
    assert fixture_text("trains").splitlines()[35].startswith("template NTrain")


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


def test_oracle_counts_give_an_unnamed_template_zero(trains_path, capsys):
    assert main(["oracle", trains_path, "--counts", "PTrain=1"]) == 0
    assert _kv_lines(capsys.readouterr().out)["counts"] == "PTrain=1,NTrain=0"
    assert main(["oracle", trains_path]) == 0
    assert _kv_lines(capsys.readouterr().out)["counts"] == "PTrain=2,NTrain=2"
    assert main(["oracle", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "a template it does not name gets 0 (without --counts: 2 each)" in help_text


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


def test_explain_witness_unknown_transition_is_positioned(cannon_path, capsys):
    assert main(["explain-witness", cannon_path, "[t1] [t99]"]) == 3
    assert capsys.readouterr().err.startswith("error:1:6: witness names transition t99;")


def test_explain_witness_truncated_run(cannon_path, capsys):
    # a lone declare step never commits: not a complete run
    assert main(["explain-witness", cannon_path, "[t1]"]) == 3
    captured = capsys.readouterr()
    assert "complete run" in captured.err
    assert captured.out == ""


def test_explain_witness_refuses_concurrent_semantics(capsys):
    # refused as `emit-mcmt` refuses it, before the model is read: no file needed
    witness = "[t9][t15][t3][t14][t9][t15][t7][t14]"
    argv = ["/no/such/model.pmas", witness, "--semantics", "concurrent"]
    assert main(["explain-witness", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --semantics concurrent: "
                            "MCMT emission supports interleaved semantics only\n")


def test_explain_witness_refuses_what_emit_mcmt_refuses(trains_path, capsys):
    # two agent templates: no MCMT file, so no transitions to number
    assert main(["emit-mcmt", trains_path]) == 3
    refused = capsys.readouterr()
    assert refused.err.startswith("error:36:1: MCMT emission needs exactly one agent template")
    assert main(["explain-witness", trains_path, "[t1]"]) == 3
    assert capsys.readouterr() == refused


def test_closed_standard_output_is_input_error(cannon_path):
    """A report to a pipe nobody reads: an input error, as an unwritable
    `--out` is, with one line on standard error and nothing more at exit."""
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    try:
        run = subprocess.run([sys.executable, "-m", "pmasafety.cli", "check", cannon_path],
                             stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert run.returncode == 3
    assert run.stderr.decode() == "error: cannot write standard output: Broken pipe\n"


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


def test_cross_check_overflow_exits_2(tmp_path, capsys, monkeypatch):
    """No configuration reaches the goal and one search overflowed: the
    oracle decides nothing, so the engine's SAFE is no agreement.  The state
    budget is lowered so that one agent's search completes and two agents'
    overflows, as both do at the default budget after 200 000 successors."""

    @dataclass(frozen=True)
    class Small(ConcreteConfig):
        max_states: int = 2000

    monkeypatch.setattr(oracle, "ConcreteConfig", Small)
    path = tmp_path / "cyclic.pmas"
    path.write_text(cyclic_model_text())
    assert main(["cross-check", str(path), "--max-count", "3"]) == 2
    out = _kv_lines(capsys.readouterr().out)
    assert (out["engine-status"], out["classification"]) == ("SAFE", "oracle-overflow")
    assert out["reason"] == (
        "the oracle search at A=2 overflowed, and no configuration reached the goal")


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


def test_model_file_not_utf8_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin.pmas"
    path.write_bytes(fixture_text("cannon").encode()[:40] + b"\xff\xfe")
    assert main(["check", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: model file {path} is not UTF-8: invalid start byte at byte 40\n"


def test_interp_file_not_utf8_is_input_error(cannon_path, tmp_path, capsys):
    path = tmp_path / "latin.interp"
    path.write_bytes(b"Snow(init, A)\n\xff\xfe")
    assert main(["oracle", cannon_path, "--counts", "Att=1", "--interp", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: interpretation file {path} is not UTF-8: invalid start byte at byte 14\n"


# Goals past the default budget of 100 000, each with the reason it gives:
# 17 two-way disjunctions make a DNF of 2**17 cubes, and 12 index variables
# have 4 213 597 equality partitions, counted before any is listed.
_GOAL_BUDGETS = [
    (
        " and ".join(f"(loc[j{k}] = A or loc[j{k}] = B)" for k in range(1, 18)),
        "dnf exceeded 100000 cubes",
    ),
    (
        " and ".join(f"loc[j{k}] = A" for k in range(1, 13)),
        "differentiation would list 4213597 partitions, past the budget of 100000",
    ),
]


def test_goal_budget_check_is_unknown(cannon_path, capsys):
    for goal, reason in _GOAL_BUDGETS:
        assert main(["check", cannon_path, "--goal", goal]) == 2
        out = _kv_lines(capsys.readouterr().out)
        assert (out["status"], out["reason"]) == ("UNKNOWN", f"goal encoding: {reason}")


def test_goal_budget_cross_check_is_engine_unknown(cannon_path, capsys):
    for goal, _ in _GOAL_BUDGETS:
        assert main(["cross-check", cannon_path, "--goal", goal, "--max-count", "1"]) == 2
        out = _kv_lines(capsys.readouterr().out)
        assert (out["engine-status"], out["classification"]) == ("UNKNOWN", "engine-unknown")


@pytest.mark.parametrize("cmd", ["encode", "emit-mcmt"])
def test_goal_budget_encoding_exits_2(cannon_path, capsys, cmd):
    for goal, reason in _GOAL_BUDGETS:
        assert main([cmd, cannon_path, "--goal", goal]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"unknown: {reason}\n" and captured.out == ""
