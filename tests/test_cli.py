"""Command-line driver: subcommands, exit codes, report format."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from pmasafety.cli import main
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
    assert main(["check", cannon_path, "--goal", "loc[j] ="]) == 3
    assert "error" in capsys.readouterr().err


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


def test_oracle_overflows_on_many_agents(cannon_path, capsys):
    # 20 agents give about 2**20 step vectors per snapshot, most leading to
    # snapshots already seen: the budget counts every examined successor
    t0 = time.monotonic()
    assert main(["oracle", cannon_path, "--counts", "Att=20", "--max-depth", "3"]) == 2
    assert time.monotonic() - t0 < 30
    assert _kv_lines(capsys.readouterr().out)["status"] == "OVERFLOW"


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
