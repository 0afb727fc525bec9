"""MCMT text emission and witness decoding."""

from __future__ import annotations

from pathlib import Path

import pytest

from pmasafety.cli import main
from pmasafety.corpus import generate_model
from pmasafety.dsl import parse_pmas
from pmasafety.encoder import encode
from pmasafety.engine import breach, extract_run_template
from pmasafety.mcmt import (
    McmtError,
    NOP_NAME,
    emit_mcmt,
    explain_witness,
    parse_mcmt_witness,
    serialize_witness,
)
from pmasafety.models import fixture_text

GOLDEN = Path(__file__).parent / "data" / "cannon.mcmt"


@pytest.fixture(scope="module")
def cannon():
    return parse_pmas(fixture_text("cannon"), "cannon")


@pytest.fixture(scope="module")
def abp(cannon):
    return encode(cannon, "interleaved")


def test_golden_file(abp):
    assert emit_mcmt(abp) == GOLDEN.read_text()


def test_emission_deterministic(abp):
    assert emit_mcmt(abp) == emit_mcmt(abp)


def test_emission_structure(abp):
    text = emit_mcmt(abp)
    assert text.count(":transition") == len(abp.rules)
    for k, r in enumerate(abp.rules, start=1):
        assert f":comment t{k} {r.label}" in text
    assert NOP_NAME in text
    assert ":initial" in text and ":unsafe" in text
    assert "nop" not in text.split(":smt")[1]  # the idle action is renamed


def test_concurrent_rejected(cannon):
    with pytest.raises(McmtError):
        emit_mcmt(encode(cannon, "concurrent"))


def test_multi_template_rejected():
    p = next(generate_model(s) for s in range(100) if len(generate_model(s).templates) == 2)
    with pytest.raises(McmtError):
        emit_mcmt(encode(p, "interleaved"))


class TestWitness:
    def test_parse_tokens(self):
        tokens = parse_mcmt_witness("[t2][t17][t3_1][t15][t1][t16][t5_1][t15]")
        assert tokens == [
            (2, None), (17, None), (3, 1), (15, None),
            (1, None), (16, None), (5, 1), (15, None),
        ]

    def test_whitespace_tolerated(self):
        assert parse_mcmt_witness(" [t1]\n[t2] ") == [(1, None), (2, None)]

    def test_malformed_rejected(self):
        with pytest.raises(McmtError):
            parse_mcmt_witness("[t1]x[t2]")
        with pytest.raises(McmtError):
            parse_mcmt_witness("")
        with pytest.raises(McmtError):
            parse_mcmt_witness("[s1]")

    def test_out_of_range_token_rejected(self, abp):
        with pytest.raises(McmtError) as e:
            explain_witness(parse_mcmt_witness("[t1]\t[t999]"), abp.rules)
        (d,) = e.value.diagnostics
        assert (d.line, d.col) == (1, 6)

    def test_round_trip_through_engine_trace(self, abp):
        v = breach(abp)
        text = serialize_witness(v.trace, abp.rules)
        tokens = parse_mcmt_witness(text)
        steps = explain_witness(tokens, abp.rules)
        assert [s.rule_label for s in steps] == [s.rule_label for s in v.trace]
        assert extract_run_template(steps) == v.run_template


def _emit_mcmt_errors(tmp_path, capsys, text: str, *opts: str) -> list[str]:
    """The diagnostics `emit-mcmt` prints, with exit 3, for a model file
    holding `text`."""
    path = tmp_path / "model.pmas"
    path.write_text(text)
    capsys.readouterr()
    assert main(["emit-mcmt", str(path), *opts]) == 3
    return capsys.readouterr().err.splitlines()


def test_unsatisfiable_goal_is_positioned(tmp_path, capsys):
    """At the model's `goal:`, or at 1:1 for a `--goal` formula, as every
    other `--goal` diagnostic."""
    lines = fixture_text("cannon").splitlines()
    assert lines[60] == "goal: loc[j] = target"
    lines[60] = "goal: loc[j] = target and not loc[j] = target"
    msg = "goal is unsatisfiable: nothing to emit as :unsafe"
    text = "\n".join(lines) + "\n"
    assert _emit_mcmt_errors(tmp_path, capsys, text) == [f"error:61:1: {msg}"]
    goal = ("--goal", "loc[j] = A and not loc[j] = A")
    assert _emit_mcmt_errors(tmp_path, capsys, fixture_text("cannon"), *goal) == [
        f"error:1:1: {msg}"]


def test_too_many_existentials_are_positioned(tmp_path, capsys):
    """At the declaration of the action the rule comes from."""
    lines = fixture_text("cannon").splitlines()
    assert lines[24].startswith("  action goTargetA") and lines[25].endswith(";")
    lines[25] = lines[25][:-1] + " and loc[k1] = B and loc[k2] = init;"
    assert _emit_mcmt_errors(tmp_path, capsys, "\n".join(lines) + "\n") == [
        "error:25:3: rule declare:Att.goTargetA@P0: 3 existential index variables;"
        " MCMT transitions allow at most two (x, y)"]
