"""MCMT text emission and witness decoding."""

from __future__ import annotations

from pathlib import Path

import pytest

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
