"""Explicit-state oracle: bounded enumeration, replay, cross-checking."""

from __future__ import annotations

from dataclasses import replace

import pytest

from pmasafety.corpus import generate_model
from pmasafety.dsl import parse_formula, parse_pmas
from pmasafety.model import ModelError, RelInterpretation
from pmasafety.models import fixture_text
from pmasafety.oracle import (
    ConcreteConfig,
    INVALID,
    OVERFLOW,
    REACHED,
    SILENT,
    VALID,
    cross_check,
    enumerate_reachable,
    relation_interpretations,
    replay_run_template,
)


@pytest.fixture(scope="module")
def cannon():
    return parse_pmas(fixture_text("cannon"), "cannon")


@pytest.fixture(scope="module")
def trains():
    return parse_pmas(fixture_text("trains"), "trains")


def test_cannon_goal_reached(cannon):
    cfg = ConcreteConfig((("Att", 1),), RelInterpretation(), "interleaved")
    res = enumerate_reachable(cannon, cfg)
    assert res.status == REACHED
    assert res.depth is not None and res.depth <= 12
    assert res.run is not None and len(res.run) == res.depth


def test_blocking_snow_keeps_goal_unreached(cannon):
    # snow on every approach: no robot can leave init
    snowy = RelInterpretation.of([("Snow", ("init", "A")), ("Snow", ("init", "B"))])
    cfg = ConcreteConfig((("Att", 2),), snowy, "interleaved")
    assert enumerate_reachable(cannon, cfg).status == SILENT


def test_trains_goal_unreached(trains):
    cfg = ConcreteConfig((("PTrain", 2), ("NTrain", 1)), RelInterpretation(), "interleaved")
    assert enumerate_reachable(trains, cfg).status == SILENT


def test_overflow_on_tiny_state_budget(cannon):
    cfg = ConcreteConfig((("Att", 2),), RelInterpretation(), "interleaved", max_states=3)
    assert enumerate_reachable(cannon, cfg).status == OVERFLOW


def test_depth_bound_respected(cannon):
    cfg = ConcreteConfig((("Att", 1),), RelInterpretation(), "interleaved", max_depth=1)
    assert enumerate_reachable(cannon, cfg).status == SILENT


def test_environment_precondition_has_no_self():
    # unvalidated, so only the oracle's own evaluation can reject it
    src = fixture_text("cannon").replace(
        "action pulseA : local {\n    pre: true;",
        "action pulseA : local {\n    pre: pulse_loc[self] = nil;",
    )
    p = parse_pmas(src, "bad", validate=False)
    cfg = ConcreteConfig((("Att", 1),), RelInterpretation(), "interleaved")
    with pytest.raises(ModelError, match="self not allowed here"):
        enumerate_reachable(p, cfg)


def test_concurrent_enumeration_runs(cannon):
    cfg = ConcreteConfig((("Att", 1),), RelInterpretation(), "concurrent")
    assert enumerate_reachable(cannon, cfg).status == REACHED


class TestReplay:
    def test_known_good_template(self, cannon):
        cfg = ConcreteConfig((("Att", 1),), RelInterpretation(), "interleaved")
        template = [
            frozenset({"pulseB"}),
            frozenset({"gotoA"}),
            frozenset({"pulseA"}),
            frozenset({"goTargetA"}),
        ]
        res = replay_run_template(cannon, template, cfg)
        assert res.status == VALID

    def test_impossible_first_step(self, cannon):
        cfg = ConcreteConfig((("Att", 1),), RelInterpretation(), "interleaved")
        res = replay_run_template(cannon, [frozenset({"goTargetA"})], cfg)
        assert res.status == INVALID
        assert res.steps_matched == 0

    def test_template_must_end_in_goal(self, cannon):
        cfg = ConcreteConfig((("Att", 1),), RelInterpretation(), "interleaved")
        res = replay_run_template(cannon, [frozenset({"pulseA"})], cfg)
        assert res.status == INVALID
        assert res.steps_matched == 1


class TestRelationInterpretations:
    def test_unary_relation_fully_enumerated(self):
        p = next(generate_model(s) for s in range(50) if generate_model(s).relations)
        rel = p.relations[0]
        size = 1
        for s in rel.arg_sorts:
            size *= len(next(x for x in p.sorts if x.name == s).constants)
        interps = relation_interpretations(p)
        assert len(interps) == 2**size
        assert RelInterpretation() in interps

    def test_budget_truncates_deterministically(self, cannon):
        a = relation_interpretations(cannon, budget=5)
        b = relation_interpretations(cannon, budget=5)
        assert list(a) == list(b)
        assert len(a) <= 5
        assert RelInterpretation() in a

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, cannon, budget):
        with pytest.raises(ValueError, match="at least 1"):
            relation_interpretations(cannon, budget=budget)

    def test_cross_check_rejects_budget_below_one(self, cannon):
        with pytest.raises(ValueError, match="at least 1"):
            cross_check(cannon, interp_budget=0)

    def test_no_relations_single_empty_interp(self, trains):
        assert list(relation_interpretations(trains)) == [RelInterpretation()]


class TestCrossCheck:
    @pytest.mark.parametrize("max_count", [0, -1])
    def test_rejects_max_count_below_one_before_the_engine(
        self, cannon, trains, monkeypatch, max_count
    ):
        def engine_ran(*args, **kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr("pmasafety.engine.breach", engine_ran)
        for p in (cannon, trains):
            with pytest.raises(ValueError, match="at least 1"):
                cross_check(p, max_count=max_count)

    def test_cannon_agree_unsafe(self, cannon):
        rep = cross_check(cannon, max_count=1, oracle_depth=12, interp_budget=1)
        assert rep.classification == "agree-unsafe"
        assert rep.oracle_reached
        assert rep.reached_counts == (("Att", 1),)

    def test_goal_override(self, cannon):
        unreachable = parse_formula("loc[j] = nil")
        rep = cross_check(replace(cannon, goal=unreachable), max_count=1, interp_budget=1)
        assert rep.engine_status in ("SAFE", "UNSAFE")
        # loc never returns to nil, so both sides must agree it is safe
        assert rep.classification == "agree-safe"

    def test_engine_unknown_classification(self, cannon):
        rep = cross_check(
            cannon, max_count=1, oracle_depth=2, interp_budget=1, engine_max_depth=1
        )
        assert rep.classification == "engine-unknown"
        assert rep.engine_status == "UNKNOWN"
