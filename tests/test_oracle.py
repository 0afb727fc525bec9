"""Explicit-state oracle: bounded enumeration, replay, cross-checking."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest

from helpers import (
    counting_snapshot,
    named_model,
    orbit_key,
    per_agent,
    random_interpretation,
    random_snapshot,
    reference_apply,
    reference_enumerate_reachable,
    reference_step_vectors,
)
from pmasafety import oracle
from pmasafety.corpus import generate_model
from pmasafety.dsl import parse_formula, parse_pmas
from pmasafety.corpus import generate_corpus
from pmasafety.model import ModelError, RelInterpretation, initial_snapshot
from pmasafety.models import fixture_text
from pmasafety.oracle import (
    ConcreteConfig,
    INVALID,
    OVERFLOW,
    REACHED,
    SILENT,
    VALID,
    StepTables,
    _apply,
    cross_check,
    enumerate_reachable,
    relation_interpretations,
    replay_run_template,
    step_vectors,
)

MODELS = ["cannon", "trains"] + [f"corpus{s}" for s in range(16)]
SEMANTICS = ["interleaved", "concurrent"]


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


def _no_snapshot(*args):
    raise AssertionError("initial_snapshot called")


def test_more_agents_than_states_overflows_before_a_snapshot(cannon, monkeypatch):
    monkeypatch.setattr(oracle, "initial_snapshot", _no_snapshot)
    cfg = ConcreteConfig((("Att", 999999999),), RelInterpretation(), "interleaved")
    assert enumerate_reachable(cannon, cfg).status == OVERFLOW
    assert replay_run_template(cannon, [frozenset({"gotoA"})], cfg).status == OVERFLOW
    small = replace(cfg, counts=(("Att", 2),), max_states=1)
    assert enumerate_reachable(cannon, small).status == OVERFLOW


def test_as_many_agents_as_states_still_searches(cannon):
    cfg = ConcreteConfig((("Att", 3),), RelInterpretation(), "interleaved", max_states=3)
    assert enumerate_reachable(cannon, cfg).examined == 4  # overflows only past the budget


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


def _vectors(gen, *args):
    try:
        return list(gen(*args))
    except ModelError as e:
        return f"ModelError: {e}"


def _crowded_snapshot(rng, p):
    """One to three agents per template, each in the initial state or in one
    other state, so that agents often share a state."""
    init, other = initial_snapshot(p, {t.name: 1 for t in p.templates}), random_snapshot(rng, p)
    agents = []
    for name, (state,) in per_agent(init):
        pool = [state, *(s for n, ss in per_agent(other) if n == name for s in ss[:1])]
        agents.append((name, tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))))
    return counting_snapshot(agents, rng.choice((init, other)).env)


@pytest.mark.parametrize("semantics", SEMANTICS)
@pytest.mark.parametrize("name", MODELS)
def test_step_vectors_are_the_first_of_each_orbit(name, semantics):
    p = named_model(name)
    rng = random.Random(f"{name}/{semantics}")
    compared = 0
    for k in range(80):
        s = (random_snapshot if k % 2 else _crowded_snapshot)(rng, p)
        if p.alternation is not None:
            s = replace(s, turn=rng.randint(0, 1))
        interp = random_interpretation(rng, p) if k % 3 else RelInterpretation()
        tables = StepTables(p, interp, semantics)
        want = _vectors(reference_step_vectors, tables, s)
        got = _vectors(step_vectors, tables, s)
        if isinstance(want, str):
            assert got == want
            continue
        firsts: dict = {}
        for v in want:
            firsts.setdefault(orbit_key(per_agent(s), v), v)
        assert got == list(firsts.values()), s
        assert {_apply(tables, s, v) for v in got} == {reference_apply(p, s, v) for v in want}
        compared += len(want) > len(got)
    # a concurrent orbit has several vectors only where an agent has two
    # executable local actions, which most corpus models never give
    assert compared or semantics == "concurrent", "no orbit of several vectors"


@pytest.mark.parametrize("semantics", SEMANTICS)
@pytest.mark.parametrize("name", MODELS)
def test_replay_agrees_with_reference_vectors(name, semantics, monkeypatch):
    p = named_model(name)
    rng = random.Random(f"{name}/{semantics}")
    counts = tuple((t.name, 2) for t in p.templates)
    interp = random_interpretation(rng, p)
    cfg = ConcreteConfig(counts, interp, semantics, max_depth=6)
    tables = StepTables(p, interp, semantics)
    found = enumerate_reachable(p, cfg)
    templates = [[v.label() for v in found.run]] if found.run else []
    seen = []
    for _ in range(6):  # the labels of random walks, some with one label changed
        snap, labels = initial_snapshot(p, dict(counts)), []
        for _ in range(rng.randint(1, 4)):
            vecs = list(reference_step_vectors(tables, snap))
            if not vecs:
                break
            vec = rng.choice(vecs)
            labels.append(vec.label())
            seen.append(vec.label())
            snap = reference_apply(p, snap, vec)
        if labels and rng.random() < 0.3:
            labels[rng.randrange(len(labels))] = rng.choice(seen)
        templates.append(labels)
    got = [replay_run_template(p, t, cfg) for t in templates]
    monkeypatch.setattr(oracle, "step_vectors", reference_step_vectors)
    assert got == [replay_run_template(p, t, cfg) for t in templates]


def _reference_models(name):
    if name == "corpus":
        return [p for _seed, p in generate_corpus(24, 0)]
    cannon = named_model("cannon")
    if name == "two-robot":
        return [replace(cannon, goal=parse_formula("loc[j1] = target and loc[j2] = target and j1 != j2"))]
    if name == "blasts":  # the cannon's blasts, whose preconditions read other agents, decide the goal
        return [replace(cannon, goal=parse_formula("destroyed[j1] = yes and destroyed[j2] = yes and j1 != j2"))]
    return [named_model(name)]


def _outcome(r):
    return r.status, r.depth, repr(r.run), r.states_seen, r.examined


@pytest.mark.parametrize("semantics", SEMANTICS)
@pytest.mark.parametrize("name", ["cannon", "trains", "two-robot", "blasts", "corpus"])
def test_search_matches_per_agent_reference(name, semantics):
    """Counting snapshots and step tables find what the per-agent search
    found: the same verdict, depth, run, snapshots and examined successors,
    and, with two agents per template and the budget cut half way, the same
    successor to overflow on."""
    overflows = 0
    for p in _reference_models(name):
        names = [t.name for t in p.templates]
        for combo in itertools.product((1, 2, 3), repeat=len(names)):
            for interp in relation_interpretations(p, budget=2):
                cfg = ConcreteConfig(tuple(zip(names, combo)), interp, semantics, max_depth=12)
                want = reference_enumerate_reachable(p, cfg)
                assert _outcome(enumerate_reachable(p, cfg)) == _outcome(want), (p.name, cfg)
                if set(combo) != {2}:
                    continue
                small = replace(cfg, max_states=max(want.examined // 2, 1))
                cut = reference_enumerate_reachable(p, small)
                assert _outcome(enumerate_reachable(p, small)) == _outcome(cut), (p.name, small)
                overflows += cut.status == OVERFLOW
    assert overflows


def test_orbits_examine_fewer_successors(trains, monkeypatch):
    cfg = ConcreteConfig((("PTrain", 3), ("NTrain", 3)), RelInterpretation(), "interleaved")
    reduced = enumerate_reachable(trains, cfg)
    monkeypatch.setattr(oracle, "step_vectors", reference_step_vectors)
    full = enumerate_reachable(trains, cfg)
    assert (reduced.status, reduced.states_seen) == (full.status, full.states_seen) == (SILENT, 470)
    assert reduced.examined < full.examined


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
