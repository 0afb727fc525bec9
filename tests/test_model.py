"""PMAS data model: validation, snapshots, formula evaluation."""

from __future__ import annotations

import collections
import random
from dataclasses import replace

import pytest

from helpers import (
    agent_ids,
    counting_snapshot,
    named_model,
    per_agent,
    random_agent_formula,
    random_interpretation,
    random_snapshot,
    reference_eval_agent_formula,
)
from pmasafety.dsl import parse_formula, parse_pmas
from pmasafety.model import (
    Diagnostic,
    ModelError,
    RelInterpretation,
    Snapshot,
    eval_agent_formula,
    initial_snapshot,
    validate_pmas,
)
from pmasafety.models import fixture_text


@pytest.fixture(scope="module")
def cannon():
    return parse_pmas(fixture_text("cannon"), "cannon")


def test_fixtures_validate_cleanly(cannon):
    assert validate_pmas(cannon) == []


def test_template_without_actions_flagged(cannon):
    broken = replace(
        cannon, templates=tuple(replace(t, actions=()) for t in cannon.templates)
    )
    msgs = [d.message for d in validate_pmas(broken)]
    assert any("no actions" in m for m in msgs)


def test_duplicate_constant_flagged(cannon):
    dup = replace(cannon, sorts=cannon.sorts + (cannon.sorts[0],))
    msgs = [d.message for d in validate_pmas(dup)]
    assert any("declared in sorts" in m or "duplicate" in m for m in msgs)


def test_model_error_carries_diagnostics():
    e = ModelError("boom")
    assert e.diagnostics == [Diagnostic(0, 0, "boom")]
    assert str(Diagnostic(3, 7, "bad")) == "3:7: bad"


def test_initial_snapshot(cannon):
    snap = initial_snapshot(cannon, {"Att": 2})
    assert snap.agents_of("Att") == ((("init", "no"), 2),)
    assert initial_snapshot(cannon, {"Att": 0}).agents_of("Att") == ()
    assert snap.env == ("nil",)
    assert snap.turn == 0  # the fixture declares alternation


def test_goal_evaluation(cannon):
    interp = RelInterpretation()
    snap = initial_snapshot(cannon, {"Att": 1})
    assert not eval_agent_formula(cannon, snap, interp, cannon.goal)
    at_target = Snapshot((("Att", ((("target", "no"), 1),)),), snap.env, snap.turn)
    assert eval_agent_formula(cannon, at_target, interp, cannon.goal)


def test_action_precondition_respects_relation(cannon):
    interp_snowy = RelInterpretation.of([("Snow", ("init", "A"))])
    snap = initial_snapshot(cannon, {"Att": 1})
    goto_a = cannon.template("Att").action("gotoA")
    assert eval_agent_formula(
        cannon, snap, RelInterpretation(), goto_a.pre, self_id=("Att", 0)
    )
    assert not eval_agent_formula(
        cannon, snap, interp_snowy, goto_a.pre, self_id=("Att", 0)
    )


def test_snapshot_counts_agents_per_state(cannon):
    init = initial_snapshot(cannon, {"Att": 3})
    snap = counting_snapshot((("Att", (("init", "no"), ("B", "no"), ("init", "no"))),), init.env, init.turn)
    assert snap.agents_of("Att") == ((("B", "no"), 1), (("init", "no"), 2))
    assert per_agent(snap) == (("Att", (("B", "no"), ("init", "no"), ("init", "no"))),)


def test_distinct_variables_bind_distinct_agents_of_one_block(cannon):
    """`j1 != j2` over one block: false with one agent in it, true with two,
    though a search binds each variable to the first agents of a block only
    and `self` to the first agent of its block."""
    interp, init = RelInterpretation(), initial_snapshot(cannon, {"Att": 1})
    pair = parse_formula("loc[j1] = A and loc[j2] = A and j1 != j2")
    other = parse_formula("loc[j] = A and j != self and loc[self] = A")
    same = parse_formula("loc[j] = A and j = self")
    for n in (1, 2, 3):
        # offsets 0 to n-1 at A, then one agent at init
        snap = counting_snapshot((("Att", (("init", "no"),) + (("A", "no"),) * n),), init.env, init.turn)
        assert snap.agents_of("Att") == ((("A", "no"), n), (("init", "no"), 1))
        for ev in (eval_agent_formula, reference_eval_agent_formula):
            assert ev(cannon, snap, interp, pair) is (n > 1)
            for me in range(n):  # `self` anywhere in the block at A
                assert ev(cannon, snap, interp, other, self_id=("Att", me)) is (n > 1)
                assert ev(cannon, snap, interp, same, self_id=("Att", me)) is True
            assert ev(cannon, snap, interp, other, self_id=("Att", n)) is False
            assert ev(cannon, snap, interp, same, self_id=("Att", n)) is False


def test_rel_interpretation():
    r = RelInterpretation.of([("Snow", ("A", "B")), ("Snow", ("A", "B"))])
    assert r.holds("Snow", ("A", "B"))
    assert not r.holds("Snow", ("B", "A"))
    assert len(r.tuples) == 1


def test_owner_of_var(cannon):
    assert cannon.owner_of_var("loc").name == "Att"
    assert cannon.owner_of_var("pulse_loc").is_env
    for _ in range(2):  # a failed lookup is never remembered
        with pytest.raises(ModelError, match="nope owned by 0 templates"):
            cannon.owner_of_var("nope")
        with pytest.raises(ModelError, match="nope owned by 0 templates"):
            cannon.var_slot("nope")


MODELS = ["cannon", "trains"] + [f"corpus{s}" for s in range(16)]


@pytest.mark.parametrize("name", MODELS)
def test_var_slots_follow_declaration_order(name):
    p = named_model(name)
    for t in p.all_templates():
        for v in t.var_names():
            assert p.var_slot(v) == (t, t.var_names().index(v))
            assert p.owner_of_var(v) is t


def test_variable_of_two_templates_raises_on_every_call(cannon):
    att = cannon.template("Att")
    clash = replace(cannon, env=replace(cannon.env, variables=cannon.env.variables + att.variables[:1]))
    for _ in range(2):
        with pytest.raises(ModelError, match="loc owned by 2 templates"):
            clash.var_slot("loc")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ModelError as e:
        return f"ModelError: {e}"


@pytest.mark.parametrize("name", MODELS)
def test_compiled_evaluation_matches_reference(name):
    p = named_model(name)
    rng = random.Random(name)
    seen = collections.Counter()
    for _ in range(150):
        f = random_agent_formula(rng, p)
        for _ in range(3):  # later calls with the same self template find `f` compiled
            snap = random_snapshot(rng, p)
            interp = random_interpretation(rng, p)
            ids = agent_ids(snap)
            self_id = rng.choice(ids) if ids and rng.random() < 0.6 else None
            want = _outcome(reference_eval_agent_formula, p, snap, interp, f, self_id)
            got = _outcome(eval_agent_formula, p, snap, interp, f, self_id)
            assert got == want, (f, snap, interp, self_id)
            seen[want] += 1
    # both truth values, evaluation-time failures and inference failures
    errors = [w for w in seen if isinstance(w, str)]
    late = [e for e in errors if "no agents" in e]
    assert seen[True] and seen[False], seen
    assert late and len(errors) > len(late), seen


def test_failed_compilation_raises_on_every_call(cannon):
    p = replace(cannon)
    snap = initial_snapshot(p, {"Att": 1})
    bad = parse_formula("loc[self] = target")  # `self` of the environment's template
    for f, self_id in [(bad, ("Cannon", 0)), (parse_formula("nope[j] = target"), None)]:
        for _ in range(2):
            with pytest.raises(ModelError):
                eval_agent_formula(p, snap, RelInterpretation(), f, self_id)
    assert p.compiled_formulas() == {}


def test_replaced_model_starts_without_compiled_formulas(cannon):
    snap = initial_snapshot(cannon, {"Att": 1})
    assert not eval_agent_formula(cannon, snap, RelInterpretation(), cannon.goal)
    assert cannon.compiled_formulas()
    assert replace(cannon, goal=cannon.goal).compiled_formulas() == {}


def test_turn_groups(cannon):
    assert cannon.turn_group("Cannon") == 0
    assert cannon.turn_group("Att") == 1
    assert cannon.initiator_groups()["blastA"] == 0
