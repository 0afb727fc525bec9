"""Translation of a PMAS into an array-based transition system."""

from __future__ import annotations

import collections
import itertools
import random
from dataclasses import replace

import pytest

from helpers import (
    ConcreteAb,
    TypingError,
    check_encoding_types,
    check_lit_types,
    named_model,
    per_agent,
    random_agent_formula,
    random_interpretation,
    random_snapshot,
)
from pmasafety import encoder
from pmasafety.corpus import generate_corpus
from pmasafety.dsl import parse_formula, parse_pmas
from pmasafety.encoder import (
    EncodingError,
    build_signature,
    differentiate,
    encode,
    encode_goal,
    index_sort,
    translate_agent_formula,
)
from pmasafety.logic import (
    ArrayRead,
    BudgetError,
    CaseTerm,
    Const,
    Eq,
    GlobalRef,
    IndexVar,
    Lit,
    RelAtom,
    dnf,
    fand,
    lit_eq,
)
from pmasafety.engine import breach
from pmasafety.model import ModelError, eval_agent_formula, goal_errors, validate_pmas
from pmasafety.models import fixture_text


@pytest.fixture(scope="module")
def cannon():
    return parse_pmas(fixture_text("cannon"), "cannon")


@pytest.fixture(scope="module")
def abp(cannon):
    return encode(cannon, "interleaved")


def test_signature_layout(abp):
    sig = abp.sig
    assert set(sig.arrays) == {"loc", "destroyed", "act_Att"}
    assert sig.arrays["loc"] == ("Att_id", "Loc")
    assert {"phase", "env_act", "pulse_loc", "turn"} <= set(sig.globals)
    assert sig.sorts["Phase"].constants == ("P0", "PL", "PS")
    assert sig.sorts["Att_id"].kind == "index"


def test_initial_assignment(abp):
    arrays, globals_ = dict(abp.init.arrays), dict(abp.init.globals_)
    assert arrays["loc"] == "init"
    assert arrays["destroyed"] == "no"
    assert arrays["act_Att"] == "nop"
    assert globals_["phase"] == "P0"
    assert globals_["env_act"] == "nop"
    assert globals_["pulse_loc"] == "nil"


def test_declare_rule_guard(abp):
    rule = next(
        r for r in abp.rules
        if r.kind == "declare" and r.action == "gotoB" and r.label.endswith("@P0")
    )
    assert len(rule.exists) == 1
    (x,) = rule.exists
    guard = set(rule.guard)
    assert lit_eq(GlobalRef("phase"), Const("P0")) in guard
    assert lit_eq(ArrayRead("act_Att", x), Const("nop")) in guard
    assert lit_eq(ArrayRead("loc", x), Const("init")) in guard
    assert lit_eq(ArrayRead("destroyed", x), Const("no")) in guard
    assert lit_eq(GlobalRef("pulse_loc"), Const("B"), neg=True) in guard
    assert Lit(True, RelAtom("Snow", (Const("init"), Const("B")))) in guard
    # declaring only records the intent: phase moves on, the action is staged
    assert dict(rule.globals_upd)["phase"] == Const("PL")
    assert [a for a, _ in rule.arrays_upd] == ["act_Att"]


def test_interleaved_rule_census(abp):
    kinds = [r.kind for r in abp.rules]
    assert len(abp.rules) == 22
    assert "declare" in kinds and "bulk_local" in kinds
    assert "sync_start" in kinds and "sync_join" in kinds and "sync_commit" in kinds
    assert all(not r.gates for r in abp.rules)
    # every rule's existentials are differentiated index variables
    for r in abp.rules:
        assert len(set(r.exists)) == len(r.exists)
        assert all(abp.sig.sorts[v.sort].kind == "index" for v in r.exists)


def test_concurrent_encoding_has_gates(cannon):
    abc = encode(cannon, "concurrent")
    assert abc.semantics == "concurrent"
    assert any(r.gates for r in abc.rules)
    assert {"gate_local", "gate_sync"} <= {r.kind for r in abc.rules}
    assert set(abc.sig.sorts["Phase"].constants) == {"P0", "PL", "PS", "PL2", "PS2"}


def test_unknown_semantics_rejected(cannon):
    with pytest.raises(EncodingError):
        encode(cannon, "parallel")
    assert issubclass(EncodingError, ModelError)


def test_invalid_model_rejected(cannon):
    """`encode` rejects, with `validate_pmas`'s diagnostics, a model that
    never went through the parser: here `gotoA` sets `loc` to a `Flag`."""
    att = cannon.templates[0]
    goto = replace(att.actions[0], eff=(("loc", "yes"),))
    bad = replace(cannon, templates=(replace(att, actions=(goto, *att.actions[1:])),))
    assert validate_pmas(bad)
    for semantics in ("interleaved", "concurrent"):
        with pytest.raises(ModelError, match="loc := yes ill-sorted") as ei:
            encode(bad, semantics)
        assert ei.value.diagnostics == validate_pmas(bad)


WELL_SORTED = ["cannon", "trains", "two-robot"] + [f"corpus{k}" for k in range(16)]


@pytest.mark.parametrize("semantics", ["interleaved", "concurrent"])
@pytest.mark.parametrize("name", WELL_SORTED)
def test_every_literal_is_well_sorted(name, semantics):
    """Nothing below `encode` checks sorts, so every literal of the encoding
    and of every cube the search derives must be well-sorted against the
    encoding's signature.  Concurrent two-robot stops at depth 1 here, as its
    full run takes seconds; the `slow` test checks that run."""
    abp = encode(named_model(name), semantics)
    check_encoding_types(abp)
    v = breach(abp, max_depth=1 if (name, semantics) == ("two-robot", "concurrent") else 200)
    assert v.layers
    for frontier in v.layers:
        for c in frontier.cubes:
            check_lit_types(c.lits, abp.sig)


def test_sort_check_catches_ill_sorted_encodings(abp):
    """The check above fails on an update, a case value or a goal literal of
    the wrong sort, and on a case guard that is not one literal."""
    declare = next(r for r in abp.rules if r.arrays_upd and r.globals_upd)
    g, _c = declare.globals_upd[0]
    a, u = declare.arrays_upd[0]
    j = IndexVar("j", "Att_id")
    (first, value), catch_all = u.body.branches
    broken = [
        replace(declare, globals_upd=((g, Const("yes")),)),
        replace(declare, arrays_upd=((a, replace(u, body=Const("yes"))),)),
        replace(declare, guard=(lit_eq(ArrayRead("loc", j), Const("yes")),)),
        replace(declare, arrays_upd=(
            (a, replace(u, body=CaseTerm(((fand([first, first.negate()]), value), catch_all)))),)),
    ]
    for rule in broken:
        with pytest.raises(TypingError):
            check_encoding_types(replace(abp, rules=(rule,)))
    check_encoding_types(replace(abp, rules=(declare,)))


def _dnf_holds(ab: ConcreteAb, p, cubes, extra, snap) -> bool:
    """Whether some conjunction of `cubes` holds in `snap`, read as a state
    of `ab`, the encoding of `p`, for some grounding of the index variables
    `extra`, each to any agent of its template."""
    agents = dict(per_agent(snap))
    arrays = {
        (v, i): state[k]
        for t in p.templates
        for i, state in enumerate(agents.get(t.name, ()))
        for k, v in enumerate(t.var_names())
    }
    state = (dict(zip(p.env.var_names(), snap.env)), arrays)
    template_of = {index_sort(t): t.name for t in p.templates}
    domains = [range(len(agents.get(template_of[v.sort], ()))) for v in extra]
    return any(
        all(ab.eval_lit(l, state, dict(zip(extra, combo))) for l in c)
        for combo in itertools.product(*domains)
        for c in cubes
    )


def test_translated_goal_holds_where_the_goal_holds():
    """Random goals, negated compound formulas among them, translate to a
    formula whose DNF holds for some grounding of its index variables
    exactly where `eval_agent_formula` says the goal holds; an index
    variable grounds to any agent of its template, distinct or not, as in
    the agent formula.  `differentiate` is left out: it drops a variable no
    literal uses."""
    models = [named_model("cannon"), named_model("trains")] + [p for _s, p in generate_corpus(8, 0)]
    seen = collections.Counter()
    for p in models:
        rng = random.Random(p.name)
        abp = encode(p, "interleaved")
        for _ in range(300):
            f = random_agent_formula(rng, p)
            if goal_errors(p, f):
                continue
            g, extra = translate_agent_formula(p, f, None, None)
            cubes = dnf(g)
            for _ in range(8):
                snap, interp = random_snapshot(rng, p), random_interpretation(rng, p)
                try:
                    want = eval_agent_formula(p, snap, interp, f)
                except ModelError:  # the snapshot leaves out a template the goal names
                    continue
                ab = ConcreteAb(abp, 0, interp.tuple_set())
                assert _dnf_holds(ab, p, cubes, extra, snap) == want, (p.name, f, snap)
                seen[want] += 1
    assert seen[True] > 1000 and seen[False] > 1000, seen


def test_goal_single_variable(cannon, abp):
    g = encode_goal(cannon)
    assert len(g.cubes) == 1
    (c,) = g.cubes
    assert len(c.exists) == 1
    assert lit_eq(ArrayRead("loc", c.exists[0]), Const("target")) in c.lits


def test_goal_differentiation_splits_equality_cases(cannon, abp):
    # without an explicit j1 != j2 the two variables may or may not coincide
    p2 = replace(cannon, goal=parse_formula("loc[j1] = target and loc[j2] = target"))
    g = encode_goal(p2)
    arities = sorted(len(c.exists) for c in g.cubes)
    assert arities == [1, 2]


def test_goal_distinctness_drops_merged_branch(cannon, abp):
    p2 = replace(
        cannon,
        goal=parse_formula("loc[j1] = target and loc[j2] = target and j1 != j2"),
    )
    g = encode_goal(p2)
    assert [len(c.exists) for c in g.cubes] == [2]
    # the differentiated cube carries no explicit index disequality
    for c in g.cubes:
        for l in c.lits:
            a = l.atom
            assert not (
                isinstance(a, Eq)
                and isinstance(a.lhs, IndexVar)
                and isinstance(a.rhs, IndexVar)
            )


def test_differentiate_filters_unsat_branches():
    j1, j2 = IndexVar("j1", "Att_id"), IndexVar("j2", "Att_id")
    # loc[j1]=A and loc[j2]=B: merging j1=j2 is contradictory, so one cube
    lits = (
        lit_eq(ArrayRead("loc", j1), Const("A")),
        lit_eq(ArrayRead("loc", j2), Const("B")),
    )
    cubes = differentiate(lits)
    assert len(cubes) == 1
    assert len(cubes[0].exists) == 2


def test_differentiate_counts_its_branches_before_listing(monkeypatch):
    """Past `DEFAULT_DNF_CAP` branches `differentiate` raises before it lists
    any: a goal over many index variables has Bell-number many."""
    vs = [IndexVar(f"j{k}", "Att_id") for k in range(1, 11)]
    lits = tuple(lit_eq(ArrayRead("loc", v), Const("A")) for v in vs)
    assert len(differentiate(lits[:4])) == 15  # the partitions of 4 variables
    assert len(differentiate(lits[:4], set(vs[:2]))) == 10  # j1, j2 kept apart
    monkeypatch.setattr(encoder, "set_partitions", None)  # listing would fail
    with pytest.raises(BudgetError, match="would list 115975 partitions, past the budget of 100000"):
        differentiate(lits)


def test_index_sort_naming(cannon):
    assert index_sort(cannon.templates[0]) == "Att_id"


def test_build_signature_interleaved_vs_concurrent(cannon):
    si = build_signature(cannon, "interleaved")
    sc = build_signature(cannon, "concurrent")
    assert len(sc.sorts["Phase"].constants) > len(si.sorts["Phase"].constants)
