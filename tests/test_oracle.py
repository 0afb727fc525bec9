"""Explicit-state oracle: bounded enumeration, replay, cross-checking."""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    counting_snapshot,
    cyclic_model_text,
    named_model,
    orbit_key,
    per_agent,
    random_interpretation,
    random_snapshot,
    reference_apply,
    reference_enumerate_reachable,
    reference_replay_run_template,
    reference_step_vectors,
)
from pmasafety import encoder, engine, oracle
from pmasafety.corpus import generate_model
from pmasafety.dsl import parse_formula, parse_pmas
from pmasafety.corpus import generate_corpus
from pmasafety.logic import BudgetError
from pmasafety.model import ModelError, RelInterpretation, Snapshot, initial_snapshot
from pmasafety.models import fixture_text
from pmasafety.oracle import (
    ConcreteConfig,
    INVALID,
    OVERFLOW,
    REACHED,
    SILENT,
    VALID,
    StepTables,
    cross_check,
    enumerate_reachable,
    relation_interpretations,
    replay_run_template,
    step_vectors,
    successors,
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


@pytest.mark.parametrize("depth", [-1, -5])
def test_negative_depth_rejected(cannon, depth):
    cfg = ConcreteConfig((("Att", 1),), RelInterpretation(), "interleaved", max_depth=depth)
    with pytest.raises(ValueError, match="must not be negative"):
        enumerate_reachable(cannon, cfg)
    # depth 0 decides the initial snapshot alone
    assert enumerate_reachable(cannon, replace(cfg, max_depth=0)).status == SILENT


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


def test_environment_precondition_has_no_self(cannon):
    # built past validation, so only the oracle's own evaluation can reject it
    pulse = replace(cannon.env.actions[0], pre=parse_formula("pulse_loc[self] = nil"))
    p = replace(cannon, env=replace(cannon.env, actions=(pulse, *cannon.env.actions[1:])))
    cfg = ConcreteConfig((("Att", 1),), RelInterpretation(), "interleaved")
    with pytest.raises(ModelError, match="self not allowed here"):
        enumerate_reachable(p, cfg)


def test_unknown_semantics_rejected_even_at_a_goal_start(cannon):
    # the initial snapshot meets this goal, so the search would end before a step
    at_start = replace(cannon, goal=parse_formula("loc[j] = init"))
    cfg = ConcreteConfig((("Att", 1),), RelInterpretation(), "interleaved")
    assert enumerate_reachable(at_start, cfg).status == REACHED
    with pytest.raises(ValueError, match="unknown semantics"):
        enumerate_reachable(at_start, replace(cfg, semantics="parallel"))


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
        steps = _vectors(step_vectors, tables, s)
        if isinstance(want, str):
            assert steps == want
            continue
        firsts: dict = {}
        for v in want:
            firsts.setdefault(orbit_key(per_agent(s), v), v)
        got = [v for v, _succ in steps]
        assert got == list(firsts.values()), s
        assert [succ for _v, succ in steps] == [reference_apply(p, s, v) for v in got]
        assert {succ for _v, succ in steps} == {reference_apply(p, s, v) for v in want}
        compared += len(want) > len(got)
    # a concurrent orbit has several vectors only where an agent has two
    # executable local actions, which most corpus models never give
    assert compared or semantics == "concurrent", "no orbit of several vectors"


@pytest.mark.parametrize("semantics", SEMANTICS)
@pytest.mark.parametrize("name", MODELS)
def test_replay_agrees_with_reference_vectors(name, semantics):
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
    assert got == [reference_replay_run_template(p, t, cfg) for t in templates]


def _reference_models(name):
    if name == "corpus":
        return [p for _seed, p in generate_corpus(24, 0)]
    cannon = named_model("cannon")
    if name == "two-robot":
        return [replace(cannon, goal=parse_formula("loc[j1] = target and loc[j2] = target and j1 != j2"))]
    if name == "blasts":  # the cannon's blasts, whose preconditions read other agents, decide the goal
        return [replace(cannon, goal=parse_formula("destroyed[j1] = yes and destroyed[j2] = yes and j1 != j2"))]
    if name == "pulse":  # a goal that reads the environment as well as the robots
        return [replace(cannon, goal=parse_formula("loc[j] = A and pulse_loc[e] = A"))]
    return [named_model(name)]


def _outcome(r):
    return r.status, r.depth, repr(r.run), r.states_seen, r.examined


@pytest.mark.parametrize("semantics", SEMANTICS)
@pytest.mark.parametrize("name", ["cannon", "trains", "two-robot", "blasts", "pulse", "corpus"])
def test_search_matches_per_agent_reference(name, semantics):
    """Counting snapshots and step tables find what the per-agent search
    found: the same verdict, depth, run, snapshots and examined successors,
    and, with two agents per template and the budget cut half way, the same
    successor to overflow on.  As in `cross_check`, one table per
    interpretation serves every agent count."""
    overflows = 0
    for p in _reference_models(name):
        names = [t.name for t in p.templates]
        interps = relation_interpretations(p, budget=2)
        tables = [StepTables(p, interp, semantics) for interp in interps]
        for combo in itertools.product((1, 2, 3), repeat=len(names)):
            for interp, shared in zip(interps, tables):
                cfg = ConcreteConfig(tuple(zip(names, combo)), interp, semantics, max_depth=12)
                want = reference_enumerate_reachable(p, cfg)
                assert _outcome(enumerate_reachable(p, cfg, shared)) == _outcome(want), (p.name, cfg)
                if set(combo) != {2}:
                    continue
                small = replace(cfg, max_states=max(want.examined // 2, 1))
                cut = reference_enumerate_reachable(p, small)
                assert _outcome(enumerate_reachable(p, small, shared)) == _outcome(cut), (p.name, small)
                overflows += cut.status == OVERFLOW
    assert overflows


def test_orbits_examine_fewer_successors(trains):
    cfg = ConcreteConfig((("PTrain", 3), ("NTrain", 3)), RelInterpretation(), "interleaved")
    reduced = enumerate_reachable(trains, cfg)
    full = reference_enumerate_reachable(trains, cfg, orbits=False)
    assert (reduced.status, reduced.states_seen) == (full.status, full.states_seen) == (SILENT, 470)
    assert reduced.examined == reference_enumerate_reachable(trains, cfg).examined < full.examined


def test_a_large_block_steps_on_counts(cannon, monkeypatch):
    """A thousand interchangeable robots: each successor costs a few post-state
    lookups, not one per robot."""
    calls = 0
    after = StepTables.after

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return after(self, *args)

    monkeypatch.setattr(StepTables, "after", counted)
    cfg = ConcreteConfig((("Att", 1000),), RelInterpretation(), "interleaved", max_depth=2)
    res = enumerate_reachable(cannon, cfg)
    assert (res.status, res.states_seen, res.examined) == (SILENT, 2003, 2002)
    assert calls <= 2 * res.examined


def test_goal_is_decided_once_per_part_it_reads(cannon, monkeypatch):
    """The cannon's goal reads only the robots, so snapshots that differ in
    the environment or the turn share one evaluation."""
    goals = 0
    evaluate = oracle.eval_agent_formula

    def counted(p, snap, interp, f, *args):
        nonlocal goals
        goals += f is p.goal
        return evaluate(p, snap, interp, f, *args)

    monkeypatch.setattr(oracle, "eval_agent_formula", counted)
    cfg = ConcreteConfig((("Att", 2),), RelInterpretation(), "interleaved", max_depth=12)
    tables = StepTables(cannon, cfg.interp, cfg.semantics)
    res = enumerate_reachable(cannon, cfg, tables)
    assert res.status == REACHED
    assert goals == len(tables.goals) < res.states_seen  # the start's evaluation included


# ---------------------------------------------------------------------------
# monotonicity: what lets `cross_check` search the largest counts first


def _plus(m: Snapshot, x: dict) -> Snapshot:
    """`m` with the extra agents `x`, a list of local states per template."""
    agents = []
    for name, blocks in m.agents:
        counts = dict(blocks)
        for state in x.get(name, ()):
            counts[state] = counts.get(state, 0) + 1
        agents.append((name, tuple(sorted(counts.items()))))
    return Snapshot(tuple(agents), m.env, m.turn)


def _layers(tables: StepTables, start: Snapshot, depth: int) -> list[Snapshot]:
    """Every snapshot within `depth` steps of `start`, breadth first; the
    goal does not stop the search."""
    seen, layer = {start: None}, [start]
    for _ in range(depth):
        nxt = []
        for m in layer:
            for _c, s in successors(tables, m):
                if s not in seen:
                    seen[s] = None
                    nxt.append(s)
        layer = nxt
    return list(seen)


@functools.cache
def _reachable(name: str, k: int, count: int):
    """The model `name`, its interleaved tables under its `k`-th of at most
    two interpretations, and the snapshots within 4 steps of `count` agents
    per template."""
    p = named_model(name)
    interps = relation_interpretations(p, budget=2)
    tables = StepTables(p, interps[k % len(interps)], "interleaved")
    start = initial_snapshot(p, {t.name: count for t in p.templates})
    return p, tables, _layers(tables, start, 4)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MODELS), st.integers(0, 1), st.integers(1, 2), st.data())
def test_interleaved_steps_lift_to_more_agents(name, k, count, data):
    """For a reachable snapshot m and extra agents x in any local states, each
    interleaved successor s of m gives s + x among the successors of m + x
    (the extra agents idle), and m + x meets the goal if m does: the
    monotonicity of well-structured systems (Abdulla, Čerāns, Jonsson & Tsay,
    LICS 1996) on counting snapshots."""
    p, tables, snaps = _reachable(name, k, count)
    m = data.draw(st.sampled_from(snaps))
    x: dict = {}
    for t in p.templates:
        sorts = [next(s for s in p.sorts if s.name == sort).constants for _v, sort, _i in t.variables]
        states = st.tuples(*map(st.sampled_from, sorts))
        x[t.name] = data.draw(st.lists(states, max_size=2))
    assume(any(x.values()))
    bigger = _plus(m, x)
    lifted = {succ for _c, succ in successors(tables, bigger)}
    for _c, succ in successors(tables, m):
        assert _plus(succ, x) in lifted, (m, x, succ)
    assert tables.reaches(bigger) or not tables.reaches(m)


@pytest.mark.parametrize("semantics, unlifted", [("interleaved", 0), ("concurrent", 6)])
def test_concurrent_steps_do_not_lift(cannon, semantics, unlifted):
    """Why `cross_check` searches the largest counts first only under
    interleaved semantics: a concurrent step makes every robot with an
    executable local action act, so one more robot in the initial state
    cannot stay idle.  Over the first 6 layers from one robot (13 snapshots,
    16 successors), 6 successors do not lift to two robots."""
    tables = StepTables(cannon, RelInterpretation(), semantics)
    start = initial_snapshot(cannon, {"Att": 1})
    x = {"Att": [state for state, _n in start.agents[0][1]]}
    snaps = _layers(tables, start, 5)
    pairs = [(m, succ) for m in snaps for _c, succ in successors(tables, m)]
    assert (len(snaps), len(pairs)) == (13, 16)
    missed = [
        (m, succ) for m, succ in pairs
        if _plus(succ, x) not in {s for _c, s in successors(tables, _plus(m, x))}
    ]
    assert len(missed) == unlifted


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


def _in_order_cross_check(p, semantics, max_count):
    """The reference for `cross_check` at its default budgets: every
    configuration searched in product order, counts outermost, up to the
    first that reaches the goal."""
    try:
        verdict = engine.breach(encoder.encode(p, semantics))
    except BudgetError:
        verdict = engine.Verdict(engine.UNKNOWN, depth=0)
    interps = relation_interpretations(p)
    names = [t.name for t in p.templates]
    reached_counts = overflow_counts = None
    configs = 0
    for combo in itertools.product(range(1, max_count + 1), repeat=len(names)):
        counts = tuple(zip(names, combo))
        for interp in interps:
            configs += 1
            status = enumerate_reachable(p, ConcreteConfig(counts, interp, semantics)).status
            if status == REACHED:
                reached_counts = counts
                break
            if status == OVERFLOW and overflow_counts is None:
                overflow_counts = counts
        if reached_counts:
            break
    reached = reached_counts is not None
    if verdict.status == engine.UNKNOWN:
        cls = "engine-unknown"
    elif not reached and overflow_counts is not None:
        cls = "oracle-overflow"
    elif verdict.status == engine.SAFE:
        cls = "engine-safe-oracle-reached" if reached else "agree-safe"
    else:
        cls = "agree-unsafe" if reached else "engine-unsafe-oracle-silent"
    return oracle.CrossCheckReport(
        semantics, verdict.status, verdict.depth, reached, cls, configs, reached_counts,
        (len(interps), interps.total), overflow_counts,
    )


def _spy_searches(monkeypatch) -> list:
    """The agent counts of each search `cross_check` makes, in order."""
    searched = []
    search = oracle.enumerate_reachable

    def spy(p, cfg, tables=None):
        searched.append(cfg.counts)
        return search(p, cfg, tables)

    monkeypatch.setattr(oracle, "enumerate_reachable", spy)
    return searched


class TestCrossCheck:
    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_matches_the_in_order_loop(self, semantics):
        """Searching the largest counts first changes no report: cannon and
        trains at every `max_count` to 3, and 16 corpus models."""
        cases = [(name, k) for name in ("cannon", "trains") for k in (1, 2, 3)]
        for name, k in cases + [(f"corpus{seed}", 3) for seed in range(16)]:
            p = named_model(name)
            assert cross_check(p, semantics, max_count=k) == _in_order_cross_check(p, semantics, k), (name, k)

    @pytest.mark.parametrize("semantics, searches, first", [("interleaved", 1, 3), ("concurrent", 9, 1)])
    def test_a_silent_largest_search_decides_every_count(self, trains, monkeypatch, semantics, searches, first):
        """Under interleaved semantics trains' SAFE is backed by one search,
        of 3 trains each way; concurrent steps are not monotone, so each of
        the 9 configurations is searched, in order."""
        searched = _spy_searches(monkeypatch)
        rep = cross_check(trains, semantics, max_count=3)
        assert (rep.classification, rep.configs_run) == ("agree-safe", 9)
        assert len(searched) == searches
        assert searched[0] == (("PTrain", first), ("NTrain", first))

    def test_a_reaching_largest_search_falls_back_to_the_in_order_loop(self, cannon, monkeypatch):
        """An engine stubbed to SAFE on cannon: two robots reach the goal, so
        the configurations are searched in order and the first to reach it,
        one robot, is reported."""
        monkeypatch.setattr("pmasafety.engine.breach", lambda abp, **kw: engine.Verdict(engine.SAFE, depth=0))
        searched = _spy_searches(monkeypatch)
        rep = cross_check(cannon, max_count=2, oracle_depth=12, interp_budget=1)
        assert (rep.classification, rep.configs_run) == ("engine-safe-oracle-reached", 1)
        assert rep.reached_counts == (("Att", 1),)
        assert searched == [(("Att", 2),), (("Att", 1),)]

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

    def test_one_table_per_interpretation(self, trains, monkeypatch):
        built = []

        class Counted(StepTables):
            def __init__(self, p, interp, semantics):
                built.append(interp)
                super().__init__(p, interp, semantics)

        monkeypatch.setattr(oracle, "StepTables", Counted)
        rep = cross_check(trains, max_count=3)
        assert (rep.classification, rep.configs_run) == ("agree-safe", 9)
        assert built == [RelInterpretation()]

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

    def test_rejects_negative_oracle_depth_before_the_engine(self, cannon, monkeypatch):
        def engine_ran(*args, **kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr("pmasafety.engine.breach", engine_ran)
        with pytest.raises(ValueError, match="must not be negative"):
            cross_check(cannon, max_count=1, oracle_depth=-1, interp_budget=1)

    def test_overflow_is_no_agreement(self, monkeypatch):
        """A configuration whose search overflowed might reach the goal, so
        when none reaches it the report says `oracle-overflow`, whatever the
        engine said; one that reaches the goal still decides.  The state
        budget is lowered so that one agent's search (1 750 successors)
        completes and two agents' overflows."""

        def budget(n: int) -> None:
            @dataclass(frozen=True)
            class Small(ConcreteConfig):
                max_states: int = n

            monkeypatch.setattr(oracle, "ConcreteConfig", Small)

        budget(2000)
        searched = _spy_searches(monkeypatch)
        p = parse_pmas(cyclic_model_text(), "cyclic")
        rep = cross_check(p, max_count=3)
        assert (rep.engine_status, rep.classification) == ("SAFE", "oracle-overflow")
        assert (rep.oracle_reached, rep.configs_run) == (False, 3)
        assert rep.overflow_counts == (("A", 2),)
        # three agents overflow first, so the counts are searched in order,
        # and the three agents' search is not repeated
        assert searched == [(("A", 3),), (("A", 1),), (("A", 2),)]
        # the engine finds this goal, and with 5 states every search overflows
        # before reaching it (one agent reaches it after 9)
        budget(5)
        both = parse_formula("x[j] = v1 and y[j] = v1")
        rep = cross_check(replace(p, goal=both), max_count=2)
        assert (rep.engine_status, rep.classification) == ("UNSAFE", "oracle-overflow")
        assert rep.overflow_counts == (("A", 1),)
        # one agent cannot reach a goal over two, and with 1 000 states its
        # search overflows; two agents reach it
        budget(1000)
        two = parse_formula("x[j1] = v1 and x[j2] = v1 and j1 != j2")
        rep = cross_check(replace(p, goal=two), max_count=2)
        assert (rep.classification, rep.reached_counts) == ("agree-unsafe", (("A", 2),))
        assert rep.overflow_counts == (("A", 1),)

    def test_engine_unknown_classification(self, cannon):
        rep = cross_check(
            cannon, max_count=1, oracle_depth=2, interp_budget=1, engine_max_depth=1
        )
        assert rep.classification == "engine-unknown"
        assert rep.engine_status == "UNKNOWN"
