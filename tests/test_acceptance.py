"""End-to-end acceptance checks.

Each test prints a single ``criterion N: PASS`` line (visible with ``-s``;
the per-test pass/fail line of ``pytest -v`` carries the same information).
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

import pytest

from helpers import (
    ConcreteAb,
    CUBE_SIG,
    all_relation_tuples,
    brute_sat_cube,
    brute_entailed,
    random_entailment,
    random_ground_cube,
    random_state_formula,
    reference_entailed_by,
    region_of,
)
from pmasafety.corpus import generate_corpus, generate_model
from pmasafety.dsl import parse_pmas
from pmasafety.encoder import encode
from pmasafety.engine import (
    SAFE,
    UNSAFE,
    Region,
    breach,
    check_locality,
    entailed_by,
    preimage,
)
from pmasafety.logic import (
    ArrayRead,
    Eq,
    IndexVar,
    StateFormula,
    cube_vars_of_lits,
    ground_lits_sat,
    lit_eq,
    make_cube,
)
from pmasafety.mcmt import emit_mcmt, parse_mcmt_witness
from pmasafety.model import RelInterpretation, index_sort
from pmasafety.models import fixture_text
from pmasafety.oracle import (
    ConcreteConfig,
    REACHED,
    VALID,
    cross_check,
    enumerate_reachable,
    replay_run_template,
)

from pathlib import Path

GOLDEN = Path(__file__).parent / "data" / "cannon.mcmt"


@pytest.fixture(scope="module")
def cannon():
    return parse_pmas(fixture_text("cannon"), "cannon")


@pytest.fixture(scope="module")
def trains():
    return parse_pmas(fixture_text("trains"), "trains")


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(100)


def _report(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS — {detail}")


def test_c1_cannon_unsafe_and_replay(cannon):
    t0 = time.monotonic()
    verdict = breach(encode(cannon, "interleaved"))
    assert verdict.status == UNSAFE
    assert len(verdict.run_template) <= 12
    cfg = ConcreteConfig((("Att", 1),), RelInterpretation(), "interleaved", max_depth=12)
    replay = replay_run_template(cannon, verdict.run_template, cfg)
    assert replay.status == VALID
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _report(1, f"UNSAFE depth {verdict.depth}, replay VALID with 1 agent, {elapsed:.1f}s")


def test_c2_two_robot_goal(two_robot):
    t0 = time.monotonic()
    p2, verdict, breach_s = two_robot
    assert verdict.status == UNSAFE
    cfg = ConcreteConfig((("Att", 3),), RelInterpretation(), "interleaved", max_depth=15)
    oracle = enumerate_reachable(p2, cfg)
    assert oracle.status == REACHED
    elapsed = breach_s + time.monotonic() - t0
    assert elapsed < 120
    _report(2, f"UNSAFE depth {verdict.depth}, oracle REACHED with 3 agents, {elapsed:.1f}s")


def test_c3_trains_safe(trains):
    t0 = time.monotonic()
    verdict = breach(encode(trains, "interleaved"), max_depth=200)
    assert verdict.status == SAFE
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _report(3, f"SAFE at depth {verdict.depth}, {elapsed:.1f}s")


def test_c4_locality(cannon):
    abp = encode(cannon, "interleaved")
    rep = check_locality(abp)
    assert rep.guaranteed_termination is True

    # a goal with a cross-index atom  av[j1] = bv[j2]  over two templates
    p2 = next(
        generate_model(s) for s in range(100) if len(generate_model(s).templates) == 2
    )
    abp2 = encode(p2, "interleaved")
    j1 = IndexVar("j1", index_sort(p2.templates[0]))
    j2 = IndexVar("j2", index_sort(p2.templates[1]))
    goal = StateFormula(
        (make_cube([j1, j2], [lit_eq(ArrayRead("av", j1), ArrayRead("bv", j2))]),)
    )
    rep2 = check_locality(replace(abp2, goal=goal))
    assert rep2.goal_local is False
    _report(4, "cannon guaranteed-termination true; cross-index goal not local")


def test_c5_corpus_interleaved_agreement(corpus):
    t0 = time.monotonic()
    tally: dict[str, int] = {}
    for seed, p in corpus:
        rep = cross_check(p, semantics="interleaved", max_count=3, oracle_depth=15)
        tally[rep.classification] = tally.get(rep.classification, 0) + 1
        assert rep.classification in ("agree-safe", "agree-unsafe"), (
            f"seed {seed}: {rep.classification}"
        )
    elapsed = time.monotonic() - t0
    assert elapsed < 1800
    _report(5, f"{len(corpus)} models, {tally}, {elapsed:.1f}s")


def test_c6_corpus_concurrent_partial_soundness(corpus):
    t0 = time.monotonic()
    tally: dict[str, int] = {}
    for seed, p in corpus:
        rep = cross_check(p, semantics="concurrent", max_count=3, oracle_depth=15)
        tally[rep.classification] = tally.get(rep.classification, 0) + 1
        assert rep.classification != "engine-safe-oracle-reached", f"seed {seed}"
    elapsed = time.monotonic() - t0
    assert elapsed < 1800
    silent = tally.get("engine-unsafe-oracle-silent", 0)
    _report(6, f"{len(corpus)} models, {tally}, {silent} over-approximations, {elapsed:.1f}s")


def test_c7_solver_vs_brute_force():
    t0 = time.monotonic()
    for seed in range(500):
        cube = random_ground_cube(seed)
        assert ground_lits_sat(cube.lits) == brute_sat_cube(cube, CUBE_SIG), f"cube {seed}"
    # entailment by subsumption: sound everywhere, and the reference's
    # answer where every cell comes before a constant and the cube is satisfiable
    proved = entailed = exact = 0
    for seed in range(500):
        for contract in (False, True):
            cube, region = random_entailment(seed, contract)
            got = entailed_by(cube, region_of(region), CUBE_SIG)
            if contract:
                assert got == reference_entailed_by(cube, region), f"entailment {seed}"
                exact += 1
            truth = brute_entailed(cube, region, CUBE_SIG)
            assert truth or not got, f"entailment {seed} proved, but not entailed"
            proved += got
            entailed += truth
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _report(7, f"500 cubes agree; 1000 exists/forall entailment problems sound, "
            f"{exact} of them as the reference, {proved} proved of {entailed} entailed, "
            f"{elapsed:.1f}s")


def test_c8_preimage_one_step_soundness():
    t0 = time.monotonic()
    rng = random.Random(20260823)
    usable = []
    for seed in range(200):
        p = generate_model(seed)
        abp = encode(p, "interleaved")
        if ConcreteAb(abp, 2, frozenset()).state_count() <= 20000:
            usable.append(abp)
        if len(usable) >= 15:
            break
    caches: dict[int, tuple] = {}
    pairs = 0
    while pairs < 200:
        abp = usable[pairs % len(usable)]
        rules = [r for r in abp.rules if not r.gates]
        rule = rng.choice(rules)
        phi = random_state_formula(rng, abp)
        pre = [c for cu in phi.cubes for c in preimage(rule, cu, Region())]
        # well-formed: differentiated cubes, closed prefixes, no index equalities
        for c in pre:
            assert set(cube_vars_of_lits(c.lits)) <= set(c.exists)
            for l in c.lits:
                a = l.atom
                assert not (
                    isinstance(a, Eq)
                    and isinstance(a.lhs, IndexVar)
                    and isinstance(a.rhs, IndexVar)
                )
        key = id(abp)
        if key not in caches:
            ca = ConcreteAb(abp, 2, frozenset())
            caches[key] = (ca, list(ca.all_states()))
        ca, states = caches[key]
        ca.interp = frozenset(
            t for t in all_relation_tuples(abp.sig) if rng.random() < 0.5
        )
        for st in states:
            if any(ca.cube_sat(c, st) for c in pre):
                assert any(
                    (succ := ca.apply_rule(rule, st, idx)) is not None
                    and ca.formula_sat(phi, succ)
                    for idx in ca.rule_assignments(rule)
                ), f"state in preimage of {rule.label} cannot step into the target"
        pairs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _report(8, f"200 (rule, formula) pairs one-step sound, {elapsed:.1f}s")


def test_c9_mcmt_golden_and_witness(cannon):
    emitted = emit_mcmt(encode(cannon, "interleaved"))
    assert emitted == GOLDEN.read_text()
    tokens = parse_mcmt_witness("[t2][t17][t3_1][t15][t1][t16][t5_1][t15]")
    assert len(tokens) == 8
    assert tokens[0] == (2, None)
    assert tokens[2] == (3, 1)
    _report(9, "emission matches golden file byte-for-byte; witness parses to 8 tokens")


def test_c10_cannon_concurrent_unsafe_and_replay(cannon):
    """Under concurrent semantics the engine over-approximates; this UNSAFE
    is real, since its run template replays with 1, 2 and 3 agents.  (The
    two-robot goal under concurrent semantics takes about half a minute and
    is recorded in ROADMAP.md instead.)"""
    t0 = time.monotonic()
    verdict = breach(encode(cannon, "concurrent"))
    assert (verdict.status, verdict.depth) == (UNSAFE, 12)
    for att in (1, 2, 3):
        cfg = ConcreteConfig((("Att", att),), RelInterpretation(), "concurrent", max_depth=12)
        assert replay_run_template(cannon, verdict.run_template, cfg).status == VALID, att
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _report(10, f"concurrent UNSAFE depth {verdict.depth}, replay VALID with 1-3 agents, {elapsed:.1f}s")
