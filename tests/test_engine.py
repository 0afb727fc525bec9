"""Backward-reachability engine: preimage, subsumption, fixpoint search."""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    CUBE_SIG,
    ConcreteAb,
    all_relation_tuples,
    brute_clauses_sat,
    brute_entailed,
    random_clause_problem,
    random_entailment,
    random_grouped_region,
    random_region,
    random_rule_and_cube,
    random_split_input,
    random_state_formula,
    reference_canon_cube,
    reference_entailed_by,
    reference_open_clauses,
    reference_preimage,
    region_of,
)
from pmasafety import engine
from pmasafety.corpus import generate_model
from pmasafety.dsl import parse_formula, parse_pmas
from pmasafety.encoder import TransitionRule, differentiate, encode, encode_goal
from pmasafety.engine import (
    SAFE,
    UNKNOWN,
    UNSAFE,
    Region,
    _clauses_sat,
    breach,
    canon_cube,
    check_locality,
    constants_clash,
    entailed_by,
    extract_run_template,
    init_sat,
    preimage,
    subsumes,
)
from pmasafety.logic import (
    ArrayRead,
    CongruenceClosure,
    Const,
    Cube,
    GlobalRef,
    IndexVar,
    LambdaUpdate,
    Lit,
    RelAtom,
    StateFormula,
    TypingError,
    lit_eq,
    lit_subst,
    make_cube,
)
from pmasafety.models import fixture_text


@pytest.fixture(scope="module")
def cannon():
    return parse_pmas(fixture_text("cannon"), "cannon")


@pytest.fixture(scope="module")
def abp(cannon):
    return encode(cannon, "interleaved")


def _loc_cube(var_names, value="target"):
    vs = [IndexVar(n, "Att_id") for n in var_names]
    return make_cube(vs, [lit_eq(ArrayRead("loc", v), Const(value)) for v in vs])


# names whose renderings are prefixes of one another, over two index sorts
_CANON_VARS = {"I": ["j", "j1", "j10", "j2"], "K": ["k", "k1", "k10", "$z0"]}
_CANON_ARRAYS = {"I": ["loc", "loc2"], "K": ["st"]}


@st.composite
def canon_inputs(draw) -> Cube:
    """A cube with 0-4 variables of each of two index sorts: array reads,
    globals and relation atoms, either sign; sometimes built with `Cube(...)`
    directly, so a variable may go unused and a literal may repeat."""
    vs = [IndexVar(n, s) for s, names in _CANON_VARS.items()
          for n in draw(st.lists(st.sampled_from(names), max_size=4, unique=True))]

    def term(free):
        v = draw(st.sampled_from(vs)) if vs else None
        options = [Const("a"), Const("ab"), GlobalRef("g"), GlobalRef("g1")]
        if v is not None:
            options += [ArrayRead(arr, v) for arr in _CANON_ARRAYS[v.sort]]
            if free:
                options.append(v)
        return draw(st.sampled_from(options))

    def lit():
        neg = draw(st.booleans())
        if vs and draw(st.integers(0, 3)) == 0:
            return Lit(neg, RelAtom(draw(st.sampled_from(["R", "R2"])), (term(True), term(True))))
        return lit_eq(term(False), term(False), neg=neg)

    lits = [lit() for _ in range(draw(st.integers(0, 6)))]
    if draw(st.booleans()):
        return Cube(tuple(vs), tuple(lits + lits[:1]))
    return make_cube(vs, lits)


class TestCanonCube:
    @settings(max_examples=400, deadline=None)
    @given(canon_inputs(), st.randoms(use_true_random=False))
    def test_matches_reference(self, cube, rng):
        got = canon_cube(cube)
        want = reference_canon_cube(cube)
        assert got == want and repr(got) == repr(want)
        # a renamed and reordered copy has the same canonical form
        sub = {}
        for sort, vs in cube.vars_by_sort().items():
            names = [f"w{k}" for k in range(len(vs))]
            rng.shuffle(names)
            sub.update({v: IndexVar(n, sort) for v, n in zip(vs, names)})
        exists = [sub[v] for v in cube.exists]
        lits = [lit_subst(l, sub) for l in cube.lits]
        rng.shuffle(exists)
        rng.shuffle(lits)
        assert canon_cube(Cube(tuple(exists), tuple(lits))) == got

    def test_frontier_cubes_match_reference(self, cannon, two_robot):
        trains = parse_pmas(fixture_text("trains"), "trains")
        verdicts = [breach(encode(cannon, "interleaved")), breach(encode(trains, "interleaved")),
                    two_robot.verdict]
        cubes = [c for v in verdicts for layer in v.layers for c in layer.cubes]
        assert len(cubes) == 97 + 123 + 524
        for c in cubes:
            assert canon_cube(c) == reference_canon_cube(c) == c

    def test_renaming_invariance(self):
        a = _loc_cube(["zz9", "q3"])
        b = _loc_cube(["j1", "j2"])
        assert canon_cube(a) == canon_cube(b)

    def test_idempotent(self):
        c = canon_cube(_loc_cube(["x", "y"]))
        assert canon_cube(c) == c


class TestSubsumes:
    def test_reflexive(self):
        c = canon_cube(_loc_cube(["j"]))
        assert subsumes(c, c)

    def test_fewer_literals_subsume_more(self):
        small = canon_cube(_loc_cube(["j1"]))
        big = canon_cube(_loc_cube(["j1", "j2"]))
        assert subsumes(small, big)
        assert not subsumes(big, small)

    def test_distinct_values_do_not_subsume(self):
        a = canon_cube(_loc_cube(["j"], "A"))
        b = canon_cube(_loc_cube(["j"], "B"))
        assert not subsumes(a, b)


class TestRegion:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9))
    def test_covers_agrees_with_linear_scan(self, seed):
        cubes, queries = random_region(seed)
        region = Region()
        for k in range(len(cubes) + 1):
            if k:
                region.add(cubes[k - 1])
            assert region.cubes == cubes[:k]
            for q in queries:
                assert region.covers(q) == any(subsumes(a, q) for a in cubes[:k])

    def test_cube_without_literals_covers_everything(self):
        region = Region()
        region.add(make_cube([], []))
        assert region.covers(canon_cube(_loc_cube(["j"])))


class TestEntailedBy(object):
    def test_subsuming_region_entails(self, abp):
        small = canon_cube(_loc_cube(["j1"]))
        big = canon_cube(_loc_cube(["j1", "j2"]))
        assert entailed_by(big, region_of([small]))

    def test_unrelated_region_does_not_entail(self, abp):
        a = canon_cube(_loc_cube(["j"], "A"))
        b = canon_cube(_loc_cube(["j"], "B"))
        assert not entailed_by(a, region_of([b]))

    def test_region_needing_more_indexes_does_not_entail(self):
        # one robot at target does not give two distinct ones
        small = canon_cube(_loc_cube(["j1"]))
        big = canon_cube(_loc_cube(["j1", "j2"]))
        assert not entailed_by(small, region_of([big]))
        j1, j2 = IndexVar("j1", "Att_id"), IndexVar("j2", "Att_id")
        one_of_two = make_cube([j1, j2], [
            lit_eq(ArrayRead("loc", j1), Const("target")),
            lit_eq(ArrayRead("loc", j2), Const("A")),
        ])
        assert not entailed_by(canon_cube(one_of_two), region_of([big]))

    def test_case_split_on_a_global_entails(self):
        # the cube leaves g1 open; the region covers both of its cases
        z, w = IndexVar("z", "I"), IndexVar("w", "I")
        g1, p = GlobalRef("g1"), Const("p")
        cube = make_cube([z], [lit_eq(ArrayRead("f", z), p)])
        region = [
            make_cube([w], [lit_eq(g1, p, neg=neg), lit_eq(ArrayRead("f", w), p)])
            for neg in (False, True)
        ]
        assert entailed_by(cube, region_of(region))
        assert not entailed_by(cube, region_of(region[:1]))

    # the exists/forall cases: the cube is the existential part, each region
    # cube the negation of a universal one

    def test_empty_region_entails_nothing(self):
        z = IndexVar("z", "I")
        assert not entailed_by(make_cube([], []), region_of([]))
        assert not entailed_by(make_cube([z], [lit_eq(ArrayRead("f", z), Const("p"))]), region_of([]))

    def test_one_index_model_escapes_a_two_index_region(self):
        z, w1, w2 = IndexVar("z", "I"), IndexVar("w1", "I"), IndexVar("w2", "I")
        p = Const("p")
        cube = make_cube([z], [lit_eq(ArrayRead("f", z), p)])
        region = [make_cube([w1, w2], [lit_eq(ArrayRead("f", w1), p), lit_eq(ArrayRead("f", w2), p)])]
        assert not entailed_by(cube, region_of(region))

    def test_universal_blocks_a_second_value(self):
        # E z1 z2. f[z1]=p & f[z2]=q  is refuted by  A w. f[w]=p
        z1, z2, w = IndexVar("z1", "I"), IndexVar("z2", "I"), IndexVar("w", "I")
        p, q = Const("p"), Const("q")
        cube = make_cube([z1, z2], [lit_eq(ArrayRead("f", z1), p), lit_eq(ArrayRead("f", z2), q)])
        assert entailed_by(cube, region_of([make_cube([w], [lit_eq(ArrayRead("f", w), p, neg=True)])]))

    def test_universal_over_an_empty_sort_is_vacuous(self):
        # a cube without index variables has a model with no index at all
        w, g1, p = IndexVar("w", "I"), GlobalRef("g1"), Const("p")
        cube = make_cube([], [lit_eq(g1, p)])
        region = [make_cube([w], [lit_eq(ArrayRead("f", w), p, neg=True)])]
        assert not entailed_by(cube, region_of(region))
        assert entailed_by(cube, region_of([make_cube([], [lit_eq(g1, p)])]))

    def test_two_variable_region_cube_tries_every_injective_instance(self):
        z1, z2 = IndexVar("z1", "I"), IndexVar("z2", "I")
        w1, w2 = IndexVar("w1", "I"), IndexVar("w2", "I")
        p, q = Const("p"), Const("q")
        # only w1 -> z2, w2 -> z1 matches
        cube = make_cube([z1, z2], [lit_eq(ArrayRead("f", z1), q), lit_eq(ArrayRead("f", z2), p)])
        region = [make_cube([w1, w2], [lit_eq(ArrayRead("f", w1), p), lit_eq(ArrayRead("f", w2), q)])]
        assert entailed_by(cube, region_of(region))
        # w1, w2 -> z1, z1 would match, but distinct region variables are distinct indexes
        same = make_cube([z1, z2], [lit_eq(ArrayRead("f", z1), p), lit_eq(ArrayRead("f", z2), q)])
        both_p = [make_cube([w1, w2], [lit_eq(ArrayRead("f", w1), p), lit_eq(ArrayRead("f", w2), p)])]
        assert not entailed_by(same, region_of(both_p))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**9))
    def test_agrees_with_brute_force(self, seed):
        cube, region = random_entailment(seed)
        assert entailed_by(cube, region_of(region)) == brute_entailed(cube, region, CUBE_SIG)


class TestEntailedByReference:
    """`entailed_by` builds only the open clauses; `reference_entailed_by`
    builds every clause, as the engine did before.  They must agree."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from([None, 0, 1]))
    def test_agrees_with_reference(self, seed, slack):
        # slack 0: the instance count equals the cap; 1: it is one above it
        cube, region = random_entailment(seed)
        if slack is None:
            cap = 2000
        else:
            total = sum(math.perm(len(cube.exists), len(b.exists)) for b in region)
            cap = total - slack
        got = entailed_by(cube, region_of(region), cap)
        assert got == reference_entailed_by(cube, region, cap)

    def test_refuted_instance_proves_entailment(self):
        z, w = IndexVar("z", "I"), IndexVar("w", "I")
        g1, p, q = GlobalRef("g1"), Const("p"), Const("q")
        cube = make_cube([z], [lit_eq(ArrayRead("f", z), p), lit_eq(g1, q)])
        region = [
            make_cube([w], [lit_eq(ArrayRead("h", w), Const("u"))]),  # an open clause
            make_cube([w], [lit_eq(ArrayRead("f", w), p), lit_eq(g1, q)]),  # all false
        ]
        for cap, want in ((2, True), (1, False)):  # count equal to the cap, one above
            assert entailed_by(cube, region_of(region), cap) is want
            assert reference_entailed_by(cube, region, cap) is want

    def test_inconsistent_cube_is_entailed(self):
        g1 = GlobalRef("g1")
        cube = make_cube([], [lit_eq(g1, Const("p")), lit_eq(g1, Const("q"))])
        assert entailed_by(cube, Region()) and reference_entailed_by(cube, [])
        assert entailed_by(cube, region_of([cube]), 0)

    def test_agrees_with_reference_on_every_call_of_a_run(self, spied_run):
        assert spied_run.entailed
        for cube, cubes, got in spied_run.entailed:
            assert got == reference_entailed_by(cube, cubes), cube


class TestEntailedByGroup:
    """`Region.tables` files the cubes in groups that share their variable
    counts and index-free literals, and `entailed_by` dismisses a group at
    once; the rest must still be visited in region order."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from([None, 0, 1]))
    def test_grown_region_agrees_with_an_ungrouped_scan(self, seed, slack):
        # slack 0: the instance count equals the cap; 1: it is one above it
        cubes, queries = random_grouped_region(seed)
        searched: list[list[tuple[Lit, ...]]] = []

        def spy(cc, todo, *args):
            searched.append([tuple(cl) for cl in todo])
            return _clauses_sat(cc, todo, *args)

        region = Region()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(engine, "_clauses_sat", spy)
            for k, c in enumerate(cubes, start=1):
                region.add(c)
                for q in queries:
                    total = sum(math.perm(len(q.exists), len(b.exists)) for b in cubes[:k])
                    cap = 2000 if slack is None else total - slack
                    searched.clear()
                    got = entailed_by(q, region, cap)
                    assert got == reference_entailed_by(q, cubes[:k], cap)
                    want = reference_open_clauses(q, cubes[:k], cap)
                    assert searched == ([] if want is None else [want])


class TestClausesSat:
    def test_deep_search_is_iterative_and_fast(self):
        # one decision per clause: a recursive search would pass Python's
        # recursion limit, and one rebuilt per node would be quadratic
        clauses = [[Lit(True, RelAtom("R", (Const(f"c{k}"),)))] for k in range(1100)]
        t0 = time.perf_counter()
        assert _clauses_sat(CongruenceClosure(), clauses)
        assert time.perf_counter() - t0 < 1.0

    def test_backtracking_retracts_the_failed_choice(self):
        g1, p, q = GlobalRef("g1"), Const("p"), Const("q")
        clauses = [[lit_eq(g1, p), lit_eq(g1, q)], [lit_eq(g1, p, neg=True)]]
        assert _clauses_sat(CongruenceClosure(), clauses)

    def test_every_clause_is_decided(self):
        g1, g2 = GlobalRef("g1"), GlobalRef("g2")
        clauses = [[lit_eq(g1, Const("p"))], [lit_eq(g2, Const("u"))], [lit_eq(g2, Const("v"))]]
        assert not _clauses_sat(CongruenceClosure(), clauses)

    def test_falsified_clause_is_unsat(self):
        cc = CongruenceClosure()
        assert cc.assert_lit(lit_eq(GlobalRef("g1"), Const("p")))
        assert not _clauses_sat(cc, [[lit_eq(GlobalRef("g1"), Const("q"))]])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9))
    def test_agrees_with_brute_force(self, seed):
        base, clauses = random_clause_problem(seed)
        cc = CongruenceClosure()
        got = cc.assert_lits(base) and _clauses_sat(cc, clauses)
        assert got == brute_clauses_sat(base, clauses, CUBE_SIG)


class TestInitSat:
    def test_goal_not_initial(self, abp, cannon):
        (goal_cube,) = encode_goal(cannon, abp.sig).cubes
        assert not init_sat(abp, goal_cube)

    def test_initial_location_is_initial(self, abp):
        assert init_sat(abp, _loc_cube(["j"], "init"))

    def test_contradicting_global_not_initial(self, abp):
        c = make_cube([], [lit_eq(GlobalRef("pulse_loc"), Const("A"))])
        assert not init_sat(abp, c)


class TestBreach:
    def test_cannon_unsafe_with_trace(self, abp):
        v = breach(abp)
        assert v.status == UNSAFE
        assert v.depth == 8
        assert len(v.trace) == v.depth
        assert v.run_template == extract_run_template(v.trace)
        assert v.run_template, "an unsafe verdict carries a run template"

    def test_trains_safe(self):
        p = parse_pmas(fixture_text("trains"), "trains")
        v = breach(encode(p, "interleaved"))
        assert v.status == SAFE
        assert v.layers, "fixpoint keeps the explored layers for inspection"

    def test_depth_budget_unknown(self, abp):
        v = breach(abp, max_depth=1)
        assert v.status == UNKNOWN
        assert v.reason

    def test_cube_budget_unknown(self, abp):
        v = breach(abp, max_cubes=2)
        assert v.status == UNKNOWN

    def test_deterministic(self, abp):
        v1, v2 = breach(abp), breach(abp)
        assert (v1.status, v1.depth, v1.total_cubes) == (v2.status, v2.depth, v2.total_cubes)
        assert [s.rule_label for s in v1.trace] == [s.rule_label for s in v2.trace]


class TestPreimageExactness:
    """On a 2-agent concretization, preimage = exactly the states with a
    successor in the target region (checked in both directions)."""

    def test_exact_on_small_models(self):
        rng = random.Random(99)
        checked = 0
        for seed in (3, 8, 10):
            p = generate_model(seed)
            abp = encode(p, "interleaved")
            ca = ConcreteAb(abp, 2, frozenset())
            states = list(ca.all_states())
            ca.interp = frozenset(
                t for t in all_relation_tuples(abp.sig) if rng.random() < 0.5
            )
            for _ in range(6):
                rule = rng.choice([r for r in abp.rules if not r.gates])
                phi = random_state_formula(rng, abp)
                pre = [c for cu in phi.cubes for c in preimage(rule, cu, abp.sig, Region())]
                for st in states:
                    sym = any(ca.cube_sat(c, st) for c in pre)
                    conc = any(
                        (succ := ca.apply_rule(rule, st, idx)) is not None
                        and ca.formula_sat(phi, succ)
                        for idx in ca.rule_assignments(rule)
                    )
                    assert sym == conc, (
                        f"seed {seed}, rule {rule.label}: preimage "
                        f"{'over' if sym else 'under'}-approximates"
                    )
                checked += 1
        assert checked == 18


def _breach_with_spies(monkeypatch, abp):
    """Run `breach`, recording every (rule, cube) pair the constant-clash
    filter skips and, for every preimage it builds, the preimage of the same
    rule and cube against an empty region: nothing pruned."""
    skipped, built = [], []
    clash, pre = engine.constants_clash, engine.preimage

    def clash_spy(rule, cube):
        out = clash(rule, cube)
        if out:
            skipped.append((rule, cube))
        return out

    def pre_spy(rule, cube, sig, region, *args):
        built.append(pre(rule, cube, sig, Region(), *args))
        return pre(rule, cube, sig, region, *args)

    with monkeypatch.context() as m:
        m.setattr(engine, "constants_clash", clash_spy)
        m.setattr(engine, "preimage", pre_spy)
        breach(abp)
    return skipped, built


def _spied_breach(abp) -> SimpleNamespace:
    """Run `breach`, recording for every `preimage` call whether it returned
    the unpruned preimage less the cubes its region covers and whether the
    unpruned preimage is `reference_preimage`'s, for every `canon_cube` call
    whether the region of the preimage it runs in covers its cube, and every
    `entailed_by` call as (cube, region cubes, answer)."""
    rec = SimpleNamespace(pruned_exactly=[], as_reference=[], canon_covered=[], entailed=[])
    pre, canon, ent = engine.preimage, engine.canon_cube, engine.entailed_by
    current = [Region()]  # the region of the preimage call in progress

    def pre_spy(rule, cube, sig, region, *args):
        full = pre(rule, cube, sig, Region(), *args)
        rec.as_reference.append(full == reference_preimage(rule, cube, sig, Region(), *args))
        current[0] = region
        out = pre(rule, cube, sig, region, *args)
        current[0] = Region()
        rec.pruned_exactly.append(out == [c for c in full if not region.covers(c)])
        return out

    def canon_spy(cube):
        rec.canon_covered.append(current[0].covers(cube))
        return canon(cube)

    def ent_spy(cube, region, *args):
        out = ent(cube, region, *args)
        rec.entailed.append((cube, list(region.cubes), out))
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "preimage", pre_spy)
        m.setattr(engine, "canon_cube", canon_spy)
        m.setattr(engine, "entailed_by", ent_spy)
        breach(abp)
    return rec


@pytest.fixture(scope="module", params=[
    "cannon", "trains", "two-robot", "cannon/concurrent", "trains/concurrent",
])
def spied_run(request) -> SimpleNamespace:
    name, _, semantics = request.param.partition("/")
    p = parse_pmas(fixture_text(name.replace("two-robot", "cannon")), name)
    if name == "two-robot":
        p = replace(p, goal=parse_formula("loc[j1] = target and loc[j2] = target and j1 != j2"))
    return _spied_breach(encode(p, semantics or "interleaved"))


# `preimage(rule, cube, sig, Region())` over every rule and every frontier
# cube of the interleaved verdict, hashed; recorded before coverage was
# checked inside `preimage`, when it returned every cube it found
_EMPTY_REGION_PREIMAGE_DIGESTS = {"cannon": "f3e343a1a798f9fc", "trains": "5c6214f3af20170c"}


class TestPreimageRegion:
    @pytest.mark.parametrize("name", sorted(_EMPTY_REGION_PREIMAGE_DIGESTS))
    def test_empty_region_keeps_every_cube(self, name):
        abp = encode(parse_pmas(fixture_text(name), name), "interleaved")
        outs = [
            repr(preimage(rule, c, abp.sig, Region()))
            for fr in breach(abp).layers for c in fr.cubes for rule in abp.rules
        ]
        digest = hashlib.sha256("\n".join(outs).encode()).hexdigest()[:16]
        assert digest == _EMPTY_REGION_PREIMAGE_DIGESTS[name]

    def test_drops_exactly_the_covered_cubes(self, spied_run):
        assert spied_run.pruned_exactly and all(spied_run.pruned_exactly)

    def test_canon_cube_never_gets_a_covered_cube(self, spied_run):
        assert spied_run.canon_covered and not any(spied_run.canon_covered)


class TestCoverageInDifferentiate:
    """`preimage` hands `differentiate` the coverage test, which drops a
    covered branch before its EUF check."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9))
    def test_same_cubes_as_filtering_afterwards(self, seed):
        lits, distinct, cubes = random_split_input(seed)
        region = region_of(cubes)
        full = differentiate(lits, CUBE_SIG, distinct=distinct)
        got = differentiate(lits, CUBE_SIG, distinct=distinct, covered=region.covers)
        assert got == [c for c in full if not region.covers(c)]

    def test_covered_ill_typed_cube_still_raises(self):
        z = IndexVar("z1", "I")
        lits = (lit_eq(ArrayRead("f", z), Const("u")),)  # f holds S1, u is of S2
        everything = region_of([make_cube([], [])])
        assert everything.covers(make_cube([z], lits))
        with pytest.raises(TypingError):
            differentiate(lits, CUBE_SIG, covered=everything.covers)


class TestCompiledPreimage:
    """`preimage` builds each rule's part once and conjoins ready-made DNF
    items; `reference_preimage` normalises one formula per call."""

    def test_matches_reference_on_every_call_of_a_run(self, spied_run):
        assert spied_run.as_reference and all(spied_run.as_reference)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9))
    @example(17445)  # the cube holds f[z1]=f[z1], which the rule leaves untouched
    def test_matches_reference_on_random_rules(self, seed):
        rule, cube = random_rule_and_cube(seed)
        assert preimage(rule, cube, CUBE_SIG, Region()) == reference_preimage(
            rule, cube, CUBE_SIG, Region()
        )

    @pytest.mark.parametrize("model, semantics", [
        ("cannon", "interleaved"), ("trains", "concurrent"),
    ])
    def test_budget_after_a_warm_run(self, model, semantics):
        """The literal items a default-cap run leaves on the rules change no
        later run's verdict under a smaller `dnf_cap`."""
        warm = encode(parse_pmas(fixture_text(model), model), semantics)
        breach(warm)
        for cap in (1, 2, 4, 16):
            fresh = encode(parse_pmas(fixture_text(model), model), semantics)
            v, w = breach(warm, dnf_cap=cap), breach(fresh, dnf_cap=cap)
            assert (v.status, v.depth, v.reason) == (w.status, w.depth, w.reason), cap


def _clash_cases():
    cases = [("cannon", "interleaved"), ("trains", "interleaved"), ("trains", "concurrent")]
    out = [pytest.param(n, s, id=f"{n}-{s}") for n, s in cases]
    for seed in range(8):
        for sem in ("interleaved", "concurrent"):
            out.append(pytest.param(seed, sem, id=f"corpus{seed}-{sem}"))
    return out


class TestConstantsClash:
    @pytest.mark.parametrize("model, semantics", _clash_cases())
    def test_skips_only_empty_preimages(self, model, semantics, monkeypatch):
        if isinstance(model, str):
            p = parse_pmas(fixture_text(model), model)
        else:
            p = generate_model(model)
        abp = encode(p, semantics)
        skipped, _ = _breach_with_spies(monkeypatch, abp)
        for rule, cube in skipped:
            assert preimage(rule, cube, abp.sig, Region()) == [], (rule.label, cube)

    def test_skips_every_empty_preimage_of_cannon(self, abp, monkeypatch):
        skipped, built = _breach_with_spies(monkeypatch, abp)
        assert len(skipped) == 1232
        assert len(built) == 176 and all(built)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9))
    def test_clash_implies_empty_preimage_on_random_rules(self, seed):
        rule, cube = random_rule_and_cube(seed)
        if constants_clash(rule, cube):
            assert preimage(rule, cube, CUBE_SIG, Region()) == []

    def test_guard_and_bulk_reset_tables(self):
        g, f, z = GlobalRef("g1"), "f", IndexVar("z", "I")
        p, q = Const("p"), Const("q")

        def cube(*lits):
            return make_cube([z], lits)

        def rule(guard=(), globals_upd=(), arrays_upd=()):
            return TransitionRule("t", "declare", (), guard, globals_upd, arrays_upd)

        # an unwritten global keeps what the guard pins or bars
        pins, bars = rule((lit_eq(g, p),)), rule((lit_eq(g, p, neg=True),))
        assert constants_clash(pins, cube(lit_eq(g, q)))
        assert not constants_clash(pins, cube(lit_eq(g, p)))
        assert constants_clash(bars, cube(lit_eq(g, p)))
        assert not constants_clash(bars, cube(lit_eq(g, q)))
        # a write overrides the guard
        bars_writes = rule((lit_eq(g, p, neg=True),), (("g1", p),))
        assert not constants_clash(bars_writes, cube(lit_eq(g, p)))
        assert constants_clash(bars_writes, cube(lit_eq(g, q)))
        # a bulk reset fixes every cell of its array
        reset = rule(arrays_upd=((f, LambdaUpdate(IndexVar("$u", "I"), p)),))
        assert constants_clash(reset, cube(lit_eq(ArrayRead(f, z), q)))
        assert constants_clash(reset, cube(lit_eq(ArrayRead(f, z), p, neg=True)))
        assert not constants_clash(reset, cube(lit_eq(ArrayRead(f, z), p)))


class TestLocality:
    def test_cannon_guarantees_termination(self, abp):
        rep = check_locality(abp)
        assert rep.goal_local and rep.protocols_local
        assert rep.guaranteed_termination
        assert not rep.spurious_unsafe_possible
        assert rep.nonlocal_literals == []

    def test_cross_index_goal_not_local(self, abp):
        j1, j2 = IndexVar("j1", "Att_id"), IndexVar("j2", "Att_id")
        goal = StateFormula(
            (make_cube([j1, j2], [lit_eq(ArrayRead("loc", j1), ArrayRead("loc", j2))]),)
        )
        rep = check_locality(abp, goal=goal)
        assert not rep.goal_local
        assert rep.nonlocal_literals

    def test_concurrent_flags_spurious_unsafe(self, cannon):
        rep = check_locality(encode(cannon, "concurrent"))
        assert rep.spurious_unsafe_possible
        assert not rep.guaranteed_termination


def test_two_robot_template_needs_three_agents(two_robot):
    """The two-at-target variant: the engine's template replays with 3 agents
    but not with 2 (one robot must soak up each blast)."""
    from pmasafety.model import RelInterpretation
    from pmasafety.oracle import ConcreteConfig, VALID, replay_run_template

    p2, v, _ = two_robot
    assert v.status == UNSAFE
    cfg3 = ConcreteConfig((("Att", 3),), RelInterpretation(), "interleaved")
    assert replay_run_template(p2, v.run_template, cfg3).status == VALID


@pytest.mark.slow
def test_two_robot_concurrent_verdict():
    """The two-at-target variant under concurrent semantics, about half a
    minute of checking: its template replays with 2 and 3 agents, not 1."""
    from pmasafety.model import RelInterpretation
    from pmasafety.oracle import ConcreteConfig, INVALID, VALID, replay_run_template

    p = parse_pmas(fixture_text("cannon"), "cannon")
    p2 = replace(p, goal=parse_formula("loc[j1] = target and loc[j2] = target and j1 != j2"))
    v = breach(encode(p2, "concurrent"))
    assert (v.status, v.depth, v.total_cubes) == (UNSAFE, 14, 6887)
    assert v.run_template == [frozenset({a}) for a in ("pulseA", "gotoB", "pulseA", "goTargetB")]
    for att, want in ((1, INVALID), (2, VALID), (3, VALID)):
        cfg = ConcreteConfig((("Att", att),), RelInterpretation(), "concurrent")
        assert replay_run_template(p2, v.run_template, cfg).status == want, att
