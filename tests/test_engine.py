"""Backward-reachability engine: preimage, subsumption, fixpoint search."""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    CUBE_SIG,
    CongruenceClosure,
    ConcreteAb,
    UNARY_SIG,
    _ZS,
    _rand_lit,
    _region_instances,
    all_relation_tuples,
    brute_entailed,
    brute_sat_cube,
    cells_first,
    check_lit_types,
    constants_clash,
    implied_lits,
    random_entailment,
    random_region,
    random_rule_and_cube,
    random_split_input,
    random_state_formula,
    random_unary_region,
    reference_canon_cube,
    reference_differentiate,
    reference_entailed_by,
    reference_init_sat,
    reference_preimage,
    reference_subsumes,
    reference_template,
    region_of,
)
from pmasafety import encoder, engine, logic
from pmasafety.corpus import generate_corpus, generate_model
from pmasafety.dsl import parse_formula, parse_pmas
from pmasafety.encoder import AbInit, TransitionRule, differentiate, encode, encode_goal
from pmasafety.engine import (
    SAFE,
    UNKNOWN,
    UNSAFE,
    Region,
    _lit_through,
    breach,
    canon_cube,
    check_locality,
    entailed_by,
    extract_run_template,
    init_sat,
    preimage,
    subsumes,
)
from pmasafety.logic import (
    ArrayRead,
    Const,
    Cube,
    Eq,
    GlobalRef,
    GroundReading,
    IndexVar,
    LambdaUpdate,
    Lit,
    RelAtom,
    StateFormula,
    BudgetError,
    _lit_shape,
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


# names for the variables of a cube that holds another's literals renamed;
# each name is used in both sorts
_SUBSUMER_NAMES = ["x", "y", "j", "k"]


@st.composite
def subsumption_pairs(draw) -> tuple[Cube, Cube]:
    """Two `canon_inputs` cubes.  Often the second also holds some of the
    first's literals, under a renaming of its variables to names that both
    sorts use, so that both answers of `subsumes` occur.  The renaming may
    merge variables, which no embedding may do."""
    a, b = draw(canon_inputs()), draw(canon_inputs())
    if draw(st.booleans()):
        ren = {}
        for sort, vs in a.vars_by_sort().items():
            names = draw(st.lists(st.sampled_from(_SUBSUMER_NAMES), min_size=len(vs),
                                  max_size=len(vs), unique=draw(st.booleans())))
            ren.update((v, IndexVar(n, sort)) for v, n in zip(vs, names))
        shared = [lit_subst(l, ren) for l in a.lits if draw(st.integers(0, 5))]
        b = make_cube([*ren.values(), *b.exists], shared + list(b.lits))
    return a, b


class TestCanonCube:
    @settings(max_examples=200, deadline=None)
    @given(canon_inputs())
    def test_literals_keep_the_winning_renderings(self, cube):
        """The canonical cube's literals render, in order, as the renamings
        that won, which are the walks over their atoms, and each has the
        shape and the variables of the reference's literal so rendered."""
        got, want = canon_cube(cube), reference_canon_cube(cube)
        renderings = [reference_template(l, {}).format() for l in got.lits]
        assert [repr(l) for l in got.lits] == renderings == sorted(renderings)
        by_rendering = {repr(w): w for w in want.lits}
        for l in got.lits:
            w = by_rendering[repr(l)]
            assert (_lit_shape(l), l.index_vars()) == (_lit_shape(w), w.index_vars())

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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(canon_inputs(), max_size=8))
    def test_literal_table_changes_no_cube(self, cubes):
        """With a table shared by every call, `canon_cube` gives the cube and
        the literals, rendering, shape and variables, it gives without one,
        and every literal is the table's entry for its rendering."""
        table: dict = {}
        for c in cubes:
            got, want = canon_cube(c, table), canon_cube(c)
            assert got == want and repr(got) == repr(want)
            for l, w in zip(got.lits, want.lits):
                assert l is w
                assert (repr(l), _lit_shape(l), l.index_vars()) == (
                    repr(w), _lit_shape(w), w.index_vars())
                assert table[repr(l)] is l

    def test_frontier_cubes_of_a_run_share_each_literal(self, two_robot):
        lits = [l for layer in two_robot.verdict.layers for c in layer.cubes for l in c.lits]
        by_rendering: dict = {}
        for l in lits:
            assert by_rendering.setdefault(repr(l), l) is l
        assert len(lits) > 2 * len(by_rendering)

    def test_renaming_invariance(self):
        a = _loc_cube(["zz9", "q3"])
        b = _loc_cube(["j1", "j2"])
        assert canon_cube(a) == canon_cube(b)

    def test_idempotent(self):
        c = canon_cube(_loc_cube(["x", "y"]))
        assert canon_cube(c) == c


_REPEAT_VARS = tuple(IndexVar(f"v{k}", "Att_id") for k in range(3))


def _at(v: IndexVar, place: str = "target", neg: bool = False) -> Lit:
    return lit_eq(ArrayRead("loc", v), Const(place), neg=neg)


@st.composite
def repeating_shapes(draw) -> Cube:
    """A cube over up to three robots whose literals have few shapes, so
    that shapes repeat: `loc[v]` at `target` or `A`, either sign, `R(loc[v])`
    and `g=target`.  Sometimes built with `Cube(...)` directly, so a literal
    may repeat and a variable go unused."""
    vs = _REPEAT_VARS[:draw(st.integers(0, 3))]
    pool = [lit_eq(GlobalRef("g"), Const("target"))]
    for v in vs:
        pool += [_at(v, place, neg) for place in ("target", "A") for neg in (False, True)]
        pool.append(Lit(False, RelAtom("R", (ArrayRead("loc", v),))))
    lits = draw(st.lists(st.sampled_from(pool), max_size=5))
    if draw(st.booleans()):
        return Cube(vs, tuple(lits))
    return make_cube(vs, lits)


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

    def test_no_two_variables_share_an_image(self):
        # two robots at the target do not embed into one at the target and one elsewhere
        j1, j2 = IndexVar("j1", "Att_id"), IndexVar("j2", "Att_id")
        one_there = make_cube([j1, j2], [lit_eq(ArrayRead("loc", j1), Const("target")),
                                         lit_eq(ArrayRead("loc", j2), Const("A"))])
        both_there = canon_cube(_loc_cube(["j1", "j2"]))
        assert not subsumes(both_there, one_there)
        assert not reference_subsumes(both_there, one_there)

    @settings(max_examples=400, deadline=None)
    @given(subsumption_pairs())
    def test_matches_reference(self, pair):
        a, b = pair
        assert subsumes(a, b) == reference_subsumes(a, b)


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

    @settings(max_examples=300, deadline=None)
    @given(st.lists(repeating_shapes(), max_size=8),
           st.lists(repeating_shapes(), min_size=1, max_size=4))
    @example(  # a repeated literal is one literal: it needs one of its shape
        [Cube(_REPEAT_VARS[:1], (_at(_REPEAT_VARS[0]),) * 2)],
        [make_cube(_REPEAT_VARS[:1], [_at(_REPEAT_VARS[0])])],
    )
    def test_covers_counts_repeated_shapes(self, cubes, queries):
        region = Region()
        for k, c in enumerate(cubes, start=1):
            region.add(c)
            for q in queries:
                want = any(reference_subsumes(a, q) for a in cubes[:k])
                assert region.covers(q) == want == any(subsumes(a, q) for a in cubes[:k])

    def test_two_of_a_shape_are_not_searched_in_one(self, monkeypatch):
        # two robots at the target are not looked for where one robot is
        calls = []
        monkeypatch.setattr(engine, "subsumes", lambda a, b: calls.append(b) or subsumes(a, b))
        region = region_of([canon_cube(_loc_cube(["j1", "j2"]))])
        j1, j2 = IndexVar("j1", "Att_id"), IndexVar("j2", "Att_id")
        one = make_cube([j1, j2], [_at(j1), lit_eq(ArrayRead("loc", j2), Const("A"))])
        assert not region.covers(one) and calls == []
        two = canon_cube(_loc_cube(["j1", "j2", "j3"]))
        assert region.covers(two) and calls == [two]


def _entails(cube: Cube, region: list[Cube], sig=CUBE_SIG) -> bool:
    """`entailed_by` on a region of `region`'s cubes."""
    return entailed_by(cube, region_of(region), sig)


class TestEntailedBy(object):
    def test_subsuming_region_entails(self, abp):
        small = canon_cube(_loc_cube(["j1"]))
        big = canon_cube(_loc_cube(["j1", "j2"]))
        assert _entails(big, [small], abp.sig)

    def test_unrelated_region_does_not_entail(self, abp):
        a = canon_cube(_loc_cube(["j"], "A"))
        b = canon_cube(_loc_cube(["j"], "B"))
        assert not _entails(a, [b], abp.sig)

    def test_region_needing_more_indexes_does_not_entail(self, abp):
        # one robot at target does not give two distinct ones
        small = canon_cube(_loc_cube(["j1"]))
        big = canon_cube(_loc_cube(["j1", "j2"]))
        assert not _entails(small, [big], abp.sig)
        j1, j2 = IndexVar("j1", "Att_id"), IndexVar("j2", "Att_id")
        one_of_two = make_cube([j1, j2], [
            lit_eq(ArrayRead("loc", j1), Const("target")),
            lit_eq(ArrayRead("loc", j2), Const("A")),
        ])
        assert not _entails(canon_cube(one_of_two), [big], abp.sig)

    def test_case_split_on_a_global_is_not_proved(self):
        # the cube leaves g1 open; the region covers both of its cases, so
        # the cube is entailed, but no single instance proves it
        z, w = IndexVar("z", "I"), IndexVar("w", "I")
        g1, p = GlobalRef("g1"), Const("p")
        cube = make_cube([z], [lit_eq(ArrayRead("f", z), p)])
        region = [
            make_cube([w], [lit_eq(g1, p, neg=neg), lit_eq(ArrayRead("f", w), p)])
            for neg in (False, True)
        ]
        assert brute_entailed(cube, region, CUBE_SIG)
        assert not _entails(cube, region)
        assert not brute_entailed(cube, region[:1], CUBE_SIG)
        assert not _entails(cube, region[:1])
        # once the cube fixes g1, the instance of its case proves it
        fixed = make_cube([z], [*cube.lits, lit_eq(g1, p)])
        assert _entails(fixed, region)

    # the exists/forall cases: the cube is the existential part, each region
    # cube the negation of a universal one

    def test_empty_region_entails_nothing(self):
        z = IndexVar("z", "I")
        assert not _entails(make_cube([], []), [])
        assert not _entails(make_cube([z], [lit_eq(ArrayRead("f", z), Const("p"))]), [])

    def test_one_index_model_escapes_a_two_index_region(self):
        z, w1, w2 = IndexVar("z", "I"), IndexVar("w1", "I"), IndexVar("w2", "I")
        p = Const("p")
        cube = make_cube([z], [lit_eq(ArrayRead("f", z), p)])
        region = [make_cube([w1, w2], [lit_eq(ArrayRead("f", w1), p), lit_eq(ArrayRead("f", w2), p)])]
        assert not _entails(cube, region)

    def test_universal_blocks_a_second_value(self):
        # E z1 z2. f[z1]=p & f[z2]=q  is refuted by  A w. f[w]=p
        z1, z2, w = IndexVar("z1", "I"), IndexVar("z2", "I"), IndexVar("w", "I")
        p, q = Const("p"), Const("q")
        cube = make_cube([z1, z2], [lit_eq(ArrayRead("f", z1), p), lit_eq(ArrayRead("f", z2), q)])
        assert _entails(cube, [make_cube([w], [lit_eq(ArrayRead("f", w), p, neg=True)])])

    def test_universal_over_an_empty_sort_is_vacuous(self):
        # a cube without index variables has a model with no index at all
        w, g1, p = IndexVar("w", "I"), GlobalRef("g1"), Const("p")
        cube = make_cube([], [lit_eq(g1, p)])
        region = [make_cube([w], [lit_eq(ArrayRead("f", w), p, neg=True)])]
        assert not _entails(cube, region)
        assert _entails(cube, [make_cube([], [lit_eq(g1, p)])])

    def test_two_variable_region_cube_tries_every_injective_instance(self):
        z1, z2 = IndexVar("z1", "I"), IndexVar("z2", "I")
        w1, w2 = IndexVar("w1", "I"), IndexVar("w2", "I")
        p, q = Const("p"), Const("q")
        # only w1 -> z2, w2 -> z1 matches
        cube = make_cube([z1, z2], [lit_eq(ArrayRead("f", z1), q), lit_eq(ArrayRead("f", z2), p)])
        region = [make_cube([w1, w2], [lit_eq(ArrayRead("f", w1), p), lit_eq(ArrayRead("f", w2), q)])]
        assert _entails(cube, region)
        # w1, w2 -> z1, z1 would match, but distinct region variables are distinct indexes
        same = make_cube([z1, z2], [lit_eq(ArrayRead("f", z1), p), lit_eq(ArrayRead("f", z2), q)])
        both_p = [make_cube([w1, w2], [lit_eq(ArrayRead("f", w1), p), lit_eq(ArrayRead("f", w2), p)])]
        assert not _entails(same, both_p)

    def test_relation_literal_read_through_values(self):
        # R2(f[z], h[z]) with f[z]=p and h[z]=u implies R2(p, u), R2(f[z], u)
        # and R2(p, h[z]); g1=p gives R2(g1, ...) too
        z, w = IndexVar("z", "I"), IndexVar("w", "I")
        f, h, p, u = ArrayRead("f", z), ArrayRead("h", z), Const("p"), Const("u")
        cube = make_cube([z], [_r2(f, h), lit_eq(f, p), lit_eq(h, u), lit_eq(_G1, p)])
        for args in ((p, u), (ArrayRead("f", w), u), (p, ArrayRead("h", w)), (_G1, u)):
            region = [make_cube([w], [_r2(*args)])]
            assert _entails(cube, region) and reference_entailed_by(cube, region)
        region = [make_cube([w], [_r2(p, Const("v"))])]
        assert not _entails(cube, region) and not reference_entailed_by(cube, region)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**9))
    def test_is_sound_against_brute_force(self, seed):
        cube, region = random_entailment(seed)
        assert not _entails(cube, region) or brute_entailed(cube, region, CUBE_SIG)


class TestEntailedByReference:
    """`entailed_by` decides by subsumption over the literals the cube
    implies; `reference_entailed_by` tries every instance of every region
    cube on the cube's congruence closure.  They must agree wherever every
    equality sets a cell to a constant, the cell first, and the cube is
    satisfiable."""

    def test_agrees_with_reference(self):
        entailed = 0
        for seed in range(300):
            cube, region = random_entailment(seed, contract=True)
            assert cells_first([*cube.lits, *(l for b in region for l in b.lits)])
            got = _entails(cube, region)
            assert got == reference_entailed_by(cube, region), seed
            assert not got or brute_entailed(cube, region, CUBE_SIG), seed
            entailed += got
        assert entailed >= 20

    def test_refuted_instance_proves_entailment(self):
        z, w = IndexVar("z", "I"), IndexVar("w", "I")
        g1, p, q = GlobalRef("g1"), Const("p"), Const("q")
        cube = make_cube([z], [lit_eq(ArrayRead("f", z), p), lit_eq(g1, q)])
        region = [
            make_cube([w], [lit_eq(ArrayRead("h", w), Const("u"))]),  # an open clause
            make_cube([w], [lit_eq(ArrayRead("f", w), p), lit_eq(g1, q)]),  # all false
        ]
        assert _entails(cube, region) and reference_entailed_by(cube, region)
        assert not _entails(cube, region[:1]) and not reference_entailed_by(cube, region[:1])

    def test_agrees_with_reference_on_every_call_of_a_run(self, spied_run):
        assert spied_run.entailed
        for cube, cubes, got in spied_run.entailed:
            assert got == reference_entailed_by(cube, cubes), cube

    def test_every_equality_of_a_run_sets_a_cell_first(self, spied_run):
        """Where `entailed_by` is exact: every frontier cube of the run, and
        so every region cube, sets cells to constants, the cell first."""
        cubes = [c for layer in spied_run.verdict.layers for c in layer.cubes]
        assert len(cubes) > 10
        assert all(cells_first(c.lits) for c in cubes)


def _entail_unary_region(seed: int, contract: bool) -> None:
    """Grow the `random_unary_region` region one cube at a time and check
    every query's `entailed_by` answer against the reference: equal with
    `contract` on a satisfiable query, and never True where the reference
    is False."""
    cubes, queries = random_unary_region(seed, contract)
    region = Region()
    for k, c in enumerate(cubes, start=1):
        region.add(c)
        for q in queries:
            got, want = entailed_by(q, region, UNARY_SIG), reference_entailed_by(q, cubes[:k])
            if contract and CongruenceClosure().assert_lits(q.lits):
                assert got == want, q
            assert want or not got, q


class TestEntailedByUnaryRegion:
    """On regions over two index sorts whose cubes mostly speak of one
    variable per literal, the answer is the reference's wherever no literal
    joins two cells and the query is satisfiable, and implies it
    everywhere."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9))
    def test_agrees_with_the_references(self, seed):
        for contract in (False, True):
            _entail_unary_region(seed, contract)


def _ground_entailment(base: list[Lit], clauses: list[list[Lit]]) -> tuple[Cube, list[Cube]]:
    """The cube of `base` and a region of cubes without variables, one per
    clause, whose one instance clause is that clause."""
    return make_cube([], base), [make_cube([], [d.negate() for d in cl]) for cl in clauses]


def _agree(cube: Cube, region: list[Cube], want: bool) -> None:
    assert _entails(cube, region) is want
    assert reference_entailed_by(cube, region) is want
    assert brute_entailed(cube, region, CUBE_SIG) is want


class TestClausesSat:
    """The instance clauses, each the negated literals of an instance of a
    region cube: `entailed_by` proves the cube entailed when the cube
    falsifies one of them, each literal of the instance being one of the
    cube's or one they imply."""

    def test_agrees_with_the_plain_search_on_every_call_of_a_run(self, spied_run):
        # the plain search looks each literal of every instance up among
        # all the literals the cube implies, without the region's index
        assert spied_run.entailed
        sig = spied_run.sig
        for cube, cubes, got in spied_run.entailed:
            lits = implied_lits(cube, sig)
            want = any(all(l in lits for l in inst) for inst in _region_instances(cube, cubes))
            assert got == want, cube

    def test_equality_chain_is_fast(self):
        # no clause g<k>=a or g<k>=b is falsified: none of the 1 100 region
        # cubes of two literals embeds into the empty cube
        a, b = Const("a"), Const("b")
        clauses = [[lit_eq(GlobalRef(f"g{k}"), c) for c in (a, b)] for k in range(1100)]
        cube, region = _ground_entailment([], clauses)
        t0 = time.perf_counter()
        assert not entailed_by(cube, region_of(region), CUBE_SIG)
        assert time.perf_counter() - t0 < 1.0

    def test_falsified_clause_is_unsat(self):
        base = [lit_eq(GlobalRef("g1"), Const("p"))]
        _agree(*_ground_entailment(base, [[lit_eq(GlobalRef("g1"), Const("q"))]]), True)


class TestInitSat:
    def test_goal_not_initial(self, abp, cannon):
        (goal_cube,) = encode_goal(cannon).cubes
        assert not init_sat(abp, goal_cube)

    def test_initial_location_is_initial(self, abp):
        assert init_sat(abp, _loc_cube(["j"], "init"))

    def test_contradicting_global_not_initial(self, abp):
        c = make_cube([], [lit_eq(GlobalRef("pulse_loc"), Const("A"))])
        assert not init_sat(abp, c)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 10**9), st.booleans())
    @example(seed=4, unmapped=True)
    def test_agrees_with_the_closure(self, seed, unmapped):
        """Evaluation decides as the congruence closure does on the literals
        read through the initial state; with `unmapped`, the initial state
        leaves one global out, so an equality can survive the read-through."""
        rng = random.Random(seed)

        def some_const(sort):
            return rng.choice(CUBE_SIG.sorts[sort].constants)

        globals_ = [(g, some_const(sort)) for g, sort in CUBE_SIG.globals.items()]
        if unmapped:
            globals_.pop(rng.randrange(len(globals_)))
        arrays = [(a, some_const(esort)) for a, (_isort, esort) in CUBE_SIG.arrays.items()]
        init = AbInit(tuple(globals_), tuple(arrays))
        lits = [_rand_lit(rng) for _ in range(rng.randint(1, 5))]
        lits += [l.negate() for l in lits if rng.random() < 0.2]
        cube = make_cube(_ZS, lits)
        globals_map, arrays_map = init.update_maps()
        through = [_lit_through(l, globals_map, arrays_map) for l in cube.lits]
        want = CongruenceClosure().assert_lits(through)
        abp = SimpleNamespace(init=init)
        assert init_sat(abp, cube) == reference_init_sat(abp, cube) == want

    def test_decides_every_cube_of_a_run_as_before(self, abp):
        calls = []

        def spy(a, cube):
            calls.append(cube)
            return init_sat(a, cube)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(engine, "init_sat", spy)
            breach(abp)
        assert len(calls) > 50
        assert [init_sat(abp, c) for c in calls] == [reference_init_sat(abp, c) for c in calls]


_Z1, _Z2 = _ZS[:2]
_F1, _F2, _H1, _H2 = (ArrayRead(a, z) for a in "fh" for z in (_Z1, _Z2))
_G1, _G2 = GlobalRef("g1"), GlobalRef("g2")


def _r1(t, neg=False):
    return Lit(neg, RelAtom("R1", (t,)))


def _r2(s, t, neg=False):
    return Lit(neg, RelAtom("R2", (s, t)))


# conjunctions in which a positive equality joins two cells; no DSL model's
# cube holds one, so only these tests reach the reading's join branch
_JOINED = [
    [lit_eq(_F1, _F2), lit_eq(_F1, Const("p")), lit_eq(_F2, Const("q"))],
    [lit_eq(_G1, _F1), lit_eq(_G1, Const("p"))],
    [lit_eq(_G1, _F1), _r1(_G1), _r1(_F1, neg=True)],
    [lit_eq(_F1, _F2), lit_eq(_G1, _F2), lit_eq(_G1, _F1, neg=True)],
    [lit_eq(_F1, _F2), _r2(_F1, _H1), _r2(_F2, _G2, neg=True), lit_eq(_H1, _G2)],
    [lit_eq(_F1, _F2), _r2(_F1, _H1), _r2(_F2, _G2, neg=True)],
    [lit_eq(_H1, _G2), lit_eq(_H2, _G2), lit_eq(_H1, Const("u"), neg=True)],
    [lit_eq(_F1, _G1), lit_eq(_F2, _G1), _r1(_F1)],
]
_W1, _W2 = IndexVar("w1", "I"), IndexVar("w2", "I")
_JOIN_REGION = [
    make_cube([_W1], [lit_eq(ArrayRead("f", _W1), Const("p"))]),
    make_cube([_W1, _W2], [lit_eq(ArrayRead("f", _W1), ArrayRead("f", _W2))]),
    make_cube([_W1], [lit_eq(_G1, ArrayRead("f", _W1)), _r1(ArrayRead("f", _W1))]),
    make_cube([_W1], [lit_eq(ArrayRead("h", _W1), _G2, neg=True)]),
]


class TestJoinedCells:
    """Cubes joining two cells, through the three callers of the reading,
    against brute force."""

    @pytest.mark.parametrize("k", range(len(_JOINED)))
    def test_differentiate(self, k):
        lits = (*_JOINED[k], Lit(True, Eq(_Z1, _Z2)) if k % 2 else lit_eq(_H1, _H2))
        got = differentiate(lits)

        def brute(ls):
            return brute_sat_cube(make_cube((), ls), CUBE_SIG)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(encoder, "ground_lits_sat", brute)
            assert got == differentiate(lits)

    @pytest.mark.parametrize("k", range(len(_JOINED)))
    def test_init_sat(self, k):
        # g1 and f unmapped, so the joins of f cells and g1 survive the read-through
        init = AbInit((("g2", "u"),), (("h", "v"),))
        cube = make_cube(_ZS[:2], _JOINED[k])
        globals_map, arrays_map = init.update_maps()
        through = [_lit_through(l, globals_map, arrays_map) for l in cube.lits]
        want = brute_sat_cube(make_cube((), through), CUBE_SIG)
        assert init_sat(SimpleNamespace(init=init), cube) == want

    @pytest.mark.parametrize("k", range(len(_JOINED)))
    def test_entailed_by(self, k):
        # joins are outside what `entailed_by` decides as the reference does
        cube = make_cube(_ZS[:2], _JOINED[k])
        for region in [[b] for b in _JOIN_REGION] + [_JOIN_REGION[:2], _JOIN_REGION[2:]]:
            assert not _entails(cube, region) or brute_entailed(cube, region, CUBE_SIG), region


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

    def test_cube_budget_counts_the_goal_layer(self, abp, monkeypatch):
        # cannon's goal is one cube: a budget of none ends before any preimage
        pre, calls = engine.preimage, []
        monkeypatch.setattr(engine, "preimage", lambda *a: calls.append(a) or pre(*a))
        v = breach(abp, max_cubes=0)
        assert (v.status, v.depth, v.total_cubes, v.reason) == (
            UNKNOWN, 0, 1, "cube budget exhausted"
        )
        assert v.layers == [] and calls == []
        v = breach(abp, max_cubes=1)
        assert (v.status, v.depth, v.reason) == (UNKNOWN, 1, "cube budget exhausted")
        assert calls

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
                pre = [c for cu in phi.cubes for c in preimage(rule, cu, Region())]
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
    """Run `breach`, recording every (rule, cube) pair its clash table skips
    and, for every preimage it builds, the preimage of the same rule and
    cube against an empty region: nothing pruned."""
    skipped, built = [], []
    ruled_out, pre = engine._ClashTable.ruled_out, engine.preimage

    def clash_spy(table, cube):
        mask = ruled_out(table, cube)
        skipped.extend((rule, cube) for k, rule in enumerate(table.rules) if mask >> k & 1)
        return mask

    def pre_spy(rule, cube, region, *args):
        built.append(pre(rule, cube, Region(), *args))
        return pre(rule, cube, region, *args)

    with monkeypatch.context() as m:
        m.setattr(engine._ClashTable, "ruled_out", clash_spy)
        m.setattr(engine, "preimage", pre_spy)
        breach(abp)
    return skipped, built


def _spied_breach(abp) -> SimpleNamespace:
    """Run `breach`, recording for every `preimage` call whether its cube is
    canonical, whether it returned the unpruned preimage less the cubes its
    region covers and whether the unpruned preimage is
    `reference_preimage`'s, for every `canon_cube` call
    whether the region of the preimage it runs in covers its cube, every
    `entailed_by` call as (cube, region cubes, answer), the verdict and the
    encoding's signature."""
    rec = SimpleNamespace(
        pruned_exactly=[], as_reference=[], canon_covered=[], entailed=[], canonical_input=[],
        split_as_reference=[],
    )
    pre, canon, ent = engine.preimage, engine.canon_cube, engine.entailed_by
    diff = engine.differentiate
    current = [Region()]  # the region of the preimage call in progress

    def pre_spy(rule, cube, region, *args):
        rec.canonical_input.append(canon(cube) == cube)
        full = pre(rule, cube, Region(), *args)
        rec.as_reference.append(full == reference_preimage(rule, cube, Region(), *args))
        current[0] = region
        out = pre(rule, cube, region, *args)
        current[0] = Region()
        rec.pruned_exactly.append(out == [c for c in full if not region.covers(c)])
        return out

    def canon_spy(cube, *args):
        rec.canon_covered.append(current[0].covers(cube))
        return canon(cube, *args)

    def ent_spy(cube, region, *args):
        out = ent(cube, region, *args)
        rec.entailed.append((cube, list(region.cubes), out))
        return out

    def diff_spy(lits, *args, **kwargs):
        out = diff(lits, *args, **kwargs)
        want = reference_differentiate(lits, *args, **kwargs)
        rec.split_as_reference.append(_lit_facts(out) == _lit_facts(want))
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "preimage", pre_spy)
        m.setattr(engine, "canon_cube", canon_spy)
        m.setattr(engine, "entailed_by", ent_spy)
        m.setattr(engine, "differentiate", diff_spy)
        rec.verdict = breach(abp)
    rec.sig = abp.sig
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


# `preimage(rule, cube, Region())` over every rule and every frontier
# cube of the interleaved verdict, hashed; recorded before coverage was
# checked inside `preimage`, when it returned every cube it found
_EMPTY_REGION_PREIMAGE_DIGESTS = {"cannon": "f3e343a1a798f9fc", "trains": "5c6214f3af20170c"}


class TestPreimageRegion:
    @pytest.mark.parametrize("name", sorted(_EMPTY_REGION_PREIMAGE_DIGESTS))
    def test_empty_region_keeps_every_cube(self, name):
        abp = encode(parse_pmas(fixture_text(name), name), "interleaved")
        outs = [
            repr(preimage(rule, c, Region()))
            for fr in breach(abp).layers for c in fr.cubes for rule in abp.rules
        ]
        digest = hashlib.sha256("\n".join(outs).encode()).hexdigest()[:16]
        assert digest == _EMPTY_REGION_PREIMAGE_DIGESTS[name]

    def test_drops_exactly_the_covered_cubes(self, spied_run):
        assert spied_run.pruned_exactly and all(spied_run.pruned_exactly)

    def test_canon_cube_never_gets_a_covered_cube(self, spied_run):
        assert spied_run.canon_covered and not any(spied_run.canon_covered)

    def test_breach_hands_preimage_canonical_cubes(self, spied_run):
        # `preimage` takes the cube's names as they are: none may be a rule's `$r<k>`
        assert spied_run.canonical_input and all(spied_run.canonical_input)


class TestCoverageInDifferentiate:
    """`preimage` hands `differentiate` the coverage test, which drops a
    covered branch before its EUF check."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9))
    def test_same_cubes_as_filtering_afterwards(self, seed):
        lits, distinct, cubes = random_split_input(seed)
        region = region_of(cubes)
        full = differentiate(lits, distinct=distinct)
        got = differentiate(lits, distinct=distinct, covered=region.covers)
        assert got == [c for c in full if not region.covers(c)]


def _lit_facts(cubes: list[Cube]) -> list:
    """Each cube with, per literal, the literal and every fact it keeps."""
    return [
        (c, [(l, repr(l), _lit_shape(l), l.cells(), l.parts(), l.index_vars()) for l in c.lits])
        for c in cubes
    ]


class TestMergedBranches:
    """`differentiate` maps only a merged branch's literals over a merged
    variable, and `reference_differentiate` maps every literal: both give
    the same cubes, literal by literal and fact by fact."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9))
    def test_matches_reference(self, seed):
        lits, distinct, cubes = random_split_input(seed)
        region = region_of(cubes)
        for apart, covered in ((None, None), (distinct, region.covers)):
            got = differentiate(lits, distinct=apart, covered=covered)
            want = reference_differentiate(lits, distinct=apart, covered=covered)
            assert _lit_facts(got) == _lit_facts(want)
            assert all(c.used_vars() == c.exists for c in got)

    def test_matches_reference_on_every_call_of_a_run(self, spied_run):
        assert spied_run.split_as_reference and all(spied_run.split_as_reference)


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
        assert preimage(rule, cube, Region()) == reference_preimage(
            rule, cube, Region()
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


def _preimage_work(run) -> tuple[list, list]:
    """Call `run()`, recording every conjunction `preimage` builds (from
    `conjoin_with`) and every one it hands `differentiate`."""
    built, split = [], []
    conj, diff = engine.conjoin_with, engine.differentiate

    def conj_spy(*args):
        out = conj(*args)
        built.extend(out)
        return out

    def diff_spy(lits, *args, **kwargs):
        split.append(lits)
        return diff(lits, *args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "conjoin_with", conj_spy)
        m.setattr(engine, "differentiate", diff_spy)
        run()
    return built, split


class TestPreimageSkip:
    """With a region holding the cube itself, `preimage` skips the
    conjunctions that hold every literal of the cube."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9))
    def test_cube_covers_every_branch_it_skips(self, seed):
        rule, cube = random_rule_and_cube(seed)
        region = region_of([cube])
        built, _ = _preimage_work(lambda: preimage(rule, cube, Region()))
        for lits in built:
            if set(cube.lits) <= set(lits):
                branches = differentiate(lits, distinct=set(cube.exists))
                assert all(region.covers(c) for c in branches), lits
        full = preimage(rule, cube, Region())
        assert preimage(rule, cube, region) == [c for c in full if not region.covers(c)]

    def test_skips_exactly_the_conjunctions_holding_the_cube(self):
        # against the conjunctions built with no skip, since `preimage` now
        # returns before building them when its first branch holds the cube
        fired = early = 0
        for seed in range(200):
            rule, cube = random_rule_and_cube(seed)
            built, split = _preimage_work(lambda: preimage(rule, cube, Region()))
            assert split == built  # a region without the cube skips nothing
            some, kept = _preimage_work(
                lambda: preimage(rule, cube, region_of([cube])))
            assert kept == [lits for lits in built if not set(cube.lits) <= set(lits)]
            fired += len(kept) < len(built)
            early += len(some) < len(built)
        assert (fired, early) == (45, 45)

    def test_skips_conjunctions_of_cannon(self, abp):
        calls = []
        real = engine.preimage

        def spy(rule, cube, *args):
            calls.append((rule, cube))
            return real(rule, cube, *args)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(engine, "preimage", spy)
            built, split = _preimage_work(lambda: breach(abp))
        full, _ = _preimage_work(lambda: [preimage(r, c, Region()) for r, c in calls])
        _, kept = _preimage_work(
            lambda: [preimage(r, c, region_of([c])) for r, c in calls])
        assert (len(full), len(full) - len(kept)) == (216, 70)
        assert (len(built), split) == (170, kept)  # returning early builds 46 fewer

    def test_early_return_keeps_the_dnf_budget(self, abp):
        """`preimage` returns early only where `conjoin` could not raise, so
        a tiny `dnf_cap` raises, and ends a run, as it did before."""
        runs = [(abp, cap) for cap in (1, 2, 3, 4)]
        trains = encode(parse_pmas(fixture_text("trains"), "trains"), "concurrent")
        runs += [(trains, cap) for cap in (4, 8)]
        got = [(v.status, v.depth, v.reason) for a, cap in runs for v in [breach(a, dnf_cap=cap)]]
        assert got == [
            (UNKNOWN, 1, "dnf exceeded 1 cubes"), (UNKNOWN, 1, "dnf exceeded 2 cubes"),
            (UNKNOWN, 5, "dnf exceeded 3 cubes"), (UNSAFE, 8, ""),
            (UNKNOWN, 6, "dnf exceeded 4 cubes"), (SAFE, 8, "empty preimage"),
        ]
        # concurrent trains: every conjunction of a goal cube's preimage under
        # its gate holds the cube, but the gate items multiply past the cap
        rule = next(r for r in trains.rules if r.label == "gate_local")
        for cube in [canon_cube(c) for c in trains.goal.cubes]:
            held = region_of([cube])
            assert _preimage_work(lambda: preimage(rule, cube, held)) == ([], [])
            for cap, region in itertools.product((2, 3), (Region(), held)):
                with pytest.raises(BudgetError, match=f"dnf exceeded {cap} cubes"):
                    preimage(rule, cube, region, cap)


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
            assert preimage(rule, cube, Region()) == [], (rule.label, cube)

    def test_skips_every_empty_preimage_of_cannon(self, abp, monkeypatch):
        skipped, built = _breach_with_spies(monkeypatch, abp)
        assert len(skipped) == 1232
        assert len(built) == 176 and all(built)

    @pytest.mark.parametrize("semantics", ["interleaved", "concurrent"])
    @pytest.mark.parametrize("name", ["cannon", "trains", "corpus"])
    def test_table_answers_as_the_pair_test(self, name, semantics):
        """On every frontier cube of the run, the run's clash table rules
        out exactly the rules `constants_clash` clashes with."""
        if name == "corpus":
            models = [m for _, m in generate_corpus(16, 0)]
        else:
            models = [parse_pmas(fixture_text(name), name)]
        pairs = 0
        for p in models:
            abp = encode(p, semantics)
            table = engine._ClashTable(abp.rules)
            for fr in breach(abp).layers:
                for cube in fr.cubes:
                    mask = table.ruled_out(cube)
                    for k, rule in enumerate(abp.rules):
                        assert (mask >> k & 1) == constants_clash(rule, cube), (rule.label, cube)
                        pairs += 1
        assert pairs

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9))
    def test_table_answers_as_the_pair_test_on_random_rules(self, seed):
        rule, cube = random_rule_and_cube(seed)
        table = engine._ClashTable([rule, rule])
        assert table.ruled_out(cube) == (0b11 if constants_clash(rule, cube) else 0)
        assert table.ruled_out(cube) == (0b11 if constants_clash(rule, cube) else 0)  # filled

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9))
    def test_clash_implies_empty_preimage_on_random_rules(self, seed):
        rule, cube = random_rule_and_cube(seed)
        if constants_clash(rule, cube):
            assert preimage(rule, cube, Region()) == []

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
        rep = check_locality(replace(abp, goal=goal))
        assert not rep.goal_local
        assert rep.nonlocal_literals

    def test_concurrent_flags_spurious_unsafe(self, cannon):
        rep = check_locality(encode(cannon, "concurrent"))
        assert rep.spurious_unsafe_possible
        assert not rep.guaranteed_termination


class TestWorkCounts:
    """Each literal's facts are derived once, on first use, and kept by the
    hash-consed literal for every cube that holds it; each branch cube's
    variables are derived once and handed on.  Ceilings on what the
    interleaved two-robot run computes, counted by spies, fail a change
    that derives them again where wall times are too noisy to show it.
    The run computes 111 shapes and 111 renderings on first use.  Before
    literals kept their facts across the class substitution (once by
    copying them, now by hash-consing), the run built 1 350 readings,
    computed 2 750 shapes and 2 748 renderings on first use and scanned
    literals for their variables 2 731 times; before the run shared its
    preimage items across rules and renamings (`Region.items`), it expanded
    the cases of 307 literals; before the region's filters counted repeated
    shapes, it ran 1 396 embedding searches (`subsumes`).  Before
    `entailed_by` decided by subsumption, it built a reading of every
    frontier cube, 1 037 readings in all, and ran 580 embedding searches;
    the shapes now include those of the disequalities the cube implies,
    each built once per run (`Region.implied`)."""

    def test_two_robot(self, two_robot, monkeypatch):
        abp = encode(two_robot.model, "interleaved")
        counts = dict.fromkeys(("readings", "shapes", "renderings", "scans", "expansions",
                                "embeddings"), 0)
        read, shape, render = GroundReading.__init__, logic._lit_shape, Lit.__repr__
        scan, expand = logic.cube_vars_of_lits, engine.expand_cases
        embed = engine.subsumes

        def read_spy(reading, lits):
            counts["readings"] += 1
            read(reading, lits)

        def shape_spy(l):
            counts["shapes"] += not hasattr(l, "_shape")
            return shape(l)

        def render_spy(l):
            counts["renderings"] += not hasattr(l, "_repr")
            return render(l)

        def scan_spy(lits):
            counts["scans"] += 1
            return scan(lits)

        def expand_spy(f):
            counts["expansions"] += 1
            return expand(f)

        def embed_spy(a, b):
            counts["embeddings"] += 1
            return embed(a, b)

        monkeypatch.setattr(GroundReading, "__init__", read_spy)
        for mod in (logic, engine):
            monkeypatch.setattr(mod, "_lit_shape", shape_spy)
        monkeypatch.setattr(Lit, "__repr__", render_spy)
        for mod in (logic, encoder):
            monkeypatch.setattr(mod, "cube_vars_of_lits", scan_spy)
        monkeypatch.setattr(engine, "expand_cases", expand_spy)
        monkeypatch.setattr(engine, "subsumes", embed_spy)
        v = breach(abp)
        assert (v.status, v.depth, v.total_cubes) == (UNSAFE, 10, 524)
        ceilings = dict(readings=688, shapes=582, renderings=460, scans=1010, expansions=63,
                        embeddings=584)
        assert {k: n for k, n in counts.items() if n > ceilings[k]} == {}, counts


def _facts(l: Lit) -> tuple:
    """What a literal carries: rendering, shape, cells, split rendering and
    variables."""
    return repr(l), _lit_shape(l), l.cells(), l.parts(), l.index_vars()


class TestSharedItems:
    """A run's preimage items are shared across rules with equal updates and
    across renamings of a literal's variables (`Region.items`)."""

    @pytest.mark.parametrize("semantics", ["interleaved", "concurrent"])
    @pytest.mark.parametrize("name", ["cannon", "trains"])
    def test_items_are_exact(self, name, semantics, monkeypatch):
        """Every item a run asks for equals the item built afresh for its
        literal, fact for fact, and the item of the literal with its
        variables renamed is the item renamed."""
        asked = []
        item_after = engine._CompiledRule.item_after

        def spy(rc, l, cap, items):
            out = item_after(rc, l, cap, items)
            asked.append((rc, l, cap, items, out))
            return out

        monkeypatch.setattr(engine._CompiledRule, "item_after", spy)
        breach(encode(parse_pmas(fixture_text(name), name), semantics))
        monkeypatch.undo()
        assert len({id(items) for *_, items, _ in asked}) == 1
        renamed_some = False
        for rc, l, cap, items, item in asked:
            fresh = logic.dnf(logic.expand_cases(
                _lit_through(l, rc.globals_map, rc.arrays_map)), cap)
            assert item == fresh, l
            assert [[_facts(x) for x in c] for c in item] == [[_facts(x) for x in c]
                                                              for c in fresh]
            sub = {v: IndexVar(f"$z{k}", v.sort) for k, v in enumerate(l.index_vars())}
            renamed_some |= bool(sub)
            got = rc.item_after(lit_subst(l, sub), cap, items)
            want = [tuple(lit_subst(x, sub) for x in c) for c in item]
            assert got == want, l
            assert [[_facts(x) for x in c] for c in got] == [[_facts(x) for x in c]
                                                            for c in want]
        assert renamed_some

    def test_rules_with_equal_updates_share_items(self, abp):
        """The bulk commits of `cannon` update every array alike, so one run
        expands a literal's cases once for all of them."""
        bulk = [r for r in abp.rules if r.kind == "bulk_local"]
        assert len(bulk) > 1
        v = IndexVar("$cAtt_id_0", "Att_id")
        l = lit_eq(ArrayRead("loc", v), Const("target"))
        items = Region().items
        got = [engine._compiled(r).item_after(l, 10, items) for r in bulk]
        assert len(items.shared) == 1 and all(g is got[0] for g in got)
        # the literal over another variable is renamed once for all of them
        w = IndexVar("$cAtt_id_1", "Att_id")
        renamed = [engine._compiled(r).item_after(lit_subst(l, {v: w}), 10, items) for r in bulk]
        assert renamed[0] is not got[0] and all(g is renamed[0] for g in renamed)

    def test_literals_alike_but_for_repeated_variables_differ(self, abp):
        """`loc[a]=loc[b]` and `loc[b]=loc[b]` read the same texts, as do
        `R(loc[a], loc[b], loc[a])` and `R(loc[a], loc[b], loc[b])`; the
        positions of their variables keep their items apart."""
        rc = engine._compiled(next(r for r in abp.rules if r.kind == "bulk_local"))
        a, b = IndexVar("a", "Att_id"), IndexVar("b", "Att_id")
        items = Region().items
        for x, y, z in ((a, b, None), (b, b, None), (a, b, a), (a, b, b)):
            reads = [ArrayRead("loc", v) for v in (x, y, z) if v is not None]
            l = Lit(False, RelAtom("R", tuple(reads)) if z else Eq(*reads))
            fresh = logic.dnf(logic.expand_cases(
                _lit_through(l, rc.globals_map, rc.arrays_map)), 100)
            assert rc.item_after(l, 100, items) == fresh
        assert len(items.shared) == 4


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
    abp = encode(p2, "concurrent")
    v = breach(abp)
    assert (v.status, v.depth, v.total_cubes) == (UNSAFE, 14, 6887)
    for frontier in v.layers:  # nothing in the search checks sorts
        for c in frontier.cubes:
            check_lit_types(c.lits, abp.sig)
    assert v.run_template == [frozenset({a}) for a in ("pulseA", "gotoB", "pulseA", "goTargetB")]
    for att, want in ((1, INVALID), (2, VALID), (3, VALID)):
        cfg = ConcreteConfig((("Att", att),), RelInterpretation(), "concurrent")
        assert replay_run_template(p2, v.run_template, cfg).status == want, att
