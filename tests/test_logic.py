"""Core solver: terms, DNF, ground reading."""

from __future__ import annotations

import copy
import dataclasses
import gc
import itertools
import os
import pickle
import random
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    CUBE_SIG,
    CongruenceClosure,
    TypingError,
    _ZS,
    _rand_lit,
    brute_sat_cube,
    check_lit_types,
    random_clause_problem,
    random_ground_cube,
    reference_set_partitions,
    reference_template,
    term_sort,
    unabsorbed_dnf,
)
from pmasafety import logic
from pmasafety.logic import (
    ArrayRead,
    BudgetError,
    CaseTerm,
    Const,
    Cube,
    DEFAULT_DNF_CAP,
    Eq,
    FAnd,
    FOr,
    GlobalRef,
    GroundReading,
    IndexVar,
    LambdaUpdate,
    Lit,
    LogicError,
    RelAtom,
    RelDecl,
    Signature,
    SortDecl,
    conjoin,
    conjoin_with,
    cube_vars_of_lits,
    dnf,
    expand_cases,
    fand,
    f_or,
    fnot,
    ground_lits_sat,
    lit_eq,
    make_cube,
    minimal,
    partition_count,
    set_partitions,
    simplify_lits,
)

SIG = Signature(
    sorts=[SortDecl("I", "index"), SortDecl("S", "element", ("A", "B"))],
    relations=[RelDecl("R", ("S", "S"))],
    globals_={"x": "S", "a": "S", "b": "S", "c": "S"},
    arrays={"arr": ("I", "S")},
)

X, A, B = GlobalRef("x"), Const("A"), Const("B")


def cube(*lits):
    return make_cube([], lits)


class TestEufSatCube:
    """EUF satisfiability of ground cubes (`ground_lits_sat`) and the tests'
    typing check (`helpers.check_lit_types`)."""

    def test_identity_is_sat(self):
        assert ground_lits_sat(cube(lit_eq(X, A), lit_eq(X, A)).lits)

    def test_two_constants_unsat(self):
        assert not ground_lits_sat(cube(lit_eq(X, A), lit_eq(X, B)).lits)

    def test_congruence_unsat(self):
        a, b, c = GlobalRef("a"), GlobalRef("b"), GlobalRef("c")
        lits = [
            Lit(False, RelAtom("R", (a, b))),
            Lit(True, RelAtom("R", (c, b))),
            lit_eq(a, c),
        ]
        assert not ground_lits_sat(cube(*lits).lits)

    def test_disequality_chain_sat(self):
        a, b = GlobalRef("a"), GlobalRef("b")
        assert ground_lits_sat(cube(lit_eq(a, b, neg=True)).lits)

    def test_differentiated_array_cells_independent(self):
        z1, z2 = IndexVar("z1", "I"), IndexVar("z2", "I")
        c = make_cube(
            [z1, z2],
            [lit_eq(ArrayRead("arr", z1), A), lit_eq(ArrayRead("arr", z2), B)],
        )
        assert ground_lits_sat(c.lits)

    def test_sort_mismatch_raises(self):
        sig = Signature(
            sorts=[
                SortDecl("S", "element", ("A", "B")),
                SortDecl("T", "element", ("C",)),
            ],
            globals_={"x": "S", "y": "T"},
        )
        bad = cube(lit_eq(GlobalRef("x"), GlobalRef("y")))
        with pytest.raises(TypingError):
            check_lit_types(bad.lits, sig)

    def test_unknown_relation_raises(self):
        with pytest.raises(TypingError):
            check_lit_types([Lit(False, RelAtom("Nope", (A,)))], SIG)

    def test_relation_arity_mismatch_raises(self):
        with pytest.raises(TypingError):
            check_lit_types([Lit(False, RelAtom("R", (A,)))], SIG)


class TestCongruenceClosure:
    def test_congruence_through_relation_arguments(self):
        a, b = GlobalRef("a"), GlobalRef("b")
        cc = CongruenceClosure()
        assert cc.assert_lit(Lit(False, RelAtom("R", (a, b))))
        assert cc.value(Lit(False, RelAtom("R", (A, b)))) is None
        assert cc.assert_lit(lit_eq(a, A))
        assert cc.value(Lit(False, RelAtom("R", (A, b)))) is True
        assert not cc.assert_lit(Lit(True, RelAtom("R", (A, b))))

    def test_undo_retracts_a_conflict(self):
        cc = CongruenceClosure()
        assert cc.assert_lit(lit_eq(X, A))
        m = cc.mark()
        assert not cc.assert_lit(lit_eq(X, B))
        cc.undo(m)
        assert cc.value(lit_eq(X, A)) is True
        assert cc.value(lit_eq(X, B)) is False
        assert cc.assert_lit(lit_eq(GlobalRef("a"), B))

    def test_undo_splits_disequalities_again(self):
        a, b, c = GlobalRef("a"), GlobalRef("b"), GlobalRef("c")
        cc = CongruenceClosure()
        assert cc.assert_lit(lit_eq(a, c, neg=True))
        m = cc.mark()
        assert cc.assert_lit(lit_eq(a, b))
        assert cc.value(lit_eq(b, c)) is False
        cc.undo(m)
        assert cc.value(lit_eq(b, c)) is None
        assert cc.assert_lit(lit_eq(b, c))

    def test_undo_forgets_terms_interned_after_the_mark(self):
        a, b = GlobalRef("a"), GlobalRef("b")
        cc = CongruenceClosure()
        assert cc.assert_lit(lit_eq(a, b, neg=True))
        m = cc.mark()
        assert cc.value(Lit(False, RelAtom("R", (a, b)))) is None
        cc.undo(m)
        # the freed node now holds an array cell, which must not be re-signed
        # as a relation atom when the class of `a` grows
        assert cc.value(lit_eq(ArrayRead("arr", IndexVar("z", "I")), A)) is None
        assert cc.assert_lit(lit_eq(a, A))
        assert cc.value(lit_eq(b, A)) is False

    def test_distinct_index_variables_never_merge(self):
        z1, z2 = IndexVar("z1", "I"), IndexVar("z2", "I")
        cc = CongruenceClosure()
        assert cc.value(lit_eq(z1, z2)) is False
        assert cc.value(lit_eq(z1, z1)) is True

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**9))
    def test_undo_answers_as_a_fresh_closure(self, seed):
        base, clauses = random_clause_problem(seed)
        probes = [l for cl in clauses for l in cl]
        cc = CongruenceClosure()
        if not cc.assert_lits(base):
            return
        m = cc.mark()
        for l in probes:
            cc.assert_lit(l)
        cc.undo(m)
        fresh = CongruenceClosure()
        assert fresh.assert_lits(base)
        # reversed, so terms interned after the mark get other ids than before
        for l in reversed(probes):
            assert cc.value(l) == fresh.value(l)
            m, fm = cc.mark(), fresh.mark()
            assert cc.assert_lit(l) == fresh.assert_lit(l)
            cc.undo(m)
            fresh.undo(fm)


class TestBruteForceAgreement:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**9))
    def test_cube_agreement(self, seed):
        c = random_ground_cube(seed)
        assert ground_lits_sat(c.lits) == brute_sat_cube(c, CUBE_SIG)


_RZ = [IndexVar(f"z{k}", "I") for k in range(3)]
# uninterpreted and distinguished terms of an element sort and of an index sort
_READ_TERMS = {
    "S": [GlobalRef("g"), GlobalRef("g2"), *(ArrayRead("f", z) for z in _RZ),
          Const("p"), Const("q")],
    "I": [GlobalRef("gi"), *(ArrayRead("n", z) for z in _RZ), *_RZ],
}


@st.composite
def ground_lits(draw) -> Lit:
    """An equality between two terms of one sort, in either orientation, or
    a relation atom over the element sort; either sign."""
    neg = draw(st.booleans())
    if draw(st.integers(0, 3)) == 0:
        return Lit(neg, RelAtom("R", (draw(st.sampled_from(_READ_TERMS["S"])),)))
    terms = _READ_TERMS[draw(st.sampled_from(["S", "I"]))]
    return lit_eq(draw(st.sampled_from(terms)), draw(st.sampled_from(terms)), neg=neg)


# positive joins of two cells over CUBE_SIG, which no DSL model's cube holds
_F = [ArrayRead("f", z) for z in _ZS]
_H = [ArrayRead("h", z) for z in _ZS]
_JOINS = [
    lit_eq(GlobalRef("g1"), _F[0]),
    lit_eq(_F[0], _F[1]),
    lit_eq(_H[0], GlobalRef("g2")),
    lit_eq(_F[2], GlobalRef("g1")),
    lit_eq(_H[1], _H[2]),
]


class TestGroundReading:
    """The reading decides every conjunction as the congruence closure of
    `helpers` does."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(ground_lits(), max_size=8))
    def test_agrees_with_the_closure(self, lits):
        sat = CongruenceClosure().assert_lits(lits)
        assert GroundReading(lits).sat is sat
        assert ground_lits_sat(lits) is sat

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9))
    def test_joins_agree_with_the_closure(self, seed):
        """Random literals on CUBE_SIG with some positive joins of two cells
        among them: `sat` is never None, and it is the closure's."""
        rng = random.Random(seed)
        pool = _JOINS + [_rand_lit(rng) for _ in range(10)]
        pool += [l.negate() for l in pool]
        lits = rng.sample(_JOINS, rng.randint(1, 3)) + rng.sample(pool, rng.randint(0, 6))
        assert GroundReading(lits).sat is CongruenceClosure().assert_lits(lits)

    def test_reads_both_orientations(self):
        f0, p, q = ArrayRead("f", _RZ[0]), Const("p"), Const("q")
        for fix in (lit_eq(f0, p), lit_eq(p, f0)):
            reading = GroundReading([fix, Lit(False, RelAtom("R", (f0,)))])
            assert reading.sat and reading.val == {f0: p}
            assert GroundReading([fix, lit_eq(f0, q)]).sat is False
            assert GroundReading([fix, Lit(True, RelAtom("R", (f0,))),
                                  Lit(False, RelAtom("R", (p,)))]).sat is False

    def test_decides_two_joined_cells(self):
        g, g2, p, q = GlobalRef("g"), GlobalRef("g2"), Const("p"), Const("q")
        f0, f1 = ArrayRead("f", _RZ[0]), ArrayRead("f", _RZ[1])
        assert GroundReading([lit_eq(g, g2), lit_eq(g, p), lit_eq(g2, q)]).sat is False
        assert GroundReading([lit_eq(g, g2), lit_eq(g, g2, neg=True)]).sat is False
        # a value reaches every member of its class
        reading = GroundReading([lit_eq(f0, g), lit_eq(g, f1), lit_eq(g2, p)])
        assert reading.sat and reading.val == {g2: p}
        reading = GroundReading([lit_eq(f0, g), lit_eq(g, f1), lit_eq(f1, p)])
        assert reading.sat and reading.val == {f1: p, f0: p, g: p}
        # relation atoms and disequalities are read through the classes
        r = Lit(False, RelAtom("R", (f0,)))
        assert GroundReading([lit_eq(g, f0), r, Lit(True, RelAtom("R", (g,)))]).sat is False
        assert GroundReading([lit_eq(g, f0), r, lit_eq(f1, g, neg=True)]).sat
        assert GroundReading([lit_eq(g, f0), lit_eq(f0, g, neg=True)]).sat is False


# three independent propositional atoms for boolean-structure tests
_ATOMS = [
    Lit(False, RelAtom("R", (Const("A"), Const("A")))),
    Lit(False, RelAtom("R", (Const("A"), Const("B")))),
    Lit(False, RelAtom("R", (Const("B"), Const("B")))),
]


def _eval(f, asg):
    if isinstance(f, Lit):
        return asg[f.atom] != f.neg
    if isinstance(f, FAnd):
        return all(_eval(i, asg) for i in f.items)
    if isinstance(f, FOr):
        return any(_eval(i, asg) for i in f.items)
    raise AssertionError(f)


# two more, for absorption among longer conjunctions
_MORE_ATOMS = [
    Lit(False, RelAtom("R", (Const("B"), Const("A")))),
    Lit(False, RelAtom("Q", (Const("A"), Const("A")))),
]


def _rand_prop(rng, depth=3, atoms=_ATOMS, arity=2):
    if depth == 0 or rng.random() < 0.3:
        l = rng.choice(atoms)
        return l.negate() if rng.random() < 0.5 else l
    k = rng.random()
    n = 2 if arity == 2 else rng.randint(2, arity)
    if k < 0.4:
        return fand([_rand_prop(rng, depth - 1, atoms, arity) for _ in range(n)])
    if k < 0.8:
        return f_or([_rand_prop(rng, depth - 1, atoms, arity) for _ in range(n)])
    return fnot(_rand_prop(rng, depth - 1, atoms, arity))


class TestDnf:
    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_dnf_preserves_truth_tables(self, rng):
        """The DNF is true exactly where the formula is, and the DNF of its
        negation (`fnot`, De Morgan) exactly where it is not; negating twice
        gives the formula back."""
        f = _rand_prop(rng)
        assert fnot(fnot(f)) == f
        cubes, complement = dnf(f), dnf(fnot(f))
        keys = [l.atom for l in _ATOMS]
        for vals in itertools.product([False, True], repeat=3):
            asg = dict(zip(keys, vals))
            orig = _eval(f, asg)
            as_dnf = any(all(asg[l.atom] != l.neg for l in cb) for cb in cubes)
            assert orig == as_dnf
            assert any(all(asg[l.atom] != l.neg for l in cb) for cb in complement) != orig

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_dnf_is_the_absorption_minimal_full_expansion(self, rng):
        """Absorbed conjunctions go, and the rest keep their order and their
        literal order: nothing else changes from the full expansion."""
        f = _rand_prop(rng, depth=4, atoms=_ATOMS + _MORE_ATOMS, arity=4)
        full = unabsorbed_dnf(f)
        sets = [frozenset(c) for c in full]
        assert dnf(f) == [c for c, s in zip(full, sets) if not any(t < s for t in sets)]

    def test_dnf_drops_contradictory_branches(self):
        l = _ATOMS[0]
        f = fand([l, l.negate()])
        assert dnf(f) == []

    def test_dnf_cap_raises_budget_error(self):
        # (g_i = A | g_i = B) conjoined n times: 2^n irreducible branches
        parts = [
            f_or([lit_eq(GlobalRef(f"g{i}"), A), lit_eq(GlobalRef(f"g{i}"), B)])
            for i in range(10)
        ]
        with pytest.raises(BudgetError):
            dnf(fand(parts), cap=4)

    @settings(max_examples=400, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from([0, 1, 2, 3, 5, 8, DEFAULT_DNF_CAP]))
    def test_conjoin_with_a_first_branch(self, rng, cap):
        """`conjoin_with` on items stripped of the first branch gives what
        conjoining the first branch and the items gives, or raises where it
        raises; empty items and branches included."""
        atoms = _ATOMS + _MORE_ATOMS

        def branch():
            picked = rng.sample(atoms, rng.randint(0, 3))
            return tuple(l.negate() if rng.random() < 0.5 else l for l in picked)

        first = branch()
        items = [[branch() for _ in range(rng.randint(0, 3))] for _ in range(rng.randint(0, 4))]
        try:
            want = minimal(conjoin([[first], *items], cap))
        except BudgetError as e:
            with pytest.raises(BudgetError, match=str(e)):
                conjoin_with(first, items, cap)
            return
        assert conjoin_with(first, items, cap) == want


def _hashed_pairs() -> list[tuple]:
    """Two separate constructions of one value of each hashed class."""

    def build():
        j, a, x = IndexVar("j", "I"), Const("A"), GlobalRef("x")
        read = ArrayRead("arr", j)
        eq = Eq(read, a)
        rel = RelAtom("R", (read, x))
        return [j, a, x, read, eq, rel, Lit(True, eq), Lit(False, rel)]

    return list(zip(build(), build()))


class TestHashContract:
    @pytest.mark.parametrize("a, b", _hashed_pairs())
    def test_equal_values_hash_equal(self, a, b):
        """Equal values are one object, so equality and hashing are
        identity's; `copy`, `dataclasses.replace` and a pickle round trip
        rebuild through the constructor and give the same object back."""
        assert a is b
        assert type(a).__eq__ is object.__eq__ and type(a).__hash__ is object.__hash__
        assert b in {a} and {a: 1}[b] == 1
        for twin in (copy.copy(a), copy.deepcopy(a), dataclasses.replace(a),
                     pickle.loads(pickle.dumps(a))):
            assert twin is a

    @pytest.mark.parametrize("a", [a for a, _ in _hashed_pairs()])
    def test_no_instance_dict(self, a):
        assert not hasattr(a, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            a._hash = 0

    def test_replace_rehashes(self):
        j, k = IndexVar("j", "I"), IndexVar("k", "I")
        l = lit_eq(ArrayRead("arr", j), A)
        moved = dataclasses.replace(l, atom=dataclasses.replace(l.atom, lhs=ArrayRead("arr", k)))
        assert moved == lit_eq(ArrayRead("arr", k), A)
        assert hash(moved) == hash(lit_eq(ArrayRead("arr", k), A))
        assert hash(dataclasses.replace(j, name="k")) == hash(k)
        assert dataclasses.replace(l, neg=True) == l.negate()

    def test_index_vars_sort_by_name_then_sort(self):
        vs = [IndexVar(n, s) for n in ("j10", "j1", "j", "$cI_0", "k") for s in ("J", "I")]
        assert sorted(vs) == sorted(vs, key=lambda v: (v.name, v.sort))
        assert IndexVar("j1", "J") < IndexVar("j10", "I")

    def test_hash_is_read_not_cached_lazily(self):
        assert not hasattr(logic, "_cache_hash")

    def test_pickle_rehashes_in_another_process(self):
        """A hash is valid only in the process that computed it: a literal
        pickled under one hash seed must be found in a set under another."""
        build = (
            "from pmasafety.logic import *\n"
            "from pmasafety.logic import _lit_shape\n"
            "j = IndexVar('j', 'I')\n"
            "lits = [Lit(True, Eq(ArrayRead('arr', j), Const('A'))),"
            " Lit(False, RelAtom('R', (ArrayRead('arr', j), GlobalRef('x'))))]\n"
        )
        dump = build + (
            "import pickle, sys\n"
            "assert len(set(lits)) == 2\n"  # hash before pickling
            "assert all(repr(l) and _lit_shape(l) and l.index_vars() for l in lits)\n"  # fill the memos
            "assert all(l._repr and l._shape and l._vars for l in lits)\n"
            "sys.stdout.buffer.write(pickle.dumps(lits))\n"
        )
        load = build + (
            "import pickle, sys\n"
            "copies = pickle.load(sys.stdin.buffer)\n"
            "assert copies == lits, copies\n"
            "assert all(c in set(lits) and hash(c) == hash(l) for c, l in zip(copies, lits))\n"
            "assert not any(hasattr(c, m) for c in copies for m in ('_repr', '_shape', '_vars'))\n"
            "assert [(repr(c), _lit_shape(c), c.index_vars()) for c in copies]"
            " == [(repr(l), _lit_shape(l), l.index_vars()) for l in lits]\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

        def run(code, seed, stdin=b""):
            return subprocess.run(
                [sys.executable, "-c", code], input=stdin, capture_output=True, check=True,
                env={**env, "PYTHONHASHSEED": seed}, timeout=120,
            ).stdout

        run(load, "2", run(dump, "1"))


class TestCubesAndHelpers:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 20), min_size=1, max_size=8), st.randoms(use_true_random=False))
    def test_renderings_stand_for_literals(self, seeds, rng):
        """Equal renderings exactly for equal literals; equal cube keys
        exactly for equal `exists` and literal sets; and each template,
        filled with the cube's own names, renders its literal.  A seed drawn
        twice gives the one literal of that value twice."""
        lits = [_rand_lit(random.Random(seed)) for seed in seeds]
        for l1, l2 in itertools.product(lits, repeat=2):
            assert (repr(l1) == repr(l2)) == (l1 == l2)
        cubes = [
            Cube(tuple(rng.sample(_ZS, rng.randint(0, 2))),
                 tuple(rng.choices(lits, k=rng.randint(0, 3))))
            for _ in range(6)
        ]
        for c1, c2 in itertools.product(cubes, repeat=2):
            same = c1.exists == c2.exists and set(c1.lits) == set(c2.lits)
            assert (c1.key() == c2.key()) == same
        for c in cubes:
            names = [v.name for v in c.exists]
            assert [t.format(*names) for t in c.templates()] == list(map(repr, c.lits))

    def test_index_vars_in_order_of_first_occurrence(self):
        z1, z2 = IndexVar("z1", "I"), IndexVar("z2", "I")
        l = Lit(False, RelAtom("R", (ArrayRead("arr", z2), z1, ArrayRead("arr", z2), A)))
        assert l.index_vars() == (z2, z1)
        assert lit_eq(X, A).index_vars() == ()
        assert cube_vars_of_lits([l, lit_eq(ArrayRead("arr", z1), A)]) == {z1, z2}

    def test_make_cube_dedups_and_prunes_vars(self):
        z1, z2 = IndexVar("z1", "I"), IndexVar("z2", "I")
        l = lit_eq(ArrayRead("arr", z1), A)
        c = make_cube([z1, z2], [l, l])
        assert c.lits == (l,)
        assert c.exists == (z1,)  # z2 unused, dropped

    def test_used_vars(self):
        """A `make_cube` cube uses every existential, and says so without a
        scan; another cube finds the ones its literals use, in `exists`
        order."""
        z1, z2, z3 = IndexVar("z1", "I"), IndexVar("z2", "I"), IndexVar("z3", "I")
        lits = (lit_eq(ArrayRead("arr", z3), A), Lit(False, RelAtom("R", (ArrayRead("arr", z1), B))))
        c = make_cube([z1, z2, z3], lits)
        assert vars(c)["_used_vars"] == c.exists == (z1, z3)
        assert Cube((z3, z2, z1), lits).used_vars() == (z3, z1)
        assert Cube((z1,), ()).used_vars() == ()

    def test_duplicate_existential_rejected(self):
        z = IndexVar("z", "I")
        with pytest.raises(LogicError):
            Cube((z, z), ())

    def test_simplify_lits(self):
        assert simplify_lits([lit_eq(A, A)]) == ()
        assert simplify_lits([lit_eq(A, A, neg=True)]) is None
        assert simplify_lits([lit_eq(A, B)]) is None
        assert simplify_lits([lit_eq(A, B, neg=True)]) == ()
        kept = lit_eq(X, A)
        assert simplify_lits([kept, lit_eq(B, B)]) == (kept,)
        z = IndexVar("z", "I")
        assert simplify_lits([lit_eq(X, X)]) == () and simplify_lits([lit_eq(X, X, True)]) is None
        read = ArrayRead("arr", z)
        assert simplify_lits([lit_eq(read, ArrayRead("arr", z), True)]) is None
        mixed = [lit_eq(read, A), lit_eq(X, read, True), lit_eq(z, A)]  # terms of two types
        assert simplify_lits(mixed) == tuple(mixed)

    def test_set_partitions_bell_numbers(self):
        for n, bell in enumerate([1, 1, 2, 5, 15]):
            assert len(list(set_partitions(range(n)))) == bell

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 7), st.sets(st.integers(0, 8)))
    def test_partition_count_counts_the_enumeration(self, n, apart):
        assert partition_count(range(n), apart) == len(list(set_partitions(range(n), apart)))

    def test_partition_count_bell_numbers(self):
        bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]
        assert [partition_count(range(n)) for n in range(13)] == bell

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6), st.sets(st.integers(0, 6)))
    def test_set_partitions_keep_apart_as_a_filter(self, n, apart):
        """Keeping `apart` in distinct blocks drops exactly the partitions
        that join two of them from the full enumeration, in its order."""
        full = list(reference_set_partitions(range(n)))
        assert list(set_partitions(range(n))) == full
        want = [p for p in full if all(sum(v in apart for v in b) <= 1 for b in p)]
        assert list(set_partitions(range(n), apart)) == want

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=6), st.randoms(use_true_random=False))
    def test_templates_are_the_walks(self, seeds, rng):
        """`Cube.templates`, built from the literals' split renderings, are
        the templates of the walk over each atom, braces in names escaped,
        the literals a class map makes (`lit_subst`) included: several
        variables may become one, and names may hold braces."""
        lits = [_rand_lit(random.Random(seed)) for seed in seeds] + _BRACED
        lits += [logic.lit_subst(l, _class_map(rng, _ZS + _BRACED_VARS))
                 for l in lits + [_braced_lit(rng) for _ in range(3)]]
        for _ in range(4):
            exists = tuple(rng.sample([*_ZS, *_BRACED_VARS], rng.randint(0, 5)))
            c = Cube(exists, tuple(rng.sample(lits, rng.randint(0, 4))))
            fields = {v: f"{{{k}}}" for k, v in enumerate(c.exists)}
            assert c.templates() == [reference_template(l, fields) for l in c.lits]
            names = [v.name for v in c.exists]
            assert [t.format(*names) for t in c.templates()] == list(map(repr, c.lits))

    def test_term_sort(self):
        assert term_sort(A, SIG) == "S"
        assert term_sort(X, SIG) == "S"
        assert term_sort(ArrayRead("arr", IndexVar("z", "I")), SIG) == "S"
        with pytest.raises(TypingError):
            term_sort(GlobalRef("nope"), SIG)


_W = IndexVar("w{", "I}")
# literals whose names hold braces, which a `str.format` template escapes
_BRACED = [
    lit_eq(ArrayRead("f}", _W), Const("{p}")),
    Lit(True, RelAtom("R{", (GlobalRef("g}"), _W, ArrayRead("f", _ZS[0])))),
    Lit(False, RelAtom("N", ())),
]


# index variables of one sort whose names and sort hold braces
_BRACED_VARS = (IndexVar("w{", "I}"), IndexVar("}w", "I}"), IndexVar("{w}", "I}"))


def _braced_lit(rng) -> Lit:
    """A random literal over `_BRACED_VARS`, as a term and as an array read's
    index, in names that hold braces."""
    def w():
        return rng.choice(_BRACED_VARS)

    atom = rng.choice([
        lambda: RelAtom("R{", (w(), ArrayRead("f}", w()), Const("{p}"))),
        lambda: Eq(ArrayRead("f}", w()), ArrayRead("f}", w())),
        lambda: RelAtom("}Q", (w(), w(), GlobalRef("g{"))),
    ])()
    return Lit(rng.random() < 0.5, atom)


def _class_map(rng, vs) -> dict:
    """A random map of `vs` onto representatives of classes within sorts,
    each class a random block of its sort and its representative a random
    member."""
    by_sort: dict = {}
    for v in vs:
        by_sort.setdefault(v.sort, []).append(v)
    sub = {}
    for group in by_sort.values():
        blocks: dict = {}
        for v in group:
            blocks.setdefault(rng.randrange(len(group)), []).append(v)
        for block in blocks.values():
            rep = rng.choice(block)
            sub.update(dict.fromkeys(block, rep))
    return sub


class TestPerLiteralFacts:
    """What a literal keeps about itself (`Lit`) is what a fresh walk over
    its atom finds."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9))
    def test_negation_is_involutive_and_leaves_no_cycle(self, seed):
        l = _rand_lit(random.Random(seed))
        n = l.negate()
        assert n is Lit(not l.neg, l.atom) and n.neg != l.neg
        assert n.negate() is l and l.negate() is n
        # a literal and its negation, memos filled, die by reference counting
        # alone: neither keeps the other
        probe = Lit(bool(seed % 2), Eq(ArrayRead("negation_probe", _ZS[0]), Const(str(seed))))
        pair = [probe, probe.negate()]
        for x in pair:
            assert repr(x) and x.parts() and x.index_vars() and x.cells()
            assert x.negate().negate() is x
        refs = [weakref.ref(x) for x in pair]
        gc.disable()
        try:
            del probe, pair, x
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**9))
    def test_cells_are_the_read_cells(self, seed):
        l = _rand_lit(random.Random(seed))
        terms = (l.atom.lhs, l.atom.rhs) if isinstance(l.atom, Eq) else l.atom.args
        want = [t.array if isinstance(t, ArrayRead) else t
                for t in terms if isinstance(t, (GlobalRef, ArrayRead))]
        assert list(l.cells()) == want
        cc = logic.const_cell(l)
        assert cc is None or cc[0] in l.cells()


class TestCaseElimination:
    def test_lambda_apply_constant(self):
        u = IndexVar("$u", "I")
        lu = LambdaUpdate(u, A)
        z = IndexVar("z", "I")
        assert lu.apply(z) == A

    def test_expand_cases_lit_is_case_free_and_equivalent(self):
        h = GlobalRef("a")
        case = CaseTerm(((lit_eq(h, A), A), (None, B)))
        lit = lit_eq(X, case)
        expanded = expand_cases(lit)

        def no_cases(f):
            if isinstance(f, Lit):
                at = f.atom
                terms = (at.lhs, at.rhs) if hasattr(at, "lhs") else at.args
                return not any(isinstance(t, CaseTerm) for t in terms)
            return all(no_cases(i) for i in f.items)

        assert no_cases(expanded)

        # equivalence over every assignment of the two globals
        for xv, hv in itertools.product(["A", "B"], repeat=2):
            asg = {"x": xv, "a": hv}

            def tval(t):
                if isinstance(t, Const):
                    return t.name
                if isinstance(t, GlobalRef):
                    return asg[t.name]
                raise AssertionError(t)

            def ev(f):
                if isinstance(f, Lit):
                    at = f.atom
                    return (tval(at.lhs) == tval(at.rhs)) != f.neg
                if isinstance(f, FAnd):
                    return all(ev(i) for i in f.items)
                assert isinstance(f, FOr), f
                return any(ev(i) for i in f.items)

            want = xv == ("A" if hv == "A" else "B")
            assert ev(expanded) == want
