"""Independent reference oracles used by the test suite.

Everything here deliberately avoids the library's own solving machinery:
satisfiability is decided by exhaustive enumeration over small finite
universes, and transition rules are executed on fully concrete states.  The
exceptions are the library's earlier procedures (`CongruenceClosure`,
`reference_canon_cube`, `reference_differentiate`, `reference_entailed_by`,
`reference_enumerate_reachable`, `reference_init_sat`, `reference_preimage`,
`reference_replay_run_template`, `reference_set_partitions`,
`reference_step_vectors`, `reference_subsumes`, `reference_template`,
`unabsorbed_dnf`), kept so that the current ones can be compared with them
call by call.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import random
from dataclasses import replace
from importlib import resources
from typing import Iterable, Iterator, Optional, Sequence

from pmasafety.corpus import generate_model
from pmasafety.dsl import parse_formula, parse_pmas
from pmasafety.encoder import CONCURRENT, INTERLEAVED, Gate, TransitionRule, differentiate
from pmasafety.engine import Region, _lit_through, canon_cube
from pmasafety.logic import (
    ArrayRead,
    CaseTerm,
    Const,
    Cube,
    DEFAULT_DNF_CAP,
    Eq,
    FAnd,
    FOr,
    Formula,
    GlobalRef,
    IndexVar,
    LambdaUpdate,
    Lit,
    LogicError,
    RelAtom,
    RelDecl,
    Signature,
    SortDecl,
    StateFormula,
    _lit_shape,
    cube_vars_of_lits,
    dnf,
    expand_cases,
    f_or,
    fand,
    ground_lits_sat,
    lit_eq,
    lit_subst,
    make_cube,
    set_partitions,
    simplify_lits,
    term_subst,
)
from pmasafety.model import (
    ENV,
    SELF,
    BoolConst,
    Conj,
    ConstRef,
    Disj,
    INDIVIDUAL,
    IdxEq,
    LOCAL,
    ModelError,
    Neg,
    RelInterpretation,
    RelTest,
    SYNC,
    Snapshot,
    VarRef,
    VarTest,
    infer_formula_var_templates,
)
from pmasafety.models import fixture_text
from pmasafety.oracle import (
    INVALID,
    OVERFLOW,
    REACHED,
    SILENT,
    VALID,
    ConcreteConfig,
    OracleResult,
    ReplayResult,
    StepVector,
    enumerate_reachable,
    relation_interpretations,
)

# ---------------------------------------------------------------------------
# brute-force EUF satisfiability for ground (skolemized) cubes
#
# Unknowns are the element-valued "cells": every global and every (array,
# index-variable) pair.  Distinct index variables of one sort denote distinct
# indexes, so distinct cells.  The universe of each enumerated sort is its
# declared constants (pairwise distinct) plus two fresh elements.


def _cells_of(lits) -> list[tuple]:
    cells: dict[tuple, None] = {}
    for l in lits:
        a = l.atom
        terms = (a.lhs, a.rhs) if isinstance(a, Eq) else a.args
        for t in terms:
            if isinstance(t, GlobalRef):
                cells.setdefault(("g", t.name), None)
            elif isinstance(t, ArrayRead):
                cells.setdefault(("a", t.array, t.index), None)
    return list(cells)


def brute_sat_cube(cube: Cube, sig: Signature, fresh: int = 2) -> bool:
    universe = {
        s.name: list(s.constants) + [f"${s.name}.f{i}" for i in range(fresh)]
        for s in sig.sorts.values()
        if s.constants
    }
    cells = _cells_of(cube.lits)

    def cell_sort(c: tuple) -> str:
        return sig.globals[c[1]] if c[0] == "g" else sig.arrays[c[1]][1]

    def value(t, asg) -> str:
        if isinstance(t, Const):
            return t.name
        if isinstance(t, GlobalRef):
            return asg[("g", t.name)]
        if isinstance(t, ArrayRead):
            return asg[("a", t.array, t.index)]
        raise AssertionError(f"unexpected term in ground cube: {t!r}")

    domains = [universe[cell_sort(c)] for c in cells]
    for combo in itertools.product(*domains):
        asg = dict(zip(cells, combo))
        required: dict[tuple, bool] = {}
        ok = True
        for l in cube.lits:
            a = l.atom
            if isinstance(a, Eq):
                if (value(a.lhs, asg) == value(a.rhs, asg)) == l.neg:
                    ok = False
                    break
            else:
                key = (a.rel, tuple(value(x, asg) for x in a.args))
                want = not l.neg
                if required.setdefault(key, want) != want:
                    ok = False
                    break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# sorts of terms and literals
#
# `encode` accepts only a valid model, and the search derives every literal
# from the encoding's by renamings within sorts and case expansion, so the
# library never checks sorts; these check that claim.


class TypingError(Exception):
    """A term or formula is not well-sorted against the signature."""


def term_sort(t, sig: Signature) -> str:
    """The sort of a term under `sig`; a case term's is its first value's."""
    if isinstance(t, Const):
        for s in sig.sorts.values():
            if t.name in s.constants:
                return s.name
        raise TypingError(f"unknown constant {t.name}")
    if isinstance(t, GlobalRef):
        if t.name not in sig.globals:
            raise TypingError(f"unknown global {t.name}")
        return sig.globals[t.name]
    if isinstance(t, ArrayRead):
        if t.array not in sig.arrays:
            raise TypingError(f"unknown array {t.array}")
        return sig.arrays[t.array][1]
    if isinstance(t, IndexVar):
        return t.sort
    if isinstance(t, CaseTerm):
        return term_sort(t.branches[0][1], sig)
    raise TypingError(f"not a term: {t!r}")


def check_lit_types(lits: Iterable[Lit], sig: Signature) -> None:
    """Raise TypingError when any literal is ill-sorted under `sig`, an
    array read's index included."""

    def term_ok(t) -> str:
        if isinstance(t, ArrayRead):
            isort = sig.arrays.get(t.array)
            if isort is None:
                raise TypingError(f"unknown array {t.array}")
            if t.index.sort != isort[0]:
                raise TypingError(f"array {t.array} indexed by {t.index.sort}, expects {isort[0]}")
        return term_sort(t, sig)

    for l in lits:
        a = l.atom
        if isinstance(a, Eq):
            ls, rs = term_ok(a.lhs), term_ok(a.rhs)
            if ls != rs:
                raise TypingError(f"equality between sorts {ls} and {rs}: {l!r}")
        else:
            decl = sig.relations.get(a.rel)
            if decl is None:
                raise TypingError(f"unknown relation {a.rel}")
            if len(a.args) != len(decl.arg_sorts):
                raise TypingError(f"relation {a.rel} expects {len(decl.arg_sorts)} arguments")
            for arg, want in zip(a.args, decl.arg_sorts):
                if term_ok(arg) != want:
                    raise TypingError(f"argument of {a.rel} is not of sort {want}: {l!r}")


def check_encoding_types(abp) -> None:
    """Raise TypingError when a literal or update of `abp` is ill-sorted
    under `abp.sig`, or a case guard is neither a literal nor `None`: rule
    guards, writes to globals, bulk array updates (the bound variable, every
    case guard and value), gate literals and the goal's cubes."""
    sig = abp.sig
    for rule in abp.rules:
        check_lit_types(rule.guard, sig)
        for g, c in rule.globals_upd:
            if term_sort(c, sig) != sig.globals[g]:
                raise TypingError(f"{rule.label}: {g} := {c!r}")
        for a, u in rule.arrays_upd:
            isort, esort = sig.arrays[a]
            body = u.body.branches if isinstance(u.body, CaseTerm) else ((None, u.body),)
            if u.var.sort != isort:
                raise TypingError(f"{rule.label}: {a} updated over {u.var.sort}")
            for guard, value in body:
                if not (guard is None or isinstance(guard, Lit)):
                    raise TypingError(f"{rule.label}: case guard {guard!r} is not a literal")
                check_lit_types(() if guard is None else [guard], sig)
                check_lit_types([lit_eq(ArrayRead(a, u.var), value)], sig)
        for gate in rule.gates:
            check_lit_types([gate.declared], sig)
            for b in gate.blocked:
                check_lit_types(b.lits, sig)
    for c in abp.goal.cubes:
        check_lit_types(c.lits, sig)


# ---------------------------------------------------------------------------
# random instance generators (deterministic per seed)

CUBE_SIG = Signature(
    sorts=[
        SortDecl("I", "index"),
        SortDecl("S1", "element", ("p", "q", "r")),
        SortDecl("S2", "element", ("u", "v")),
    ],
    relations=[RelDecl("R1", ("S1",)), RelDecl("R2", ("S1", "S2"))],
    globals_={"g1": "S1", "g2": "S2"},
    arrays={"f": ("I", "S1"), "h": ("I", "S2")},
)

_ZS = tuple(IndexVar(f"z{i}", "I") for i in range(1, 4))


def random_ground_cube(seed: int) -> Cube:
    """A random differentiated cube over CUBE_SIG with at most 4 unknown cells."""
    rng = random.Random(seed)
    while True:
        lits = [_rand_lit(rng) for _ in range(rng.randint(3, 8))]
        if len(_cells_of(lits)) <= 4:
            return make_cube(_ZS, lits)


def random_clause_problem(seed: int) -> tuple[list[Lit], list[list[Lit]]]:
    """Random ground literals plus a few short clauses over CUBE_SIG, with at
    most 4 unknown cells among them all."""
    rng = random.Random(seed)
    while True:
        base = [_rand_lit(rng) for _ in range(rng.randint(0, 5))]
        clauses = [
            [_rand_lit(rng) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(0, 4))
        ]
        if len(_cells_of(base + [l for cl in clauses for l in cl])) <= 4:
            return base, clauses


def brute_clauses_sat(base: list[Lit], clauses: list[list[Lit]], sig: Signature) -> bool:
    """base /\\ clauses is satisfiable iff base plus one literal of each clause is."""
    return any(
        brute_sat_cube(make_cube(_ZS, base + list(pick)), sig)
        for pick in itertools.product(*clauses)
    )


def _region_instances(cube: Cube, region: Iterable[Cube]) -> list[Iterator[Lit]]:
    """Every region cube's literals under every injective mapping of its
    variables onto the cube's of their sorts, in region order; each
    instance's literals are built as they are read, once."""
    pools = cube.vars_by_sort()
    out = []
    for b in region:
        for combo in itertools.product(*(pools.get(v.sort, ()) for v in b.exists)):
            if len(set(combo)) == len(combo):
                out.append(map(lit_subst, b.lits, itertools.repeat(dict(zip(b.exists, combo)))))
    return out


_WS = (IndexVar("w1", "I"), IndexVar("w2", "I"))


def random_entailment(seed: int, contract: bool = False) -> tuple[Cube, list[Cube]]:
    """A random cube over z1, z2 and a region of cubes over 0 to 2 variables
    over CUBE_SIG, with at most 4 unknown cells once the region is
    instantiated.  A region cube with more variables than the cube has no
    instance, as over an empty sort.  With `contract`, every equality sets a
    cell to a constant, the cell first (`_rand_lit`), and the cube is
    satisfiable: the problems on which `engine.entailed_by` answers as
    `reference_entailed_by` does."""
    rng = random.Random(seed)
    zs = _ZS[:2]
    while True:
        cube = make_cube(zs, [_rand_lit(rng, zs, contract) for _ in range(rng.randint(1, 4))])
        region = []
        for _ in range(rng.randint(1, 2)):
            ws = _WS[: rng.randint(0, 2)]
            while True:  # until every variable is used
                rc = make_cube(ws, [_rand_lit(rng, ws, contract) for _ in range(rng.randint(1, 2))])
                if len(rc.exists) == len(ws):
                    break
            region.append(rc)
        insts = _region_instances(cube, region)
        if len(_cells_of(list(cube.lits) + [l for i in insts for l in i])) > 4:
            continue
        if not contract or CongruenceClosure().assert_lits(cube.lits):
            return cube, region


def cells_first(lits: Iterable[Lit]) -> bool:
    """Every equality among `lits` sets a global or an array read to a
    constant, the cell on the left."""
    return all(
        isinstance(l.atom.lhs, (GlobalRef, ArrayRead)) and isinstance(l.atom.rhs, Const)
        for l in lits if isinstance(l.atom, Eq)
    )


def brute_entailed(cube: Cube, region: list[Cube], sig: Signature) -> bool:
    """cube |= \\/ region: no model of the cube satisfies an instance of a region cube."""
    clauses = [[l.negate() for l in inst] for inst in _region_instances(cube, region)]
    return not brute_clauses_sat(list(cube.lits), clauses, sig)


def random_region(seed: int) -> tuple[list[Cube], list[Cube]]:
    """Random region cubes over CUBE_SIG and queries against them.  About half
    the region cubes take a query's literals, some of them dropped and the
    variables permuted, so that they subsume it; a few have no literal."""
    rng = random.Random(seed)
    queries = [
        make_cube(_ZS, [_rand_lit(rng) for _ in range(rng.randint(1, 6))]) for _ in range(4)
    ]
    region = []
    for _ in range(rng.randint(0, 12)):
        if rng.random() < 0.5:
            q = rng.choice(queries)
            perm = dict(zip(_ZS, rng.sample(_ZS, len(_ZS))))
            k = rng.randint(1, len(q.lits)) if rng.random() < 0.95 else 0
            lits = rng.sample(q.lits, k)
            region.append(make_cube(_ZS, [lit_subst(l, perm) for l in lits]))
        else:
            region.append(make_cube(_ZS, [_rand_lit(rng) for _ in range(rng.randint(1, 4))]))
    return region, queries


_YS = (IndexVar("y1", "I"), IndexVar("y2", "I"))


def random_split_input(seed: int) -> tuple[tuple[Lit, ...], set[IndexVar], list[Cube]]:
    """A raw literal conjunction over CUBE_SIG for `differentiate`, over z1..z3
    and y1, y2 (as a rule's existentials) with some index (dis)equalities, a
    random `distinct` subset of the z's, and a region.  Most region cubes keep
    all but at most two literals of one differentiated branch, so that they
    cover it and perhaps others; the rest are random."""
    rng = random.Random(seed)
    vs = _ZS + _YS
    lits = [_rand_lit(rng, vs) for _ in range(rng.randint(1, 5))]
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(vs, 2)
        lits.append(Lit(rng.random() < 0.5, Eq(a, b)))
    distinct = set(rng.sample(_ZS, rng.randint(0, 3)))
    branches = differentiate(tuple(lits), distinct=distinct)
    region = []
    for _ in range(rng.randint(0, 3)):
        if branches and rng.random() < 0.6:
            c = rng.choice(branches)
            k = rng.randint(max(0, len(c.lits) - 2), len(c.lits))
            region.append(make_cube(c.exists, rng.sample(c.lits, k)))
        else:
            region.append(make_cube(_ZS, [_rand_lit(rng) for _ in range(rng.randint(1, 3))]))
    return tuple(lits), distinct, region


# a second index sort K, whose array k holds S1 values
UNARY_SIG = Signature(
    sorts=[*CUBE_SIG.sorts.values(), SortDecl("K", "index")],
    relations=CUBE_SIG.relations.values(),
    globals_=CUBE_SIG.globals,
    arrays={**CUBE_SIG.arrays, "k": ("K", "S1")},
)
_REGION_VARS = {"I": tuple(IndexVar(f"w{i}", "I") for i in range(1, 4)),
                "K": tuple(IndexVar(f"v{i}", "K") for i in range(1, 3))}
_QUERY_VARS = {"I": _ZS, "K": tuple(IndexVar(f"x{i}", "K") for i in range(1, 3))}


def _one_var_lit(rng, v: IndexVar, contract: bool = False) -> Lit:
    """A literal whose only variable is `v`: a cell of `v` (f, h for sort I,
    k for sort K) against a constant or a global, in a relation, or `v`
    itself in a relation; with `contract`, never against a global."""
    cell, sort = rng.choice(
        [(ArrayRead("f", v), "S1"), (ArrayRead("h", v), "S2")] if v.sort == "I"
        else [(ArrayRead("k", v), "S1")]
    )
    kind = rng.random()
    if kind < 0.15:
        atom = RelAtom(f"P{v.sort}", (v,))
    elif kind < 0.3:
        atom = RelAtom("R1", (cell,)) if sort == "S1" else RelAtom("R2", (GlobalRef("g1"), cell))
    elif kind < 0.45 and not contract:
        atom = Eq(cell, GlobalRef("g1" if sort == "S1" else "g2"))
    else:
        atom = Eq(cell, Const(rng.choice(CUBE_SIG.sorts[sort].constants)))
    return Lit(rng.random() < 0.3, atom)


def random_unary_region(seed: int, contract: bool = False) -> tuple[list[Cube], list[Cube]]:
    """Region cubes of 0 to 3 variables over two index sorts, I and K, each
    variable with one to three literals of its own (`_one_var_lit`), some
    with a literal over two variables or over none; and queries over z1-z3
    and x1, x2 built the same way, with one or two literals per variable, so
    that a query often refutes a region cube's one-variable literal at some
    of its variables.  With `contract`, no literal equates two cells, so
    every equality sets a cell to a constant, the cell first."""
    rng = random.Random(seed)
    pool = [Lit(rng.random() < 0.3, Eq(GlobalRef("g1"), Const(c))) for c in ("p", "q")]

    def cube(vars_by_sort: dict[str, tuple[IndexVar, ...]], most: int, lits_each: int) -> Cube:
        vs = [v for vs in vars_by_sort.values() for v in vs]
        vs = rng.sample(vs, rng.randint(0, min(most, len(vs))))
        lits = [_one_var_lit(rng, v, contract)
                for v in vs for _ in range(rng.randint(1, lits_each))]
        ivs = [v for v in vs if v.sort == "I"]
        if len(ivs) >= 2 and rng.random() < 0.3 and not contract:
            a, b = rng.sample(ivs, 2)
            lits.append(Lit(rng.random() < 0.5, Eq(ArrayRead("f", a), ArrayRead("f", b))))
        return make_cube(vs, lits + rng.sample(pool, rng.randint(0, 1)))

    region = [cube(_REGION_VARS, 3, 3) for _ in range(rng.randint(1, 10))]
    queries = [cube(_QUERY_VARS, 5, 2) for _ in range(3)]
    return region, queries


def random_rule_and_cube(seed: int) -> tuple[TransitionRule, Cube]:
    """A random rule over CUBE_SIG, whose guard speaks of one rule variable
    and which writes some globals and resets some arrays in bulk to
    constants, and a random cube over z1, z2."""
    rng = random.Random(seed)
    r = IndexVar("r", "I")
    guard = tuple(_rand_lit(rng, (r,)) for _ in range(rng.randint(0, 3)))

    def some_const(sort: str) -> Const:
        return Const(rng.choice(CUBE_SIG.sorts[sort].constants))

    globals_upd = tuple(
        (g, some_const(sort)) for g, sort in CUBE_SIG.globals.items() if rng.random() < 0.4
    )
    arrays_upd = tuple(
        (a, LambdaUpdate(IndexVar("$u", isort), some_const(esort)))
        for a, (isort, esort) in CUBE_SIG.arrays.items()
        if rng.random() < 0.3
    )
    rule = TransitionRule("t", "declare", (r,), guard, globals_upd, arrays_upd)
    cube = make_cube(_ZS[:2], [_rand_lit(rng, _ZS[:2]) for _ in range(rng.randint(1, 4))])
    return rule, cube


def _rand_lit(rng, zs=_ZS, contract: bool = False) -> Lit:
    """A random literal over CUBE_SIG and the variables `zs`; with
    `contract`, an equality sets a cell to a constant, the cell first."""
    if rng.random() < 0.3:
        if rng.random() < 0.5:
            atom = RelAtom("R1", (_rand_term(rng, "S1", zs),))
        else:
            atom = RelAtom("R2", (_rand_term(rng, "S1", zs), _rand_term(rng, "S2", zs)))
    else:
        sort = rng.choice(("S1", "S2"))
        if contract:
            cell = _rand_term(rng, sort, zs)
            while isinstance(cell, Const):
                cell = _rand_term(rng, sort, zs)
            atom = Eq(cell, Const(rng.choice(CUBE_SIG.sorts[sort].constants)))
        else:
            atom = Eq(_rand_term(rng, sort, zs), _rand_term(rng, sort, zs))
    return Lit(rng.random() < 0.4, atom)


def _rand_term(rng, sort, zs=_ZS):
    consts = CUBE_SIG.sorts[sort].constants
    kind = rng.random()
    if kind < 0.4:
        return Const(rng.choice(consts))
    if kind < 0.6:
        return GlobalRef("g1" if sort == "S1" else "g2")
    if not zs:
        return GlobalRef("g1" if sort == "S1" else "g2")
    arr = "f" if sort == "S1" else "h"
    return ArrayRead(arr, rng.choice(zs))


# ---------------------------------------------------------------------------
# concrete execution of encoded transition systems (for preimage soundness)


class ConcreteAb:
    """Explicit-state view of an encoded system over fixed index domains."""

    def __init__(self, abp, dom_size: int, interp: frozenset):
        self.abp = abp
        self.sig = abp.sig
        self.interp = interp  # set of (rel, value tuple)
        self.domains = {
            s.name: list(range(dom_size))
            for s in self.sig.sorts.values()
            if s.kind == "index"
        }

    # states are (globals dict, arrays dict keyed (name, idx))
    def all_states(self):
        gnames = sorted(self.sig.globals)
        cells = [
            (a, i)
            for a in sorted(self.sig.arrays)
            for i in self.domains[self.sig.arrays[a][0]]
        ]
        gdoms = [self.sig.sorts[self.sig.globals[g]].constants for g in gnames]
        cdoms = [self.sig.sorts[self.sig.arrays[a][1]].constants for a, _ in cells]
        for gv in itertools.product(*gdoms):
            g = dict(zip(gnames, gv))
            for cv in itertools.product(*cdoms):
                yield (g, dict(zip(cells, cv)))

    def state_count(self) -> int:
        n = 1
        for g in self.sig.globals.values():
            n *= len(self.sig.sorts[g].constants)
        for a, (isort, esort) in self.sig.arrays.items():
            n *= len(self.sig.sorts[esort].constants) ** len(self.domains[isort])
        return n

    def eval_term(self, t, state, idx):
        g, arrs = state
        if isinstance(t, Const):
            return t.name
        if isinstance(t, GlobalRef):
            return g[t.name]
        if isinstance(t, IndexVar):
            return idx[t]
        if isinstance(t, ArrayRead):
            return arrs[(t.array, idx[t.index])]
        if isinstance(t, CaseTerm):
            for cond, val in t.branches:
                if cond is None or self.eval_lit(cond, state, idx):
                    return self.eval_term(val, state, idx)
            raise AssertionError("non-exhaustive case term")
        raise AssertionError(f"unexpected term {t!r}")

    def eval_lit(self, l: Lit, state, idx) -> bool:
        a = l.atom
        if isinstance(a, Eq):
            v = self.eval_term(a.lhs, state, idx) == self.eval_term(a.rhs, state, idx)
        else:
            v = (a.rel, tuple(self.eval_term(x, state, idx) for x in a.args)) in self.interp
        return v != l.neg

    def cube_sat(self, cube: Cube, state) -> bool:
        """Existential index variables range injectively per sort (differentiated)."""
        by_sort: dict[str, list[IndexVar]] = {}
        for v in cube.exists:
            by_sort.setdefault(v.sort, []).append(v)
        per_sort = [
            [dict(zip(vs, perm)) for perm in itertools.permutations(self.domains[s], len(vs))]
            for s, vs in by_sort.items()
        ]
        for combo in itertools.product(*per_sort) if per_sort else [()]:
            idx: dict[IndexVar, int] = {}
            for d in combo:
                idx.update(d)
            if all(self.eval_lit(l, state, idx) for l in cube.lits):
                return True
        return False

    def formula_sat(self, sf: StateFormula, state) -> bool:
        return any(self.cube_sat(c, state) for c in sf.cubes)

    def rule_assignments(self, rule):
        """All (possibly merging) instantiations of the rule's existentials."""
        doms = [self.domains[v.sort] for v in rule.exists]
        for combo in itertools.product(*doms):
            yield dict(zip(rule.exists, combo))

    def apply_rule(self, rule, state, idx) -> Optional[tuple]:
        """Successor state, or None when the guard fails (gates unsupported)."""
        assert not rule.gates, "concrete evaluator does not model gate rules"
        if not all(self.eval_lit(l, state, idx) for l in rule.guard):
            return None
        g, arrs = state
        g2 = dict(g)
        for name, c in rule.globals_upd:
            g2[name] = self.eval_term(c, state, idx)
        arrs2 = dict(arrs)
        for name, upd in rule.arrays_upd:
            for i in self.domains[self.sig.arrays[name][0]]:
                sub = dict(idx)
                sub[upd.var] = i
                arrs2[(name, i)] = self.eval_term(upd.body, state, sub)
        return (g2, arrs2)


def random_state_formula(rng: random.Random, abp) -> StateFormula:
    """A random differentiated state formula over an encoded system's signature."""
    sig = abp.sig
    arrays = sorted(sig.arrays)
    cubes = []
    for _ in range(rng.randint(1, 2)):
        lits = []
        vars_by_sort: dict[str, list[IndexVar]] = {}
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.6:
                arr = rng.choice(arrays)
                isort, esort = sig.arrays[arr]
                vs = vars_by_sort.setdefault(
                    isort, [IndexVar("j1", isort), IndexVar("j2", isort)]
                )
                t = ArrayRead(arr, rng.choice(vs))
                c = Const(rng.choice(sig.sorts[esort].constants))
                lits.append(lit_eq(t, c, rng.random() < 0.3))
            elif kind < 0.9 or not sig.relations:
                g = rng.choice(sorted(sig.globals))
                c = Const(rng.choice(sig.sorts[sig.globals[g]].constants))
                lits.append(lit_eq(GlobalRef(g), c, rng.random() < 0.3))
            else:
                r = rng.choice(sorted(sig.relations))
                decl = sig.relations[r]
                args = tuple(
                    Const(rng.choice(sig.sorts[s].constants)) for s in decl.arg_sorts
                )
                lits.append(Lit(rng.random() < 0.5, RelAtom(r, args)))
        ex = [v for vs in vars_by_sort.values() for v in vs]
        cubes.append(make_cube(ex, lits))
    return StateFormula(tuple(cubes))


def all_relation_tuples(sig: Signature) -> list[tuple]:
    out = []
    for r, decl in sig.relations.items():
        for args in itertools.product(*[sig.sorts[s].constants for s in decl.arg_sorts]):
            out.append((r, args))
    return out


# ---------------------------------------------------------------------------
# reference cube canonicalisation


def reference_canon_cube(cube: Cube) -> Cube:
    """`engine.canon_cube` by its definition: build the cube for every
    per-sort naming permutation and keep the lexicographically smallest
    rendering (the first one on a tie)."""
    by_sort: dict[str, list[IndexVar]] = {}
    for v in cube.exists:
        by_sort.setdefault(v.sort, []).append(v)
    pools = []
    for sort in sorted(by_sort):
        vs = by_sort[sort]
        names = [IndexVar(f"$c{sort}_{k}", sort) for k in range(len(vs))]
        pools.append([dict(zip(vs, perm)) for perm in itertools.permutations(names)])
    best: Optional[Cube] = None
    best_key = None
    for combo in itertools.product(*pools):
        sub: dict[IndexVar, IndexVar] = {}
        for m in combo:
            sub.update(m)
        cand = make_cube(sorted(sub.values()), tuple(lit_subst(l, sub) for l in cube.lits))
        key = repr(cand)
        if best_key is None or key < best_key:
            best, best_key = cand, key
    return best


def _escaped(s: str) -> str:
    return s.replace("{", "{{").replace("}", "}}")


def reference_template(l: Lit, fields: dict[IndexVar, str]) -> str:
    """The literal's `str.format` template as `Cube.templates` built it
    before literals kept their split rendering (`Lit.parts`): `repr(l)` with
    the field `fields[v]` for the name of each variable `v` in `fields`, by
    a walk over the atom."""

    def term(t) -> str:
        if isinstance(t, IndexVar):
            return fields.get(t, _escaped(t.name)) + ":" + _escaped(t.sort)
        if isinstance(t, ArrayRead):
            return f"{_escaped(t.array)}[{fields.get(t.index, _escaped(t.index.name))}]"
        return _escaped(repr(t))

    a = l.atom
    if isinstance(a, Eq):
        return ("!" if l.neg else "") + f"{term(a.lhs)}={term(a.rhs)}"
    return ("!" if l.neg else "") + f"{_escaped(a.rel)}({', '.join(map(term, a.args))})"


def reference_set_partitions(items: Sequence) -> Iterator[list[list]]:
    """All set partitions of `items`, as `logic.set_partitions` enumerated
    them before it learned to keep some items apart."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in reference_set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def reference_differentiate(lits, distinct=None, covered=None) -> list[Cube]:
    """`encoder.differentiate` without its shortcuts: a branch that merges
    variables maps every literal (`lit_subst`), not only those over a
    merged variable, `make_cube` scans each branch cube for its variables,
    and no partition budget is checked."""
    pos, neg, rest = [], [], []
    for l in lits:
        a = l.atom
        if isinstance(a, Eq) and isinstance(a.lhs, IndexVar) and isinstance(a.rhs, IndexVar):
            (neg if l.neg else pos).append((a.lhs, a.rhs))
        else:
            rest.append(l)
    by_sort: dict[str, list[IndexVar]] = {}
    for v in sorted(cube_vars_of_lits(lits)):
        by_sort.setdefault(v.sort, []).append(v)
    out = []
    per_sort_parts = [list(set_partitions(vs, distinct or ())) for vs in by_sort.values()]
    for combo in itertools.product(*per_sort_parts) if per_sort_parts else [()]:
        cls_of = {v: min(cls) for part in combo for cls in part for v in cls}
        if any(cls_of[a] != cls_of[b] for a, b in pos) or any(cls_of[a] == cls_of[b] for a, b in neg):
            continue
        reps = set(cls_of.values())
        if len(reps) < len(cls_of):
            simplified = simplify_lits(lit_subst(l, cls_of) for l in rest)
        else:
            simplified = simplify_lits(rest)
        if simplified is None:
            continue
        cube = make_cube(sorted(reps), simplified)
        if (covered is None or not covered(cube)) and ground_lits_sat(cube.lits):
            out.append(cube)
    return out


def reference_init_sat(abp, cube: Cube) -> bool:
    """`engine.init_sat` before it decided cubes from the initial values:
    the literals read through the initial state, decided by
    `ground_lits_sat`."""
    globals_map, arrays_map = abp.init.update_maps()
    return ground_lits_sat([_lit_through(l, globals_map, arrays_map) for l in cube.lits])


# ---------------------------------------------------------------------------
# reference DNF


def unabsorbed_dnf(f: Formula) -> list[tuple[Lit, ...]]:
    """`logic.dnf` before it removed absorbed conjunctions: the full
    expansion, with repeated literal sets and contradictions dropped."""

    def go(g: Formula) -> list[tuple[Lit, ...]]:
        if isinstance(g, Lit):
            s = simplify_lits((g,))
            return [] if s is None else [s]
        if isinstance(g, FOr):
            return [c for it in g.items for c in go(it)]
        assert isinstance(g, FAnd), g
        acc: list[tuple[tuple[Lit, ...], frozenset[Lit]]] = [((), frozenset())]
        for it in g.items:
            branches = go(it)
            nxt: list[tuple[tuple[Lit, ...], frozenset[Lit]]] = []
            seen: set[frozenset[Lit]] = set()
            for a, aset in acc:
                for b in branches:
                    merged = a + tuple(l for l in b if l not in aset)
                    mset = frozenset(merged)
                    if mset in seen or any(l.negate() in mset for l in b):
                        continue
                    seen.add(mset)
                    nxt.append((merged, mset))
            acc = nxt
        return [a for a, _ in acc]

    out: list[tuple[Lit, ...]] = []
    seen: set[frozenset[Lit]] = set()
    for c in go(f):
        dedup = tuple(dict.fromkeys(c))
        key = frozenset(dedup)
        if key in seen or any(l.negate() in key for l in dedup):
            continue
        seen.add(key)
        out.append(dedup)
    return out


# ---------------------------------------------------------------------------
# reference preimage


def _gate_formula(gate: Gate, cands: dict[str, list[IndexVar]]) -> Formula:
    """A universal gate instantiated over the candidate index variables."""

    def blocked_formula(base: dict[IndexVar, IndexVar]) -> Formula:
        conj = []
        for bp in gate.blocked:
            pools = [cands.get(v.sort, []) for v in bp.extra_vars]
            insts = []
            for combo in itertools.product(*pools) if bp.extra_vars else [()]:
                sub = dict(base)
                sub.update(zip(bp.extra_vars, combo))
                insts.append(f_or([lit_subst(l, sub).negate() for l in bp.lits]))
            conj.append(fand(insts))
        return fand(conj)

    if gate.var is None:
        return f_or([gate.declared, blocked_formula({})])
    out = []
    for v in cands.get(gate.var.sort, []):
        sub = {gate.var: v}
        out.append(f_or([lit_subst(gate.declared, sub), blocked_formula(sub)]))
    return fand(out)


def reference_preimage(
    rule: TransitionRule, cube: Cube, region: Region, dnf_cap: int = DEFAULT_DNF_CAP
) -> list[Cube]:
    """`engine.preimage` as a formula tree: guard, cube after the updates and
    gates are conjoined into one formula, whose case terms are expanded and
    which one `dnf` call normalises, for every rule and cube afresh."""
    cube_ren = {v: IndexVar(f"$z{k}", v.sort) for k, v in enumerate(cube.exists)}
    rule_ren = {v: IndexVar(f"$r{k}", v.sort) for k, v in enumerate(rule.exists)}
    globals_map = rule.globals_map()
    arrays_map = {a: type(u)(u.var, term_subst(u.body, rule_ren)) for a, u in rule.arrays_upd}
    parts: list[Formula] = [
        fand([lit_subst(l, rule_ren) for l in rule.guard]),
        fand([_lit_through(lit_subst(l, cube_ren), globals_map, arrays_map) for l in cube.lits]),
    ]
    cands: dict[str, list[IndexVar]] = {}
    for v in itertools.chain(rule_ren.values(), cube_ren.values()):
        cands.setdefault(v.sort, []).append(v)
    for gate in rule.gates:
        parts.append(_gate_formula(gate, cands))
    out: list[Cube] = []
    seen = set()
    distinct = set(cube_ren.values())
    for lits in dnf(expand_cases(fand(parts)), dnf_cap):
        for c in differentiate(lits, distinct=distinct):
            if region.covers(c):
                continue
            cc = canon_cube(c)
            if cc.key() not in seen:
                seen.add(cc.key())
                out.append(cc)
    return out


def constants_clash(rule: TransitionRule, cube: Cube) -> bool:
    """The clash test `engine.breach` ran for each (rule, cube) pair before
    its per-run table: some constant literal of the cube is one the rule
    rules out (`TransitionRule.rules_out`), so the preimage is empty."""
    return any(rule.rules_out(*triple) for triple in cube.const_lits())


# ---------------------------------------------------------------------------
# reference subsumption


def _lit_check_schedule(cube: Cube) -> list[list[Lit]]:
    """`Cube.check_schedule` with the literals in place of their templates."""
    out: list[list[Lit]] = [[] for _ in range(len(cube.exists) + 1)]
    for l in cube.lits:
        vs = cube_vars_of_lits((l,))
        out[max((i + 1 for i, v in enumerate(cube.exists) if v in vs), default=0)].append(l)
    return out


def reference_subsumes(a: Cube, b: Cube) -> bool:
    """`engine.subsumes` as it was before it compared renderings: every
    candidate mapping builds the substituted literals and looks them up among
    `b`'s literals.  Its shape pre-check compares sets of shapes, as the
    engine did before `Cube.shapes` counted repeated shapes."""
    if len(a.lits) > len(b.lits) or len(a.exists) > len(b.exists):
        return False
    if not set(map(_lit_shape, a.lits)) <= set(map(_lit_shape, b.lits)):
        return False
    b_lits = frozenset(b.lits)
    bs_by_sort = b.vars_by_sort()
    avars = a.exists
    check_at = _lit_check_schedule(a)

    def assign(i: int, sub: dict[IndexVar, IndexVar], used: set[IndexVar]) -> bool:
        for l in check_at[i]:
            if lit_subst(l, sub) not in b_lits:
                return False
        if i == len(avars):
            return True
        v = avars[i]
        for w in bs_by_sort.get(v.sort, []):
            if w in used:
                continue
            sub[v] = w
            used.add(w)
            if assign(i + 1, sub, used):
                return True
            used.discard(w)
            del sub[v]
        return False

    return assign(0, {}, set())


# ---------------------------------------------------------------------------
# reference congruence closure

# trail records, undone last-in first-out by CongruenceClosure.undo
_NODE, _UNION, _DISEQ, _SIG = range(4)


class CongruenceClosure:
    """Incremental, backtrackable congruence closure over ground literals:
    the library's earlier decision procedure for ground conjunctions and the
    entailment search, kept as the independent reference for
    `logic.GroundReading` and for `reference_entailed_by`.

    Terms are interned to integers: constants, globals, array reads and index
    variables are atoms, relation atoms are applications whose value is the
    class of `true` or of `false`.  Constants, index variables (skolems:
    distinct variables denote distinct indexes) and the two truth values are
    *distinguished*: a class holding two of them is a conflict, found in O(1)
    from a per-class flag.  This relies on literals being well-sorted, so one
    class never mixes sorts.  Array reads need no congruence, because their
    index skolems never merge; relation atoms get it from a signature table
    with use lists (Nieuwenhuis & Oliveras, "Fast congruence closure and
    extensions", 2007).

    The union-find joins by size and never compresses paths, so every change
    is a record on a trail: `mark()` names a point and `undo(mark)` returns
    to it.  After a conflict the closure must be undone to a mark taken
    before the conflicting assertion.
    """

    _TRUE, _FALSE = 0, 1  # the nodes of the two truth values

    def __init__(self) -> None:
        self._ids: dict[object, int] = {}
        self._parent: list[int] = []
        self._size: list[int] = []
        self._dist: list[bool] = []
        self._diseqs: list[list[int]] = []  # per root: terms its class differs from
        self._uses: list[list[int]] = []  # per root: applications with an argument in it
        self._app: list[Optional[tuple]] = []  # (relation, argument ids) of applications
        self._sigs: dict[tuple, int] = {}
        self._trail: list[tuple] = []
        self._new(None, True)
        self._new(None, True)

    def _new(self, key: object, dist: bool) -> int:
        n = len(self._parent)
        self._parent.append(n)
        self._size.append(1)
        self._dist.append(dist)
        self._diseqs.append([])
        self._uses.append([])
        self._app.append(None)
        if key is not None:
            self._ids[key] = n
            self._trail.append((_NODE, key))
        return n

    def _term(self, t: Term) -> int:
        n = self._ids.get(t)
        if n is not None:
            return n
        if isinstance(t, CaseTerm):
            raise LogicError(f"cannot ground term {t!r}")
        return self._new(t, isinstance(t, (Const, IndexVar)))

    def _relation(self, a: RelAtom) -> int:
        n = self._ids.get(a)
        if n is not None:
            return n
        args = tuple(self._term(x) for x in a.args)
        n = self._new(a, False)
        self._app[n] = (a.rel, args)
        for x in args:
            self._uses[self._find(x)].append(n)
        key = self._signature(n)
        q = self._sigs.get(key)
        if q is None:
            self._sigs[key] = n
            self._trail.append((_SIG, key))
        else:
            self._merge(n, q)  # n is a fresh class: cannot conflict
        return n

    def _find(self, n: int) -> int:
        parent = self._parent
        while parent[n] != n:
            n = parent[n]
        return n

    def _signature(self, n: int) -> tuple:
        rel, args = self._app[n]
        return (rel, *map(self._find, args))

    def _apart(self, ra: int, rb: int) -> bool:
        """Classes `ra` and `rb` (roots) are asserted or known different."""
        if self._dist[ra] and self._dist[rb]:
            return True
        da, db = self._diseqs[ra], self._diseqs[rb]
        other = rb
        if len(da) > len(db):
            da, other = db, ra
        find = self._find
        return any(find(t) == other for t in da)

    def _merge(self, a: int, b: int) -> bool:
        parent, size, dist = self._parent, self._size, self._dist
        diseqs, uses, sigs, trail = self._diseqs, self._uses, self._sigs, self._trail
        pending = [(a, b)]
        while pending:
            a, b = pending.pop()
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a == b:
                continue
            if self._apart(a, b):
                return False
            if size[a] > size[b]:
                a, b = b, a
            ub, db = uses[b], diseqs[b]
            trail.append((_UNION, a, b, len(ub), len(db), dist[a] and not dist[b]))
            parent[a] = b
            size[b] += size[a]
            dist[b] = dist[a] or dist[b]
            db.extend(diseqs[a])
            for p in uses[a]:
                key = self._signature(p)
                q = sigs.get(key)
                if q is None:
                    sigs[key] = p
                    trail.append((_SIG, key))
                elif q != p:
                    pending.append((p, q))
            ub.extend(uses[a])
        return True

    def _differ(self, a: int, b: int) -> bool:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return False
        if not (self._dist[ra] and self._dist[rb]):
            self._diseqs[ra].append(b)
            self._diseqs[rb].append(a)
            self._trail.append((_DISEQ, ra, rb))
        return True

    def assert_lit(self, l: Lit) -> bool:
        """Add one literal; False when the closure becomes inconsistent."""
        a = l.atom
        if isinstance(a, Eq):
            x, y = self._term(a.lhs), self._term(a.rhs)
            return self._differ(x, y) if l.neg else self._merge(x, y)
        return self._merge(self._relation(a), self._FALSE if l.neg else self._TRUE)

    def assert_lits(self, lits: Iterable[Lit]) -> bool:
        return all(self.assert_lit(l) for l in lits)

    def value(self, l: Lit) -> Optional[bool]:
        """The literal's truth value in every model of the closure, or None."""
        a = l.atom
        if isinstance(a, Eq):
            x, y = self._find(self._term(a.lhs)), self._find(self._term(a.rhs))
            if x == y:
                v = True
            elif self._apart(x, y):
                v = False
            else:
                return None
        else:
            r = self._find(self._relation(a))
            if r == self._find(self._TRUE):
                v = True
            elif r == self._find(self._FALSE):
                v = False
            else:
                return None
        return v != l.neg

    def mark(self) -> int:
        return len(self._trail)

    def undo(self, mark: int) -> None:
        """Retract every change made since `mark` was taken."""
        trail, parent, size, dist = self._trail, self._parent, self._size, self._dist
        diseqs, uses = self._diseqs, self._uses
        while len(trail) > mark:
            rec = trail.pop()
            tag = rec[0]
            if tag == _UNION:
                _, a, b, nu, nd, flag = rec
                parent[a] = a
                size[b] -= size[a]
                del uses[b][nu:]
                del diseqs[b][nd:]
                if flag:
                    dist[b] = False
            elif tag == _DISEQ:
                diseqs[rec[1]].pop()
                diseqs[rec[2]].pop()
            elif tag == _SIG:
                del self._sigs[rec[1]]
            else:
                app = self._app.pop()
                if app is not None:
                    for x in reversed(app[1]):
                        uses[self._find(x)].pop()
                del self._ids[rec[1]]
                parent.pop()
                size.pop()
                dist.pop()
                diseqs.pop()
                uses.pop()


# ---------------------------------------------------------------------------
# reference entailment


def region_of(cubes: Iterable[Cube]) -> Region:
    """A `Region` holding `cubes`, in order."""
    region = Region()
    for c in cubes:
        region.add(c)
    return region


def reference_entailed_by(cube: Cube, region: Iterable[Cube]) -> bool:
    """cube |= \\/ region by single instances, as a plain double loop: True
    when the cube is unsatisfiable; else whether some instance of a region
    cube (`_region_instances`) has every literal true in every model of the
    cube by its congruence closure (`CongruenceClosure.value`).
    `engine.entailed_by` answers so on a satisfiable cube whose literals
    and region keep every cell before a constant (`cells_first`)."""
    cc = CongruenceClosure()
    if not cc.assert_lits(cube.lits):
        return True
    return any(all(cc.value(l) for l in inst) for inst in _region_instances(cube, region))


def implied_lits(cube: Cube, sig: Signature) -> set[Lit]:
    """The cube's literals and every literal `engine.Region.implied` may add
    to them, whatever the region: `t != d` beside each `t = c` (`t` a cell,
    `c` a constant) for each other constant `d` of `t`'s sort in `sig`, and
    each copy of a relation literal with its arguments swapped for terms of
    the same value."""
    value = {l.atom.lhs: l.atom.rhs for l in cube.lits
             if not l.neg and isinstance(l.atom, Eq) and cells_first([l])}
    out = set(cube.lits)
    for t, c in value.items():
        sort = term_sort(t, sig)
        out.update(lit_eq(t, Const(d), neg=True) for d in sig.sorts[sort].constants if d != c.name)

    def same(x) -> set:
        v = value.get(x, x)
        return {v, *(t for t, c in value.items() if c == v)}

    for l in cube.lits:
        a = l.atom
        if isinstance(a, RelAtom):
            out.update(Lit(l.neg, RelAtom(a.rel, args))
                       for args in itertools.product(*map(same, a.args)))
    return out


# ---------------------------------------------------------------------------
# verdict fingerprints


def fixture_names() -> list[str]:
    """The names of the bundled models."""
    return sorted(
        p.name[: -len(".pmas")]
        for p in resources.files("pmasafety.models").iterdir()
        if p.name.endswith(".pmas")
    )


def named_model(name: str):
    """A bundled model by name, corpus model `corpus<seed>`, or `two-robot`:
    cannon with a goal that needs two distinct robots at the target."""
    if name.startswith("corpus"):
        return generate_model(int(name[len("corpus"):]))
    if name == "two-robot":
        goal = parse_formula("loc[j1] = target and loc[j2] = target and j1 != j2")
        return replace(named_model("cannon"), goal=goal)
    return parse_pmas(fixture_text(name), name)


def cyclic_model_text() -> str:
    """A model whose oracle searches overflow from two agents on: each agent
    of `A` steps three variables through v0..v4 cyclically, the environment
    flips one bit, and the goal asks for the value `never`, which nothing
    assigns.  One agent's search examines 1 750 successors, two agents'
    more than 200 000 within depth 15."""
    lines = ["sort V { v0, v1, v2, v3, v4, never }", "sort Bit { b0, b1 }", "", "template A"]
    lines += [f"  var {v}: V = v0" for v in "xyz"]
    for v in "xyz":
        for k in range(5):
            lines.append(f"  action {v}{k} : local {{ pre: {v}[self] = v{k}; "
                         f"eff: {v} := v{(k + 1) % 5} }}")
    lines += ["", "template Env env", "  var b: Bit = b0"]
    for k in range(2):
        lines.append(f"  action f{k} : local {{ pre: b[e] = b{k}; eff: b := b{1 - k} }}")
    lines += ["", "goal: x[j] = never"]
    return "\n".join(lines) + "\n"


def verdict_digest(v) -> str:
    """A hash of everything a `Verdict` says: status, depth, total cubes,
    reason, trace labels, run template and the cubes of every frontier layer."""
    parts = [
        v.status,
        str(v.depth),
        str(v.total_cubes),
        v.reason,
        "|".join(s.rule_label for s in v.trace),
        "|".join(",".join(sorted(step)) for step in v.run_template),
    ]
    for fr in v.layers:
        parts.append(f"{fr.depth}:" + ";".join(map(repr, fr.cubes)))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def encoding_digest(abp) -> str:
    """A hash of everything an encoding says: the signature's sorts,
    relations, globals and arrays, the initial state, every rule in order and
    the goal's cubes."""
    sig = abp.sig
    parts = [
        repr(list(sig.sorts.values())),
        repr(list(sig.relations.values())),
        repr(list(sig.globals.items())),
        repr(list(sig.arrays.items())),
        repr(abp.init),
    ]
    parts += map(repr, abp.rules)
    parts += map(repr, abp.goal.cubes)
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def oracle_digest(p, semantics: str) -> str:
    """A hash of what `enumerate_reachable` says (status, depth, states seen
    and the run's step vectors) for counts 1-2 of every template, depth 10
    and at most 8 relation interpretations."""
    names = [t.name for t in p.templates]
    parts = []
    for combo in itertools.product((1, 2), repeat=len(names)):
        counts = tuple(zip(names, combo))
        for interp in relation_interpretations(p, budget=8):
            r = enumerate_reachable(p, ConcreteConfig(counts, interp, semantics, max_depth=10))
            run = ";".join(map(repr, r.run or ()))
            parts.append(f"{counts}|{interp.tuples}|{r.status}|{r.depth}|{r.states_seen}|{run}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# reference agent-formula evaluation


def per_agent(snap) -> tuple:
    """The agents of a counting snapshot one by one: each template's local
    states, one per agent, in the order of their ids (block offsets)."""
    return tuple((name, tuple(s for s, c in blocks for _ in range(c))) for name, blocks in snap.agents)


def counting_snapshot(agents, env, turn=None) -> Snapshot:
    """The counting snapshot of per-agent local states, given as (template,
    states) pairs."""
    return Snapshot(
        tuple((name, tuple(sorted(collections.Counter(states).items()))) for name, states in agents),
        tuple(env),
        turn,
    )


def reference_eval_agent_formula(p, snap, interp, f, self_id=None) -> bool:
    """`model.eval_agent_formula` as a tree walk over every grounding of a
    per-agent expansion of `snap` (`per_agent`), with each variable's owner
    and slot read off the templates on every call: the reference the
    compiled evaluator must match."""
    return _eval_per_agent(p, per_agent(snap), snap.env, interp, f, self_id)


def _eval_per_agent(p, agents, env, interp, f, self_id=None) -> bool:
    """`reference_eval_agent_formula` over per-agent local states."""
    by_name = dict(agents)

    def agents_of(t):
        if t not in by_name:
            raise ModelError(f"no agents for template {t}")
        return by_name[t]

    st = p.template(self_id[0]) if self_id else None
    assign = infer_formula_var_templates(p, f, self_template=st)
    names = sorted(assign)
    domains = [range(len(agents_of(assign[n].name))) for n in names]
    slots = {v: (t, k) for t in p.all_templates() for k, v in enumerate(t.var_names())}

    def idx_val(idx, ground):
        return self_id if idx == SELF else ground[idx]

    def value_of(var, idx, ground):
        owner, slot = slots[var]
        if owner.is_env:
            return env[slot]
        t, i = idx_val(idx, ground)
        return agents_of(t)[i][slot]

    def ev(g, ground):
        if isinstance(g, BoolConst):
            return g.value
        if isinstance(g, VarTest):
            return value_of(g.var, g.idx, ground) == g.value
        if isinstance(g, RelTest):
            vals = tuple(
                a.name if isinstance(a, ConstRef) else value_of(a.var, a.idx, ground)
                for a in g.args
            )
            return interp.holds(g.rel, vals)
        if isinstance(g, IdxEq):
            return idx_val(g.lhs, ground) == idx_val(g.rhs, ground)
        if isinstance(g, Neg):
            return not ev(g.inner, ground)
        if isinstance(g, Conj):
            return all(ev(i, ground) for i in g.items)
        if isinstance(g, Disj):
            return any(ev(i, ground) for i in g.items)
        raise ModelError(f"not a formula: {g!r}")

    for combo in itertools.product(*domains):
        if ev(f, {n: (assign[n].name, i) for n, i in zip(names, combo)}):
            return True
    return False


def random_agent_formula(rng: random.Random, p, depth: int = 3):
    """A random agent formula over `p`'s variables, relations and constants.

    Most atoms are well formed; some index an environment variable with an
    agent index, reuse an index variable across templates or test a value of
    the wrong sort, so inference fails on a share of the formulas."""
    owned = [(v, sort, t) for t in p.all_templates() for v, sort, _init in t.variables]
    pool = ("j1", "j2", "j3", SELF)

    def idx_for(t):
        if t.is_env:
            return ENV if rng.random() < 0.9 else rng.choice(pool)
        return rng.choice(pool) if rng.random() < 0.95 else ENV

    def const_of(sort):
        sd = next(s for s in p.sorts if s.name == sort)
        if rng.random() < 0.05:
            sd = rng.choice(p.sorts)
        return rng.choice(sd.constants)

    def atom():
        roll = rng.random()
        if roll < 0.5 or (roll < 0.75 and not p.relations):
            v, sort, t = rng.choice(owned)
            return VarTest(v, idx_for(t), const_of(sort))
        if roll < 0.75:
            rel = rng.choice(p.relations)
            args = []
            for sort in rel.arg_sorts:
                fits = [(v, t) for v, s, t in owned if s == sort]
                if fits and rng.random() < 0.6:
                    v, t = rng.choice(fits)
                    args.append(VarRef(v, idx_for(t)))
                else:
                    args.append(ConstRef(const_of(sort)))
            return RelTest(rel.name, tuple(args))
        if roll < 0.9:
            return IdxEq(rng.choice(pool), rng.choice(pool))
        return BoolConst(rng.random() < 0.5)

    def go(d):
        roll = rng.random()
        if d == 0 or roll < 0.4:
            return atom()
        if roll < 0.55:
            return Neg(go(d - 1))
        items = tuple(go(d - 1) for _ in range(rng.randint(1, 3)))
        return Conj(items) if roll < 0.8 else Disj(items)

    return go(depth)


def random_snapshot(rng: random.Random, p):
    """A snapshot of `p` with 0-2 agents per template, random states, and now
    and then a template left out altogether."""
    def state(t):
        return tuple(
            rng.choice(next(s for s in p.sorts if s.name == sort).constants)
            for _v, sort, _init in t.variables
        )

    agents = tuple(
        (t.name, tuple(state(t) for _ in range(rng.randint(0, 2))))
        for t in p.templates
        if rng.random() < 0.9
    )
    return counting_snapshot(agents, state(p.env))


def random_interpretation(rng: random.Random, p):
    cells = [
        (r.name, args)
        for r in p.relations
        for args in itertools.product(
            *[next(s for s in p.sorts if s.name == a).constants for a in r.arg_sorts]
        )
    ]
    return RelInterpretation.of(c for c in cells if rng.random() < 0.5)


# ---------------------------------------------------------------------------
# reference step vectors and search, one local state per agent


def agent_ids(snap) -> list:
    """Every (template, position) of `snap`, in agent order."""
    return [(name, i) for name, states in per_agent(snap) for i in range(len(states))]


def reference_step_vectors(tables, snap):
    """`oracle.step_vectors` without symmetry reduction or tables, over a
    per-agent expansion of `snap`: every legal vector, each precondition
    walked once per agent as `reference_eval_agent_formula` walks it.  The
    reduced generator must emit exactly the first vector of each orbit, in
    this order."""
    interleaved = tables.interleaved
    return _vectors_per_agent(tables.p, tables.interp, interleaved, per_agent(snap), snap.env, snap.turn)


def _vectors_per_agent(p, interp, interleaved, agents, env, turn):
    ids = [(name, i) for name, states in agents for i in range(len(states))]

    def holds(f, aid=None):
        return _eval_per_agent(p, agents, env, interp, f, self_id=aid)

    def choices(aid):
        t = p.env if aid is None else p.template(aid[0])
        names = []
        if turn is None or p.turn_group(t.name) == turn:
            names = [a.name for a in t.local_actions() if holds(a.pre, aid)]
        return [None] + names if interleaved else names or [None]

    agent_opts = [choices(aid) for aid in ids]
    for env_choice in choices(None):
        for combo in itertools.product(*agent_opts):
            acting = tuple((aid, a) for aid, a in zip(ids, combo) if a is not None)
            if env_choice is None and not acting:
                continue
            yield StepVector(LOCAL, env_choice, acting)

    def joiners(kind):
        for ea in p.env.actions:
            if ea.kind != kind:
                continue
            if p.alternation is not None and p.initiator_groups()[ea.name] != turn:
                continue
            if not holds(ea.pre):
                continue
            yield ea.name, [
                aid
                for aid in ids
                if (a := p.template(aid[0]).action(ea.name)) is not None
                and a.kind == kind
                and holds(a.pre, aid)
            ]

    for name, eligible in joiners(SYNC):
        n = len(eligible)
        for r in range(1, n + 1) if interleaved else range(max(n, 1), n + 1):
            for subset in itertools.combinations(eligible, r):
                yield StepVector(SYNC, name, tuple((aid, name) for aid in subset))

    for name, eligible in joiners(INDIVIDUAL):
        for aid in eligible:
            yield StepVector(INDIVIDUAL, name, ((aid, name),))


def _apply_per_agent(p, agents, env, turn, vec):
    """The per-agent snapshot after `vec`, each template's states sorted."""
    def after(t, a, state):
        st = list(state)
        for v, c in p.template(t).action(a).eff:
            st[p.var_slot(v)[1]] = c
        return tuple(st)

    acts = dict(vec.agent_actions)
    agents = tuple(
        (name, tuple(sorted(
            after(name, acts[name, i], st) if (name, i) in acts else st for i, st in enumerate(states)
        )))
        for name, states in agents
    )
    if vec.env_action is not None:
        env = after(p.env.name, vec.env_action, env)
    return agents, env, None if turn is None else 1 - turn


def reference_apply(p, snap, vec):
    """The counting snapshot after `vec`, applied to a per-agent expansion of
    `snap`."""
    agents, env, turn = _apply_per_agent(p, per_agent(snap), snap.env, snap.turn, vec)
    return counting_snapshot(agents, env, turn)


def orbit_key(agents, vec):
    """`vec`'s orbit under permutations of adjacent agents of one template in
    one local state."""
    block = {}
    for name, states in agents:
        b = 0
        for i, state in enumerate(states):
            b += i > 0 and state != states[i - 1]
            block[name, i] = (name, b)
    return vec.kind, vec.env_action, tuple(sorted((block[aid], a) for aid, a in vec.agent_actions))


def _start_per_agent(p, cfg):
    """The initial per-agent snapshot of `cfg`: (agents, env, turn)."""
    if cfg.semantics not in (INTERLEAVED, CONCURRENT):
        raise ValueError(f"unknown semantics {cfg.semantics!r}")
    counts = cfg.counts_dict()
    return (
        tuple((t.name, (tuple(i for _v, _s, i in t.variables),) * counts.get(t.name, 0)) for t in p.templates),
        tuple(i for _v, _s, i in p.env.variables),
        0 if p.alternation is not None else None,
    )


def reference_enumerate_reachable(p, cfg, orbits: bool = True):
    """`oracle.enumerate_reachable` on snapshots that keep one local state
    per agent, sorted per template: each step takes the first vector of each
    orbit of every legal vector (`orbit_key`), or, without `orbits`, every
    legal vector, and each snapshot carries a copy of its run."""
    if sum(k for _t, k in cfg.counts) > cfg.max_states:
        return OracleResult(OVERFLOW)
    start = _start_per_agent(p, cfg)
    interleaved = cfg.semantics == INTERLEAVED

    def goal(snap):
        return _eval_per_agent(p, snap[0], snap[1], cfg.interp, p.goal)

    if goal(start):
        return OracleResult(REACHED, depth=0, run=[], states_seen=1)
    seen = {start}
    examined = 0
    frontier = [(start, [])]
    for depth in range(1, cfg.max_depth + 1):
        nxt = []
        for snap, run in frontier:
            vecs = list(_vectors_per_agent(p, cfg.interp, interleaved, *snap))
            if orbits:
                firsts = {}
                for vec in vecs:
                    firsts.setdefault(orbit_key(snap[0], vec), vec)
                vecs = list(firsts.values())
            for vec in vecs:
                examined += 1
                if examined > cfg.max_states:
                    return OracleResult(OVERFLOW, states_seen=len(seen), examined=examined)
                succ = _apply_per_agent(p, *snap, vec)
                if succ in seen:
                    continue
                seen.add(succ)
                if goal(succ):
                    return OracleResult(
                        REACHED, depth=depth, run=run + [vec], states_seen=len(seen), examined=examined
                    )
                nxt.append((succ, run + [vec]))
        if not nxt:
            break
        frontier = nxt
    return OracleResult(SILENT, states_seen=len(seen), examined=examined)


def reference_replay_run_template(p, template, cfg):
    """`oracle.replay_run_template` on per-agent snapshots, branching over
    every legal vector whose label matches, not one per orbit."""
    if sum(k for _t, k in cfg.counts) > cfg.max_states:
        return ReplayResult(OVERFLOW, 0)
    interleaved = cfg.semantics == INTERLEAVED
    best = 0

    def go(i, snap):
        nonlocal best
        best = max(best, i)
        if i == len(template):
            return _eval_per_agent(p, snap[0], snap[1], cfg.interp, p.goal)
        return any(
            go(i + 1, _apply_per_agent(p, *snap, vec))
            for vec in _vectors_per_agent(p, cfg.interp, interleaved, *snap)
            if vec.label() == template[i]
        )

    if go(0, _start_per_agent(p, cfg)):
        return ReplayResult(VALID, len(template))
    return ReplayResult(INVALID, best)
