"""Independent reference oracles used by the test suite.

Everything here deliberately avoids the library's own solving machinery:
satisfiability is decided by exhaustive enumeration over small finite
universes, and transition rules are executed on fully concrete states.  The
exceptions are the library's earlier procedures (`reference_canon_cube`,
`reference_entailed_by`, `reference_enumerate_reachable`,
`reference_open_clauses`, `reference_preimage`, `reference_step_vectors`,
`reference_subsumes`, `unabsorbed_dnf`), kept so that the current ones can be
compared with them call by call.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import math
import random
from typing import Iterable, Optional, Sequence

from pmasafety.corpus import generate_model
from pmasafety.dsl import parse_pmas
from pmasafety.encoder import CONCURRENT, INTERLEAVED, Gate, TransitionRule, differentiate
from pmasafety.engine import Region, _lit_through, canon_cube
from pmasafety.logic import (
    ArrayRead,
    CaseTerm,
    Const,
    CongruenceClosure,
    Cube,
    DEFAULT_DNF_CAP,
    Eq,
    FAnd,
    FFalse,
    FLit,
    FNot,
    FOr,
    FTrue,
    Formula,
    GlobalRef,
    IndexVar,
    LambdaUpdate,
    Lit,
    RelAtom,
    RelDecl,
    Signature,
    SortDecl,
    StateFormula,
    cube_vars_of_lits,
    dnf,
    expand_cases,
    f_or,
    fand,
    flit,
    lit_eq,
    lit_subst,
    make_cube,
    nnf,
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
    OVERFLOW,
    REACHED,
    SILENT,
    ConcreteConfig,
    OracleResult,
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


def _region_instances(cube: Cube, region: list[Cube]) -> list[list[Lit]]:
    """Every region cube's literals under every injective mapping of its
    variables onto the cube's (all of sort I)."""
    out = []
    for b in region:
        for combo in itertools.permutations(cube.exists, len(b.exists)):
            sub = dict(zip(b.exists, combo))
            out.append([lit_subst(l, sub) for l in b.lits])
    return out


_WS = (IndexVar("w1", "I"), IndexVar("w2", "I"))


def random_entailment(seed: int) -> tuple[Cube, list[Cube]]:
    """A random cube over z1, z2 and a region of cubes over 0 to 2 variables
    over CUBE_SIG, with at most 4 unknown cells once the region is
    instantiated.  A region cube with more variables than the cube has no
    instance, as over an empty sort."""
    rng = random.Random(seed)
    zs = _ZS[:2]
    while True:
        cube = make_cube(zs, [_rand_lit(rng, zs) for _ in range(rng.randint(1, 4))])
        region = []
        for _ in range(rng.randint(1, 2)):
            ws = _WS[: rng.randint(0, 2)]
            while True:  # until every variable is used
                rc = make_cube(ws, [_rand_lit(rng, ws) for _ in range(rng.randint(1, 2))])
                if len(rc.exists) == len(ws):
                    break
            region.append(rc)
        insts = _region_instances(cube, region)
        if len(_cells_of(list(cube.lits) + [l for i in insts for l in i])) <= 4:
            return cube, region


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
    branches = differentiate(tuple(lits), CUBE_SIG, distinct=distinct)
    region = []
    for _ in range(rng.randint(0, 3)):
        if branches and rng.random() < 0.6:
            c = rng.choice(branches)
            k = rng.randint(max(0, len(c.lits) - 2), len(c.lits))
            region.append(make_cube(c.exists, rng.sample(c.lits, k)))
        else:
            region.append(make_cube(_ZS, [_rand_lit(rng) for _ in range(rng.randint(1, 3))]))
    return tuple(lits), distinct, region


def random_grouped_region(seed: int) -> tuple[list[Cube], list[Cube]]:
    """Region cubes over CUBE_SIG over 0 to 2 variables, whose index-free
    literals come from a pool of three, so that many share them, and queries
    over z1, z2 that take some of the pool too."""
    rng = random.Random(seed)
    pool = [_rand_lit(rng, ()) for _ in range(3)]
    region = []
    for _ in range(rng.randint(1, 12)):
        ws = _WS[: rng.randint(0, 2)]
        while True:  # until every variable is used
            own = [_rand_lit(rng, ws) for _ in range(rng.randint(1, 2))]
            rc = make_cube(ws, rng.sample(pool, rng.randint(0, 2)) + own)
            if len(rc.exists) == len(ws):
                break
        region.append(rc)
    zs = _ZS[:2]
    queries = [
        make_cube(zs, rng.sample(pool, rng.randint(0, 2))
                  + [_rand_lit(rng, zs) for _ in range(rng.randint(1, 3))])
        for _ in range(3)
    ]
    return region, queries


# a second index sort K, whose array k holds S1 values
_REGION_VARS = {"I": tuple(IndexVar(f"w{i}", "I") for i in range(1, 4)),
                "K": tuple(IndexVar(f"v{i}", "K") for i in range(1, 3))}
_QUERY_VARS = {"I": _ZS, "K": tuple(IndexVar(f"x{i}", "K") for i in range(1, 3))}


def _one_var_lit(rng, v: IndexVar) -> Lit:
    """A literal whose only variable is `v`: a cell of `v` (f, h for sort I,
    k for sort K) against a constant or a global, in a relation, or `v`
    itself in a relation."""
    cell, sort = rng.choice(
        [(ArrayRead("f", v), "S1"), (ArrayRead("h", v), "S2")] if v.sort == "I"
        else [(ArrayRead("k", v), "S1")]
    )
    kind = rng.random()
    if kind < 0.15:
        atom = RelAtom(f"P{v.sort}", (v,))
    elif kind < 0.3:
        atom = RelAtom("R1", (cell,)) if sort == "S1" else RelAtom("R2", (GlobalRef("g1"), cell))
    elif kind < 0.45:
        atom = Eq(cell, GlobalRef("g1" if sort == "S1" else "g2"))
    else:
        atom = Eq(cell, Const(rng.choice(CUBE_SIG.sorts[sort].constants)))
    return Lit(rng.random() < 0.3, atom)


def random_unary_region(seed: int) -> tuple[list[Cube], list[Cube]]:
    """Region cubes of 0 to 3 variables over two index sorts, I and K, each
    variable with one to three literals of its own (`_one_var_lit`), some
    with a literal over two variables or over none; and queries over z1-z3
    and x1, x2 built the same way, with one or two literals per variable, so
    that a query often refutes a region cube's one-variable literal at some
    of its variables."""
    rng = random.Random(seed)
    pool = [Lit(rng.random() < 0.3, Eq(GlobalRef("g1"), Const(c))) for c in ("p", "q")]

    def cube(vars_by_sort: dict[str, tuple[IndexVar, ...]], most: int, lits_each: int) -> Cube:
        vs = [v for vs in vars_by_sort.values() for v in vs]
        vs = rng.sample(vs, rng.randint(0, min(most, len(vs))))
        lits = [_one_var_lit(rng, v) for v in vs for _ in range(rng.randint(1, lits_each))]
        ivs = [v for v in vs if v.sort == "I"]
        if len(ivs) >= 2 and rng.random() < 0.3:
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


def _rand_lit(rng, zs=_ZS) -> Lit:
    if rng.random() < 0.3:
        if rng.random() < 0.5:
            atom = RelAtom("R1", (_rand_term(rng, "S1", zs),))
        else:
            atom = RelAtom("R2", (_rand_term(rng, "S1", zs), _rand_term(rng, "S2", zs)))
    else:
        sort = rng.choice(("S1", "S2"))
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
    def initial_state(self):
        g = dict(self.abp.init.globals_)
        arrs = {}
        for a, c in self.abp.init.arrays:
            for i in self.domains[self.sig.arrays[a][0]]:
                arrs[(a, i)] = c
        return (g, arrs)

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
                if self.eval_formula(cond, state, idx):
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

    def eval_formula(self, f: Formula, state, idx) -> bool:
        if isinstance(f, FTrue):
            return True
        if isinstance(f, FFalse):
            return False
        if isinstance(f, FLit):
            return self.eval_lit(f.lit, state, idx)
        if isinstance(f, FAnd):
            return all(self.eval_formula(i, state, idx) for i in f.items)
        if isinstance(f, FOr):
            return any(self.eval_formula(i, state, idx) for i in f.items)
        if isinstance(f, FNot):
            return not self.eval_formula(f.inner, state, idx)
        raise AssertionError(f"not a formula: {f!r}")

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


# ---------------------------------------------------------------------------
# reference DNF


def unabsorbed_dnf(f: Formula) -> list[tuple[Lit, ...]]:
    """`logic.dnf` before it removed absorbed conjunctions: the full
    expansion, with repeated literal sets and contradictions dropped."""

    def go(g: Formula) -> list[tuple[Lit, ...]]:
        if isinstance(g, FTrue):
            return [()]
        if isinstance(g, FFalse):
            return []
        if isinstance(g, FLit):
            s = simplify_lits((g.lit,))
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
    for c in go(nnf(f)):
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
                insts.append(f_or([flit(lit_subst(l, sub).negate()) for l in bp.lits]))
            conj.append(fand(insts))
        return fand(conj)

    if gate.var is None:
        return f_or([flit(gate.declared), blocked_formula({})])
    out = []
    for v in cands.get(gate.var.sort, []):
        sub = {gate.var: v}
        out.append(f_or([flit(lit_subst(gate.declared, sub)), blocked_formula(sub)]))
    return fand(out)


def reference_preimage(
    rule: TransitionRule, cube: Cube, sig: Signature, region: Region, dnf_cap: int = DEFAULT_DNF_CAP
) -> list[Cube]:
    """`engine.preimage` as a formula tree: guard, cube after the updates and
    gates are conjoined into one formula, whose case terms are expanded and
    which one `dnf` call normalises, for every rule and cube afresh."""
    cube_ren = {v: IndexVar(f"$z{k}", v.sort) for k, v in enumerate(cube.exists)}
    rule_ren = {v: IndexVar(f"$r{k}", v.sort) for k, v in enumerate(rule.exists)}
    globals_map = rule.globals_map()
    arrays_map = {a: type(u)(u.var, term_subst(u.body, rule_ren)) for a, u in rule.arrays_upd}
    parts: list[Formula] = [
        fand([flit(lit_subst(l, rule_ren)) for l in rule.guard]),
        fand([
            flit(_lit_through(lit_subst(l, cube_ren), globals_map, arrays_map)) for l in cube.lits
        ]),
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
        for c in differentiate(lits, sig, distinct=distinct):
            if region.covers(c):
                continue
            cc = canon_cube(c)
            if cc.key() not in seen:
                seen.add(cc.key())
                out.append(cc)
    return out


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
    `b`'s literals."""
    if len(a.lits) > len(b.lits) or len(a.exists) > len(b.exists):
        return False
    if not a.shapes() <= b.shapes():
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
# reference entailment


def region_of(cubes: Iterable[Cube]) -> Region:
    """A `Region` holding `cubes`, in order."""
    region = Region()
    for c in cubes:
        region.add(c)
    return region


def _reference_clauses_sat(
    cc: CongruenceClosure, clauses: Iterable[Sequence[Lit]], node_cap: int = 20000
) -> bool:
    """The clause search `engine.entailed_by` used before it built only open
    clauses: literals the closure decides are settled first, the open
    clauses deduplicated in order, then one literal of the first open clause
    is asserted per node, up to `node_cap` nodes (then: satisfiable)."""
    open_: dict[tuple[Lit, ...], None] = {}
    for cl in clauses:
        undecided = []
        for d in cl:
            v = cc.value(d)
            if v:
                break
            if v is None:
                undecided.append(d)
        else:
            if not undecided:
                return False
            open_[tuple(undecided)] = None
    todo = list(open_)
    if not todo:
        return True

    def next_open(k: int) -> int:
        while k < len(todo) and any(cc.value(d) for d in todo[k]):
            k += 1
        return k

    budget = node_cap
    stack = [[0, 0, cc.mark()]]
    while stack:
        frame = stack[-1]
        k, j, m = frame
        cc.undo(m)
        if j == len(todo[k]):
            stack.pop()
            continue
        frame[1] = j + 1
        budget -= 1
        if budget <= 0:
            return True
        if cc.assert_lit(todo[k][j]):
            k = next_open(k + 1)
            if k == len(todo):
                return True
            stack.append([k, 0, cc.mark()])
    return False


def reference_entailed_by(cube: Cube, region: Iterable[Cube], clause_cap: int = 2000) -> bool:
    """`engine.entailed_by` as it was before it built only open clauses:
    every clause of every injective instance is built, in region order, and
    the answer is False as soon as the instances counted so far pass
    `clause_cap`."""
    cc = CongruenceClosure()
    if not cc.assert_lits(cube.lits):
        return True
    cvars_by_sort = cube.vars_by_sort()
    instances = 0
    clauses: list[list[Lit]] = []
    for b in region:
        count = math.prod(
            math.perm(len(cvars_by_sort.get(s, ())), len(vs)) for s, vs in b.vars_by_sort().items()
        )
        if not count:
            continue
        instances += count
        if instances > clause_cap:
            return False
        if any(cc.value(l) is False for l in b.lits if not cube_vars_of_lits((l,))):
            continue
        pools = [cvars_by_sort[v.sort] for v in b.exists]
        for combo in itertools.product(*pools):
            if len(set(combo)) != len(combo):
                continue
            sub = dict(zip(b.exists, combo))
            clauses.append([lit_subst(l, sub).negate() for l in b.lits])
    return not _reference_clauses_sat(cc, clauses)


def reference_open_clauses(
    cube: Cube, region: Sequence[Cube], clause_cap: int = 2000
) -> Optional[list[tuple[Lit, ...]]]:
    """The open clauses `engine.entailed_by` hands its search, found by one
    scan over the region cubes in order: a cube with no total instantiation
    or with a refuted index-free literal is skipped, each instance clause
    stops at its first true literal, and the rest, deduplicated, are listed
    in order.  None when no search is needed: the cube is inconsistent, the
    instances pass `clause_cap`, or some instance clause is all false."""
    cc = CongruenceClosure()
    if not cc.assert_lits(cube.lits):
        return None
    cvars_by_sort = cube.vars_by_sort()
    counts = [
        math.prod(
            math.perm(len(cvars_by_sort.get(s, ())), len(vs)) for s, vs in b.vars_by_sort().items()
        )
        for b in region
    ]
    if sum(counts) > clause_cap:
        return None
    open_: dict[tuple[Lit, ...], None] = {}
    for b, count in zip(region, counts):
        if not count or any(cc.value(l) is False for l in b.lits if not cube_vars_of_lits((l,))):
            continue
        for combo in itertools.product(*(cvars_by_sort[v.sort] for v in b.exists)):
            if len(set(combo)) != len(combo):
                continue
            sub = dict(zip(b.exists, combo))
            undecided = []
            for l in b.lits:
                d = lit_subst(l, sub).negate()
                v = cc.value(d)
                if v:
                    break
                if v is None:
                    undecided.append(d)
            else:
                if not undecided:
                    return None
                open_[tuple(undecided)] = None
    return list(open_)


# ---------------------------------------------------------------------------
# verdict fingerprints


def named_model(name: str):
    """A bundled model by name, or corpus model `corpus<seed>`."""
    if name.startswith("corpus"):
        return generate_model(int(name[len("corpus"):]))
    return parse_pmas(fixture_text(name), name)


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


def _mentions_self(g) -> bool:
    if isinstance(g, VarTest):
        return g.idx == SELF
    if isinstance(g, RelTest):
        return any(isinstance(a, VarRef) and a.idx == SELF for a in g.args)
    if isinstance(g, IdxEq):
        return SELF in (g.lhs, g.rhs)
    if isinstance(g, Neg):
        return _mentions_self(g.inner)
    if isinstance(g, (Conj, Disj)):
        return any(map(_mentions_self, g.items))
    return False


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


def reference_eval_agent_formula(p, snap, interp, f, self_id=None, self_template=None) -> bool:
    """`model.eval_agent_formula` as a tree walk over every grounding of a
    per-agent expansion of `snap` (`per_agent`), with each variable's owner
    and slot read off the templates on every call: the reference the
    compiled evaluator must match."""
    return _eval_per_agent(p, per_agent(snap), snap.env, interp, f, self_id, self_template)


def _eval_per_agent(p, agents, env, interp, f, self_id=None, self_template=None) -> bool:
    """`reference_eval_agent_formula` over per-agent local states."""
    by_name = dict(agents)

    def agents_of(t):
        if t not in by_name:
            raise ModelError(f"no agents for template {t}")
        return by_name[t]

    st = p.template(self_template or self_id[0]) if (self_template or self_id) else None
    assign = infer_formula_var_templates(p, f, self_template=st)
    if self_id is None and _mentions_self(f):
        raise ModelError("self unbound in evaluation")
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
    """`oracle._apply` on a per-agent expansion of `snap`."""
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


def reference_enumerate_reachable(p, cfg):
    """`oracle.enumerate_reachable` on snapshots that keep one local state
    per agent, sorted per template: each step takes the first vector of each
    orbit of every legal vector (`orbit_key`), and each snapshot carries a
    copy of its run."""
    if sum(k for _t, k in cfg.counts) > cfg.max_states:
        return OracleResult(OVERFLOW)
    counts = cfg.counts_dict()
    start = (
        tuple((t.name, (tuple(i for _v, _s, i in t.variables),) * counts.get(t.name, 0)) for t in p.templates),
        tuple(i for _v, _s, i in p.env.variables),
        0 if p.alternation is not None else None,
    )
    interleaved = cfg.semantics == INTERLEAVED
    if cfg.semantics not in (INTERLEAVED, CONCURRENT):
        raise ValueError(f"unknown semantics {cfg.semantics!r}")

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
            firsts = {}
            for vec in _vectors_per_agent(p, cfg.interp, interleaved, *snap):
                firsts.setdefault(orbit_key(snap[0], vec), vec)
            for vec in firsts.values():
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
