"""Symbolic backward reachability over an array-based encoding.

Frontier cubes are pulled backwards through the transition rules (preimage =
substitute updates, eliminate case-defined values, renormalise to
differentiated cubes), accumulated into the visited region B, and checked
against the initial condition.  Safe when the frontier is entailed by B;
unsafe when a frontier cube intersects the initial states, in which case the
provenance chain yields a forward rule trace and a step template that can be
replayed on concrete instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .logic import (
    ArrayRead,
    BudgetError,
    CongruenceClosure,
    Cube,
    DEFAULT_DNF_CAP,
    Dnf,
    Eq,
    FLit,
    GlobalRef,
    IndexVar,
    Lit,
    RelAtom,
    Signature,
    StateFormula,
    conjoin,
    cube_vars_of_lits,
    dnf,
    expand_cases,
    ground_lits_sat,
    lit_dnf,
    lit_subst,
    memoized,
    minimal,
    term_subst,
)
from .encoder import (
    AbPmas,
    Gate,
    TransitionRule,
    differentiate,
    encode_goal,
)

SAFE = "SAFE"
UNSAFE = "UNSAFE"
UNKNOWN = "UNKNOWN"

DEFAULT_MAX_DEPTH = 200
DEFAULT_MAX_CUBES = 100000


# ---------------------------------------------------------------------------
# preimage


def _term_through(t, globals_map, arrays_map):
    if isinstance(t, GlobalRef):
        return globals_map.get(t.name, t)
    if isinstance(t, ArrayRead):
        upd = arrays_map.get(t.array)
        if upd is not None:
            return upd.apply(t.index)
        return t
    return t


def _lit_through(l: Lit, globals_map, arrays_map) -> Lit:
    a = l.atom
    if isinstance(a, Eq):
        return Lit(
            l.neg,
            Eq(
                _term_through(a.lhs, globals_map, arrays_map),
                _term_through(a.rhs, globals_map, arrays_map),
            ),
        )
    return Lit(
        l.neg,
        RelAtom(a.rel, tuple(_term_through(x, globals_map, arrays_map) for x in a.args)),
    )


def _gate_items(gate: Gate, cands: dict[str, list[IndexVar]], cap: int) -> list[Dnf]:
    """The DNF items of a universal gate instantiated over the candidate
    index variables, one per candidate that the gate constrains: declared,
    or every blocked precondition false.

    Instantiation over a finite set weakens the true universal condition; that
    is the deliberate over-approximation of the concurrent encoding.
    """
    out = []
    bases = [{}] if gate.var is None else [{gate.var: v} for v in cands.get(gate.var.sort, [])]
    for base in bases:
        clauses = []  # one per instance of a blocked precondition: some literal false
        for bp in gate.blocked:
            for combo in itertools.product(*(cands.get(v.sort, []) for v in bp.extra_vars)):
                sub = {**base, **dict(zip(bp.extra_vars, combo))}
                clauses.append([c for l in bp.lits for c in lit_dnf(lit_subst(l, sub).negate())])
        if clauses:  # with none, nothing is blocked and the candidate passes
            item = lit_dnf(lit_subst(gate.declared, base)) + conjoin(clauses, cap)
            if len(item) > cap:
                raise BudgetError(f"dnf exceeded {cap} cubes")
            out.append(item)
    return out


def constants_clash(rule: TransitionRule, cube: Cube) -> bool:
    """The cube fixes a global or array cell to a constant that every state
    the rule produces contradicts (`TransitionRule.post_constants`).  Distinct
    constants are never equal, so the preimage of the cube is then empty."""
    fixed, barred = rule.post_constants()
    for neg, cell, c in cube.const_lits():
        d = fixed.get(cell)
        if d is not None:
            if (d == c) == neg:
                return True
        elif not neg and (cell, c) in barred:
            return True
    return False


class _CompiledRule:
    """The part of every preimage under one rule that depends on the rule
    alone: its existentials renamed apart to `$r<k>`, each renamed guard
    literal as a one-branch DNF item, its renamed updates and what they
    write.  `items` keeps the DNF item of each (renamed) cube literal the
    rule rewrites, built the first time a cube has it."""

    def __init__(self, rule: TransitionRule) -> None:
        ren = {v: IndexVar(f"$r{k}", v.sort) for k, v in enumerate(rule.exists)}
        self.exists = tuple(ren.values())
        self.guard_items = [lit_dnf(lit_subst(l, ren)) for l in rule.guard]
        self.globals_map = rule.globals_map()
        self.arrays_map = {
            a: type(u)(u.var, term_subst(u.body, ren)) for a, u in rule.arrays_upd
        }
        self.writes = {GlobalRef(g) for g in self.globals_map} | set(self.arrays_map)
        self.items: dict[Lit, Dnf] = {}

    def item_after(self, l: Lit, cap: int) -> Dnf:
        """The DNF of cube literal `l` evaluated after the rule's updates."""
        a = l.atom
        terms = (a.lhs, a.rhs) if isinstance(a, Eq) else a.args
        if not any((t.array if isinstance(t, ArrayRead) else t) in self.writes for t in terms):
            return lit_dnf(l)  # untouched; a `make_cube` cube may hold f[z]=f[z]
        item = self.items.get(l)
        if item is None:
            f = expand_cases(FLit(_lit_through(l, self.globals_map, self.arrays_map)))
            item = self.items[l] = dnf(f, cap)
        elif len(item) > cap:
            raise BudgetError(f"dnf exceeded {cap} cubes")
        return item


@memoized
def _compiled(rule: TransitionRule) -> _CompiledRule:
    """`rule`'s part of every preimage, built once and kept on the rule."""
    return _CompiledRule(rule)


def preimage(
    rule: TransitionRule,
    cube: Cube,
    sig: Signature,
    region: "Region",
    dnf_cap: int = DEFAULT_DNF_CAP,
) -> list[Cube]:
    """Exact preimage of one differentiated cube under one rule, less the
    cubes `region` covers.

    The DNF of guard /\\ (cube after the updates) /\\ gates is one `conjoin`
    of per-literal items: the guard's and those of the literals the rule
    rewrites come from the rule's `_CompiledRule`, and only the gates, which
    range over the cube's variables, are built per call.  Returns
    differentiated cubes (already EUF-filtered; `differentiate` drops the
    covered ones before their EUF check).  The cube's own index
    variables stay pairwise distinct; rule existentials may merge with them or
    with each other, which the equality-partition split enumerates.  Coverage
    does not depend on variable names, so it is checked before `canon_cube`.
    """
    rc = _compiled(rule)
    # rename apart; every output is canonicalised, so names by position suffice
    cube_ren = {v: IndexVar(f"$z{k}", v.sort) for k, v in enumerate(cube.exists)}
    items = rc.guard_items + [rc.item_after(lit_subst(l, cube_ren), dnf_cap) for l in cube.lits]
    if rule.gates:
        cands: dict[str, list[IndexVar]] = {}
        for v in itertools.chain(rc.exists, cube_ren.values()):
            cands.setdefault(v.sort, []).append(v)
        for gate in rule.gates:
            items += _gate_items(gate, cands, dnf_cap)

    out: list[Cube] = []
    seen = set()
    distinct = set(cube_ren.values())
    for lits in minimal(conjoin(items, dnf_cap)):
        for c in differentiate(lits, sig, distinct=distinct, covered=region.covers):
            cc = canon_cube(c)
            if cc.key() not in seen:
                seen.add(cc.key())
                out.append(cc)
    return out


def _render(l: Lit, names: dict[IndexVar, str]) -> str:
    """`repr(l)`, with `names[v]` for the name of each variable `v` in `names`."""

    def term(t) -> str:
        if isinstance(t, IndexVar):
            return f"{names.get(t, t.name)}:{t.sort}"
        if isinstance(t, ArrayRead):
            return f"{t.array}[{names.get(t.index, t.index.name)}]"
        return repr(t)

    a = l.atom
    if isinstance(a, Eq):
        return ("!" if l.neg else "") + f"{term(a.lhs)}={term(a.rhs)}"
    return ("!" if l.neg else "") + f"{a.rel}({', '.join(map(term, a.args))})"


def canon_cube(cube: Cube) -> Cube:
    """Deterministic variable renaming: of every per-sort renaming of the
    existential variables to `$c<sort>_<k>`, the one whose cube renders
    (`repr`) lexicographically smallest, the first one on a tie.

    Each literal is rendered once, straight from its terms, into a
    `str.format` template with a field for each variable (a variable named by
    its NUL-delimited number, split out of the rendering), so a candidate
    renaming only fills in names, sorts and compares strings.  Only the
    winner is built as a cube."""
    by_sort = sorted(cube.vars_by_sort().items())
    slots = [v for _, vs in by_sort for v in vs]
    marks = {v: f"\0{k}\0" for k, v in enumerate(slots)}
    lits = list(dict.fromkeys(cube.lits))
    templates: list[str] = []
    used: set[int] = set()  # slots some literal mentions
    for l in lits:
        parts = _render(l, marks).replace("{", "{{").replace("}", "}}").split("\0")
        used.update(int(k) for k in parts[1::2])
        templates.append("".join(t if n % 2 == 0 else f"{{{t}}}" for n, t in enumerate(parts)))
    renamings = [
        itertools.permutations([IndexVar(f"$c{s}_{k}", s) for k in range(len(vs))])
        for s, vs in by_sort
    ]
    best_key, best = None, None
    for combo in itertools.product(*renamings):
        named = [w for ws in combo for w in ws]
        names = [w.name for w in named]
        # (rendering, literal) in `make_cube` order; a variable no literal uses is dropped
        rendered = sorted(zip([t.format(*names) for t in templates], range(len(lits))))
        ex = sorted(named[k] for k in used)
        key = (f"E {', '.join(map(repr, ex))}. " if ex else "") + (
            " & ".join(r for r, _ in rendered) or "true"
        )
        if best_key is None or key < best_key:
            best_key, best = key, (named, ex, rendered)
    named, ex, rendered = best
    sub = dict(zip(slots, named))
    return Cube(tuple(ex), tuple(lit_subst(lits[i], sub) for _, i in rendered))


# ---------------------------------------------------------------------------
# subsumption and entailment


def subsumes(a: Cube, b: Cube) -> bool:
    """Syntactic embedding: b implies a via some injective variable mapping."""
    if len(a.lits) > len(b.lits) or len(a.exists) > len(b.exists):
        return False
    if not a.shapes() <= b.shapes():
        return False
    b_lits = b.key()[1]
    bs_by_sort = b.vars_by_sort()
    avars = a.exists
    check_at = a.check_schedule()

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


class Region:
    """A set of cubes, indexed for "does some cube here subsume this one?".

    A cube can subsume another only if its literal shapes are a subset of the
    other's (`Cube.shapes`).  The region numbers each shape with a bit and
    files each cube as `(shape mask, #literals, #variables, cube)` under one
    of its shapes, the one fewest region cubes have had so far; a query scans
    only the buckets of its own shapes and runs the embedding search
    (`subsumes`) only on candidates whose mask lies within its own and that
    are no longer than it.  `cubes` holds the cubes in insertion order.

    For `entailed_by`, `tables` files the position of each cube under its
    group: its variable count per sort and its negated index-free literals.
    It keeps per cube its instances' negated literals built so far, each
    literal interned: equal ones are one object, found by identity.  They are
    built on the first `tables` call after the cube is added, so a region
    only `covers` reads never builds them.
    """

    def __init__(self) -> None:
        self.cubes: list[Cube] = []
        # (sizes, refuted_by) -> positions in `cubes`, ascending
        self.groups: dict[tuple[tuple[tuple[str, int], ...], tuple[Lit, ...]], list[int]] = {}
        self.instances: list[dict[tuple[IndexVar, ...], list[Lit]]] = []
        self._lits: dict[Lit, Lit] = {}
        self._buckets: dict = {}  # shape (None: no literals) -> filed cubes
        self._bit: dict = {}  # shape -> its bit
        self._freq: dict = {}  # shape -> number of region cubes that have it

    def tables(self) -> None:
        """Build the entailment tables of the cubes added since the last call."""
        for cube in self.cubes[len(self.instances):]:
            sizes = tuple((s, len(vs)) for s, vs in cube.vars_by_sort().items())
            free = cube.check_schedule()[0]  # literals without its variables: in every instance
            refuted_by = tuple(self.intern(l.negate()) for l in free)
            self.groups.setdefault((sizes, refuted_by), []).append(len(self.instances))
            self.instances.append({})

    def mask(self, cube: Cube) -> int:
        """The bits of the cube's shapes that the region has numbered."""
        bit = self._bit
        return sum(bit[sh] for sh in cube.shapes() if sh in bit)

    def add(self, cube: Cube) -> None:
        self.cubes.append(cube)
        freq, bit = self._freq, self._bit
        for sh in cube.shapes():
            freq[sh] = freq.get(sh, 0) + 1
            bit.setdefault(sh, 1 << len(bit))
        key = min(cube.shapes(), key=freq.__getitem__, default=None)
        filed = (self.mask(cube), len(cube.lits), len(cube.exists), cube)
        self._buckets.setdefault(key, []).append(filed)

    def intern(self, l: Lit) -> Lit:
        """The region's one object equal to `l`."""
        return self._lits.setdefault(l, l)

    def covers(self, cube: Cube) -> bool:
        """Some cube of the region subsumes `cube`."""
        buckets = self._buckets
        qmask, nlits, nvars = self.mask(cube), len(cube.lits), len(cube.exists)
        for key in itertools.chain((None,), cube.shapes()):
            for m, k, n, b in buckets.get(key, ()):
                if not m & ~qmask and k <= nlits and n <= nvars and subsumes(b, cube):
                    return True
        return False


def _clauses_sat(
    cc: CongruenceClosure,
    todo: Sequence[Sequence[Lit]],
    node_cap: int = 20000,
) -> bool:
    """Ground EUF satisfiability of the closure's literals /\\ CNF clauses.

    `entailed_by` passes only open clauses, none of whose literals the
    closure decides yet, but any clauses are answered correctly.  The search
    asserts one literal of the first clause no literal satisfies yet per node
    and undoes it on backtrack; it keeps its own stack, so the number of
    clauses is not bounded by Python's recursion limit.  Gives up (answers
    "satisfiable") after `node_cap` search nodes, which callers treat as
    "entailment not proven" — always sound.
    """
    if not todo:
        return True

    def next_open(k: int) -> int:
        """The first clause from `k` on that no literal satisfies yet."""
        while k < len(todo) and any(cc.value(d) for d in todo[k]):
            k += 1
        return k

    budget = node_cap
    # one frame per decision: clause, next literal to try, mark before it
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
            return True  # give up: report satisfiable
        if cc.assert_lit(todo[k][j]):
            k = next_open(k + 1)
            if k == len(todo):
                return True
            stack.append([k, 0, cc.mark()])
    return False


class _Values(dict):
    """Literal -> its value on a closure that no longer changes, each computed once."""

    def __init__(self, cc: CongruenceClosure) -> None:
        self.cc = cc

    def __missing__(self, d: Lit) -> Optional[bool]:
        v = self[d] = self.cc.value(d)
        return v


def entailed_by(cube: Cube, region: Region, clause_cap: int = 2000) -> bool:
    """cube |= \\/ region, via universal instantiation over the cube's own
    variables (sorts with no variable are empty in the restricted model).
    This is the one decision procedure for the exists/forall fragment: the
    cube is satisfiable together with the negation of every instance iff
    it is not entailed.

    Best-effort beyond `clause_cap` instantiations in all: answers False (not
    entailed), which is always sound — the cube is merely kept.  Below it,
    instance literals are built lazily into `region` and evaluated once per
    call; a clause stops at its first true literal, an all-false one proves
    entailment, and only open clauses, deduplicated, reach the search."""
    cc = CongruenceClosure()
    if not cc.assert_lits(cube.lits):
        return True
    region.tables()
    cvars_by_sort = cube.vars_by_sort()
    # injective instantiations of a region cube's variables by the cube's
    count_of = {
        sz: math.prod(math.perm(len(cvars_by_sort.get(s, ())), k) for s, k in sz)
        for sz, _ in region.groups
    }
    if sum(count_of[sz] * len(at) for (sz, _), at in region.groups.items()) > clause_cap:
        return False
    values = _Values(cc)
    # a group without a total instantiation, or whose every instance some
    # index-free literal refutes, imposes nothing; the rest go in region order
    live = sorted(
        i
        for (sz, refuted_by), at in region.groups.items()
        if count_of[sz] and not any(values[d] for d in refuted_by)
        for i in at
    )
    open_: dict[tuple[Lit, ...], None] = {}
    for i in live:
        b, built = region.cubes[i], region.instances[i]
        pools = [cvars_by_sort[v.sort] for v in b.exists]
        for combo in itertools.product(*pools):
            if len(set(combo)) != len(combo):
                continue  # non-injective: differentiation clause vacuous
            negs = built.setdefault(combo, [])
            undecided = []
            for i, l in enumerate(b.lits):
                if i == len(negs):
                    negs.append(region.intern(lit_subst(l, dict(zip(b.exists, combo))).negate()))
                v = values[negs[i]]
                if v:
                    break
                if v is None:
                    undecided.append(negs[i])
            else:
                if not undecided:
                    return True
                open_[tuple(undecided)] = None
    return not _clauses_sat(cc, list(open_))


# ---------------------------------------------------------------------------
# initial-state intersection


def init_sat(abp: AbPmas, cube: Cube) -> bool:
    """Some initial state satisfies the cube: its literals read through the
    initial state are ground and jointly satisfiable."""
    globals_map, arrays_map = abp.init.update_maps()
    return ground_lits_sat([_lit_through(l, globals_map, arrays_map) for l in cube.lits])


# ---------------------------------------------------------------------------
# backward reachability


@dataclass
class _Node:
    cube: Cube
    rule: Optional[TransitionRule]
    parent: Optional["_Node"]
    depth: int


@dataclass
class Frontier:
    """One layer of the backward search (for inspection and reporting)."""

    depth: int
    cubes: list[Cube]


@dataclass
class TraceStep:
    rule_label: str
    kind: str
    template: Optional[str]
    action: Optional[str]


@dataclass
class Verdict:
    status: str  # SAFE | UNSAFE | UNKNOWN
    depth: int
    trace: list[TraceStep] = field(default_factory=list)
    run_template: list[frozenset[str]] = field(default_factory=list)
    reason: str = ""
    layers: list[Frontier] = field(default_factory=list)
    total_cubes: int = 0


def breach(
    abp: AbPmas,
    goal: Optional[StateFormula] = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_cubes: int = DEFAULT_MAX_CUBES,
    dnf_cap: int = DEFAULT_DNF_CAP,
) -> Verdict:
    """Backward reachability from the goal; SAFE / UNSAFE / UNKNOWN."""
    sig = abp.sig
    if goal is None:
        goal = encode_goal(abp.pmas, sig)

    frontier: list[_Node] = []
    seen_layer = set()
    for c in goal.cubes:
        cc = canon_cube(c)
        if cc.key() not in seen_layer:
            seen_layer.add(cc.key())
            frontier.append(_Node(cc, None, None, 0))

    region = Region()
    layers: list[Frontier] = []
    total = len(frontier)
    depth = 0

    def verdict_unsafe(node: _Node) -> Verdict:
        steps: list[TraceStep] = []
        cur: Optional[_Node] = node
        while cur is not None and cur.rule is not None:
            r = cur.rule
            steps.append(TraceStep(r.label, r.kind, r.template, r.action))
            cur = cur.parent
        v = Verdict(UNSAFE, depth=node.depth, trace=steps, layers=layers, total_cubes=total)
        v.run_template = extract_run_template(v.trace)
        return v

    while True:
        layers.append(Frontier(depth, [n.cube for n in frontier]))
        for n in frontier:
            if init_sat(abp, n.cube):
                return verdict_unsafe(n)

        new_nodes: list[_Node] = []
        # `preimage` dropped the cubes `region` covers, and it has not grown since
        kept = Region()
        for n in frontier:
            if kept.covers(n.cube) or entailed_by(n.cube, region):
                continue
            new_nodes.append(n)
            kept.add(n.cube)
        if not new_nodes:
            return Verdict(SAFE, depth=depth, layers=layers, total_cubes=total,
                           reason="fixpoint")
        for n in new_nodes:
            region.add(n.cube)

        if depth >= max_depth:
            return Verdict(UNKNOWN, depth=depth, layers=layers, total_cubes=total,
                           reason="depth budget exhausted")
        depth += 1
        nxt: dict = {}
        try:
            for rule in abp.rules:
                for n in new_nodes:
                    if constants_clash(rule, n.cube):
                        continue
                    for c in preimage(rule, n.cube, sig, region, dnf_cap):
                        if c.key() not in nxt:
                            nxt[c.key()] = _Node(c, rule, n, depth)
        except BudgetError as be:
            return Verdict(UNKNOWN, depth=depth, layers=layers, total_cubes=total,
                           reason=str(be))
        total += len(nxt)
        if total > max_cubes:
            return Verdict(UNKNOWN, depth=depth, layers=layers, total_cubes=total,
                           reason="cube budget exhausted")
        frontier = list(nxt.values())
        if not frontier:
            return Verdict(SAFE, depth=depth, layers=layers, total_cubes=total,
                           reason="empty preimage")


# ---------------------------------------------------------------------------
# trace post-processing


def extract_run_template(trace: list[TraceStep]) -> list[frozenset[str]]:
    """Collapse a forward rule trace into committed global steps.

    Declares/starts/joins accumulate the actions of the step; a bulk or sync
    commit closes it.  Each step is the set of distinct committed action names
    (agent multiplicity is left to replay).  Gate rules are bookkeeping only.
    """
    steps: list[frozenset[str]] = []
    current: list[str] = []
    for st in trace:
        if st.kind in ("declare", "sync_start", "sync_join"):
            if st.action is not None and st.action not in current:
                current.append(st.action)
        elif st.kind in ("bulk_local", "sync_commit"):
            if st.kind == "bulk_local" and st.action not in (None, "nop") and st.action not in current:
                current.append(st.action)
            if not current:
                raise RuntimeError("commit rule without any declared action in trace")
            steps.append(frozenset(current))
            current = []
        elif st.kind == "ind_sync":
            if current:
                raise RuntimeError("individual sync inside an open declare group")
            steps.append(frozenset([st.action] if st.action else []))
        elif st.kind in ("gate_local", "gate_sync"):
            continue
        else:
            raise RuntimeError(f"unknown rule kind {st.kind}")
    if current:
        raise RuntimeError("trace ends inside an uncommitted declare group")
    return steps


# ---------------------------------------------------------------------------
# locality analysis


@dataclass
class LocalityReport:
    semantics: str
    goal_local: bool
    protocols_local: bool
    nonlocal_literals: list[str]
    guaranteed_termination: bool
    spurious_unsafe_possible: bool


def _lit_local(l: Lit) -> bool:
    return len(cube_vars_of_lits([l])) <= 1


def check_locality(abp: AbPmas, goal: Optional[StateFormula] = None) -> LocalityReport:
    """Syntactic locality: every literal touches at most one index variable.

    Local goal + local rule guards under interleaved semantics guarantee that
    the backward search terminates; concurrent semantics additionally makes an
    UNSAFE verdict potentially spurious (gates are over-approximated).
    """
    if goal is None:
        goal = encode_goal(abp.pmas, abp.sig)
    bad: list[str] = []
    goal_local = True
    for c in goal.cubes:
        for l in c.lits:
            if not _lit_local(l):
                goal_local = False
                bad.append(f"goal: {l!r}")
    protocols_local = True
    for r in abp.rules:
        for l in r.guard:
            if not _lit_local(l):
                protocols_local = False
                bad.append(f"{r.label}: {l!r}")
    concurrent = abp.semantics == "concurrent"
    return LocalityReport(
        semantics=abp.semantics,
        goal_local=goal_local,
        protocols_local=protocols_local,
        nonlocal_literals=bad,
        guaranteed_termination=(not concurrent) and goal_local and protocols_local,
        spurious_unsafe_possible=concurrent,
    )
