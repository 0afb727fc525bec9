"""Symbolic backward reachability over an array-based encoding.

Frontier cubes are pulled backwards through the transition rules (preimage =
substitute updates, eliminate case-defined values, renormalise to
differentiated cubes), accumulated into the visited region B, and checked
against the initial condition.  Safe when B entails the frontier;
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
    Const,
    Cube,
    DEFAULT_DNF_CAP,
    Dnf,
    Eq,
    GlobalRef,
    IndexVar,
    Lit,
    RelAtom,
    Signature,
    _lit_shape,
    conjoin,
    conjoin_with,
    const_cell,
    dnf,
    expand_cases,
    ground_lits_sat,
    lit_dnf,
    lit_eq,
    lit_subst,
    memoized,
    term_subst,
)
from .encoder import (
    AbPmas,
    Gate,
    TransitionRule,
    differentiate,
)
from .model import NOP

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
                clauses.append([c for l in bp.lits for c in lit_dnf(lit_subst(l.negate(), sub))])
        if clauses:  # with none, nothing is blocked and the candidate passes
            item = lit_dnf(lit_subst(gate.declared, base)) + conjoin(clauses, cap)
            if len(item) > cap:
                raise BudgetError(f"dnf exceeded {cap} cubes")
            out.append(item)
    return out


class _ClashTable(dict):
    """One `breach` run's `Cube.const_lits` triple -> the bit mask of the
    positions of the rules that rule it out (`TransitionRule.rules_out`),
    filled the first time a cube has the triple.  Under such a rule every
    successor contradicts the cube, so its preimage is empty."""

    def __init__(self, rules: Sequence[TransitionRule]) -> None:
        self.rules = rules

    def __missing__(self, triple: tuple) -> int:
        mask = self[triple] = sum(1 << k for k, r in enumerate(self.rules) if r.rules_out(*triple))
        return mask

    def ruled_out(self, cube: Cube) -> int:
        """The bit mask of the rules some constant literal of `cube` clashes
        with."""
        mask = 0
        for triple in cube.const_lits():
            mask |= self[triple]
        return mask


class _Items(dict):
    """One run's preimage items (`Region.items`): (cube literal, the number
    of the rule's updates of the cells it reads) -> the item `item_after`
    returned, which depends on nothing else.  `numbers` numbers each
    distinct tuple of updates the run meets, and `number_of` keeps the
    number per (`_CompiledRule`, cells), so that the updates of two rules
    are hashed and compared once per run, not at every lookup.  `shared`
    keeps each item built, with the variables it was built for, under the
    literal's template up to a renaming of its variables and that number,
    so that another literal of that template finds it."""

    def __init__(self) -> None:
        self.shared: dict[tuple, tuple[tuple[IndexVar, ...], Dnf]] = {}
        self.numbers: dict[tuple, int] = {}
        self.number_of: dict[tuple, int] = {}


class _CompiledRule:
    """The part of every preimage under one rule that depends on the rule
    alone: its existentials renamed apart to `$r<k>`, the renamed guard
    literals (`guard_lits`, less the trivially true ones; `guard_false` when
    one is trivially false), its renamed updates, and per cell it writes
    that update as a key (`updates`).  The items of the cube literals it
    rewrites live in the run's table (`Region.items`), not here."""

    def __init__(self, rule: TransitionRule) -> None:
        ren = {v: IndexVar(f"$r{k}", v.sort) for k, v in enumerate(rule.exists)}
        self.exists = tuple(ren.values())
        guard = [lit_dnf(lit_subst(l, ren)) for l in rule.guard]  # one branch or none
        self.guard_lits = tuple(dict.fromkeys(l for item in guard if item for l in item[0]))
        self.guard_false = not all(guard)
        self.globals_map = rule.globals_map()
        self.arrays_map = {
            a: type(u)(u.var, term_subst(u.body, ren)) for a, u in rule.arrays_upd
        }
        self.updates: dict = {GlobalRef(g): c for g, c in self.globals_map.items()}
        self.updates.update(self.arrays_map)

    def untouched(self, l: Lit) -> bool:
        """The rule writes no cell cube literal `l` reads, and `l` is not
        trivially true or false (a `make_cube` cube may hold f[z]=f[z]):
        after the updates `l` is itself, its own one-branch item."""
        if not self.updates.keys().isdisjoint(l.cells()):
            return False
        a = l.atom  # two terms are equal, or both constants, only within one type
        return type(a) is not Eq or type(a.lhs) is not type(a.rhs) or (
            type(a.lhs) is not Const and a.lhs != a.rhs)

    def item_after(self, l: Lit, cap: int, items: _Items) -> Dnf:
        """The DNF of cube literal `l` evaluated after the rule's updates, for
        an `l` that is not `untouched`: a trivially true or false literal the
        rule does not write is its own DNF, and any other is looked up in the
        run's `items` under `l` and the number of the rule's updates of the
        cells it reads, and found in `items.shared` or built there, the first
        time a rule updating them so asks for `l`.

        The item depends on `l` only up to an injective renaming of its index
        variables, and on the rule only through its updates of the cells `l`
        reads: `shared` is keyed by the texts of `l`'s split rendering
        (`Lit.parts`), the position in `l.index_vars()` of each variable
        between them, their sorts and the number of those updates.  Case
        expansion and `dnf` substitute index variables and compare them for
        identity, never order them, so the item of `l` is the kept one with
        each literal renamed (`lit_subst`).  No variable of `l` may be named
        `$r<k>`, as in `preimage`."""
        cells = l.cells()
        if self.updates.keys().isdisjoint(cells):
            return lit_dnf(l)
        number = items.number_of.get((self, cells))
        if number is None:
            numbers = items.numbers
            number = numbers.setdefault(tuple(map(self.updates.get, cells)), len(numbers))
            items.number_of[self, cells] = number
        item = items.get((l, number))
        if item is None:
            item = items[l, number] = self._shared_item(l, number, cap, items.shared)
        elif len(item) > cap:
            raise BudgetError(f"dnf exceeded {cap} cubes")
        return item

    def _shared_item(self, l: Lit, number: int, cap: int, shared: dict) -> Dnf:
        parts, vs = l.parts(), l.index_vars()
        key = (parts[::2], tuple(map(vs.index, parts[1::2])), tuple(v.sort for v in vs), number)
        kept = shared.get(key)
        if kept is None:
            f = expand_cases(_lit_through(l, self.globals_map, self.arrays_map))
            item = dnf(f, cap)
            shared[key] = (vs, item)
            return item
        built_for, item = kept
        if len(item) > cap:
            raise BudgetError(f"dnf exceeded {cap} cubes")
        if built_for == vs:
            return item
        sub = dict(zip(built_for, vs))
        return [tuple(lit_subst(x, sub) for x in c) for c in item]


@memoized
def _compiled(rule: TransitionRule) -> _CompiledRule:
    """`rule`'s part of every preimage, built once and kept on the rule."""
    return _CompiledRule(rule)


def preimage(
    rule: TransitionRule,
    cube: Cube,
    region: "Region",
    dnf_cap: int = DEFAULT_DNF_CAP,
) -> list[Cube]:
    """Exact preimage of one differentiated cube under one rule, less the
    cubes `region` covers.

    The DNF of guard /\\ (cube after the updates) /\\ gates is built from
    per-literal items: the guard's comes from the rule's `_CompiledRule`,
    kept on the rule; that of a cube literal the rule rewrites from
    `region.items`, the run's table, built once per run for all literals
    equal up to a renaming of their variables and all rules that update
    the cells they read alike (`_CompiledRule.item_after`), and dropped
    with the region; only the gates, which range over the cube's variables,
    are built per call.  A cube literal
    the rule leaves untouched (`_CompiledRule.untouched`, by `Lit.cells`)
    is its own item, and goes into the first branch with no item built.
    The items with one branch (guard literals, untouched literals) are
    merged into one first branch, and only the others multiply, in one
    `conjoin_with` that conjoins them stripped of the first branch's
    literals and puts that branch before each result; the conjunctions are
    those of conjoining the items as they come, in their order, up to the
    order of the literals within each.  Every item is built before
    `preimage` returns `[]` for an item without a branch, so a budget
    raises where it did.  Returns differentiated cubes (already
    EUF-filtered; `differentiate` drops the covered ones before their EUF
    check).

    When `region` holds `cube` itself (`Region.holds`; `breach` adds every
    cube before taking its preimages), a conjunction holding every literal
    of `cube` is skipped before `differentiate`: its branches keep the
    cube's variables apart, so each holds an injective renaming of the
    cube, which therefore subsumes it.  When the first branch holds every
    such literal, so does every conjunction, and `preimage` returns `[]`
    before `conjoin` unless the product of the other items' sizes passes
    `dnf_cap` (`conjoin` might then raise).  With any other region nothing
    is skipped.  The cubes returned are canonical, their literals taken from
    `region.canon_lits` (`canon_cube`).  The cube's own index
    variables stay pairwise distinct; rule existentials may merge with them or
    with each other, which the equality-partition split enumerates.  Coverage
    does not depend on variable names, so it is checked before `canon_cube`.

    The cube's literals go in as they are, so no variable of `cube` may be
    named `$r<k>`, the names of the rule's existentials.  The cubes `breach`
    passes are canonical (`$c<sort>_<k>`), and so are those returned.
    """
    rc = _compiled(rule)
    # the one-branch items form one first branch; only the others multiply
    fixed = dict.fromkeys(rc.guard_lits)
    items = []
    for l in cube.lits:
        if rc.untouched(l):
            fixed[l] = None
        else:
            items.append(rc.item_after(l, dnf_cap, region.items))
    if rule.gates:
        cands: dict[str, list[IndexVar]] = {}
        for v in itertools.chain(rc.exists, cube.exists):
            cands.setdefault(v.sort, []).append(v)
        for gate in rule.gates:
            items += _gate_items(gate, cands, dnf_cap)
    if rc.guard_false:
        return []
    multi = []
    for item in items:
        if not item:
            return []
        if len(item) == 1:
            fixed.update(dict.fromkeys(item[0]))
        else:
            multi.append(item)
    if len({l.atom for l in fixed}) < len(fixed):
        return []  # two of its distinct literals share an atom: one negates the other
    # the literals of `cube` a conjunction must hold beyond the first branch
    # for `region` to hold each of its branches
    whole = cube.lit_set().difference(fixed) if region.holds(cube) else None
    if whole is not None and not whole and math.prod(map(len, multi)) <= dnf_cap:
        return []  # every conjunction holds `cube`, and `conjoin` stays within `dnf_cap`

    out: list[Cube] = []
    seen = set()
    distinct = set(cube.exists)
    first = tuple(fixed)
    for lits in conjoin_with(first, multi, dnf_cap):
        if whole is not None and whole.issubset(lits[len(first):]):
            continue  # every branch holds a renaming of `cube`, which `region` holds
        for c in differentiate(lits, distinct=distinct, covered=region.covers):
            cc = canon_cube(c, region.canon_lits)
            if cc.key() not in seen:
                seen.add(cc.key())
                out.append(cc)
    return out


def canon_cube(cube: Cube, table: Optional[dict[str, Lit]] = None) -> Cube:
    """Deterministic variable renaming: of every per-sort renaming of the
    existential variables to `$c<sort>_<k>`, the one whose cube renders
    (`repr`) lexicographically smallest, the first one on a tie.

    A candidate renaming only fills the names into the literals' templates
    (`Cube.templates`), sorts and compares strings; the literals without
    variables are rendered once for all renamings, and a variable no literal
    uses (`Cube.used_vars`, which a `make_cube` cube has without a scan) is
    dropped.  Only the winner is built
    as a cube.  Each of its literals is looked up by the rendering that won
    in `table` (rendering -> literal, `Region.canon_lits`) and built
    (`lit_subst`) only when missing, and then filed there; so a run that
    passes one table builds each canonical literal once, and its cubes
    share it."""
    by_sort = sorted(cube.vars_by_sort().items())
    pos = {v: k for k, v in enumerate(cube.exists)}
    slots = [pos[v] for _, vs in by_sort for v in vs]  # exists positions, by sort
    template_of = dict(zip(cube.lits, cube.templates()))  # once per literal
    lits = list(template_of)
    # a literal without variables renders the same under every renaming
    fixed = [(repr(l), i) for i, l in enumerate(lits) if not l.index_vars()]
    varying = [(t, i) for i, (l, t) in enumerate(template_of.items()) if l.index_vars()]
    # a variable no literal uses is dropped
    used = [pos[v] for v in cube.used_vars()]
    sorts = [v.sort for v in cube.exists]
    renamings = [
        itertools.permutations([f"$c{s}_{k}" for k in range(len(vs))]) for s, vs in by_sort
    ]
    # the key's `E ...` prefix names the variables kept: unless one is
    # dropped, every renaming names the same ones, and the literals decide
    same_prefix = len(used) == len(slots)
    names = [""] * len(slots)
    best_key, best = None, None
    for combo in itertools.product(*renamings):
        for k, name in zip(slots, itertools.chain.from_iterable(combo)):
            names[k] = name
        # (rendering, literal) in `make_cube` order
        rendered = sorted([*fixed, *((t.format(*names), i) for t, i in varying)])
        key = " & ".join([r for r, _ in rendered]) or "true"
        if not same_prefix:
            ex = sorted((names[k], sorts[k]) for k in used)
            key = (f"E {', '.join(f'{n}:{s}' for n, s in ex)}. " if ex else "") + key
        if best_key is None or key < best_key:
            best_key, best = key, (list(names), rendered)
    named, rendered = best
    sub = {v: IndexVar(n, v.sort) for v, n in zip(cube.exists, named)}
    if table is None:
        table = {}
    out = []
    for r, i in rendered:
        l = table.get(r)
        if l is None:
            l = table[r] = lit_subst(lits[i], sub)
        out.append(l)
    return Cube(tuple(sorted(sub[cube.exists[k]] for k in used)), tuple(out))  # exists as `ex`


# ---------------------------------------------------------------------------
# subsumption and entailment


def subsumes(a: Cube, b: Cube) -> bool:
    """Syntactic embedding: b implies a via some injective variable mapping.

    A candidate mapping is tested by filling the names it gives `a`'s
    variables into `a`'s literal templates (`Cube.check_schedule`) and
    looking the renderings up among `b`'s (`Cube.key`); no literal is built.
    The search is exact without the shape and variable-count tests that
    `Region.covers` makes; an `a` repeating a literal (not a `make_cube`
    cube) is still longer than a `b` holding it once."""
    if len(a.lits) > len(b.lits):
        return False
    b_lits = b.key()[1]
    bs_by_sort = b.vars_by_sort()
    avars = a.exists
    check_at = a.check_schedule()
    names: list[str] = []  # of the images of avars[:len(names)]
    used: set[IndexVar] = set()

    def assign(i: int) -> bool:
        for t in check_at[i]:
            if t.format(*names) not in b_lits:
                return False
        if i == len(avars):
            return True
        for w in bs_by_sort.get(avars[i].sort, []):
            if w in used:
                continue
            names.append(w.name)
            used.add(w)
            if assign(i + 1):
                return True
            used.discard(w)
            names.pop()
        return False

    return assign(0)


class Region:
    """A set of cubes, indexed for "does some cube here subsume this one?".

    A cube can subsume another only if its multiset of literal shapes lies
    within the other's (`Cube.shapes`, whose keys number repeated shapes):
    an injective renaming maps distinct literals to distinct literals of the
    same shape.  The region numbers each key with a bit and files each cube
    as `(shape mask, #literals, #variables, cube)` under one of its keys,
    the one fewest region cubes have had so far; a query scans only the
    buckets of its own keys and runs the embedding search (`subsumes`) only
    on candidates whose mask lies within its own and that are no longer than
    it.  `cubes` holds the cubes in insertion order.

    `implied` extends a query with the literals it implies, for
    `entailed_by`, and keeps each literal it builds alive for the run
    (`_others`), so that the literal's shape is computed once.

    `holds` answers in O(1) whether the region holds a given cube itself,
    which lets `preimage` skip the conjunctions that cube subsumes; the skip
    needs the region to hold the cube.  `canon_lits` is the run's table of
    canonical literals by rendering, which `canon_cube` fills and reads, and
    `items` its table of preimage items (`_Items`), which `preimage` fills
    and reads; both live as long as the region, so a `breach` run shares
    them across its layers and rules, and a `Region()` made for one call
    starts empty.
    """

    def __init__(self) -> None:
        self.cubes: list[Cube] = []
        self._buckets: dict = {}  # shape key (None: no literals) -> filed cubes
        self._bit: dict = {}  # shape key -> its bit
        self._freq: dict = {}  # shape key -> number of region cubes that have it
        self._keys: set[tuple] = set()  # `Cube.key` of every cube added
        self.canon_lits: dict[str, Lit] = {}  # rendering -> canonical literal
        self.items = _Items()
        self._others: dict = {}  # t=c -> its t!=d; (relation literal, args) -> copy

    def mask(self, cube: Cube) -> int:
        """The bits of the cube's shape keys that the region has numbered."""
        return sum(map(self._bit.get, cube.shapes(), itertools.repeat(0)))

    def add(self, cube: Cube) -> None:
        self.cubes.append(cube)
        self._keys.add(cube.key())
        freq, bit = self._freq, self._bit
        for sh in cube.shapes():
            freq[sh] = freq.get(sh, 0) + 1
            bit.setdefault(sh, 1 << len(bit))
        key = min(cube.shapes(), key=freq.__getitem__, default=None)
        filed = (self.mask(cube), len(cube.lits), len(cube.exists), cube)
        self._buckets.setdefault(key, []).append(filed)

    def holds(self, cube: Cube) -> bool:
        """`cube` itself (by `Cube.key`) was added to the region."""
        return cube.key() in self._keys

    def covers(self, cube: Cube) -> bool:
        """Some cube of the region subsumes `cube`."""
        buckets = self._buckets
        qmask, nlits, nvars = self.mask(cube), len(cube.lits), len(cube.exists)
        for key in itertools.chain((None,), cube.shapes()):
            for m, k, n, b in buckets.get(key, ()):
                if not m & ~qmask and k <= nlits and n <= nvars and subsumes(b, cube):
                    return True
        return False

    def implied(self, cube: Cube, sig: Signature) -> Cube:
        """`cube` with literals it implies: `t != d` beside each `t = c` that
        sets a cell to a constant, for each other constant `d` of the cell's
        sort in `sig`, and the copies of each relation literal with arguments
        swapped for terms of equal value, a constant and the cells the cube
        sets to it.  Only literals of a shape the region has numbered are
        added, as no region cube holds another; `cube` itself when none is."""
        bit, others = self._bit, self._others
        extra: list[Lit] = []
        same: dict = {}  # a constant, or a cell the cube sets to it -> those terms
        for l in cube.lits:
            cc = None if l.neg else const_cell(l)
            if cc is not None and l.atom.rhs is cc[1]:  # `t = c`, the cell first
                t, c = l.atom.lhs, cc[1]
                ts = same[t] = same.setdefault(c, [c])
                ts.append(t)
                diseqs = others.get(l)
                if diseqs is None:
                    sort = sig.globals[t.name] if type(t) is GlobalRef else sig.arrays[t.array][1]
                    diseqs = others[l] = tuple(
                        lit_eq(t, Const(d), neg=True) for d in sig.sorts[sort].constants if d != c.name)
                extra += [d for d in diseqs if _lit_shape(d) in bit]
        for l in cube.lits:
            a = l.atom
            if type(a) is RelAtom and any(x in same for x in a.args):
                for args in itertools.product(*(same.get(x, (x,)) for x in a.args)):
                    copy = others.setdefault((l, args), Lit(l.neg, RelAtom(a.rel, args)))
                    if copy is not l and _lit_shape(copy) in bit:
                        extra.append(copy)
        return Cube(cube.exists, tuple(dict.fromkeys((*cube.lits, *extra)))) if extra else cube


def entailed_by(cube: Cube, region: Region, sig: Signature) -> bool:
    """cube |= \\/ region, decided by subsumption: some region cube embeds
    into the cube together with the literals the cube implies
    (`Region.implied`, by the sorts of `sig`).

    True is sound: every model of the cube satisfies the implied literals,
    and the cube's variables are distinct indexes.  The answer is that of a
    search for an injective instance of a region cube over the cube's
    variables whose every literal holds on the cube read through its
    constants (`GroundReading`), as long as the cube is satisfiable and
    every equality of the cube and the region sets a cell to a constant,
    the cell first, as in every cube `breach` builds; elsewhere it may be
    False more often.  False keeps the cube; it is wrong where only a case
    split proves entailment (a term the cube leaves open, each of whose
    values some region cube covers)."""
    return region.covers(region.implied(cube, sig))


# ---------------------------------------------------------------------------
# initial-state intersection


def init_sat(abp: AbPmas, cube: Cube) -> bool:
    """Some initial state satisfies the cube: its literals read through the
    initial state are ground and jointly satisfiable (`ground_lits_sat`).

    The initial state fixes cells to constants (`AbInit.cell_values`).  While
    every literal sets such a cell to a constant or is a relation literal
    over such cells, constants and index variables, the cube is decided from
    those values directly: each equality reads as one of two constants, so
    it holds or not, and the relation literals contradict each other only
    when two read as the same atom with opposite signs.  Any other cube is
    read through the initial state by `ground_lits_sat`."""
    values = abp.init.cell_values()
    signs: dict[tuple, bool] = {}
    for l in cube.lits:
        a = l.atom
        if type(a) is Eq:
            cc = const_cell(l)
            if cc is None or cc[0] not in values:
                break
            if (values[cc[0]] == cc[1]) == l.neg:
                return False
        else:
            args = tuple(
                values.get(t.array if isinstance(t, ArrayRead) else t)
                if isinstance(t, (GlobalRef, ArrayRead)) else t
                for t in a.args
            )
            if None in args:
                break
            if signs.setdefault((a.rel, args), l.neg) != l.neg:
                return False
    else:
        return True
    globals_map, arrays_map = abp.init.update_maps()
    return ground_lits_sat([_lit_through(l, globals_map, arrays_map) for l in cube.lits])


# ---------------------------------------------------------------------------
# backward reachability


@dataclass
class _Node:
    """A frontier cube with the rule and the cube it was reached from."""

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
    """One rule of a forward trace, with the model action it comes from."""

    rule_label: str
    kind: str
    template: Optional[str]
    action: Optional[str]


@dataclass
class Verdict:
    """The outcome of a backward search: status, depth, trace and layers."""

    status: str  # SAFE | UNSAFE | UNKNOWN
    depth: int
    trace: list[TraceStep] = field(default_factory=list)
    run_template: list[frozenset[str]] = field(default_factory=list)
    reason: str = ""
    layers: list[Frontier] = field(default_factory=list)
    total_cubes: int = 0


def breach(
    abp: AbPmas,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_cubes: int = DEFAULT_MAX_CUBES,
    dnf_cap: int = DEFAULT_DNF_CAP,
) -> Verdict:
    """Backward reachability from the goal; SAFE / UNSAFE / UNKNOWN.

    Each depth checks the frontier against the initial states (`init_sat`),
    drops each frontier cube the layer kept so far covers or the visited
    region entails (`entailed_by`, by subsumption), and takes the
    preimage of every kept cube under every rule (`preimage`).  A (rule,
    cube) pair whose cube has a constant literal the rule rules out is
    skipped; which rules those are is looked up per literal in a table the
    run fills once per literal (`_ClashTable`), not tested pair by pair.
    The region, the clash table and the canonical literals live in the run
    and go with it.

    `max_cubes` bounds the cubes of all layers so far, the goal's included:
    a layer that passes it ends the run UNKNOWN before it is checked."""
    region = Region()
    clashes = _ClashTable(abp.rules)
    frontier: list[_Node] = []
    seen_layer = set()
    for c in abp.goal.cubes:
        cc = canon_cube(c, region.canon_lits)
        if cc.key() not in seen_layer:
            seen_layer.add(cc.key())
            frontier.append(_Node(cc, None, None, 0))

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
        if total > max_cubes:
            return Verdict(UNKNOWN, depth=depth, layers=layers, total_cubes=total,
                           reason="cube budget exhausted")
        layers.append(Frontier(depth, [n.cube for n in frontier]))
        for n in frontier:
            if init_sat(abp, n.cube):
                return verdict_unsafe(n)

        new_nodes: list[_Node] = []
        # `preimage` dropped the cubes `region` covers, and it has not grown since
        kept = Region()
        for n in frontier:
            if kept.covers(n.cube) or entailed_by(n.cube, region, abp.sig):
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
        skips = [clashes.ruled_out(n.cube) for n in new_nodes]
        try:
            for k, rule in enumerate(abp.rules):
                for n, skip in zip(new_nodes, skips):
                    if skip >> k & 1:
                        continue
                    for c in preimage(rule, n.cube, region, dnf_cap):
                        if c.key() not in nxt:
                            nxt[c.key()] = _Node(c, rule, n, depth)
        except BudgetError as be:
            return Verdict(UNKNOWN, depth=depth, layers=layers, total_cubes=total,
                           reason=str(be))
        total += len(nxt)
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
            if st.kind == "bulk_local" and st.action not in (None, NOP) and st.action not in current:
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
    """Which literals of the goal and the guards leave the local fragment."""

    semantics: str
    goal_local: bool
    protocols_local: bool
    nonlocal_literals: list[str]
    guaranteed_termination: bool
    spurious_unsafe_possible: bool


def _lit_local(l: Lit) -> bool:
    return len(l.index_vars()) <= 1


def check_locality(abp: AbPmas) -> LocalityReport:
    """Syntactic locality: every literal touches at most one index variable.

    Local goal + local rule guards under interleaved semantics guarantee that
    the backward search terminates; concurrent semantics additionally makes an
    UNSAFE verdict potentially spurious (gates are over-approximated).
    """
    bad: list[str] = []
    goal_local = True
    for c in abp.goal.cubes:
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
