"""Array-based transition-system encodings of a multi-agent model.

Agents of one template become an index sort with one array per template
variable plus an action array; the environment's variables become global
variables.  A `phase` global sequences each global step of the original
system into a declare / commit (local) or start / join / commit (sync)
sub-protocol; under concurrent semantics two extra phases carry the
universally quantified "everyone who can act has declared" gates.  Turn
alternation, when declared, guards declare/start rules and is toggled by
every committing rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .logic import (
    ArrayRead,
    BudgetError,
    Const,
    Cube,
    DEFAULT_DNF_CAP,
    ELEMENT,
    Eq,
    FALSE,
    Formula,
    GlobalRef,
    INDEX,
    ACTION,
    PHASE,
    IndexVar,
    LambdaUpdate,
    CaseTerm,
    Lit,
    RelAtom,
    Signature,
    SortDecl,
    StateFormula,
    TRUE,
    const_cell,
    cube_vars_of_lits,
    dnf,
    fand,
    fnot,
    f_or,
    ground_lits_sat,
    lit_eq,
    lit_subst,
    make_cube,
    memoized,
    partition_count,
    simplify_lits,
    set_partitions,
)
from .model import (
    ACTION_SORT,
    ENV_ACT,
    INDIVIDUAL,
    NOP,
    P0,
    PHASE_SORT,
    PHASE_VAR,
    PHASES,
    PL,
    PL2,
    PS,
    PS2,
    SELF,
    SYNC,
    TURN_CONSTS,
    TURN_SORT,
    TURN_VAR,
    ActionDecl,
    AgentFormula,
    AgentTemplate,
    BoolConst,
    Conj,
    ConstRef,
    Disj,
    IdxEq,
    ModelError,
    Neg,
    Pmas,
    RelTest,
    VarTest,
    act_array,
    index_sort,
    infer_formula_var_templates,
    validate_pmas,
)

INTERLEAVED = "interleaved"
CONCURRENT = "concurrent"


@dataclass(frozen=True)
class BlockedPre:
    """One action precondition that must be false for the gate to pass."""

    extra_vars: tuple[IndexVar, ...]
    lits: tuple[Lit, ...]


@dataclass(frozen=True)
class Gate:
    """Universal participation condition of a concurrent-semantics gate rule.

    With `var` set:  forall var . declared  \\/  (every blocked pre false).
    With `var` None the condition is about the environment's globals.
    """

    var: Optional[IndexVar]
    declared: Lit
    blocked: tuple[BlockedPre, ...]


@dataclass(frozen=True)
class TransitionRule:
    """One guarded transition of the encoded system, with its updates, gates
    and the model action it comes from."""

    label: str
    kind: str  # declare | bulk_local | sync_start | sync_join | sync_commit
    #          # | ind_sync | gate_local | gate_sync
    exists: tuple[IndexVar, ...]
    guard: tuple[Lit, ...]
    globals_upd: tuple[tuple[str, Const], ...] = ()
    arrays_upd: tuple[tuple[str, LambdaUpdate], ...] = ()
    gates: tuple[Gate, ...] = ()
    # PMAS-level provenance for trace reporting
    template: Optional[str] = None
    action: Optional[str] = None

    def globals_map(self) -> dict[str, Const]:
        return dict(self.globals_upd)

    def arrays_map(self) -> dict[str, LambdaUpdate]:
        return dict(self.arrays_upd)

    @memoized
    def post_constants(self) -> tuple[dict, frozenset]:
        """What every successor the rule produces holds, in constants
        (memoized).  `fixed` maps a cell (as in `const_cell`) to its constant:
        a global the rule writes, an array it resets in bulk, or an unwritten
        global its guard pins.  `barred` holds the `(cell, c)` pairs of
        globals its guard requires to differ from `c`; they hold afterwards
        only where `fixed` says nothing of the cell."""
        fixed: dict = {}
        barred = set()
        for l in self.guard:
            cc = const_cell(l)
            if cc is not None and isinstance(cc[0], GlobalRef):
                if l.neg:
                    barred.add(cc)
                else:
                    fixed[cc[0]] = cc[1]
        for g, c in self.globals_upd:
            fixed[GlobalRef(g)] = c
        for a, u in self.arrays_upd:
            if isinstance(u.body, Const):
                fixed[a] = u.body
        return fixed, frozenset(barred)

    def rules_out(self, neg: bool, cell: Union[GlobalRef, str], c: Const) -> bool:
        """Every successor the rule produces contradicts a cube literal that
        sets `cell` to `c` (negated when `neg`; as in `Cube.const_lits`):
        the rule fixes the cell to a constant, and distinct constants are
        never equal, or it fixes nothing there and its guard bars `c`."""
        fixed, barred = self.post_constants()
        d = fixed.get(cell)
        if d is not None:
            return (d == c) == neg
        return not neg and (cell, c) in barred


@dataclass(frozen=True)
class AbInit:
    """The initial state: each global and each array cell set to a constant."""

    globals_: tuple[tuple[str, str], ...]  # global -> constant
    arrays: tuple[tuple[str, str], ...]  # array -> constant (lambda j . c)

    @memoized
    def update_maps(self) -> tuple[dict[str, Const], dict[str, LambdaUpdate]]:
        """The initial state as update maps like a rule's `globals_map` and
        `arrays_map` (memoized): each global to its constant, each array to
        `lambda j . c`.  The body is a constant, so `j`'s sort is never read."""
        j = IndexVar("$u", "")
        return (
            {g: Const(c) for g, c in self.globals_},
            {a: LambdaUpdate(j, Const(c)) for a, c in self.arrays},
        )

    @memoized
    def cell_values(self) -> dict[Union[GlobalRef, str], Const]:
        """Each cell, as in `const_cell`, to its initial constant (memoized)."""
        out: dict[Union[GlobalRef, str], Const] = {
            GlobalRef(g): Const(c) for g, c in self.globals_
        }
        out.update((a, Const(c)) for a, c in self.arrays)
        return out


@dataclass(frozen=True)
class AbPmas:
    """A model encoded as an array-based transition system under one semantics."""

    pmas: Pmas
    semantics: str
    sig: Signature
    init: AbInit
    rules: tuple[TransitionRule, ...]
    goal: StateFormula  # the unsafe states, from the model's goal formula


class EncodingError(ModelError):
    pass


# ---------------------------------------------------------------------------
# signature and initial state


def build_signature(p: Pmas, semantics: str) -> Signature:
    sorts = list(p.sorts)
    action_names: list[str] = [NOP]
    for t in p.all_templates():
        for a in t.actions:
            if a.name not in action_names:
                action_names.append(a.name)
    sorts.append(SortDecl(ACTION_SORT, ACTION, tuple(action_names)))
    phases = (P0, PL, PS) if semantics == INTERLEAVED else PHASES
    sorts.append(SortDecl(PHASE_SORT, PHASE, phases))
    if p.alternation is not None:
        sorts.append(SortDecl(TURN_SORT, ELEMENT, TURN_CONSTS))
    for t in p.templates:
        sorts.append(SortDecl(index_sort(t), INDEX))

    globals_: dict[str, str] = {}
    for v, s, _i in p.env.variables:
        globals_[v] = s
    globals_[PHASE_VAR] = PHASE_SORT
    globals_[ENV_ACT] = ACTION_SORT
    if p.alternation is not None:
        globals_[TURN_VAR] = TURN_SORT

    arrays: dict[str, tuple[str, str]] = {}
    for t in p.templates:
        for v, s, _i in t.variables:
            arrays[v] = (index_sort(t), s)
        arrays[act_array(t)] = (index_sort(t), ACTION_SORT)
    return Signature(sorts, p.relations, globals_, arrays)


def build_init(p: Pmas) -> AbInit:
    globals_ = [(v, init) for v, _s, init in p.env.variables]
    globals_.append((PHASE_VAR, P0))
    globals_.append((ENV_ACT, NOP))
    if p.alternation is not None:
        globals_.append((TURN_VAR, TURN_CONSTS[0]))
    arrays = []
    for t in p.templates:
        for v, _s, init in t.variables:
            arrays.append((v, init))
        arrays.append((act_array(t), NOP))
    return AbInit(tuple(globals_), tuple(arrays))


# ---------------------------------------------------------------------------
# formula translation


def translate_agent_formula(
    p: Pmas,
    f: AgentFormula,
    self_var: Optional[IndexVar],
    self_template: Optional[AgentTemplate],
    prefix: str = "$p_",
) -> tuple[Formula, tuple[IndexVar, ...]]:
    """Agent formula -> quantifier-free formula over arrays/globals.

    `self` maps to `self_var`; other free index variables become existential
    index variables (returned in first-use order), prefixed so they can never
    collide with engine-generated names.
    """
    assign = infer_formula_var_templates(p, f, self_template=self_template)
    varmap: dict[str, IndexVar] = {}
    order: list[IndexVar] = []

    def ivar(idx: str) -> IndexVar:
        if idx == SELF:  # inference rejects `self` where there is no `self_var`
            return self_var
        if idx not in varmap:
            varmap[idx] = IndexVar(f"{prefix}{idx}", index_sort(assign[idx]))
            order.append(varmap[idx])
        return varmap[idx]

    def term_of(var: str, idx: str):
        owner = p.owner_of_var(var)
        if owner.is_env:
            return GlobalRef(var)
        return ArrayRead(var, ivar(idx))

    def go(g: AgentFormula) -> Formula:
        if isinstance(g, BoolConst):
            return TRUE if g.value else FALSE
        if isinstance(g, VarTest):
            return lit_eq(term_of(g.var, g.idx), Const(g.value))
        if isinstance(g, RelTest):
            args = tuple(
                Const(a.name) if isinstance(a, ConstRef) else term_of(a.var, a.idx)
                for a in g.args
            )
            return Lit(False, RelAtom(g.rel, args))
        if isinstance(g, IdxEq):
            return lit_eq(ivar(g.lhs), ivar(g.rhs))
        if isinstance(g, Neg):
            return fnot(go(g.inner))
        if isinstance(g, Conj):
            return fand([go(i) for i in g.items])
        if isinstance(g, Disj):
            return f_or([go(i) for i in g.items])
        raise EncodingError(f"not a formula: {g!r}")

    return go(f), tuple(order)


def precondition_cube(
    p: Pmas,
    t: AgentTemplate,
    a: ActionDecl,
    self_var: Optional[IndexVar],
    prefix: str = "$p_",
) -> Optional[tuple[tuple[Lit, ...], tuple[IndexVar, ...]]]:
    """Translate a precondition to literals; None = false.  Validation rules
    out disjunctions in preconditions, so its DNF has at most one cube."""
    f, extra = translate_agent_formula(
        p, a.pre, self_var, None if t.is_env else t, prefix=prefix
    )
    cubes = dnf(f)
    return (cubes[0], extra) if cubes else None


# ---------------------------------------------------------------------------
# state-formula construction (differentiation)


def differentiate(
    lits: tuple[Lit, ...],
    distinct: Optional[set[IndexVar]] = None,
    covered: Optional[Callable[[Cube], bool]] = None,
) -> list[Cube]:
    """Split a raw literal conjunction over equality partitions of its index
    variables, honouring explicit index (dis)equalities, and keep the
    EUF-satisfiable branches as differentiated cubes.

    Variables in `distinct` are already differentiated (they come from an
    existing cube) and are never merged with each other: only the
    partitions that keep them apart are enumerated (`set_partitions`).  A
    branch that merges variables maps only the literals over a merged one
    (`lit_subst`: hash-consed, the image is most often a literal the search
    already holds, its facts computed); the rest stand as they are.  Each
    branch cube comes from `make_cube`, which records that it uses all its
    variables (`Cube.used_vars`).  A branch cube for which `covered` holds
    is dropped before its EUF check (`ground_lits_sat`).  The literals are
    trusted to be well-sorted: `encode` accepts only a valid model, and
    every literal the search derives comes from its rules and goal by
    renamings within sorts and case expansion into values of the same sort;
    a branch, too, renames within sorts.  Two branches may yield equal cubes: callers dedup.

    Raises BudgetError, before listing any, when there would be more than
    `DEFAULT_DNF_CAP` branches (`partition_count`).  The count is of all
    partitions: explicit index equalities, which discard branches only while
    they are listed, do not reduce it."""
    pos: list[tuple[IndexVar, IndexVar]] = []
    neg: list[tuple[IndexVar, IndexVar]] = []
    rest: list[Lit] = []
    for l in lits:
        a = l.atom
        if isinstance(a, Eq) and isinstance(a.lhs, IndexVar) and isinstance(a.rhs, IndexVar):
            (neg if l.neg else pos).append((a.lhs, a.rhs))
        else:
            rest.append(l)
    used = cube_vars_of_lits(rest)  # the classes of these are a branch's variables
    vars_ = sorted(used.union(*pos, *neg))
    by_sort: dict[str, list[IndexVar]] = {}
    for v in vars_:
        by_sort.setdefault(v.sort, []).append(v)

    out: list[Cube] = []
    apart = distinct or ()
    branches = math.prod(partition_count(vs, apart) for vs in by_sort.values())
    if branches > DEFAULT_DNF_CAP:
        raise BudgetError(
            f"differentiation would list {branches} partitions,"
            f" past the budget of {DEFAULT_DNF_CAP}"
        )
    per_sort_parts = [list(set_partitions(vs, apart)) for vs in by_sort.values()]
    for combo in itertools.product(*per_sort_parts) if per_sort_parts else [()]:
        cls_of: dict[IndexVar, IndexVar] = {}
        for part in combo:
            for cls in part:
                rep = min(cls)
                for v in cls:
                    cls_of[v] = rep
        ok = True
        for a, b in pos:
            if cls_of[a] != cls_of[b]:
                ok = False
                break
        if ok:
            for a, b in neg:
                if cls_of[a] == cls_of[b]:
                    ok = False
                    break
        if not ok:
            continue
        reps = set(cls_of.values())
        if len(reps) < len(cls_of):
            moved = {v for v, r in cls_of.items() if v is not r}
            simplified = simplify_lits(
                l if moved.isdisjoint(l.index_vars()) else lit_subst(l, cls_of) for l in rest
            )
        else:  # every class a singleton: the literals stand as they are
            simplified = simplify_lits(rest)
        if simplified is None:
            continue
        if len(simplified) < len(rest):  # a literal fell: its variables may have gone
            cube = make_cube(sorted(reps), simplified)
        else:
            cube = make_cube(sorted(reps), simplified, {cls_of[v] for v in used})
        if (covered is None or not covered(cube)) and ground_lits_sat(cube.lits):
            out.append(cube)
    return out


def encode_goal(p: Pmas) -> StateFormula:
    f, _extra = translate_agent_formula(p, p.goal, None, None)
    cubes: list[Cube] = []
    seen = set()
    for lits in dnf(f):
        for c in differentiate(lits):
            if c.key() not in seen:
                seen.add(c.key())
                cubes.append(c)
    return StateFormula(tuple(cubes))


# ---------------------------------------------------------------------------
# rule construction


def _point_update(arr: str, sort: str, at: IndexVar, value: Const) -> LambdaUpdate:
    j = IndexVar("$u", sort)
    return LambdaUpdate(
        j, CaseTerm(((lit_eq(j, at), value), (None, ArrayRead(arr, j))))
    )


def _commit_updates(
    t: AgentTemplate, actions: list[ActionDecl]
) -> list[tuple[str, LambdaUpdate]]:
    """Case updates applying each action's effects to the agents of `t` that
    declared it, then the reset of every agent's action to nop."""
    j = IndexVar("$u", index_sort(t))
    updates = []
    for v, _s, _i in t.variables:
        branches = [
            (lit_eq(ArrayRead(act_array(t), j), Const(a.name)), Const(c))
            for a in actions
            if (c := dict(a.eff).get(v)) is not None
        ]
        if branches:
            branches.append((None, ArrayRead(v, j)))
            updates.append((v, LambdaUpdate(j, CaseTerm(tuple(branches)))))
    updates.append((act_array(t), LambdaUpdate(j, Const(NOP))))
    return updates


def _idle(t: AgentTemplate, x: Optional[IndexVar], neg: bool = False) -> Lit:
    """Agent `x` of `t`, or the environment when `t` is it, has declared nothing."""
    if t.is_env:
        return lit_eq(GlobalRef(ENV_ACT), Const(NOP), neg)
    return lit_eq(ArrayRead(act_array(t), x), Const(NOP), neg)


def _declaring(
    parties: list[tuple[AgentTemplate, Optional[IndexVar]]], action: str, phase: Optional[str]
) -> dict:
    """`TransitionRule` updates by which every agent `x` of `t`, for each
    `(t, x)` of `parties`, or the environment (`x` None) declares `action`,
    moving on to `phase`."""
    globals_ = [(ENV_ACT, Const(action)) for t, _x in parties if t.is_env]
    if phase is not None:
        globals_.append((PHASE_VAR, Const(phase)))
    arrays = tuple(
        (act_array(t), _point_update(act_array(t), index_sort(t), x, Const(action)))
        for t, x in parties
        if not t.is_env
    )
    return dict(globals_upd=tuple(globals_), arrays_upd=arrays)


class _RuleBuilder:
    def __init__(self, p: Pmas):
        self.p = p
        self.rules: list[TransitionRule] = []

    # -- helpers -----------------------------------------------------------

    def phase_lit(self, c: str) -> Lit:
        return lit_eq(GlobalRef(PHASE_VAR), Const(c))

    def envact_lit(self, c: str) -> Lit:
        return lit_eq(GlobalRef(ENV_ACT), Const(c))

    def turn_guard(self, group: Optional[int]) -> list[Lit]:
        if self.p.alternation is None or group is None:
            return []
        return [lit_eq(GlobalRef(TURN_VAR), Const(TURN_CONSTS[group]))]

    def turn_toggle(self, group: Optional[int]) -> tuple[list[Lit], list[tuple[str, Const]]]:
        """Guard literal + update for a committing rule in `group`'s turn."""
        if self.p.alternation is None:
            return [], []
        return self.turn_guard(group), [(TURN_VAR, Const(TURN_CONSTS[1 - group]))]

    def sync_actions(self) -> list[ActionDecl]:
        return [a for a in self.p.env.actions if a.kind == SYNC]

    def participants(self, ea: ActionDecl) -> list[tuple[AgentTemplate, ActionDecl]]:
        """Each agent template declaring the environment's action `ea`, with
        its own declaration of it."""
        return [(t, t.action(ea.name)) for t in self.p.sync_participants(ea.name)]

    def env_actions(self, kind: str):
        """`(ea, lits, extra)` for each environment action of `kind` whose
        precondition is not false."""
        for ea in self.p.env.actions:
            if ea.kind == kind:
                # a distinct prefix keeps environment-side index variables apart
                # from same-named agent-side ones in the fused guard
                pc = precondition_cube(self.p, self.p.env, ea, None, prefix="$q_")
                if pc is not None:
                    yield (ea,) + pc

    def declarers(self, pairs, var: str = "$self"):
        """`(t, a, x, lits, extra)` for each `(t, a)` of `pairs` whose
        precondition, said of agent `x` of `t` (None for the environment), is
        not false."""
        for t, a in pairs:
            x = None if t.is_env else IndexVar(var, index_sort(t))
            pc = precondition_cube(self.p, t, a, x)
            if pc is not None:
                yield (t, a, x) + pc

    def gate(self, t: AgentTemplate, actions) -> Gate:
        """Every agent of `t` (or the environment) has declared, or can take
        none of `actions` in its turn."""
        var = None if t.is_env else IndexVar("$g", index_sort(t))
        turn = tuple(self.turn_guard(self.p.turn_group(t.name)))
        pairs = ((t, a) for a in actions)
        blocked = tuple(
            BlockedPre(extra, tuple(lits) + turn)
            for _t, _a, _x, lits, extra in self.declarers(pairs, "$g")
        )
        return Gate(var, _idle(t, var, neg=True), blocked)

    def commit(
        self, label: str, kind: str, from_phase: str, ea: Optional[ActionDecl],
        arrays: list[tuple[str, LambdaUpdate]], group: Optional[int],
    ) -> None:
        """Close the step the environment declared as `ea` (None: nop): apply
        its effects and the agents' `arrays`, and return to P0."""
        action = ea.name if ea is not None else NOP
        tg, tu = self.turn_toggle(group)
        self.rules.append(
            TransitionRule(
                label=label,
                kind=kind,
                action=action,
                exists=(),
                guard=tuple([self.phase_lit(from_phase), self.envact_lit(action)] + tg),
                globals_upd=tuple(
                    [(PHASE_VAR, Const(P0)), (ENV_ACT, Const(NOP))]
                    + [(v, Const(c)) for v, c in (ea.eff if ea is not None else ())]
                    + tu
                ),
                arrays_upd=tuple(arrays),
            )
        )

    def agent_rule(
        self, kind: str, t: AgentTemplate, action: str, exists: tuple[IndexVar, ...],
        guard: list[Lit], at: str = "", **updates,
    ) -> None:
        """Add the `kind` rule by which an agent of `t` (or the environment)
        takes part in `action`, labelled `<kind>:<template>.<action><at>`;
        `updates` are its `globals_upd` and `arrays_upd`."""
        self.rules.append(
            TransitionRule(
                label=f"{kind}:{t.name}.{action}{at}",
                kind=kind,
                template=t.name,
                action=action,
                exists=exists,
                guard=tuple(guard),
                **updates,
            )
        )

    # -- step generators ---------------------------------------------------

    def declare_local(self) -> None:
        """Eq-1 style: one agent (or the environment) declares a local action."""
        pairs = ((t, a) for t in self.p.all_templates() for a in t.local_actions())
        for t, a, x, lits, extra in self.declarers(pairs):
            turn = self.turn_guard(self.p.turn_group(t.name))
            for ph in (P0, PL):
                guard = [self.phase_lit(ph), _idle(t, x), *turn, *lits]
                self.agent_rule("declare", t, a.name, (() if x is None else (x,)) + extra,
                                guard, f"@{ph}", **_declaring([(t, x)], a.name, PL))

    def bulk_local(self, from_phase: str) -> None:
        """Eq-2 style: commit every declared local action at once."""
        arrays: list[tuple[str, LambdaUpdate]] = []
        for t in self.p.templates:
            arrays += _commit_updates(t, list(t.local_actions()))
        env_group = self.p.turn_group(self.p.env.name)
        for env_a in [None] + list(self.p.env.local_actions()):
            env_name = env_a.name if env_a is not None else NOP
            if self.p.alternation is None:
                groups: list[Optional[int]] = [None]
            else:
                groups = [g for g in (0, 1) if env_a is None or g == env_group]
            for g in groups:
                turn = "" if g is None else f":{TURN_CONSTS[g]}"
                label = f"bulk_local:{env_name}@{from_phase}{turn}"
                self.commit(label, "bulk_local", from_phase, env_a, arrays, g)

    def sync_start(self) -> None:
        """Eq-3 style: the environment and one agent open a synchronization."""
        for ea, env_lits, env_extra in self.env_actions(SYNC):
            group = self.p.initiator_groups()[ea.name]
            for t, _a, x, lits, extra in self.declarers(self.participants(ea)):
                guard = [self.phase_lit(P0), _idle(self.p.env, None), _idle(t, x),
                         *self.turn_guard(group), *lits, *env_lits]
                self.agent_rule("sync_start", t, ea.name, (x,) + extra + env_extra, guard,
                                **_declaring([(self.p.env, None), (t, x)], ea.name, PS))

    def sync_join(self) -> None:
        """Eq-4 style: further agents join the open synchronization."""
        for ea in self.sync_actions():
            for t, _a, x, lits, extra in self.declarers(self.participants(ea)):
                guard = [self.phase_lit(PS), self.envact_lit(ea.name), _idle(t, x), *lits]
                self.agent_rule("sync_join", t, ea.name, (x,) + extra, guard,
                                **_declaring([(t, x)], ea.name, None))

    def sync_commit(self, from_phase: str) -> None:
        """Eq-5 style: apply the synchronization to all participants at once."""
        for ea in self.sync_actions():
            arrays: list[tuple[str, LambdaUpdate]] = []
            for t, a in self.participants(ea):
                arrays += _commit_updates(t, [a])
            group = self.p.initiator_groups()[ea.name] or 0
            label = f"sync_commit:{ea.name}@{from_phase}"
            self.commit(label, "sync_commit", from_phase, ea, arrays, group)

    def individual_syncs(self) -> None:
        """Fused rule: environment plus exactly one agent, committed in place."""
        for ea, env_lits, env_extra in self.env_actions(INDIVIDUAL):
            tg, tu = self.turn_toggle(self.p.initiator_groups()[ea.name] or 0)
            pairs = ((t, a) for t, a in self.participants(ea) if a.kind == INDIVIDUAL)
            for t, a, x, lits, extra in self.declarers(pairs):
                guard = [self.phase_lit(P0), _idle(self.p.env, None), *tg, *lits, *env_lits]
                self.agent_rule(
                    "ind_sync", t, ea.name, (x,) + extra + env_extra, guard,
                    globals_upd=tuple([(v, Const(c)) for v, c in ea.eff] + tu),
                    arrays_upd=tuple(
                        (v, _point_update(v, index_sort(t), x, Const(c))) for v, c in a.eff
                    ),
                )

    def gate_local(self) -> None:
        """Concurrent Eq-7: everyone able to act locally has declared."""
        self.rules.append(
            TransitionRule(
                label="gate_local",
                kind="gate_local",
                exists=(),
                guard=(self.phase_lit(PL),),
                globals_upd=((PHASE_VAR, Const(PL2)),),
                gates=tuple(
                    self.gate(t, t.local_actions())
                    for t in self.p.all_templates()
                    if t.local_actions()
                ),
            )
        )

    def gate_sync(self) -> None:
        """Concurrent Eq-11: everyone able to join the open sync has joined."""
        for ea in self.sync_actions():
            self.rules.append(
                TransitionRule(
                    label=f"gate_sync:{ea.name}",
                    kind="gate_sync",
                    exists=(),
                    guard=(self.phase_lit(PS), self.envact_lit(ea.name)),
                    globals_upd=((PHASE_VAR, Const(PS2)),),
                    gates=tuple(self.gate(t, [a]) for t, a in self.participants(ea)),
                )
            )


def encode(p: Pmas, semantics: str) -> AbPmas:
    """The array-based system of `p` under `semantics`.  Raises ModelError
    with `validate_pmas`'s diagnostics when `p` is not valid: everything
    below trusts a valid model."""
    if semantics not in (INTERLEAVED, CONCURRENT):
        raise EncodingError(f"unknown semantics {semantics!r}")
    diags = validate_pmas(p)
    if diags:
        raise ModelError(diags)
    concurrent = semantics == CONCURRENT
    sig = build_signature(p, semantics)
    b = _RuleBuilder(p)
    b.declare_local()
    if concurrent:
        b.gate_local()
    b.bulk_local(PL2 if concurrent else PL)
    b.sync_start()
    b.sync_join()
    if concurrent:
        b.gate_sync()
    b.sync_commit(PS2 if concurrent else PS)
    b.individual_syncs()
    return AbPmas(p, semantics, sig, build_init(p), tuple(b.rules), encode_goal(p))
