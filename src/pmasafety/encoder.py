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
from dataclasses import dataclass
from typing import Optional

from .logic import (
    ArrayRead,
    Const,
    Cube,
    ELEMENT,
    Eq,
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
    euf_sat_cube,
    fand,
    flit,
    fnot,
    f_or,
    lit_eq,
    lit_subst,
    make_cube,
    memoized,
    simplify_lits,
    set_partitions,
)
from .model import (
    ActionDecl,
    AgentFormula,
    AgentTemplate,
    BoolConst,
    Conj,
    ConstRef,
    Disj,
    IdxEq,
    INDIVIDUAL,
    ModelError,
    Neg,
    Pmas,
    RelTest,
    SELF,
    SYNC,
    VarTest,
    infer_formula_var_templates,
)

INTERLEAVED = "interleaved"
CONCURRENT = "concurrent"

NOP = "nop"
PHASE_VAR = "phase"
ENV_ACT = "env_act"
TURN_VAR = "turn"

P0, PL, PS, PL2, PS2 = "P0", "PL", "PS", "PL2", "PS2"
TURN_CONSTS = ("turn0", "turn1")

ACTION_SORT = "Act"
PHASE_SORT = "Phase"
TURN_SORT = "Turn"


def index_sort(t: AgentTemplate) -> str:
    return f"{t.name}_id"


def act_array(t: AgentTemplate) -> str:
    return f"act_{t.name}"


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


@dataclass(frozen=True)
class AbInit:
    globals_: tuple[tuple[str, str], ...]  # global -> constant
    arrays: tuple[tuple[str, str], ...]  # array -> constant (lambda j . c)


@dataclass(frozen=True)
class AbPmas:
    pmas: Pmas
    semantics: str
    sig: Signature
    init: AbInit
    rules: tuple[TransitionRule, ...]


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
    phases = (P0, PL, PS) if semantics == INTERLEAVED else (P0, PL, PS, PL2, PS2)
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

    def ivar(idx: str, owner: AgentTemplate) -> IndexVar:
        if idx == SELF:
            if self_var is None:
                raise EncodingError("self not allowed in this formula")
            return self_var
        if idx not in varmap:
            varmap[idx] = IndexVar(f"{prefix}{idx}", index_sort(assign[idx]))
            order.append(varmap[idx])
        return varmap[idx]

    def term_of(var: str, idx: str):
        owner = p.owner_of_var(var)
        if owner.is_env:
            return GlobalRef(var)
        return ArrayRead(var, ivar(idx, owner))

    def go(g: AgentFormula) -> Formula:
        if isinstance(g, BoolConst):
            return TRUE if g.value else fnot(TRUE)
        if isinstance(g, VarTest):
            return flit(lit_eq(term_of(g.var, g.idx), Const(g.value)))
        if isinstance(g, RelTest):
            args = tuple(
                Const(a.name) if isinstance(a, ConstRef) else term_of(a.var, a.idx)
                for a in g.args
            )
            return flit(Lit(False, RelAtom(g.rel, args)))
        if isinstance(g, IdxEq):
            def side(s: str) -> IndexVar:
                if s == SELF:
                    if self_var is None:
                        raise EncodingError("self not allowed in this formula")
                    return self_var
                return ivar(s, assign[s])
            return flit(lit_eq(side(g.lhs), side(g.rhs)))
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
    """Translate a (disjunction-free) precondition to literals; None = false."""
    f, extra = translate_agent_formula(
        p, a.pre, self_var, None if t.is_env else t, prefix=prefix
    )
    cubes = dnf(f)
    if not cubes:
        return None
    if len(cubes) != 1:
        raise EncodingError(f"precondition of {t.name}.{a.name} is not a cube")
    return cubes[0], extra


# ---------------------------------------------------------------------------
# state-formula construction (differentiation)


def differentiate(
    lits: tuple[Lit, ...], sig: Signature, distinct: Optional[set[IndexVar]] = None
) -> list[Cube]:
    """Split a raw literal conjunction over equality partitions of its index
    variables, honouring explicit index (dis)equalities, and keep the
    EUF-satisfiable branches as differentiated cubes.

    Variables in `distinct` are already differentiated (they come from an
    existing cube) and are never merged with each other."""
    pos: list[tuple[IndexVar, IndexVar]] = []
    neg: list[tuple[IndexVar, IndexVar]] = []
    rest: list[Lit] = []
    for l in lits:
        a = l.atom
        if isinstance(a, Eq) and isinstance(a.lhs, IndexVar) and isinstance(a.rhs, IndexVar):
            (neg if l.neg else pos).append((a.lhs, a.rhs))
        else:
            rest.append(l)
    vars_ = sorted(cube_vars_of_lits(lits))
    by_sort: dict[str, list[IndexVar]] = {}
    for v in vars_:
        by_sort.setdefault(v.sort, []).append(v)
    for a, b in pos + neg:
        if a.sort != b.sort:
            raise EncodingError(f"index equality across sorts: {a!r} = {b!r}")

    out: list[Cube] = []
    per_sort_parts = [list(set_partitions(vs)) for vs in by_sort.values()]
    for combo in itertools.product(*per_sort_parts) if per_sort_parts else [()]:
        cls_of: dict[IndexVar, IndexVar] = {}
        ok = True
        for part in combo:
            for cls in part:
                if distinct is not None and sum(1 for v in cls if v in distinct) > 1:
                    ok = False
                    break
                rep = min(cls)
                for v in cls:
                    cls_of[v] = rep
            if not ok:
                break
        if not ok:
            continue
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
        sub = dict(cls_of)
        simplified = simplify_lits(lit_subst(l, sub) for l in rest)
        if simplified is None:
            continue
        cube = make_cube(sorted(set(sub.values())), simplified)
        if euf_sat_cube(cube, sig):
            out.append(cube)
    # deterministic order, dedup
    seen = set()
    uniq = []
    for c in out:
        if c.key() in seen:
            continue
        seen.add(c.key())
        uniq.append(c)
    return uniq


def encode_goal(p: Pmas, sig: Signature) -> StateFormula:
    f, _extra = translate_agent_formula(p, p.goal, None, None)
    cubes: list[Cube] = []
    seen = set()
    for lits in dnf(f):
        for c in differentiate(lits, sig):
            if c.key() not in seen:
                seen.add(c.key())
                cubes.append(c)
    return StateFormula(tuple(cubes))


# ---------------------------------------------------------------------------
# rule construction


def _point_update(arr: str, sort: str, at: IndexVar, value: Const) -> LambdaUpdate:
    j = IndexVar("$u", sort)
    return LambdaUpdate(
        j, CaseTerm(((flit(lit_eq(j, at)), value), (TRUE, ArrayRead(arr, j))))
    )


def _bulk_reset(arr: str, sort: str, value: Const) -> LambdaUpdate:
    return LambdaUpdate(IndexVar("$u", sort), value)


def _bulk_commit(
    t: AgentTemplate, var: str, actions: list[ActionDecl]
) -> Optional[LambdaUpdate]:
    """Case update applying each action's effect on `var` to its declarers."""
    j = IndexVar("$u", index_sort(t))
    branches = []
    for a in actions:
        assigned = dict(a.eff).get(var)
        if assigned is not None:
            branches.append(
                (flit(lit_eq(ArrayRead(act_array(t), j), Const(a.name))), Const(assigned))
            )
    if not branches:
        return None
    branches.append((TRUE, ArrayRead(var, j)))
    return LambdaUpdate(j, CaseTerm(tuple(branches)))


class _RuleBuilder:
    def __init__(self, p: Pmas, semantics: str):
        self.p = p
        self.semantics = semantics
        self.sig = build_signature(p, semantics)
        self.rules: list[TransitionRule] = []

    # -- helpers -----------------------------------------------------------

    def phase_lit(self, c: str, neg: bool = False) -> Lit:
        return lit_eq(GlobalRef(PHASE_VAR), Const(c), neg)

    def envact_lit(self, c: str, neg: bool = False) -> Lit:
        return lit_eq(GlobalRef(ENV_ACT), Const(c), neg)

    def turn_lit(self, group: int) -> Lit:
        return lit_eq(GlobalRef(TURN_VAR), Const(TURN_CONSTS[group]))

    def turn_guard(self, group: Optional[int]) -> list[Lit]:
        if self.p.alternation is None or group is None:
            return []
        return [self.turn_lit(group)]

    def turn_toggle(self, group: int) -> tuple[list[Lit], list[tuple[str, Const]]]:
        """Guard literal + update for a committing rule in `group`'s turn."""
        if self.p.alternation is None:
            return [], []
        return [self.turn_lit(group)], [(TURN_VAR, Const(TURN_CONSTS[1 - group]))]

    def pre_of(
        self, t: AgentTemplate, a: ActionDecl, self_var: Optional[IndexVar], prefix: str = "$p_"
    ):
        return precondition_cube(self.p, t, a, self_var, prefix=prefix)

    def blocked_pre(
        self, t: AgentTemplate, a: ActionDecl, var: Optional[IndexVar]
    ) -> Optional[BlockedPre]:
        """Precondition (with turn conjunct) as a gate blocker; None = pre false."""
        pc = self.pre_of(t, a, var)
        if pc is None:
            return None
        lits, extra = pc
        lits = tuple(lits) + tuple(self.turn_guard(self.p.turn_group(t.name)))
        return BlockedPre(extra, lits)

    def add(self, rule: TransitionRule) -> None:
        self.rules.append(rule)

    # -- step generators ---------------------------------------------------

    def declare_local(self, phases: tuple[str, ...]) -> None:
        """Eq-1 style: one agent (or the environment) declares a local action."""
        for t in self.p.all_templates():
            group = self.p.turn_group(t.name)
            for a in t.local_actions():
                if t.is_env:
                    pc = self.pre_of(t, a, None)
                    if pc is None:
                        continue
                    lits, extra = pc
                    for ph in phases:
                        self.add(
                            TransitionRule(
                                label=f"declare:{t.name}.{a.name}@{ph}",
                                kind="declare",
                                template=t.name,
                                action=a.name,
                                exists=extra,
                                guard=tuple(
                                    [self.phase_lit(ph), self.envact_lit(NOP)]
                                    + self.turn_guard(group)
                                    + list(lits)
                                ),
                                globals_upd=(
                                    (ENV_ACT, Const(a.name)),
                                    (PHASE_VAR, Const(PL)),
                                ),
                            )
                        )
                else:
                    x = IndexVar("$self", index_sort(t))
                    pc = self.pre_of(t, a, x)
                    if pc is None:
                        continue
                    lits, extra = pc
                    for ph in phases:
                        self.add(
                            TransitionRule(
                                label=f"declare:{t.name}.{a.name}@{ph}",
                                kind="declare",
                                template=t.name,
                                action=a.name,
                                exists=(x,) + extra,
                                guard=tuple(
                                    [
                                        self.phase_lit(ph),
                                        lit_eq(ArrayRead(act_array(t), x), Const(NOP)),
                                    ]
                                    + self.turn_guard(group)
                                    + list(lits)
                                ),
                                globals_upd=((PHASE_VAR, Const(PL)),),
                                arrays_upd=(
                                    (
                                        act_array(t),
                                        _point_update(
                                            act_array(t), index_sort(t), x, Const(a.name)
                                        ),
                                    ),
                                ),
                            )
                        )

    def bulk_local(self, from_phase: str) -> None:
        """Eq-2 style: commit every declared local action at once."""
        env_choices: list[Optional[ActionDecl]] = [None] + list(self.p.env.local_actions())
        for env_a in env_choices:
            arrays: list[tuple[str, LambdaUpdate]] = []
            for t in self.p.templates:
                locs = list(t.local_actions())
                for v, _s, _i in t.variables:
                    upd = _bulk_commit(t, v, locs)
                    if upd is not None:
                        arrays.append((v, upd))
                arrays.append(
                    (act_array(t), _bulk_reset(act_array(t), index_sort(t), Const(NOP)))
                )
            base_globals: list[tuple[str, Const]] = [
                (PHASE_VAR, Const(P0)),
                (ENV_ACT, Const(NOP)),
            ]
            if env_a is not None:
                base_globals += [(v, Const(c)) for v, c in env_a.eff]
            env_name = env_a.name if env_a is not None else NOP
            if self.p.alternation is None:
                self.add(
                    TransitionRule(
                        label=f"bulk_local:{env_name}@{from_phase}",
                        kind="bulk_local",
                        action=env_name,
                        exists=(),
                        guard=(self.phase_lit(from_phase), self.envact_lit(env_name)),
                        globals_upd=tuple(base_globals),
                        arrays_upd=tuple(arrays),
                    )
                )
            else:
                groups = (
                    [g for g in (0, 1) if g == self.p.turn_group(self.p.env.name)]
                    if env_a is not None
                    else [0, 1]
                )
                for g in groups:
                    tg, tu = self.turn_toggle(g)
                    self.add(
                        TransitionRule(
                            label=f"bulk_local:{env_name}@{from_phase}:{TURN_CONSTS[g]}",
                            kind="bulk_local",
                            action=env_name,
                            exists=(),
                            guard=tuple(
                                [self.phase_lit(from_phase), self.envact_lit(env_name)] + tg
                            ),
                            globals_upd=tuple(base_globals + tu),
                            arrays_upd=tuple(arrays),
                        )
                    )

    def sync_actions(self) -> list[ActionDecl]:
        return [a for a in self.p.env.actions if a.kind == SYNC]

    def sync_start(self) -> None:
        """Eq-3 style: the environment and one agent open a synchronization."""
        for ea in self.sync_actions():
            # a distinct prefix keeps environment-side index variables apart
            # from same-named agent-side ones in the fused guard
            env_pc = self.pre_of(self.p.env, ea, None, prefix="$q_")
            if env_pc is None:
                continue
            env_lits, env_extra = env_pc
            group = self.p.sync_initiator_group(ea.name)
            for t in self.p.sync_participants(ea.name):
                a = t.action(ea.name)
                assert a is not None
                x = IndexVar("$self", index_sort(t))
                pc = self.pre_of(t, a, x)
                if pc is None:
                    continue
                lits, extra = pc
                self.add(
                    TransitionRule(
                        label=f"sync_start:{t.name}.{ea.name}",
                        kind="sync_start",
                        template=t.name,
                        action=ea.name,
                        exists=(x,) + extra + env_extra,
                        guard=tuple(
                            [
                                self.phase_lit(P0),
                                self.envact_lit(NOP),
                                lit_eq(ArrayRead(act_array(t), x), Const(NOP)),
                            ]
                            + self.turn_guard(group)
                            + list(lits)
                            + list(env_lits)
                        ),
                        globals_upd=(
                            (ENV_ACT, Const(ea.name)),
                            (PHASE_VAR, Const(PS)),
                        ),
                        arrays_upd=(
                            (
                                act_array(t),
                                _point_update(act_array(t), index_sort(t), x, Const(ea.name)),
                            ),
                        ),
                    )
                )

    def sync_join(self) -> None:
        """Eq-4 style: further agents join the open synchronization."""
        for ea in self.sync_actions():
            for t in self.p.sync_participants(ea.name):
                a = t.action(ea.name)
                assert a is not None
                x = IndexVar("$self", index_sort(t))
                pc = self.pre_of(t, a, x)
                if pc is None:
                    continue
                lits, extra = pc
                self.add(
                    TransitionRule(
                        label=f"sync_join:{t.name}.{ea.name}",
                        kind="sync_join",
                        template=t.name,
                        action=ea.name,
                        exists=(x,) + extra,
                        guard=tuple(
                            [
                                self.phase_lit(PS),
                                self.envact_lit(ea.name),
                                lit_eq(ArrayRead(act_array(t), x), Const(NOP)),
                            ]
                            + list(lits)
                        ),
                        arrays_upd=(
                            (
                                act_array(t),
                                _point_update(act_array(t), index_sort(t), x, Const(ea.name)),
                            ),
                        ),
                    )
                )

    def sync_commit(self, from_phase: str) -> None:
        """Eq-5 style: apply the synchronization to all participants at once."""
        for ea in self.sync_actions():
            arrays: list[tuple[str, LambdaUpdate]] = []
            for t in self.p.sync_participants(ea.name):
                a = t.action(ea.name)
                assert a is not None
                for v, _s, _i in t.variables:
                    upd = _bulk_commit(t, v, [a])
                    if upd is not None:
                        arrays.append((v, upd))
                arrays.append(
                    (act_array(t), _bulk_reset(act_array(t), index_sort(t), Const(NOP)))
                )
            globals_: list[tuple[str, Const]] = [
                (PHASE_VAR, Const(P0)),
                (ENV_ACT, Const(NOP)),
            ] + [(v, Const(c)) for v, c in ea.eff]
            tg, tu = (
                self.turn_toggle(self.p.sync_initiator_group(ea.name) or 0)
                if self.p.alternation is not None
                else ([], [])
            )
            self.add(
                TransitionRule(
                    label=f"sync_commit:{ea.name}@{from_phase}",
                    kind="sync_commit",
                    action=ea.name,
                    exists=(),
                    guard=tuple([self.phase_lit(from_phase), self.envact_lit(ea.name)] + tg),
                    globals_upd=tuple(globals_ + tu),
                    arrays_upd=tuple(arrays),
                )
            )

    def individual_syncs(self) -> None:
        """Fused rule: environment plus exactly one agent, committed in place."""
        for ea in self.p.env.actions:
            if ea.kind != INDIVIDUAL:
                continue
            env_pc = self.pre_of(self.p.env, ea, None, prefix="$q_")
            if env_pc is None:
                continue
            env_lits, env_extra = env_pc
            group = self.p.sync_initiator_group(ea.name)
            for t in self.p.templates:
                a = t.action(ea.name)
                if a is None or a.kind != INDIVIDUAL:
                    continue
                x = IndexVar("$self", index_sort(t))
                pc = self.pre_of(t, a, x)
                if pc is None:
                    continue
                lits, extra = pc
                arrays = [
                    (v, _point_update(v, index_sort(t), x, Const(c))) for v, c in a.eff
                ]
                tg, tu = (
                    self.turn_toggle(group or 0)
                    if self.p.alternation is not None
                    else ([], [])
                )
                self.add(
                    TransitionRule(
                        label=f"ind_sync:{t.name}.{ea.name}",
                        kind="ind_sync",
                        template=t.name,
                        action=ea.name,
                        exists=(x,) + extra + env_extra,
                        guard=tuple(
                            [self.phase_lit(P0), self.envact_lit(NOP)]
                            + tg
                            + list(lits)
                            + list(env_lits)
                        ),
                        globals_upd=tuple([(v, Const(c)) for v, c in ea.eff] + tu),
                        arrays_upd=tuple(arrays),
                    )
                )

    def gate_local(self) -> None:
        """Concurrent Eq-7: everyone able to act locally has declared."""
        gates: list[Gate] = []
        for t in self.p.templates:
            if not t.local_actions():
                continue
            var = IndexVar("$g", index_sort(t))
            blocked = []
            for a in t.local_actions():
                bp = self.blocked_pre(t, a, var)
                if bp is not None:
                    blocked.append(bp)
            gates.append(
                Gate(
                    var=var,
                    declared=lit_eq(ArrayRead(act_array(t), var), Const(NOP), neg=True),
                    blocked=tuple(blocked),
                )
            )
        if self.p.env.local_actions():
            blocked = []
            for a in self.p.env.local_actions():
                bp = self.blocked_pre(self.p.env, a, None)
                if bp is not None:
                    blocked.append(bp)
            gates.append(
                Gate(
                    var=None,
                    declared=self.envact_lit(NOP, neg=True),
                    blocked=tuple(blocked),
                )
            )
        self.add(
            TransitionRule(
                label="gate_local",
                kind="gate_local",
                exists=(),
                guard=(self.phase_lit(PL),),
                globals_upd=((PHASE_VAR, Const(PL2)),),
                gates=tuple(gates),
            )
        )

    def gate_sync(self) -> None:
        """Concurrent Eq-11: everyone able to join the open sync has joined."""
        for ea in self.sync_actions():
            gates = []
            for t in self.p.sync_participants(ea.name):
                a = t.action(ea.name)
                assert a is not None
                var = IndexVar("$g", index_sort(t))
                bp = self.blocked_pre(t, a, var)
                blocked = (bp,) if bp is not None else ()
                gates.append(
                    Gate(
                        var=var,
                        declared=lit_eq(ArrayRead(act_array(t), var), Const(NOP), neg=True),
                        blocked=blocked,
                    )
                )
            self.add(
                TransitionRule(
                    label=f"gate_sync:{ea.name}",
                    kind="gate_sync",
                    exists=(),
                    guard=(self.phase_lit(PS), self.envact_lit(ea.name)),
                    globals_upd=((PHASE_VAR, Const(PS2)),),
                    gates=tuple(gates),
                )
            )


def encode_interleaved(p: Pmas) -> AbPmas:
    b = _RuleBuilder(p, INTERLEAVED)
    b.declare_local((P0, PL))
    b.bulk_local(PL)
    b.sync_start()
    b.sync_join()
    b.sync_commit(PS)
    b.individual_syncs()
    return AbPmas(p, INTERLEAVED, b.sig, build_init(p), tuple(b.rules))


def encode_concurrent(p: Pmas) -> AbPmas:
    b = _RuleBuilder(p, CONCURRENT)
    b.declare_local((P0, PL))
    b.gate_local()
    b.bulk_local(PL2)
    b.sync_start()
    b.sync_join()
    b.gate_sync()
    b.sync_commit(PS2)
    b.individual_syncs()
    return AbPmas(p, CONCURRENT, b.sig, build_init(p), tuple(b.rules))


def encode(p: Pmas, semantics: str) -> AbPmas:
    if semantics == INTERLEAVED:
        return encode_interleaved(p)
    if semantics == CONCURRENT:
        return encode_concurrent(p)
    raise EncodingError(f"unknown semantics {semantics!r}")
