"""Parameterised multi-agent system model and concrete-snapshot semantics.

A system is a set of agent templates plus one environment template (indexed by
the constant `e`) and a set of uninterpreted relations over the value sorts.
Protocols and goals are agent formulae: boolean combinations of variable tests
v[idx] = k, relation atoms, and index (dis)equalities, with free index
variables read existentially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Union

from .logic import SortDecl, RelDecl, memoized


class ModelError(Exception):
    """A malformed model; carries positioned diagnostics when available."""

    def __init__(self, diagnostics: "list[Diagnostic] | str"):
        if isinstance(diagnostics, str):
            diagnostics = [Diagnostic(0, 0, diagnostics)]
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


@dataclass(frozen=True)
class Diagnostic:
    """A message about a model, at a line and column (0 when unknown)."""

    line: int
    col: int
    message: str

    def __str__(self) -> str:
        if self.line:
            return f"{self.line}:{self.col}: {self.message}"
        return self.message


# ---------------------------------------------------------------------------
# agent formulae

SELF = "self"
ENV = "e"


@dataclass(frozen=True)
class VarTest:
    """v[idx] = k  --  idx is a variable name, SELF or ENV; k a constant."""

    var: str
    idx: str
    value: str


@dataclass(frozen=True)
class VarRef:
    """v[idx] used as a relation argument."""

    var: str
    idx: str


@dataclass(frozen=True)
class ConstRef:
    """A constant in an agent formula."""

    name: str


@dataclass(frozen=True)
class RelTest:
    """A relation atom in an agent formula."""

    rel: str
    args: tuple[Union[VarRef, ConstRef], ...]


@dataclass(frozen=True)
class IdxEq:
    """j1 = j2 over index variables (or SELF)."""

    lhs: str
    rhs: str


@dataclass(frozen=True)
class BoolConst:
    """`true` or `false` in an agent formula."""

    value: bool


@dataclass(frozen=True)
class Neg:
    """A negated agent formula."""

    inner: "AgentFormula"


@dataclass(frozen=True)
class Conj:
    """A conjunction of agent formulae."""

    items: tuple["AgentFormula", ...]


@dataclass(frozen=True)
class Disj:
    """A disjunction of agent formulae."""

    items: tuple["AgentFormula", ...]


AgentFormula = Union[VarTest, RelTest, IdxEq, BoolConst, Neg, Conj, Disj]


def formula_has_disjunction(f: AgentFormula) -> bool:
    """True when the formula contains `or`, or `not` over a non-atom."""
    if isinstance(f, Disj):
        return True
    if isinstance(f, Neg):
        return not isinstance(f.inner, (VarTest, RelTest, IdxEq, BoolConst))
    if isinstance(f, Conj):
        return any(formula_has_disjunction(i) for i in f.items)
    return False


# ---------------------------------------------------------------------------
# templates and systems

LOCAL = "local"
SYNC = "sync"
INDIVIDUAL = "individual"


@dataclass(frozen=True)
class ActionDecl:
    """An action of an agent template: its kind, precondition and effects."""

    name: str
    kind: str  # local | sync | individual
    pre: AgentFormula
    # effects are simultaneous constant assignments to own variables
    eff: tuple[tuple[str, str], ...] = ()
    initiator: bool = False


@dataclass(frozen=True)
class AgentTemplate:
    """An agent template: its variables and actions."""

    name: str
    is_env: bool
    # variable name -> (sort, initial constant), in declaration order
    variables: tuple[tuple[str, str, str], ...]
    actions: tuple[ActionDecl, ...]

    def var_sort(self, v: str) -> str:
        for name, sort, _init in self.variables:
            if name == v:
                return sort
        raise ModelError(f"template {self.name} has no variable {v}")

    def var_names(self) -> tuple[str, ...]:
        return tuple(name for name, _s, _i in self.variables)

    def action(self, name: str) -> Optional[ActionDecl]:
        for a in self.actions:
            if a.name == name:
                return a
        return None

    @memoized
    def local_actions(self) -> tuple[ActionDecl, ...]:
        return tuple(a for a in self.actions if a.kind == LOCAL)


@dataclass(frozen=True)
class Pmas:
    """A parameterised multi-agent system: sorts, relations, templates and goal."""

    name: str
    sorts: tuple[SortDecl, ...]  # value sorts (kind=element)
    relations: tuple[RelDecl, ...]
    templates: tuple[AgentTemplate, ...]  # agent templates, declaration order
    env: AgentTemplate
    goal: AgentFormula
    # turn alternation: two disjoint groups of template names, or None
    alternation: Optional[tuple[tuple[str, ...], tuple[str, ...]]] = None

    def template(self, name: str) -> AgentTemplate:
        if name == self.env.name:
            return self.env
        for t in self.templates:
            if t.name == name:
                return t
        raise ModelError(f"no template {name}")

    def all_templates(self) -> tuple[AgentTemplate, ...]:
        return self.templates + (self.env,)

    @memoized
    def var_table(self) -> dict[str, list[tuple[AgentTemplate, int]]]:
        """Each variable's (owner template, slot index) pairs (memoized)."""
        table: dict[str, list[tuple[AgentTemplate, int]]] = {}
        for t in self.all_templates():
            for k, v in enumerate(t.var_names()):
                table.setdefault(v, []).append((t, k))
        return table

    def var_slot(self, v: str) -> tuple[AgentTemplate, int]:
        """The template owning `v` and its position in that template's states."""
        owners = self.var_table().get(v, ())
        if len(owners) != 1:
            raise ModelError(f"variable {v} owned by {len(owners)} templates")
        return owners[0]

    def owner_of_var(self, v: str) -> AgentTemplate:
        return self.var_slot(v)[0]

    @memoized
    def self_and_env_templates(self) -> frozenset[str]:
        """The templates each of whose preconditions names no index but
        `self` and `e`, so that its truth depends only on their local states
        and the interpretation (memoized)."""
        return frozenset(
            t.name for t in self.all_templates()
            if all(i in (SELF, ENV) for a in t.actions for g in _walk(a.pre) for i in _indexes(g))
        )

    @memoized
    def goal_reads(self) -> tuple[tuple[int, ...], bool]:
        """The positions among `templates` of those whose variables the goal
        reads, and whether it reads the environment's: its truth in a
        snapshot depends only on these (memoized)."""
        owners = {
            t.name for g in _walk(self.goal) for x in _var_reads(g) for t, _k in self.var_table().get(x.var, ())
        }
        return tuple(k for k, t in enumerate(self.templates) if t.name in owners), self.env.name in owners

    @memoized
    def compiled_formulas(self) -> dict:
        """`eval_agent_formula`'s compiled formulas, keyed by formula identity
        and self template (memoized, so a replaced model starts empty)."""
        return {}

    def const_sort(self, c: str) -> Optional[str]:
        for s in self.sorts:
            if c in s.constants:
                return s.name
        return None

    def turn_group(self, template_name: str) -> Optional[int]:
        if self.alternation is None:
            return None
        g1, g2 = self.alternation
        if template_name in g1:
            return 0
        if template_name in g2:
            return 1
        return None

    @memoized
    def initiator_groups(self) -> dict[str, Optional[int]]:
        """Each action's turn group whose turn permits starting it, keyed by
        action name: that of the first template declaring it as initiator,
        else the environment's; None without alternation (memoized)."""
        groups: dict[str, Optional[int]] = {}
        for t in self.all_templates():
            for a in t.actions:
                if a.initiator:
                    groups.setdefault(a.name, self.turn_group(t.name))
        env_group = self.turn_group(self.env.name)
        return {
            a.name: groups.get(a.name, env_group) for t in self.all_templates() for a in t.actions
        }

    def sync_participants(self, action: str) -> tuple[AgentTemplate, ...]:
        """Non-environment templates declaring `action`."""
        return tuple(t for t in self.templates if t.action(action) is not None)


# ---------------------------------------------------------------------------
# validation

# The names the encoding adds to the model's, which `encoder` reads from here
# and `validate_pmas` keeps the model from reusing.
PHASE_VAR, ENV_ACT, TURN_VAR = "phase", "env_act", "turn"
NOP = "nop"
PHASES = P0, PL, PS, PL2, PS2 = "P0", "PL", "PS", "PL2", "PS2"
TURN_CONSTS = ("turn0", "turn1")
ACTION_SORT, PHASE_SORT, TURN_SORT = "Act", "Phase", "Turn"


def index_sort(t: AgentTemplate) -> str:
    return f"{t.name}_id"


def act_array(t: AgentTemplate) -> str:
    return f"act_{t.name}"


def validate_pmas(p: Pmas, at: Optional[dict] = None) -> list[Diagnostic]:
    """Static checks; returns diagnostics (empty = valid), each at the line
    and column in `at` of what it is about, keyed as `dsl` records them (a
    synchronisation's at the first action of its name): "goal", "alternate",
    ("sort", k) and ("sort", k, j) for the k-th sort and its j-th constant,
    ("relation", k), a template's name, (its name, k) for its k-th action and
    (its name, k, j) for that action's j-th effect.  The names the encoding
    adds count as declared, the action names as the constants of
    `ACTION_SORT`: one name must not denote two things in the encoding."""
    out: list[Diagnostic] = []
    at = at or {}

    def err(msg: str, where: object = None) -> None:
        out.append(Diagnostic(*at.get(where, (0, 0)), msg))

    reserved = {
        SELF, ENV, "true", "false",  # the formula language's own words
        PHASE_VAR, ENV_ACT, TURN_VAR, NOP, *PHASES, *TURN_CONSTS, *map(act_array, p.templates),
    }
    encoded_sorts = {ACTION_SORT, PHASE_SORT, TURN_SORT, *map(index_sort, p.templates)}
    consts: dict[str, str] = {}
    sorts: set[str] = set()
    for k, s in enumerate(p.sorts):
        if s.name in sorts:
            err(f"duplicate sort {s.name}", ("sort", k))
        if s.name in encoded_sorts:
            err(f"sort name {s.name} is reserved", ("sort", k))
        sorts.add(s.name)
        for j, c in enumerate(s.constants):
            if c in consts:
                err(f"constant {c} declared in sorts {consts[c]} and {s.name}", ("sort", k, j))
            consts[c] = s.name
            if c in reserved:
                err(f"constant name {c} is reserved", ("sort", k, j))
    for k, r in enumerate(p.relations):
        if any(q.name == r.name for q in p.relations[:k]):
            err(f"duplicate relation {r.name}", ("relation", k))
        for s in sorted(set(r.arg_sorts) - sorts):
            err(f"relation {r.name}: unknown sort {s}", ("relation", k))

    names: set[str] = set()
    for t in p.all_templates():
        if t.name in names:
            err(f"duplicate template name {t.name}", t.name)
        names.add(t.name)
        if not t.actions:
            err(f"template {t.name} declares no actions", t.name)
        seen_v: set[str] = set()
        for v, sort, init in t.variables:
            if v in reserved:
                err(f"variable name {v} is reserved", t.name)
            if v in seen_v:
                err(f"template {t.name}: duplicate variable {v}", t.name)
            seen_v.add(v)
            if p.const_sort(init) != sort:
                err(f"template {t.name}: initial value {init} not of sort {sort}", t.name)
        seen_a: set[str] = set()
        for k, a in enumerate(t.actions):
            where = (t.name, k)
            if a.name in reserved:
                err(f"action name {a.name} is reserved", where)
            elif consts.setdefault(a.name, ACTION_SORT) != ACTION_SORT:
                err(f"constant {a.name} declared in sorts {consts[a.name]} and {ACTION_SORT}", where)
            if a.name in seen_a:
                err(f"template {t.name}: duplicate action {a.name}", where)
            seen_a.add(a.name)
            if formula_has_disjunction(a.pre):
                err(f"action {t.name}.{a.name}: precondition contains a disjunction", where)
            for j, (v, c) in enumerate(a.eff):
                if v not in t.var_names():
                    err(f"action {t.name}.{a.name}: effect on foreign variable {v}", (*where, j))
                elif p.const_sort(c) != t.var_sort(v):
                    err(f"action {t.name}.{a.name}: {v} := {c} ill-sorted", (*where, j))
            try:
                # `self` is an agent: the environment has none
                infer_formula_var_templates(p, a.pre, self_template=None if t.is_env else t)
            except ModelError as me:
                for d in me.diagnostics:
                    err(f"action {t.name}.{a.name}: {d.message}", where)

    # variable names must be globally unique (they name arrays/globals later)
    all_vars: dict[str, str] = {}
    for t in p.all_templates():
        for v, _s, _i in t.variables:
            if v in all_vars:
                err(f"variable {v} declared in templates {all_vars[v]} and {t.name}", t.name)
            all_vars[v] = t.name
    for v, t_name in all_vars.items():
        if v in consts:
            err(f"name {v} used both as variable and constant", t_name)

    # sync/individual actions need the environment plus at least one template
    sync_names = {
        a.name for t in p.all_templates() for a in t.actions if a.kind in (SYNC, INDIVIDUAL)
    }
    for a_name in sorted(sync_names):
        where = next(
            (t.name, k) for t in p.all_templates() for k, a in enumerate(t.actions) if a.name == a_name
        )
        env_decl = p.env.action(a_name)
        if env_decl is None or env_decl.kind == LOCAL:
            err(f"synchronization action {a_name} not declared by the environment", where)
        parts = p.sync_participants(a_name)
        if not parts:
            err(f"synchronization action {a_name} declared by no agent template (environment must not be its only participant)", where)
        kinds = {
            t.action(a_name).kind for t in p.all_templates() if t.action(a_name) is not None
        }
        if len(kinds) > 1:
            err(f"action {a_name} declared with inconsistent kinds {sorted(kinds)}", where)

    if p.alternation is not None:
        g1, g2 = p.alternation
        both = set(g1) & set(g2)
        if both:
            err(f"templates {sorted(both)} in both alternation groups", "alternate")
        for n in (*g1, *g2):
            if n not in names:
                err(f"alternation names unknown template {n}", "alternate")
        missing = names - set(g1) - set(g2)
        if missing:
            err(f"templates {sorted(missing)} in no alternation group", "alternate")

    for msg in goal_errors(p, p.goal):
        err(f"goal: {msg}", "goal")

    return out


def goal_errors(p: Pmas, goal: AgentFormula) -> list[str]:
    """What is wrong with `goal` as the goal of `p`."""
    out = []
    try:
        infer_formula_var_templates(p, goal, self_template=None)
    except ModelError as me:
        out += [d.message for d in me.diagnostics]
    if any(SELF in _indexes(x) for x in _walk(goal)):
        out.append("must not use self")
    return out


def _walk(f: AgentFormula) -> Iterator[AgentFormula]:
    yield f
    if isinstance(f, Neg):
        yield from _walk(f.inner)
    elif isinstance(f, (Conj, Disj)):
        for i in f.items:
            yield from _walk(i)


def infer_formula_var_templates(
    p: Pmas, f: AgentFormula, self_template: Optional[AgentTemplate]
) -> dict[str, AgentTemplate]:
    """Assign each free index variable the template its usages require.

    Raises ModelError on conflicting usage, on env variables indexed by
    anything but `e`, on `self` indexing a foreign template, and on index
    equalities across different templates.
    """
    assign: dict[str, AgentTemplate] = {}
    eqs: list[tuple[str, str]] = []

    def bind(idx: str, t: AgentTemplate) -> None:
        if idx == ENV:
            if not t.is_env:
                raise ModelError(f"e used to index non-environment variable")
            return
        if idx == SELF:
            if self_template is None:
                raise ModelError("self not allowed here")
            if t.name != self_template.name:
                raise ModelError(
                    f"self indexes variable of template {t.name}, not {self_template.name}"
                )
            return
        if t.is_env:
            raise ModelError(f"environment variable indexed by {idx} (use e)")
        prev = assign.get(idx)
        if prev is not None and prev.name != t.name:
            raise ModelError(f"index {idx} used for templates {prev.name} and {t.name}")
        assign[idx] = t

    for g in _walk(f):
        if isinstance(g, VarTest):
            owner = p.owner_of_var(g.var)
            bind(g.idx, owner)
            if p.const_sort(g.value) != owner.var_sort(g.var):
                raise ModelError(f"{g.var}[{g.idx}] = {g.value} ill-sorted")
        elif isinstance(g, RelTest):
            rel = next((r for r in p.relations if r.name == g.rel), None)
            if rel is None:
                raise ModelError(f"unknown relation {g.rel}")
            if len(g.args) != len(rel.arg_sorts):
                raise ModelError(f"relation {g.rel} expects {len(rel.arg_sorts)} arguments")
            for arg, want in zip(g.args, rel.arg_sorts):
                if isinstance(arg, ConstRef):
                    if p.const_sort(arg.name) != want:
                        raise ModelError(f"relation {g.rel}: argument {arg.name} not of sort {want}")
                else:
                    owner = p.owner_of_var(arg.var)
                    bind(arg.idx, owner)
                    if owner.var_sort(arg.var) != want:
                        raise ModelError(f"relation {g.rel}: {arg.var}[{arg.idx}] not of sort {want}")
        elif isinstance(g, IdxEq):
            eqs.append((g.lhs, g.rhs))

    # index equalities must connect variables of one template
    def tmpl_of(idx: str) -> Optional[AgentTemplate]:
        if idx == SELF:
            if self_template is None:
                raise ModelError("self not allowed here")
            return self_template
        if idx == ENV:
            raise ModelError("e cannot appear in index equalities")
        return assign.get(idx)

    changed = True
    while changed:
        changed = False
        for a, b in eqs:
            ta, tb = tmpl_of(a), tmpl_of(b)
            if ta is not None and tb is None and b not in (SELF, ENV):
                assign[b] = ta
                changed = True
            elif tb is not None and ta is None and a not in (SELF, ENV):
                assign[a] = tb
                changed = True
    for a, b in eqs:
        ta, tb = tmpl_of(a), tmpl_of(b)
        if ta is None or tb is None:
            raise ModelError(f"cannot infer template of index {a if ta is None else b}")
        if ta.name != tb.name:
            raise ModelError(f"index equality {a} = {b} across templates {ta.name}, {tb.name}")
    return assign


# ---------------------------------------------------------------------------
# snapshots and evaluation


AgentId = tuple[str, int]  # (template name, position)


@dataclass(frozen=True)
class RelInterpretation:
    """Interpretation of the uninterpreted relations: sets of constant tuples."""

    tuples: tuple[tuple[str, tuple[str, ...]], ...] = ()

    @memoized
    def tuple_set(self) -> frozenset[tuple[str, tuple[str, ...]]]:
        return frozenset(self.tuples)

    def holds(self, rel: str, args: tuple[str, ...]) -> bool:
        return (rel, args) in self.tuple_set()

    @staticmethod
    def of(entries: Iterable[tuple[str, tuple[str, ...]]]) -> "RelInterpretation":
        return RelInterpretation(tuple(sorted(set(entries))))


@dataclass(frozen=True)
class Snapshot:
    """One concrete configuration: per-template agents plus env state.

    Agents of one template in one local state (a tuple of constants in the
    template's variable order) are interchangeable, so each template's
    agents are (local state, count) pairs sorted by state, counts positive:
    German & Sistla's counting abstraction.  Agent i of a template is the one
    at offset i, counting each pair's agents in turn from 0.  `turn` is the
    current alternation group (or None).
    """

    agents: tuple[tuple[str, tuple[tuple[tuple[str, ...], int], ...]], ...]
    env: tuple[str, ...]
    turn: Optional[int] = None

    def agents_of(self, template: str) -> tuple[tuple[tuple[str, ...], int], ...]:
        for name, blocks in self.agents:
            if name == template:
                return blocks
        raise ModelError(f"no agents for template {template}")


def initial_snapshot(p: Pmas, counts: dict[str, int]) -> Snapshot:
    agents = tuple(
        (t.name, ((tuple(i for _v, _s, i in t.variables), n),) if (n := counts.get(t.name, 0)) > 0 else ())
        for t in p.templates
    )
    env = tuple(init for _v, _s, init in p.env.variables)
    turn = 0 if p.alternation is not None else None
    return Snapshot(agents, env, turn)


# A compiled part of a formula tests one grounding, or searches for one: it
# takes the snapshot, the interpretation, the agent `self` denotes with its
# local state, the blocks of each free index variable's template and the
# agent bound to each variable as (block, offset in the block), in sorted
# variable order; `self` is (template, (block, 0)).  A search binds the
# variables its part leaves free and leaves the others as it found them.
Grounded = Callable[[Snapshot, RelInterpretation, Optional[tuple], list, list], bool]
Search = Callable[[Snapshot, RelInterpretation, Optional[AgentId]], bool]


def _var_reads(g: AgentFormula) -> tuple[Union[VarTest, VarRef], ...]:
    """The variable reads v[idx] an atom of `g` makes itself."""
    if isinstance(g, VarTest):
        return (g,)
    if isinstance(g, RelTest):
        return tuple(a for a in g.args if isinstance(a, VarRef))
    return ()


def _indexes(g: AgentFormula) -> tuple[str, ...]:
    """The indexes (variables, SELF or ENV) an atom of `g` names itself."""
    if isinstance(g, IdxEq):
        return (g.lhs, g.rhs)
    return tuple(x.idx for x in _var_reads(g))


def _conjuncts(g: AgentFormula) -> Iterator[AgentFormula]:
    if isinstance(g, Conj):
        for i in g.items:
            yield from _conjuncts(i)
    else:
        yield g


def _all(parts: list[Grounded]) -> Grounded:
    """A part true when each of `parts` is, tried in order."""
    if len(parts) == 1:
        return parts[0]

    def conj(snap, interp, me, states, ground):
        for t in parts:
            if not t(snap, interp, me, states, ground):
                return False
        return True
    return conj


def _any(parts: list[Grounded]) -> Grounded:
    """A part true when one of `parts` is, tried in order."""
    if len(parts) == 1:
        return parts[0]

    def disj(snap, interp, me, states, ground):
        for t in parts:
            if t(snap, interp, me, states, ground):
                return True
        return False
    return disj


def _bind(k: int, width: int, rest: Grounded) -> Grounded:
    """A search trying the first `width` agents of each block for variable
    `k` until `rest` holds."""
    def bind(snap, interp, me, states, ground):
        for b, (_state, count) in enumerate(states[k]):
            for j in range(min(count, width)):
                ground[k] = (b, j)
                if rest(snap, interp, me, states, ground):
                    return True
        return False
    return bind


def compile_agent_formula(
    p: Pmas, f: AgentFormula, self_template: Optional[str]
) -> Search:
    """Resolve `f` against `p` once, into a search for a grounding of its free
    index variables that makes it true.

    The search binds one variable at a time and tests each conjunct as soon as
    its variables are bound; it searches each disjunct on its own, over its
    own variables.  A variable of a template with k variables in `f` ranges
    over the first min(count, k + 1) agents of each block, and `self` is the
    first agent of its block: permuting a block's agents maps any grounding
    to one of these and changes no truth value.  As over every grounding, `f`
    is false when the template of one of its variables has no agents.  The
    search raises ModelError when the snapshot lacks that template.  `f` may
    mention `self` only with a `self_template` (inference rejects it
    otherwise), and the search is then run with an agent of that template."""
    st = p.template(self_template) if self_template else None
    assign = infer_formula_var_templates(p, f, self_template=st)
    names = sorted(assign)
    pos = {n: k for k, n in enumerate(names)}
    templates = tuple(assign[n].name for n in names)
    uses_self = any(SELF in _indexes(g) for g in _walk(f))

    def value(arg: Union[VarTest, VarRef, ConstRef]):
        """The getter of a constant, or of v[idx] in one grounding."""
        if isinstance(arg, ConstRef):
            c = arg.name
            return lambda snap, me, states, ground: c
        owner, slot = p.var_slot(arg.var)
        if owner.is_env:
            return lambda snap, me, states, ground: snap.env[slot]
        if arg.idx == SELF:
            return lambda snap, me, states, ground: me[1][slot]
        k = pos[arg.idx]
        return lambda snap, me, states, ground: states[k][ground[k][0]][0][slot]

    def agent(idx: str):
        """The getter of the agent an index denotes in one grounding."""
        if idx == SELF:
            return lambda me, states, ground: me[0]
        k, t = pos[idx], assign[idx].name
        return lambda me, states, ground: (t, ground[k])

    def comp(g: AgentFormula) -> Grounded:
        if isinstance(g, BoolConst):
            b = g.value
            return lambda snap, interp, me, states, ground: b
        if isinstance(g, VarTest):
            get, want = value(g), g.value
            return lambda snap, interp, me, states, ground: get(snap, me, states, ground) == want
        if isinstance(g, RelTest):
            rel, gets = g.rel, [value(a) for a in g.args]
            return lambda snap, interp, me, states, ground: interp.holds(
                rel, tuple(get(snap, me, states, ground) for get in gets)
            )
        if isinstance(g, IdxEq):
            lhs, rhs = agent(g.lhs), agent(g.rhs)
            return lambda snap, interp, me, states, ground: (
                lhs(me, states, ground) == rhs(me, states, ground)
            )
        if isinstance(g, Neg):
            inner = comp(g.inner)
            return lambda snap, interp, me, states, ground: not inner(
                snap, interp, me, states, ground
            )
        if isinstance(g, Conj):
            return _all([comp(i) for i in g.items])
        if isinstance(g, Disj):
            return _any([comp(i) for i in g.items])
        raise ModelError(f"not a formula: {g!r}")

    def free(g: AgentFormula) -> frozenset[int]:
        return frozenset(pos[i] for h in _walk(g) for i in _indexes(h) if i in pos)

    def search(g: AgentFormula, bound: frozenset[int]) -> Grounded:
        """Whether some binding of the variables of `g` outside `bound` makes
        `g` true: a disjunction is searched disjunct by disjunct (the domains
        are not empty), anything else as conjuncts tested once bound."""
        if isinstance(g, Disj):
            return _any([search(i, bound) for i in g.items])
        tests = [(free(c), comp(c)) for c in _conjuncts(g)]
        known = set(bound)
        parts = [t for vs, t in tests if vs <= known]
        levels = []  # (variable, the conjuncts it is the last variable of)
        for k in sorted(set().union(*(vs for vs, _t in tests)) - known):
            known.add(k)
            levels.append((k, [t for vs, t in tests if k in vs and vs <= known]))
        rest = None
        for k, ts in reversed(levels):
            rest = _bind(k, templates.count(templates[k]) + 1, _all(ts + ([rest] if rest else [])))
        return _all(parts + ([rest] if rest else []))

    root = search(f, frozenset())
    n = len(names)

    def run(snap: Snapshot, interp: RelInterpretation, self_id: Optional[AgentId]) -> bool:
        me = None
        if uses_self:  # the first agent of self's block, which permuting the block swaps it with
            t, i = self_id
            for b, (state, count) in enumerate(snap.agents_of(t)):
                if i < count:
                    break
                i -= count
            else:
                raise ModelError(f"no agent {self_id[1]} of template {t}")
            me = (t, (b, 0)), state
        if not n:
            return root(snap, interp, me, [], [])
        states = [snap.agents_of(t) for t in templates]
        return all(states) and root(snap, interp, me, states, [None] * n)

    return run


def eval_agent_formula(
    p: Pmas,
    snap: Snapshot,
    interp: RelInterpretation,
    f: AgentFormula,
    self_id: Optional[AgentId] = None,
) -> bool:
    """Truth of `f` in `snap`: free index variables are existential.

    Index groundings range over the agents of the variable's template and need
    not be injective.  `self_id` fixes the interpretation of `self`; a formula
    that mentions `self` raises ModelError without it.  `f` is compiled once
    per model and template of `self_id`; a formula that fails to compile is not
    remembered, so it raises again on every call.
    """
    st = self_id[0] if self_id else None
    memo = p.compiled_formulas()
    key = (id(f), st)
    try:
        _f, run = memo[key]
    except KeyError:
        run = compile_agent_formula(p, f, st)
        # the entry keeps `f` alive, so its id cannot be reused while cached
        memo[key] = (f, run)
    return run(snap, interp, self_id)
