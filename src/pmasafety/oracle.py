"""Explicit-state enumeration for bounded instances.

Ground truth for cross validation: fix agent counts and a relation
interpretation, enumerate reachable snapshots breadth first under the chosen
step semantics, and test the goal along the way.  A snapshot counts the agents
of each template per local state, so it stands for every permutation of them.
The fully idle action vector is never generated.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from . import encoder, engine
from .encoder import CONCURRENT, INTERLEAVED
from .logic import BudgetError
from .model import (
    AgentId,
    AgentTemplate,
    INDIVIDUAL,
    LOCAL,
    Pmas,
    RelInterpretation,
    SYNC,
    Snapshot,
    eval_agent_formula,
    initial_snapshot,
)


@dataclass(frozen=True)
class ConcreteConfig:
    """A finite instance to search: agent counts, interpretation, semantics and budgets."""

    counts: tuple[tuple[str, int], ...]  # (template, agent count)
    interp: RelInterpretation = RelInterpretation()
    semantics: str = INTERLEAVED
    max_depth: int = 15
    max_states: int = 200000

    def counts_dict(self) -> dict[str, int]:
        return dict(self.counts)


@dataclass(frozen=True)
class StepVector:
    """One global step: the executed (action, agent id) pairs plus the
    environment's action (None = idle).  `label()` is the action multiset
    used for replay."""

    kind: str  # local | sync | individual
    env_action: Optional[str]
    agent_actions: tuple[tuple[AgentId, str], ...]

    def label(self) -> frozenset[str]:
        names = {a for _aid, a in self.agent_actions}
        if self.env_action is not None:
            names.add(self.env_action)
        return frozenset(names)


REACHED = "REACHED"
SILENT = "SILENT"
OVERFLOW = "OVERFLOW"


@dataclass
class OracleResult:
    """The outcome of a search of one finite instance."""

    status: str
    depth: Optional[int] = None
    run: Optional[list[StepVector]] = None
    states_seen: int = 0
    examined: int = 0  # successors built, one per orbit of step vectors


class StepTables:
    """What the steps of one model depend on, under one interpretation and
    semantics, filled in as a search reads it.  Nothing in them depends on
    the agent counts, so one table serves every search of a cross-check under
    its interpretation.  A template's row is kept when each precondition of
    the template reads only `self` and `e`, so that it depends only on its
    blocks, the environment's state and the turn."""

    def __init__(self, p: Pmas, interp: RelInterpretation, semantics: str):
        if semantics not in (INTERLEAVED, CONCURRENT):
            raise ValueError(f"unknown semantics {semantics!r}")
        self.p, self.interp = p, interp
        self.interleaved = semantics == INTERLEAVED
        self.post: dict = {}  # (template, action, local state) -> local state after it
        self.moved: dict = {}  # (template, blocks, moves) -> blocks after them
        self.views: dict = {}  # `view` arguments -> its answer
        self.options: dict = {}  # (choices, agents) -> `spread`'s answer
        self.rows: dict = {}  # `row` arguments -> its answer
        self.takes: dict = {}  # (kind, block sizes) -> `joint`'s answer
        self.goals: dict = {}  # the snapshot's part the goal reads -> the goal's truth

    def after(self, t: str, a: str, state: tuple[str, ...]) -> tuple[str, ...]:
        key = (t, a, state)
        post = self.post.get(key)
        if post is None:
            st = list(state)
            for v, c in self.p.template(t).action(a).eff:
                st[self.p.var_slot(v)[1]] = c
            post = self.post[key] = tuple(st)
        return post

    def shift(self, t: str, blocks, moves: tuple[tuple[int, str, int], ...]):
        """`blocks` of template `t` after, for each (block, action, count) of
        `moves`, that many agents of the block take the action."""
        key = (t, blocks, moves)
        out = self.moved.get(key) if moves else blocks
        if out is None:
            counts = dict(blocks)
            for b, a, c in moves:
                state = blocks[b][0]
                counts[state] -= c
                post = self.after(t, a, state)
                counts[post] = counts.get(post, 0) + c
            out = self.moved[key] = tuple(sorted(b for b in counts.items() if b[1]))
        return out

    def view(self, t: AgentTemplate, snap: Snapshot, i: Optional[int] = None, state=None):
        """The local choices of the agents of `t` in `state` from offset `i`
        (None for idling), and the kind of each synchronisation they may
        join, by name.  For the environment (`i` None): its local choices,
        and what it may start now."""
        key = (t.name, state, snap.env, snap.turn)
        view = self.views.get(key)
        if view is None:
            p, interp, aid, names = self.p, self.interp, None if i is None else (t.name, i), ()
            if snap.turn is None or p.turn_group(t.name) == snap.turn:
                names = tuple(a.name for a in t.local_actions() if eval_agent_formula(p, snap, interp, a.pre, aid))
            view = (None,) + names if self.interleaved else names or (None,), {
                a.name: a.kind
                for a in t.actions
                if a.kind != LOCAL
                and (aid or p.alternation is None or p.initiator_groups()[a.name] == snap.turn)
                and eval_agent_formula(p, snap, interp, a.pre, aid)
            }
            if t.name in p.self_and_env_templates():
                self.views[key] = view
        return view

    def spread(self, choices: tuple, k: int) -> list:
        """Each way `k` agents pick among `choices`, one per orbit, as the
        (action, count) pairs of the actions some agent takes, in the order
        of `itertools.combinations_with_replacement(choices, k)`."""
        key = (choices, k)
        opts = self.options.get(key)
        if opts is None:
            opts = self.options[key] = [
                tuple((a, c) for a, c in zip(choices, cs) if c and a is not None)
                for cs in _counts(len(choices), k)
            ]
        return opts

    def row(self, t: AgentTemplate, snap: Snapshot, blocks):
        """For the agents `blocks` of `t` in `snap`: each product of their
        blocks' local options (`spread`) with the blocks it leaves, and what
        each block may join."""
        key = (t.name, blocks, snap.env, snap.turn)
        row = self.rows.get(key)
        if row is None:
            spreads, joins, i = [], [], 0
            for state, k in blocks:
                choices, j = self.view(t, snap, i, state)
                spreads.append(self.spread(choices, k))
                joins.append(j)
                i += k
            row = [
                (opts, self.shift(t.name, blocks, tuple((b, a, c) for b, o in enumerate(opts) for a, c in o)))
                for opts in itertools.product(*spreads)
            ], joins
            if t.name in self.p.self_and_env_templates():
                self.rows[key] = row
        return row

    def joint(self, kind: str, sizes: tuple[int, ...]) -> list[tuple[int, ...]]:
        """How many agents of each eligible block, of `sizes` agents, join a
        synchronisation of `kind`, one choice per orbit."""
        takes = self.takes.get((kind, sizes))
        if takes is None:
            if kind == INDIVIDUAL:  # the first agent of one block
                takes = [tuple(int(b == c) for b in range(len(sizes))) for c in range(len(sizes))]
            elif self.interleaved:  # any of them: fewer first, then more from earlier blocks
                takes = sorted(itertools.product(*(range(k, -1, -1) for k in sizes)), key=sum)[1:]
            else:  # all of them
                takes = [sizes] if sizes else []
            self.takes[kind, sizes] = takes
        return takes

    def reaches(self, snap: Snapshot) -> bool:
        """Whether `snap` meets the goal, decided once per part of a snapshot
        the goal reads (`Pmas.goal_reads`)."""
        positions, env = self.p.goal_reads()
        key = tuple([snap.agents[k] for k in positions]), snap.env if env else None
        hit = self.goals.get(key)
        if hit is None:
            hit = self.goals[key] = eval_agent_formula(self.p, snap, self.interp, self.p.goal)
        return hit


def _counts(m: int, k: int) -> Iterator[tuple[int, ...]]:
    """Every `m` counts summing to `k`, in descending lexicographic order."""
    if m == 1:
        yield (k,)
        return
    for n in range(k, -1, -1):
        for rest in _counts(m - 1, k - n):
            yield (n, *rest)


def successors(tables: StepTables, snap: Snapshot) -> Iterator[tuple[tuple, Snapshot]]:
    """Each legal global step from `snap` (never the fully idle one) as a
    choice `vector` reads, with the snapshot after it, one per orbit under
    permutations of the agents within a block, the agents of one template in
    one local state.

    Interleaved: any agents each pick one executable local action, or stay
    idle, and a synchronisation takes any non-empty subset of the willing
    agents.  Concurrent: every agent with an executable local action must
    pick one, and a synchronisation takes all willing agents.  The
    environment's local choice follows the agents' rule.

    Of each orbit, the step taken is the first one an enumeration of every
    vector would give, agent by agent in order, and the steps come in that
    enumeration's order: a block's agents pick their choices sorted, a
    synchronisation takes a prefix of each block, and an individual one the
    first agent of a block."""
    p = tables.p
    rows = [tables.row(p.template(name), snap, blocks) for name, blocks in snap.agents]
    env_choices, starts = tables.view(p.env, snap)
    names = [name for name, _b in snap.agents]
    turn = None if snap.turn is None else 1 - snap.turn
    # the idle step, where every template has one, is the first product of options
    idle = not any(any(entries[0][0]) for entries, _j in rows)
    for env_choice in env_choices:
        env = snap.env if env_choice is None else tables.after(p.env.name, env_choice, snap.env)
        combos = itertools.product(*(entries for entries, _j in rows))
        if env_choice is None and idle:
            next(combos)
        for combo in combos:
            agents = tuple([(n, after) for n, (_o, after) in zip(names, combo)])
            yield (LOCAL, env_choice, combo), Snapshot(agents, env, turn)
    # the synchronisations, then the individual ones, each in declaration order
    for kind in (SYNC, INDIVIDUAL):
        for name in [a for a, k in starts.items() if k == kind]:
            eligible = []  # (template position, block, first offset, count)
            for pos, ((_t, blocks), (_e, joins)) in enumerate(zip(snap.agents, rows)):
                i = 0
                for b, ((_s, k), j) in enumerate(zip(blocks, joins)):
                    if j.get(name) == kind:
                        eligible.append((pos, b, i, k))
                    i += k
            env = tables.after(p.env.name, name, snap.env)
            for cs in tables.joint(kind, tuple(k for *_x, k in eligible)):
                moves: dict[int, list] = {}
                for (pos, b, _i, _k), c in zip(eligible, cs):
                    if c:
                        moves.setdefault(pos, []).append((b, name, c))
                agents = list(snap.agents)
                for pos, m in moves.items():
                    t, blocks = agents[pos]
                    agents[pos] = t, tables.shift(t, blocks, tuple(m))
                yield (kind, name, eligible, cs), Snapshot(tuple(agents), env, turn)


def vector(snap: Snapshot, choice: tuple) -> StepVector:
    """The step vector of a choice `successors` gave for `snap`: each block's
    idle agents come first, then its agents of each action in turn."""
    if choice[0] == LOCAL:
        _kind, env_choice, combo = choice
        acting = []
        for (t, blocks), (opts, _after) in zip(snap.agents, combo):
            i = 0
            for (_state, k), opt in zip(blocks, opts):
                j = i + k - sum(c for _a, c in opt)
                for a, c in opt:
                    acting += [((t, x), a) for x in range(j, j + c)]
                    j += c
                i += k
        return StepVector(LOCAL, env_choice, tuple(acting))
    kind, name, eligible, cs = choice
    return StepVector(kind, name, tuple(
        ((snap.agents[pos][0], i + j), name) for (pos, _b, i, _k), c in zip(eligible, cs) for j in range(c)
    ))


def step_vectors(tables: StepTables, snap: Snapshot) -> Iterator[tuple[StepVector, Snapshot]]:
    """The steps of `successors(tables, snap)`, in its order, each as its
    step vector with the snapshot after it."""
    for choice, succ in successors(tables, snap):
        yield vector(snap, choice), succ


def enumerate_reachable(p: Pmas, cfg: ConcreteConfig, tables: Optional[StepTables] = None) -> OracleResult:
    """BFS from the initial snapshot; stops at the first snapshot that meets
    the model's goal.  Ends in OVERFLOW once it has examined more than
    `cfg.max_states` successors, duplicates included.  A successor is
    examined once per orbit of steps (`successors`), but a step may still
    have many orbits (a block of k agents with m choices has
    C(k + m - 1, m - 1)), most of them leading to snapshots already seen.
    With more agents than `cfg.max_states`, it ends in OVERFLOW before
    building a snapshot.  `tables`, for `p` under `cfg`'s interpretation and
    semantics, may be shared with other searches; without them the search
    builds its own.  Only the run returned is turned into step vectors.
    Raises ValueError for a negative `cfg.max_depth`, whose search would
    examine nothing and report SILENT.
    """
    if cfg.max_depth < 0:
        raise ValueError(f"oracle depth must not be negative, got {cfg.max_depth}")
    if sum(k for _t, k in cfg.counts) > cfg.max_states:
        return OracleResult(OVERFLOW)
    if tables is None:
        tables = StepTables(p, cfg.interp, cfg.semantics)
    start = initial_snapshot(p, cfg.counts_dict())
    if tables.reaches(start):
        return OracleResult(REACHED, depth=0, run=[], states_seen=1)
    # each snapshot seen, with the snapshot and the choice that first reached it
    parent: dict[Snapshot, Optional[tuple[Snapshot, tuple]]] = {start: None}
    examined = 0
    frontier = [start]
    for depth in range(1, cfg.max_depth + 1):
        nxt: list[Snapshot] = []
        for snap in frontier:
            for choice, succ in successors(tables, snap):
                examined += 1
                if examined > cfg.max_states:
                    return OracleResult(OVERFLOW, states_seen=len(parent), examined=examined)
                step = (snap, choice)
                if parent.setdefault(succ, step) is not step:
                    continue  # seen before: one lookup, one hash
                if tables.reaches(succ):
                    run = []
                    while (step := parent[succ]) is not None:
                        succ, choice = step
                        run.append(vector(succ, choice))
                    return OracleResult(
                        REACHED, depth=depth, run=run[::-1], states_seen=len(parent), examined=examined
                    )
                nxt.append(succ)
        if not nxt:
            break
        frontier = nxt
    return OracleResult(SILENT, states_seen=len(parent), examined=examined)


# ---------------------------------------------------------------------------
# run-template replay


VALID = "VALID"
INVALID = "INVALID"


@dataclass
class ReplayResult:
    """Whether a run template replays, and how many steps matched."""

    status: str
    steps_matched: int


def replay_run_template(
    p: Pmas,
    template: list[frozenset[str]],
    cfg: ConcreteConfig,
) -> ReplayResult:
    """Check that a sequence of committed-action sets is executable and ends in
    the goal.

    Each entry names the set of distinct actions committed in one global step;
    any number of agents may carry them.  The search branches over all matching
    legal vectors; VALID iff some completion reaches a goal snapshot.
    OVERFLOW, before building a snapshot, with more agents than
    `cfg.max_states`.
    """
    if sum(k for _t, k in cfg.counts) > cfg.max_states:
        return ReplayResult(OVERFLOW, 0)
    tables = StepTables(p, cfg.interp, cfg.semantics)
    best = 0

    def go(i: int, snap: Snapshot) -> bool:
        nonlocal best
        best = max(best, i)
        if i == len(template):
            return tables.reaches(snap)
        want = template[i]
        for vec, succ in step_vectors(tables, snap):
            if vec.label() == want and go(i + 1, succ):
                return True
        return False

    if go(0, initial_snapshot(p, cfg.counts_dict())):
        return ReplayResult(VALID, len(template))
    return ReplayResult(INVALID, best)


# ---------------------------------------------------------------------------
# relation interpretation enumeration


class Interpretations(Sequence[RelInterpretation]):
    """Relation interpretations, each built when it is read.

    Interpretation k switches on cell j (one relation applied to one tuple of
    constants) iff bit j of `masks[k]` is set.
    """

    def __init__(self, cells: tuple[tuple[str, tuple[str, ...]], ...], masks: range):
        self.cells = cells
        self.masks = masks

    @property
    def total(self) -> int:
        """How many interpretations the declared constants allow."""
        return 1 << len(self.cells)

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, k: int) -> RelInterpretation:
        mask = self.masks[k]
        return RelInterpretation.of(c for j, c in enumerate(self.cells) if mask >> j & 1)


def relation_interpretations(p: Pmas, budget: Optional[int] = None) -> Interpretations:
    """All interpretations over the declared constants (or a budget-spaced sample)."""
    if budget is not None and budget < 1:
        raise ValueError(f"interpretation budget must be at least 1, got {budget}")
    cells: list[tuple[str, tuple[str, ...]]] = []
    for r in p.relations:
        doms = []
        for s in r.arg_sorts:
            sd = next(x for x in p.sorts if x.name == s)
            doms.append(sd.constants)
        for combo in itertools.product(*doms):
            cells.append((r.name, tuple(combo)))
    total = 1 << len(cells)
    if budget is not None and total > budget:
        stride = -(-total // budget)
        return Interpretations(tuple(cells), range(0, total, stride))
    return Interpretations(tuple(cells), range(total))


# ---------------------------------------------------------------------------
# symbolic-vs-concrete cross-check


@dataclass
class CrossCheckReport:
    """Agreement between the symbolic engine and the bounded concrete oracle.

    Classifications:
      agree-safe                  engine SAFE, no bounded config reaches the goal
      agree-unsafe                engine UNSAFE and some bounded config reaches it
      engine-unsafe-oracle-silent engine UNSAFE but no bounded config reaches it
                                  (expected only under concurrent semantics, or
                                  when the witness needs more agents/steps than
                                  the bounds allow)
      engine-safe-oracle-reached  engine SAFE but the oracle reached the goal:
                                  always a soundness failure
      oracle-overflow             engine SAFE or UNSAFE, no bounded config
                                  reaches the goal and the search of at least
                                  one overflowed (`overflow_counts`, the
                                  first), so the oracle decides nothing
      engine-unknown              engine exhausted its budgets
    """

    semantics: str
    engine_status: str
    engine_depth: int
    oracle_reached: bool
    classification: str
    # configurations decided, each by its own search or by a SILENT search of
    # the largest counts under its interpretation (`cross_check`)
    configs_run: int
    reached_counts: Optional[tuple[tuple[str, int], ...]] = None
    # (interpretations tried per agent count, interpretations there are)
    interpretations: tuple[int, int] = (1, 1)
    overflow_counts: Optional[tuple[tuple[str, int], ...]] = None


def cross_check(
    p: Pmas,
    semantics: str = INTERLEAVED,
    max_count: int = 3,
    oracle_depth: int = 15,
    interp_budget: Optional[int] = None,
    engine_max_depth: int = engine.DEFAULT_MAX_DEPTH,
    engine_max_cubes: int = engine.DEFAULT_MAX_CUBES,
) -> CrossCheckReport:
    """Run the symbolic engine and the explicit oracle over all agent counts
    1..max_count and all (or budget-sampled) relation interpretations, and
    classify their agreement.  The searches under one interpretation share
    one `StepTables`, built when that interpretation is first searched.

    Behind an interleaved SAFE verdict, each interpretation's configuration
    of `max_count` agents per template is searched first, when its table is
    built.  An interleaved run lifts to more agents, the extra ones idle, and
    preconditions and goal bind index variables existentially, so each
    successor a smaller search examines lifts to one this search examines:
    if it is SILENT, so is every smaller one, which is not searched.
    Otherwise, and under concurrent semantics (not monotone: an extra agent
    may have to act) or behind any other verdict, the configurations are
    searched in order, and the first to reach the goal or overflow is the
    one reported."""
    if max_count < 1:  # no configuration to run: any agreement would be vacuous
        raise ValueError(f"max_count must be at least 1, got {max_count}")
    if oracle_depth < 0:  # every search would examine nothing
        raise ValueError(f"oracle depth must not be negative, got {oracle_depth}")
    # first, so that a budget below 1 fails before the engine runs
    interps = relation_interpretations(p, budget=interp_budget)
    # through the modules, so that tracers and tests rebinding these names reach the calls
    try:
        abp = encoder.encode(p, semantics)
    except BudgetError:  # the goal's DNF passed its budget: the engine cannot run
        verdict = engine.Verdict(engine.UNKNOWN, depth=0)
    else:
        verdict = engine.breach(abp, max_depth=engine_max_depth, max_cubes=engine_max_cubes)

    reached = False
    reached_counts: Optional[tuple[tuple[str, int], ...]] = None
    overflow_counts: Optional[tuple[tuple[str, int], ...]] = None
    configs = 0
    names = [t.name for t in p.templates]
    largest = tuple((name, max_count) for name in names)
    largest_first = semantics == INTERLEAVED and verdict.status == engine.SAFE
    tables: dict[int, StepTables] = {}  # by interpretation
    at_largest: dict[int, str] = {}  # by interpretation: the status of its largest search
    for combo in itertools.product(range(1, max_count + 1), repeat=len(names)):
        counts = tuple(zip(names, combo))
        for k, interp in enumerate(interps):
            cfg = ConcreteConfig(counts, interp, semantics, max_depth=oracle_depth)
            configs += 1
            if k not in tables:
                tables[k] = StepTables(p, interp, semantics)
                if largest_first:
                    at_largest[k] = enumerate_reachable(p, replace(cfg, counts=largest), tables[k]).status
            if k in at_largest and (at_largest[k] == SILENT or counts == largest):
                status = at_largest[k]
            else:
                status = enumerate_reachable(p, cfg, tables[k]).status
            if status == REACHED:
                reached = True
                reached_counts = counts
                break
            if status == OVERFLOW and overflow_counts is None:
                overflow_counts = counts
        if reached:
            break

    if verdict.status == engine.UNKNOWN:
        cls = "engine-unknown"
    elif not reached and overflow_counts is not None:
        cls = "oracle-overflow"  # a search that overflowed might have reached the goal
    elif verdict.status == engine.SAFE:
        cls = "engine-safe-oracle-reached" if reached else "agree-safe"
    else:
        cls = "agree-unsafe" if reached else "engine-unsafe-oracle-silent"
    return CrossCheckReport(
        semantics=semantics,
        engine_status=verdict.status,
        engine_depth=verdict.depth,
        oracle_reached=reached,
        classification=cls,
        configs_run=configs,
        reached_counts=reached_counts,
        overflow_counts=overflow_counts,
        interpretations=(len(interps), interps.total),
    )
