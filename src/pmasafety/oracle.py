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
from dataclasses import dataclass
from typing import Iterator, Optional

from .encoder import CONCURRENT, INTERLEAVED
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
    counts: tuple[tuple[str, int], ...]  # (template, agent count)
    interp: RelInterpretation = RelInterpretation()
    semantics: str = INTERLEAVED
    max_depth: int = 15
    max_states: int = 200000

    def counts_dict(self) -> dict[str, int]:
        return dict(self.counts)


# One global step: the executed (action, agent id) pairs plus the environment's
# action (None = idle).  `label()` is the action multiset used for replay.
@dataclass(frozen=True)
class StepVector:
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
    status: str
    depth: Optional[int] = None
    run: Optional[list[StepVector]] = None
    states_seen: int = 0
    examined: int = 0  # successors built, one per orbit of step vectors


class StepTables:
    """What the steps of one model depend on, under one interpretation and
    semantics, filled in as a search reads it.  A block's view is kept when
    each precondition of its template reads only `self` and `e`, so that it
    depends only on its local state, the environment's and the turn."""

    def __init__(self, p: Pmas, interp: RelInterpretation, semantics: str):
        if semantics not in (INTERLEAVED, CONCURRENT):
            raise ValueError(f"unknown semantics {semantics!r}")
        self.p, self.interp = p, interp
        self.interleaved = semantics == INTERLEAVED
        self.post: dict = {}  # (template, action, local state) -> local state after it
        self.moved: dict = {}  # (template, blocks, (offset, action) pairs) -> blocks after them
        self.views: dict = {}  # `view` arguments -> its answer
        self.joints: dict = {}  # `joint` arguments -> its answer

    def after(self, t: str, a: str, state: tuple[str, ...]) -> tuple[str, ...]:
        key = (t, a, state)
        post = self.post.get(key)
        if post is None:
            st = list(state)
            for v, c in self.p.template(t).action(a).eff:
                st[self.p.var_slot(v)[1]] = c
            post = self.post[key] = tuple(st)
        return post

    def move(self, t: str, blocks, acts: tuple[tuple[int, str], ...]):
        """`blocks` of template `t` after the agent at each offset of `acts`
        takes its action: its count moves to the state the action leaves."""
        key = (t, blocks, acts)
        out = self.moved.get(key)
        if out is None:
            counts = dict(blocks)
            for i, a in acts:
                for state, k in blocks:  # the block holding agent i
                    if i < k:
                        break
                    i -= k
                counts[state] -= 1
                post = self.after(t, a, state)
                counts[post] = counts.get(post, 0) + 1
            out = self.moved[key] = tuple(sorted(b for b in counts.items() if b[1]))
        return out

    def view(self, t: AgentTemplate, snap: Snapshot, i: Optional[int] = None, k: int = 0, state=None):
        """The `k` agents of `t` from offset `i`, in `state`: the acting pairs
        of each sorted choice of local actions for them, and the kind of each
        synchronisation they may join, by name.  For the environment (`i`
        None): its local choices, and what it may start now."""
        key = (t.name, i, k, state, snap.env, snap.turn)
        view = self.views.get(key)
        if view is None:
            p, interp, aid, names = self.p, self.interp, None if i is None else (t.name, i), []
            if snap.turn is None or p.turn_group(t.name) == snap.turn:
                names = [a.name for a in t.local_actions() if eval_agent_formula(p, snap, interp, a.pre, aid)]
            choices = [None] + names if self.interleaved else names or [None]
            if aid:  # the choices of its k agents, one sorted combination per orbit
                choices = [
                    tuple(((t.name, i + j), a) for j, a in enumerate(combo) if a is not None)
                    for combo in itertools.combinations_with_replacement(choices, k)
                ]
            view = choices, {
                a.name: a.kind
                for a in t.actions
                if a.kind != LOCAL
                and (aid or p.alternation is None or p.initiator_groups()[a.name] == snap.turn)
                and eval_agent_formula(p, snap, interp, a.pre, aid)
            }
            if t.name in p.self_and_env_templates():
                self.views[key] = view
        return view

    def joint(self, name: str, kind: str, eligible: tuple[tuple[str, int, int], ...]) -> list[StepVector]:
        """The vectors of `name`, of `kind`, joined by agents of the blocks
        `eligible` (template, first offset, count), one per orbit."""
        vecs = self.joints.get((name, kind, eligible))
        if vecs is None:
            sizes = [k for _t, _i, k in eligible]
            if kind == INDIVIDUAL:  # the first agent of one block
                takes = [tuple(int(b == c) for b in range(len(sizes))) for c in range(len(sizes))]
            elif self.interleaved:  # any of them: fewer first, then more from earlier blocks
                takes = sorted(itertools.product(*(range(k, -1, -1) for k in sizes)), key=sum)[1:]
            else:  # all of them
                takes = [tuple(sizes)] if sizes else []
            vecs = self.joints[name, kind, eligible] = [
                StepVector(kind, name, tuple(
                    ((t, i + j), name) for (t, i, _k), c in zip(eligible, cs) for j in range(c)
                ))
                for cs in takes
            ]
        return vecs


def _apply(tables: StepTables, snap: Snapshot, vec: StepVector) -> Snapshot:
    """The snapshot after `vec`."""
    acts: dict[str, list] = {}
    for (t, i), a in vec.agent_actions:
        acts.setdefault(t, []).append((i, a))
    env = snap.env
    if vec.env_action is not None:
        env = tables.after(tables.p.env.name, vec.env_action, env)
    return Snapshot(
        tuple([(n, tables.move(n, b, tuple(acts[n])) if n in acts else b) for n, b in snap.agents]),
        env,
        None if snap.turn is None else 1 - snap.turn,
    )


def step_vectors(tables: StepTables, snap: Snapshot) -> Iterator[StepVector]:
    """Legal global steps from `snap` (never the fully idle vector), one per
    orbit under permutations of the agents within a block, the agents of one
    template in one local state.

    Interleaved: any agents each pick one executable local action, or stay
    idle, and a synchronisation takes any non-empty subset of the willing
    agents.  Concurrent: every agent with an executable local action must
    pick one, and a synchronisation takes all willing agents.  The
    environment's local choice follows the agents' rule.

    Of each orbit, the vector emitted is the first one an enumeration of every
    vector would give, agent by agent in order, and the emitted vectors come in
    that enumeration's order: a block picks its choices sorted, a
    synchronisation takes a prefix of each block, and an individual one the
    first agent of a block."""
    blocks = []  # (template, first offset, count, what it may join), in agent order
    block_opts = []  # per block, the acting pairs of each sorted choice of its agents
    for name, pairs in snap.agents:
        t, i = tables.p.template(name), 0
        for state, k in pairs:
            opts, joins = tables.view(t, snap, i, k, state)
            blocks.append((name, i, k, joins))
            block_opts.append(opts)
            i += k
    env_choices, starts = tables.view(tables.p.env, snap)
    for env_choice in env_choices:
        for combo in itertools.product(*block_opts):
            acting = tuple(itertools.chain.from_iterable(combo))
            if env_choice is None and not acting:
                continue
            yield StepVector(LOCAL, env_choice, acting)
    # the synchronisations, then the individual ones, each in declaration order
    for kind in (SYNC, INDIVIDUAL):
        for name in [a for a, k in starts.items() if k == kind]:
            eligible = tuple((t, i, k) for t, i, k, joins in blocks if joins.get(name) == kind)
            yield from tables.joint(name, kind, eligible)


def enumerate_reachable(p: Pmas, cfg: ConcreteConfig) -> OracleResult:
    """BFS from the initial snapshot; stops at the first snapshot that meets
    the model's goal.  Ends in OVERFLOW once it has examined more than
    `cfg.max_states` successors, duplicates included.  A successor is
    examined once per orbit of step vectors (`step_vectors`), but a step may
    still have exponentially many orbits in the agent count, most of them
    leading to snapshots already seen.  With more agents than
    `cfg.max_states`, it ends in OVERFLOW before building a snapshot.
    """
    if sum(k for _t, k in cfg.counts) > cfg.max_states:
        return OracleResult(OVERFLOW)
    start = initial_snapshot(p, cfg.counts_dict())
    if eval_agent_formula(p, start, cfg.interp, p.goal):
        return OracleResult(REACHED, depth=0, run=[], states_seen=1)
    tables = StepTables(p, cfg.interp, cfg.semantics)
    # each snapshot seen, with the snapshot and step that first reached it
    parent: dict[Snapshot, Optional[tuple[Snapshot, StepVector]]] = {start: None}
    examined = 0
    frontier = [start]
    for depth in range(1, cfg.max_depth + 1):
        nxt: list[Snapshot] = []
        for snap in frontier:
            for vec in step_vectors(tables, snap):
                examined += 1
                if examined > cfg.max_states:
                    return OracleResult(OVERFLOW, states_seen=len(parent), examined=examined)
                succ = _apply(tables, snap, vec)
                if succ in parent:
                    continue
                parent[succ] = (snap, vec)
                if eval_agent_formula(p, succ, cfg.interp, p.goal):
                    run = []
                    while (step := parent[succ]) is not None:
                        succ, last = step
                        run.append(last)
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
            return eval_agent_formula(p, snap, cfg.interp, p.goal)
        want = template[i]
        for vec in step_vectors(tables, snap):
            if vec.label() != want:
                continue
            if go(i + 1, _apply(tables, snap, vec)):
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
      engine-unknown              engine exhausted its budgets
    """

    semantics: str
    engine_status: str
    engine_depth: int
    oracle_reached: bool
    classification: str
    configs_run: int
    reached_counts: Optional[tuple[tuple[str, int], ...]] = None
    # (interpretations tried per agent count, interpretations there are)
    interpretations: tuple[int, int] = (1, 1)


def cross_check(
    p: Pmas,
    semantics: str = INTERLEAVED,
    max_count: int = 3,
    oracle_depth: int = 15,
    interp_budget: Optional[int] = None,
    engine_max_depth: Optional[int] = None,
    engine_max_cubes: Optional[int] = None,
) -> CrossCheckReport:
    """Run the symbolic engine and the explicit oracle over all agent counts
    1..max_count and all (or budget-sampled) relation interpretations, and
    classify their agreement."""
    # imported per call, so that tracers and tests rebinding them after import reach these calls
    from .encoder import encode
    from .engine import DEFAULT_MAX_CUBES, DEFAULT_MAX_DEPTH, SAFE, UNSAFE, breach

    if max_count < 1:  # no configuration to run: any agreement would be vacuous
        raise ValueError(f"max_count must be at least 1, got {max_count}")
    # first, so that a budget below 1 fails before the engine runs
    interps = relation_interpretations(p, budget=interp_budget)
    abp = encode(p, semantics)
    verdict = breach(
        abp,
        max_depth=engine_max_depth if engine_max_depth is not None else DEFAULT_MAX_DEPTH,
        max_cubes=engine_max_cubes if engine_max_cubes is not None else DEFAULT_MAX_CUBES,
    )

    reached = False
    reached_counts: Optional[tuple[tuple[str, int], ...]] = None
    configs = 0
    names = [t.name for t in p.templates]
    for combo in itertools.product(range(1, max_count + 1), repeat=len(names)):
        counts = tuple(zip(names, combo))
        for interp in interps:
            cfg = ConcreteConfig(counts, interp, semantics, max_depth=oracle_depth)
            configs += 1
            if enumerate_reachable(p, cfg).status == REACHED:
                reached = True
                reached_counts = counts
                break
        if reached:
            break

    if verdict.status == SAFE:
        cls = "engine-safe-oracle-reached" if reached else "agree-safe"
    elif verdict.status == UNSAFE:
        cls = "agree-unsafe" if reached else "engine-unsafe-oracle-silent"
    else:
        cls = "engine-unknown"
    return CrossCheckReport(
        semantics=semantics,
        engine_status=verdict.status,
        engine_depth=verdict.depth,
        oracle_reached=reached,
        classification=cls,
        configs_run=configs,
        reached_counts=reached_counts,
        interpretations=(len(interps), interps.total),
    )
