"""Explicit-state enumeration for bounded instances.

Ground truth for cross validation: fix agent counts and a relation
interpretation, enumerate reachable snapshots breadth first under the chosen
step semantics, and test the goal along the way.  Snapshots are canonicalised
up to permutation of same-template agents.  The fully idle action vector is
never generated.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .model import (
    ActionDecl,
    AgentId,
    INDIVIDUAL,
    LOCAL,
    Pmas,
    RelInterpretation,
    SYNC,
    Snapshot,
    eval_agent_formula,
    initial_snapshot,
)

INTERLEAVED = "interleaved"
CONCURRENT = "concurrent"


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


def _executable(p: Pmas, snap: Snapshot, interp: RelInterpretation, aid: AgentId, a: ActionDecl) -> bool:
    return eval_agent_formula(p, snap, interp, a.pre, self_id=aid)


def _env_executable(p: Pmas, snap: Snapshot, interp: RelInterpretation, a: ActionDecl) -> bool:
    return eval_agent_formula(p, snap, interp, a.pre, self_template=p.env.name)


def _apply(p: Pmas, snap: Snapshot, vec: StepVector) -> Snapshot:
    new_agents = {name: list(states) for name, states in snap.agents}
    for (t, i), a_name in vec.agent_actions:
        a = p.template(t).action(a_name)
        assert a is not None
        st = list(new_agents[t][i])
        for v, c in a.eff:
            st[p.var_slot(v)[1]] = c
        new_agents[t][i] = tuple(st)
    env = list(snap.env)
    if vec.env_action is not None:
        ea = p.env.action(vec.env_action)
        assert ea is not None
        for v, c in ea.eff:
            env[p.var_slot(v)[1]] = c
    turn = snap.turn
    if turn is not None:
        turn = 1 - turn
    return Snapshot(
        tuple((name, tuple(states)) for name, states in ((n, new_agents[n]) for n, _ in snap.agents)),
        tuple(env),
        turn,
    )


def _in_turn(p: Pmas, snap: Snapshot, template_name: str) -> bool:
    if snap.turn is None:
        return True
    return p.turn_group(template_name) == snap.turn


def step_vectors(p: Pmas, snap: Snapshot, interp: RelInterpretation, semantics: str) -> Iterator[StepVector]:
    """Legal global steps from `snap` (never the fully idle vector)."""
    ids = snap.all_ids()

    if semantics == INTERLEAVED:
        # local steps: any agents each pick one executable local action; the
        # environment may join with a local action of its own or stay idle
        agent_opts: list[list[Optional[str]]] = []
        for aid in ids:
            tmpl = p.template(aid[0])
            opts: list[Optional[str]] = [None]
            if _in_turn(p, snap, aid[0]):
                opts += [
                    a.name
                    for a in tmpl.local_actions()
                    if _executable(p, snap, interp, aid, a)
                ]
            agent_opts.append(opts)
        env_opts: list[Optional[str]] = [None]
        if _in_turn(p, snap, p.env.name):
            env_opts += [
                a.name
                for a in p.env.local_actions()
                if _env_executable(p, snap, interp, a)
            ]
        for env_choice in env_opts:
            for combo in itertools.product(*agent_opts):
                acting = tuple(
                    (aid, a) for aid, a in zip(ids, combo) if a is not None
                )
                if env_choice is None and not acting:
                    continue
                yield StepVector(LOCAL, env_choice, acting)

        # synchronizations: env plus a non-empty subset of willing agents
        for ea in p.env.actions:
            if ea.kind != SYNC:
                continue
            if p.alternation is not None and p.sync_initiator_group(ea.name) != snap.turn:
                continue
            if not _env_executable(p, snap, interp, ea):
                continue
            eligible = [
                aid
                for aid in ids
                if (a := p.template(aid[0]).action(ea.name)) is not None
                and a.kind == SYNC
                and _executable(p, snap, interp, aid, a)
            ]
            for r in range(1, len(eligible) + 1):
                for subset in itertools.combinations(eligible, r):
                    yield StepVector(SYNC, ea.name, tuple((aid, ea.name) for aid in subset))

    elif semantics == CONCURRENT:
        # local steps: every agent with an executable local action must pick
        # one; the environment likewise; all-idle is a stutter and skipped
        agent_opts = []
        for aid in ids:
            tmpl = p.template(aid[0])
            opts2 = (
                [
                    a.name
                    for a in tmpl.local_actions()
                    if _executable(p, snap, interp, aid, a)
                ]
                if _in_turn(p, snap, aid[0])
                else []
            )
            agent_opts.append(opts2 or [None])
        env_opts = (
            [
                a.name
                for a in p.env.local_actions()
                if _env_executable(p, snap, interp, a)
            ]
            if _in_turn(p, snap, p.env.name)
            else []
        ) or [None]
        for env_choice in env_opts:
            for combo in itertools.product(*agent_opts):
                acting = tuple((aid, a) for aid, a in zip(ids, combo) if a is not None)
                if env_choice is None and not acting:
                    continue
                yield StepVector(LOCAL, env_choice, acting)

        # synchronizations: forced maximal participation
        for ea in p.env.actions:
            if ea.kind != SYNC:
                continue
            if p.alternation is not None and p.sync_initiator_group(ea.name) != snap.turn:
                continue
            if not _env_executable(p, snap, interp, ea):
                continue
            eligible = tuple(
                (aid, ea.name)
                for aid in ids
                if (a := p.template(aid[0]).action(ea.name)) is not None
                and a.kind == SYNC
                and _executable(p, snap, interp, aid, a)
            )
            if eligible:
                yield StepVector(SYNC, ea.name, eligible)
    else:
        raise ValueError(f"unknown semantics {semantics!r}")

    # individual synchronizations: env plus exactly one agent (both semantics)
    for ea in p.env.actions:
        if ea.kind != INDIVIDUAL:
            continue
        if p.alternation is not None and p.sync_initiator_group(ea.name) != snap.turn:
            continue
        if not _env_executable(p, snap, interp, ea):
            continue
        for aid in ids:
            a = p.template(aid[0]).action(ea.name)
            if a is not None and a.kind == INDIVIDUAL and _executable(p, snap, interp, aid, a):
                yield StepVector(INDIVIDUAL, ea.name, ((aid, ea.name),))


def enumerate_reachable(p: Pmas, cfg: ConcreteConfig, goal=None) -> OracleResult:
    """BFS from the initial snapshot; stops at the first goal hit.

    `goal` defaults to the model's own goal formula.
    """
    goal = goal if goal is not None else p.goal
    start = initial_snapshot(p, cfg.counts_dict()).canonical()
    if eval_agent_formula(p, start, cfg.interp, goal):
        return OracleResult(REACHED, depth=0, run=[], states_seen=1)
    seen = {start}
    frontier: list[tuple[Snapshot, list[StepVector]]] = [(start, [])]
    for depth in range(1, cfg.max_depth + 1):
        nxt: list[tuple[Snapshot, list[StepVector]]] = []
        for snap, run in frontier:
            for vec in step_vectors(p, snap, cfg.interp, cfg.semantics):
                succ = _apply(p, snap, vec).canonical()
                if succ in seen:
                    continue
                seen.add(succ)
                if len(seen) > cfg.max_states:
                    return OracleResult(OVERFLOW, states_seen=len(seen))
                if eval_agent_formula(p, succ, cfg.interp, goal):
                    return OracleResult(REACHED, depth=depth, run=run + [vec], states_seen=len(seen))
                nxt.append((succ, run + [vec]))
        if not nxt:
            break
        frontier = nxt
    return OracleResult(SILENT, states_seen=len(seen))


# ---------------------------------------------------------------------------
# run-template replay


VALID = "VALID"
INVALID = "INVALID"


@dataclass
class ReplayResult:
    status: str
    steps_matched: int
    final: Optional[Snapshot] = None


def replay_run_template(
    p: Pmas,
    template: list[frozenset[str]],
    cfg: ConcreteConfig,
    goal=None,
) -> ReplayResult:
    """Check that a sequence of committed-action sets is executable and ends in
    the goal.

    Each entry names the set of distinct actions committed in one global step;
    any number of agents may carry them.  The search branches over all matching
    legal vectors; VALID iff some completion reaches a goal snapshot.
    """
    goal = goal if goal is not None else p.goal
    snaps = [initial_snapshot(p, cfg.counts_dict())]
    best = 0

    def go(i: int, snap: Snapshot) -> bool:
        nonlocal best
        best = max(best, i)
        if i == len(template):
            return eval_agent_formula(p, snap, cfg.interp, goal)
        want = template[i]
        for vec in step_vectors(p, snap, cfg.interp, cfg.semantics):
            if vec.label() != want:
                continue
            if go(i + 1, _apply(p, snap, vec)):
                return True
        return False

    start = snaps[0]
    if go(0, start):
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
        stride = max(1, -(-total // budget))
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
    goal=None,
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
    from dataclasses import replace

    from .encoder import encode
    from .engine import DEFAULT_MAX_CUBES, DEFAULT_MAX_DEPTH, SAFE, UNSAFE, breach

    if goal is not None:
        p = replace(p, goal=goal)
    abp = encode(p, semantics)
    verdict = breach(
        abp,
        max_depth=engine_max_depth if engine_max_depth is not None else DEFAULT_MAX_DEPTH,
        max_cubes=engine_max_cubes if engine_max_cubes is not None else DEFAULT_MAX_CUBES,
    )

    interps = relation_interpretations(p, budget=interp_budget)
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
