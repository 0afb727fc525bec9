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
from dataclasses import dataclass
from typing import Iterator, Optional

from .encoder import CONCURRENT, INTERLEAVED
from .model import (
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
    """Legal global steps from `snap` (never the fully idle vector).

    Interleaved: any agents each pick one executable local action, or stay
    idle, and a synchronisation takes any non-empty subset of the willing
    agents.  Concurrent: every agent with an executable local action must
    pick one, and a synchronisation takes all willing agents.  The
    environment's local choice follows the agents' rule."""
    if semantics not in (INTERLEAVED, CONCURRENT):
        raise ValueError(f"unknown semantics {semantics!r}")
    interleaved = semantics == INTERLEAVED
    ids = snap.all_ids()

    def choices(aid: Optional[AgentId]) -> list[Optional[str]]:
        """The local choices of agent `aid`, or of the environment if None."""
        t = p.env if aid is None else p.template(aid[0])
        names = []
        if _in_turn(p, snap, t.name):
            names = [
                a.name
                for a in t.local_actions()
                if eval_agent_formula(p, snap, interp, a.pre, self_id=aid)
            ]
        return [None] + names if interleaved else names or [None]

    agent_opts = [choices(aid) for aid in ids]
    env_opts = choices(None)
    for env_choice in env_opts:
        for combo in itertools.product(*agent_opts):
            acting = tuple((aid, a) for aid, a in zip(ids, combo) if a is not None)
            if env_choice is None and not acting:
                continue
            yield StepVector(LOCAL, env_choice, acting)

    def joiners(kind: str) -> Iterator[tuple[str, list[AgentId]]]:
        """Each environment action of `kind` that may start now, with the
        agents able to join it."""
        for ea in p.env.actions:
            if ea.kind != kind:
                continue
            if p.alternation is not None and p.sync_initiator_group(ea.name) != snap.turn:
                continue
            if not eval_agent_formula(p, snap, interp, ea.pre):
                continue
            yield ea.name, [
                aid
                for aid in ids
                if (a := p.template(aid[0]).action(ea.name)) is not None
                and a.kind == kind
                and eval_agent_formula(p, snap, interp, a.pre, self_id=aid)
            ]

    for name, eligible in joiners(SYNC):
        n = len(eligible)
        # every non-empty subset, or only the full one
        for r in range(1, n + 1) if interleaved else range(max(n, 1), n + 1):
            for subset in itertools.combinations(eligible, r):
                yield StepVector(SYNC, name, tuple((aid, name) for aid in subset))

    # individual synchronisations: the environment plus exactly one agent
    for name, eligible in joiners(INDIVIDUAL):
        for aid in eligible:
            yield StepVector(INDIVIDUAL, name, ((aid, name),))


def enumerate_reachable(p: Pmas, cfg: ConcreteConfig) -> OracleResult:
    """BFS from the initial snapshot; stops at the first snapshot that meets
    the model's goal.  Ends in OVERFLOW once it has examined more than
    `cfg.max_states` successors, duplicates included: a step may have
    exponentially many vectors in the agent count, most of them leading to
    snapshots already seen.
    """
    start = initial_snapshot(p, cfg.counts_dict()).canonical()
    if eval_agent_formula(p, start, cfg.interp, p.goal):
        return OracleResult(REACHED, depth=0, run=[], states_seen=1)
    seen = {start}
    examined = 0
    frontier: list[tuple[Snapshot, list[StepVector]]] = [(start, [])]
    for depth in range(1, cfg.max_depth + 1):
        nxt: list[tuple[Snapshot, list[StepVector]]] = []
        for snap, run in frontier:
            for vec in step_vectors(p, snap, cfg.interp, cfg.semantics):
                examined += 1
                if examined > cfg.max_states:
                    return OracleResult(OVERFLOW, states_seen=len(seen))
                succ = _apply(p, snap, vec).canonical()
                if succ in seen:
                    continue
                seen.add(succ)
                if eval_agent_formula(p, succ, cfg.interp, p.goal):
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
    """
    best = 0

    def go(i: int, snap: Snapshot) -> bool:
        nonlocal best
        best = max(best, i)
        if i == len(template):
            return eval_agent_formula(p, snap, cfg.interp, p.goal)
        want = template[i]
        for vec in step_vectors(p, snap, cfg.interp, cfg.semantics):
            if vec.label() != want:
                continue
            if go(i + 1, _apply(p, snap, vec)):
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
