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
    examined: int = 0  # successors built, one per orbit of step vectors


def _apply(p: Pmas, snap: Snapshot, vec: StepVector) -> Snapshot:
    slots = p.effect_slots()
    changed: dict[str, list[tuple[str, ...]]] = {}
    for (t, i), a_name in vec.agent_actions:
        states = changed.get(t)
        if states is None:
            states = changed[t] = list(snap.agents_of(t))
        st = list(states[i])
        for k, c in slots[t, a_name]:
            st[k] = c
        states[i] = tuple(st)
    env = snap.env
    if vec.env_action is not None:
        env = list(env)
        for k, c in slots[p.env.name, vec.env_action]:
            env[k] = c
        env = tuple(env)
    turn = snap.turn
    if turn is not None:
        turn = 1 - turn
    return Snapshot(
        tuple((n, tuple(changed[n])) if n in changed else (n, ss) for n, ss in snap.agents),
        env,
        turn,
    )


def _in_turn(p: Pmas, snap: Snapshot, template_name: str) -> bool:
    if snap.turn is None:
        return True
    return p.turn_group(template_name) == snap.turn


def _blocks(snap: Snapshot) -> list[tuple[str, int, int]]:
    """The agents of `snap` as maximal runs of adjacent agents of one template
    in one local state: (template, first position, length), in agent order.
    The agents of a block are interchangeable; in a canonical snapshot a block
    holds every agent of its template in its state."""
    out = []
    for name, states in snap.agents:
        start = 0
        for i in range(1, len(states)):
            if states[i] != states[i - 1]:
                out.append((name, start, i - start))
                start = i
        if states:
            out.append((name, start, len(states) - start))
    return out


def _takes(sizes: list[int], r: int) -> Iterator[tuple[int, ...]]:
    """Every way to take `r` agents from blocks of `sizes`, as a count per
    block, with more from earlier blocks first."""
    if not sizes:
        yield ()
        return
    rest = sum(sizes) - sizes[0]
    for c in range(min(sizes[0], r), max(r - rest, 0) - 1, -1):
        for tail in _takes(sizes[1:], r - c):
            yield (c,) + tail


def step_vectors(p: Pmas, snap: Snapshot, interp: RelInterpretation, semantics: str) -> Iterator[StepVector]:
    """Legal global steps from `snap` (never the fully idle vector), one per
    orbit under permutations of the agents within a block (`_blocks`).

    Interleaved: any agents each pick one executable local action, or stay
    idle, and a synchronisation takes any non-empty subset of the willing
    agents.  Concurrent: every agent with an executable local action must
    pick one, and a synchronisation takes all willing agents.  The
    environment's local choice follows the agents' rule.

    Of each orbit, the vector emitted is the first one an enumeration of every
    vector would give, agent by agent in order, and the emitted vectors come in
    that enumeration's order: a block picks its choices sorted, a
    synchronisation takes a prefix of each block, and an individual one the
    first agent of a block.  Each precondition is evaluated once per block."""
    if semantics not in (INTERLEAVED, CONCURRENT):
        raise ValueError(f"unknown semantics {semantics!r}")
    interleaved = semantics == INTERLEAVED
    blocks = _blocks(snap)

    def choices(t, aid: Optional[AgentId]) -> list[Optional[str]]:
        """The local choices of agent `aid` of `t`, or of the environment if None."""
        names = []
        if _in_turn(p, snap, t.name):
            names = [
                a.name
                for a in t.local_actions()
                if eval_agent_formula(p, snap, interp, a.pre, self_id=aid)
            ]
        return [None] + names if interleaved else names or [None]

    # per block, the acting pairs of each sorted choice of its agents
    block_opts = [
        [
            tuple(((t, i + j), a) for j, a in enumerate(combo) if a is not None)
            for combo in itertools.combinations_with_replacement(choices(p.template(t), (t, i)), k)
        ]
        for t, i, k in blocks
    ]
    for env_choice in choices(p.env, None):
        for combo in itertools.product(*block_opts):
            acting = tuple(itertools.chain.from_iterable(combo))
            if env_choice is None and not acting:
                continue
            yield StepVector(LOCAL, env_choice, acting)

    def joiners(kind: str) -> Iterator[tuple[str, list[tuple[str, int, int]]]]:
        """Each environment action of `kind` that may start now, with the
        blocks able to join it."""
        groups = p.initiator_groups()
        for ea in p.env.actions:
            if ea.kind != kind:
                continue
            if p.alternation is not None and groups[ea.name] != snap.turn:
                continue
            if not eval_agent_formula(p, snap, interp, ea.pre):
                continue
            yield ea.name, [
                (t, i, k)
                for t, i, k in blocks
                if (a := p.template(t).action(ea.name)) is not None
                and a.kind == kind
                and eval_agent_formula(p, snap, interp, a.pre, self_id=(t, i))
            ]

    for name, eligible in joiners(SYNC):
        sizes = [k for _t, _i, k in eligible]
        n = sum(sizes)
        # every non-empty subset, or only the full one
        for r in range(1, n + 1) if interleaved else range(max(n, 1), n + 1):
            for counts in _takes(sizes, r):
                yield StepVector(SYNC, name, tuple(
                    ((t, i + j), name) for (t, i, _k), c in zip(eligible, counts) for j in range(c)
                ))

    # individual synchronisations: the environment plus exactly one agent
    for name, eligible in joiners(INDIVIDUAL):
        for t, i, _k in eligible:
            yield StepVector(INDIVIDUAL, name, (((t, i), name),))


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
                    return OracleResult(OVERFLOW, states_seen=len(seen), examined=examined)
                succ = _apply(p, snap, vec).canonical()
                if succ in seen:
                    continue
                seen.add(succ)
                if eval_agent_formula(p, succ, cfg.interp, p.goal):
                    return OracleResult(
                        REACHED, depth=depth, run=run + [vec], states_seen=len(seen), examined=examined
                    )
                nxt.append((succ, run + [vec]))
        if not nxt:
            break
        frontier = nxt
    return OracleResult(SILENT, states_seen=len(seen), examined=examined)


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
            if go(i + 1, _apply(p, snap, vec).canonical()):
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
