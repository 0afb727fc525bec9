"""The benchmark's workloads: their inputs, their checks and the recorded answers.

Every workload is a set-up function, timed as ``setup_s``, and a pass function
that runs the workload's checks once through a ``Recorder``.  A check is one
call that gives a verdict (``breach`` or ``cross_check``); the oracle replay
or search that confirms an engine verdict is recorded as a follow-up, counted
in ``attempted`` and ``failed`` but not in the per-check times.

The models are fixed, because their verdicts are recorded.  ``--seed`` orders
the checks of a pass; the corpus models come from ``--corpus-seed``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import replace
from pathlib import Path

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

# a goal that needs two distinct robots; its cubes carry two index variables,
# so fixpoint detection spends its time in entailment
TWO_ROBOT_GOAL = EXPECTED["two-robot"]["goal"]

CORPUS_SEED = EXPECTED["corpus"]["corpus_seed"]
CORPUS_MODELS = EXPECTED["corpus"]["models"]
SEMANTICS = ("interleaved", "concurrent")


def verdict_summary(v) -> dict:
    return {"status": v.status, "depth": v.depth, "total_cubes": v.total_cubes}


def cross_check_summary(r) -> dict:
    return {
        "classification": r.classification,
        "engine_status": r.engine_status,
        "engine_depth": r.engine_depth,
        "configs_run": r.configs_run,
    }


def _config(m, counts: dict, max_depth: int):
    return m.oracle.ConcreteConfig(
        tuple(counts.items()), m.model.RelInterpretation(), "interleaved", max_depth=max_depth
    )


def _fixture(m, name: str):
    return m.dsl.parse_pmas(m.models.fixture_text(name), name)


# ---------------------------------------------------------------------------
# fixtures: the plain ``check`` on the bundled models


def setup_fixtures(m, corpus_seed: int) -> dict:
    out = {}
    for name in ("cannon", "trains"):
        p = _fixture(m, name)
        out[name] = (p, m.encoder.encode(p, "interleaved"))
    return out


def pass_fixtures(m, inputs: dict, rng, rec) -> None:
    exp = EXPECTED["fixtures"]
    names = ["cannon", "trains"]
    rng.shuffle(names)
    for name in names:
        p, abp = inputs[name]
        v = rec.check(name, verdict_summary, exp[name], m.engine.breach, abp)
        if name == "cannon":
            rp = exp["cannon.replay"]
            rec.follow_up(
                "cannon.replay", lambda r: r.status, rp["status"],
                m.oracle.replay_run_template,
                p, v.run_template if v else None, _config(m, rp["counts"], rp["max_depth"]),
            )


# ---------------------------------------------------------------------------
# two-robot: a goal over two distinct agents of ``cannon``


def setup_two_robot(m, corpus_seed: int):
    p = replace(_fixture(m, "cannon"), goal=m.dsl.parse_formula(TWO_ROBOT_GOAL))
    return p, m.encoder.encode(p, "interleaved")


def pass_two_robot(m, inputs, rng, rec) -> None:
    exp = EXPECTED["two-robot"]
    p, abp = inputs
    rec.check("two-robot", verdict_summary, exp["verdict"], m.engine.breach, abp)
    orc = exp["oracle"]
    rec.follow_up(
        "two-robot.oracle", lambda r: r.status, orc["status"],
        m.oracle.enumerate_reachable, p, _config(m, orc["counts"], orc["max_depth"]),
    )


# ---------------------------------------------------------------------------
# corpus: cross-check of generated models under both semantics


def setup_corpus(m, corpus_seed: int):
    return m.corpus.generate_corpus(CORPUS_MODELS, corpus_seed), corpus_seed


def _corpus_rule(semantics: str, summary: dict) -> str | None:
    """What every corpus seed must satisfy when no answer is recorded for it."""
    cls = summary["classification"]
    if semantics == "interleaved" and cls not in ("agree-safe", "agree-unsafe"):
        return cls
    if cls in ("engine-safe-oracle-reached", "engine-unknown"):
        return cls
    return None


def pass_corpus(m, inputs, rng, rec) -> None:
    models, corpus_seed = inputs
    recorded = EXPECTED["corpus"]["checks"] if corpus_seed == CORPUS_SEED else None
    cc = EXPECTED["corpus"]["cross_check"]
    order = list(models)
    rng.shuffle(order)
    # one semantics after the other, as a corpus sweep runs them: a model's
    # second check then finds what its first left in the engine's caches
    for sem in SEMANTICS:
        for seed, p in order:
            expect = recorded[sem][str(seed)] if recorded else functools.partial(_corpus_rule, sem)
            rec.check(f"corpus.{sem}.{seed}", cross_check_summary, expect,
                      m.oracle.cross_check, p, semantics=sem, **cc)


# ---------------------------------------------------------------------------
# trains-crosscheck: a SAFE model, so the oracle exhausts every configuration


def setup_trains_crosscheck(m, corpus_seed: int):
    return _fixture(m, "trains")


def pass_trains_crosscheck(m, p, rng, rec) -> None:
    exp = EXPECTED["trains-crosscheck"]
    rec.check("trains-crosscheck", cross_check_summary, exp["report"], m.oracle.cross_check, p,
              semantics="interleaved", **exp["cross_check"])


WORKLOADS = {
    "fixtures": (setup_fixtures, pass_fixtures),
    "two-robot": (setup_two_robot, pass_two_robot),
    "corpus": (setup_corpus, pass_corpus),
    "trains-crosscheck": (setup_trains_crosscheck, pass_trains_crosscheck),
}
