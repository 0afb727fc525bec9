"""No run leaves state behind in a module: every cache lives on the object it
serves, so one check cannot slow down or change the next.  The one table
beyond a run, each kernel class's intern table, holds its values weakly, so
it holds no more once the run's results are dropped."""

from __future__ import annotations

import gc
import itertools
import sys

from pmasafety import cli  # noqa: F401  (imports every module of the package)
from pmasafety import logic
from pmasafety.dsl import parse_pmas
from pmasafety.encoder import encode
from pmasafety.engine import breach
from pmasafety.model import RelInterpretation
from pmasafety.models import fixture_text
from pmasafety.oracle import ConcreteConfig, cross_check, enumerate_reachable, replay_run_template


def _module_values():
    return [
        (name, attr, v)
        for name, mod in sorted(sys.modules.items())
        if name == "pmasafety" or name.startswith("pmasafety.")
        for attr, v in vars(mod).items()
    ]


def _container_sizes() -> dict:
    return {
        (name, attr): len(v)
        for name, attr, v in _module_values()
        if isinstance(v, (dict, list, set))
    }


def test_runs_leave_no_module_level_state():
    cannon = parse_pmas(fixture_text("cannon"), "cannon")
    trains = parse_pmas(fixture_text("trains"), "trains")
    before = _container_sizes()
    breach(encode(cannon, "interleaved"))
    breach(encode(trains, "interleaved"))
    cross_check(cannon, max_count=1, interp_budget=2)
    # every precondition of trains reads only self and e, so its steps come
    # from the kept views, which must live on the search's own tables
    counts = (("PTrain", 2), ("NTrain", 2))
    for semantics in ("interleaved", "concurrent"):
        enumerate_reachable(trains, ConcreteConfig(counts, RelInterpretation(), semantics))
    replay_run_template(
        trains, [frozenset({"p_enter"}), frozenset({"n_enter"})], ConcreteConfig(counts)
    )
    counters = [(n, a) for n, a, v in _module_values() if isinstance(v, itertools.count)]
    assert counters == []
    assert _container_sizes() == before


def _intern_sizes() -> dict:
    gc.collect()
    return {cls.__name__: len(cls._table) for cls in logic._Hashed.__subclasses__()}


def test_intern_tables_drop_what_runs_leave():
    cannon = parse_pmas(fixture_text("cannon"), "cannon")
    before = _intern_sizes()
    assert set(before) == {"IndexVar", "Const", "GlobalRef", "ArrayRead", "Eq", "RelAtom", "Lit"}
    verdict = breach(encode(cannon, "interleaved"))
    report = cross_check(cannon, max_count=1, interp_budget=2)
    lits = {l for layer in verdict.layers for c in layer.cubes for l in c.lits}
    assert lits and all(logic.Lit(l.neg, l.atom) is l for l in lits)  # interned while alive
    del lits
    del verdict, report
    assert _intern_sizes() == before
