"""No run leaves state behind in a module: every cache lives on the object it
serves, so one check cannot slow down or change the next."""

from __future__ import annotations

import itertools
import sys

from pmasafety import cli  # noqa: F401  (imports every module of the package)
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
