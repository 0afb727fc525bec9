"""Per-layer tracing from outside the program.

The benchmark wraps the public functions of each layer by rebinding their
names in every module namespace that calls them.  A wrapper counts calls,
inclusive time, self time (inclusive time minus the time of wrapped calls made
inside it) and, where the layer can waste work, how often its result was the
useful one.  Nothing inside ``pmasafety`` changes.
"""

from __future__ import annotations

import functools


class LayerStat:
    __slots__ = ("calls", "incl_s", "self_s", "tally")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.tally = [0, 0]  # sums of what the layer's outcome function reports


# (layer name, [(module, attribute), ...], outcome or None).  Every namespace
# that calls the function is listed, because ``from x import f`` copies the
# binding into the caller's module.  An outcome maps a result to the numbers
# added to the layer's tally, e.g. (1,) for a useful result.
LAYERS = [
    ("dsl.parse_pmas", [("dsl", "parse_pmas"), ("corpus", "parse_pmas")], None),
    ("encoder.encode", [("encoder", "encode")], None),
    ("corpus.generate_corpus", [("corpus", "generate_corpus")], None),
    ("engine.breach", [("engine", "breach")], lambda v: (v.total_cubes, v.depth)),
    ("engine.preimage", [("engine", "preimage")], lambda r: (not r,)),
    ("logic.dnf", [("engine", "dnf"), ("encoder", "dnf")], None),
    ("logic.expand_cases", [("engine", "expand_cases")], None),
    ("encoder.differentiate", [("engine", "differentiate"), ("encoder", "differentiate")], None),
    ("engine.canon_cube", [("engine", "canon_cube")], None),
    ("engine.subsumes", [("engine", "subsumes")], lambda r: (r,)),
    ("engine.entailed_by", [("engine", "entailed_by")], lambda r: (r,)),
    ("logic.ground_lits_sat", [("engine", "ground_lits_sat"), ("logic", "ground_lits_sat")],
     lambda r: (not r,)),
    ("engine.init_sat", [("engine", "init_sat")], None),
    ("oracle.enumerate_reachable", [("oracle", "enumerate_reachable")],
     lambda r: (r.states_seen,)),
    ("model.eval_agent_formula", [("oracle", "eval_agent_formula")], None),
    ("oracle.replay_run_template", [("oracle", "replay_run_template")], None),
    ("oracle.relation_interpretations", [("oracle", "relation_interpretations")], None),
]
# a generator: its time is spent while it is iterated, not when it is created
GENERATOR_LAYERS = [("oracle.step_vectors", [("oracle", "step_vectors")])]


class Tracer:
    """Collects layer statistics for every call made while installed.

    `clock` gives the time spans are measured in."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.stats: dict[str, LayerStat] = {}
        self._child = [0.0]  # time of wrapped calls nested in the current span

    def _stat(self, name: str) -> LayerStat:
        return self.stats.setdefault(name, LayerStat())

    def _wrap(self, name, fn, outcome):
        st = self._stat(name)
        child = self._child
        now = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = now() - t0
                inner = child.pop()
                child[-1] += dt
                st.calls += 1
                st.incl_s += dt
                st.self_s += dt - inner
            if outcome is not None:
                for k, x in enumerate(outcome(result)):
                    st.tally[k] += x
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        st = self._stat(name)
        child = self._child
        now = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            it = fn(*args, **kwargs)
            while True:
                child.append(0.0)
                t0 = now()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = now() - t0
                    inner = child.pop()
                    child[-1] += dt
                    st.self_s += dt - inner
                    st.incl_s += dt
                yield item

        return wrapper

    def install(self, mods) -> None:
        """Rebind every traced name in the freshly imported modules `mods`."""
        for name, sites, outcome in LAYERS:
            for mod, attr in sites:
                m = getattr(mods, mod)
                setattr(m, attr, self._wrap(name, getattr(m, attr), outcome))
        for name, sites in GENERATOR_LAYERS:
            for mod, attr in sites:
                m = getattr(mods, mod)
                setattr(m, attr, self._wrap_generator(name, getattr(m, attr)))
