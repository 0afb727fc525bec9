"""Time-to-verdict benchmark for pmasafety.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 20 --trace 0

Runs one workload against the checkout's ``src/`` for about ``--seconds``
seconds, in passes.  Each pass imports ``pmasafety`` afresh, so every pass
starts from the module state a new process has, sets the workload up (timed as
``setup_s``) and runs its checks once.  Every verdict is compared to its
recorded answer.  Times are read on the ``SpeedClock`` of ``clock.py``: wall
time scaled to the machine's nominal speed, so that a neighbour's load on a
shared machine does not read as a change in the program.

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``.
With ``--trace 1`` untraced and traced passes alternate; the metrics are the
per-layer ones, averaged over the traced passes, plus the tracing overhead.

Output: ``key: value unit`` lines for people, then, as the last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status: 0 when every check matched, 1 when one did not, 2 when the
checkout has no program to run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from clock import SpeedClock  # noqa: E402
from layers import Tracer  # noqa: E402
from workloads import CORPUS_SEED, WORKLOADS  # noqa: E402

MODULES = ("dsl", "encoder", "engine", "logic", "model", "oracle", "corpus", "models")
MIN_SETUPS = 5  # setup_s is the median of at least this many fresh set-ups
TAIL_BEYOND = 10  # check_s.tail has at least this many checks above it


class Recorder:
    """Times checks and compares every verdict with its recorded answer."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.times: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.between = 0.0  # clock time spent between checks, left out of passes
        self.between_wall = 0.0

    def _settle(self) -> None:
        """Start each check from a collected heap, so where the collector's
        pauses fall does not depend on the order of the checks, and from a
        fresh speed reading, which a check shorter than a probe interval
        would otherwise lack."""
        w0, t0 = perf_counter(), self.clock()
        gc.collect()
        self.clock.resync()
        self.between += self.clock() - t0
        self.between_wall += perf_counter() - w0

    def _run(self, label, summarize, expect, fn, args, kwargs):
        self.attempted += 1
        self._settle()
        t0 = self.clock()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # a check that raises is a failed check; the run goes on
            self.failures.append(f"{label}: raised\n{traceback.format_exc()}")
            return None, None
        dt = self.clock() - t0
        got = summarize(result)
        problem = expect(got) if callable(expect) else (
            None if got == expect else f"got {got}, recorded {expect}"
        )
        if problem is not None:
            self.failures.append(f"{label}: {problem}")
            return None, None
        return result, dt

    def check(self, label, summarize, expect, fn, *args, **kwargs):
        """One call that gives a verdict; its time is a per-check sample."""
        result, dt = self._run(label, summarize, expect, fn, args, kwargs)
        if dt is not None:
            self.times.setdefault(label, []).append(dt)
        return result

    def follow_up(self, label, summarize, expect, fn, *args, **kwargs):
        """An oracle call that confirms a verdict; timed only within the pass."""
        return self._run(label, summarize, expect, fn, args, kwargs)[0]


def fresh_modules() -> SimpleNamespace:
    for name in [n for n in sys.modules if n == "pmasafety" or n.startswith("pmasafety.")]:
        del sys.modules[name]
    return SimpleNamespace(**{n: importlib.import_module(f"pmasafety.{n}") for n in MODULES})


class Run:
    """One run of one workload: its set-ups, passes and recorded checks."""

    def __init__(self, args, clock) -> None:
        self.workload = args.workload
        self.corpus_seed = args.corpus_seed
        self.rng = random.Random(args.seed)
        self.clock = clock
        self.rec = Recorder(clock)
        self.wall: list[float] = []  # wall time of each pass

    def set_up(self, tracer=None):
        """Import afresh, optionally trace, and set the workload up."""
        gc.collect()
        t0 = self.clock()
        m = fresh_modules()
        if tracer is not None:
            tracer.install(m)
        inputs = WORKLOADS[self.workload][0](m, self.corpus_seed)
        return self.clock() - t0, m, inputs

    def run_pass(self, tracer=None) -> float:
        _, m, inputs = self.set_up(tracer)
        return self.timed_pass(m, inputs)

    def timed_pass(self, m, inputs) -> float:
        """The pass's time, less what the recorder does between its checks."""
        rec = self.rec
        gc.collect()
        b0, bw0 = rec.between, rec.between_wall
        w0, t0 = perf_counter(), self.clock()
        WORKLOADS[self.workload][1](m, inputs, self.rng, rec)
        dt = self.clock() - t0 - (rec.between - b0)
        self.wall.append(perf_counter() - w0 - (rec.between_wall - bw0))
        return dt


def check_times(rec: Recorder) -> tuple[float, float, str]:
    """p50 and tail over the checks, each check taken at its median time.

    The tail is the time with at least TAIL_BEYOND checks above it; a workload
    with fewer checks than that reports its slowest check."""
    per_check = sorted(statistics.median(ts) for ts in rec.times.values())
    n = len(per_check)
    if n > TAIL_BEYOND:
        k = n - 1 - TAIL_BEYOND
        note = f"p{100 * (k + 1) / n:.1f}, {TAIL_BEYOND} of {n} checks beyond"
    else:
        k = n - 1
        note = f"slowest of {n} checks, 0 beyond"
    return statistics.median(per_check), per_check[k], note


def end_to_end(s: Run, seconds: float):
    setups, passes = [], []
    start = perf_counter()
    while True:
        setup_s, m, inputs = s.set_up()
        setups.append(setup_s)
        passes.append(s.timed_pass(m, inputs))
        del m, inputs
        if len(passes) == 1:
            # later passes raise the peak only by the allocator's fragmentation,
            # which would make it depend on how many passes fit in the run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if perf_counter() - start + statistics.median(s.wall) > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(s.set_up()[0])
    p50, tail, tail_note = check_times(s.rec) if s.rec.times else (0.0, 0.0, "no checks")
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(passes),
        "check_s.p50": p50,
        "check_s.tail": tail,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "passes": len(passes),
        "setups": len(setups),
        "check_s.tail": tail_note,
        "run_s on the wall clock": f"{statistics.median(s.wall):.6g} s",
    }
    return metrics, notes


def _frac(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(s: Run, seconds: float):
    tracer = Tracer(s.clock)
    plain, traced = [], []
    start = perf_counter()
    while True:
        plain.append(s.run_pass())
        traced.append(s.run_pass(tracer))
        if perf_counter() - start + 2 * statistics.median(s.wall) > seconds:
            break

    n = len(traced)
    st = tracer.stats
    out: dict[str, float] = {}
    for name, x in st.items():
        out[f"{name}.calls"] = x.calls / n
        out[f"{name}.s"] = x.incl_s / n
        out[f"{name}.self_s"] = x.self_s / n

    def useful(name: str) -> float:
        return _frac(st[name].tally[0], st[name].calls)

    out["engine.preimage.empty_frac"] = useful("engine.preimage")
    out["engine.subsumes.hit_frac"] = useful("engine.subsumes")
    out["engine.entailed_by.proved_frac"] = useful("engine.entailed_by")
    out["logic.ground_lits_sat.unsat_frac"] = useful("logic.ground_lits_sat")
    out["engine.cubes_total"] = st["engine.breach"].tally[0] / n
    out["engine.depth"] = st["engine.breach"].tally[1] / n
    reach = st["oracle.enumerate_reachable"]
    out["oracle.states"] = reach.tally[0] / n
    out["oracle.states_per_s"] = _frac(reach.tally[0], reach.incl_s)
    out["run.traced_s"] = statistics.median(traced)
    out["run.untraced_s"] = statistics.median(plain)
    out["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    return out, {"pairs": n}


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {x["name"]: x["unit"] for x in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="orders the checks of each pass")
    ap.add_argument("--seconds", type=float, required=True, help="how long to run passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus-seed", type=int, default=CORPUS_SEED,
                    help="base seed of the generated corpus (default: the recorded one)")
    args = ap.parse_args(argv)
    if not (SRC / "pmasafety" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'pmasafety'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    units = declared_metrics(bool(args.trace))
    clock = SpeedClock()
    bench = Run(args, clock)
    clock.start()
    try:
        values, notes = (per_layer if args.trace else end_to_end)(bench, args.seconds)
    finally:
        clock.stop()
    notes["machine speed"] = f"{clock.speed():.3f} of nominal (median of {len(clock.probes)} probes)"
    rec = bench.rec
    if set(values) != set(units):
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: extra {sorted(set(values) - set(units))}, "
            f"missing {sorted(set(units) - set(values))}"
        )

    failed = len(rec.failures)
    for f in rec.failures:
        print(f"MISMATCH {f}", file=sys.stderr)
    print(f"workload: {args.workload}")
    for k, v in notes.items():
        print(f"{k}: {v}")
    for k in units:
        print(f"{k}: {values[k]:.6g} {units[k]}")
    print(f"failed_frac: {_frac(failed, rec.attempted):.6g} ({failed} of {rec.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": rec.attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
