"""Command-line driver.

Subcommands: check, encode, emit-mcmt, oracle, explain-witness, cross-check.
Reports are line-oriented ``key: value`` pairs on stdout; diagnostics go to
stderr.  Exit codes: 0 SAFE / agreement, 1 UNSAFE / failure, 2 UNKNOWN,
3 input error, 4 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from dataclasses import replace
from typing import Optional, Sequence, TextIO

from .dsl import parse_formula, parse_pmas_at
from .encoder import INTERLEAVED, encode
from .engine import (
    DEFAULT_MAX_CUBES,
    DEFAULT_MAX_DEPTH,
    SAFE,
    UNKNOWN,
    UNSAFE,
    Verdict,
    breach,
    check_locality,
    extract_run_template,
)
from .logic import BudgetError
from .mcmt import emit_mcmt, explain_witness, parse_mcmt_witness
from .model import NOP, PHASE_SORT, Diagnostic, ModelError, Pmas, RelInterpretation, goal_errors
from .oracle import (
    ConcreteConfig,
    OVERFLOW,
    REACHED,
    cross_check,
    enumerate_reachable,
)

EXIT_SAFE = 0
EXIT_UNSAFE = 1
EXIT_UNKNOWN = 2
EXIT_INPUT_ERROR = 3
EXIT_INTERNAL_ERROR = 4

_STATUS_EXIT = {SAFE: EXIT_SAFE, UNSAFE: EXIT_UNSAFE, UNKNOWN: EXIT_UNKNOWN}

# cross-check samples relation interpretations beyond this many: a model with
# k relation cells has 2**k of them
DEFAULT_INTERP_BUDGET = 64


class InputError(Exception):
    pass


def _load_model(path: str) -> Pmas:
    return _load_model_at(path)[0]


def _read_text(path: str, what: str) -> str:
    """The text of the `what` file at `path`, UTF-8 with universal newlines;
    an input error naming the file if it cannot be read or, with the offset
    of the first bad byte, if it is not UTF-8."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {what} file: {e}") from e
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise InputError(f"{what} file {path} is not UTF-8: {e.reason} at byte {e.start}") from e
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _load_model_at(path: str) -> tuple[Pmas, dict]:
    """The model in the file at `path`, and where its declarations are
    (`parse_pmas_at`)."""
    src = _read_text(path, "model")
    name = re.sub(r"\.[^.]*$", "", path.rsplit("/", 1)[-1])
    return parse_pmas_at(src, name=name)


def _apply_goal(p: Pmas, goal_src: Optional[str]) -> Pmas:
    """`p` with the `--goal` formula as its goal, if one is given.  Every
    command reads `--goal` here, so an empty or malformed one, or one that
    fails the checks of the model's own goal, is an input error everywhere,
    positioned in the formula (a failed check at its start)."""
    if goal_src is None:
        return p
    goal = parse_formula(goal_src)
    errors = goal_errors(p, goal)
    if errors:
        raise ModelError([Diagnostic(1, 1, f"--goal: {e}") for e in errors])
    return replace(p, goal=goal)


def _parse_counts(p: Pmas, text: Optional[str]) -> tuple[tuple[str, int], ...]:
    known = [t.name for t in p.templates]
    if text is None:
        return tuple((t, 2) for t in known)
    counts = dict((t, 0) for t in known)
    named: set[str] = set()
    for part in text.split(","):
        if "=" not in part:
            raise InputError(f"bad --counts entry {part!r}; expected T=k")
        t, _, k = part.partition("=")
        t = t.strip()
        if t not in counts:
            raise InputError(f"--counts names unknown template {t!r}")
        if t in named:
            raise InputError(f"--counts names template {t!r} twice")
        named.add(t)
        try:
            counts[t] = int(k)
        except ValueError as e:
            raise InputError(f"bad count {k!r} for template {t}") from e
        if counts[t] < 0:
            raise InputError(f"--counts: negative count {counts[t]} for template {t}")
    return tuple(counts.items())


def _check_non_negative(args) -> None:
    for dest in ("max_depth", "max_cubes", "oracle_depth"):
        v = getattr(args, dest, None)
        if v is not None and v < 0:
            raise InputError(f"--{dest.replace('_', '-')} must not be negative, got {v}")


_INTERP_LINE = re.compile(r"^\s*(\w+)\s*\(\s*([^)]*?)\s*\)\s*$")


def _load_interp(p: Pmas, path: Optional[str]) -> RelInterpretation:
    if path is None:
        return RelInterpretation()
    rels = {r.name: r.arg_sorts for r in p.relations}
    cells = []
    for ln, line in enumerate(_read_text(path, "interpretation").split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        m = _INTERP_LINE.match(line)
        if m is None:
            raise InputError(f"{path}:{ln}: expected R(c1, ..., cm)")
        rel = m.group(1)
        if rel not in rels:
            raise InputError(f"{path}:{ln}: unknown relation {rel!r}")
        args = tuple(a.strip() for a in m.group(2).split(",")) if m.group(2) else ()
        if len(args) != len(rels[rel]):
            raise InputError(
                f"{path}:{ln}: {rel} takes {len(rels[rel])} arguments, got {len(args)}"
            )
        for a, sort in zip(args, rels[rel]):
            if p.const_sort(a) != sort:
                raise InputError(f"{path}:{ln}: {a!r} is not a constant of sort {sort}")
        cells.append((rel, args))
    return RelInterpretation.of(cells)


def _open_out(path: str) -> TextIO:
    """`path` opened for writing.  Commands open their output before any
    work, so an unwritable path is an input error, not a crash after it."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot write {path}: {e.strerror}") from e


def _kv(key: str, value) -> None:
    print(f"{key}: {value}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args) -> int:
    p = _apply_goal(_load_model(args.model), args.goal)
    with _open_out(args.trace_out) if args.trace_out else contextlib.nullcontext() as trace_out:
        try:
            abp = encode(p, args.semantics)
        except BudgetError as e:  # the goal's DNF passed its budget: no search runs
            abp, v = None, Verdict(UNKNOWN, depth=0, reason=f"goal encoding: {e}")
        else:
            v = breach(abp, max_depth=args.max_depth, max_cubes=args.max_cubes)
        _kv("model", p.name)
        _kv("semantics", args.semantics)
        _kv("status", v.status)
        _kv("depth", v.depth)
        _kv("cubes", v.total_cubes)
        if v.reason:
            _kv("reason", v.reason)
        if v.status == UNSAFE:
            _kv("run-template", " ".join("[" + ",".join(sorted(s)) + "]" for s in v.run_template))
        if abp is not None:
            loc = check_locality(abp)
            _kv("goal-local", loc.goal_local)
            _kv("protocols-local", loc.protocols_local)
            _kv("guaranteed-termination", loc.guaranteed_termination)
            _kv("spurious-unsafe-possible", loc.spurious_unsafe_possible)
        if trace_out is not None:
            for st in v.trace:
                trace_out.write(json.dumps({
                    "rule": st.rule_label, "kind": st.kind,
                    "template": st.template, "action": st.action,
                }) + "\n")
    return _STATUS_EXIT[v.status]


def _cmd_encode(args) -> int:
    p = _apply_goal(_load_model(args.model), args.goal)
    abp = encode(p, args.semantics)
    _kv("model", p.name)
    _kv("semantics", args.semantics)
    _kv("rules", len(abp.rules))
    _kv("phases", " ".join(abp.sig.sorts[PHASE_SORT].constants))
    _kv("globals", " ".join(abp.sig.globals))
    _kv("arrays", " ".join(abp.sig.arrays))
    _kv("goal-cubes", len(abp.goal.cubes))
    for k, r in enumerate(abp.rules, start=1):
        _kv(f"rule-{k}", r.label)
    return EXIT_SAFE


def _mcmt_model(args) -> tuple[Pmas, dict]:
    """The model to render in MCMT, `--goal` applied, and where its
    declarations are; any semantics but interleaved is refused first."""
    if args.semantics != INTERLEAVED:
        raise InputError(f"--semantics {args.semantics}: "
                         "MCMT emission supports interleaved semantics only")
    p, at = _load_model_at(args.model)
    p = _apply_goal(p, args.goal)
    if args.goal is not None:  # positioned as every other `--goal` diagnostic
        at = {**at, "goal": (1, 1)}
    return p, at


def _cmd_emit_mcmt(args) -> int:
    p, at = _mcmt_model(args)
    with _open_out(args.out) if args.out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(emit_mcmt(encode(p, args.semantics), at))
    return EXIT_SAFE


def _cmd_oracle(args) -> int:
    p = _apply_goal(_load_model(args.model), args.goal)
    cfg = ConcreteConfig(
        counts=_parse_counts(p, args.counts),
        interp=_load_interp(p, args.interp),
        semantics=args.semantics,
        max_depth=args.max_depth,
    )
    res = enumerate_reachable(p, cfg)
    _kv("model", p.name)
    _kv("semantics", args.semantics)
    _kv("counts", ",".join(f"{t}={k}" for t, k in cfg.counts))
    _kv("status", res.status)
    _kv("states", res.states_seen)
    _kv("examined", res.examined)
    if res.status == REACHED:
        _kv("depth", res.depth)
        assert res.run is not None
        for k, vec in enumerate(res.run, start=1):
            _kv(f"step-{k}", ",".join(sorted(vec.label())) or NOP)
        return EXIT_UNSAFE
    return EXIT_UNKNOWN if res.status == OVERFLOW else EXIT_SAFE


def _cmd_explain_witness(args) -> int:
    p, at = _mcmt_model(args)
    abp = encode(p, args.semantics)
    emit_mcmt(abp, at)  # the ordinals number its transitions: refuse what it refuses
    tokens = parse_mcmt_witness(args.witness)
    steps = explain_witness(tokens, abp.rules)
    try:
        tmpl = extract_run_template(steps)
    except RuntimeError as e:
        raise InputError(f"witness is not a complete run: {e}") from e
    _kv("model", p.name)
    _kv("tokens", len(tokens))
    for k, st in enumerate(steps, start=1):
        _kv(f"step-{k}", st.rule_label)
    _kv("run-template", " ".join("[" + ",".join(sorted(s)) + "]" for s in tmpl))
    return EXIT_SAFE


def _cmd_cross_check(args) -> int:
    for dest in ("max_count", "interp_budget"):
        v = getattr(args, dest)
        if v < 1:
            raise InputError(f"--{dest.replace('_', '-')} must be at least 1, got {v}")
    p = _apply_goal(_load_model(args.model), args.goal)
    r = cross_check(
        p,
        semantics=args.semantics,
        max_count=args.max_count,
        oracle_depth=args.oracle_depth,
        interp_budget=args.interp_budget,
        engine_max_depth=args.max_depth,
        engine_max_cubes=args.max_cubes,
    )
    _kv("model", p.name)
    _kv("semantics", r.semantics)
    _kv("engine-status", r.engine_status)
    _kv("oracle-reached", r.oracle_reached)
    _kv("configs", r.configs_run)
    tried, total = r.interpretations
    _kv("interpretations", f"exhaustive {total}" if tried == total else f"sampled {tried} of {total}")
    _kv("classification", r.classification)
    if r.classification in ("agree-safe", "agree-unsafe"):
        return EXIT_SAFE
    if r.classification == "engine-unknown":
        return EXIT_UNKNOWN
    if r.classification == "oracle-overflow":
        at = ",".join(f"{t}={k}" for t, k in r.overflow_counts)
        _kv("reason", f"the oracle search at {at} overflowed, "
            "and no configuration reached the goal")
        return EXIT_UNKNOWN
    if r.classification == "engine-unsafe-oracle-silent" and r.semantics == "concurrent":
        return EXIT_SAFE  # permitted: the concurrent encoding over-approximates
    return EXIT_UNSAFE


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("model", help="model file in the surface DSL")
    sp.add_argument("--semantics", choices=("interleaved", "concurrent"),
                    default="interleaved")
    sp.add_argument("--goal", help="formula overriding the model's goal")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pmasafety",
        description="Safety verification of parameterised multi-agent systems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="symbolic backward-reachability verdict")
    _add_common(sp)
    sp.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)
    sp.add_argument("--max-cubes", type=int, default=DEFAULT_MAX_CUBES)
    sp.add_argument("--trace-out", help="write the UNSAFE rule trace as JSON lines")
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("encode", help="summarize the array-based encoding")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_encode)

    sp = sub.add_parser("emit-mcmt", help="write the MCMT rendition")
    _add_common(sp)
    sp.add_argument("--out", help="output path (default: stdout)")
    sp.set_defaults(fn=_cmd_emit_mcmt)

    about = (f"explicit-state enumeration for fixed counts; OVERFLOW (exit 2) after "
             f"{ConcreteConfig.max_states} examined successors, one per orbit of steps "
             "under permutations of interchangeable agents")
    sp = sub.add_parser("oracle", help=about, description=about)
    _add_common(sp)
    sp.add_argument("--counts", help="agent counts, e.g. Att=2; a template it does not "
                    "name gets 0 (without --counts: 2 each)")
    sp.add_argument("--interp", help="relation interpretation file, one R(c1,...) per line")
    sp.add_argument("--max-depth", type=int, default=15)
    sp.set_defaults(fn=_cmd_oracle)

    sp = sub.add_parser("explain-witness", help="decode an MCMT witness string")
    _add_common(sp)
    sp.add_argument("witness", help='witness string, e.g. "[t2][t17]"')
    sp.set_defaults(fn=_cmd_explain_witness)

    sp = sub.add_parser("cross-check", help="engine vs bounded-oracle agreement")
    _add_common(sp)
    sp.add_argument("--max-count", type=int, default=3)
    sp.add_argument("--oracle-depth", type=int, default=15)
    sp.add_argument("--interp-budget", type=int, default=DEFAULT_INTERP_BUDGET,
                    help="most relation interpretations to try per agent count, "
                    f"evenly spaced (default {DEFAULT_INTERP_BUDGET})")
    sp.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)
    sp.add_argument("--max-cubes", type=int, default=DEFAULT_MAX_CUBES)
    sp.set_defaults(fn=_cmd_cross_check)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:  # argparse printed its help (0) or a usage error (2)
        return EXIT_INPUT_ERROR if e.code else EXIT_SAFE
    try:
        _check_non_negative(args)
        code = args.fn(args)
        sys.stdout.flush()  # a closed standard output fails here, not at exit
        return code
    except BrokenPipeError as e:  # what the buffer holds goes to the null device at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write standard output: {e.strerror}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ModelError as e:
        for d in e.diagnostics:
            print(f"error:{d.line}:{d.col}: {d.message}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BudgetError as e:  # a budget of the encoding, as the goal's DNF
        print(f"unknown: {e}", file=sys.stderr)
        return EXIT_UNKNOWN
    except Exception as e:  # a bug, never a verdict: keep it off codes 0-2
        msg = " ".join(str(e).split())
        print(f"internal error: {type(e).__name__}: {msg}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
