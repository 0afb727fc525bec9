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
import re
import sys
from dataclasses import replace
from typing import Optional, Sequence, TextIO

from .dsl import parse_formula, parse_pmas
from .encoder import EncodingError, encode, encode_goal
from .engine import (
    DEFAULT_MAX_CUBES,
    DEFAULT_MAX_DEPTH,
    SAFE,
    UNKNOWN,
    UNSAFE,
    breach,
    check_locality,
    extract_run_template,
)
from .mcmt import McmtError, emit_mcmt, explain_witness, parse_mcmt_witness
from .model import ModelError, Pmas, RelInterpretation
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
    try:
        with open(path, encoding="utf-8") as fh:
            src = fh.read()
    except OSError as e:
        raise InputError(f"cannot read model file: {e}") from e
    name = re.sub(r"\.[^.]*$", "", path.rsplit("/", 1)[-1])
    return parse_pmas(src, name=name)


def _apply_goal(p: Pmas, goal_src: Optional[str]) -> Pmas:
    if goal_src is None:
        return p
    return replace(p, goal=parse_formula(goal_src))


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
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise InputError(f"cannot read interpretation file: {e}") from e
    for ln, line in enumerate(lines, start=1):
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
        abp = encode(p, args.semantics)
        v = breach(abp, max_depth=args.max_depth, max_cubes=args.max_cubes)
        loc = check_locality(abp)
        _kv("model", p.name)
        _kv("semantics", args.semantics)
        _kv("status", v.status)
        _kv("depth", v.depth)
        _kv("cubes", v.total_cubes)
        if v.reason:
            _kv("reason", v.reason)
        if v.status == UNSAFE:
            _kv("run-template", " ".join("[" + ",".join(sorted(s)) + "]" for s in v.run_template))
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
    goal = encode_goal(p, abp.sig)
    _kv("model", p.name)
    _kv("semantics", args.semantics)
    _kv("rules", len(abp.rules))
    _kv("phases", " ".join(abp.sig.sorts["Phase"].constants))
    _kv("globals", " ".join(abp.sig.globals))
    _kv("arrays", " ".join(abp.sig.arrays))
    _kv("goal-cubes", len(goal.cubes))
    for k, r in enumerate(abp.rules, start=1):
        _kv(f"rule-{k}", r.label)
    return EXIT_SAFE


def _cmd_emit_mcmt(args) -> int:
    p = _apply_goal(_load_model(args.model), args.goal)
    with _open_out(args.out) if args.out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(emit_mcmt(encode(p, args.semantics)))
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
    if res.status == REACHED:
        _kv("depth", res.depth)
        assert res.run is not None
        for k, vec in enumerate(res.run, start=1):
            _kv(f"step-{k}", ",".join(sorted(vec.label())) or "nop")
        return EXIT_UNSAFE
    return EXIT_UNKNOWN if res.status == OVERFLOW else EXIT_SAFE


def _cmd_explain_witness(args) -> int:
    p = _apply_goal(_load_model(args.model), args.goal)
    abp = encode(p, args.semantics)
    tokens = parse_mcmt_witness(args.witness)
    steps = explain_witness(tokens, abp.rules)
    _kv("model", p.name)
    _kv("tokens", len(tokens))
    for k, st in enumerate(steps, start=1):
        _kv(f"step-{k}", st.rule_label)
    try:
        tmpl = extract_run_template(steps)
    except RuntimeError as e:
        raise InputError(f"witness is not a complete run: {e}") from e
    _kv("run-template", " ".join("[" + ",".join(sorted(s)) + "]" for s in tmpl))
    return EXIT_SAFE


def _cmd_cross_check(args) -> int:
    for dest in ("max_count", "interp_budget"):
        v = getattr(args, dest)
        if v < 1:
            raise InputError(f"--{dest.replace('_', '-')} must be at least 1, got {v}")
    p = _load_model(args.model)
    goal = parse_formula(args.goal) if args.goal else None
    r = cross_check(
        p,
        goal=goal,
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

    sp = sub.add_parser("oracle", help="explicit-state enumeration for fixed counts; OVERFLOW "
                        f"(exit 2) after {ConcreteConfig.max_states} examined successors")
    _add_common(sp)
    sp.add_argument("--counts", help="agent counts, e.g. Att=2 (default 2 each)")
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
        return args.fn(args)
    except (ModelError, EncodingError, McmtError) as e:
        for d in e.diagnostics:
            print(f"error:{d.line}:{d.col}: {d.message}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as e:  # a bug, never a verdict: keep it off codes 0-2
        msg = " ".join(str(e).split())
        print(f"internal error: {type(e).__name__}: {msg}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
