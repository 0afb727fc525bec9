"""MCMT text-format emission and witness-string decoding.

The emitter targets models whose encoding has a single agent template (one
index sort; the environment lives in global variables), interleaved
semantics, and at most two existential index variables per rule — the shape
the MCMT input language expresses directly with its `:var x` / `:var y`
existentials and the reserved universal index `j`.  Unsupported models are
rejected with a diagnostic rather than silently approximated.

A witness string such as "[t2][t17][t3_1]" lists 1-based transition ordinals
in the emitted file; `parse_mcmt_witness` decodes it and `explain_witness`
maps the ordinals back to the encoder's rules.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from .logic import (
    ArrayRead,
    CaseTerm,
    Const,
    Cube,
    Eq,
    GlobalRef,
    IndexVar,
    LambdaUpdate,
    Lit,
    RelAtom,
    lit_subst,
    term_subst,
)
from .model import Diagnostic, ModelError, NOP, Pmas, index_sort
from .encoder import AbPmas, INTERLEAVED, TransitionRule
from .engine import TraceStep

# the MCMT listing style spells the idle action with this name
NOP_NAME = "Nop_Action"

# names with meaning inside an MCMT file; user identifiers must avoid them
_MCMT_RESERVED = frozenset(
    ["j", "x", "y", "int", "nat", "real", "bool", "true", "false", NOP_NAME]
)

_POINT_KINDS = ("declare", "sync_start", "sync_join", "ind_sync")
_BULK_KINDS = ("bulk_local", "sync_commit")


class McmtError(ModelError):
    pass


def _err(msg: str, at: Optional[tuple[int, int]] = None) -> McmtError:
    return McmtError([Diagnostic(*(at or (0, 0)), msg)])


def _clashes(p: Pmas, at: dict) -> list[Diagnostic]:
    """A diagnostic for each name of `p` with a meaning in MCMT, at its
    declaration in `at` (`dsl.parse_pmas_at`): a sort constant, an action
    (a constant of the action sort; at its first declaration), a global (a
    variable of the environment) or an array (a variable of an agent
    template).  The names the encoding adds have none."""
    out = []

    def clash(what: str, name: str, where: object) -> None:
        if name in _MCMT_RESERVED:
            msg = f"{what} {name!r} clashes with an MCMT keyword"
            out.append(Diagnostic(*at.get(where, (0, 0)), msg))

    for k, s in enumerate(p.sorts):
        for j, c in enumerate(s.constants):
            clash("constant", c, ("sort", k, j))
    actions = set()
    for t in p.all_templates():
        for k, a in enumerate(t.actions):
            if a.name not in actions:
                actions.add(a.name)
                clash("action", a.name, (t.name, k))
    for t in (p.env, *p.templates):
        for k, (v, _s, _i) in enumerate(t.variables):
            clash("state variable", v, (t.name, "var", k))
    return out


def _name(c: str) -> str:
    return NOP_NAME if c == NOP else c


def _term(t, ren: dict[IndexVar, str]) -> str:
    if isinstance(t, Const):
        return _name(t.name)
    if isinstance(t, GlobalRef):
        return t.name
    if isinstance(t, ArrayRead):
        return f"{t.array}[{ren[t.index]}]"
    if isinstance(t, IndexVar):
        return ren[t]
    raise _err(f"term not expressible in MCMT: {t!r}")


def _lit(l: Lit, ren: dict[IndexVar, str]) -> str:
    a = l.atom
    if isinstance(a, Eq):
        body = f"(= {_term(a.lhs, ren)} {_term(a.rhs, ren)})"
    else:
        assert isinstance(a, RelAtom)
        body = "(" + " ".join([a.rel] + [_term(x, ren) for x in a.args]) + ")"
    return f"(not {body})" if l.neg else body


def _lit_matches(a: Lit, b: Lit) -> bool:
    """Literal equality up to symmetry of =."""
    if a == b:
        return True
    aa, ba = a.atom, b.atom
    return (
        a.neg == b.neg
        and isinstance(aa, Eq)
        and isinstance(ba, Eq)
        and aa.lhs == ba.rhs
        and aa.rhs == ba.lhs
    )


def _update_value(
    upd: LambdaUpdate, cond_key, juniv: IndexVar, ren: dict[IndexVar, str]
) -> str:
    """Value of the updated array at index j under the case keyed `cond_key`
    (a literal over j, or None for the catch-all)."""
    body = upd.body
    if isinstance(body, Const):
        return _name(body.name)
    assert isinstance(body, CaseTerm)
    sub = {upd.var: juniv}
    catch: Optional[str] = None
    for g, v in body.branches:
        if g is None:
            rendered = _term(term_subst(v, sub), ren)
            if cond_key is None:
                return rendered
            catch = rendered
            continue
        if cond_key is not None and _lit_matches(lit_subst(g, sub), cond_key):
            return _term(term_subst(v, sub), ren)
    # no explicit branch for this case: fall through to the catch-all
    if catch is not None:
        return catch
    raise _err("case-defined update without a catch-all branch")


def _rule_cases(rule: TransitionRule, juniv: IndexVar) -> list[Optional[Lit]]:
    """The shared case split of one rule: list of (condition literal or None)."""
    if rule.kind in _POINT_KINDS:
        # all point updates target the same existential index x
        at: Optional[IndexVar] = None
        for _a, upd in rule.arrays_upd:
            body = upd.body
            assert isinstance(body, CaseTerm)
            eq = body.branches[0][0].atom
            assert isinstance(eq, Eq) and isinstance(eq.rhs, IndexVar)
            if at is None:
                at = eq.rhs
            elif at != eq.rhs:
                raise _err(f"rule {rule.label}: updates at two different indexes")
        if at is None:
            return [None]
        return [Lit(False, Eq(at, juniv)), None]
    if rule.kind in _BULK_KINDS:
        conds: list[Lit] = []
        for _a, upd in rule.arrays_upd:
            body = upd.body
            if not isinstance(body, CaseTerm):
                continue
            for g, _v in body.branches:
                if g is None:
                    continue
                c = lit_subst(g, {upd.var: juniv})
                if c not in conds:
                    conds.append(c)
        return list(conds) + [None]
    raise _err(f"rule kind {rule.kind} has no MCMT rendering")


def emit_mcmt(abp: AbPmas, at: Optional[dict] = None) -> str:
    """Render an encoded system as an MCMT input document (UTF-8 text).  A
    model it cannot render gets diagnostics at the positions `at` gives its
    declarations (`dsl.parse_pmas_at`), or at 0:0 where it gives none."""
    at = at or {}
    if abp.semantics != INTERLEAVED:
        raise _err("MCMT emission supports interleaved semantics only")
    templates = abp.pmas.templates
    if len(templates) != 1:
        raise _err(
            "MCMT emission needs exactly one agent template "
            f"(got {len(templates)}): one index sort per file",
            at.get(templates[1].name) if templates else None,
        )
    sig = abp.sig
    goal = abp.goal
    if not goal.cubes:
        raise _err("goal is unsatisfiable: nothing to emit as :unsafe", at.get("goal"))
    clashes = _clashes(abp.pmas, at)
    if clashes:
        raise McmtError(clashes)

    (tmpl,) = abp.pmas.templates
    idx_sort = index_sort(tmpl)
    juniv = IndexVar("$j", idx_sort)
    base_ren: dict[IndexVar, str] = {juniv: "j"}

    out: list[str] = []
    w = out.append
    w(f";; {abp.pmas.name}: array-based encoding, {abp.semantics} semantics")
    w(f";; agent template {tmpl.name} indexed by j; environment in globals")
    w("")
    for s in sig.sorts.values():
        if s.kind == "index" or not s.constants:
            continue
        w(f":smt (define-type {s.name} ( {' '.join(_name(c) for c in s.constants)}))")
    for r in sig.relations.values():
        argty = " ".join(r.arg_sorts)
        w(f":smt (define {r.name} ::(-> {argty} bool))")
    w("")
    globals_order = list(sig.globals.items())
    arrays_order = list(sig.arrays.items())
    for nm, (isort, elem) in arrays_order:
        w(f":local {nm} {elem}")
    for nm, sort in globals_order:
        w(f":global {nm} {sort}")
    w("")

    # initial condition: lambda j . constant for arrays, constants for globals
    init_ren = dict(base_ren)
    init_x = IndexVar("$x0", idx_sort)
    init_ren[init_x] = "x"
    init_lits = []
    arr0 = dict(abp.init.arrays)
    for nm, _ in arrays_order:
        init_lits.append(f"(= {nm}[x] {_name(arr0[nm])})")
    g0 = dict(abp.init.globals_)
    for nm, _ in globals_order:
        init_lits.append(f"(= {nm} {_name(g0[nm])})")
    w(":initial")
    w(":var x")
    w(":cnj " + " ".join(init_lits))
    w("")

    # unsafe condition: one :cnj for the first cube, :u_cnj for the rest
    maxz = max(len(c.exists) for c in goal.cubes)
    w(":unsafe")
    for k in range(maxz):
        w(f":var z{k + 1}")

    def cube_line(c: Cube) -> str:
        ren = dict(base_ren)
        for k, v in enumerate(sorted(c.exists)):
            if v.sort != idx_sort:
                raise _err(f"goal variable {v.name} has non-index sort {v.sort}")
            ren[v] = f"z{k + 1}"
        return " ".join(_lit(l, ren) for l in c.lits)

    w(":cnj " + cube_line(goal.cubes[0]))
    for c in goal.cubes[1:]:
        w(":u_cnj " + cube_line(c))
    w("")

    for n, rule in enumerate(abp.rules, start=1):
        if rule.gates:
            raise _err(f"rule {rule.label}: universal gates have no MCMT rendering")
        exist_names = ["x", "y"]
        if len(rule.exists) > len(exist_names):
            where = None  # the declaration of the action the rule comes from
            if rule.template is not None:
                actions = [a.name for a in abp.pmas.template(rule.template).actions]
                where = at.get((rule.template, actions.index(rule.action)))
            raise _err(
                f"rule {rule.label}: {len(rule.exists)} existential index "
                "variables; MCMT transitions allow at most two (x, y)",
                where,
            )
        ren = dict(base_ren)
        for v, nm in zip(rule.exists, exist_names):
            if v.sort != idx_sort:
                raise _err(
                    f"rule {rule.label}: variable {v.name} ranges over "
                    f"{v.sort}, not the file's index sort"
                )
            ren[v] = nm
        w(f":comment t{n} {rule.label}")
        w(":transition")
        for _v, nm in zip(rule.exists, exist_names):
            w(f":var {nm}")
        w(":var j")
        w(":guard " + " ".join(_lit(l, ren) for l in rule.guard))
        cases = _rule_cases(rule, juniv)
        w(f":numcases {len(cases)}")
        gmap = rule.globals_map()
        amap = rule.arrays_map()
        for cond in cases:
            if cond is None:
                w(":case")
            else:
                w(f":case {_lit(cond, ren)}")
            for nm, _ in arrays_order:
                upd = amap.get(nm)
                if upd is None:
                    w(f" :val {nm}[j]")
                else:
                    w(f" :val {_update_value(upd, cond, juniv, ren)}")
            for nm, _ in globals_order:
                if nm in gmap:
                    w(f" :val {_name(gmap[nm].name)}")
                else:
                    w(f" :val {nm}")
        w("")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# witness strings


_TOKEN = re.compile(r"\[t(\d+)(?:_(\d+))?\]")


class WitnessToken(tuple):
    """One witness token: the pair (ordinal, optional sub-index), compared
    as that pair, and `offset`, where the token starts in the string."""

    def __new__(cls, ordinal: int, sub: Optional[int], offset: int) -> "WitnessToken":
        tok = super().__new__(cls, (ordinal, sub))
        tok.offset = offset
        return tok


def parse_mcmt_witness(text: str) -> list[WitnessToken]:
    """Decode "[t2][t17][t3_1]..." into (ordinal, optional sub-index) tokens."""
    out: list[WitnessToken] = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise McmtError([Diagnostic(1, pos + 1, f"malformed witness token at offset {pos}")])
        out.append(WitnessToken(int(m.group(1)), int(m.group(2)) if m.group(2) else None, pos))
        pos = m.end()
    if not out:
        raise McmtError([Diagnostic(1, 1, "witness contains no [tN] tokens")])
    return out


def serialize_witness(trace: Sequence[TraceStep], rules: Sequence[TransitionRule]) -> str:
    """Render a forward rule trace as a witness string over the emitted file's
    transition ordinals (1-based, in rule order)."""
    ordinal = {r.label: k for k, r in enumerate(rules, start=1)}
    toks = []
    for st in trace:
        if st.rule_label not in ordinal:
            raise _err(f"trace step {st.rule_label} is not an emitted transition")
        toks.append(f"[t{ordinal[st.rule_label]}]")
    return "".join(toks)


def explain_witness(
    tokens: Sequence[WitnessToken], rules: Sequence[TransitionRule]
) -> list[TraceStep]:
    """Map witness ordinals back onto the encoder's rules as trace steps."""
    steps: list[TraceStep] = []
    for tok in tokens:
        ordn = tok[0]
        if not 1 <= ordn <= len(rules):
            msg = f"witness names transition t{ordn}; file has {len(rules)}"
            raise McmtError([Diagnostic(1, tok.offset + 1, msg)])
        r = rules[ordn - 1]
        steps.append(TraceStep(r.label, r.kind, r.template, r.action))
    return steps
