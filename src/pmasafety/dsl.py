"""Textual model format.

    sort Loc { nil, init, A, B, target }
    relation Snow(Loc, Loc)

    template Att
      var loc: Loc = init
      action gotoA : local {
        pre: loc[self] = init and pulse_loc[e] != A and not Snow(init, A);
        eff: loc := A
      }

    template Cannon env
      var pulse_loc: Loc = nil
      action blastA : sync initiator { pre: loc[j] = A; eff: }

    alternate { Cannon } vs { Att }

    goal: loc[j] = target

`#` starts a comment.  Preconditions must be disjunction-free (`or` and `not`
over non-atoms are rejected there); goals allow full boolean structure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NoReturn, Optional, Union

from .logic import SortDecl, RelDecl, ELEMENT
from .model import (
    ActionDecl,
    AgentFormula,
    AgentTemplate,
    BoolConst,
    Conj,
    ConstRef,
    Diagnostic,
    Disj,
    IdxEq,
    LOCAL,
    SYNC,
    INDIVIDUAL,
    ModelError,
    Neg,
    Pmas,
    RelTest,
    VarRef,
    VarTest,
    validate_pmas,
)


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<punct>:=|!=|[{}()\[\],;:=])
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "sort", "relation", "template", "env", "var", "action", "local", "sync",
    "individual", "initiator", "pre", "eff", "goal", "alternate", "vs",
    "and", "or", "not", "true", "false",
}


@dataclass(frozen=True)
class Token:
    """One token of the model language, with its position."""

    kind: str  # punct | ident | eof
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            raise ModelError([Diagnostic(line, col, f"unexpected character {src[pos]!r}")])
        text = m.group(0)
        if m.lastgroup != "ws":
            toks.append(Token(m.lastgroup, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


# deepest `not` / parenthesis nesting a formula may have; the parser and the
# passes after it recurse once per level
MAX_NESTING = 100


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.pos = 0
        self.depth = 0  # `not` and parentheses open around the current token
        # line and column of the goal ("goal"), the alternation ("alternate"),
        # the k-th sort ("sort", k) and its j-th constant ("sort", k, j), the
        # k-th relation ("relation", k), each template (its name), its k-th
        # action ((template, k)) and that action's j-th effect ((template, k, j))
        self.at: dict[object, tuple[int, int]] = {}

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, msg: str, tok: Optional[Token] = None) -> NoReturn:
        t = tok or self.peek()
        raise ModelError([Diagnostic(t.line, t.col, msg)])

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            self.fail(f"expected {text!r}, found {t.text!r}", t)
        return t

    def ident(self, what: str = "identifier") -> str:
        t = self.next()
        if t.kind != "ident" or t.text in _KEYWORDS:
            self.fail(f"expected {what}, found {t.text!r}", t)
        return t.text

    # -- formulas ----------------------------------------------------------

    def formula(self) -> AgentFormula:
        items = [self.formula_conj()]
        while self.peek().text == "or":
            self.next()
            items.append(self.formula_conj())
        return items[0] if len(items) == 1 else Disj(tuple(items))

    def formula_conj(self) -> AgentFormula:
        items = [self.formula_unary()]
        while self.peek().text == "and":
            self.next()
            items.append(self.formula_unary())
        return items[0] if len(items) == 1 else Conj(tuple(items))

    def formula_unary(self) -> AgentFormula:
        t = self.peek()
        if t.text not in ("not", "("):
            return self.formula_atom()
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"formula nested deeper than {MAX_NESTING} levels", t)
        self.next()
        if t.text == "not":
            f: AgentFormula = Neg(self.formula_unary())
        else:
            f = self.formula()
            self.expect(")")
        self.depth -= 1
        return f

    def formula_atom(self) -> AgentFormula:
        t = self.peek()
        if t.text == "true":
            self.next()
            return BoolConst(True)
        if t.text == "false":
            self.next()
            return BoolConst(False)
        tok = self.next()
        if tok.kind != "ident" or tok.text in _KEYWORDS:
            self.fail("expected atom", tok)
        name = tok.text
        idx = self.index()
        if idx is not None:
            op = self.next()
            if op.text not in ("=", "!="):
                self.fail(f"expected = or != after {name}[{idx}]", op)
            val = self.ident("constant")
            atom: AgentFormula = VarTest(name, idx, val)
            return Neg(atom) if op.text == "!=" else atom
        nxt = self.peek()
        if nxt.text == "(":
            self.next()
            args: list[Union[VarRef, ConstRef]] = []
            while True:
                args.append(self.rel_arg())
                if self.peek().text == ",":
                    self.next()
                    continue
                break
            self.expect(")")
            return RelTest(name, tuple(args))
        if nxt.text in ("=", "!="):
            op = self.next().text
            rhs = self.ident("index name")
            eq: AgentFormula = IdxEq(name, rhs)
            return Neg(eq) if op == "!=" else eq
        self.fail(f"expected '(', '=' or '!=' after {name!r}", nxt)

    def index(self) -> Optional[str]:
        """The index of a `[ idx ]` suffix, if one follows."""
        if self.peek().text != "[":
            return None
        self.next()
        idx = self.ident("index name")
        self.expect("]")
        return idx

    def rel_arg(self) -> Union[VarRef, ConstRef]:
        tok = self.next()
        if tok.kind != "ident" or tok.text in _KEYWORDS:
            self.fail("expected relation argument", tok)
        idx = self.index()
        return ConstRef(tok.text) if idx is None else VarRef(tok.text, idx)

    # -- declarations ------------------------------------------------------

    def pmas(self, name: str) -> Pmas:
        sorts: list[SortDecl] = []
        relations: list[RelDecl] = []
        templates: list[AgentTemplate] = []
        env: Optional[AgentTemplate] = None
        goal: Optional[AgentFormula] = None
        alternation = None
        while self.peek().kind != "eof":
            t = self.peek()
            if t.text == "sort":
                sorts.append(self.sort_decl(len(sorts)))
            elif t.text == "relation":
                relations.append(self.relation_decl(len(relations)))
            elif t.text == "template":
                tmpl = self.template_decl()
                if tmpl.is_env:
                    if env is not None:
                        self.fail("second environment template", t)
                    env = tmpl
                else:
                    templates.append(tmpl)
            elif t.text == "alternate":
                if alternation is not None:
                    self.fail("second alternate declaration", t)
                self.at["alternate"] = (t.line, t.col)
                alternation = self.alternate_decl()
            elif t.text == "goal":
                if goal is not None:
                    self.fail("second goal declaration", t)
                self.at["goal"] = (t.line, t.col)
                self.next()
                self.expect(":")
                goal = self.formula()
            else:
                self.fail(f"expected declaration, found {t.text!r}", t)
        if env is None:
            self.fail("no environment template declared")
        if goal is None:
            self.fail("no goal declared")
        if not templates:
            self.fail("no agent template declared")
        return Pmas(
            name=name,
            sorts=tuple(sorts),
            relations=tuple(relations),
            templates=tuple(templates),
            env=env,
            goal=goal,
            alternation=alternation,
        )

    def sort_decl(self, k: int) -> SortDecl:
        t = self.expect("sort")
        self.at["sort", k] = (t.line, t.col)
        name = self.ident("sort name")
        self.expect("{")
        toks = [self.peek()]
        consts = [self.ident("constant")]
        while self.peek().text == ",":
            self.next()
            toks.append(self.peek())
            consts.append(self.ident("constant"))
        self.expect("}")
        self.at.update((("sort", k, j), (t.line, t.col)) for j, t in enumerate(toks))
        return SortDecl(name, ELEMENT, tuple(consts))

    def relation_decl(self, k: int) -> RelDecl:
        t = self.expect("relation")
        self.at["relation", k] = (t.line, t.col)
        name = self.ident("relation name")
        self.expect("(")
        args = [self.ident("sort name")]
        while self.peek().text == ",":
            self.next()
            args.append(self.ident("sort name"))
        self.expect(")")
        return RelDecl(name, tuple(args))

    def template_decl(self) -> AgentTemplate:
        t = self.expect("template")
        name = self.ident("template name")
        self.at[name] = (t.line, t.col)
        is_env = False
        if self.peek().text == "env":
            self.next()
            is_env = True
        variables: list[tuple[str, str, str]] = []
        actions: list[ActionDecl] = []
        while self.peek().text in ("var", "action"):
            if self.peek().text == "var":
                self.next()
                self.at[name, "var", len(variables)] = (self.peek().line, self.peek().col)
                v = self.ident("variable name")
                self.expect(":")
                sort = self.ident("sort name")
                self.expect("=")
                init = self.ident("constant")
                variables.append((v, sort, init))
            else:
                actions.append(self.action_decl((name, len(actions))))
        return AgentTemplate(name, is_env, tuple(variables), tuple(actions))

    def action_decl(self, where: tuple[str, int]) -> ActionDecl:
        t = self.expect("action")
        name = self.ident("action name")
        self.at[where] = (t.line, t.col)
        self.expect(":")
        kind_tok = self.next()
        if kind_tok.text not in (LOCAL, SYNC, INDIVIDUAL):
            self.fail("expected local, sync or individual", kind_tok)
        initiator = False
        if self.peek().text == "initiator":
            if kind_tok.text == LOCAL:
                self.fail("initiator applies to synchronization actions only")
            self.next()
            initiator = True
        self.expect("{")
        self.expect("pre")
        self.expect(":")
        pre: AgentFormula = BoolConst(True) if self.peek().text == ";" else self.formula()
        self.expect(";")
        eff: list[tuple[str, str]] = []
        if self.peek().text == "eff":
            self.next()
            self.expect(":")
            while self.peek().text != "}":
                t = self.peek()
                v = self.ident("variable name")
                self.at[(*where, len(eff))] = (t.line, t.col)
                self.expect(":=")
                c = self.ident("constant")
                eff.append((v, c))
                if self.peek().text == ",":
                    self.next()
                    continue
                break
        self.expect("}")
        return ActionDecl(name, kind_tok.text, pre, tuple(eff), initiator)

    def alternate_decl(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        self.expect("alternate")
        g1 = self.group()
        self.expect("vs")
        g2 = self.group()
        return (g1, g2)

    def group(self) -> tuple[str, ...]:
        self.expect("{")
        names = [self.ident("template name")]
        while self.peek().text == ",":
            self.next()
            names.append(self.ident("template name"))
        self.expect("}")
        return tuple(names)


def parse_pmas(src: str, name: str = "model") -> Pmas:
    """Parse and validate a model; raises ModelError with diagnostics."""
    return parse_pmas_at(src, name)[0]


def parse_pmas_at(src: str, name: str = "model") -> tuple[Pmas, dict]:
    """`parse_pmas`, and the line and column of each declaration, keyed as
    `validate_pmas` reads them, with `(t, "var", k)` for the name of the
    k-th variable of template `t`."""
    parser = _Parser(src)
    p = parser.pmas(name)
    diags = validate_pmas(p, parser.at)
    if diags:
        raise ModelError(diags)
    return p, parser.at


def parse_formula(src: str) -> AgentFormula:
    """Parse a standalone formula (e.g. a goal override on the command line)."""
    pr = _Parser(src)
    f = pr.formula()
    if pr.peek().kind != "eof":
        pr.fail("unexpected input after formula")
    return f
