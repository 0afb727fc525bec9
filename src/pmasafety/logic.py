"""Many-sorted ground logic with arrays, uninterpreted relations and index variables.

State formulae are disjunctions of *cubes*: existentially quantified conjunctions
of literals over global variables, array reads at index variables, and relation
atoms.  Index variables inside one cube are *differentiated*: distinct variables
of the same index sort denote distinct indexes, so no explicit disequalities are
stored.  Every ground conjunction is decided by reading it through its
constants (`GroundReading`), joining the classes of two globals or array
reads that a positive equality equates.  The exists/forall fragment is
decided only by `engine.entailed_by`, by subsumption: some region cube
embeds into the cube together with the literals the cube implies.
"""

from __future__ import annotations

import functools
import sys
import weakref
from dataclasses import dataclass
from typing import Container, Iterable, Iterator, KeysView, Optional, Sequence, Union


class LogicError(Exception):
    pass


class BudgetError(LogicError):
    """A normalisation or search budget was exceeded."""


# ---------------------------------------------------------------------------
# signature


INDEX = "index"
ELEMENT = "element"
ACTION = "action"
PHASE = "phase"


@dataclass(frozen=True)
class SortDecl:
    """A sort and its constants."""

    name: str
    kind: str  # index | element | action | phase
    constants: tuple[str, ...] = ()


@dataclass(frozen=True)
class RelDecl:
    """A relation symbol and the sorts of its arguments."""

    name: str
    arg_sorts: tuple[str, ...]


class Signature:
    """Sorts, relations, global variables and arrays of one transition
    system, each by name.  It checks nothing: `encode` builds it from a model
    `model.validate_pmas` accepted."""

    def __init__(
        self,
        sorts: Iterable[SortDecl] = (),
        relations: Iterable[RelDecl] = (),
        globals_: Optional[dict[str, str]] = None,
        arrays: Optional[dict[str, tuple[str, str]]] = None,
    ) -> None:
        self.sorts: dict[str, SortDecl] = {s.name: s for s in sorts}
        self.relations: dict[str, RelDecl] = {r.name: r for r in relations}
        self.globals: dict[str, str] = dict(globals_ or {})
        self.arrays: dict[str, tuple[str, str]] = dict(arrays or {})


# ---------------------------------------------------------------------------
# terms


class _Hashed:
    """Base of the term, atom and literal classes, hash-consed: `__new__`
    hands out the one live instance of the given field values, kept weakly
    in a table per class (`_intern`), so equal values are one object, and
    equality and hashing are CPython's identity operations.  Pickle, `copy`
    and `dataclasses.replace` rebuild through the constructor: a copy is
    the original, and a pickle re-interns in the loading process.  No field
    changes once built, since every holder of the value would see it; only
    `Lit`'s memo slots, equal for equal values, are filled later."""

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls) -> None:
        cls._table = {}  # field values -> weak reference to the instance

    @classmethod
    def _intern(cls, *key):
        table = cls._table
        ref = table.get(key)
        out = ref and ref()
        if out is None:
            out = object.__new__(cls)
            for f, v in zip(cls.__dataclass_fields__, key):
                _set(out, f, v)
            # the entry goes with the instance, unless a new one took its place
            table[key] = weakref.ref(out, lambda r: table.get(key) is r and table.pop(key))
        return out

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__dataclass_fields__)


_set = object.__setattr__  # how `_intern` and the memos fill the slots of a frozen instance


@dataclass(frozen=True, eq=False, init=False, repr=False)
class IndexVar(_Hashed):
    """An index variable of a sort, ordered by (name, sort)."""

    __slots__ = ("name", "sort")
    name: str
    sort: str

    def __new__(cls, name: str, sort: str) -> "IndexVar":
        return cls._intern(name, sort)

    def __lt__(self, other: "IndexVar") -> bool:
        return (self.name, self.sort) < (other.name, other.sort)

    def __repr__(self) -> str:
        return f"{self.name}:{self.sort}"


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Const(_Hashed):
    """A constant."""

    __slots__ = ("name",)
    name: str

    def __new__(cls, name: str) -> "Const":
        return cls._intern(name)

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False, init=False, repr=False)
class GlobalRef(_Hashed):
    """A global variable."""

    __slots__ = ("name",)
    name: str

    def __new__(cls, name: str) -> "GlobalRef":
        return cls._intern(name)

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False, init=False, repr=False)
class ArrayRead(_Hashed):
    """An array read at an index variable."""

    __slots__ = ("array", "index")
    array: str
    index: IndexVar

    def __new__(cls, array: str, index: IndexVar) -> "ArrayRead":
        return cls._intern(array, index)

    def __repr__(self) -> str:
        return f"{self.array}[{self.index.name}]"


@dataclass(frozen=True, repr=False)
class CaseTerm:
    """Case-defined value: first branch whose guard holds wins.

    Each guard is one literal, as in MCMT's `:case` conditions, except the
    last branch's, `None`: the catch-all.  Values are plain terms (no
    nesting of cases).
    """

    branches: tuple[tuple[Optional["Lit"], "Term"], ...]

    def __repr__(self) -> str:
        inner = "; ".join(f"{'true' if g is None else g} -> {t}" for g, t in self.branches)
        return f"case{{{inner}}}"


Term = Union[Const, GlobalRef, ArrayRead, IndexVar, CaseTerm]


# ---------------------------------------------------------------------------
# atoms, literals, formulae


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Eq(_Hashed):
    """An equality atom."""

    __slots__ = ("lhs", "rhs")
    lhs: Term
    rhs: Term

    def __new__(cls, lhs: Term, rhs: Term) -> "Eq":
        return cls._intern(lhs, rhs)

    def __repr__(self) -> str:
        return f"{self.lhs!r}={self.rhs!r}"


@dataclass(frozen=True, eq=False, init=False, repr=False)
class RelAtom(_Hashed):
    """A relation atom."""

    __slots__ = ("rel", "args")
    rel: str
    args: tuple[Term, ...]

    def __new__(cls, rel: str, args: tuple[Term, ...]) -> "RelAtom":
        return cls._intern(rel, args)

    def __repr__(self) -> str:
        return f"{self.rel}({', '.join(map(repr, self.args))})"


Atom = Union[Eq, RelAtom]


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Lit(_Hashed):
    """A possibly negated atom.  What the search reads about a literal again
    and again is computed the first time it is read and kept in a slot: its
    rendering (`repr`), its shape (`_lit_shape`), its index variables
    (`index_vars`), the cells it reads (`cells`) and its rendering split at its
    index variables (`parts`).  A literal is hash-consed (`_Hashed`): one
    object per value, compared and hashed by identity, so the cubes that
    hold a literal share it and its memos, and the rendering and the shape
    are interned strings too.  A literal a substitution maps to
    (`lit_subst`) is the interned one, with whatever memos it already holds.

    The rendering is injective on well-sorted literals, which is what lets
    `Cube.key` and `engine.subsumes` compare renderings in place of
    literals: each name of the encoded system means one thing, since
    `model.validate_pmas` rejects a model that declares a name the encoding
    adds or uses one name as both a variable and a constant (action names,
    the constants of the action sort, included); and the one thing the
    rendering drops, the sort of an array read's index, is the array's index
    sort: `encode` accepts only a valid model, and every literal the search
    derives comes from its rules and goal by renamings within sorts and case
    expansion into values of the same sort."""

    __slots__ = ("neg", "atom", "_repr", "_shape", "_vars", "_cells", "_parts")
    neg: bool
    atom: Atom

    def __new__(cls, neg: bool, atom: Atom) -> "Lit":
        return cls._intern(neg, atom)

    def negate(self) -> "Lit":
        """`Lit(not neg, atom)`, not kept: it would keep this one, a cycle."""
        return Lit(not self.neg, self.atom)

    def __repr__(self) -> str:
        try:
            return self._repr
        except AttributeError:
            r = sys.intern(("!" if self.neg else "") + repr(self.atom))
            _set(self, "_repr", r)
            return r

    def index_vars(self) -> tuple["IndexVar", ...]:
        """The index variables of the literal, array read indexes included,
        once each in order of first occurrence."""
        try:
            return self._vars
        except AttributeError:
            pass
        out = tuple(dict.fromkeys(
            t.index if isinstance(t, ArrayRead) else t
            for t in _atom_terms(self.atom)
            if isinstance(t, (IndexVar, ArrayRead))
        ))
        _set(self, "_vars", out)
        return out

    def cells(self) -> tuple[Union[GlobalRef, str], ...]:
        """The cells the literal reads, one per global or array read among
        its terms, each as in `const_cell`: the `GlobalRef`, or the array's
        name."""
        try:
            return self._cells
        except AttributeError:
            pass
        out = tuple(
            t.array if isinstance(t, ArrayRead) else t
            for t in _atom_terms(self.atom)
            if isinstance(t, (GlobalRef, ArrayRead))
        )
        _set(self, "_cells", out)
        return out

    def parts(self) -> tuple:
        """The rendering split at each occurrence of an index variable (as a
        term or as an array read's index): `(text, var, text, ..., text)`,
        each text escaped for `str.format` (`Cube.templates`)."""
        try:
            return self._parts
        except AttributeError:
            pass
        out: list = ["!" if self.neg else ""]

        def term(t: Term) -> None:
            if isinstance(t, IndexVar):
                out.extend((t, ":" + _escaped(t.sort)))
            elif isinstance(t, ArrayRead):
                out[-1] += _escaped(t.array) + "["
                out.extend((t.index, "]"))
            else:
                out[-1] += _escaped(repr(t))

        a = self.atom
        if isinstance(a, Eq):
            term(a.lhs)
            out[-1] += "="
            term(a.rhs)
        else:
            out[-1] += _escaped(a.rel) + "("
            for k, t in enumerate(a.args):
                if k:
                    out[-1] += ", "
                term(t)
            out[-1] += ")"
        parts = tuple(out)
        _set(self, "_parts", parts)
        return parts


def lit_eq(lhs: Term, rhs: Term, neg: bool = False) -> Lit:
    return Lit(neg, Eq(lhs, rhs))


# quantifier-free formulae, in negation normal form by construction: a
# literal is its own formula, the only leaf, under conjunctions and
# disjunctions, and `fnot` pushes a negation down to the literals.  The
# encoder translates the goal and each precondition into one, and
# `expand_cases` rewrites a literal over case terms into one; `dnf` turns
# one into the conjunctions of literals the search reads.


@dataclass(frozen=True, repr=False)
class FAnd:
    """A conjunction of formulae; `TRUE` is the empty one."""

    items: tuple["Formula", ...]

    def __repr__(self) -> str:
        return "(" + " & ".join(map(repr, self.items)) + ")" if self.items else "true"


@dataclass(frozen=True, repr=False)
class FOr:
    """A disjunction of formulae; `FALSE` is the empty one."""

    items: tuple["Formula", ...]

    def __repr__(self) -> str:
        return "(" + " | ".join(map(repr, self.items)) + ")" if self.items else "false"


Formula = Union[Lit, FAnd, FOr]

TRUE: Formula = FAnd(())
FALSE: Formula = FOr(())


def fand(items: Sequence[Formula]) -> Formula:
    """The conjunction of `items`: `FALSE` if one of them is, else the
    items of each `FAnd` among them spliced in, and the one item left
    alone or an `FAnd` of them all (`TRUE` when none is left)."""
    flat: list[Formula] = []
    for it in items:
        if isinstance(it, FAnd):
            flat.extend(it.items)
        elif it == FALSE:
            return FALSE
        else:
            flat.append(it)
    return flat[0] if len(flat) == 1 else FAnd(tuple(flat))


def f_or(items: Sequence[Formula]) -> Formula:
    """The disjunction of `items`, flattened as `fand` flattens."""
    flat: list[Formula] = []
    for it in items:
        if isinstance(it, FOr):
            flat.extend(it.items)
        elif it == TRUE:
            return TRUE
        else:
            flat.append(it)
    return flat[0] if len(flat) == 1 else FOr(tuple(flat))


def fnot(f: Formula) -> Formula:
    """The negation of `f`, pushed down to its literals (De Morgan)."""
    if isinstance(f, Lit):
        return f.negate()
    if isinstance(f, FAnd):
        return f_or([fnot(i) for i in f.items])
    return fand([fnot(i) for i in f.items])


DEFAULT_DNF_CAP = 100000


Dnf = list[tuple[Lit, ...]]  # a disjunction of conjunctions of literals
_Conj = tuple[tuple[Lit, ...], int]  # a conjunction and its literal set, as a bit mask


class _Bits(dict):
    """Literal -> its own bit, numbered in order of first use, so that a
    literal set is an int: union, subset and a contradiction test are each
    one integer operation, and a set hashes as one int."""

    def __missing__(self, l: Lit) -> int:
        b = self[l] = 1 << len(self)
        return b

    def mask(self, lits: Iterable[Lit]) -> int:
        m = 0
        for l in lits:
            m |= self[l]
        return m


def lit_dnf(l: Lit) -> Dnf:
    """The DNF of one literal: itself, or none when trivially false, or the
    empty conjunction when trivially true."""
    s = simplify_lits((l,))
    return [] if s is None else [s]


def _bits_of(m: int) -> Iterator[int]:
    """The one-bit parts of `m`, lowest first."""
    while m:
        low = m & -m
        yield low
        m ^= low


def _absorbed(conjs: list[_Conj], order: Iterable[int]) -> set[int]:
    """Positions of the conjunctions another absorbs (its literal set is a
    strict subset; no two sets are equal), each compared, in `order`, only
    with those visited before it and kept: all of them when `order` puts
    shorter ones first, those an earlier one absorbs in list order (a
    dropped one's absorber absorbs all it would).  A conjunction's kept
    subsets are the kept ones less those holding a literal it lacks."""
    universe = 0
    for _, m in conjs:
        universe |= m
    holding: dict[int, int] = {}  # literal bit -> kept ones having it
    kept, rank = 0, 1
    out = set()
    for i in order:
        m = conjs[i][1]
        lacking = 0
        for b in _bits_of(universe & ~m):
            lacking |= holding.get(b, 0)
        if kept & ~lacking:
            out.add(i)
            continue
        kept |= rank
        for b in _bits_of(m):
            holding[b] = holding.get(b, 0) | rank
        rank <<= 1
    return out


def conjoin(items: Iterable[Dnf], cap: int = DEFAULT_DNF_CAP) -> Dnf:
    """The DNF of a conjunction from the DNF of each conjunct: one
    conjunction per choice of a branch from every item, in lexicographic
    order, with repeated literals merged.  A choice that contradicts itself,
    repeats an earlier literal set or contains an earlier one's is dropped
    after each step; an earlier subset absorbs it, and what it would add
    later its absorber adds first, so the order of the rest is kept.

    `preimage` hands it only the items with more than one branch, stripped
    of the literals every conjunction holds (`conjoin_with`).

    Raises BudgetError when a step would keep more than `cap` conjunctions.
    """
    bits = _Bits()
    acc: list[_Conj] = [((), 0)]
    for branches in items:
        # each branch is consistent, so it contradicts a choice only across
        masks = [(b, bits.mask(b), bits.mask([l.negate() for l in b])) for b in branches]
        nxt: list[_Conj] = []
        seen: set[int] = set()
        for a, am in acc:
            for b, bm, neg in masks:
                m = am | bm
                if neg & am or m in seen:
                    continue
                seen.add(m)
                nxt.append((a + (tuple(l for l in b if not bits[l] & am) if bm & am else b), m))
                if len(nxt) > cap:
                    raise BudgetError(f"dnf exceeded {cap} cubes")
        if len(nxt) > 1 and len({len(c) for c, _ in nxt}) > 1:
            gone = _absorbed(nxt, range(len(nxt)))
            nxt = [c for i, c in enumerate(nxt) if i not in gone]
        acc = nxt
    return [a for a, _ in acc]


def minimal(conjs: Iterable[tuple[Lit, ...]]) -> Dnf:
    """The conjunctions `conjs`, each consistent and without a repeated
    literal (as `conjoin` builds them), in their order, less every one whose
    literal set repeats an earlier one's or strictly contains another's."""
    bits = _Bits()
    first: dict[int, tuple[Lit, ...]] = {}
    for c in conjs:
        first.setdefault(bits.mask(c), c)
    kept = [(c, m) for m, c in first.items()]
    if len({len(c) for c, _ in kept}) > 1:
        gone = _absorbed(kept, sorted(range(len(kept)), key=lambda i: len(kept[i][0])))
        kept = [k for i, k in enumerate(kept) if i not in gone]
    return [c for c, _ in kept]


def conjoin_with(first: tuple[Lit, ...], items: Sequence[Dnf], cap: int = DEFAULT_DNF_CAP) -> Dnf:
    """`minimal(conjoin([[first], *items], cap))` for a consistent `first`,
    without conjoining `first` again at every step: the items' branches lose
    the literals of `first`, those that contradict it are dropped, and
    `first` is put before each conjunction of the rest at the end.  Every
    conjunction is `first` and a rest disjoint from it, so the conjunctions
    repeat, contain and contradict each other as their rests do, and
    `conjoin` keeps and drops the same ones, in the same order, raising
    where it would.  No `conjoin` runs without items, and no `minimal` for
    one conjunction."""
    if cap < 1:
        raise BudgetError(f"dnf exceeded {cap} cubes")  # as conjoining [first] would
    if not items:
        return [first]
    signs = {l.atom: l.neg for l in first}
    rests = []
    for item in items:
        rest = []
        for b in item:
            kept = []
            for l in b:
                s = signs.get(l.atom)
                if s is None:
                    kept.append(l)
                elif s != l.neg:
                    break  # contradicts `first`
            else:
                rest.append(tuple(kept))
        rests.append(rest)
    out = conjoin(rests, cap)
    if len(out) > 1:
        out = minimal(out)
    return [first + r for r in out]


def dnf(f: Formula, cap: int = DEFAULT_DNF_CAP) -> Dnf:
    """Disjunctive normal form as a list of literal tuples: duplicates,
    contradictions and absorbed conjunctions (a strict superset of another's
    literals) removed, the rest in the order of the full expansion.  `f` is
    in negation normal form already, as every `Formula` is.

    Raises BudgetError when an intermediate list would exceed `cap`.
    """

    def go(g: Formula) -> Dnf:
        if isinstance(g, Lit):
            return lit_dnf(g)
        if isinstance(g, FOr):
            out: Dnf = []
            for it in g.items:
                out.extend(go(it))
                if len(out) > cap:
                    raise BudgetError(f"dnf exceeded {cap} cubes")
            return out
        if isinstance(g, FAnd):
            return conjoin(map(go, g.items), cap)
        raise LogicError(f"not a formula: {g!r}")

    return minimal(go(f))


# ---------------------------------------------------------------------------
# substitution and case elimination


Subst = dict[IndexVar, IndexVar]


def term_subst(t: Term, sub: Subst) -> Term:
    if isinstance(t, IndexVar):
        return sub.get(t, t)
    if isinstance(t, ArrayRead):
        return ArrayRead(t.array, sub.get(t.index, t.index))
    if isinstance(t, CaseTerm):
        return CaseTerm(tuple(
            (g if g is None else lit_subst(g, sub), term_subst(v, sub)) for g, v in t.branches
        ))
    return t


def atom_subst(a: Atom, sub: Subst) -> Atom:
    if isinstance(a, Eq):
        return Eq(term_subst(a.lhs, sub), term_subst(a.rhs, sub))
    return RelAtom(a.rel, tuple(term_subst(x, sub) for x in a.args))


def lit_subst(l: Lit, sub: Subst) -> Lit:
    return Lit(l.neg, atom_subst(l.atom, sub))


def _case_terms(a: Atom) -> list[CaseTerm]:
    ts: Sequence[Term]
    if isinstance(a, Eq):
        ts = (a.lhs, a.rhs)
    else:
        ts = a.args
    return [t for t in ts if isinstance(t, CaseTerm)]


def _replace_case(a: Atom, old: CaseTerm, new: Term) -> Atom:
    def rep(t: Term) -> Term:
        return new if t is old else t

    if isinstance(a, Eq):
        return Eq(rep(a.lhs), rep(a.rhs))
    return RelAtom(a.rel, tuple(rep(x) for x in a.args))


def expand_cases(f: Formula) -> Formula:
    """An equivalent formula without a `CaseTerm`, item by item under `FAnd`
    and `FOr`.  Branches are ordered, so a literal A(case{k1->t1; ...;
    kn->tn}) becomes OR_i (~k1 & ... & ~k(i-1) & ki & A(ti)): branch i fires
    when its guard holds and no earlier guard does, and the catch-all's
    guard (`None`) always holds.
    """
    if isinstance(f, FAnd):
        return fand([expand_cases(i) for i in f.items])
    if isinstance(f, FOr):
        return f_or([expand_cases(i) for i in f.items])
    cases = _case_terms(f.atom)
    if not cases:
        return f
    ct = cases[0]
    out: list[Formula] = []
    earlier: list[Formula] = []
    for guard, val in ct.branches:
        g = TRUE if guard is None else guard
        out.append(fand(earlier + [g, expand_cases(Lit(f.neg, _replace_case(f.atom, ct, val)))]))
        earlier.append(fnot(g))
    return f_or(out)


@dataclass(frozen=True)
class LambdaUpdate:
    """A bulk array update  arr' = lambda j . body  (body may be a CaseTerm)."""

    var: IndexVar
    body: Term

    def apply(self, idx: IndexVar) -> Term:
        return term_subst(self.body, {self.var: idx})


# ---------------------------------------------------------------------------
# cubes and state formulae


def _shape_term(x: Term) -> tuple[str, str]:
    if isinstance(x, IndexVar):
        return ("V", x.sort)
    if isinstance(x, ArrayRead):
        return ("A", x.array)
    return (type(x).__name__, repr(x))


def _lit_shape(l: Lit) -> str:
    """The literal with index variables abstracted away (array reads keep only
    the array name).  A necessary condition for an injective embedding of one
    cube into another is that the first one's shapes are a subset of the
    second one's.  Rendered as a string, whose hash Python keeps, since
    subset checks hash every shape again; kept on the literal."""
    try:
        return l._shape
    except AttributeError:
        pass
    a = l.atom
    if isinstance(a, Eq):
        shape = repr((l.neg, "=", _shape_term(a.lhs), _shape_term(a.rhs)))
    else:
        shape = repr((l.neg, a.rel, tuple(_shape_term(x) for x in a.args)))
    shape = sys.intern(shape)
    _set(l, "_shape", shape)
    return shape


def _escaped(s: str) -> str:
    return s.replace("{", "{{").replace("}", "}}")


def const_cell(l: Lit) -> Optional[tuple[Union[GlobalRef, str], Const]]:
    """`(cell, c)` when the literal's atom equates a global or an array read
    with the constant `c`.  The cell is the `GlobalRef`, or the array's name,
    since the index is left out."""
    a = l.atom
    if not isinstance(a, Eq):
        return None
    x, y = (a.rhs, a.lhs) if isinstance(a.lhs, Const) else (a.lhs, a.rhs)
    if not isinstance(y, Const):
        return None
    if isinstance(x, GlobalRef):
        return x, y
    if isinstance(x, ArrayRead):
        return x.array, y
    return None


def memoized(method):
    """Memoize a method without arguments on its (frozen) instance."""
    attr = "_" + method.__name__

    @functools.wraps(method)
    def get(self):
        d = self.__dict__
        try:
            return d[attr]
        except KeyError:
            out = d[attr] = method(self)
            return out

    return get


@dataclass(frozen=True, repr=False)
class Cube:
    """Existentially quantified conjunction of literals.

    `exists` are index variables, implicitly pairwise distinct when of the same
    sort (differentiated form).  Literals never contain index-index equalities.
    """

    exists: tuple[IndexVar, ...]
    lits: tuple[Lit, ...]

    def __post_init__(self) -> None:
        if len(set(self.exists)) != len(self.exists):
            raise LogicError("duplicate existential variable in cube")

    @memoized
    def key(self) -> tuple:
        """`exists` and the set of the literals' renderings, which stand for
        the literals themselves (`Lit`: the rendering is injective)."""
        return (self.exists, frozenset(map(repr, self.lits)))

    @memoized
    def lit_set(self) -> frozenset[Lit]:
        """The literals as a set (memoized)."""
        return frozenset(self.lits)

    @memoized
    def used_vars(self) -> tuple[IndexVar, ...]:
        """The variables of `exists` some literal uses, in `exists` order
        (memoized; `make_cube` fills it with the `exists` it keeps, all of
        which its literals use)."""
        used = cube_vars_of_lits(self.lits)
        return tuple(v for v in self.exists if v in used)

    @memoized
    def vars_by_sort(self) -> dict[str, list[IndexVar]]:
        """`exists` split by sort, each in `exists` order (memoized)."""
        out: dict[str, list[IndexVar]] = {}
        for v in self.exists:
            out.setdefault(v.sort, []).append(v)
        return out

    def templates(self) -> list[str]:
        """Each literal's rendering as a `str.format` template with field k
        for the name of `exists[k]`, in literal order: filled in with the
        names of another cube's variables, a template renders the literal
        renamed, without building it.  Joined from each literal's split
        rendering (`Lit.parts`) per cube, since a variable's field is its
        position in this cube's `exists`."""
        fields = {v: f"{{{k}}}" for k, v in enumerate(self.exists)}
        out = []
        for l in self.lits:
            parts = l.parts()
            if len(parts) == 1:
                out.append(parts[0])
                continue
            t = [parts[0]]
            for k in range(1, len(parts), 2):
                v = parts[k]
                t += (fields.get(v) or _escaped(v.name), parts[k + 1])
            out.append("".join(t))
        return out

    @memoized
    def check_schedule(self) -> list[list[str]]:
        """Entry i: the `templates` of the literals whose variables all lie
        among the first i of `exists`, and not all among fewer (memoized).  A
        search that assigns the variables in order can check these once it
        has i."""
        out: list[list[str]] = [[] for _ in range(len(self.exists) + 1)]
        pos = {v: k + 1 for k, v in enumerate(self.exists)}
        for l, t in zip(self.lits, self.templates()):
            out[max((pos[v] for v in l.index_vars() if v in pos), default=0)].append(t)
        return out

    @memoized
    def shapes(self) -> KeysView:
        """The multiset of the distinct literals' `_lit_shape`s, as a
        set-like view of keys in literal order (memoized): the k-th literal
        of shape S gives the key `(S, k)`, the first one the plain `S`.

        An injective renaming of the variables maps distinct literals to
        distinct literals of the same shape, so a cube embeds into another
        (`engine.subsumes`) only if its keys are a subset of the other's."""
        shapes = [*map(_lit_shape, self.lits)]
        out = dict.fromkeys(shapes)
        if len(out) < len(shapes):  # a shape repeats, or a literal does
            distinct = dict.fromkeys(self.lits)
            if len(distinct) < len(shapes):
                shapes = [*map(_lit_shape, distinct)]
            seen, out = dict.fromkeys(out, 0), {}
            for s in shapes:
                n = seen[s] = seen[s] + 1
                out[s if n == 1 else (s, n)] = None
        return out.keys()

    @memoized
    def const_lits(self) -> tuple[tuple[bool, Union[GlobalRef, str], Const], ...]:
        """`(neg, cell, c)` for every literal that sets a global or an array
        read to a constant, with the cell as in `const_cell` (memoized)."""
        out = []
        for l in self.lits:
            cc = const_cell(l)
            if cc is not None:
                out.append((l.neg, *cc))
        return tuple(out)

    def __repr__(self) -> str:
        pre = f"E {', '.join(map(repr, self.exists))}. " if self.exists else ""
        return pre + " & ".join(map(repr, self.lits)) if self.lits else pre + "true"


def make_cube(
    exists: Iterable[IndexVar], lits: Iterable[Lit], used: Optional[Container] = None
) -> Cube:
    """Normalise: dedup literals, sort deterministically, keep only used vars
    (`used`, when the caller knows the variables the literals use).  The
    cube's `used_vars` are then its `exists`, filled in here."""
    lits2 = tuple(sorted(dict.fromkeys(lits), key=repr))
    if used is None:
        used = cube_vars_of_lits(lits2)
    ex = tuple(v for v in dict.fromkeys(exists) if v in used)
    out = Cube(ex, lits2)
    out.__dict__["_used_vars"] = ex  # the memo `used_vars` would compute
    return out


def simplify_lits(lits: Iterable[Lit]) -> Optional[tuple[Lit, ...]]:
    """Constant-level evaluation: drop trivially true literals, return None when
    some literal is trivially false (distinct constants are never equal)."""
    out: list[Lit] = []
    for l in lits:
        a = l.atom
        if type(a) is Eq and type(a.lhs) is type(a.rhs):  # terms of two types differ
            if a.lhs == a.rhs:
                if l.neg:
                    return None
                continue
            if type(a.lhs) is Const:
                # distinct names: unequal in every model
                if not l.neg:
                    return None
                continue
        out.append(l)
    return tuple(out)


def cube_vars_of_lits(lits: Iterable[Lit]) -> set[IndexVar]:
    out: set[IndexVar] = set()
    for l in lits:
        out.update(l.index_vars())
    return out


def _atom_terms(a: Atom) -> tuple[Term, ...]:
    if isinstance(a, Eq):
        return (a.lhs, a.rhs)
    return a.args


@dataclass(frozen=True, repr=False)
class StateFormula:
    """A disjunction of cubes."""

    cubes: tuple[Cube, ...]

    def __repr__(self) -> str:
        return " \\/ ".join(map(repr, self.cubes)) if self.cubes else "false"


# ---------------------------------------------------------------------------
# ground satisfiability

_FIXED = (Const, IndexVar)  # pairwise distinct values


class GroundReading:
    """A conjunction of well-sorted, case-free ground literals read through
    its constants: the one decision procedure for ground conjunctions (the
    candidate model of de Moura & Bjørner, "Model-based Theory Combination",
    2007).  Distinct constants are unequal and distinct index variables
    denote distinct indexes (the cube's differentiated skolems).

    A positive equality between a global or array read and a constant or
    index variable gives the term that value.  Only where one equates two
    globals or array reads are their classes joined, by a small union-find:
    a class takes the value of any member, and two values are a conflict.
    `val` holds every term whose class has a value, and `root` maps each
    member of a joined class without one to one member.  Disequalities and
    relation atoms (`signs`, each atom's `neg`) are then read through the
    classes.  Relation atoms are only true or false and are never arguments,
    and array reads sit at index skolems that never merge, so `sat` is
    exact: the generic model, which gives each class without a value a fresh
    one and makes each relation atom true only where it is asserted,
    satisfies a conjunction `sat` accepts."""

    __slots__ = ("sat", "val", "root", "signs")

    def __init__(self, lits: Sequence[Lit]) -> None:
        self.val: dict[Term, Term] = {}
        self.root: dict[Term, Term] = {}
        self.signs: dict[RelAtom, bool] = {}
        self.sat = self._read(lits)

    def _read(self, lits: Sequence[Lit]) -> bool:
        val, joins = self.val, []
        for l in lits:
            a = l.atom
            if l.neg or type(a) is not Eq or type(a.lhs) is type(a.rhs) and a.lhs == a.rhs:
                continue
            t, d = (a.rhs, a.lhs) if isinstance(a.lhs, _FIXED) else (a.lhs, a.rhs)
            if isinstance(t, _FIXED):
                return False  # two distinct values
            if not isinstance(d, _FIXED):
                joins.append((t, d))
            elif val.setdefault(t, d) != d:
                return False
        if joins and not self._join(joins):
            return False
        # the disequalities and relation literals, read through the classes
        for l in lits:
            a = l.atom
            if type(a) is not Eq:
                if self.signs.setdefault(self._read_atom(a), l.neg) != l.neg:
                    return False
            elif l.neg and self._rep(a.lhs) == self._rep(a.rhs):
                return False
        return True

    def _join(self, joins: list[tuple[Term, Term]]) -> bool:
        """Join the classes of each pair; False when a class gets two values."""
        up: dict[Term, Term] = {}

        def find(t: Term) -> Term:
            while t in up:
                t = up[t]
            return t

        for t, u in joins:
            t, u = find(t), find(u)
            if t != u:
                up[t] = u
        members: dict[Term, list[Term]] = {}
        for t in dict.fromkeys(t for pair in joins for t in pair):
            members.setdefault(find(t), []).append(t)
        val = self.val
        for r, ts in members.items():
            values = {val[t] for t in ts if t in val}
            if len(values) > 1:
                return False
            into = val if values else self.root
            v = values.pop() if values else r
            for t in ts:
                into[t] = v
        return True

    def _rep(self, t: Term) -> Term:
        """`t`'s value, else its class's root, else `t` itself."""
        t = self.val.get(t, t)
        return self.root.get(t, t) if self.root else t

    def _read_atom(self, a: RelAtom) -> RelAtom:
        val = self.val
        if self.root or val and any(x in val for x in a.args):
            return RelAtom(a.rel, tuple(map(self._rep, a.args)))
        return a


def ground_lits_sat(lits: Sequence[Lit]) -> bool:
    """Satisfiability of a conjunction of well-sorted, case-free ground
    literals (`GroundReading`)."""
    return GroundReading(lits).sat


# ---------------------------------------------------------------------------
# partitions


def set_partitions(items: Sequence, apart: Container = ()) -> Iterator[list[list]]:
    """The set partitions of `items` that put no two members of `apart` in
    one block, in the order of the enumeration of all of them (Bell-number
    many): a partial partition that joins two is not extended."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    alone = first in apart
    for part in set_partitions(rest, apart):
        for i in range(len(part)):
            if alone and any(v in apart for v in part[i]):
                continue
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def partition_count(items: Sequence, apart: Container = ()) -> int:
    """How many partitions `set_partitions(items, apart)` yields, counted
    without listing them: each member of `apart` opens a block of its own,
    and each other item joins one of the blocks so far or opens another."""
    fixed = sum(1 for v in items if v in apart)
    row = [1]  # row[b]: the partial partitions with fixed + b blocks
    for _ in range(len(items) - fixed):
        row = [(fixed + b) * w + (row[b - 1] if b else 0) for b, w in enumerate(row + [0])]
    return sum(row)
