"""ASTs, parser, printers, and syntactic transformations for graph queries.

Formulas are built from edge atoms G(s,t), named relation atoms, comparisons
over the ordered constant universe, neighborhood-membership atoms, boolean
connectives, and plain or radius-bounded quantifiers.  Fixpoint queries wrap a
formula body with a named relation of fixed arity.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, NoReturn, Optional,
    Union,
)


class ParseError(ValueError):
    """Syntax error at character `pos` of `text`, with its line and column."""

    def __init__(self, message: str, text: str, pos: int):
        self.pos = pos
        self.line = text.count("\n", 0, pos) + 1
        self.col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} (line {self.line}, column {self.col})")


class FormulaError(ValueError):
    """Structural error in a formula or fixpoint query."""


# --------------------------------------------------------------------- terms


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Const:
    value: int


Term = Union[Var, Const]


def term_str(t: Term) -> str:
    return t.name if isinstance(t, Var) else str(t.value)


# ------------------------------------------------------------------ formulas


@dataclass(frozen=True, slots=True)
class Atom:
    pred: str
    args: tuple[Term, ...]


@dataclass(frozen=True, slots=True)
class Cmp:
    op: str  # "=", "!=", ">="
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class InNbhd:
    """Membership atom: term lies within distance `radius` of `center`."""

    term: Term
    radius: int
    center: Term


@dataclass(frozen=True, slots=True)
class Not:
    body: "Formula"


@dataclass(frozen=True, slots=True)
class And:
    parts: tuple["Formula", ...]


@dataclass(frozen=True, slots=True)
class Or:
    parts: tuple["Formula", ...]


@dataclass(frozen=True, slots=True)
class Exists:
    var: str
    body: "Formula"
    bound: Optional[tuple[Term, int]] = None  # (center, radius)


@dataclass(frozen=True, slots=True)
class Forall:
    var: str
    body: "Formula"
    bound: Optional[tuple[Term, int]] = None


@dataclass(frozen=True, slots=True)
class BoolConst:
    value: bool


Formula = Union[Atom, Cmp, InNbhd, Not, And, Or, Exists, Forall, BoolConst]

TRUE = BoolConst(True)
FALSE = BoolConst(False)

EDGE_PRED = "G"


@dataclass(frozen=True, slots=True)
class FixpointQuery:
    """mu name(vars). body.  `radius` is derived, never given: it is k when
    `locality(body)` finds the body radius-bounded at radius k around
    vars[0], and None otherwise."""

    name: str
    vars: tuple[str, ...]
    body: Formula
    radius: Optional[int] = field(init=False)

    def __post_init__(self) -> None:
        try:
            center, k = locality(self.body)
        except FormulaError:
            center, k = None, None
        object.__setattr__(self, "radius", k if center == self.vars[0] else None)

    @property
    def arity(self) -> int:
        return len(self.vars)


@dataclass(frozen=True, slots=True)
class FormulaStats:
    num_free_vars: int
    num_bound_vars: int
    num_constants: int

    @property
    def w(self) -> int:
        return self.num_free_vars + self.num_bound_vars + self.num_constants

    @property
    def v(self) -> int:
        return self.num_free_vars + self.num_bound_vars


# ------------------------------------------------------- smart constructors


def make_not(body: Formula) -> Formula:
    if isinstance(body, BoolConst):
        return BoolConst(not body.value)
    return Not(body)


def make_and(parts) -> Formula:
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, BoolConst):
            if not p.value:
                return FALSE
            continue
        if isinstance(p, And):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def make_or(parts) -> Formula:
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, BoolConst):
            if p.value:
                return TRUE
            continue
        if isinstance(p, Or):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


# ------------------------------------------------------------------- walking


def _scoped(
    f: Formula, binders: tuple[str, ...] = ()
) -> Iterator[tuple[Formula, tuple[str, ...]]]:
    """Pre-order traversal of the subformulas of f, including f itself, each
    with the names bound around it (outermost first; `binders` around f).
    A quantifier's own variable is bound in its body, not around it."""
    yield f, binders
    if isinstance(f, Not):
        yield from _scoped(f.body, binders)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            yield from _scoped(p, binders)
    elif isinstance(f, (Exists, Forall)):
        yield from _scoped(f.body, binders + (f.var,))


def subformulas(f: Formula) -> Iterator[Formula]:
    """Pre-order traversal of all subformulas, including f itself."""
    return (g for g, _ in _scoped(f))


def atoms(f: Formula) -> Iterator[Formula]:
    """All atomic subformulas (relation atoms, comparisons, memberships)."""
    for g in subformulas(f):
        if isinstance(g, (Atom, Cmp, InNbhd)):
            yield g


def ranges(f: Formula) -> Iterator[tuple[Formula, Term, int]]:
    """Every neighborhood f names, as (subformula, center, radius) in
    pre-order: each membership atom and each bounded quantifier."""
    for g in subformulas(f):
        if isinstance(g, InNbhd):
            yield g, g.center, g.radius
        elif isinstance(g, (Exists, Forall)) and g.bound is not None:
            yield (g, *g.bound)


def _terms_of(g: Formula) -> tuple[Term, ...]:
    """The terms g itself reads, outside its subformulas.  A bounded
    quantifier reads its range center: the center is evaluated before the
    binder takes a value, in the scope around the quantifier, so it is a
    term of the quantifier and not of its body."""
    if isinstance(g, Atom):
        return g.args
    if isinstance(g, Cmp):
        return (g.left, g.right)
    if isinstance(g, InNbhd):
        return (g.term, g.center)
    if isinstance(g, (Exists, Forall)) and g.bound is not None:
        return (g.bound[0],)
    return ()


def free_vars(f: Formula) -> tuple[str, ...]:
    """Free variables in order of first occurrence."""
    out: dict[str, None] = {}
    for g, binders in _scoped(f):
        for t in _terms_of(g):
            if isinstance(t, Var) and t.name not in binders:
                out[t.name] = None
    return tuple(out)


def bound_vars(f: Formula) -> tuple[str, ...]:
    return tuple(g.var for g in subformulas(f) if isinstance(g, (Exists, Forall)))


def constants(f: Formula) -> tuple[int, ...]:
    """Distinct constant values in order of first occurrence, range centers
    included."""
    out: dict[int, None] = {}
    for g in subformulas(f):
        for t in _terms_of(g):
            if isinstance(t, Const):
                out[t.value] = None
    return tuple(out)


def map_formula(
    f: Formula,
    quant: Callable[[Formula], Formula],
    tr: Optional[Callable[[Term], Term]] = None,
    smart: bool = False,
) -> Formula:
    """Rebuild the Not/And/Or skeleton of f, with plain constructors or, when
    `smart`, with make_not/make_and/make_or, which fold boolean constants
    and flatten nested connectives.  Every quantifier is replaced by `quant`
    of it (`quant` recurses into the body itself); every term of an atomic
    formula is replaced by `tr` of it, when given."""
    if isinstance(f, (And, Or)):
        parts = [map_formula(p, quant, tr, smart) for p in f.parts]
        if not smart:
            return type(f)(tuple(parts))
        return make_and(parts) if isinstance(f, And) else make_or(parts)
    if isinstance(f, Not):
        body = map_formula(f.body, quant, tr, smart)
        return make_not(body) if smart else Not(body)
    if isinstance(f, (Exists, Forall)):
        return quant(f)
    if tr is None:
        return f
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(tr(a) for a in f.args))
    if isinstance(f, Cmp):
        return Cmp(f.op, tr(f.left), tr(f.right))
    if isinstance(f, InNbhd):
        return InNbhd(tr(f.term), f.radius, tr(f.center))
    return f


def _map_bound(bound: Optional[tuple[Term, int]], tr: Callable[[Term], Term]):
    return None if bound is None else (tr(bound[0]), bound[1])


# --------------------------------------------------------------- union-find


class _UnionFind:
    """Disjoint sets over hashable items; an item joins on first mention."""

    def __init__(self, items: Iterable[Hashable] = ()):
        self.parent = {x: x for x in items}

    def find(self, x: Hashable) -> Hashable:
        parent = self.parent
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: Hashable, b: Hashable) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def same(self, a: Hashable, b: Hashable) -> bool:
        return a == b or self.find(a) == self.find(b)


# ------------------------------------------------------------------ printing

_PREC_ATOM = 100
_PREC_NOT = 90
_PREC_AND = 50
_PREC_OR = 40
_PREC_QUANT = 10


def _prec(f: Formula) -> int:
    if isinstance(f, Not):
        return _PREC_NOT
    if isinstance(f, And):
        return _PREC_AND
    if isinstance(f, Or):
        return _PREC_OR
    if isinstance(f, (Exists, Forall)):
        return _PREC_QUANT
    return _PREC_ATOM


def _render(
    f: Formula, env: Optional[dict[str, str]], counter: list[int]
) -> str:
    """Print f.  Without an environment every name prints as written; with
    one, every binder is renamed q1, q2, ... in pre-order (counting in
    `counter`) and `env` maps the enclosing bound names to their new names."""

    def ts(t: Term) -> str:
        if isinstance(t, Var):
            return env.get(t.name, t.name) if env else t.name
        return str(t.value)

    def wrap(g: Formula, minimum: int) -> str:
        s = _render(g, env, counter)
        return f"({s})" if _prec(g) < minimum else s

    if isinstance(f, Atom):
        return f"{f.pred}({','.join(ts(a) for a in f.args)})"
    if isinstance(f, And):
        return " & ".join(wrap(p, _PREC_AND + 1) for p in f.parts)
    if isinstance(f, Or):
        return " | ".join(wrap(p, _PREC_OR + 1) for p in f.parts)
    if isinstance(f, Not):
        return "!" + wrap(f.body, _PREC_NOT)
    if isinstance(f, Cmp):
        return f"{ts(f.left)} {f.op} {ts(f.right)}"
    if isinstance(f, InNbhd):
        return f"{ts(f.term)} in N^{f.radius}({ts(f.center)})"
    if isinstance(f, BoolConst):
        return "true" if f.value else "false"
    if isinstance(f, (Exists, Forall)):
        kw = "exists" if isinstance(f, Exists) else "forall"
        name = f.var
        if env is not None:
            counter[0] += 1
            name = f"q{counter[0]}"
        rng = ""
        if f.bound is not None:
            center, radius = f.bound
            rng = f" in N^{radius}({ts(center)})"
        inner = env if env is None else {**env, f.var: name}
        return f"{kw} {name}{rng}. {_render(f.body, inner, counter)}"
    raise TypeError(f"not a formula: {f!r}")


def print_formula(f: Formula) -> str:
    return _render(f, None, [0])


def print_fixpoint(q: FixpointQuery) -> str:
    return f"mu {q.name}({','.join(q.vars)}). {print_formula(q.body)}"


def canonical_print(f: Formula) -> str:
    """Printed form with bound variables renamed q1, q2, ... in pre-order.

    Alpha-equivalent formulas print identically; the string doubles as the
    canonical query key throughout the distributed engines.
    """
    return _render(f, {}, [0])


# ----------------------------------------------------------------- tokenizer


def _token_re(comment: str, ops: str) -> re.Pattern[str]:
    """Token pattern of a front end: whitespace and `comment` are skipped,
    names and integers are shared, `ops` are its operators."""
    return re.compile(
        rf"(?P<skip>\s+|{comment})|(?P<name>[A-Za-z_][A-Za-z0-9_']*)"
        rf"|(?P<int>[0-9]+)|(?P<op>{ops})"
    )


class _Tok(NamedTuple):
    kind: str  # "name", "int", "eof", or the operator text itself
    text: str
    pos: int


class _TokenStream:
    """The tokens of one input and the helpers both front ends parse with.

    A subclass sets `token_re` (see `_token_re`); an operator token's kind
    and text are its spelling after `aliases`, and a name in `keywords` is
    not a term."""

    token_re: re.Pattern[str]
    aliases: dict[str, str] = {}
    keywords: frozenset[str] = frozenset()

    def __init__(self, text: str):
        self.text = text
        self.toks: list[_Tok] = []
        self.i = 0
        pos = 0
        for m in self.token_re.finditer(text):
            if m.start() != pos:
                break
            kind, word = m.lastgroup, m.group()
            if kind == "op":
                kind = word = self.aliases.get(word, word)
            if kind != "skip":
                self.toks.append(_Tok(kind, word, pos))
            pos = m.end()
        if pos < len(text):
            raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
        self.toks.append(_Tok("eof", "", pos))

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[self.i + ahead]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            shown = t.text if t.kind != "eof" else "end of input"
            self.fail(f"expected {kind!r}, found {shown!r}", t)
        return self.next()

    def fail(self, message: str, tok: Optional[_Tok] = None) -> NoReturn:
        """Raise a ParseError at `tok`, by default the next token."""
        raise ParseError(message, self.text, (tok or self.peek()).pos)

    def parse_term(self) -> Term:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return Const(int(t.text))
        if t.kind == "name" and t.text not in self.keywords:
            self.next()
            return Var(t.text)
        self.fail(f"expected a term, found {t.text!r}")


class _Parser(_TokenStream):
    token_re = _token_re(r"#[^\n]*", r"!=|>=|[()=.,&|!^]")
    keywords = frozenset({"exists", "forall", "in", "mu", "true", "false"})

    # -- grammar

    def parse_formula(self) -> Formula:
        f = self.parse_or()
        if self.peek().kind != "eof":
            self.fail(f"trailing input starting at {self.peek().text!r}")
        return f

    def parse_or(self) -> Formula:
        parts = [self.parse_and()]
        while self.peek().kind == "|":
            self.next()
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self) -> Formula:
        parts = [self.parse_unary()]
        while self.peek().kind == "&":
            self.next()
            parts.append(self.parse_unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_unary(self) -> Formula:
        t = self.peek()
        if t.kind == "!":
            self.next()
            return Not(self.parse_unary())
        if t.kind == "name" and t.text in ("exists", "forall"):
            return self.parse_quantifier()
        return self.parse_primary()

    def parse_quantifier(self) -> Formula:
        kw = self.next().text
        var_tok = self.expect("name")
        if var_tok.text in self.keywords:
            self.fail(f"keyword {var_tok.text!r} cannot be a variable", var_tok)
        bound = None
        if self.peek().kind == "name" and self.peek().text == "in":
            self.next()
            bound = self.parse_nbhd_range()
        self.expect(".")
        body = self.parse_or()
        cls = Exists if kw == "exists" else Forall
        return cls(var_tok.text, body, bound)

    def parse_nbhd_range(self) -> tuple[Term, int]:
        n = self.expect("name")
        if n.text != "N":
            self.fail("expected neighborhood range N^k(...)", n)
        self.expect("^")
        radius = int(self.expect("int").text)
        self.expect("(")
        center = self.parse_term()
        self.expect(")")
        return (center, radius)

    def parse_primary(self) -> Formula:
        t = self.peek()
        if t.kind == "(":
            self.next()
            f = self.parse_or()
            self.expect(")")
            return f
        if t.kind == "name" and t.text == "true":
            self.next()
            return TRUE
        if t.kind == "name" and t.text == "false":
            self.next()
            return FALSE
        if t.kind == "name" and t.text in self.keywords:
            self.fail(f"unexpected keyword {t.text!r}")
        # Relation atom: NAME '(' ...
        if t.kind == "name" and self.peek(1).kind == "(":
            name = self.next().text
            self.next()  # '('
            args = [self.parse_term()]
            while self.peek().kind == ",":
                self.next()
                args.append(self.parse_term())
            self.expect(")")
            return Atom(name, tuple(args))
        # Otherwise: a term followed by a comparison or membership.
        left = self.parse_term()
        op = self.peek()
        if op.kind in ("=", "!=", ">="):
            self.next()
            right = self.parse_term()
            return Cmp(op.kind, left, right)
        if op.kind == "name" and op.text == "in":
            self.next()
            center, radius = self.parse_nbhd_range()
            return InNbhd(left, radius, center)
        self.fail("expected a comparison or membership after term")


# ------------------------------------------------- post-parse normalization


def _arity_clash(
    uses: Iterable[tuple[str, int, Any]], arities: dict[str, int]
) -> Optional[tuple[Any, str, int, int]]:
    """The first use (predicate, arity, where) that disagrees with
    `arities`, as (where, predicate, arity, recorded arity); a first use
    records its arity."""
    for pred, n, where in uses:
        if arities.setdefault(pred, n) != n:
            return where, pred, n, arities[pred]
    return None


def _check_arities(f: Formula, fixpoint_name: Optional[str] = None,
                   fixpoint_arity: Optional[int] = None) -> None:
    seen: dict[str, int] = {EDGE_PRED: 2}
    if fixpoint_name is not None:
        seen[fixpoint_name] = fixpoint_arity  # type: ignore[assignment]
    uses = ((g.pred, len(g.args), None) for g in atoms(f) if isinstance(g, Atom))
    clash = _arity_clash(uses, seen)
    if clash is not None:
        raise FormulaError("arity mismatch for %s: %d vs %d" % clash[1:])


def _uniquify_binders(f: Formula) -> Formula:
    """Rename shadowing/duplicate binders so every binder is distinct and no
    bound name collides with a free name."""
    return _rename_binders(f, {}, set(free_vars(f)))


def _rename_binders(g: Formula, env: dict[str, str], taken: set[str]) -> Formula:
    """g with each binder renamed to a name not in `taken` (which records
    it) and each variable that `env` maps renamed as it says."""

    def tr(t: Term) -> Term:
        if isinstance(t, Var) and t.name in env:
            return Var(env[t.name])
        return t

    def quant(h: Formula) -> Formula:
        name = h.var
        while name in taken:
            name += "'"
        taken.add(name)
        body = _rename_binders(h.body, {**env, h.var: name}, taken)
        return type(h)(name, body, _map_bound(h.bound, tr))

    return map_formula(g, quant, tr)


def _drop_unused_binders(f: Formula) -> Formula:
    def quant(g: Formula) -> Formula:
        body = _drop_unused_binders(g.body)
        if g.var not in free_vars(body):
            # The quantifier range is never empty (any node for a plain
            # binder; the center's own neighborhood for a bounded one), so a
            # vacuous binder can be dropped without changing truth.
            return body
        return type(g)(g.var, body, g.bound)

    return map_formula(f, quant, smart=True)


def normalize(f: Formula) -> Formula:
    return _uniquify_binders(_drop_unused_binders(f))


# ----------------------------------------------------------------- front end


def parse_formula(text: str) -> Formula:
    f = _Parser(text).parse_formula()
    _check_arities(f)
    return normalize(f)


def parse_fixpoint(text: str) -> FixpointQuery:
    p = _Parser(text)
    kw = p.expect("name")
    if kw.text != "mu":
        p.fail("fixpoint query must start with 'mu'", kw)
    name_tok = p.expect("name")
    if name_tok.text in p.keywords:
        p.fail("fixpoint relation name is a keyword", name_tok)
    p.expect("(")
    vars_: list[str] = [p.expect("name").text]
    while p.peek().kind == ",":
        p.next()
        vars_.append(p.expect("name").text)
    p.expect(")")
    p.expect(".")
    body = p.parse_or()
    if p.peek().kind != "eof":
        p.fail(f"trailing input {p.peek().text!r}")
    if len(set(vars_)) != len(vars_):
        raise FormulaError(f"duplicate declared variables in mu {name_tok.text}")
    _check_arities(body, fixpoint_name=name_tok.text, fixpoint_arity=len(vars_))
    body = normalize(body)
    fv = set(free_vars(body))
    declared = set(vars_)
    if not fv <= declared:
        raise FormulaError(
            f"body free variables {sorted(fv - declared)} are not declared"
        )
    return FixpointQuery(name_tok.text, tuple(vars_), body)


# ------------------------------------------------------------------- stats


def stats(f: Union[Formula, FixpointQuery]) -> FormulaStats:
    if isinstance(f, FixpointQuery):
        body = f.body
        ell = len(f.vars)
    else:
        body = f
        ell = len(free_vars(f))
    k = len(bound_vars(body))
    c = len(constants(body))
    return FormulaStats(ell, k, c)


# ------------------------------------------------------------ substitution


def substitute(f: Formula, var: str, value: int) -> Formula:
    """Replace every occurrence of `var` by the constant; remove its binder.

    Instantiating a radius-bounded binder keeps the range constraint as an
    explicit membership conjunct (for exists) or disjoined negation (for
    forall), preserving the bounded quantifier's semantics.
    """
    return _substitute(f, var, Const(value))


def _substitute(f: Formula, var: str, const: Const) -> Formula:
    def tr(t: Term) -> Term:
        return const if isinstance(t, Var) and t.name == var else t

    def quant(g: Formula) -> Formula:
        body = _substitute(g.body, var, const)
        if g.var != var:
            return type(g)(g.var, body, _map_bound(g.bound, tr))
        if g.bound is None:
            return body  # binder removed; occurrences replaced
        center, radius = g.bound
        guard = InNbhd(const, radius, tr(center))
        if isinstance(g, Exists):
            return make_and([guard, body])
        return make_or([make_not(guard), body])

    return map_formula(f, quant, tr, smart=True)


# ------------------------------------------------------------------ locality


def locality(f: Formula) -> tuple[str, int]:
    """The center variable x and radius k of a radius-bounded formula.

    This is the one definition of radius-bounded (the FO_loc/FP_loc
    fragments): every quantifier ranges over N^k(x), every membership atom
    reads `t in N^k(x)`, and every free variable y other than x has a
    top-level conjunct `y in N^k(x)`.  Anything else raises
    FormulaError naming the first condition that fails."""
    if any(
        isinstance(g, (Exists, Forall)) and g.bound is None for g in subformulas(f)
    ):
        raise FormulaError("unbounded quantifier: the query is not radius-bounded")
    named = list(ranges(f))
    for g, c, _ in named:
        if isinstance(c, Var):
            continue
        if isinstance(g, InNbhd):
            raise FormulaError("neighborhood atoms must center on a variable")
        raise FormulaError("quantifier bounds must center on a variable")
    centers = {c.name for _, c, _ in named}
    radii = {r for _, _, r in named}
    if len(radii) != 1 or len(centers) != 1:
        raise FormulaError(
            "cannot infer a single locality radius and center variable"
        )
    (x,), (k,) = centers, radii
    if k < 1:
        raise FormulaError("locality radius must be >= 1")
    # x is free: the outermost of its occurrences lies outside any binder
    # of x, since every binder's own range names x.
    parts = f.parts if isinstance(f, And) else (f,)
    guarded = {
        p.term.name
        for p in parts
        if isinstance(p, InNbhd) and isinstance(p.term, Var)
    }
    missing = [y for y in free_vars(f) if y != x and y not in guarded]
    if missing:
        raise FormulaError(
            f"free variables {missing} lack a neighborhood guard around "
            f"{x!r}; the query is not radius-bounded"
        )
    return x, k


def check_atoms(
    query: Union[Formula, FixpointQuery], tables: Mapping[str, int] = {}
) -> None:
    """The one rule for the relations a query reads, which every engine and
    the oracle apply.  A relation atom reads the edge relation G/2, a unary
    input fact, read closed-world (a predicate no node holds is empty), or
    a named relation at its declared arity: one in `tables` (a fixpoint or
    auxiliary relation) or a fixpoint query's own.  A named relation may
    not shadow G, and each declared variable of a fixpoint query occurs
    free in its body.  Anything else raises FormulaError naming it."""
    if isinstance(query, FixpointQuery):
        if set(free_vars(query.body)) != set(query.vars):
            raise FormulaError(
                "every declared fixpoint variable must occur in the body"
            )
        tables = {**tables, query.name: query.arity}
        query = query.body
    if EDGE_PRED in tables:
        raise FormulaError(f"a named relation may not shadow {EDGE_PRED!r}")
    for g in atoms(query):
        if isinstance(g, Atom):
            n = len(g.args)
            if n != tables.get(g.pred, 2 if g.pred == EDGE_PRED else 1):
                raise FormulaError(
                    f"relation {g.pred}/{n} is not available on the network"
                )


# ----------------------------------------------------------- relativization


def relativize(f: Formula, center: str, k: int) -> Formula:
    """The radius-bounded form of f around `center` at radius k (see
    `locality`): every quantifier is bounded by N^k(center), and every other
    free variable is constrained to N^k(center) by a top-level membership
    conjunct.  Connectives below the top are rebuilt as they are.  The input
    must have no bounded quantifier and no membership atom."""
    if center not in free_vars(f):
        raise FormulaError(f"center {center!r} is not a free variable")
    if k < 1:
        raise FormulaError("radius must be >= 1")
    if any(ranges(f)):
        raise FormulaError(
            "only a formula without neighborhood bounds can be relativized"
        )
    c = Var(center)
    guards = [InNbhd(Var(y), k, c) for y in free_vars(f) if y != center]
    return make_and([_bound_quantifiers(f, (c, k))] + guards)


def _bound_quantifiers(f: Formula, bound: tuple[Term, int]) -> Formula:
    """f with every quantifier ranging over `bound`."""
    return map_formula(
        f, lambda g: type(g)(g.var, _bound_quantifiers(g.body, bound), bound)
    )


def relativize_fixpoint(q: FixpointQuery, k: int) -> FixpointQuery:
    return FixpointQuery(q.name, q.vars, relativize(q.body, q.vars[0], k))
