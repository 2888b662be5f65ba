"""Rule language shared by the centralized Datalog-with-negation evaluator
and the distributed store-and-push engine.

Provides the parsed rule types, the localization checker for distributed
rules, the rule plans both evaluation modes run, and the per-round
immediate-consequence operator over per-node stores.

A rule is compiled once into a plan (`plan_rule`): its body in an order
in which every literal is evaluable when reached, then its head, as steps
over one list of variable slots that every binding overwrites in place.  A positive literal probes an
index keyed by its argument positions bound before it, a negated literal
probes a membership set, and guards bind or test slots.  The indexes live
on a `FactView` of one evaluation's facts, which builds only those the
plans probe; their buckets keep the facts' ascending order, so a plan
yields its bindings in a fixed order.  Building a plan is the rule safety
check: `parse_netlog`, `oracle.eval_datalog` and `rewriter.compile` reject
through it a body that cannot be ordered or that leaves a head variable
unbound.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from . import simnet
from .logic import EDGE_PRED, Const, Term, Var, _TokenStream, _token_re, _UnionFind, term_str
from .oracle import Graph, Relation

Fact = tuple[str, tuple[int, ...]]


class NetlogError(ValueError):
    pass


class NonterminationError(NetlogError):
    def __init__(self, message: str, rounds: int, instance: "DistributedInstance"):
        super().__init__(message)
        self.rounds = rounds
        self.instance = instance


# ------------------------------------------------------------------- types


class NetlogLiteral:
    """Base class for body/head literals: relation atoms and built-in guards."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class RelLit(NetlogLiteral):
    """Relation atom, optionally negated, optionally with one argument
    marked @ as the holding variable."""

    pred: str
    args: tuple[Term, ...]
    positive: bool = True
    holding: Optional[int] = None  # index of the @-marked argument

    def holding_var(self) -> Optional[str]:
        if self.holding is None:
            return None
        t = self.args[self.holding]
        return t.name if isinstance(t, Var) else None


@dataclass(frozen=True, slots=True)
class GuardLit(NetlogLiteral):
    """Built-in guard: = / != / >= comparison, or decrement left = right - 1."""

    op: str  # "=", "!=", ">=", "dec"
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class NetlogRule:
    head: RelLit
    body: tuple[NetlogLiteral, ...]
    push: bool = False

    def __str__(self) -> str:
        return print_rule(self)


@dataclass(frozen=True, slots=True)
class NetlogProgram:
    rules: tuple[NetlogRule, ...]

    @property
    def intensional_preds(self) -> tuple[str, ...]:
        seen: list[str] = []
        for r in self.rules:
            if r.head.pred not in seen:
                seen.append(r.head.pred)
        return tuple(seen)

    @property
    def body_only_preds(self) -> tuple[str, ...]:
        heads = set(self.intensional_preds)
        seen: list[str] = []
        for r in self.rules:
            for lit in r.body:
                if (
                    isinstance(lit, RelLit)
                    and lit.pred not in heads
                    and lit.pred != EDGE_PRED
                    and lit.pred not in seen
                ):
                    seen.append(lit.pred)
        return tuple(seen)

    def __str__(self) -> str:
        return print_program(self)


@dataclass(frozen=True, slots=True)
class DistributedInstance:
    """Per-node fact stores; the global instance is the union of the stores."""

    stores: Mapping[int, frozenset[Fact]]

    def union_facts(self) -> frozenset[Fact]:
        out: set[Fact] = set()
        for fs in self.stores.values():
            out |= fs
        return frozenset(out)

    def facts_of(self, pred: str) -> frozenset[tuple[int, ...]]:
        return frozenset(
            args for fs in self.stores.values() for p, args in fs if p == pred
        )

    def relation(self, pred: str, arity: int) -> Relation:
        tuples = self.facts_of(pred)
        for t in tuples:
            if len(t) != arity:
                raise NetlogError(f"fact {pred}{t} does not have arity {arity}")
        return Relation(arity, tuples)


def make_instance(
    g: Graph, stores: Optional[Mapping[int, Iterable[Fact]]] = None
) -> DistributedInstance:
    base: dict[int, frozenset[Fact]] = {v: frozenset() for v in g.nodes}
    for v, fs in (stores or {}).items():
        if v not in base:
            raise NetlogError(f"store references unknown node {v}")
        base[v] = frozenset(tuple(f) for f in fs)
    return DistributedInstance(base)


def start_instance(g: Graph) -> DistributedInstance:
    """Initial instance: one start(v) fact on every node."""
    return make_instance(g, {v: [("start", (v,))] for v in g.nodes})


# ---------------------------------------------------------------- printing


def print_literal(lit: NetlogLiteral) -> str:
    if isinstance(lit, GuardLit):
        if lit.op == "dec":
            return f"{term_str(lit.left)} = {term_str(lit.right)} - 1"
        return f"{term_str(lit.left)} {lit.op} {term_str(lit.right)}"
    assert isinstance(lit, RelLit)
    parts = []
    for i, t in enumerate(lit.args):
        mark = "@" if i == lit.holding else ""
        parts.append(mark + term_str(t))
    neg = "" if lit.positive else "!"
    return f"{neg}{lit.pred}({', '.join(parts)})"


def print_rule(rule: NetlogRule) -> str:
    mark = "^" if rule.push else ""
    body = "; ".join(print_literal(lit) for lit in rule.body)
    return f"{mark}{print_literal(rule.head)} :- {body}."


def print_program(program: NetlogProgram) -> str:
    return "\n".join(print_rule(r) for r in program.rules) + "\n"


# ------------------------------------------------------------------ parser


class _RuleParser(_TokenStream):
    token_re = _token_re(r"%[^\n]*", r":-|!=|>=|[-(),;.@=^!≠≥↑¬]")
    aliases = {"≠": "!=", "≥": ">=", "↑": "^", "¬": "!"}

    def __init__(self, text: str, distributed: bool):
        super().__init__(text)
        self.distributed = distributed

    def parse_program(self) -> list[NetlogRule]:
        rules = []
        while self.peek().kind != "eof":
            rules.append(self.parse_rule())
        return rules

    def parse_rule(self) -> NetlogRule:
        push = False
        if self.peek().kind == "^":
            self.next()
            push = True
            if not self.distributed:
                self.fail("push marker ^ is not allowed in centralized rules")
        head = self.parse_atom()
        self.expect(":-")
        body: list[NetlogLiteral] = [self.parse_literal()]
        while self.peek().kind in (";", ","):
            self.next()
            body.append(self.parse_literal())
        self.expect(".")
        return NetlogRule(head, tuple(body), push)

    def parse_literal(self) -> NetlogLiteral:
        if self.peek().kind == "!":
            self.next()
            return self.parse_atom(negated=True)
        if self.peek().kind == "name" and self.peek(1).kind == "(":
            return self.parse_atom()
        return self.parse_guard()

    def parse_atom(self, negated: bool = False) -> RelLit:
        name_tok = self.expect("name")
        self.expect("(")
        args: list[Term] = []
        holding: Optional[int] = None
        while True:
            if self.peek().kind == "@":
                at_tok = self.next()
                if not self.distributed:
                    self.fail("holding marker @ is not allowed in centralized rules", at_tok)
                if holding is not None:
                    self.fail("literal has more than one holding marker", at_tok)
                term = self.parse_term()
                if not isinstance(term, Var):
                    self.fail("holding marker must be on a variable", at_tok)
                holding = len(args)
                args.append(term)
            else:
                args.append(self.parse_term())
            if self.peek().kind == ",":
                self.next()
                continue
            break
        self.expect(")")
        return RelLit(name_tok.text, tuple(args), positive=not negated, holding=holding)

    def parse_guard(self) -> GuardLit:
        left = self.parse_term()
        op_tok = self.next()
        if op_tok.kind not in ("=", "!=", ">="):
            self.fail(f"expected comparison operator, found {op_tok.text!r}", op_tok)
        right = self.parse_term()
        if self.peek().kind == "-":
            minus_tok = self.next()
            amount = self.expect("int")
            if op_tok.kind != "=" or amount.text != "1":
                self.fail("only decrement guards of the form p = q - 1 are supported", minus_tok)
            if not isinstance(right, Var):
                self.fail("decrement guard needs a variable on the right side", minus_tok)
            return GuardLit("dec", left, right)
        return GuardLit(op_tok.kind, left, right)


def _check_arities(rules: Sequence[NetlogRule]) -> None:
    arities: dict[str, int] = {EDGE_PRED: 2}
    for idx, rule in enumerate(rules, start=1):
        lits = [rule.head] + [lit for lit in rule.body if isinstance(lit, RelLit)]
        for lit in lits:
            known = arities.get(lit.pred)
            if known is None:
                arities[lit.pred] = len(lit.args)
            elif known != len(lit.args):
                raise NetlogError(
                    f"rule {idx}: predicate {lit.pred} used with arity "
                    f"{len(lit.args)} but previously with arity {known}"
                )


def parse_datalog(text: str) -> NetlogProgram:
    """Parse centralized rules: no holding markers, no push arrows."""
    rules = _RuleParser(text, distributed=False).parse_program()
    if not rules:
        raise NetlogError("empty program")
    _check_arities(rules)
    return NetlogProgram(tuple(rules))


def parse_netlog(text: str) -> NetlogProgram:
    """Parse distributed rules and enforce the localization restrictions."""
    rules = _RuleParser(text, distributed=True).parse_program()
    if not rules:
        raise NetlogError("empty program")
    _check_arities(rules)
    for idx, rule in enumerate(rules, start=1):
        if rule.head.holding is None:
            raise NetlogError(
                f"rule {idx}: head {print_literal(rule.head)} has no holding marker"
            )
        violation = check_localization(rule)
        if violation is not None:
            raise NetlogError(
                f"rule {idx} violates localization restriction {violation}"
            )
    node_plans(rules)
    return NetlogProgram(tuple(rules))


# ------------------------------------------------------- localization check


def _equality_classes(rule: NetlogRule) -> _UnionFind:
    uf = _UnionFind()
    for lit in rule.body:
        if (
            isinstance(lit, GuardLit)
            and lit.op == "="
            and isinstance(lit.left, Var)
            and isinstance(lit.right, Var)
        ):
            uf.union(lit.left.name, lit.right.name)
    return uf


def check_localization(rule: NetlogRule) -> Optional[str]:
    """Return None when the rule satisfies the three localization
    restrictions, or a string naming the violated restriction.

    Variables linked by positive equality guards count as one holding
    variable.
    """
    uf = _equality_classes(rule)
    body_hvs = body_holding_vars(rule)
    if not body_hvs:
        return (
            "(i): no body literal carries a holding variable, so the rule "
            "cannot be evaluated on any node"
        )
    rep = body_hvs[0]
    for hv in body_hvs[1:]:
        if not uf.same(rep, hv):
            return (
                f"(i): body holding variables {rep!r} and {hv!r} are not the same"
            )
    head_hv = rule.head.holding_var()
    if head_hv is None:
        return "(ii): head has no holding variable"
    same = uf.same(head_hv, rep)
    if rule.push and same:
        return (
            f"(ii): rule is marked for pushing but head holding variable "
            f"{head_hv!r} equals the body holding variable"
        )
    if not rule.push and not same:
        return (
            f"(ii): head holding variable {head_hv!r} differs from body holding "
            f"variable {rep!r} but the rule is not marked for pushing"
        )
    if rule.push:
        linked = False
        for lit in rule.body:
            if (
                isinstance(lit, RelLit)
                and lit.positive
                and lit.pred == EDGE_PRED
                and len(lit.args) == 2
                and all(isinstance(t, Var) for t in lit.args)
            ):
                a, b = lit.args[0].name, lit.args[1].name
                if (uf.same(a, rep) and uf.same(b, head_hv)) or (
                    uf.same(b, rep) and uf.same(a, head_hv)
                ):
                    linked = True
                    break
        if not linked:
            return (
                f"(iii): pushed head holding variable {head_hv!r} is not linked "
                f"to body holding variable {rep!r} by an edge literal"
            )
    return None


def body_holding_vars(rule: NetlogRule) -> tuple[str, ...]:
    out: list[str] = []
    for lit in rule.body:
        if isinstance(lit, RelLit) and lit.holding is not None:
            t = lit.args[lit.holding]
            if isinstance(t, Var) and t.name not in out:
                out.append(t.name)
    return tuple(out)


# ---------------------------------------------------------------- matching


def _lit_vars(lit: NetlogLiteral) -> set[str]:
    if isinstance(lit, RelLit):
        return {t.name for t in lit.args if isinstance(t, Var)}
    out = set()
    for t in (lit.left, lit.right):
        if isinstance(t, Var):
            out.add(t.name)
    return out


def _ready(lit: NetlogLiteral, bound: Mapping[str, int]) -> bool:
    """Whether a body literal is evaluable once the variables in `bound` are:
    a positive relation atom joins and binds, an equality guard may bind one
    side and a decrement guard its left side, and a negated atom or a
    comparison needs every variable bound."""
    if isinstance(lit, RelLit):
        return lit.positive or all(
            t.name in bound for t in lit.args if isinstance(t, Var)
        )
    left_ok = not isinstance(lit.left, Var) or lit.left.name in bound
    right_ok = not isinstance(lit.right, Var) or lit.right.name in bound
    if lit.op == "=":
        return left_ok or right_ok
    if lit.op == "dec":
        return right_ok
    return left_ok and right_ok


# Plan step operations.  A step is a tuple whose first item is one of these;
# slots index the binding list, constants included (see plan_rule).
_JOIN, _ABSENT, _LET, _LET_DEC, _EQ, _NE, _GE, _DEC, _HEAD = range(9)
_TESTS = {"=": _EQ, "!=": _NE, ">=": _GE, "dec": _DEC}


def _tuple_getter(slots: Sequence[int]) -> Callable[[list[int]], tuple[int, ...]]:
    """The values in the given slots, always as a tuple."""
    if len(slots) == 1:
        (s,) = slots
        return lambda env: (env[s],)
    if not slots:
        return lambda env: ()
    return itemgetter(*slots)


class RulePlan(NamedTuple):
    """A rule compiled for evaluation: its body in evaluable order, then its
    head, as steps over one binding list.  The first `held` slots hold the
    prebound variables and the last slots the rule's constants."""

    rule: NetlogRule
    steps: tuple[tuple, ...]
    held: int
    rest: tuple[int, ...]  # the binding list after the held slots

    def fire(self, view: "FactView", out: list[Fact], holder: int = 0) -> None:
        """Append to `out` the head fact of every binding of the body in
        `view`, with the prebound variables set to `holder`."""
        _match_literal(self.steps, 0, [holder] * self.held + list(self.rest), view, out)


def plan_rule(rule: NetlogRule, prebound: Sequence[str] = ()) -> RulePlan:
    """Compile a rule into a plan, with the variables in `prebound` bound in
    advance.  The body is ordered by taking, each time, the first remaining
    literal that is evaluable (`_ready`); then comes the head.  This is the
    rule safety check: it raises NetlogError when literals remain and none
    is evaluable, or when the body leaves a head variable unbound."""
    slots: dict[str, int] = {}  # bound variable -> slot
    for name in prebound:
        slots.setdefault(name, len(slots))
    held = len(slots)
    consts: list[int] = []  # stored at the end of the list, addressed from it

    def slot(t: Term) -> int:
        if isinstance(t, Const):
            if t.value not in consts:
                consts.append(t.value)
            return -1 - consts.index(t.value)
        return slots[t.name]

    steps: list[tuple] = []
    remaining = list(rule.body)
    i = 0
    while i < len(remaining):
        lit = remaining[i]
        if not (isinstance(lit, RelLit) and lit.positive) and not _ready(lit, slots):
            i += 1
            continue
        del remaining[i]
        i = 0
        if isinstance(lit, GuardLit):
            # Every operand is bound but the one an = or dec guard binds.
            left, right = lit.left, lit.right
            if isinstance(left, Var) and left.name not in slots:
                op = _LET_DEC if lit.op == "dec" else _LET
                steps.append((op, len(slots), slot(right)))
                slots[left.name] = len(slots)
            elif isinstance(right, Var) and right.name not in slots:
                steps.append((_LET, len(slots), slot(left)))
                slots[right.name] = len(slots)
            else:
                steps.append((_TESTS[lit.op], slot(left), slot(right)))
        elif not lit.positive:
            args = _tuple_getter([slot(t) for t in lit.args])
            steps.append((_ABSENT, lit.pred, args))
        else:
            # Bound positions key the index; the others bind fresh slots in
            # position order, or repeat a variable bound at an earlier one.
            first = len(slots)
            key_pos, key_slots, free, same = [], [], [], []
            mask = 0  # the key positions as bits, naming the index
            for p, t in enumerate(lit.args):
                s = slot(t) if isinstance(t, Const) else slots.get(t.name)
                if s is None:
                    slots[t.name] = len(slots)  # type: ignore[union-attr]
                    free.append(p)
                elif s >= first:
                    same.append((free[s - first], p))
                else:
                    key_pos.append(p)
                    key_slots.append(s)
                    mask |= 1 << p
            name = (lit.pred, len(lit.args), mask, tuple(same))
            key = itemgetter(*key_slots) if key_slots else None
            steps.append((_JOIN, name, key, first, len(free), (key_pos, free)))
    if remaining:
        names = sorted(set().union(*map(_lit_vars, remaining)) - slots.keys())
        raise NetlogError(f"unsafe rule body: variables {names} cannot be bound")
    try:
        head = _tuple_getter([
            slots[t.name] if isinstance(t, Var) else slot(t) for t in rule.head.args
        ])
    except KeyError:
        unbound = sorted(_lit_vars(rule.head) - slots.keys())
        raise NetlogError(
            f"unsafe rule: head variables {unbound} are not bound by the "
            f"body in {print_rule(rule)}"
        ) from None
    steps.append((_HEAD, rule.head.pred, head))
    rest = (0,) * (len(slots) - held) + tuple(reversed(consts))
    return RulePlan(rule, tuple(steps), held, rest)


class FactView:
    """The facts one evaluation sees: a fact store, the unary input facts
    and the visible edges, each given once and matched both ways.  A node
    sees its own store and only the edges that touch it.  The indexes that
    plan steps probe are built on first use, each predicate's sorted tuples
    once for all its indexes; a bucket lists its tuples in ascending
    order."""

    __slots__ = ("by_pred", "unary", "edges", "indexes", "sorted")

    def __init__(
        self,
        facts: Iterable[Fact],
        unary: Mapping[str, frozenset[int]],
        edges: Iterable[tuple[int, int]],
    ):
        self.by_pred: dict[str, list[tuple[int, ...]]] = {}
        for pred, args in facts:
            self.by_pred.setdefault(pred, []).append(args)
        self.unary = unary
        self.edges = tuple(edges)
        self.indexes: dict[Any, Any] = {}  # a plan step's name -> its index
        self.sorted: dict[str, list[tuple[int, ...]]] = {}

    def tuples(self, pred: str) -> list[tuple[int, ...]]:
        """Every tuple of `pred`, ascending and without repeats.  The list
        is shared by every index built on `pred`, so it is never changed."""
        rows = self.sorted.get(pred)
        if rows is None:
            if pred == EDGE_PRED:
                out = {e for u, v in self.edges for e in ((u, v), (v, u))}
            else:
                out = set(self.by_pred.get(pred, ()))
                out.update((a,) for a in self.unary.get(pred, ()))
            rows = self.sorted[pred] = sorted(out)
        return rows

    def build(self, step: tuple) -> Any:
        """The index a `_JOIN` step probes: its literal's tuples that agree
        on repeated variables, cut down to the positions the step binds,
        under the values at the positions bound before it (a list when
        none are).  For an `_ABSENT` step, the set of the literal's tuples."""
        if step[0] == _ABSENT:
            index: Any = set(self.tuples(step[1]))
        else:
            pred, arity, _mask, same = step[1]
            key_pos, free = step[5]
            rows = [t for t in self.tuples(pred) if len(t) == arity]
            if same:
                rows = [t for t in rows if all(t[a] == t[b] for a, b in same)]
            project = itemgetter(*free) if free else lambda t: ()
            if not key_pos:
                index = [project(t) for t in rows]
            else:
                key = itemgetter(*key_pos)
                index = {}
                for t in rows:
                    index.setdefault(key(t), []).append(project(t))
        self.indexes[step[1]] = index
        return index


def _match_literal(
    plan: tuple[tuple, ...], k: int, env: list[int], view: FactView, out: list[Fact]
) -> None:
    """Run step k of a plan for the binding in `env`, and step k + 1 for
    every binding that step yields, in order; the head step appends its
    fact to `out`.  A step writes only slots no earlier step binds, so one
    list serves every binding."""
    step = plan[k]
    op = step[0]
    if op == _JOIN:
        _, name, key, first, width, _positions = step
        index = view.indexes.get(name)
        if index is None:
            index = view.build(step)
        rows = index if key is None else index.get(key(env), ())
        k += 1
        if width == 1:
            for env[first] in rows:
                _match_literal(plan, k, env, view, out)
        elif width:
            for env[first:first + width] in rows:
                _match_literal(plan, k, env, view, out)
        else:
            for _ in rows:
                _match_literal(plan, k, env, view, out)
    elif op == _HEAD:
        out.append((step[1], step[2](env)))
    elif op == _NE:
        if env[step[1]] != env[step[2]]:
            _match_literal(plan, k + 1, env, view, out)
    elif op == _LET:
        env[step[1]] = env[step[2]]
        _match_literal(plan, k + 1, env, view, out)
    elif op == _ABSENT:
        members = view.indexes.get(step[1])
        if members is None:
            members = view.build(step)
        if step[2](env) not in members:
            _match_literal(plan, k + 1, env, view, out)
    elif op == _EQ:
        if env[step[1]] == env[step[2]]:
            _match_literal(plan, k + 1, env, view, out)
    elif op == _GE:
        if env[step[1]] >= env[step[2]]:
            _match_literal(plan, k + 1, env, view, out)
    elif op == _LET_DEC:
        env[step[1]] = env[step[2]] - 1
        _match_literal(plan, k + 1, env, view, out)
    elif env[step[1]] == env[step[2]] - 1:  # _DEC
        _match_literal(plan, k + 1, env, view, out)


def match_body(
    body: Sequence[NetlogLiteral],
    facts: Iterable[Fact],
    g: Graph,
) -> Iterator[Mapping[str, int]]:
    """All assignments satisfying the body against the given fact set, the
    graph edges, and the graph's unary input facts (centralized view)."""
    names = sorted(set().union(*map(_lit_vars, body)))
    head = RelLit("", tuple(Var(n) for n in names))
    out: list[Fact] = []
    plan_rule(NetlogRule(head, tuple(body))).fire(FactView(facts, g.unary, g.edges()), out)
    for _, values in out:
        yield dict(zip(names, values))


# ------------------------------------------------------------- consequence


def node_plans(rules: Sequence[NetlogRule]) -> tuple[RulePlan, ...]:
    """Each rule's plan for evaluation at a node, which binds the body
    holding variables to the node in advance."""
    plans = []
    for idx, rule in enumerate(rules, start=1):
        if rule.head.holding is None:
            raise NetlogError(f"rule {print_rule(rule)} has no head holding marker")
        try:
            plans.append(plan_rule(rule, body_holding_vars(rule)))
        except NetlogError as e:
            raise NetlogError(f"rule {idx}: {e}") from None
    return tuple(plans)


def _placed(
    plans: Sequence[RulePlan], view: FactView, v: int
) -> list[tuple[int, Fact]]:
    """Every fact the plans derive at node v, in order, with the node named
    by its head holding argument."""
    placed = []
    for plan in plans:
        out: list[Fact] = []
        plan.fire(view, out, v)
        holding = plan.rule.head.holding
        placed.extend((fact[1][holding], fact) for fact in out)  # type: ignore[index]
    return placed


def _consequence(
    plans: Sequence[RulePlan], g: Graph, instance: DistributedInstance
) -> DistributedInstance:
    new_stores: dict[int, set[Fact]] = {v: set() for v in g.nodes}
    for v in g.nodes:
        edges = [(v, u) for u in g.adj[v]]
        view = FactView(instance.stores.get(v, frozenset()), g.unary, edges)
        for target, fact in _placed(plans, view, v):
            if target not in new_stores:
                raise NetlogError(
                    f"fact {fact[0]}{fact[1]} addressed to unknown node "
                    f"{target}"
                )
            new_stores[target].add(fact)
    return DistributedInstance({v: frozenset(fs) for v, fs in new_stores.items()})


def consequence(
    program: NetlogProgram, g: Graph, instance: DistributedInstance
) -> DistributedInstance:
    """One application of the distributed immediate-consequence operator:
    every node fires every rule against its own store (plus incident edges
    and global unary input facts); each derived fact is placed at the node
    named by the head holding argument.  The result replaces the previous
    instance — persistence requires explicit copy rules."""
    return _consequence(node_plans(program.rules), g, instance)


def netlog_stages(
    program: NetlogProgram, g: Graph, cap: Optional[int] = None
) -> list[DistributedInstance]:
    """Round-by-round instance sequence starting from the start-fact seeding,
    ending when one round changes nothing.  Raises NonterminationError when
    the cap is exceeded."""
    if cap is None:
        cap = default_round_cap(program, g)
    plans = node_plans(program.rules)
    stages = [start_instance(g)]
    for _ in range(cap):
        nxt = _consequence(plans, g, stages[-1])
        stages.append(nxt)
        if nxt == stages[-2]:
            return stages
    raise NonterminationError(
        f"no fixpoint after {cap} rounds; the program may not terminate "
        f"on this network",
        cap,
        stages[-1],
    )


def default_round_cap(program: NetlogProgram, g: Graph) -> int:
    arities = {
        (r.head.pred, len(r.head.args)) for r in program.rules
    }
    universe = sum(g.n**arity for _pred, arity in arities)
    return 10 * (universe + 2)


# -------------------------------------------------------- distributed run


@dataclass
class _NetlogNodeState:
    """snapshot holds this node's slice of the current global instance:
    locally derived facts from the previous round plus just-arrived pushes."""

    local: frozenset[Fact]
    snapshot: Optional[frozenset[Fact]] = None


class NetlogEngine(simnet.NodeEngine):
    """Node automaton interpreting a localized rule program on the simulator.

    Each round a node assembles its instance slice (previous local
    derivations plus arrived pushed facts), fires every rule on it, keeps
    derivations addressed to itself, and sends push-rule derivations to the
    neighbor named by the head holding argument.  The store is replaced
    every round; persistence needs explicit copy rules.
    """

    def __init__(self, program: NetlogProgram):
        self.plans = node_plans(program.rules)
        # Fact -> wire bits.  One engine object serves one run, so one
        # encoding: the copy and push rules re-send the same facts round
        # after round, and each distinct fact is sized once.
        self.sizes: dict[Fact, int] = {}

    def start(self, ctx) -> _NetlogNodeState:
        if ctx.node_id is None:
            raise NetlogError("the rule engine needs globally unique node ids")
        return _NetlogNodeState(local=frozenset({("start", (ctx.node_id,))}))

    def step(self, state: _NetlogNodeState, ctx, round_no: int, inbox):
        v = ctx.node_id
        arrived = frozenset(m.payload for m in inbox)
        snapshot = state.local | arrived
        quiescent = snapshot == state.snapshot
        state.snapshot = snapshot
        port_of = {b: p for p, b in ctx.neighbor_ids.items()}
        edges = [(v, u) for u in port_of]
        derived = _placed(self.plans, FactView(snapshot, ctx.global_unary, edges), v)
        local: set[Fact] = set()
        sends: list[tuple[int, Fact]] = []
        for target, fact in derived:
            if target == v:
                local.add(fact)
            else:
                port = port_of.get(target)
                if port is None:
                    raise NetlogError(
                        f"fact {fact[0]}{fact[1]} addressed to non-neighbor "
                        f"{target}"
                    )
                sends.append((port, fact))
        state.local = frozenset(local)
        # The store is replaced every round, so every round needs a step.
        return simnet.StepResult(tuple(sends), quiescent, 1 + len(derived), round_no + 1)

    def collect(self, state: _NetlogNodeState, ctx) -> frozenset[Fact]:
        return state.snapshot if state.snapshot is not None else state.local

    def payload_bits(self, payload: Fact, enc) -> int:
        bits = self.sizes.get(payload)
        if bits is None:
            bits = enc.tag_bits
            for a in payload[1]:
                bits += max(enc.id_bits, a.bit_length() or 1)
            self.sizes[payload] = bits
        return bits


def run_netlog(program: NetlogProgram, net, order_seed: int = 0,
               round_cap: Optional[int] = None):
    """Run the program distributedly and return (final instance, metrics).

    A node is quiescent when its slice repeats the previous round's, so the
    run ends when the global instance repeats.  The store-refresh rules
    still send in that round, and those sends are never delivered.  Raises
    NonterminationError with the partial instance when the round cap is
    hit.
    """
    g = net.graph
    if round_cap is None:
        round_cap = default_round_cap(program, g)
    engine = NetlogEngine(program)
    try:
        res, metrics = simnet.run(
            net,
            engine,
            order_seed=order_seed,
            round_cap=round_cap,
        )
    except simnet.RoundCapError as err:
        partial = DistributedInstance(
            {a: frozenset(fs) for a, fs in err.results.items()}
        )
        raise NonterminationError(
            f"no fixpoint after {round_cap} rounds; the program may not "
            f"terminate on this network",
            round_cap,
            partial,
        ) from None
    instance = DistributedInstance({a: res[a] for a in g.nodes})
    return instance, metrics
