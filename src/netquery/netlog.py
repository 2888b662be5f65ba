"""Rule language shared by the centralized Datalog-with-negation evaluator
and the distributed store-and-push engine.

Provides the parsed rule types, the localization checker for distributed
rules, the rule plans both evaluation modes run, and the per-round
immediate-consequence operator over per-node stores.

A rule is compiled once into a plan (`plan_rule`): its body in an order
in which every literal is evaluable when reached, then its head, as steps
over numbered variable slots.  A positive literal probes an index keyed by
its argument positions bound before it, a negated literal probes a
membership set, and guards bind or test slots.  The indexes live on a
`FactView` of one evaluation's facts, which builds only those the plans
probe; their buckets keep the facts' ascending order, so a plan yields its
bindings in a fixed order.  A view reads a store grouped by predicate
(`group_facts`) and an edge set that holds both orientations
(`both_ways`).  It may share an index memo with earlier views, as each
node's views do across rounds; the node drops the entry of every predicate
that changed, so a view reuses whatever entry it finds.  Building a plan is
the rule safety check:
`parse_netlog`, `oracle.eval_datalog` and `rewriter.compile` reject through
it a body that cannot be ordered or that leaves a head variable unbound.

A plan runs as Python code generated from its steps (`_generate`) the first
time it fires, and kept on the plan: nested loops over the index buckets,
with the slots as local variables.  Every evaluation fires its plans
through `_match_literal`.  A node of a distributed run works from what
changed since its last step: it recounts only the gates whose relation
changed, and fires a plan only when the plan never fired there, a relation
it reads changed, or one of its gates counts differently (`NetlogEngine`).
One change set, computed once per step, decides all of that, quiescence
and which index memo entries are stale.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import (
    AbstractSet, Any, Callable, Iterable, Mapping, Optional, Sequence,
)

from . import simnet
from .logic import (
    EDGE_PRED, Const, Term, Var, _arity_clash, _TokenStream, _token_re, _UnionFind, term_str,
)
from .oracle import Graph, datalog_cap

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
    """A rule program.  A program that `parse_netlog` or `rewriter.compile`
    made carries the node plans `check_distributed` built for it, so every
    run of it reuses them; a run of a program built without them checks it
    the same way.  The plans take no part in equality."""

    rules: tuple[NetlogRule, ...]
    plans: Optional[tuple[RulePlan, ...]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def intensional_preds(self) -> tuple[str, ...]:
        seen: list[str] = []
        for r in self.rules:
            if r.head.pred not in seen:
                seen.append(r.head.pred)
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
    uses = (
        (lit.pred, len(lit.args), idx)
        for idx, rule in enumerate(rules, start=1)
        for lit in (rule.head, *rule.body)
        if isinstance(lit, RelLit)
    )
    clash = _arity_clash(uses, {EDGE_PRED: 2})
    if clash is not None:
        raise NetlogError(
            "rule %d: predicate %s used with arity %d but previously with "
            "arity %d" % clash
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
    return NetlogProgram(tuple(rules), check_distributed(rules))


def check_distributed(rules: Sequence[NetlogRule]) -> tuple[RulePlan, ...]:
    """What every distributed program satisfies, whether parsed or
    compiled: consistent arities, a holding marker on every head, the
    localization restrictions, and a node plan for every rule, which it
    returns.  Raises NetlogError naming the first rule that fails."""
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
    return node_plans(rules)


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
# slots number the rule's variables, and a negative slot names a constant
# (see plan_rule).
_JOIN, _ABSENT, _LET, _LET_DEC, _EQ, _NE, _GE, _DEC, _HEAD = range(9)
_TESTS = {"=": _EQ, "!=": _NE, ">=": _GE, "dec": _DEC}
_TEST_CODE = {_EQ: "{} == {}", _NE: "{} != {}", _GE: "{} >= {}", _DEC: "{} == {} - 1"}
# Statements nested in one generated function; CPython refuses more than 20
# nested loops, so a deeper plan continues in a function of its own.
_MAX_NESTING = 16


class RulePlan:
    """A rule compiled for evaluation: its body in evaluable order, then its
    head, as steps over the rule's variable slots.  The first `held` slots
    hold the prebound variables, and slot -1 - i the constant `consts[i]`.
    A plan is `local` when its head holding argument is a held slot, so
    that every fact it derives stays at the holder.  `run` is the plan's
    generated function, made when it first fires, and `reads` and `gates`
    (`_inputs`) are made when an engine first runs the plan."""

    __slots__ = ("rule", "steps", "held", "consts", "local", "reads", "gates", "run")

    def __init__(
        self, rule: NetlogRule, steps: tuple[tuple, ...], held: int, consts: tuple[int, ...]
    ):
        self.rule = rule
        self.steps = steps
        self.held = held
        self.consts = consts
        holding = rule.head.holding
        self.local = holding is not None and 0 <= steps[-1][2][holding] < held
        self.reads: tuple[str, ...] = ()
        self.gates: Optional[tuple[_Gate, ...]] = None
        self.run: Optional[Callable[[FactView, list[Fact], int], None]] = None


@dataclass
class _Gate:
    """A gate of a plan (`_inputs`) as the steps and constants of a plan
    that derives one fact per tuple the gate passes, with slot 0 the holder
    and the gate's fresh variables from slot 1, so that equal gates of
    different plans compare equal.  `run` is its generated code, made when
    it is first counted."""

    steps: tuple[tuple, ...]
    consts: tuple[int, ...]
    run: Optional[Callable[[FactView, list[Fact], int], None]] = field(
        default=None, compare=False, repr=False
    )

    def count(self, view: FactView, holder: int) -> int:
        """How many of the holder's tuples pass the gate."""
        if self.run is None:
            name = f"<netlog gate {self.steps} {self.consts}>"
            self.run = _generate(self.steps, 1, self.consts, name)
        passed: list[Fact] = []
        self.run(view, passed, holder)
        return len(passed)


def _inputs(plan: RulePlan) -> tuple[tuple[str, ...], tuple[_Gate, ...]]:
    """What a node plan's output depends on besides the holder and its
    fixed edges: the predicates it reads other than `G` and its gates, in
    step order, and its gates.  A gate is a positive literal, other than
    `G`, whose key positions are all held or constant and whose fresh
    variables are read by nothing but comparisons among themselves, held
    variables and constants.  Below a gate the plan repeats the same
    bindings once per tuple that passes those comparisons, so that count is
    all the plan takes from it."""

    def read(step: tuple) -> tuple[int, ...]:
        if step[0] in _TEST_CODE:
            return step[1:3]
        return step[2] if step[0] in (_JOIN, _ABSENT, _HEAD) else (step[2],)

    steps, held, consts = plan.steps, plan.held, plan.consts
    reads: list[str] = []
    gates: list[_Gate] = []
    for k, step in enumerate(steps):
        op = step[0]
        if op not in (_JOIN, _ABSENT):
            continue
        pred = step[1][0] if op == _JOIN else step[1]
        if pred == EDGE_PRED:
            continue
        if op == _JOIN and all(x < held for x in step[2]):
            first = step[3]
            fresh = range(first, first + step[4])
            readers = [s for s in steps[k + 1:] if any(x in fresh for x in read(s))]
            if all(
                s[0] in _TEST_CODE and all(x < held or x in fresh for x in s[1:3])
                for s in readers
            ):
                gate_consts: list[int] = []

                def slot(x: int) -> int:
                    if x >= 0:
                        return 0 if x < held else x - first + 1
                    if consts[-1 - x] not in gate_consts:
                        gate_consts.append(consts[-1 - x])
                    return -1 - gate_consts.index(consts[-1 - x])

                gate = [(_JOIN, step[1], tuple(map(slot, step[2])), 1) + step[4:]]
                gate += [(s[0], slot(s[1]), slot(s[2])) for s in readers]
                gate.append((_HEAD, pred, ()))
                gates.append(_Gate(tuple(gate), tuple(gate_consts)))
                continue
        if pred not in reads:
            reads.append(pred)
    return tuple(reads), tuple(gates)


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
    consts: list[int] = []

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
        if not _ready(lit, slots):
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
            steps.append((_ABSENT, lit.pred, tuple(slot(t) for t in lit.args)))
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
            steps.append((
                _JOIN, name, tuple(key_slots), first, len(free),
                (tuple(key_pos), tuple(free)),
            ))
    if remaining:
        names = sorted(set().union(*map(_lit_vars, remaining)) - slots.keys())
        raise NetlogError(f"unsafe rule body: variables {names} cannot be bound")
    try:
        head = tuple(
            slots[t.name] if isinstance(t, Var) else slot(t) for t in rule.head.args
        )
    except KeyError:
        unbound = sorted(_lit_vars(rule.head) - slots.keys())
        raise NetlogError(
            f"unsafe rule: head variables {unbound} are not bound by the "
            f"body in {print_rule(rule)}"
        ) from None
    steps.append((_HEAD, rule.head.pred, head))
    return RulePlan(rule, tuple(steps), held, tuple(consts))


def _generate(
    steps: tuple[tuple, ...], held: int, consts: tuple[int, ...], name: str
) -> Callable[[FactView, list[Fact], int], None]:
    """A plan's steps as Python code under the file name `name`: one nested
    `for` per join, one `if` per test and one assignment per bound guard,
    with the slots as locals `v<slot>`, the held slots read from `holder`
    and the constants inlined.  Each index is fetched from the view once
    per call and built where a binding first reaches it.  Predicate names and steps reach the code through its
    globals (`n<k>`, `s<k>`, `p<k>` for step k), never through its text.
    A function that continues in another takes it as a keyword-only
    default, and no function stays in the globals, so the code holds no
    reference cycle."""
    first_probe: dict[Any, int] = {}  # index name -> the first step probing it
    env: dict[str, Any] = {}
    for k, step in enumerate(steps):
        if step[0] in (_JOIN, _ABSENT):
            env[f"n{k}"], env[f"s{k}"] = step[1], step
            first_probe.setdefault(step[1], k)
        elif step[0] == _HEAD:
            env[f"p{k}"] = step[1]

    def val(s: int) -> str:
        if s < 0:
            return str(int(consts[-1 - s]))
        return "holder" if s < held else f"v{s}"

    def tup(slots: Sequence[int]) -> str:
        comma = "," if len(slots) == 1 else ""
        return "(" + ", ".join(map(val, slots)) + comma + ")"

    def params(bound: list[int]) -> str:
        return "view, out, holder" + "".join(f", v{s}" for s in bound)

    functions: list[str] = []  # each function's source
    starts = [0]  # the first step of each generated function
    bound: list[int] = []  # the slots bound so far; a function's parameters
    for k0 in starts:
        # Steps k0 on as function f<k0> of the slots in `bound`.
        head = f"def f{k0}({params(bound)}"
        lines = []
        probes = sorted({
            first_probe[step[1]] for step in steps[k0:] if step[0] in (_JOIN, _ABSENT)
        })
        if probes:
            lines.append("    indexes = view.indexes")
        lines.extend(f"    i{i} = indexes.get(n{i})" for i in probes)
        nesting = 0
        for k in range(k0, len(steps)):
            pad = "    " * (nesting + 1)
            op, a, b = steps[k][:3]
            if op in (_LET, _LET_DEC):
                lines.append(f"{pad}v{a} = {val(b)}" + (" - 1" if op == _LET_DEC else ""))
                bound.append(a)
            elif op == _HEAD:
                lines.append(f"{pad}out.append((p{k}, {tup(b)}))")
            elif nesting == _MAX_NESTING:
                lines.append(f"{pad}f{k}({params(bound)})")
                starts.append(k)
                break
            elif op in _TEST_CODE:
                lines.append(f"{pad}if {_TEST_CODE[op].format(val(a), val(b))}:")
                nesting += 1
            else:
                i = first_probe[a]
                lines.append(f"{pad}if i{i} is None:")
                lines.append(f"{pad}    i{i} = view.build(s{k})")
                if op == _ABSENT:
                    lines.append(f"{pad}if {tup(b)} not in i{i}:")
                else:
                    first, width = steps[k][3:5]
                    fresh = range(first, first + width)
                    bound.extend(fresh)
                    target = ", ".join(f"v{s}" for s in fresh) or "_"
                    if b:
                        key = val(b[0]) if len(b) == 1 else tup(b)
                        rows = f"i{i}.get({key}, ())"
                    else:
                        rows = f"i{i}"
                    lines.append(f"{pad}for {target} in {rows}:")
                nesting += 1
        if starts[-1] > k0:
            head += f", *, f{starts[-1]}=f{starts[-1]}"
        functions.append("\n".join([head + "):"] + lines))
    exec(compile("\n".join(reversed(functions)), name, "exec"), env)
    run = env["f0"]
    for k0 in starts:
        del env[f"f{k0}"]
    return run


def group_facts(facts: Iterable[Fact]) -> dict[str, set[tuple[int, ...]]]:
    """A flat fact set as the store a `FactView` reads."""
    store: dict[str, set[tuple[int, ...]]] = {}
    for pred, args in facts:
        store.setdefault(pred, set()).add(args)
    return store


def both_ways(edges: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """Edges as the set of both their orientations, which a `FactView`
    matches `G` atoms against."""
    return frozenset(e for u, v in edges for e in ((u, v), (v, u)))


_NO_TUPLES: frozenset[tuple[int, ...]] = frozenset()


class FactView:
    """The facts one evaluation sees: a fact store grouped by predicate
    (`group_facts`), the unary input facts and the visible edges in both
    orientations (`both_ways`), taken as given.  A node sees its own store
    and only the edges that touch it.  The indexes that plan steps probe
    are built on first use, each predicate's sorted tuples once for all its
    indexes; a bucket lists its tuples in ascending order.

    `memo` maps each predicate to its tuple set, that set's ascending list
    and the indexes built on the list, by step name.  A view trusts every
    entry it finds: whoever shares a memo between views drops the entry of
    each predicate whose tuples differ before the next view reads it, as
    `NetlogEngine.step` does with its change set.  No entry is changed
    once built, and no tuple set in one is mutated."""

    __slots__ = ("store", "unary", "edges", "indexes", "memo")

    def __init__(
        self,
        store: Mapping[str, AbstractSet[tuple[int, ...]]],
        unary: Mapping[str, frozenset[int]],
        edges: AbstractSet[tuple[int, int]],
        memo: Optional[dict[str, tuple[set, list, dict]]] = None,
    ):
        self.store = store
        self.unary = unary
        self.edges = edges
        self.indexes: dict[Any, Any] = {}  # a plan step's name -> its index
        self.memo = {} if memo is None else memo

    def build(self, step: tuple) -> Any:
        """The index a `_JOIN` step probes: its literal's tuples that agree
        on repeated variables, cut down to the positions the step binds,
        under the values at the positions bound before it (a list when
        none are).  For an `_ABSENT` step, the set of the literal's tuples."""
        name = step[1]
        pred = name if step[0] == _ABSENT else name[0]
        entry = self.memo.get(pred)
        if entry is None:
            if pred == EDGE_PRED:
                out = self.edges
            else:
                out = self.store.get(pred, _NO_TUPLES)
                if pred in self.unary:
                    out = out | {(a,) for a in self.unary[pred]}
            entry = self.memo[pred] = (out, sorted(out), {})
        if step[0] == _ABSENT:
            index: Any = entry[0]
        else:
            _, rows, built = entry
            index = built.get(name)
            if index is None:
                _pred, arity, _mask, same = name
                key_pos, free = step[5]
                rows = [t for t in rows if len(t) == arity]
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
                built[name] = index
        self.indexes[name] = index
        return index


def _match_literal(
    plan: RulePlan, view: FactView, out: list[Fact], holder: int = 0
) -> None:
    """Append to `out` the head fact of every binding of the plan's body in
    `view`, with the prebound variables set to `holder`, in the plan's
    order.  The plan's code is generated on its first call."""
    run = plan.run
    if run is None:
        # A file name per rule keeps the plans' functions apart in a profile.
        name = f"<netlog plan {print_rule(plan.rule)}>"
        run = plan.run = _generate(plan.steps, plan.held, plan.consts, name)
    run(view, out, holder)


# ------------------------------------------------------------- consequence


def node_plans(rules: Sequence[NetlogRule]) -> tuple[RulePlan, ...]:
    """Each rule's plan for evaluation at a node, which binds the body
    holding variables to the node in advance.  Every head carries a holding
    marker: `check_distributed` checks that first."""
    plans = []
    for idx, rule in enumerate(rules, start=1):
        try:
            plans.append(plan_rule(rule, body_holding_vars(rule)))
        except NetlogError as e:
            raise NetlogError(f"rule {idx}: {e}") from None
    return tuple(plans)


def _program_plans(program: NetlogProgram) -> tuple[RulePlan, ...]:
    """The program's node plans: those it carries, or new ones from
    `check_distributed`, so a program built without plans is checked like
    a parsed one."""
    if program.plans is not None:
        return program.plans
    return check_distributed(program.rules)


def consequence(
    program: NetlogProgram, g: Graph, instance: DistributedInstance
) -> DistributedInstance:
    """One application of the distributed immediate-consequence operator:
    every node fires every rule against its own store (plus incident edges
    and global unary input facts); each derived fact is placed at the node
    named by the head holding argument.  The result replaces the previous
    instance — persistence requires explicit copy rules."""
    plans = _program_plans(program)
    new_stores: dict[int, set[Fact]] = {v: set() for v in g.nodes}
    for v in g.nodes:
        edges = both_ways((v, u) for u in g.adj[v])
        store = group_facts(instance.stores.get(v, ()))
        view = FactView(store, g.unary, edges)
        for plan in plans:
            facts: list[Fact] = []
            _match_literal(plan, view, facts, v)
            if plan.local:
                new_stores[v].update(facts)
                continue
            holding = plan.rule.head.holding
            for fact in facts:
                target = fact[1][holding]
                if target not in new_stores:
                    raise NetlogError(
                        f"fact {fact[0]}{fact[1]} addressed to unknown node "
                        f"{target}"
                    )
                new_stores[target].add(fact)
    return DistributedInstance({v: frozenset(fs) for v, fs in new_stores.items()})


def netlog_stages(
    program: NetlogProgram, g: Graph, cap: Optional[int] = None
) -> list[DistributedInstance]:
    """Round-by-round instance sequence starting from the start-fact seeding,
    ending when one round changes nothing.  Raises NonterminationError when
    the cap is exceeded, and NetlogError when the cap is below 1."""
    if cap is None:
        cap = default_round_cap(program, g)
    elif cap < 1:
        raise NetlogError(f"round cap {cap} is not a positive number of rounds")
    program = NetlogProgram(program.rules, _program_plans(program))
    stages = [start_instance(g)]
    for _ in range(cap):
        nxt = consequence(program, g, stages[-1])
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
    return 10 * datalog_cap(program, g)


# -------------------------------------------------------- distributed run


_ARGS = itemgetter(1)  # a fact's argument tuple
_PAYLOAD = itemgetter(0)  # a delivered message's payload


@dataclass
class _NetlogNodeState:
    """A node's facts, each store mapping a predicate to its set of argument
    tuples, with no empty set.  `local` holds what the node's last step
    derived for itself; the next step adds the facts that arrive to it, and
    the result is that round's slice of the global instance, `snapshot`,
    empty before the first step.  No set in a snapshot is mutated again.
    The neighbour-to-port map, the incident edges in both orientations and
    the index memo of the node's views are kept for the whole run; the memo
    holds an entry only for a predicate that has not changed since the
    entry was built.

    `firings` holds, per plan, its last firing at the node: how many facts
    it derived, the argument tuples it kept at the node, its (port, fact)
    sends in order and the largest wire size among them, or None when the
    plan never fired or must fire again.  `counts` holds each gate's count
    at the node's last step, None before the first."""

    local: dict[str, set[tuple[int, ...]]]
    port_of: dict[int, int]
    edges: frozenset[tuple[int, int]]
    firings: list[Optional[tuple]]
    counts: list[Optional[int]]
    memo: dict[str, tuple[set, list, dict]] = field(default_factory=dict)
    snapshot: dict[str, set[tuple[int, ...]]] = field(default_factory=dict)


class NetlogEngine(simnet.NodeEngine):
    """Node automaton interpreting a localized rule program on the simulator.

    Each round a node assembles its instance slice (previous local
    derivations plus arrived pushed facts), fires every rule on it, keeps
    derivations addressed to itself, and sends push-rule derivations to the
    neighbor named by the head holding argument.  The store is replaced
    every round; persistence needs explicit copy rules.  A node keeps its
    slice per predicate (`_NetlogNodeState`), so a step costs its arrivals,
    one comparison per predicate with the previous slice, which yields the
    predicates that changed or vanished, a recount of each gate whose
    relation changed, and the facts of the plans that fire.  That change
    set is the step's only test of staleness: it decides quiescence, and
    it drops the index memo entries of its predicates, so that every other
    predicate reuses its sorted list and indexes unchecked.  `readers` maps
    each predicate a plan reads, and each gate's place in `gates`, to the
    plans whose output it decides (`RulePlan.reads`, `_Gate`).  A plan
    fires when it never fired at the node, or when one of its relations
    changed or one of its gates' counts moved since the node's last step.
    Otherwise, by induction over the node's steps, everything it reads is
    what it was at its last firing, so its output is the same: the step
    re-emits that firing's kept facts and sends, in order, and counts its
    facts as work, as a firing would.  A step reads its inbox as a set and
    its views sort what they index, so the order of delivery cannot reach
    what it derives.
    """

    def __init__(self, program: NetlogProgram):
        self.plans = _program_plans(program)
        # The program's distinct gates, equal gates of its plans counted by
        # the first one's code, made in its first run; and `readers`, from
        # each predicate a plan reads and each gate's place in `gates` to
        # the plans whose output it decides.
        self.gates: list[_Gate] = []
        self.readers: dict[Any, list[int]] = {}
        for i, plan in enumerate(self.plans):
            if plan.gates is None:
                plan.reads, plan.gates = _inputs(plan)
            self.gates += [gate for gate in plan.gates if gate not in self.gates]
            for key in (*plan.reads, *map(self.gates.index, plan.gates)):
                self.readers.setdefault(key, []).append(i)
        # Fact -> wire bits.  One engine object serves one run, so one
        # encoding: each distinct fact is sized once.
        self.sizes: dict[Fact, int] = {}

    def start(self, ctx) -> _NetlogNodeState:
        v = ctx.node_id
        if v is None:
            raise NetlogError("the rule engine needs globally unique node ids")
        port_of = {b: p for p, b in ctx.neighbor_ids.items()}
        return _NetlogNodeState(
            {"start": {(v,)}}, port_of, both_ways((v, u) for u in port_of),
            [None] * len(self.plans), [None] * len(self.gates),
        )

    def step(self, state: _NetlogNodeState, ctx, round_no: int, inbox):
        v = ctx.node_id
        snapshot = state.local
        # Several neighbours may push the same fact: add each once.
        for pred, args in set(map(_PAYLOAD, inbox)):
            tuples = snapshot.get(pred)
            if tuples is None:
                snapshot[pred] = {args}
            else:
                tuples.add(args)
        # Neither store holds an empty set, so the slice repeats the
        # previous one when no predicate's set changed or vanished.
        previous = state.snapshot
        changed = previous.keys() - snapshot.keys()
        changed.update(
            pred for pred, tuples in snapshot.items() if previous.get(pred) != tuples
        )
        state.snapshot = snapshot
        # What changed since the last step is stale: its memo entry, and
        # the last firing of every plan that reads it.
        memo = state.memo
        firings, counts, readers = state.firings, state.counts, self.readers
        for key in changed:
            memo.pop(key, None)
            for i in readers.get(key, ()):
                firings[i] = None
        view = FactView(snapshot, ctx.global_unary, state.edges, memo)
        # A gate's count depends only on its relation, its head step's name.
        for k, gate in enumerate(self.gates):
            if counts[k] is None or gate.steps[-1][1] in changed:
                count = gate.count(view, v)
                if count != counts[k]:
                    counts[k] = count
                    for i in readers[k]:
                        firings[i] = None
        local: dict[str, set[tuple[int, ...]]] = {}
        sends: list[tuple[int, Fact]] = []
        work = 1
        bits = 0
        for i, plan in enumerate(self.plans):
            last = firings[i]
            if last is None:
                facts: list[Fact] = []
                _match_literal(plan, view, facts, v)
                last = firings[i] = self._route(plan, facts, state, ctx)
            n, kept, sent, size = last
            if not n:
                continue
            work += n
            if kept:
                pred = plan.rule.head.pred
                tuples = local.get(pred)
                if tuples is None:
                    local[pred] = set(kept)
                else:
                    tuples.update(kept)
            if sent:
                sends += sent
                bits = max(bits, size)
        state.local = local
        # The store is replaced every round, so every round needs a step.
        return simnet.StepResult(tuple(sends), not changed, work, round_no + 1, bits)

    def _route(self, plan: RulePlan, facts: list[Fact], state: _NetlogNodeState, ctx):
        """A firing's facts placed: their number, the argument tuples kept
        at the node, the (port, fact) sends to neighbours in order and the
        largest wire size among those."""
        if plan.local:
            return len(facts), frozenset(map(_ARGS, facts)), (), 0
        holding = plan.rule.head.holding
        port_of = state.port_of
        kept, sent = set(), []
        for fact in facts:
            target = fact[1][holding]
            if target in port_of:
                sent.append((port_of[target], fact))
            elif target == ctx.node_id:
                kept.add(fact[1])
            else:
                raise NetlogError(
                    f"fact {fact[0]}{fact[1]} addressed to non-neighbor {target}"
                )
        size = max((self.payload_bits(fact, ctx.enc) for _, fact in sent), default=0)
        return len(facts), kept, sent, size

    def collect(self, state: _NetlogNodeState, ctx) -> frozenset[Fact]:
        return frozenset(
            (pred, args) for pred, tuples in state.snapshot.items() for args in tuples
        )

    def payload_bits(self, payload: Fact, enc) -> int:
        bits = self.sizes.get(payload)
        if bits is None:
            bits = enc.tag_bits
            for a in payload[1]:
                bits += max(enc.id_bits, a.bit_length() or 1)
            self.sizes[payload] = bits
        return bits


def run_netlog(
    program: NetlogProgram,
    net,
    *,
    order_seed: int = 0,  # unread: bench/workloads.py passes it (ROADMAP item 2)
    round_cap: Optional[int] = None,
):
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
        res, metrics = simnet.run(net, engine, round_cap=round_cap)
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
