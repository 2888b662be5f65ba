"""Rule language shared by the centralized Datalog-with-negation evaluator
and the distributed store-and-push engine.

Provides the parsed rule types, the localization checker for distributed
rules, a body-matching engine used by both evaluation modes, and the
per-round immediate-consequence operator over per-node stores.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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
            hv = lit.holding_var()
            if hv is not None and hv not in out:
                out.append(hv)
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


def static_order(
    body: Sequence[NetlogLiteral], prebound: Iterable[str] = ()
) -> list[NetlogLiteral]:
    """Order body literals so every literal is evaluable when reached:
    positive relation atoms join and bind, equality/decrement guards may bind
    one side, negated atoms and pure comparisons need all variables bound."""
    bound = set(prebound)
    remaining = list(body)
    ordered: list[NetlogLiteral] = []

    def ready(lit: NetlogLiteral) -> bool:
        if isinstance(lit, RelLit):
            if lit.positive:
                return True
            return _lit_vars(lit) <= bound
        lv = lit.left.name if isinstance(lit.left, Var) else None
        rv = lit.right.name if isinstance(lit.right, Var) else None
        left_ok = lv is None or lv in bound
        right_ok = rv is None or rv in bound
        if lit.op == "=":
            return left_ok or right_ok
        if lit.op == "dec":
            return right_ok
        return left_ok and right_ok

    while remaining:
        for lit in remaining:
            if ready(lit):
                ordered.append(lit)
                remaining.remove(lit)
                bound |= _lit_vars(lit)
                break
        else:
            names = sorted(set().union(*(_lit_vars(l) for l in remaining)) - bound)
            raise NetlogError(
                f"unsafe rule body: variables {names} cannot be bound"
            )
    return ordered


def _check_safe(rule: NetlogRule) -> None:
    """Raise NetlogError unless the body can be ordered so that every
    literal is evaluable when reached and the body binds every head
    variable."""
    bound: set[str] = set()
    for lit in static_order(rule.body):
        bound |= _lit_vars(lit)
    unbound = sorted(_lit_vars(rule.head) - bound)
    if unbound:
        raise NetlogError(
            f"unsafe rule: head variables {unbound} are not bound by the "
            f"body in {print_rule(rule)}"
        )


class _Lookup:
    """Fact access for one evaluation context: a fact store, the unary input
    facts, and the visible edges, each given once and matched both ways.  A
    node sees its own store and only the edges that touch it."""

    def __init__(
        self,
        facts: Iterable[Fact],
        unary: Mapping[str, frozenset[int]],
        edges: Iterable[tuple[int, int]],
    ):
        self.by_pred: dict[str, list[tuple[int, ...]]] = {}
        for pred, args in facts:
            self.by_pred.setdefault(pred, []).append(args)
        for lst in self.by_pred.values():
            lst.sort()
        self.unary = unary
        both = {e for u, v in edges for e in ((u, v), (v, u))}
        self.edges = sorted(both)
        self.edge_set = frozenset(both)

    def candidates(self, pred: str) -> Sequence[tuple[int, ...]]:
        if pred == EDGE_PRED:
            return self.edges
        out = list(self.by_pred.get(pred, ()))
        if pred in self.unary:
            out.extend((a,) for a in sorted(self.unary[pred]))
        return sorted(set(out))

    def contains(self, pred: str, args: tuple[int, ...]) -> bool:
        if pred == EDGE_PRED:
            return args in self.edge_set
        if pred in self.unary and len(args) == 1 and args[0] in self.unary[pred]:
            return True
        return args in set(self.by_pred.get(pred, ()))


def _resolve_term(t: Term, env: Mapping[str, int]) -> Optional[int]:
    if isinstance(t, Const):
        return t.value
    return env.get(t.name)


def _match_literal(
    lit: NetlogLiteral, lookup: _Lookup, env: dict[str, int]
) -> Iterator[dict[str, int]]:
    if isinstance(lit, RelLit):
        if lit.positive:
            for tup in lookup.candidates(lit.pred):
                if len(tup) != len(lit.args):
                    continue
                env2 = dict(env)
                ok = True
                for term, val in zip(lit.args, tup):
                    if isinstance(term, Const):
                        if term.value != val:
                            ok = False
                            break
                    else:
                        bound = env2.get(term.name)
                        if bound is None:
                            env2[term.name] = val
                        elif bound != val:
                            ok = False
                            break
                if ok:
                    yield env2
            return
        args = tuple(_resolve_term(t, env) for t in lit.args)
        if any(a is None for a in args):
            raise NetlogError(
                f"negated literal {print_literal(lit)} has unbound variables"
            )
        if not lookup.contains(lit.pred, args):  # type: ignore[arg-type]
            yield env
        return
    left = _resolve_term(lit.left, env)
    right = _resolve_term(lit.right, env)
    if lit.op == "dec":
        if right is None:
            raise NetlogError("decrement guard with unbound right side")
        want = right - 1
        if left is None:
            env2 = dict(env)
            env2[lit.left.name] = want  # type: ignore[union-attr]
            yield env2
        elif left == want:
            yield env
        return
    if lit.op == "=":
        if left is None and right is None:
            raise NetlogError("equality guard with both sides unbound")
        if left is None:
            env2 = dict(env)
            env2[lit.left.name] = right  # type: ignore[union-attr]
            yield env2
        elif right is None:
            env2 = dict(env)
            env2[lit.right.name] = left  # type: ignore[union-attr]
            yield env2
        elif left == right:
            yield env
        return
    if left is None or right is None:
        raise NetlogError("comparison guard with unbound variables")
    if (lit.op == "!=" and left != right) or (lit.op == ">=" and left >= right):
        yield env


def _match_ordered(
    ordered: Sequence[NetlogLiteral], lookup: _Lookup, env: dict[str, int]
) -> Iterator[dict[str, int]]:
    if not ordered:
        yield env
        return
    head, rest = ordered[0], ordered[1:]
    for env2 in _match_literal(head, lookup, env):
        yield from _match_ordered(rest, lookup, env2)


def match_body(
    body: Sequence[NetlogLiteral],
    facts: Iterable[Fact],
    g: Graph,
) -> Iterator[Mapping[str, int]]:
    """All assignments satisfying the body against the given fact set, the
    graph edges, and the graph's unary input facts (centralized view)."""
    lookup = _Lookup(facts, g.unary, g.edges())
    yield from _match_ordered(static_order(body), lookup, {})


# ------------------------------------------------------------- consequence


def _instantiate_head(rule: NetlogRule, env: Mapping[str, int]) -> Fact:
    args = []
    for t in rule.head.args:
        val = _resolve_term(t, env)
        if val is None:
            raise NetlogError(
                f"unsafe instantiation: head variable {t.name!r} unbound "  # type: ignore[union-attr]
                f"in rule {print_rule(rule)}"
            )
        args.append(val)
    return (rule.head.pred, tuple(args))


def _body_orders(program: NetlogProgram) -> dict[int, list[NetlogLiteral]]:
    """Each rule's evaluation order, keyed by id(rule), with the body
    holding variables bound in advance."""
    return {
        id(rule): static_order(rule.body, prebound=body_holding_vars(rule))
        for rule in program.rules
    }


def _fire(
    program: NetlogProgram,
    orders: Mapping[int, list[NetlogLiteral]],
    v: int,
    lookup: _Lookup,
) -> Iterator[tuple[int, Fact]]:
    """Every fact the rules derive at node v, with the node named by the
    head holding argument."""
    for rule in program.rules:
        env0 = {name: v for name in body_holding_vars(rule)}
        for env in _match_ordered(orders[id(rule)], lookup, env0):
            fact = _instantiate_head(rule, env)
            if rule.head.holding is None:
                raise NetlogError(
                    f"rule {print_rule(rule)} has no head holding marker"
                )
            yield fact[1][rule.head.holding], fact


def consequence(
    program: NetlogProgram, g: Graph, instance: DistributedInstance
) -> DistributedInstance:
    """One application of the distributed immediate-consequence operator:
    every node fires every rule against its own store (plus incident edges
    and global unary input facts); each derived fact is placed at the node
    named by the head holding argument.  The result replaces the previous
    instance — persistence requires explicit copy rules."""
    orders = _body_orders(program)
    new_stores: dict[int, set[Fact]] = {v: set() for v in g.nodes}
    for v in g.nodes:
        edges = [(v, u) for u in g.adj[v]]
        lookup = _Lookup(instance.stores.get(v, frozenset()), g.unary, edges)
        for target, fact in _fire(program, orders, v, lookup):
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
    the cap is exceeded."""
    if cap is None:
        cap = default_round_cap(program, g)
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
        self.program = program
        self.orders = _body_orders(program)

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
        lookup = _Lookup(snapshot, ctx.global_unary, edges)
        local: set[Fact] = set()
        sends: list[tuple[int, Fact]] = []
        steps = 1
        for target, fact in _fire(self.program, self.orders, v, lookup):
            steps += 1
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
        return simnet.StepResult(tuple(sends), quiescent, steps, round_no + 1)

    def collect(self, state: _NetlogNodeState, ctx) -> frozenset[Fact]:
        return state.snapshot if state.snapshot is not None else state.local

    def payload_bits(self, payload: Fact, enc) -> int:
        pred, args = payload
        bits = enc.tag_bits
        for a in args:
            bits += max(enc.id_bits, a.bit_length() or 1)
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
