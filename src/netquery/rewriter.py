"""Compiler from centralized rule programs to localized store-and-push
programs.

The compilation proceeds in five steps:

1. localize: mark the leftmost argument of every literal as the holding
   variable, so every fact lives at the node named by its first argument.
2. rewrite: split every rule whose body spans several holders into a
   local part plus sub-query rules evaluated where their data lives.  A
   sub-query connected to the local part by an edge literal pushes its
   result one hop (cost 1); a disconnected sub-query floods its result
   through relay rules (cost 1 + diameter).  The per-rule round count
   kappa_r accumulates along the recursion, and the stage length kappa is
   the maximum over rules, at least the diameter.
3. add_comm: mark rules whose head lives on a different node than the body
   with the push arrow.
4. add_clocks: guard every computation rule with a countdown clock so all
   nodes advance through stages in lockstep; per intensional relation the
   derivations collect in a temporary relation that commits when the clock
   reaches zero; nodes that commit new facts flood a continuation notice.
5. inflate: copy rules keep auxiliary facts alive while the clock runs and
   keep committed result facts alive forever.

The compiled program computes, stage for stage, the same result as the
centralized inflationary evaluation of the source program: a source fact
enters stage i of the centralized run exactly when it enters round
i*(kappa+1)+1 of the distributed run.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .logic import EDGE_PRED, Const, Term, Var, _UnionFind
from .netlog import (
    GuardLit,
    NetlogError,
    NetlogLiteral,
    NetlogProgram,
    NetlogRule,
    RelLit,
    _equality_classes,
    _lit_vars,
    body_holding_vars,
    check_distributed,
    parse_datalog,
    plan_rule,
    print_literal,
    print_program,
)

RESERVED = ("start", "clock", "continue", "inf", "stop")


class CompileError(ValueError):
    pass


# ------------------------------------------------------------------- types


@dataclass(frozen=True)
class CompileOutput:
    program: NetlogProgram
    kappa: int
    delta: int
    traces: tuple[tuple[tuple[NetlogRule, ...], int], ...]
    """Per source rule: the rules it became and its round count kappa_r."""


class _Names:
    """Fresh relation and variable names that never collide with the source
    program or with each other."""

    def __init__(self, taken_rels: set[str]):
        self.rels = set(taken_rels)
        self.vars: set[str] = set()

    def subquery(self, rule_no: int, comp_no: int, depth: int) -> str:
        base = f"Q_{rule_no}_{comp_no}_{depth}"
        name = base
        while name in self.rels:
            name += "_"
        self.rels.add(name)
        return name

    def fresh_var(self) -> str:
        i = 1
        while f"y{i}" in self.vars:
            i += 1
        name = f"y{i}"
        self.vars.add(name)
        return name

    def note_vars(self, names: Sequence[str]) -> None:
        self.vars.update(names)


# ------------------------------------------------------------------ helpers


def _rule_var_names(rule: NetlogRule) -> set[str]:
    out = _lit_vars(rule.head)
    for lit in rule.body:
        out |= _lit_vars(lit)
    return out


def _rel(pred: str, *args: Term, positive: bool = True) -> RelLit:
    """A literal held at its first argument."""
    return RelLit(pred, tuple(args), positive, holding=0)


def _program_preds(rules: Sequence[NetlogRule]) -> dict[str, int]:
    out: dict[str, int] = {}
    for r in rules:
        out.setdefault(r.head.pred, len(r.head.args))
        for lit in r.body:
            if isinstance(lit, RelLit):
                out.setdefault(lit.pred, len(lit.args))
    return out


# -------------------------------------------------------- step 1: localize


def _mark_holding(lit: RelLit, rule_no: int) -> RelLit:
    if not lit.args:
        raise CompileError(
            f"rule {rule_no}: relation {lit.pred} has no argument to hold"
        )
    if not isinstance(lit.args[0], Var):
        raise CompileError(
            f"rule {rule_no}: literal {print_literal(lit)} has a constant in "
            f"the holding position; only variables can name the holder"
        )
    return RelLit(lit.pred, lit.args, lit.positive, holding=0)


def localize(program: NetlogProgram) -> NetlogProgram:
    """Mark the leftmost argument of every literal as the holding variable."""
    rules = []
    for no, rule in enumerate(program.rules, start=1):
        head = _mark_holding(rule.head, no)
        body = tuple(
            _mark_holding(l, no) if isinstance(l, RelLit) else l
            for l in rule.body
        )
        rules.append(NetlogRule(head, body, push=False))
    return NetlogProgram(tuple(rules))


# ---------------------------------------------------- step 2: rewrite rules


def _components(
    items: Sequence[NetlogLiteral], connection_vars: frozenset[str]
) -> list[list[NetlogLiteral]]:
    """Partition into minimal groups closed under sharing a variable outside
    the connection variables."""
    uf = _UnionFind(range(len(items)))
    owner: dict[str, int] = {}
    for i, lit in enumerate(items):
        for v in _lit_vars(lit) - connection_vars:
            if v in owner:
                uf.union(owner[v], i)
            else:
                owner[v] = i
    groups: dict[int, list[NetlogLiteral]] = {}
    order: list[int] = []
    for i, lit in enumerate(items):
        root = uf.find(i)
        if root not in groups:
            groups[root] = []
            order.append(root)
    for i, lit in enumerate(items):
        groups[uf.find(i)].append(lit)
    return [groups[r] for r in order]


def _rewrite(
    rule: NetlogRule,
    holding_var: str,
    connection_vars: frozenset[str],
    delta: int,
    names: _Names,
    rule_no: int,
    counter: list[int],
    depth: int,
) -> tuple[list[NetlogRule], int]:
    """Split one localized rule, held at `holding_var`, so every output rule
    reads only facts held on a single node; returns the rules and the round
    count kappa_r."""
    rel = [l for l in rule.body if isinstance(l, RelLit)]
    guards = [l for l in rule.body if isinstance(l, GuardLit)]
    local_rel = [l for l in rel if l.holding_var() == holding_var]
    remote_rel = [l for l in rel if l.holding_var() != holding_var]
    if not remote_rel:
        return [rule], 1

    head_vars = _lit_vars(rule.head)
    anchor: set[str] = set()
    for l in local_rel:
        anchor |= _lit_vars(l)
    local_cover = anchor | head_vars | set(connection_vars)
    local_guards = [g for g in guards if _lit_vars(g) <= local_cover]
    remote_items: list[NetlogLiteral] = list(remote_rel) + [
        g for g in guards if g not in local_guards
    ]

    neighbor_vars = {
        l.args[1].name
        for l in local_rel
        if l.positive
        and l.pred == EDGE_PRED
        and len(l.args) == 2
        and isinstance(l.args[1], Var)
    }

    out_rules: list[NetlogRule] = []
    sub_atoms: list[RelLit] = []
    kappas: list[int] = []
    for comp in _components(remote_items, connection_vars):
        comp_rel = [l for l in comp if isinstance(l, RelLit)]
        if not comp_rel:
            raise CompileError(
                f"rule {rule_no}: comparison "
                f"{'; '.join(print_literal(l) for l in comp)} shares no "
                f"variables with any relation literal and cannot be placed"
            )
        counter[0] += 1
        qname = names.subquery(rule_no, counter[0], depth)
        hvs = sorted(
            {l.holding_var() for l in comp_rel if l.holding_var() is not None}
        )
        connected = [v for v in hvs if v in neighbor_vars]
        comp_vars: set[str] = set()
        for l in comp:
            comp_vars |= _lit_vars(l)
        if connected:
            holder = connected[0]
            shared = sorted(
                (comp_vars | {holding_var}) & (anchor | head_vars)
            )
            args = [holding_var] + [v for v in shared if v != holding_var]
            head = _rel(qname, *map(Var, args))
            link: NetlogLiteral = _rel(EDGE_PRED, Var(holder), Var(holding_var))
        else:
            holder = min(comp_rel, key=print_literal).holding_var()
            assert holder is not None
            y = names.fresh_var()
            shared = sorted(comp_vars & (anchor | head_vars))
            head = _rel(qname, *map(Var, [y] + shared))
            link = GuardLit("=", Var(y), Var(holder))
        sub = NetlogRule(head, tuple(comp) + (link,))
        sub_rules, k = _rewrite(
            sub,
            holder,
            connection_vars | {holder},
            delta,
            names,
            rule_no,
            counter,
            depth + 1,
        )
        out_rules.extend(sub_rules)
        if connected:
            kappas.append(k + 1)
            sub_atoms.append(head)
        else:
            # The disconnected result floods to every node through a relay.
            src = names.fresh_var()
            dst = names.fresh_var()
            relay = NetlogRule(
                _rel(qname, *map(Var, [dst] + shared)),
                (
                    _rel(qname, *map(Var, [src] + shared)),
                    _rel(EDGE_PRED, Var(src), Var(dst)),
                ),
            )
            out_rules.append(relay)
            kappas.append(k + 1 + delta)
            sub_atoms.append(_rel(qname, *map(Var, [holding_var] + shared)))

    new_body: list[NetlogLiteral] = [
        l
        for l in rule.body
        if (isinstance(l, RelLit) and l in local_rel)
        or (isinstance(l, GuardLit) and l in local_guards)
    ]
    new_body.extend(sub_atoms)
    r_prime = NetlogRule(rule.head, tuple(new_body), push=False)
    return [r_prime] + out_rules, max(kappas)


# --------------------------------------------------- step 3: communication


def add_comm(program: NetlogProgram) -> NetlogProgram:
    """Mark rules whose head holder differs from the body holder (up to
    equality guards) with the push arrow."""
    rules = []
    for rule in program.rules:
        hvs = body_holding_vars(rule)
        head_hv = rule.head.holding_var()
        if not hvs or head_hv is None:
            rules.append(rule)
            continue
        uf = _equality_classes(rule)
        push = not uf.same(head_hv, hvs[0])
        rules.append(NetlogRule(rule.head, rule.body, push))
    return NetlogProgram(tuple(rules))


# ------------------------------------------------------- step 4: the clock


def _guarded(rule: NetlogRule) -> NetlogRule:
    used = _rule_var_names(rule)
    qv = "q"
    i = 1
    while qv in used:
        qv = f"q{i}"
        i += 1
    hvs = body_holding_vars(rule)
    x = hvs[0] if hvs else rule.head.holding_var()
    assert x is not None
    extra = (_rel("clock", Var(x), Var(qv)), GuardLit("!=", Var(qv), Const(0)))
    return NetlogRule(rule.head, rule.body + extra, rule.push)


def _head_vars(arity: int) -> list[Var]:
    return [Var(f"v{i}") for i in range(1, arity + 1)]


def _commit_rules(pred: str, arity: int) -> list[NetlogRule]:
    vs = _head_vars(arity)
    temp = _rel("temp" + pred, *vs)
    absent = _rel(pred, *vs, positive=False)
    zero = _rel("clock", vs[0], Const(0))
    return [
        NetlogRule(_rel(pred, *vs), (temp, zero)),
        NetlogRule(_rel("continue", vs[0]), (temp, absent, zero)),
        NetlogRule(
            _rel("inf", Var("w"), vs[0]),
            (temp, absent, zero, _rel(EDGE_PRED, vs[0], Var("w"))),
            push=True,
        ),
    ]


def _bookkeeping(kappa: int) -> list[NetlogRule]:
    x, y, z, p, q = Var("x"), Var("y"), Var("z"), Var("p"), Var("q")
    k = Const(kappa)
    return [
        NetlogRule(_rel("continue", x), (_rel("start", x),)),
        NetlogRule(
            _rel("inf", y, x),
            (_rel("start", x), _rel(EDGE_PRED, x, y)),
            push=True,
        ),
        NetlogRule(_rel("clock", x, k), (_rel("start", x),)),
        NetlogRule(
            _rel("clock", x, p),
            (
                _rel("clock", x, q),
                GuardLit(">=", q, Const(1)),
                GuardLit("dec", p, q),
                _rel("stop", x, positive=False),
            ),
        ),
        NetlogRule(
            _rel("clock", x, k),
            (_rel("clock", x, Const(0)), _rel("stop", x, positive=False)),
        ),
        # The origin's notice is relayed while the stage clock is still
        # counting, so it reaches the whole network within one stage (the
        # stage length is at least the diameter); a copy arriving at clock
        # zero is ignored everywhere, so notices never leak across stages.
        NetlogRule(
            _rel("inf", z, x),
            (
                _rel("inf", y, x),
                _rel(EDGE_PRED, y, z),
                GuardLit("!=", x, z),
                _rel("clock", y, q),
                GuardLit(">=", q, Const(1)),
            ),
            push=True,
        ),
        NetlogRule(
            _rel("continue", x),
            (
                _rel("inf", x, y),
                _rel("clock", x, q),
                GuardLit("!=", q, Const(0)),
            ),
        ),
        NetlogRule(
            _rel("continue", x),
            (
                _rel("continue", x),
                _rel("clock", x, q),
                GuardLit("!=", q, Const(0)),
            ),
        ),
        NetlogRule(
            _rel("stop", x),
            (_rel("continue", x, positive=False), _rel("clock", x, Const(0))),
        ),
    ]


def add_clocks(
    program: NetlogProgram,
    kappa: int,
    source: NetlogProgram,
) -> NetlogProgram:
    """Guard every computation rule with the stage clock, divert intensional
    derivations into temporary relations, and add the commit and
    coordination rules."""
    intensional = list(source.intensional_preds)
    arities = _program_preds(source.rules)
    used = set(_program_preds(program.rules)) | set(arities)
    clash = sorted(
        (set(RESERVED) & used)
        | {"temp" + p for p in intensional if "temp" + p in used}
    )
    if clash:
        raise CompileError(
            f"program uses reserved relation names: {', '.join(clash)}"
        )
    rules = []
    for rule in program.rules:
        g = _guarded(rule)
        if rule.head.pred in intensional:
            head = RelLit("temp" + g.head.pred, g.head.args, g.head.positive, g.head.holding)
            g = NetlogRule(head, g.body, g.push)
        rules.append(g)
    for pred in intensional:
        rules.extend(_commit_rules(pred, arities[pred]))
    rules.extend(_bookkeeping(kappa))
    return NetlogProgram(tuple(rules))


# -------------------------------------------------- step 5: keeping results


def inflate(program: NetlogProgram, source: NetlogProgram) -> NetlogProgram:
    """Add the copy rules: auxiliaries survive while the clock runs,
    committed source relations survive unconditionally."""
    source_preds = _program_preds(source.rules)
    arities = _program_preds(program.rules)
    rules = list(program.rules)
    for pred in sorted(arities):
        if pred in RESERVED or pred in source_preds or pred == EDGE_PRED:
            continue
        vs = _head_vars(arities[pred])
        lit = _rel(pred, *vs)
        clock = _rel("clock", vs[0], Var("q"))
        rules.append(
            NetlogRule(lit, (lit, clock, GuardLit("!=", Var("q"), Const(0))))
        )
    for pred in sorted(source.intensional_preds):
        lit = _rel(pred, *_head_vars(source_preds[pred]))
        rules.append(NetlogRule(lit, (lit,)))
    return NetlogProgram(tuple(rules))


# -------------------------------------------------------------- entry point


def compile(  # noqa: A001 - the operation is named after what it does
    source: Union[NetlogProgram, str], delta: int
) -> CompileOutput:
    """Compile a centralized rule program for a network of the given
    diameter; the output program computes the same facts stage for stage."""
    if isinstance(source, str):
        source = parse_datalog(source)
    if delta < 0:
        raise CompileError("the network diameter cannot be negative")
    for no, rule in enumerate(source.rules, start=1):
        if rule.push or rule.head.holding is not None:
            raise CompileError(
                f"rule {no}: source rules must be centralized (no @ or ^)"
            )
        try:
            plan_rule(rule)
        except NetlogError as e:
            raise CompileError(f"rule {no}: {e}") from None
    p1 = localize(source)
    names = _Names(set(_program_preds(source.rules)) | {EDGE_PRED})
    traces: list[tuple[tuple[NetlogRule, ...], int]] = []
    rewritten: list[NetlogRule] = []
    for no, rule in enumerate(p1.rules, start=1):
        h = rule.head.holding_var()
        assert h is not None
        names.note_vars(sorted(_rule_var_names(rule)))
        t_r, k_r = _rewrite(rule, h, frozenset({h}), delta, names, no, [0], 1)
        traces.append((tuple(t_r), k_r))
        rewritten.extend(t_r)
    kappa = max([delta, 1] + [k for _, k in traces])
    p2 = NetlogProgram(tuple(rewritten))
    p3 = add_comm(p2)
    p4 = add_clocks(p3, kappa, source)
    pnl = inflate(p4, source)
    try:
        plans = check_distributed(pnl.rules)
    except NetlogError as e:
        raise CompileError(f"compiled program: {e}") from None
    return CompileOutput(
        program=NetlogProgram(pnl.rules, plans),
        kappa=kappa,
        delta=delta,
        traces=tuple(traces),
    )


def emit_text(output: CompileOutput) -> str:
    """Emitted program text: a header comment recording the stage length and
    the diameter, then the rules."""
    return (
        f"% kappa={output.kappa} delta={output.delta}\n"
        + print_program(output.program)
    )
