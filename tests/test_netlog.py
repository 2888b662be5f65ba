"""Rule language tests: parsing, localization restrictions, the
immediate-consequence operator, and round sequences against the
centralized fixpoint results."""
from __future__ import annotations

import contextlib
import functools
import hashlib
import random
import re
from itertools import product

import pytest

from fixture_data import (
    FLIP_PROGRAM,
    NEXT_HOP_TEXT,
    PATH_FAR_DATALOG,
    ROUTE_DISCOVERY_PROGRAM,
    ROUTE_REQUEST_TEXT,
    ROUTING_TABLE_PROGRAM,
    ROUTING_TABLE_TEXT,
    SPANNING_TREE_PROGRAM,
    TRANSITIVE_CLOSURE_DATALOG,
    WIN_DATALOG,
    random_connected_graph,
)
from netquery import netlog, simnet
from netquery.fixtures import SAME_GENERATION_DATALOG, exhaustive_graphs
from netquery.logic import EDGE_PRED, ParseError, parse_fixpoint
from netquery.netlog import (
    Const,
    DistributedInstance,
    FactView,
    GuardLit,
    NetlogEngine,
    NetlogError,
    NetlogProgram,
    NetlogRule,
    NonterminationError,
    RelLit,
    Var,
    _lit_vars,
    _match_literal,
    body_holding_vars,
    both_ways,
    check_localization,
    consequence,
    group_facts,
    make_instance,
    netlog_stages,
    parse_datalog,
    parse_netlog,
    plan_rule,
    print_literal,
    print_program,
    print_rule,
    run_netlog,
    start_instance,
)
from netquery.oracle import (
    eval_datalog,
    eval_fp,
    grid_graph,
    make_graph,
    path_graph,
    ring_graph,
)
from netquery.rewriter import compile
from netquery.simnet import StepResult, _context_for, make_network
from test_rewriter import EQ_PROGRAMS


def path3():
    return path_graph(3)


# ------------------------------------------------------------------ parsing


def test_parse_push_rule():
    program = parse_netlog("^ST(x,@y) :- G(@x,y); ReqNode(@x).")
    rule = program.rules[0]
    assert rule.push is True
    assert rule.head == RelLit("ST", (Var("x"), Var("y")), holding=1)
    assert rule.body[0] == RelLit("G", (Var("x"), Var("y")), holding=0)
    assert rule.body[1] == RelLit("ReqNode", (Var("x"),), holding=0)


def test_parse_negation_and_guards():
    program = parse_netlog(
        "T(@x,h,d) :- !existT(@x,d); G(@x,h); askT(@x,h,d); h != d; h >= 1."
    )
    body = program.rules[0].body
    assert body[0] == RelLit("existT", (Var("x"), Var("d")), positive=False, holding=0)
    assert body[3] == GuardLit("!=", Var("h"), Var("d"))
    assert body[4] == GuardLit(">=", Var("h"), Const(1))


def test_parse_decrement_guard():
    program = parse_netlog("clock(@x,p) :- clock(@x,q); q >= 1; p = q - 1.")
    assert GuardLit("dec", Var("p"), Var("q")) in program.rules[0].body


def test_parse_unicode_aliases():
    a = parse_netlog("↑inf(@y,x) :- start(@x); G(@x,y).")
    b = parse_netlog("^inf(@y,x) :- start(@x); G(@x,y).")
    assert a == b


def test_print_round_trip():
    for text in (ROUTING_TABLE_PROGRAM, SPANNING_TREE_PROGRAM, ROUTE_DISCOVERY_PROGRAM):
        program = parse_netlog(text)
        assert parse_netlog(print_program(program)) == program


def test_parse_datalog_rejects_markers():
    with pytest.raises(ParseError):
        parse_datalog("T(@x,y) :- G(@x,y).")
    with pytest.raises(ParseError):
        parse_datalog("^T(x,y) :- G(x,y).")


def test_parse_arity_mismatch():
    with pytest.raises(NetlogError):
        parse_netlog("P(@x) :- Q(@x,y). P(@x,y) :- Q(@x,y).")


def test_parse_syntax_error_position():
    with pytest.raises(ParseError):
        parse_netlog("T(@x,y) :- G(@x,y)")  # missing final period


def test_parse_rejects_two_holding_markers_and_a_constant_decrement():
    with pytest.raises(ParseError, match="more than one holding marker"):
        parse_netlog("T(@x,@y) :- G(@x,y).")
    with pytest.raises(ParseError, match="needs a variable on the right side"):
        parse_netlog("clock(@x,p) :- start(@x); p = 3 - 1.")


@pytest.mark.parametrize(
    "text,reason",
    [
        ("P(@x, y) :- start(@x).", "head variables ['y']"),
        ("P(@x) :- start(@x); !Q(@x, y).", "variables ['y'] cannot be bound"),
        ("P(@x) :- start(@x); y != x.", "variables ['y'] cannot be bound"),
    ],
)
def test_parse_netlog_rejects_unsafe_rules(text, reason):
    with pytest.raises(NetlogError, match="rule 1: .*" + re.escape(reason)):
        parse_netlog(text)


# ------------------------------------------------------------- localization


def test_restriction_i_mixed_holding_vars():
    with pytest.raises(NetlogError) as err:
        parse_netlog("T(@x,y) :- G(@z,y); T(@x,y).")
    assert "rule 1" in str(err.value) and "(i)" in str(err.value)


def test_restriction_ii_push_with_same_holding_var():
    with pytest.raises(NetlogError) as err:
        parse_netlog("^Q(@x,y) :- T(@x,y).")
    assert "(ii)" in str(err.value)


def test_restriction_ii_unpushed_remote_head():
    with pytest.raises(NetlogError) as err:
        parse_netlog("Q(@y,x) :- T(@x,y); G(@x,y).")
    assert "(ii)" in str(err.value)


def test_restriction_iii_push_without_edge():
    with pytest.raises(NetlogError) as err:
        parse_netlog("^Q(@y,x) :- T(@x,y).")
    assert "(iii)" in str(err.value)


def test_a_program_built_without_plans_is_checked_when_run():
    """A program built from rules directly carries no node plans, and both
    entry points that run it reject what `parse_netlog` rejects: here
    rule 3, whose body is held at x and at y."""
    x, y = Var("x"), Var("y")

    def held(pred, *args):
        return RelLit(pred, args, holding=0)

    program = NetlogProgram((
        NetlogRule(held("B", x), (held("start", x),)),
        NetlogRule(held("C", y), (held("start", y),)),
        NetlogRule(held("A", x), (held("B", x), held("C", y), held(EDGE_PRED, x, y))),
    ))
    with pytest.raises(NetlogError, match=r"rule 3 .* restriction \(i\)"):
        parse_netlog(print_program(program))
    g = path3()
    for run in (
        lambda: run_netlog(program, make_network(g)),
        lambda: netlog_stages(program, g),
    ):
        with pytest.raises(NetlogError, match=r"rule 3 .* restriction \(i\)"):
            run()


def test_edge_literal_orientation_not_distinguished():
    # With body holding variable x and a head pushed to y, the edge
    # literal may be written in either orientation.
    parse_netlog("^Q(@y,x) :- T(@x,y); G(@x,y).")
    parse_netlog("^Q(@y,x) :- T(@x,y); G(y,@x).")


def test_equality_guard_unifies_holding_vars():
    # The fresh relay variable is tied to the body holding variable by an
    # equality guard, so the head counts as locally held.
    program = parse_netlog("Q(@y,x) :- T(@z,x); y = z.")
    assert check_localization(program.rules[0]) is None


def test_check_localization_reports_ok():
    rule = parse_netlog("existST(@y) :- ST(x,@y).").rules[0]
    assert check_localization(rule) is None


def test_example_programs_are_localized():
    for text in (ROUTING_TABLE_PROGRAM, SPANNING_TREE_PROGRAM, ROUTE_DISCOVERY_PROGRAM):
        program = parse_netlog(text)
        for rule in program.rules:
            assert check_localization(rule) is None


# ------------------------------------------------------ plans vs reference


class ReferenceLookup:
    """Fact access of the generator matcher below: a predicate's candidates
    are copied and sorted on every probe."""

    def __init__(self, facts, unary, edges):
        self.by_pred = {}
        for pred, args in facts:
            self.by_pred.setdefault(pred, []).append(args)
        for lst in self.by_pred.values():
            lst.sort()
        self.unary = unary
        both = {e for u, v in edges for e in ((u, v), (v, u))}
        self.edges = sorted(both)
        self.edge_set = frozenset(both)

    def candidates(self, pred):
        if pred == EDGE_PRED:
            return self.edges
        out = list(self.by_pred.get(pred, ()))
        if pred in self.unary:
            out.extend((a,) for a in sorted(self.unary[pred]))
        return sorted(set(out))

    def contains(self, pred, args):
        if pred == EDGE_PRED:
            return args in self.edge_set
        if pred in self.unary and len(args) == 1 and args[0] in self.unary[pred]:
            return True
        return args in set(self.by_pred.get(pred, ()))


def reference_order(body, prebound=()):
    """The body order the generator matcher used: each time, the first
    remaining literal that is evaluable."""
    bound = set(prebound)
    remaining = list(body)
    ordered = []

    def ready(lit):
        if isinstance(lit, RelLit):
            return lit.positive or _lit_vars(lit) <= bound
        left_ok = not isinstance(lit.left, Var) or lit.left.name in bound
        right_ok = not isinstance(lit.right, Var) or lit.right.name in bound
        if lit.op == "=":
            return left_ok or right_ok
        if lit.op == "dec":
            return right_ok
        return left_ok and right_ok

    while remaining:
        lit = next(lit for lit in remaining if ready(lit))
        ordered.append(lit)
        remaining.remove(lit)
        bound |= _lit_vars(lit)
    return ordered


def _ref_term(t, env):
    return t.value if isinstance(t, Const) else env.get(t.name)


def reference_literal(lit, lookup, env):
    """The matcher the plans replaced: every binding of one literal that
    extends `env`, each in a fresh dict, in candidate order."""
    if isinstance(lit, RelLit):
        if lit.positive:
            for tup in lookup.candidates(lit.pred):
                if len(tup) != len(lit.args):
                    continue
                env2 = dict(env)
                ok = True
                for term, val in zip(lit.args, tup):
                    if isinstance(term, Const):
                        ok = term.value == val
                    else:
                        bound = env2.get(term.name)
                        if bound is None:
                            env2[term.name] = val
                        else:
                            ok = bound == val
                    if not ok:
                        break
                if ok:
                    yield env2
            return
        args = tuple(_ref_term(t, env) for t in lit.args)
        assert None not in args, print_literal(lit)
        if not lookup.contains(lit.pred, args):
            yield env
        return
    left, right = _ref_term(lit.left, env), _ref_term(lit.right, env)
    if lit.op == "dec":
        assert right is not None
        if left is None:
            yield {**env, lit.left.name: right - 1}
        elif left == right - 1:
            yield env
        return
    if lit.op == "=":
        assert left is not None or right is not None
        if left is None:
            yield {**env, lit.left.name: right}
        elif right is None:
            yield {**env, lit.right.name: left}
        elif left == right:
            yield env
        return
    assert left is not None and right is not None
    if (lit.op == "!=" and left != right) or (lit.op == ">=" and left >= right):
        yield env


def reference_matches(ordered, lookup, env):
    if not ordered:
        yield env
        return
    for env2 in reference_literal(ordered[0], lookup, env):
        yield from reference_matches(ordered[1:], lookup, env2)


def reference_fire(rule, prebound, lookup, holder=None):
    """The head facts the reference derives, in derivation order."""
    env0 = {name: holder for name in prebound}
    return [
        (rule.head.pred, tuple(_ref_term(t, env) for t in rule.head.args))
        for env in reference_matches(reference_order(rule.body, prebound), lookup, env0)
    ]


def reference_consequence(program, g, instance):
    stores = {v: set() for v in g.nodes}
    for v in g.nodes:
        edges = [(v, u) for u in g.adj[v]]
        lookup = ReferenceLookup(instance.stores.get(v, frozenset()), g.unary, edges)
        for rule in program.rules:
            for fact in reference_fire(rule, body_holding_vars(rule), lookup, v):
                stores[fact[1][rule.head.holding]].add(fact)
    return DistributedInstance({v: frozenset(fs) for v, fs in stores.items()})


def reference_stages(program, g, cap):
    stages = [start_instance(g)]
    for _ in range(cap):
        stages.append(reference_consequence(program, g, stages[-1]))
        if stages[-1] == stages[-2]:
            return stages
    return None


def reference_eval_datalog(program, g):
    facts = frozenset()
    stages = [facts]
    while True:
        lookup = ReferenceLookup(facts, g.unary, g.edges())
        derived = {f for rule in program.rules for f in reference_fire(rule, (), lookup)}
        nxt = facts | derived
        stages.append(nxt)
        if nxt == facts:
            return tuple(stages)
        facts = nxt


DATALOG_SOURCES = (
    TRANSITIVE_CLOSURE_DATALOG,
    SAME_GENERATION_DATALOG,
    WIN_DATALOG,
    PATH_FAR_DATALOG,
)
# A variable repeated inside one literal, and constants in positive ones.
REPEATS_DATALOG = """
L(x) :- S(x,x).
M(x,y) :- R(y,x,y); !S(x,y); R(x,1,z); z >= 1.
"""
# Plan shapes: a join whose every position is bound before it (zero width)
# on a key of two positions, a two-position key that binds, a constant in
# the head and in a negated literal, a decrement that binds and one that
# tests, and constants in comparisons.
PLAN_SHAPES_DATALOG = """
Z(x,y) :- R(x,y,z); S(x,y).
K(x,w) :- S(x,y); R(x,y,w).
C(x,2) :- S(x,y); !R(x,1,y).
D(x,y) :- S(x,z); y = z - 1; S(y,w); x = w - 1.
E(x) :- S(x,y); 3 >= y; x != 1; y = 2.
"""
NODE_PROGRAMS = (
    compile(SAME_GENERATION_DATALOG, 2).program,
    compile(TRANSITIVE_CLOSURE_DATALOG, 2).program,
    parse_netlog(ROUTE_DISCOVERY_PROGRAM),
    parse_netlog(ROUTING_TABLE_PROGRAM),
    parse_netlog(SPANNING_TREE_PROGRAM),
    parse_netlog(FLIP_PROGRAM),
)


def _differential_graphs():
    yield from (g for _name, g in exhaustive_graphs(4))
    rng = random.Random(12)
    for n in (5, 6, 7):
        yield random_connected_graph(rng, n)


def _random_store(rng, rule, g):
    """Random facts for every relation the rule names, over the nodes, 0
    and the rule's constants, with a few facts of a foreign arity; unary
    facts are spread over the store and the input facts, some in both."""
    values = sorted(set(g.nodes) | {0} | {
        t.value
        for lit in (rule.head,) + rule.body
        for t in ((lit.left, lit.right) if isinstance(lit, GuardLit) else lit.args)
        if isinstance(t, Const)
    })
    facts, unary = set(), {}
    rels = {(lit.pred, len(lit.args)) for lit in (rule.head,) + rule.body
            if isinstance(lit, RelLit) and lit.pred != EDGE_PRED}
    for pred, arity in sorted(rels):
        space = list(product(values, repeat=arity))
        chosen = rng.sample(space, min(len(space), rng.randint(0, 24)))
        if arity == 1 and rng.random() < 0.5:
            third = len(chosen) // 3
            unary[pred] = frozenset(a for (a,) in chosen[: 2 * third + 1])
            chosen = chosen[third:]
        facts |= {(pred, args) for args in chosen}
        if rng.random() < 0.2:
            facts.add((pred, tuple(rng.choice(values) for _ in range(arity + 1))))
    return frozenset(facts), unary


def test_plans_yield_the_reference_bindings():
    """Every rule of the compiled SG and TC programs, the fixture programs,
    the Datalog sources, two rules with repeated variables and the plan
    shapes binds its variables on seeded random stores as the generator
    matcher did: the same bindings, multiplicity and order included, and so
    the same head facts in the same order."""
    rules = [(r, body_holding_vars(r)) for p in NODE_PROGRAMS for r in p.rules]
    rules += [
        (r, ())
        for text in DATALOG_SOURCES + (REPEATS_DATALOG, PLAN_SHAPES_DATALOG)
        for r in parse_datalog(text).rules
    ]
    rng = random.Random(2010)
    checked = 0
    for g in _differential_graphs():
        for rule, prebound in rules:
            facts, unary = _random_store(rng, rule, g)
            if prebound:
                holder = rng.choice(g.nodes)
                edges = [(holder, u) for u in g.adj[holder]]
            else:
                holder, edges = 0, list(g.edges())
            lookup = ReferenceLookup(facts, unary, edges)
            env0 = {name: holder for name in prebound}
            want = list(reference_matches(reference_order(rule.body, prebound), lookup, env0))
            names = sorted({n for env in want for n in env})
            probe = NetlogRule(RelLit("binding", tuple(Var(n) for n in names)), rule.body)
            view = FactView(group_facts(facts), unary, both_ways(edges))
            got: list = []
            _match_literal(plan_rule(probe, prebound), view, got, holder)
            assert [args for _, args in got] == [
                tuple(env[n] for n in names) for env in want
            ], str(rule)
            heads: list = []
            _match_literal(plan_rule(rule, prebound), view, heads, holder)
            assert heads == reference_fire(rule, prebound, lookup, holder), str(rule)
            checked += len(want)
    assert checked > 10_000


def test_plans_deeper_than_one_generated_function_yield_the_reference():
    """A body of 30 joins, each followed by a test, nests deeper than one
    generated function may, so the plan continues in further functions; it
    still binds as the generator matcher did."""
    body = "; ".join(f"S(x{i},x{i + 1}); x{i + 1} != 0" for i in range(30))
    rule = parse_datalog(f"Chain(x0,x30) :- {body}.").rules[0]
    facts = frozenset({("S", (i, i + 1)) for i in range(40)} | {("S", (1, 1))})
    view = FactView(group_facts(facts), {}, frozenset())
    got: list = []
    _match_literal(plan_rule(rule), view, got)
    assert got == reference_fire(rule, (), ReferenceLookup(facts, {}, ()))
    assert len(got) == 70


def _sg_step_digest(seed):
    """sha256 over the sends and work of every node step of the compiled
    same-generation program on the 3x3 grid, in call order."""
    g = grid_graph(3, 3)
    program = compile(SAME_GENERATION_DATALOG, g.diameter).program
    digest = hashlib.sha256()
    real = NetlogEngine.step

    def recording(self, *args):
        res = real(self, *args)
        digest.update(repr((res.sends, res.steps)).encode())
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NetlogEngine, "step", recording)
        run_netlog(program, make_network(g, port_seed=seed))
    return digest.hexdigest()


@pytest.mark.parametrize("seed,digest", [
    (0, "5fa7c5af3285ca32902368a542db9e47f2e3609470f80a95ea458f1e32011cc6"),
    (1, "722b0457f5eda56778e5797a2df4c947ac4d3e1d68e930b8bb5e72d4a2c9faa5"),
])
def test_sg_node_steps_send_the_pinned_facts(seed, digest):
    """Every node step of the compiled SG program sends the pinned facts in
    the pinned order and reports the pinned work, at port seeds 0 and 1;
    test_simnet checks that permuted inboxes leave them as they are.  The
    pins were taken with the step-by-step plan interpreter that generated
    plans replaced."""
    assert _sg_step_digest(seed) == digest


def test_a_program_is_planned_once_for_all_its_runs(monkeypatch):
    """`rewriter.compile` and `parse_netlog` keep the node plans that the
    distributed check builds, and every run of the program reuses them."""
    calls = []
    real = netlog.node_plans

    def counted(rules):
        calls.append(rules)
        return real(rules)

    monkeypatch.setattr(netlog, "node_plans", counted)
    g = grid_graph(3, 3)
    net = make_network(g)
    program = compile(TRANSITIVE_CLOSURE_DATALOG, g.diameter).program
    first = run_netlog(program, net)
    assert run_netlog(program, net) == first
    assert len(calls) == 1
    parsed = parse_netlog(str(program))
    assert parsed == program and parsed.plans is not None
    assert run_netlog(parsed, net) == first
    assert len(calls) == 2


def _store_sequence(rng, rules, g, length):
    """`length` seeded random stores over the relations the rules name,
    each made from the one before: a relation keeps its tuples, swaps one
    tuple for another (so its size stays), gets a tuple of a foreign arity,
    empties, or gets back the tuples it had some stores earlier.  Values
    are the nodes, 0 and the rules' constants; some unary relations are
    also input facts, fixed for the whole sequence."""
    lits = [
        lit for rule in rules for lit in (rule.head,) + rule.body
        if isinstance(lit, RelLit)
    ]
    values = sorted(set(g.nodes) | {0} | {
        t.value for lit in lits for t in lit.args if isinstance(t, Const)
    })
    arities = {lit.pred: len(lit.args) for lit in lits if lit.pred != EDGE_PRED}
    unary = {
        pred: frozenset(rng.sample(g.nodes, 2))
        for pred, arity in sorted(arities.items())
        if arity == 1 and rng.random() < 0.3
    }

    def fresh(arity):
        return tuple(rng.choice(values) for _ in range(arity))

    rels = {
        pred: {fresh(arity) for _ in range(rng.randint(2, 16))}
        for pred, arity in sorted(arities.items())
    }
    history = {pred: [frozenset(ts)] for pred, ts in rels.items()}
    stores = []
    for _ in range(length):
        stores.append(frozenset((p, t) for p, ts in rels.items() for t in ts))
        for pred, ts in rels.items():
            move = rng.choice(("keep", "keep", "swap", "swap", "foreign", "empty", "back"))
            if move == "swap" and ts:
                size = len(ts)
                ts.remove(rng.choice(sorted(ts)))
                while len(ts) < size:
                    ts.add(fresh(arities[pred]))
            elif move == "foreign":
                ts.add(fresh(arities[pred] + 1))
            elif move == "empty":
                ts.clear()
            elif move == "back":
                ts.clear()
                ts.update(rng.choice(history[pred]))
            history[pred].append(frozenset(ts))
    return stores, unary


def test_the_index_memo_serves_the_bindings_of_fresh_views():
    """Every compiled SG and TC rule at a node, and every plan-shape rule,
    binds its variables over a sequence of stores as over fresh views when
    one memo is carried through the sequence and, between two stores, the
    entry of every predicate whose tuples differ is dropped, as a node's
    step drops its change set's: the same bindings in the same order.  The
    entries of unchanged, non-empty relations are reused."""
    programs = [
        (compile(SAME_GENERATION_DATALOG, 2).program.rules, True),
        (compile(TRANSITIVE_CLOSURE_DATALOG, 2).program.rules, True),
        (parse_datalog(PLAN_SHAPES_DATALOG).rules, False),
    ]
    rng = random.Random(1993)
    checked = reused = 0
    for g in (grid_graph(2, 3), ring_graph(5), random_connected_graph(rng, 6)):
        for rules, at_node in programs:
            plans = []
            for rule in rules:
                prebound = body_holding_vars(rule) if at_node else ()
                names = sorted(set().union(*map(_lit_vars, rule.body)))
                probe = NetlogRule(
                    RelLit("binding", tuple(Var(n) for n in names)), rule.body
                )
                plans.append(plan_rule(probe, prebound))
            if at_node:
                holder = rng.choice(g.nodes)
                edges = both_ways((holder, u) for u in g.adj[holder])
            else:
                holder, edges = 0, both_ways(g.edges())
            stores, unary = _store_sequence(rng, rules, g, 16)
            memo, previous = {}, {}
            for facts in stores:
                store = group_facts(facts)
                for pred in previous.keys() | store.keys():
                    if previous.get(pred) != store.get(pred):
                        memo.pop(pred, None)
                previous = store
                before = dict(memo)
                view = FactView(store, unary, edges, memo)
                fresh = FactView(group_facts(facts), unary, edges)
                for plan in plans:
                    got, want = [], []
                    _match_literal(plan, view, got, holder)
                    _match_literal(plan, fresh, want, holder)
                    assert got == want, str(plan.rule)
                    checked += len(want)
                for pred, entry in memo.items():
                    # Absent predicates all share one empty set; count the
                    # reuses of non-empty tuples.
                    reused += before.get(pred) is entry and bool(entry[0])
    assert checked > 1_000
    assert reused > 100, reused


# Rule shapes no fixture compiles: an `=` guard that binds its right side,
# a rule whose body is one guard, and a source that already uses the
# compiler's first sub-query name and the clock's variable `q`.
RULE_SHAPES_DATALOG = (
    "P(x, y) :- G(x, z); z = y.\nE(x) :- G(x, y); 2 = y.",
    "P(x) :- x = 2.\nS(x, y) :- P(x); G(x, y).",
    "T(x, q) :- G(x, y); Q_1_1_1(y, q).\nQ_1_1_1(x, y) :- G(x, y).",
)


def test_rule_shapes_compile_to_the_centralized_result():
    """Each shape's compiled program, staged and on the simulator, ends
    with the final instance of `eval_datalog` and of the reference, which
    agree stage for stage."""
    let_right = plan_rule(parse_datalog(RULE_SHAPES_DATALOG[0]).rules[0]).steps[1]
    assert let_right[0] == netlog._LET and let_right[1] == 2  # y, from z
    for text in RULE_SHAPES_DATALOG:
        src = parse_datalog(text)
        for g in (path_graph(4), ring_graph(5), grid_graph(2, 3)):
            want = reference_eval_datalog(src, g)
            assert eval_datalog(src, g).stages == want
            out = compile(src, g.diameter)
            assert netlog_stages(out.program, g)[-1].union_facts() == want[-1], text
            inst, _ = run_netlog(out.program, make_network(g))
            assert inst.union_facts() == want[-1], text
    guard_only = compile(RULE_SHAPES_DATALOG[1], 2).traces[0][0]
    assert [print_rule(r) for r in guard_only] == ["P(@x) :- x = 2."]
    renamed = str(compile(RULE_SHAPES_DATALOG[2], 2).program)
    assert "Q_1_1_1_(@x, q, y)" in renamed and "clock(@x, q1); q1 != 0" in renamed


def test_stages_match_the_reference_stage_for_stage():
    unary = {"ReqNode": [1], "dest": [3]}
    for g in [path_graph(3), ring_graph(4), *(
        random_connected_graph(random.Random(seed), 5) for seed in range(2)
    )]:
        g = g.with_unary(unary)
        programs = NODE_PROGRAMS[2:] + (
            compile(TRANSITIVE_CLOSURE_DATALOG, g.diameter).program,
        )
        for program in programs:
            want = reference_stages(program, g, 40)
            if want is None:
                with pytest.raises(NonterminationError):
                    netlog_stages(program, g, cap=40)
            else:
                assert netlog_stages(program, g, cap=40) == want
    g = path_graph(4)
    program = compile(SAME_GENERATION_DATALOG, g.diameter).program
    assert netlog_stages(program, g) == reference_stages(program, g, 200)


def test_eval_datalog_matches_the_reference_stage_for_stage():
    rng = random.Random(7)
    graphs = [g for _name, g in exhaustive_graphs(4)]
    graphs += [random_connected_graph(rng, n) for n in (5, 6, 7)]
    for g in graphs:
        for text in DATALOG_SOURCES:
            program = parse_datalog(text)
            assert eval_datalog(program, g).stages == reference_eval_datalog(program, g)


# ------------------------------------------------------------ consequence


def test_consequence_single_push_rule():
    program = parse_netlog("^ST(x,@y) :- G(@x,y); ReqNode(@x).")
    g = make_graph([(1, 2)], unary={"ReqNode": [1]})
    out = consequence(program, g, make_instance(g))
    assert out.stores[2] == frozenset({("ST", (1, 2))})
    assert out.stores[1] == frozenset()


def test_consequence_copy_rule_is_identity():
    program = parse_netlog("T(@x,y) :- T(@x,y).")
    g = path3()
    inst = make_instance(g, {1: [("T", (1, 2))]})
    assert consequence(program, g, inst) == inst


def test_consequence_spanning_tree_first_step():
    program = parse_netlog(SPANNING_TREE_PROGRAM)
    g = path3().with_unary({"ReqNode": [1]})
    out = consequence(program, g, make_instance(g))
    assert out.union_facts() == frozenset({("ST", (1, 2))})
    assert out.stores[2] == frozenset({("ST", (1, 2))})


def test_consequence_not_inflationary():
    program = parse_netlog("A(@x) :- start(@x).")
    g = path3()
    first = consequence(program, g, start_instance(g))
    assert first.facts_of("A") == {(v,) for v in g.nodes}
    second = consequence(program, g, first)
    assert second.facts_of("A") == set()


def test_consequence_monotone_without_negation():
    program = parse_netlog(
        "T(@x,d,d) :- G(@x,d).\n^askT(@x,h,d) :- T(@h,z,d); G(@h,x); x != z."
    )
    g = ring_graph(4)
    small = make_instance(g, {2: [("T", (2, 3, 3))]})
    big = make_instance(
        g, {2: [("T", (2, 3, 3)), ("T", (2, 1, 1))], 3: [("T", (3, 4, 4))]}
    )
    out_small = consequence(program, g, small)
    out_big = consequence(program, g, big)
    for v in g.nodes:
        assert out_small.stores[v] <= out_big.stores[v]


def test_placement_follows_holding_argument():
    program = parse_netlog(ROUTE_DISCOVERY_PROGRAM)
    g = path3().with_unary({"ReqNode": [1], "dest": [3]})
    for inst in netlog_stages(program, g):
        for v, facts in inst.stores.items():
            for pred, args in facts:
                if pred in ("RouteReq", "askRouteReq"):
                    assert args[1] == v
                elif pred in ("Nexthop", "existRR", "start"):
                    assert args[0] == v


# ---------------------------------------------------------- round sequences


def test_stages_spanning_tree_path3():
    program = parse_netlog(SPANNING_TREE_PROGRAM)
    g = path3().with_unary({"ReqNode": [1]})
    final = netlog_stages(program, g)[-1]
    assert final.facts_of("ST") == {(1, 2), (2, 3)}
    assert final.stores[2] >= frozenset({("ST", (1, 2))})
    assert final.stores[3] >= frozenset({("ST", (2, 3))})


def test_stages_spanning_tree_ring4_tie_break():
    program = parse_netlog(SPANNING_TREE_PROGRAM)
    g = ring_graph(4).with_unary({"ReqNode": [1]})
    final = netlog_stages(program, g)[-1]
    assert final.facts_of("ST") == {(1, 2), (1, 4), (2, 3)}


def test_stages_routing_table_path3_matches_oracle():
    program = parse_netlog(ROUTING_TABLE_PROGRAM)
    g = path3()
    final = netlog_stages(program, g)[-1]
    want = eval_fp(g, parse_fixpoint(ROUTING_TABLE_TEXT)).final.tuples
    assert final.facts_of("T") == want


def test_stages_route_discovery_path3_matches_oracle():
    program = parse_netlog(ROUTE_DISCOVERY_PROGRAM)
    g = path3().with_unary({"ReqNode": [1], "dest": [3]})
    final = netlog_stages(program, g)[-1]
    rr = eval_fp(g, parse_fixpoint(ROUTE_REQUEST_TEXT)).final
    nh = eval_fp(g, parse_fixpoint(NEXT_HOP_TEXT), aux={"RouteReq": rr}).final
    assert final.facts_of("RouteReq") == rr.tuples
    assert final.facts_of("Nexthop") == nh.tuples


def test_flip_program_does_not_terminate():
    with pytest.raises(NonterminationError) as err:
        netlog_stages(parse_netlog(FLIP_PROGRAM), path3(), cap=40)
    assert err.value.rounds == 40


def test_a_round_cap_below_one_is_rejected():
    program = parse_netlog(SPANNING_TREE_PROGRAM)
    for cap in (0, -2):
        with pytest.raises(NetlogError, match=f"round cap {cap} is not a positive"):
            netlog_stages(program, path3(), cap=cap)


def test_a_store_of_an_unknown_node_is_rejected():
    with pytest.raises(NetlogError, match="store references unknown node 9"):
        make_instance(path3(), {9: [("T", (9, 1))]})


# --------------------------------------------------------- distributed run


def _net(edges_text):
    from netquery.simnet import load_network

    return load_network(edges_text)


def test_run_netlog_matches_stages_spanning_tree():
    from netquery.netlog import run_netlog

    net = _net("3 2\n1 2\n2 3\n@facts\nReqNode 1\n")
    program = parse_netlog(SPANNING_TREE_PROGRAM)
    inst, metrics = run_netlog(program, net)
    assert inst == netlog_stages(program, net.graph)[-1]
    assert inst.facts_of("ST") == {(1, 2), (2, 3)}
    assert metrics.dist_time >= 1
    assert metrics.total_msgs > 0


def test_run_netlog_needs_global_ids():
    net = make_network(path3(), simnet.ANONYMOUS)
    with pytest.raises(NetlogError, match="needs globally unique node ids"):
        run_netlog(parse_netlog(SPANNING_TREE_PROGRAM), net)


def test_run_netlog_matches_stages_routing_table():
    from netquery.netlog import run_netlog

    net = _net("4 4\n1 2\n2 3\n3 4\n4 1\n")
    program = parse_netlog(ROUTING_TABLE_PROGRAM)
    inst, _ = run_netlog(program, net)
    assert inst == netlog_stages(program, net.graph)[-1]


def test_run_netlog_route_discovery_with_facts():
    from netquery.netlog import run_netlog

    net = _net("3 2\n1 2\n2 3\n@facts\nReqNode 1\ndest 3\n")
    program = parse_netlog(ROUTE_DISCOVERY_PROGRAM)
    inst, _ = run_netlog(program, net)
    assert inst == netlog_stages(program, net.graph)[-1]
    assert inst.facts_of("RouteReq") == frozenset({(1, 2, 3), (2, 3, 3)})
    assert inst.facts_of("Nexthop") == frozenset({(2, 3, 3), (1, 2, 3)})


def test_run_netlog_order_seed_invariance(permuted_inboxes):
    """The spanning-tree program ends with the same instance whatever order
    each inbox is read in: every step's inbox is permuted by a generator
    seeded with the order seed, and some permutation leaves send order."""
    from netquery.netlog import run_netlog

    net = _net("4 4\n1 2\n2 3\n3 4\n4 1\n@facts\nReqNode 1\n")
    program = parse_netlog(SPANNING_TREE_PROGRAM)
    outcomes, moved = [], []
    for s in range(5):
        with permuted_inboxes(NetlogEngine, s) as moves:
            outcomes.append(run_netlog(program, net)[0])
        moved += moves
    assert all(o == outcomes[0] for o in outcomes)
    assert outcomes[0].facts_of("ST") == {(1, 2), (1, 4), (2, 3)}
    assert any(moved)


def test_a_node_slice_repeats_exactly_when_every_predicate_does():
    """Driven step by step, node 2 of path-3 keeps its slice per predicate:
    a repeated slice is quiescent; one that differs in one predicate, loses
    all of a predicate's facts or swaps one predicate for another is not;
    and `collect` returns the slice as one flat frozenset of facts."""
    net = make_network(path3())
    ctx = _context_for(net, 2)
    engine = NetlogEngine(parse_netlog("R(@x) :- P(@x,y)."))
    state = engine.start(ctx)
    p, q, q_other = ("P", (2, 1)), ("Q", (2, 3)), ("Q", (2, 1))

    def step(round_no, *facts):
        res = engine.step(state, ctx, round_no, tuple((f, 1) for f in facts))
        assert res.sends == ()
        return res.quiescent, dict(state.snapshot)

    assert step(1, p, q) == (False, {"start": {(2,)}, "P": {(2, 1)}, "Q": {(2, 3)}})
    assert not step(2, p, q)[0]  # start is gone and R has come
    quiet, before = step(3, p, q)
    assert quiet and before == {"R": {(2,)}, "P": {(2, 1)}, "Q": {(2, 3)}}
    quiet, after = step(4, p, q_other)
    assert not quiet and after == {**before, "Q": {(2, 1)}}
    quiet, gone = step(5, p)
    assert not quiet and gone == {"R": {(2,)}, "P": {(2, 1)}}
    assert step(6, p)[0]
    assert not step(7, p, ("S", (2, 5)))[0]
    assert not step(8, p, ("T", (2, 5)))[0]  # as many predicates as before
    collected = engine.collect(state, ctx)
    assert type(collected) is frozenset
    assert collected == {("R", (2,)), ("P", (2, 1)), ("T", (2, 5))}


class AlwaysFiringEngine(NetlogEngine):
    """The reference for the firing memo: every step fires every plan on a
    view with a fresh index memo, places each fact by its head holding
    argument and sizes every send."""

    def step(self, state, ctx, round_no, inbox):
        v = ctx.node_id
        snapshot = state.local
        for pred, args in {payload for payload, _port in inbox}:
            snapshot.setdefault(pred, set()).add(args)
        quiescent = snapshot == state.snapshot
        state.snapshot = snapshot
        view = FactView(snapshot, ctx.global_unary, state.edges)
        local, sends, work = {}, [], 1
        for plan in self.plans:
            facts = []
            _match_literal(plan, view, facts, v)
            work += len(facts)
            for pred, args in facts:
                target = args[plan.rule.head.holding]
                if target == v:
                    local.setdefault(pred, set()).add(args)
                else:
                    sends.append((state.port_of[target], (pred, args)))
        state.local = local
        bits = max((self.payload_bits(fact, ctx.enc) for _, fact in sends), default=0)
        return StepResult(tuple(sends), quiescent, work, round_no + 1, bits)


def _recorded_run(engine, net, cap):
    """Every step result of a run of `engine` on `net`, in call order, and
    how the run ended: its results and metrics, or the error's name."""
    records = []
    step = engine.step

    def recording(*args):
        records.append(step(*args))
        return records[-1]

    engine.step = recording
    try:
        outcome = simnet.run(net, engine, round_cap=cap)
    except (NetlogError, simnet.RoundCapError) as err:
        outcome = type(err).__name__
    return records, outcome


# Inputs for the plan-shape rules, which change with the clock.
PLAN_SHAPES_INPUTS = """
S(@x, q) :- clock(@x, q).
R(@x, y, q) :- G(@x, y); clock(@x, q).
"""
# A gate that passes two tuples (P(@x, q); q >= 1); one whose count goes
# 1, 0, 1, 1 and then 0 (C(@x, q); q != 2); a predicate with both unary
# input facts and derived facts, read whole and as a gate (Mark); a
# negated literal over a changing relation (!C(@x, 1)); a fact that a
# plan that is not local keeps at its own node (Self(@y, x)); a plan that
# reads only a relation that vanishes, and that only under negation
# (Late(@x) reads !start(@x) besides the fixed edges); and a gate whose
# relation changes in every step while its count holds at 1 (Tick(@x, q)
# is {2}, then {1}, then {0}, then gone), so the plan it gates must not
# fire again until the count moves.
REUSE_PROGRAMS = tuple(parse_netlog(text) for text in (
    """
    P(@x, 1) :- start(@x).
    P(@x, 2) :- start(@x).
    P(@x, y) :- P(@x, y).
    C(@x, 3) :- start(@x).
    C(@x, p) :- C(@x, q); q >= 1; p = q - 1.
    ^A(@y, x) :- P(@x, q); q >= 1; G(@x, y).
    ^B(@y, x) :- C(@x, q); q != 2; G(@x, y).
    Out(@x) :- P(@x, 1); !C(@x, 1).
    Self(@y, x) :- A(@x, z); y = x.
    """,
    """
    ^Mark(@y) :- Mark(@x); G(@x, y).
    Pair(@x, z) :- Mark(@x); Mark(z).
    Near(@x, y) :- G(@x, y); Mark(y).
    """,
    """
    Late(@x) :- G(@x, y); !start(@x).
    Tick(@x, 2) :- start(@x).
    Tick(@x, p) :- Tick(@x, q); q >= 1; p = q - 1.
    Ticking(@x) :- Tick(@x, q).
    """,
))


def _differential_programs(g):
    """The rewriter tests' programs compiled, which are every Datalog
    fixture and two-hop, the compiled plan shapes fed by their inputs, the
    hand-written node programs and the reuse cases."""
    for _name, text in EQ_PROGRAMS:
        yield _compiled(text, g.diameter)
    yield _compiled(PLAN_SHAPES_DATALOG, g.diameter, PLAN_SHAPES_INPUTS)
    yield from NODE_PROGRAMS[2:]
    yield from REUSE_PROGRAMS


@functools.cache
def _compiled(text, delta, inputs=""):
    """A Datalog program compiled for diameter `delta`, with the rules
    `inputs` added, made once, so that its plans' code is made once."""
    return parse_netlog(str(compile(text, delta).program) + inputs)


@contextlib.contextmanager
def _counted_firings(fired):
    """Within the block, every plan firing through `_match_literal` is
    appended to `fired`."""
    real = netlog._match_literal

    def counted(plan, *args):
        fired.append(plan)
        return real(plan, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netlog, "_match_literal", counted)
        yield


def test_reused_firings_step_as_the_always_firing_reference(permuted_inboxes):
    """Every node step sends the same facts in the same order, and reports
    the same work, quiescence, wake-up round and size, as the reference
    that fires every plan at every step, and every run ends alike: on the
    differential graphs at port seed 0, and on those of five nodes or more
    also at port seed 1 with permuted inboxes.  Reuse happens in most
    runs."""
    reused = runs = 0
    for g in _differential_graphs():
        g = g.with_unary({"ReqNode": [1], "dest": [max(g.nodes)], "Mark": [1]})
        seeds = ((0, False), (1, True)) if len(g.nodes) >= 5 else ((0, False),)
        for program in _differential_programs(g):
            for seed, permuted in seeds:
                net = make_network(g, port_seed=seed)
                cap = min(netlog.default_round_cap(program, g), 60)
                fired = []
                with contextlib.ExitStack() as stack:
                    if permuted:
                        stack.enter_context(permuted_inboxes(NetlogEngine, seed))
                        stack.enter_context(permuted_inboxes(AlwaysFiringEngine, seed))
                    want = _recorded_run(AlwaysFiringEngine(program), net, cap)
                    stack.enter_context(_counted_firings(fired))
                    got = _recorded_run(NetlogEngine(program), net, cap)
                assert got == want, str(program)
                runs += 1
                reused += len(fired) < len(want[0]) * len(program.rules)
    assert reused > runs / 2, (reused, runs)


class LastFiringMemoEngine(NetlogEngine):
    """The reference for change-driven firing: every step counts every
    gate on a view with a fresh index memo, and a plan fires unless the
    sets of its `reads` in the snapshot and the counts of its gates repeat
    those of its last firing, which the node keeps with the firing's
    output."""

    def step(self, state, ctx, round_no, inbox):
        v = ctx.node_id
        snapshot = state.local
        for pred, args in {payload for payload, _port in inbox}:
            snapshot.setdefault(pred, set()).add(args)
        quiescent = snapshot == state.snapshot
        state.snapshot = snapshot
        view = FactView(snapshot, ctx.global_unary, state.edges)
        counts = [gate.count(view, v) for gate in self.gates]
        local, sends, work, bits = {}, [], 1, 0
        for i, plan in enumerate(self.plans):
            inputs = (
                *map(snapshot.get, plan.reads),
                *(counts[self.gates.index(gate)] for gate in plan.gates),
            )
            last = state.firings[i]
            if last is None or last[0] != inputs:
                facts = []
                netlog._match_literal(plan, view, facts, v)
                last = state.firings[i] = (inputs, *self._route(plan, facts, state, ctx))
            _, n, kept, sent, size = last
            work += n
            if kept:
                local.setdefault(plan.rule.head.pred, set()).update(kept)
            if sent:
                sends += sent
                bits = max(bits, size)
        state.local = local
        return StepResult(tuple(sends), quiescent, work, round_no + 1, bits)


def _firings_by_step(engine, net, cap):
    """The plans each step of a run of `engine` on `net` fires, in firing
    order, as (round, node, plans) in step order."""
    fired, steps = [], []
    step = engine.step

    def recording(state, ctx, round_no, inbox):
        first = len(fired)
        res = step(state, ctx, round_no, inbox)
        steps.append((round_no, ctx.node_id, tuple(fired[first:])))
        return res

    engine.step = recording
    with _counted_firings(fired):
        try:
            simnet.run(net, engine, round_cap=cap)
        except (NetlogError, simnet.RoundCapError):
            pass
    return steps


def test_steps_fire_the_plans_the_last_firing_memo_fires():
    """A step fires exactly the plans, in the same order, that a node
    firing whenever a plan's read sets or gate counts differ from its last
    firing's would fire, on the differential graphs and programs at port
    seed 0: change-driven steps neither skip a firing the inputs call for
    nor add one they do not.  Ports and delivery order reach no input, so
    one seed suffices.  Reuse happens in most runs."""
    reused = runs = 0
    for g in _differential_graphs():
        g = g.with_unary({"ReqNode": [1], "dest": [max(g.nodes)], "Mark": [1]})
        net = make_network(g)
        for program in _differential_programs(g):
            cap = min(netlog.default_round_cap(program, g), 60)
            want = _firings_by_step(LastFiringMemoEngine(program), net, cap)
            got = _firings_by_step(NetlogEngine(program), net, cap)
            assert got == want, str(program)
            runs += 1
            reused += sum(len(plans) for *_, plans in got) < len(got) * len(program.rules)
    assert reused > runs / 2, (reused, runs)


def test_snapshot_sets_are_never_mutated():
    """A step finds what changed by comparing its slice with the previous
    snapshot's sets, and the index memo keeps sets of earlier snapshots,
    which is sound only if no set that a step took into a snapshot changes
    afterwards: none does, through the compiled SG and TC runs on the 3x3
    grid."""
    taken = []

    class Recording(NetlogEngine):
        def step(self, state, *args):
            res = super().step(state, *args)
            taken.extend((ts, frozenset(ts)) for ts in state.snapshot.values())
            return res

    g = grid_graph(3, 3)
    for text in (SAME_GENERATION_DATALOG, TRANSITIVE_CLOSURE_DATALOG):
        program = compile(text, g.diameter).program
        simnet.run(make_network(g), Recording(program), round_cap=1000)
    assert len(taken) > 1000
    assert all(ts == copy for ts, copy in taken)


def test_run_netlog_nontermination_diagnostic():
    from netquery.netlog import run_netlog

    net = _net("2 1\n1 2\n")
    program = parse_netlog(FLIP_PROGRAM)
    with pytest.raises(NonterminationError) as err:
        run_netlog(program, net, round_cap=25)
    assert err.value.rounds == 25
    assert isinstance(err.value.instance, DistributedInstance)
