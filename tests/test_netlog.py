"""Rule language tests: parsing, localization restrictions, the
immediate-consequence operator, and round sequences against the
centralized fixpoint results."""
from __future__ import annotations

import hashlib
import random
import re
from itertools import product

import pytest

from netquery.fixtures import (
    FLIP_PROGRAM,
    PATH_FAR_DATALOG,
    ROUTE_DISCOVERY_PROGRAM,
    ROUTE_REQUEST_TEXT,
    NEXT_HOP_TEXT,
    ROUTING_TABLE_PROGRAM,
    ROUTING_TABLE_TEXT,
    SAME_GENERATION_DATALOG,
    SPANNING_TREE_PROGRAM,
    TRANSITIVE_CLOSURE_DATALOG,
    WIN_DATALOG,
    exhaustive_graphs,
    random_connected_graph,
)
from netquery.logic import EDGE_PRED, ParseError, parse_fixpoint
from netquery.netlog import (
    Const,
    DistributedInstance,
    FactView,
    GuardLit,
    NetlogEngine,
    NetlogError,
    NetlogRule,
    NonterminationError,
    RelLit,
    Var,
    _lit_vars,
    _match_literal,
    body_holding_vars,
    check_localization,
    consequence,
    make_instance,
    match_body,
    netlog_stages,
    parse_datalog,
    parse_netlog,
    plan_rule,
    print_literal,
    print_program,
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
from netquery.simnet import make_network


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


# ------------------------------------------------------------- match_body


def test_match_body_joins_and_guards():
    program = parse_datalog("P(x,z) :- G(x,y); G(y,z); z != x.")
    envs = list(match_body(program.rules[0].body, frozenset(), path3()))
    triples = {(e["x"], e["y"], e["z"]) for e in envs}
    assert triples == {(1, 2, 3), (3, 2, 1)}


def test_match_body_negation_closed_world():
    program = parse_datalog("P(x) :- G(x,y); !T(y,x).")
    facts = frozenset({("T", (2, 1))})
    envs = list(match_body(program.rules[0].body, facts, path3()))
    assert {(e["x"], e["y"]) for e in envs} == {(2, 1), (2, 3), (3, 2)}


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
            view = FactView(facts, unary, edges)
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
    view = FactView(facts, {}, ())
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
        run_netlog(program, make_network(g, port_seed=seed), order_seed=seed)
    return digest.hexdigest()


@pytest.mark.parametrize("seed,digest", [
    (0, "5fa7c5af3285ca32902368a542db9e47f2e3609470f80a95ea458f1e32011cc6"),
    (1, "722b0457f5eda56778e5797a2df4c947ac4d3e1d68e930b8bb5e72d4a2c9faa5"),
])
def test_sg_node_steps_send_the_pinned_facts(seed, digest):
    """Every node step of the compiled SG program sends the pinned facts in
    the pinned order and reports the pinned work, at port and
    delivery-order seeds 0 and 1.  The pins were taken with the step-by-step
    plan interpreter that generated plans replaced."""
    assert _sg_step_digest(seed) == digest


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
    one memo is carried through the sequence: the same bindings in the
    same order.  The memo is reused, also where a relation changed but kept
    its size."""
    programs = [
        (compile(SAME_GENERATION_DATALOG, 2).program.rules, True),
        (compile(TRANSITIVE_CLOSURE_DATALOG, 2).program.rules, True),
        (parse_datalog(PLAN_SHAPES_DATALOG).rules, False),
    ]
    rng = random.Random(1993)
    checked = reused = same_size_rebuilt = 0
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
                edges = [(holder, u) for u in g.adj[holder]]
            else:
                holder, edges = 0, list(g.edges())
            stores, unary = _store_sequence(rng, rules, g, 16)
            memo = {}
            for facts in stores:
                before = dict(memo)
                view = FactView(facts, unary, edges, memo)
                fresh = FactView(facts, unary, edges)
                for plan in plans:
                    got, want = [], []
                    _match_literal(plan, view, got, holder)
                    _match_literal(plan, fresh, want, holder)
                    assert got == want, str(plan.rule)
                    checked += len(want)
                for pred, entry in view.seen.items():
                    old = before.get(pred)
                    if old is entry:
                        reused += 1
                    elif old is not None and len(old[0]) == len(entry[0]):
                        same_size_rebuilt += 1
    assert checked > 1_000
    assert reused > 100 and same_size_rebuilt > 100, (reused, same_size_rebuilt)


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
    assert inst.relation("RouteReq", 3).tuples == frozenset({(1, 2, 3), (2, 3, 3)})
    assert inst.relation("Nexthop", 3).tuples == frozenset({(2, 3, 3), (1, 2, 3)})


def test_run_netlog_order_seed_invariance():
    from netquery.netlog import run_netlog

    net = _net("4 4\n1 2\n2 3\n3 4\n4 1\n@facts\nReqNode 1\n")
    program = parse_netlog(SPANNING_TREE_PROGRAM)
    outcomes = [run_netlog(program, net, order_seed=s)[0] for s in range(5)]
    assert all(o == outcomes[0] for o in outcomes)
    assert outcomes[0].facts_of("ST") == {(1, 2), (1, 4), (2, 3)}


def test_run_netlog_nontermination_diagnostic():
    from netquery.netlog import run_netlog

    net = _net("2 1\n1 2\n")
    program = parse_netlog(FLIP_PROGRAM)
    with pytest.raises(NonterminationError) as err:
        run_netlog(program, net, round_cap=25)
    assert err.value.rounds == 25
    assert isinstance(err.value.instance, DistributedInstance)
