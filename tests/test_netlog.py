"""Rule language tests: parsing, localization restrictions, the
immediate-consequence operator, and round sequences against the
centralized fixpoint results."""
from __future__ import annotations

import pytest

from netquery.fixtures import (
    FLIP_PROGRAM,
    ROUTE_DISCOVERY_PROGRAM,
    ROUTE_REQUEST_TEXT,
    NEXT_HOP_TEXT,
    ROUTING_TABLE_PROGRAM,
    ROUTING_TABLE_TEXT,
    SPANNING_TREE_PROGRAM,
)
from netquery.logic import ParseError, parse_fixpoint
from netquery.netlog import (
    Const,
    DistributedInstance,
    GuardLit,
    NetlogError,
    NonterminationError,
    RelLit,
    Var,
    check_localization,
    consequence,
    make_instance,
    match_body,
    netlog_stages,
    parse_datalog,
    parse_netlog,
    print_program,
    start_instance,
)
from netquery.oracle import eval_fp, make_graph, path_graph, ring_graph


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
