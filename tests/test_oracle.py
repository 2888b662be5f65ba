"""Centralized evaluator tests: fixed expected values derived by hand,
graph validation, fixpoint staging, and genericity."""
from __future__ import annotations

import random
import tracemalloc
from collections import deque

import pytest

from fixture_data import (
    NEXT_HOP_TEXT,
    ROUTE_REQUEST_TEXT,
    ROUTING_TABLE_TEXT,
    SPANNING_TREE_TEXT,
    TRANSITIVE_CLOSURE_DATALOG,
    TWO_HOP_TEXT,
    WIN_DATALOG,
    apply_isomorphism,
    random_connected_graph,
)
from netquery.fixtures import TRANSITIVE_CLOSURE_TEXT, exhaustive_graphs
from netquery.logic import parse_fixpoint, parse_formula, relativize_fixpoint
from netquery.netlog import parse_datalog
from netquery.oracle import (
    GraphError,
    OracleError,
    eval_datalog,
    eval_fo,
    eval_fp,
    eval_fp_loc,
    make_graph,
    grid_graph,
    path_graph,
    ring_graph,
    star_graph,
)


def triangle():
    return make_graph([(1, 2), (2, 3), (1, 3)])


# ------------------------------------------------------------------ graphs


def test_make_graph_rejects_self_loop():
    with pytest.raises(GraphError):
        make_graph([(1, 1), (1, 2)])


def test_make_graph_rejects_disconnected():
    with pytest.raises(GraphError):
        make_graph([(1, 2), (3, 4)])


def test_make_graph_rejects_unknown_unary_member():
    with pytest.raises(GraphError):
        make_graph([(1, 2)], unary={"ReqNode": [7]})
    with pytest.raises(GraphError, match="P fact references unknown node 7"):
        path_graph(3).with_unary({"P": [9, 7]})


def test_a_unary_fact_named_like_the_edge_relation_is_rejected():
    # Every engine and the oracle read G as the edge relation, so a unary
    # fact G would be dropped silently.
    with pytest.raises(GraphError, match="unary fact G would shadow the edge relation"):
        make_graph([(1, 2), (2, 3)], unary={"G": [1]})
    with pytest.raises(GraphError, match="unary fact G would shadow the edge relation"):
        path_graph(3).with_unary({"G": [1]})


def test_ring_needs_three_nodes():
    for n in (0, 1, 2):
        with pytest.raises(GraphError):
            ring_graph(n)


def test_grid_needs_positive_sides():
    for rows, cols in ((0, 3), (3, 0), (-1, -1), (-3, -1)):
        with pytest.raises(GraphError, match="at least one row"):
            grid_graph(rows, cols)


def test_one_node_families():
    for g in (path_graph(1), star_graph(1), grid_graph(1, 1)):
        assert g.nodes == (1,)
        assert g.diameter == 0


def test_diameter_recomputed():
    assert path_graph(4).diameter == 3
    assert ring_graph(6).diameter == 3
    assert star_graph(5).diameter == 2


def test_family_diameters_match_the_bfs_diameter():
    # The family constructors give their closed-form diameter; make_graph
    # without one computes it by a BFS from every node.
    families = [path_graph(n) for n in range(1, 31)]
    families += [ring_graph(n) for n in range(3, 31)]
    families += [star_graph(n) for n in range(1, 31)]
    families += [
        grid_graph(rows, cols)
        for rows in range(1, 31)
        for cols in range(1, 31 // rows + 1)
    ]
    for g in families:
        bfs = make_graph(list(g.edges()), nodes=g.nodes)
        assert g.diameter == bfs.diameter, g.nodes


def _all_pairs_bfs(g):
    """Reference distances: a full BFS from every node."""
    table = {}
    for src in g.nodes:
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in g.adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        table[src] = dist
    return table


def _distance_test_graphs():
    for _name, g in exhaustive_graphs(5):
        yield g
    rng = random.Random(6)
    for n in (8, 9, 10, 11, 12):
        for _ in range(3):
            yield random_connected_graph(rng, n)


def test_radius_questions_agree_with_all_pairs_bfs():
    in_ball = parse_formula("x in N^1(y)")
    for g in _distance_test_graphs():
        ref = _all_pairs_bfs(g)
        assert g.diameter == max(d for row in ref.values() for d in row.values())
        for a in g.nodes:
            for k in range(4):
                ball = {b: d for b, d in ref[a].items() if d <= k}
                assert g.neighborhood_nodes(a, k) == tuple(sorted(ball))
        want = {(x, y) for y in g.nodes for x, d in ref[y].items() if d <= 1}
        assert eval_fo(g, in_ball).tuples == want  # columns (x, y)


def test_graph_memory_is_linear_in_size():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = ring_graph(600)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert g.n == 600
    assert held < 2_000_000


# ---------------------------------------------------------------- eval_fo


def test_has_neighbor_on_triangle():
    rel = eval_fo(triangle(), parse_formula("exists y. G(x,y)"))
    assert rel.tuples == {(1,), (2,), (3,)}


def test_edge_relation_on_path():
    rel = eval_fo(path_graph(3), parse_formula("G(x,y)"))
    assert rel.tuples == {(1, 2), (2, 1), (2, 3), (3, 2)}


def test_two_hop_formula_on_path():
    # Nodes all of whose neighbors have another neighbor: the endpoints.
    rel = eval_fo(path_graph(3), parse_formula(TWO_HOP_TEXT))
    assert rel.tuples == {(1,), (3,)}


def test_eval_fo_columns_follow_first_occurrence_order():
    # Both formulas hold for the edge from node 1; the second names y first.
    g = path_graph(3)
    assert eval_fo(g, parse_formula("x = 1 & G(x,y)")).tuples == {(1, 2)}
    assert eval_fo(g, parse_formula("G(y,x) & x = 1")).tuples == {(2, 1)}


def test_eval_fo_rejects_unknown_constant():
    for text in ("G(x,9)", "exists y in N^1(99). y = y"):
        with pytest.raises(OracleError, match="does not name a node"):
            eval_fo(path_graph(3), parse_formula(text))


# ---------------------------------------------------------------- eval_fp


def test_transitive_closure_on_path3():
    trace = eval_fp(path_graph(3), parse_fixpoint(TRANSITIVE_CLOSURE_TEXT))
    assert trace.final.tuples == {
        (a, b) for a in (1, 2, 3) for b in (1, 2, 3)
    }
    # I_0 empty, edges, everything, repeat.
    assert len(trace) == 4
    assert trace.stages[1].tuples == {(1, 2), (2, 1), (2, 3), (3, 2)}


def test_stages_are_inflationary():
    trace = eval_fp(ring_graph(5), parse_fixpoint(TRANSITIVE_CLOSURE_TEXT))
    for earlier, later in zip(trace.stages, trace.stages[1:]):
        assert earlier.tuples <= later.tuples


def test_routing_table_on_path3():
    trace = eval_fp(path_graph(3), parse_fixpoint(ROUTING_TABLE_TEXT))
    assert trace.final.tuples == {
        (1, 2, 2),
        (2, 1, 1),
        (2, 3, 3),
        (3, 2, 2),
        (1, 2, 3),
        (3, 2, 1),
    }


def test_spanning_tree_on_triangle():
    g = triangle().with_unary({"ReqNode": [1]})
    trace = eval_fp(g, parse_fixpoint(SPANNING_TREE_TEXT))
    assert trace.final.tuples == {(1, 2), (1, 3)}


def test_spanning_tree_on_path3():
    g = path_graph(3).with_unary({"ReqNode": [1]})
    trace = eval_fp(g, parse_fixpoint(SPANNING_TREE_TEXT))
    assert trace.final.tuples == {(1, 2), (2, 3)}


def test_spanning_tree_on_ring4_tie_break():
    g = ring_graph(4).with_unary({"ReqNode": [1]})
    trace = eval_fp(g, parse_fixpoint(SPANNING_TREE_TEXT))
    # Node 3 has candidate parents 2 and 4; the smaller id wins.
    assert trace.final.tuples == {(1, 2), (1, 4), (2, 3)}


def test_route_request_on_path3():
    g = path_graph(3).with_unary({"ReqNode": [1], "dest": [3]})
    trace = eval_fp(g, parse_fixpoint(ROUTE_REQUEST_TEXT))
    assert trace.final.tuples == {(1, 2, 3), (2, 3, 3)}


def test_next_hop_on_path3():
    g = path_graph(3).with_unary({"ReqNode": [1], "dest": [3]})
    rr = eval_fp(g, parse_fixpoint(ROUTE_REQUEST_TEXT)).final
    nh = eval_fp(
        g, parse_fixpoint(NEXT_HOP_TEXT), aux={"RouteReq": rr}
    ).final
    assert nh.tuples == {(2, 3, 3), (1, 2, 3)}


def test_route_discovery_on_ring4():
    g = ring_graph(4).with_unary({"ReqNode": [1], "dest": [3]})
    rr = eval_fp(g, parse_fixpoint(ROUTE_REQUEST_TEXT)).final
    assert rr.tuples == {(1, 2, 3), (1, 4, 3), (2, 3, 3), (4, 3, 3)}
    nh = eval_fp(
        g, parse_fixpoint(NEXT_HOP_TEXT), aux={"RouteReq": rr}
    ).final
    assert nh.tuples == {(2, 3, 3), (4, 3, 3), (1, 2, 3), (1, 4, 3)}


# ------------------------------------------------------------- relativized


def test_relativized_spanning_tree_on_path3():
    g = path_graph(3).with_unary({"ReqNode": [1]})
    q = relativize_fixpoint(parse_fixpoint(SPANNING_TREE_TEXT), 1)
    trace = eval_fp_loc(g, q)
    assert trace.final.tuples == {(1, 2), (2, 3)}


def test_relativized_route_request_radius_one_is_empty():
    # The radius-1 restriction guards the destination variable with
    # d in N^1(x); the destination sits at distance two from the requester,
    # so the seeding disjunct can never fire.
    g = ring_graph(4).with_unary({"ReqNode": [1], "dest": [3]})
    q = relativize_fixpoint(parse_fixpoint(ROUTE_REQUEST_TEXT), 1)
    assert eval_fp_loc(g, q).final.tuples == set()


def test_relativized_route_request_radius_two_covers_both_arcs():
    g = ring_graph(4).with_unary({"ReqNode": [1], "dest": [3]})
    q = relativize_fixpoint(parse_fixpoint(ROUTE_REQUEST_TEXT), 2)
    assert eval_fp_loc(g, q).final.tuples == {
        (1, 2, 3),
        (1, 4, 3),
        (2, 3, 3),
        (4, 3, 3),
    }


def test_relativized_equals_plain_when_radius_covers_diameter():
    g = path_graph(3).with_unary({"ReqNode": [1]})
    q = parse_fixpoint(SPANNING_TREE_TEXT)
    rq = relativize_fixpoint(q, 2)  # diameter of path-3
    assert eval_fp_loc(g, rq).final.tuples == eval_fp(g, q).final.tuples


def test_eval_fp_loc_requires_radius():
    with pytest.raises(OracleError, match="unbounded quantifier"):
        eval_fp_loc(path_graph(3), parse_fixpoint(TRANSITIVE_CLOSURE_TEXT))


@pytest.mark.parametrize(
    "text, reason",
    [
        (
            "mu T(x,y). G(x,y) | (exists z in N^1(x). (T(x,z) & G(z,y)))",
            r"\['y'\] lack a neighborhood guard",
        ),
        (
            "mu T(y,x). y in N^1(x)"
            " & (G(x,y) | (exists z in N^1(x). (T(x,z) & G(z,y))))",
            "the locality center must be the first declared variable",
        ),
    ],
)
def test_eval_fp_loc_names_why_a_query_is_not_radius_bounded(text, reason):
    with pytest.raises(OracleError, match=reason):
        eval_fp_loc(path_graph(3), parse_fixpoint(text))


def test_a_graph_degree_bound_is_its_largest_degree():
    assert star_graph(5).degree_bound == 4
    assert path_graph(4).degree_bound == 2
    assert make_graph([], nodes=[1]).degree_bound == 1


REACH_TEXT = "mu R(x). ReqNode(x) | (exists y. (R(y) & G(y,x)))"


def test_eval_fp_loc_over_balls_equals_eval_fp_stage_for_stage():
    """The ball oracle and the brute-force spec agree in every stage on the
    FP-loc engine's queries (TC, spanning tree and reachability at radius 1
    and 2) on every connected graph of up to 4 nodes and on seeded random
    graphs, with the requester fact on the smallest node."""
    queries = [
        relativize_fixpoint(parse_fixpoint(text), k)
        for text in (TRANSITIVE_CLOSURE_TEXT, SPANNING_TREE_TEXT, REACH_TEXT)
        for k in (1, 2)
    ]
    rng = random.Random(1995)
    graphs = [g for _, g in exhaustive_graphs(4)]
    graphs += [random_connected_graph(rng, n) for n in (5, 6, 7, 8)]
    for g in graphs:
        g = g.with_unary({"ReqNode": [min(g.nodes)]})
        for q in queries:
            assert eval_fp_loc(g, q) == eval_fp(g, q), (g.adj, q)


# ----------------------------------------------------------------- datalog


def test_datalog_transitive_closure_matches_fixpoint():
    program = parse_datalog(TRANSITIVE_CLOSURE_DATALOG)
    for g in (path_graph(4), ring_graph(5), star_graph(4)):
        got = eval_datalog(program, g).final
        want = eval_fp(g, parse_fixpoint(TRANSITIVE_CLOSURE_TEXT)).final.tuples
        assert {t for p, t in got if p == "T"} == want


def test_datalog_negation_win_positions():
    # Round one: every node has a neighbor outside the empty win set, so
    # every node enters win; the inflationary semantics keeps them there.
    program = parse_datalog(WIN_DATALOG)
    g = path_graph(4)
    got = eval_datalog(program, g).final
    assert {t for p, t in got if p == "win"} == {(1,), (2,), (3,), (4,)}


def test_datalog_unsafe_rule_rejected():
    program = parse_datalog("P(x,y) :- G(x,z).")
    with pytest.raises(OracleError):
        eval_datalog(program, path_graph(3))


# -------------------------------------------------------------- genericity


def test_eval_fo_commutes_with_isomorphism():
    g = path_graph(4)
    mapping = {1: 30, 2: 10, 3: 40, 4: 20}
    h = apply_isomorphism(g, mapping)
    f = parse_formula(TWO_HOP_TEXT)
    image = {(mapping[t[0]],) for t in eval_fo(g, f).tuples}
    assert image == eval_fo(h, f).tuples


def test_eval_fp_commutes_with_isomorphism():
    # Order-free queries are generic.  (Queries using >= on node ids, like
    # the spanning-tree tie-break, are intentionally not.)
    g = ring_graph(4)
    mapping = {1: 4, 2: 3, 3: 2, 4: 1}
    h = apply_isomorphism(g, mapping)
    q = parse_fixpoint(TRANSITIVE_CLOSURE_TEXT)
    image = {
        (mapping[a], mapping[b]) for a, b in eval_fp(g, q).final.tuples
    }
    assert image == eval_fp(h, q).final.tuples
