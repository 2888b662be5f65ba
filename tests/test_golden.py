"""Pinned simulated metrics and printed texts.

The printed texts travel on the wire as Q, FPQ and lq payloads, so their
exact bytes decide MSG-SIZE; the five simulated metrics below were measured
with default seeds and requester 1.  A refactor must leave both unchanged.
"""
from __future__ import annotations

import pytest

from fixture_data import (
    HAS_NEIGHBOR_TEXT,
    NEXT_HOP_TEXT,
    ROUTE_REQUEST_TEXT,
    ROUTING_TABLE_TEXT,
    SPANNING_TREE_TEXT,
    TWO_HOP_TEXT,
)
from netquery import rewriter
from netquery.engine_fo import run_qe_fo
from netquery.engine_fp import run_qe_fp
from netquery.fixtures import SAME_GENERATION_DATALOG, TRANSITIVE_CLOSURE_TEXT
from netquery.local_engine import run_qe_fo_loc, run_qe_fp_loc
from netquery.logic import (
    And,
    Atom,
    Exists,
    InNbhd,
    Not,
    Var,
    canonical_print,
    parse_fixpoint,
    parse_formula,
    print_fixpoint,
    print_formula,
    relativize,
    relativize_fixpoint,
    substitute,
)
from netquery.netlog import run_netlog
from netquery.oracle import grid_graph, path_graph, ring_graph
from netquery.simnet import ANONYMOUS, IdentityMode, make_network

DEG2 = "exists y in N^1(x). exists z in N^1(x). (G(x,y) & G(x,z) & y != z)"


def _five(metrics):
    return (
        metrics.dist_time,
        metrics.total_msgs,
        metrics.max_msgs_per_node,
        metrics.max_msg_bits,
        metrics.max_in_steps_per_round,
    )


def _tc_local():
    return relativize_fixpoint(parse_fixpoint(TRANSITIVE_CLOSURE_TEXT), 1)


def _grid2x3(labeled=False):
    """The 2x3 grid with ReqNode(1), under global ids or under
    1-locally-consistent labels v+100."""
    g = grid_graph(2, 3).with_unary({"ReqNode": [1]})
    if not labeled:
        return make_network(g)
    labels = {v: v + 100 for v in g.nodes}
    return make_network(g, mode=IdentityMode("local-consistent", 1, labels))


def _span_local():
    return relativize_fixpoint(parse_fixpoint(SPANNING_TREE_TEXT), 1)


def _netlog_sg():
    g = grid_graph(2, 2)
    program = rewriter.compile(SAME_GENERATION_DATALOG, g.diameter).program
    return run_netlog(program, make_network(g))


GOLDEN_METRICS = [
    (
        "fo-two-hop-path3",
        lambda: run_qe_fo(make_network(path_graph(3)), TWO_HOP_TEXT, 1),
        (9, 352, 176, 444, 152),
    ),
    (
        "fp-tc-path3",
        lambda: run_qe_fp(
            make_network(path_graph(3)), TRANSITIVE_CLOSURE_TEXT, 1
        ),
        (28, 1191, 596, 396, 109),
    ),
    (
        "foloc-deg2-grid3x3",
        lambda: run_qe_fo_loc(
            make_network(grid_graph(3, 3), mode=ANONYMOUS), DEG2, 1
        ),
        (8, 160, 32, 520, 37),
    ),
    (
        "fploc-tc-ring8",
        lambda: run_qe_fp_loc(
            make_network(ring_graph(8), mode=ANONYMOUS), _tc_local(), 1
        ),
        (13, 144, 18, 592, 20),
    ),
    ("netlog-sg-grid2x2", _netlog_sg, (30, 3616, 904, 17, 100)),
    # The local engines in the labeled modes: labels travel in the
    # collection replies and decide the order comparisons.
    (
        "fploc-span-grid2x3-global",
        lambda: run_qe_fp_loc(_grid2x3(), _span_local(), 1),
        (27, 615, 152, 1728, 292),
    ),
    (
        "fploc-span-grid2x3-labels",
        lambda: run_qe_fp_loc(_grid2x3(labeled=True), _span_local(), 1),
        (27, 615, 152, 1728, 292),
    ),
    (
        "foloc-order-grid2x3-labels",
        lambda: run_qe_fo_loc(
            _grid2x3(labeled=True),
            "exists y in N^1(x). (G(x,y) & x >= y)",
            1,
        ),
        (7, 82, 19, 288, 22),
    ),
    # The benchmark's fp-tc-path call and ROADMAP's FO two-hop baseline, at
    # full size: FOCore's instance linking is their hot path.
    (
        "fp-tc-path5",
        lambda: run_qe_fp(
            make_network(path_graph(5), port_seed=0),
            TRANSITIVE_CLOSURE_TEXT,
            1,
        ),
        (81, 14935, 3734, 398, 305),
    ),
    (
        "fo-two-hop-ring6",
        lambda: run_qe_fo(make_network(ring_graph(6)), TWO_HOP_TEXT, 1),
        (13, 6708, 1118, 446, 646),
    ),
    # Two quantifier leaves in one FOCore entry, one under And and one under
    # Not: each quantifier the evaluator meets must be matched to its leaf.
    (
        "fp-routing-path3",
        lambda: run_qe_fp(make_network(path_graph(3)), ROUTING_TABLE_TEXT, 1),
        (36, 3563, 1782, 756, 431),
    ),
    # Two free variables with the center second in the answer order.
    (
        "foloc-guarded-pair-grid2x3",
        lambda: run_qe_fo_loc(
            make_network(grid_graph(2, 3), mode=ANONYMOUS),
            "y in N^1(x) & G(x,y)",
            1,
        ),
        (7, 82, 19, 175, 22),
    ),
]


@pytest.mark.parametrize(
    "run, expected",
    [(run, expected) for _, run, expected in GOLDEN_METRICS],
    ids=[name for name, _, _ in GOLDEN_METRICS],
)
def test_golden_simulated_metrics(run, expected):
    _, metrics = run()
    assert _five(metrics) == expected


# (formula text, print_formula, canonical_print)
GOLDEN_FORMULAS = [
    (
        TWO_HOP_TEXT,
        "forall y. !G(x,y) | (exists z. G(y,z) & z != x)",
        "forall q1. !G(x,q1) | (exists q2. G(q1,q2) & q2 != x)",
    ),
    (HAS_NEIGHBOR_TEXT, "exists y. G(x,y)", "exists q1. G(x,q1)"),
]


@pytest.mark.parametrize("text, printed, canonical", GOLDEN_FORMULAS)
def test_golden_formula_texts(text, printed, canonical):
    f = parse_formula(text)
    assert print_formula(f) == printed
    assert canonical_print(f) == canonical


# (fixpoint, print_fixpoint, canonical_print of the body)
GOLDEN_FIXPOINTS = [
    (
        ROUTING_TABLE_TEXT,
        "mu T(x,h,d). G(x,h) & h = d | G(x,h) & (exists z. T(h,z,d) & x != z)"
        " & !(exists u. T(x,u,d))",
        "G(x,h) & h = d | G(x,h) & (exists q1. T(h,q1,d) & x != q1)"
        " & !(exists q2. T(x,q2,d))",
    ),
    (
        SPANNING_TREE_TEXT,
        "mu ST(x,y). G(x,y) & ReqNode(x) | !(exists x'. ST(x',y))"
        " & (exists w. ST(w,x) & w != y) & G(x,y)"
        " & (forall w'. forall x''. !(ST(w',x'') & G(x'',y)) | x'' >= x)",
        "G(x,y) & ReqNode(x) | !(exists q1. ST(q1,y))"
        " & (exists q2. ST(q2,x) & q2 != y) & G(x,y)"
        " & (forall q3. forall q4. !(ST(q3,q4) & G(q4,y)) | q4 >= x)",
    ),
    (
        TRANSITIVE_CLOSURE_TEXT,
        "mu T(x,y). G(x,y) | (exists z. T(x,z) & G(z,y))",
        "G(x,y) | (exists q1. T(x,q1) & G(q1,y))",
    ),
    (
        ROUTE_REQUEST_TEXT,
        "mu RouteReq(x,y,d). G(x,y) & ReqNode(x) & dest(d)"
        " | (exists w. RouteReq(w,x,d) & w != y) & G(x,y) & x != d"
        " & !(exists w'. RouteReq(w',y,d))",
        "G(x,y) & ReqNode(x) & dest(d)"
        " | (exists q1. RouteReq(q1,x,d) & q1 != y) & G(x,y) & x != d"
        " & !(exists q2. RouteReq(q2,y,d))",
    ),
    (
        NEXT_HOP_TEXT,
        "mu NextHop(x,y,d). RouteReq(x,d,d) & y = d"
        " | (exists z. NextHop(y,z,d)) & RouteReq(x,y,d)",
        "RouteReq(x,d,d) & y = d"
        " | (exists q1. NextHop(y,q1,d)) & RouteReq(x,y,d)",
    ),
]


@pytest.mark.parametrize("text, printed, canonical", GOLDEN_FIXPOINTS)
def test_golden_fixpoint_texts(text, printed, canonical):
    q = parse_fixpoint(text)
    assert print_fixpoint(q) == printed
    assert canonical_print(q.body) == canonical


def test_golden_relativized_fixpoint_text():
    q = _tc_local()
    assert q.radius == 1
    assert print_fixpoint(q) == (
        "mu T(x,y). (G(x,y) | (exists z in N^1(x). T(x,z) & G(z,y)))"
        " & y in N^1(x)"
    )
    assert canonical_print(q.body) == (
        "(G(x,y) | (exists q1 in N^1(x). T(x,q1) & G(q1,y))) & y in N^1(x)"
    )
    assert parse_fixpoint(print_fixpoint(q)).radius == 1


def test_golden_substitute_bounded_forall():
    f = parse_formula("forall y in N^1(x). (G(x,y) | y = x)")
    assert print_formula(f) == "forall y in N^1(x). G(x,y) | y = x"
    assert print_formula(substitute(f, "y", 2)) == "!2 in N^1(x) | G(x,2) | 2 = x"
    g = substitute(f, "x", 3)
    assert print_formula(g) == "forall y in N^1(3). G(3,y) | y = 3"
    assert canonical_print(g) == "forall q1 in N^1(3). G(3,q1) | q1 = 3"


def test_golden_relativize_keeps_nested_and():
    x, y, z = Var("x"), Var("y"), Var("z")
    inner = And(
        (
            Atom("P", (y,)),
            Exists("z", And((Atom("G", (y, z)), Not(Atom("G", (x, z)))))),
        )
    )
    out = relativize(And((Atom("G", (x, y)), inner)), "x", 2)
    assert out == And(
        (
            Atom("G", (x, y)),
            And(
                (
                    Atom("P", (y,)),
                    Exists(
                        "z",
                        And((Atom("G", (y, z)), Not(Atom("G", (x, z))))),
                        (x, 2),
                    ),
                )
            ),
            InNbhd(y, 2, x),
        )
    )
    assert print_formula(out) == (
        "G(x,y) & (P(y) & (exists z in N^2(x). G(y,z) & !G(x,z)))"
        " & y in N^2(x)"
    )
