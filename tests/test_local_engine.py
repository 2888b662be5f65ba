"""Tests for the radius-bounded (local-fragment) distributed engines."""
from __future__ import annotations

import dataclasses
import random

import pytest

from netquery import local_engine, simnet
from netquery.engine_fo import EngineError
from netquery.fixtures import (
    SPANNING_TREE_TEXT,
    TRANSITIVE_CLOSURE_TEXT,
    exhaustive_graphs,
    fixture_graphs,
    random_connected_graph,
)
from netquery.local_engine import (
    FOLocEngine,
    FPLocEngine,
    check_locally_consistent,
    collect_topology,
    reduce_trace,
    resolve_trace,
    reverse_trace,
    run_qe_fo_loc,
    run_qe_fp_loc,
    verify_reconstruction,
)
from netquery.logic import (
    Atom,
    FixpointQuery,
    InNbhd,
    ParseError,
    Var,
    make_and,
    parse_fixpoint,
    parse_formula,
    relativize,
    relativize_fixpoint,
)
from netquery.oracle import (
    eval_fo,
    eval_fp_loc,
    grid_graph,
    make_graph,
    path_graph,
    ring_graph,
)
from netquery.simnet import ANONYMOUS, IdentityMode, make_network

DEG2 = "exists y in N^1(x). exists z in N^1(x). (G(x,y) & G(x,z) & y != z)"


def injective_labels(g):
    return {v: v + 100 for v in g.nodes}


def modes_for(g, *, with_order: bool):
    out = [("global", None), ("anonymous", ANONYMOUS)]
    if with_order:
        out = out[:1]
    out.insert(
        1,
        (
            "local-consistent",
            IdentityMode("local-consistent", 1, injective_labels(g)),
        ),
    )
    if with_order:
        return out
    return out


# --------------------------------------------------------------- trace algebra


def test_trace_algebra():
    assert reverse_trace((1, 2, 3, 4)) == (4, 3, 2, 1)
    assert reduce_trace(()) == ()
    # leaving on port 1, entering on 2, then bouncing straight back cancels
    assert reduce_trace((1, 2, 2, 1)) == ()
    assert reduce_trace((1, 2, 2, 1, 1, 2)) == (1, 2)
    assert reduce_trace((1, 2, 1, 2)) == (1, 2, 1, 2)
    with pytest.raises(EngineError):
        reverse_trace((1, 2, 3))


def test_resolve_trace_follows_ports():
    net = make_network(path_graph(3))
    p12 = net.port_to[1][2]
    p21 = net.port_to[2][1]
    p23 = net.port_to[2][3]
    p32 = net.port_to[3][2]
    assert resolve_trace(net, 1, ()) == 1
    assert resolve_trace(net, 1, (p12, p21)) == 2
    assert resolve_trace(net, 1, (p12, p21, p23, p32)) == 3
    with pytest.raises(EngineError):
        resolve_trace(net, 1, (p12, 0 if p21 else 1))


# ----------------------------------------------- reference collection examples


def test_collect_topology_path_center():
    # path 1-2-3 seen from the middle node at radius 1: the center class plus
    # one class per endpoint, edges only center-endpoint, no endpoint-endpoint
    net = make_network(path_graph(3))
    topo = collect_topology(net, 2, 1)
    assert len(topo.vertices) == 3
    assert len(topo.edges) == 2
    others = [c for c in topo.vertices if c != topo.center]
    assert len(others) == 2
    assert topo.has_edge(topo.center, others[0])
    assert topo.has_edge(topo.center, others[1])
    assert not topo.has_edge(others[0], others[1])
    assert {resolve_trace(net, 2, topo.rep(c)) for c in others} == {1, 3}


def test_collect_topology_triangle_sees_far_edge():
    # on a triangle the edge between the two neighbors is certified by a
    # four-port walk even though neither neighbor is the center
    net = make_network(make_graph([(1, 2), (2, 3), (1, 3)]))
    topo = collect_topology(net, 1, 1)
    assert len(topo.vertices) == 3
    assert len(topo.edges) == 3


def test_collect_topology_ring4_separates_neighbors():
    # on a 4-ring at radius 1 the two neighbors stay distinct classes and no
    # edge between them is certified (their common far node is out of range)
    net = make_network(ring_graph(4))
    topo = collect_topology(net, 1, 1)
    assert len(topo.vertices) == 3
    others = [c for c in topo.vertices if c != topo.center]
    assert len(others) == 2
    assert len(topo.edges) == 2
    assert not topo.has_edge(others[0], others[1])


def test_collect_topology_rejects_bad_inputs():
    net = make_network(path_graph(3))
    with pytest.raises(EngineError):
        collect_topology(net, 99, 1)
    with pytest.raises(EngineError):
        collect_topology(net, 1, 0)


# ------------------------------------------------------------- reconstruction


def test_reconstruction_exhaustive_small_graphs():
    cases = 0
    for _, g in exhaustive_graphs(5):
        net = make_network(g, port_seed=1)
        for a in sorted(g.nodes):
            for k in (1, 2):
                assert verify_reconstruction(net, a, k)
                cases += 1
    assert cases > 4000


def test_reconstruction_alternate_port_assignment():
    for _, g in exhaustive_graphs(4):
        net = make_network(g, port_seed=7)
        for a in sorted(g.nodes):
            assert verify_reconstruction(net, a, 2)


def test_reconstruction_random_graphs():
    for seed in (0, 1, 2):
        rng = random.Random(seed)
        for n in (8, 12):
            g = random_connected_graph(rng, n)
            net = make_network(g, port_seed=seed)
            for a in sorted(g.nodes):
                for k in (1, 2):
                    assert verify_reconstruction(net, a, k)


def test_reconstruction_rejects_misnamed_edges(monkeypatch):
    # Swapping two edges between the neighbor and far classes of anonymous
    # ring-5 leaves a 5-cycle around the center, so only the class names
    # show that the reconstruction is wrong.
    net = make_network(ring_graph(5), mode=ANONYMOUS)
    topo = collect_topology(net, 1, 2)
    assert {(1, 3), (2, 4)} <= topo.edges
    swapped = dataclasses.replace(
        topo, edges=topo.edges - {(1, 3), (2, 4)} | {(1, 4), (2, 3)}
    )
    assert verify_reconstruction(net, 1, 2)
    monkeypatch.setattr(
        local_engine, "collect_topology", lambda net, a, k: swapped
    )
    assert not verify_reconstruction(net, 1, 2)


def _norm_topology(t):
    return (
        t.classes,
        t.vertices,
        t.edges,
        t.center,
        dict(t.attrs),
        dict(t.labels),
    )


def test_protocol_topology_equals_reference():
    # what the message protocol assembles at each node is exactly the
    # reference construction computed directly on the network
    f = parse_formula("exists y in N^2(x). (y != x)")
    for _, g in exhaustive_graphs(4):
        for mode, seed in ((None, 0), (ANONYMOUS, 3)):
            net = (
                make_network(g, mode=mode, port_seed=seed)
                if mode
                else make_network(g, port_seed=seed)
            )
            eng = FOLocEngine(("x",), net.mode.kind)
            res, _ = simnet.run(
                net, eng, init={min(g.nodes): f}, round_cap=400
            )
            for a, rep in res.items():
                assert _norm_topology(rep.topology) == _norm_topology(
                    collect_topology(net, a, 2)
                )


# ------------------------------------------------------------------ FO engine


def test_fo_loc_degree_example_all_modes():
    g = path_graph(3)
    want = frozenset({(2,)})
    for _, mode in modes_for(g, with_order=False):
        net = make_network(g, mode=mode) if mode else make_network(g)
        rel, _ = run_qe_fo_loc(net, DEG2, 1)
        assert rel.tuples == want


FO_BATTERY = [
    (DEG2, False),
    ("forall y in N^2(x). (G(x,y) | y = x)", False),
    ("(y in N^2(x)) & (exists z in N^2(x). (G(x,z) & G(z,y)))", False),
    ("(exists y in N^1(x). (G(x,y) & Mark(y))) | Mark(x)", False),
    ("exists y in N^1(x). (G(x,y) & x >= y)", True),
]


def test_fo_loc_matches_oracle_on_fixture_graphs():
    from netquery.logic import free_vars

    for _, g in fixture_graphs():
        marks = [min(g.nodes)] + ([max(g.nodes)] if len(g.nodes) > 2 else [])
        gm = g.with_unary({"Mark": marks})
        for ftext, uses_order in FO_BATTERY:
            f = parse_formula(ftext)
            want = eval_fo(gm, f, free_vars(f))
            for _, mode in modes_for(g, with_order=uses_order):
                net = (
                    make_network(gm, mode=mode) if mode else make_network(gm)
                )
                got, _ = run_qe_fo_loc(net, f, min(g.nodes))
                assert got.tuples == want.tuples


def test_fo_loc_ring_metrics_size_independent():
    bits, msgs, steps = set(), set(), set()
    times = []
    for n in (8, 16, 32, 64):
        net = make_network(ring_graph(n), mode=ANONYMOUS)
        rel, m = run_qe_fo_loc(net, DEG2, 1)
        assert len(rel.tuples) == n
        bits.add(m.max_msg_bits)
        msgs.add(m.max_msgs_per_node)
        steps.add(m.max_in_steps_per_round)
        times.append(m.dist_time)
    assert len(bits) == 1
    assert len(msgs) == 1
    assert len(steps) == 1
    assert times == sorted(times) and times[-1] > times[0]


def test_fo_loc_seed_invariance():
    g = grid_graph(2, 3)
    rels = set()
    for port_seed in (0, 1, 5):
        for order_seed in (0, 2):
            net = make_network(g, port_seed=port_seed)
            rel, _ = run_qe_fo_loc(net, DEG2, 1, order_seed=order_seed)
            rels.add(rel.tuples)
    assert len(rels) == 1


def test_fo_loc_noninjective_labels():
    # a repeating label pattern that is still locally distinct at radius 1
    g = ring_graph(6)
    labels = {1: 1, 2: 2, 3: 3, 4: 1, 5: 2, 6: 3}
    net = make_network(g, mode=IdentityMode("local-consistent", 1, labels))
    rel, _ = run_qe_fo_loc(net, DEG2, 1)
    assert rel.tuples == frozenset({(v,) for v in g.nodes})


def test_check_locally_consistent_reexported():
    g = ring_graph(6)
    labels = {1: 1, 2: 2, 3: 3, 4: 1, 5: 2, 6: 3}
    assert check_locally_consistent(g, labels, 1)
    assert not check_locally_consistent(g, labels, 2)


def test_fo_loc_order_parameter():
    g = path_graph(4)
    net = make_network(g)
    f = "(y in N^2(x)) & (exists z in N^2(x). (G(x,z) & G(z,y)))"
    rel_xy, _ = run_qe_fo_loc(net, f, 1, order=("x", "y"))
    rel_yx, _ = run_qe_fo_loc(net, f, 1, order=("y", "x"))
    assert rel_yx.tuples == {(b, a) for a, b in rel_xy.tuples}
    with pytest.raises(EngineError):
        run_qe_fo_loc(net, f, 1, order=("x", "x"))
    with pytest.raises(EngineError):
        run_qe_fo_loc(net, f, 1, order=("x", "z"))


# ------------------------------------------------------------------ FP engine


def span_query(k: int) -> FixpointQuery:
    return relativize_fixpoint(parse_fixpoint(SPANNING_TREE_TEXT), k)


def tc_query(k: int) -> FixpointQuery:
    return relativize_fixpoint(parse_fixpoint(TRANSITIVE_CLOSURE_TEXT), k)


def test_fp_loc_spanning_tree_example():
    g = path_graph(3).with_unary({"ReqNode": [1]})
    net = make_network(g)
    rel, _ = run_qe_fp_loc(net, span_query(1), 1)
    assert rel.tuples == frozenset({(1, 2), (2, 3)})
    assert rel.tuples == eval_fp_loc(g, span_query(1)).stages[-1].tuples


def test_fp_loc_matches_oracle_on_fixture_graphs():
    queries = [
        (span_query(1), True),
        (span_query(2), True),
        (tc_query(1), False),
        (tc_query(2), False),
    ]
    for _, g in fixture_graphs():
        gu = g.with_unary({"ReqNode": [min(g.nodes)]})
        for q, uses_order in queries:
            want = eval_fp_loc(gu, q).stages[-1]
            for _, mode in modes_for(g, with_order=uses_order):
                net = (
                    make_network(gu, mode=mode) if mode else make_network(gu)
                )
                got, _ = run_qe_fp_loc(net, q, min(g.nodes))
                assert got.tuples == want.tuples


def test_fp_loc_anonymous_exhaustive():
    q = tc_query(1)
    for _, g in exhaustive_graphs(4):
        gu = g.with_unary({"ReqNode": [min(g.nodes)]})
        want = eval_fp_loc(gu, q).stages[-1]
        net = make_network(gu, mode=ANONYMOUS, port_seed=2)
        got, _ = run_qe_fp_loc(net, q, min(g.nodes))
        assert got.tuples == want.tuples


def _run_fp_reports(g, q, requester):
    net = make_network(g)
    eng = FPLocEngine(net.mode.kind)
    res, metrics = simnet.run(
        net, eng, init={requester: q}, round_cap=100_000
    )
    return net, res, metrics


def resolve_rows(net, a, rows):
    return {
        (a,) + tuple(resolve_trace(net, a, t) for t in row) for row in rows
    }


def test_fp_loc_window_history_matches_stages():
    # after every evaluation window the union of committed node tables holds
    # exactly the next centralized stage
    cases = [
        (path_graph(6), span_query(1)),
        (ring_graph(6), span_query(1)),
        (grid_graph(2, 3), span_query(1)),
        (path_graph(6), tc_query(1)),
        (grid_graph(2, 3), tc_query(2)),
    ]
    for g, q in cases:
        gu = g.with_unary({"ReqNode": [min(g.nodes)]})
        net, res, _ = _run_fp_reports(gu, q, min(g.nodes))
        trace = eval_fp_loc(gu, q)
        lengths = {len(rep.history) for rep in res.values()}
        assert len(lengths) == 1
        for w in range(lengths.pop()):
            got = set()
            for a, rep in res.items():
                got |= resolve_rows(net, a, rep.history[w])
            stage = trace.stages[min(w + 1, len(trace.stages) - 1)]
            assert got == set(stage.tuples)


def test_fp_loc_iteration_bound():
    # number of evaluation windows anyone runs is at most final size + 1
    for g in (path_graph(6), ring_graph(6), grid_graph(2, 3)):
        gu = g.with_unary({"ReqNode": [min(g.nodes)]})
        net, res, _ = _run_fp_reports(gu, span_query(1), min(g.nodes))
        final = set()
        for a, rep in res.items():
            final |= resolve_rows(net, a, rep.tuples)
        windows = 1 + max(
            max(rep.awake_windows, default=-1)
            for rep in res.values()
        )
        assert windows <= len(final) + 1


def test_fp_loc_iteration_bound_tight_on_path():
    gu = path_graph(6).with_unary({"ReqNode": [1]})
    net, res, _ = _run_fp_reports(gu, span_query(1), 1)
    windows = 1 + max(
        max(rep.awake_windows, default=-1) for rep in res.values()
    )
    assert windows == 6  # five rows derived one per window, then one idle


def test_fp_loc_ring_metrics_size_independent():
    q = tc_query(1)
    bits, msgs, steps = set(), set(), set()
    for n in (8, 16, 32):
        net = make_network(ring_graph(n), mode=ANONYMOUS)
        rel, m = run_qe_fp_loc(net, q, 1)
        assert len(rel.tuples) == 3 * n
        bits.add(m.max_msg_bits)
        msgs.add(m.max_msgs_per_node)
        steps.add(m.max_in_steps_per_round)
    assert len(bits) == 1
    assert len(msgs) == 1
    assert len(steps) == 1


def test_fp_loc_seed_invariance():
    g = grid_graph(2, 3).with_unary({"ReqNode": [1]})
    rels = set()
    for port_seed in (0, 1, 5):
        for order_seed in (0, 2):
            net = make_network(g, port_seed=port_seed)
            rel, _ = run_qe_fp_loc(net, span_query(1), 1, order_seed=order_seed)
            rels.add(rel.tuples)
    assert len(rels) == 1


# ------------------------------------------------------------------ rejection


def test_rejects_unbounded_quantifier():
    net = make_network(path_graph(3))
    with pytest.raises(EngineError, match="unbounded quantifier"):
        run_qe_fo_loc(net, "exists y. G(x,y)", 1)


def test_rejects_mixed_radii_and_centers():
    net = make_network(path_graph(3))
    with pytest.raises(EngineError, match="single locality radius"):
        run_qe_fo_loc(
            net, "exists y in N^1(x). exists z in N^2(x). G(y,z)", 1
        )
    with pytest.raises(EngineError, match="single locality radius"):
        run_qe_fo_loc(
            net,
            "(y in N^1(x)) & (exists z in N^1(y). G(y,z))",
            1,
        )


def test_rejects_constants():
    net = make_network(path_graph(3))
    with pytest.raises(EngineError, match="constants are not available"):
        run_qe_fo_loc(net, "exists y in N^1(x). (G(x,y) & y = 3)", 1)


def test_rejects_order_comparison_when_anonymous():
    net = make_network(path_graph(3), mode=ANONYMOUS)
    with pytest.raises(EngineError, match="anonymous"):
        run_qe_fo_loc(net, "exists y in N^1(x). (G(x,y) & x >= y)", 1)


def test_rejects_unguarded_free_variable():
    net = make_network(path_graph(3))
    with pytest.raises(EngineError, match="neighborhood guard"):
        run_qe_fo_loc(net, "exists z in N^1(x). (G(x,z) & G(z,y))", 1)


def test_rejects_wide_relation():
    net = make_network(path_graph(3))
    with pytest.raises(EngineError, match="not available"):
        run_qe_fo_loc(net, "exists y in N^1(x). Foo(x,y)", 1)


def test_rejects_zero_radius():
    net = make_network(path_graph(3))
    f = make_and(
        [InNbhd(Var("y"), 0, Var("x")), Atom("G", (Var("x"), Var("y")))]
    )
    with pytest.raises(EngineError, match="must be >= 1"):
        run_qe_fo_loc(net, f, 1)


def test_rejects_bad_requester():
    net = make_network(path_graph(3))
    with pytest.raises(EngineError, match="requester"):
        run_qe_fo_loc(net, DEG2, 99)
    with pytest.raises(EngineError, match="requester"):
        run_qe_fp_loc(net, span_query(1), 99)


def test_fp_rejects_query_without_radius():
    net = make_network(path_graph(3))
    with pytest.raises(EngineError, match="no locality radius"):
        run_qe_fp_loc(net, parse_fixpoint(TRANSITIVE_CLOSURE_TEXT), 1)


def test_fp_rejects_mismatched_radius():
    net = make_network(path_graph(3))
    mixed = parse_fixpoint(
        "mu T(x,y). y in N^2(x)"
        " & (G(x,y) | (exists z in N^1(x). (T(x,z) & G(z,y))))"
    )
    assert mixed.radius is None
    with pytest.raises(
        EngineError, match="no locality radius.*single locality radius"
    ):
        run_qe_fp_loc(net, mixed, 1)


def test_fp_says_why_a_query_has_no_radius():
    net = make_network(path_graph(3))
    unguarded = parse_fixpoint(
        "mu T(x,y). G(x,y) | (exists z in N^1(x). (T(x,z) & G(z,y)))"
    )
    with pytest.raises(EngineError, match=r"no locality radius.*\['y'\] lack"):
        run_qe_fp_loc(net, unguarded, 1)
    q = parse_fixpoint(TRANSITIVE_CLOSURE_TEXT)
    around_y = FixpointQuery(q.name, q.vars, relativize(q.body, "y", 1))
    with pytest.raises(
        EngineError, match="no locality radius.*first declared variable"
    ):
        run_qe_fp_loc(net, around_y, 1)


# The transitive closure at radius 1 with its guard written first: the same
# radius-bounded query as tc_query(1), whose guard relativize puts last.
GUARD_FIRST_TC = (
    "mu T(x,y). y in N^1(x)"
    " & (G(x,y) | (exists z in N^1(x). (T(x,z) & G(z,y))))"
)


def test_fp_loc_runs_guard_first_query():
    q = parse_fixpoint(GUARD_FIRST_TC)
    assert q.radius == 1
    for g in (ring_graph(6), grid_graph(2, 3)):
        rel, _ = run_qe_fp_loc(make_network(g, mode=ANONYMOUS), q, 1)
        assert rel.tuples == eval_fp_loc(g, q).final.tuples
        assert rel.tuples == eval_fp_loc(g, tc_query(1)).final.tuples


def test_query_text_is_read_once_per_run(monkeypatch):
    """Every node adopts the flooded text, but one run reads each distinct
    text once; the next run reads it afresh."""
    texts = []
    real = local_engine.parse_fixpoint
    monkeypatch.setattr(
        local_engine, "parse_fixpoint", lambda text: texts.append(text) or real(text)
    )
    q = relativize_fixpoint(parse_fixpoint(TRANSITIVE_CLOSURE_TEXT), 1)
    net = make_network(ring_graph(8), mode=ANONYMOUS)
    run_qe_fp_loc(net, q, 1)
    assert len(texts) == 1
    run_qe_fp_loc(net, q, 1)
    assert len(texts) == 2


@pytest.mark.parametrize("engine", [FOLocEngine, FPLocEngine])
def test_relay_text_is_printed_once_per_run(monkeypatch, engine):
    """Every node relays the query it adopted, but one run prints it once
    for the relay, besides the print of the injected query; the next run
    prints it afresh."""
    printed = []
    real = engine._print
    monkeypatch.setattr(
        engine, "_print", staticmethod(lambda q: printed.append(real(q)) or real(q))
    )
    g = ring_graph(8)
    net = make_network(g, mode=ANONYMOUS)
    for run in (1, 2):
        if engine is FPLocEngine:
            q = relativize_fixpoint(parse_fixpoint(TRANSITIVE_CLOSURE_TEXT), 1)
            rel, _ = run_qe_fp_loc(net, q, 1)
            assert rel.tuples == eval_fp_loc(g, q).final.tuples
        else:
            rel, _ = run_qe_fo_loc(net, DEG2, 1)
            assert rel.tuples == eval_fo(g, parse_formula(DEG2), ("x",)).tuples
        assert len(printed) == 2 * run
    assert printed[1] == printed[0]


@pytest.mark.parametrize(
    "engine,text,error",
    [
        (FPLocEngine("anonymous"), "mu T(x,y). G(x,y", ParseError),
        (FOLocEngine(("x",), "anonymous"), "exists y. G(x,y)", EngineError),
    ],
)
def test_unreadable_query_fails_at_every_node(engine, text, error):
    for nonce in (1, 2):
        state = engine._State(local_engine._Collector(nonce))
        with pytest.raises(error):
            engine._adopt(state, text)
    assert engine.reads == {}
