"""Tests for the radius-bounded (local-fragment) distributed engines."""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
import sys
from types import SimpleNamespace

import pytest

from fixture_data import (
    HAS_NEIGHBOR_TEXT,
    SPANNING_TREE_TEXT,
    TWO_HOP_TEXT,
    apply_isomorphism,
    fixture_graphs,
    random_connected_graph,
)
from netquery import local_engine, simnet
from netquery.engine_fo import EngineError
from netquery.fixtures import TRANSITIVE_CLOSURE_TEXT, exhaustive_graphs
from netquery.local_engine import (
    FOLocEngine,
    FPLocEngine,
    reduce_trace,
    resolve_trace,
    reverse_trace,
    run_qe_fo_loc,
    run_qe_fp_loc,
)
from netquery.logic import (
    EDGE_PRED,
    And,
    Atom,
    BoolConst,
    Cmp,
    Exists,
    FixpointQuery,
    Forall,
    FormulaError,
    InNbhd,
    Not,
    Or,
    ParseError,
    Var,
    _UnionFind,
    free_vars,
    locality,
    make_and,
    parse_fixpoint,
    parse_formula,
    print_fixpoint,
    print_formula,
    relativize,
    relativize_fixpoint,
)
from netquery.oracle import (
    eval_fo,
    eval_fp_loc,
    grid_graph,
    holds,
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
    assert len(vertices(topo, 1)) == 3
    assert len(topo.edges) == 2
    others = [c for c in vertices(topo, 1) if c != CENTER]
    assert len(others) == 2
    assert has_edge(topo, CENTER, others[0])
    assert has_edge(topo, CENTER, others[1])
    assert not has_edge(topo, others[0], others[1])
    assert {resolve_trace(net, 2, topo.reps[c]) for c in others} == {1, 3}


def test_collect_topology_triangle_sees_far_edge():
    # on a triangle the edge between the two neighbors is certified by a
    # four-port walk even though neither neighbor is the center
    net = make_network(make_graph([(1, 2), (2, 3), (1, 3)]))
    topo = collect_topology(net, 1, 1)
    assert len(vertices(topo, 1)) == 3
    assert len(topo.edges) == 3


def test_collect_topology_ring4_separates_neighbors():
    # on a 4-ring at radius 1 the two neighbors stay distinct classes and no
    # edge between them is certified (their common far node is out of range)
    net = make_network(ring_graph(4))
    topo = collect_topology(net, 1, 1)
    assert len(vertices(topo, 1)) == 3
    others = [c for c in vertices(topo, 1) if c != CENTER]
    assert len(others) == 2
    assert len(topo.edges) == 2
    assert not has_edge(topo, others[0], others[1])


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
        sys.modules[__name__], "collect_topology", lambda net, a, k: swapped
    )
    assert not verify_reconstruction(net, 1, 2)


def _norm_topology(t):
    return (
        classes_of(t),
        t.reps,
        t.edges,
        t.class_of[()],
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
            eng = FOLocReporter(f)
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
    for _, g in fixture_graphs():
        marks = [min(g.nodes)] + ([max(g.nodes)] if len(g.nodes) > 2 else [])
        gm = g.with_unary({"Mark": marks})
        for ftext, uses_order in FO_BATTERY:
            f = parse_formula(ftext)
            want = eval_fo(gm, f)
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


def test_fo_loc_seed_invariance(permuted_inboxes):
    g = grid_graph(2, 3)
    rels = set()
    for port_seed in (0, 1, 5):
        for order_seed in (0, 2):
            net = make_network(g, port_seed=port_seed)
            with permuted_inboxes(FOLocEngine, order_seed) as moved:
                rel, _ = run_qe_fo_loc(net, DEG2, 1)
            assert any(moved)
            rels.add(rel.tuples)
    assert len(rels) == 1


def test_fo_loc_noninjective_labels():
    # a repeating label pattern that is still locally distinct at radius 1
    g = ring_graph(6)
    labels = {1: 1, 2: 2, 3: 3, 4: 1, 5: 2, 6: 3}
    net = make_network(g, mode=IdentityMode("local-consistent", 1, labels))
    rel, _ = run_qe_fo_loc(net, DEG2, 1)
    assert rel.tuples == frozenset({(v,) for v in g.nodes})


def test_fo_loc_columns_follow_first_occurrence_order():
    # The same conjuncts in the other order name y first, so the columns swap.
    net = make_network(path_graph(4).with_unary({"Mark": [1]}))
    body = "exists z in N^2(x). (G(x,z) & G(z,y) & Mark(y))"
    rel_xy, _ = run_qe_fo_loc(net, f"({body}) & (y in N^2(x))", 1)
    rel_yx, _ = run_qe_fo_loc(net, f"(y in N^2(x)) & ({body})", 1)
    assert rel_xy.tuples == {(1, 1), (3, 1)}
    assert rel_yx.tuples == {(1, 1), (1, 3)}


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


@pytest.mark.parametrize("mode", [None, ANONYMOUS], ids=["global", "anonymous"])
@pytest.mark.parametrize("marked", [[1], []], ids=["marked", "unmarked"])
def test_one_node_network(mode, marked):
    """A node without ports: its collection comes home in the step that
    launches it, so each local engine answers without sending a message."""
    g = make_graph([], nodes=[1], unary={"Mark": marked})
    net = make_network(g, mode=mode) if mode else make_network(g)
    f = parse_formula("Mark(x) & !(exists y in N^1(x). G(x,y))")
    q = parse_fixpoint("mu T(x). Mark(x) | exists y in N^1(x). (G(x,y) & T(y))")
    for got, want in (
        (run_qe_fo_loc(net, f, 1), eval_fo(g, f)),
        (run_qe_fp_loc(net, q, 1), eval_fp_loc(g, q).final),
    ):
        rel, metrics = got
        assert rel.tuples == want.tuples == frozenset((a,) for a in marked)
        assert metrics.total_msgs == 0
        assert metrics.dist_time == 1


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
    eng = FPLocReporter(q)
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


def test_fp_loc_seed_invariance(permuted_inboxes):
    g = grid_graph(2, 3).with_unary({"ReqNode": [1]})
    rels = set()
    for port_seed in (0, 1, 5):
        for order_seed in (0, 2):
            net = make_network(g, port_seed=port_seed)
            with permuted_inboxes(FPLocEngine, order_seed) as moved:
                rel, _ = run_qe_fp_loc(net, span_query(1), 1)
            assert any(moved)
            rels.add(rel.tuples)
    assert len(rels) == 1


# ------------------------------------------------------------- isomorphism


def _permuted_network(net, perm):
    """`net` relabeled by `perm`, with every port number, input fact and
    label carried to the image node."""
    mode = net.mode
    if mode.labels is not None:
        mode = dataclasses.replace(
            mode, labels={perm[a]: lab for a, lab in mode.labels.items()}
        )
    return simnet.Network(
        apply_isomorphism(net.graph, perm),
        {perm[a]: tuple(perm[b] for b in bs) for a, bs in net.ports.items()},
        {
            perm[a]: {perm[b]: p for b, p in to.items()}
            for a, to in net.port_to.items()
        },
        mode,
        net.enc,
    )


def test_local_reports_are_invariant_under_isomorphism(monkeypatch):
    """Relabel the nodes by a seeded permutation, carrying ports, facts,
    labels and nonces along: in the anonymous and labeled modes every
    node's FO-loc and FP-loc report equals its image's, and so do the
    simulated metrics.  Nothing a node computes depends on the
    simulator's node numbers."""
    real_nonce = simnet._nonce
    compared = 0
    for seed, g in enumerate((ring_graph(7), grid_graph(3, 3), path_graph(5))):
        g = g.with_unary({"Mark": [1, 2]})
        nodes = sorted(g.nodes)
        images = random.Random(seed).sample(nodes, len(nodes))
        perm = dict(zip(nodes, images))
        inverse = {b: a for a, b in perm.items()}
        for mode in (
            ANONYMOUS, IdentityMode("local-consistent", 1, injective_labels(g))
        ):
            net = make_network(g, mode, port_seed=seed)
            image = _permuted_network(net, perm)
            for engine, query in (
                (FOLocReporter(parse_formula(DEG2)), parse_formula(DEG2)),
                (FPLocReporter(tc_query(1)), tc_query(1)),
            ):
                monkeypatch.setattr(simnet, "_nonce", real_nonce)
                want, want_m = simnet.run(net, engine, {1: query}, round_cap=400)
                monkeypatch.setattr(
                    simnet, "_nonce", lambda a: real_nonce(inverse[a])
                )
                got, got_m = simnet.run(
                    image, engine, {perm[1]: query}, round_cap=400
                )
                for a in nodes:
                    assert got[perm[a]] == want[a], (mode.kind, a)
                    assert len(vertices(want[a].topology, 1)) > 1
                    compared += 1
                assert got_m == dataclasses.replace(
                    want_m,
                    msgs_per_node={
                        perm[a]: m for a, m in want_m.msgs_per_node.items()
                    },
                )
    assert compared == 84

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


def test_an_engine_without_a_mode_compares_only_labeled_nodes():
    """The engines take no identity mode: run directly, FO-loc evaluates
    an order comparison where nodes carry labels and raises EngineError on
    an anonymous network, at the node that compares."""
    g = path_graph(4)
    f = parse_formula("exists y in N^1(x). (G(x,y) & x >= y)")
    labeled = make_network(
        g, IdentityMode("local-consistent", 1, injective_labels(g))
    )
    res, _ = simnet.run(labeled, FOLocEngine(f), {1: f}, round_cap=400)
    got = {(a,) for a, rows in res.items() if rows}
    assert got == eval_fo(g, f).tuples == {(2,), (3,), (4,)}
    anonymous = make_network(g, ANONYMOUS)
    with pytest.raises(EngineError, match="unlabeled"):
        simnet.run(anonymous, FOLocEngine(f), {1: f}, round_cap=400)


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
    with pytest.raises(FormulaError, match="single locality radius"):
        locality(mixed)
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
    assert locality(q) == ("x", 1)
    for g in (ring_graph(6), grid_graph(2, 3)):
        rel, _ = run_qe_fp_loc(make_network(g, mode=ANONYMOUS), q, 1)
        assert rel.tuples == eval_fp_loc(g, q).final.tuples
        assert rel.tuples == eval_fp_loc(g, tc_query(1)).final.tuples


@pytest.mark.parametrize("engine", [FOLocEngine, FPLocEngine])
def test_relay_text_is_printed_once_per_run(monkeypatch, engine):
    """Every node relays the query the engine read, but one run prints it
    once, when the engine is built, and every relay carries that text; the
    next run prints it afresh."""
    name = "print_formula" if engine is FOLocEngine else "print_fixpoint"
    real_print, real_broadcast = getattr(local_engine, name), local_engine.broadcast
    printed, relayed = [], []

    def counted_print(q):
        printed.append(real_print(q))
        return printed[-1]

    def watched_broadcast(ctx, payload):
        if payload[0] == "lq":
            relayed.append(payload[1])
        return real_broadcast(ctx, payload)

    monkeypatch.setattr(local_engine, name, counted_print)
    monkeypatch.setattr(local_engine, "broadcast", watched_broadcast)
    g = ring_graph(8)
    net = make_network(g, mode=ANONYMOUS)
    for run in (1, 2):
        relayed.clear()
        if engine is FPLocEngine:
            q = relativize_fixpoint(parse_fixpoint(TRANSITIVE_CLOSURE_TEXT), 1)
            rel, _ = run_qe_fp_loc(net, q, 1)
            assert rel.tuples == eval_fp_loc(g, q).final.tuples
        else:
            rel, _ = run_qe_fo_loc(net, DEG2, 1)
            assert rel.tuples == eval_fo(g, parse_formula(DEG2)).tuples
        assert len(printed) == run
        assert len(relayed) == len(g.nodes) and set(relayed) == {printed[-1]}
    assert printed[1] == printed[0]


@pytest.mark.parametrize(
    "engine,text,error",
    [
        ((FPLocEngine, run_qe_fp_loc), "mu T(x,y). G(x,y", ParseError),
        ((FOLocEngine, run_qe_fo_loc), "exists y. G(x,y)", EngineError),
    ],
)
def test_unreadable_query_fails_at_every_node(monkeypatch, engine, text, error):
    """A query text that cannot be read, or read as a local query, fails
    whichever node requests it, every time, before an engine is built and
    so before any node steps: no failed read is kept."""
    engine, driver = engine
    built = []
    real_init = engine.__init__
    monkeypatch.setattr(
        engine, "__init__", lambda self, q: built.append(q) or real_init(self, q)
    )
    g = path_graph(4)
    net = make_network(g, ANONYMOUS)
    for requester in sorted(g.nodes):
        with pytest.raises(error):
            driver(net, text, requester)
    assert built == []


def test_an_engine_is_built_only_for_a_query_it_can_run():
    """A local engine reads its query once, when it is built, so a query
    with no locality radius fails there, before any node steps."""
    with pytest.raises(EngineError, match="radius"):
        FOLocEngine(parse_formula("exists y. G(x,y)"))
    with pytest.raises(EngineError, match="no locality radius"):
        FPLocEngine(parse_fixpoint(TRANSITIVE_CLOSURE_TEXT))


# ------------------------------------------------------ message-level errors


def _launched(engine, state, ctx):
    """The node hears the run's query and launches its own wave, so it
    waits for root replies on both its ports, keyed by its own nonce."""
    engine.step(state, ctx, 1, ((("lq", engine.text), 1),))
    assert set(state.collector.pending) == {(ctx.nonce, ())}


# name -> (engine, one (payload, arrival port) pair, steps before it,
# message); every message arrives in round 2 at the middle node of an
# anonymous path of 3.  The foreign root reply is a root reply of node 1's
# wave arriving on a port the middle node's own wave waits on.
MESSAGE_ERRORS = {
    "foreign-query-fo-loc": (
        FOLocEngine, (("lq", "G(x,x)"), 1), None, "is not the run's query"
    ),
    "foreign-query-fp-loc": (
        FPLocEngine, (("lq", "G(x,x)"), 1), None, "is not the run's query"
    ),
    "unknown-tag-fo-loc": (FOLocEngine, (("Z",), 1), None, "unexpected message tag"),
    "unknown-tag-fp-loc": (FPLocEngine, (("Z",), 1), None, "unexpected message tag"),
    "odd-trace": (
        FOLocEngine, (("C", 99, 1, (1, 2)), 1), None, "malformed collection trace"
    ),
    "unforwarded-reply": (
        FOLocEngine, (("R", 99, (1, 1), ()), 1), None,
        "reply for a walk that was never forwarded",
    ),
    "foreign-root-reply": (
        FOLocEngine, (("R", simnet._nonce(1), (1, 1), ()), 1), _launched,
        "reply for a walk that was never forwarded",
    ),
    "stray-ask": (
        FPLocEngine, (("A", (1, 2), 2, ()), 1), None,
        "routed query strayed from its walk",
    ),
    "stray-answer": (
        FPLocEngine, (("B", (1, 2), 2, (2, 1), (), True), 1), None,
        "routed answer strayed from its walk",
    ),
    "ask-before-table": (
        FPLocEngine, (("A", (1, 2), 2, ((),)), 2), None,
        "table query arrived before any table exists",
    ),
}


@pytest.mark.parametrize("case", sorted(MESSAGE_ERRORS))
def test_malformed_messages_raise(case):
    """Each message a local node cannot serve raises EngineError with its
    own reason, in the step that receives it."""
    engine, delivery, craft, message = MESSAGE_ERRORS[case]
    engine = engine(parse_formula(DEG2) if engine is FOLocEngine else tc_query(1))
    ctx = simnet._context_for(make_network(path_graph(3), ANONYMOUS), 2)
    state = engine.start(ctx)
    if craft is not None:
        craft(engine, state, ctx)
    with pytest.raises(EngineError, match=message):
        engine.step(state, ctx, 2, (delivery,))


def test_an_unanswered_table_query_raises_when_its_window_closes():
    """A node whose table queries get no answer within the window cannot
    decide its remote table atoms, and raises when it finalizes."""

    class DropsAnswers(FPLocEngine):
        def _serve(self, state, ctx, payload, port, out):
            if payload[0] == "B":
                return 0
            return super()._serve(state, ctx, payload, port, out)

    q = parse_fixpoint("mu T(x). Mark(x) | exists y in N^1(x). (G(x,y) & T(y))")
    net = make_network(path_graph(3).with_unary({"Mark": [1]}), ANONYMOUS)
    rel, _ = run_qe_fp_loc(net, q, 1)
    assert rel.tuples == {(1,), (2,), (3,)}
    with pytest.raises(EngineError, match="went unanswered within its window"):
        simnet.run(net, DropsAnswers(q), {1: q}, round_cap=400)


# ------------------------------------------------------- pinned node steps

LABELED_ORDER = "(exists y in N^1(x). (G(x,y) & x >= y)) | Mark(x)"
# Reachability of a mark: the table atom T(y) is held by a neighbour of the
# centre, so every window asks (A) and answers (B) over routed walks.
REACH = "mu T(x). Mark(x) | exists y in N^1(x). (G(x,y) & T(y))"


def _local_step_digest(case, seed, order_free=False):
    """sha256 over (round, sends, steps, quiescent, wake_at) of every node
    step of one local-engine run, in call order; with `order_free` each
    step's sends are sorted by their repr first."""
    digest = hashlib.sha256()
    if case == "anonymous-grid-3x3":
        engine = FOLocEngine
        net = make_network(grid_graph(3, 3), mode=ANONYMOUS, port_seed=seed)
        call = lambda: run_qe_fo_loc(net, DEG2, 1)
    elif case == "anonymous-ring-8":
        engine = FPLocEngine
        net = make_network(ring_graph(8), mode=ANONYMOUS, port_seed=seed)
        call = lambda: run_qe_fp_loc(net, tc_query(1), 1)
    elif case == "anonymous-path-5-reach":
        engine = FPLocEngine
        g = path_graph(5).with_unary({"Mark": [1]})
        net = make_network(g, mode=ANONYMOUS, port_seed=seed)
        call = lambda: run_qe_fp_loc(net, REACH, 1)
    else:
        g = grid_graph(2, 3).with_unary({"Mark": [1, 6]})
        mode = IdentityMode("local-consistent", 1, injective_labels(g))
        net = make_network(g, mode=mode, port_seed=seed)
        if case == "labeled-grid-2x3-reach":
            engine = FPLocEngine
            call = lambda: run_qe_fp_loc(net, REACH, 1)
        else:
            engine = FOLocEngine
            call = lambda: run_qe_fo_loc(net, LABELED_ORDER, 1)
    real = engine.step

    def recording(self, state, ctx, round_no, inbox):
        res = real(self, state, ctx, round_no, inbox)
        sends = tuple(sorted(res.sends, key=repr)) if order_free else res.sends
        digest.update(
            repr(
                (round_no, sends, res.steps, res.quiescent, res.wake_at)
            ).encode()
        )
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "step", recording)
        call()
    return digest.hexdigest()


# (case, port seed) -> (ordered, order-free) step digest, with the nonces of
# `simnet._nonce`
LOCAL_STEP_PINS = {
    ("anonymous-grid-3x3", 0): (
        "a6c506df4791a2307f9dffed252e7009227f7c9c77cb7a89a93a3013d7b00ee4",
        "2488b4272424944e21f1d1dd495fca85e97cfbdc5d7d5a81e10dd5250bda17b0",
    ),
    ("anonymous-grid-3x3", 1): (
        "6a305694b0b7ba63090210ebcfa70ead1e48a245ec872f13307c7fe2df14ff59",
        "5dd7b6dc8a4d57f200193ffdea7df96244c5420ed5c65c561421678d174f8b8d",
    ),
    ("anonymous-ring-8", 0): (
        "7e41b61eaf44ebfe0bda4383449f846f991bd713c567a575481d2cf4c7878e80",
        "1e99d6bc061a187ec834332a664c4027766e1708fc4a9a77a9b5371ff48af0c0",
    ),
    ("anonymous-ring-8", 1): (
        "8ff7eab2ca2422a69d4a32c64aefb73af9804a79e054aaa1d387c4f7e9514416",
        "265c027de7af50a4b0a6016109f76a7de1fa6e9c9eb0b64bdad33ddf2d637d0a",
    ),
    ("labeled-grid-2x3", 0): (
        "2d44083ec09c172f0c0957739e5ba1a8074f495b980014a3c45a9a10d4125a9e",
        "1bf8c7e6352de07f9eb886eb22e47de9b2168311df4fd2425a7490fb5ea8c167",
    ),
    ("labeled-grid-2x3", 1): (
        "364cb7c9e397e401430bbd0133f39c13b63624aa2d1e9300d59433c37a359ea1",
        "5f287ce5604bb6788d031867b8b2ff79387f41c972363ea4c8d55327b5024ff0",
    ),
    ("anonymous-path-5-reach", 0): (
        "3551d00c43a688fe1082ef985ae9e156f459703ccb24eace948a08f774f4fad6",
        "414e737639c6b7060b49711b3a1a1d07900eaf5442cd10288837259216d85b47",
    ),
    ("anonymous-path-5-reach", 1): (
        "e4c67b30085362efae83a9798dea754281f36e1242cb692c60ea6b91845f131d",
        "193e4085d8ead0c721fc88e59877c8bffb23b6b89307d8745d8f08fb00f9a349",
    ),
    ("labeled-grid-2x3-reach", 0): (
        "953a59f6f8a7b3eee7f380b234cb0af6e3d18ca5bc65db271a61ac6b81f27cac",
        "e482a20f8f1d6c6feb0e24de0cadeecec29407c985fe8dc55116f3a90208a103",
    ),
    ("labeled-grid-2x3-reach", 1): (
        "9348a84c5c084f5ee1e519b0ec67335391a111c4a756c59cced19bfce4fec5d8",
        "088952e6b509f466e81d495098a2e199fc16e84f55aca99c1a05f426d9add87d",
    ),
}


def _seeded_nonce(a):
    """The nonce map the simulator used before its fixed bijection: one
    seeded `random.Random` per node."""
    return random.Random(1_000_003 * a + 7).getrandbits(simnet._NONCE_BITS)


def _seeded_local_step_digest(case, seed, order_free=False):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simnet, "_nonce", _seeded_nonce)
        return _local_step_digest(case, seed, order_free)


@pytest.mark.parametrize("case,seed,digest", [
    ("anonymous-grid-3x3", 0,
     "a2ee2331bc9b464aafa8fe53793bf949581cf0aa4db3d084d914d0e1459f939c"),
    ("anonymous-grid-3x3", 1,
     "6005d349fde9f858f63607a030b73ee5d43bb96624b41c73df6b1be7f6c9f5a4"),
    ("anonymous-ring-8", 0,
     "99cbab8625a39b9c651b2492b895d9b4fd6e8a9d05e450300413276d730bf729"),
    ("anonymous-ring-8", 1,
     "d4ffc8c62fffdf9a0945c32a582a00f4c76fdadb02408d750ff739c59e59c40e"),
    ("labeled-grid-2x3", 0,
     "2ebf129ba342a8581d539d166032a6a63d58a6b025778900d68a24e9a65a5a7b"),
    ("labeled-grid-2x3", 1,
     "a54eb94f96f2926a7ded12c195c61f978c1b9a44e3513c15fb90863f6f914590"),
    ("anonymous-path-5-reach", 0,
     "937403f6a2a85a6721f8b83e0d5e9dc92bdb9c078bf4ab8e4f4f78d4a7c982e6"),
    ("anonymous-path-5-reach", 1,
     "505d769667e2f403ec6683409bf39407a626aad31159ef8469a8ff30d5531b0c"),
    ("labeled-grid-2x3-reach", 0,
     "c9e6fbbb7e27a07e952e8097b580191254a9621d2751a77b9d3a969a29f8c541"),
    ("labeled-grid-2x3-reach", 1,
     "c4ff35b0b1627388770ab3fbe589166f6402313b052714d87966faec8619d438"),
])
def test_local_node_steps_send_the_pinned_payloads(case, seed, digest):
    """Every node step of FO-loc and FP-loc sends the pinned payloads in the
    pinned order and reports the pinned work, quiescence and wake-up, at
    port seeds 0 and 1; test_simnet checks that permuted inboxes leave
    these digests as they are.

    `digest` is the pin taken while nonces came from one seeded
    `random.Random` per node: with the sorted-reply collector and the
    sorted inbox, and for the two reachability cases, whose windows ask and
    answer over routed walks, before FP-loc built each node's window plan
    once.  Every collection message carries its wave's nonce, so the
    bijective nonces moved every digest (`LOCAL_STEP_PINS`); put back the
    seeded map and the old pin holds, so the move renames the waves and
    changes nothing else."""
    assert _local_step_digest(case, seed) == LOCAL_STEP_PINS[case, seed][0]
    assert _seeded_local_step_digest(case, seed) == digest


@pytest.mark.parametrize("case,seed,digest", [
    ("anonymous-grid-3x3", 0,
     "343f4efd7f780828e9970af64460cd4f579489ac0708fab0310db6ef919d052e"),
    ("anonymous-grid-3x3", 1,
     "7d068028a9c249d8ce5d55a1df96e7bf8dd4a1f151ecba9bfbe0d3d19c2f207a"),
    ("anonymous-ring-8", 0,
     "2f98227298282abc74c8d1f391e8e97616a59d4c0ced7e74e111a236936795bd"),
    ("anonymous-ring-8", 1,
     "fb4db647b388cde5014c8ed265c12ec0a4c69453bef8f6a6c67093dd13d8c03c"),
    ("labeled-grid-2x3", 0,
     "f46e0619bd8080c08d21b66838e00b7c9d8596e1d070ae01ead93938cb0c839d"),
    ("labeled-grid-2x3", 1,
     "7fba6c83332a6c05837a6b38a3f25f206d26aa5087fb209953772487409a5844"),
    ("anonymous-path-5-reach", 0,
     "70dad9ec9781104e214aaedf702bde0bb21dcff1cbfb90b757d88199ababacf1"),
    ("anonymous-path-5-reach", 1,
     "bc422a4441a8c7e036fed7a451dc37217bae6dc6bb0ca18bd6b544cc7545e1af"),
    ("labeled-grid-2x3-reach", 0,
     "f107859c69b05e246213b8901a26fbe2067241722e22499fc71b4d570aaeac5c"),
    ("labeled-grid-2x3-reach", 1,
     "bdf5d065cf54f41d2b2c8666c7482002a108cd9d226836dd91a4979df55379f4"),
])
def test_local_node_steps_send_the_pinned_payload_sets(case, seed, digest):
    """Every node step sends the pinned payloads, in whatever order within
    the step, with the pinned work, quiescence and wake-up.  `digest` was
    taken while the simulator still shuffled the local engines' in-buffers
    and drew nonces from a seeded `random.Random` per node; it held when the
    engines began to serve their inbox sorted, and holds with the seeded
    nonces put back.  The payloads carry the nonces, so the bijective ones
    moved these digests too (`LOCAL_STEP_PINS`)."""
    assert (
        _local_step_digest(case, seed, order_free=True)
        == LOCAL_STEP_PINS[case, seed][1]
    )
    assert _seeded_local_step_digest(case, seed, order_free=True) == digest


# ------------------------------------------ centralized reference builds


def _walk_traces(net, start, radius):
    """Every even trace of at most radius+1 steps from `start` that never
    immediately reverses, mapped to its endpoint."""
    out = {(): start}
    frontier = [((), start)]
    for _ in range(radius + 1):
        nxt = []
        for trace, u in frontier:
            entered = trace[-1] if trace else None
            for p in range(1, net.degree(u) + 1):
                if p == entered:
                    continue
                v = net.neighbor_on_port(u, p)
                t2 = trace + (p, net.port_to[v][u])
                out[t2] = v
                nxt.append((t2, v))
        frontier = nxt
    return out


def _central_entries(net, start, radius):
    """The collection rows of every walk from `start`, keyed by trace, made
    directly on the network rather than by the protocol."""
    walks = _walk_traces(net, start, radius)
    by_end = {}
    for t, u in walks.items():
        if t:
            by_end.setdefault(u, set()).add(t)
    g = net.graph
    out = {}
    for t, u in walks.items():
        attrs = tuple(sorted(p for p, m in g.unary.items() if u in m))
        out[t] = (
            t,
            tuple(sorted(by_end.get(u, ()))),
            attrs,
            net.mode.label_of(u),
        )
    return out


def collect_topology(net, a, k):
    """Reference construction of the trace-quotient view of N^k(a): what the
    distributed collection at `a` produces, computed directly.  The centre
    is class CENTER."""
    if a not in net.graph.adj:
        raise EngineError(f"{a} is not a node")
    if k < 1:
        raise EngineError("collection radius must be >= 1")
    topo = local_engine._topology_from_entries(k, _central_entries(net, a, k))
    assert topo.class_of[()] == CENTER
    return topo


CENTER = local_engine._CENTER


def has_edge(topo, a, b):
    """Whether the reconstruction certifies an edge between classes a, b."""
    return a != b and (min(a, b), max(a, b)) in topo.edges


def vertices(topo, k):
    """The classes within radius k: a prefix, as the representatives are in
    length order."""
    return tuple(c for c, r in enumerate(topo.reps) if len(r) <= 2 * k)


def classes_of(topo):
    """The traces of each class, in class order, rebuilt from `class_of`."""
    classes = [set() for _ in topo.reps]
    for t, c in topo.class_of.items():
        classes[c].add(t)
    return tuple(map(frozenset, classes))


class FOLocReporter(FOLocEngine):
    """FO-loc whose node result also carries the topology the collection
    handed over, kept in the reporter's own node state."""

    class _State(FOLocEngine._State):
        __slots__ = ("topology",)

        def __init__(self, collector):
            super().__init__(collector)
            self.topology = None

    def _home(self, state):
        home = super()._home(state)
        state.topology = home[0]
        return home

    def collect(self, state, ctx):
        rows = super().collect(state, ctx)
        return SimpleNamespace(topology=state.topology, rows=rows)


class FPLocReporter(FPLocEngine):
    """FP-loc whose node result also carries the node's topology, its table
    after every window and the windows it was awake in, recorded in the
    reporter's own node state."""

    class _State(FPLocEngine._State):
        __slots__ = ("history", "awake_windows")

        def __init__(self, collector):
            super().__init__(collector)
            self.history = []
            self.awake_windows = []

    def _cross_boundary(self, state):
        super()._cross_boundary(state)
        if state.window > 0:  # a window ended and its rows were committed
            state.history.append(frozenset(state.table))

    def _finalize_window(self, state, ctx, out):
        state.awake_windows.append(state.window)
        return super()._finalize_window(state, ctx, out)

    def collect(self, state, ctx):
        return SimpleNamespace(
            topology=state.topology,
            tuples=super().collect(state, ctx),
            history=tuple(state.history),
            awake_windows=tuple(state.awake_windows),
        )


def verify_reconstruction(net, a, k):
    """True when the trace-quotient reconstruction of N^k(a) names the true
    neighborhood: every trace of a class resolves to the same node, the
    vertices map one-to-one onto N^k(a), and two vertices share an edge
    exactly when their nodes do."""
    topo = collect_topology(net, a, k)
    g = net.graph
    ball = g.neighborhood_nodes(a, k)
    ends = [{resolve_trace(net, a, t) for t in cls} for cls in classes_of(topo)]
    if any(len(e) != 1 for e in ends):
        return False
    node_of = [min(e) for e in ends]
    if sorted(node_of[c] for c in vertices(topo, k)) != list(ball):
        return False
    edges = {frozenset((u, v)) for u in ball for v in g.adj[u] if v in ball}
    return all(
        has_edge(topo, c, d) == (frozenset((node_of[c], node_of[d])) in edges)
        for c, d in itertools.combinations(vertices(topo, k), 2)
    )


# ------------------------------------------ compiled evaluation vs reference


def reference_holds(f, env, topo, domain, table, work):
    """The formula interpreter the compiled checks replaced: truth of f over
    the classes, with the table atoms named table[0] decided by
    table[1](holder, args), adding 1 to work[0] per formula node visited."""
    work[0] += 1
    if isinstance(f, BoolConst):
        return f.value
    if isinstance(f, Atom):
        if f.pred == EDGE_PRED:
            a = env[f.args[0].name]
            b = env[f.args[1].name]
            return has_edge(topo, a, b)
        if table is not None and f.pred == table[0]:
            holder = env[f.args[0].name]
            return table[1](holder, tuple(env[t.name] for t in f.args[1:]))
        return f.pred in topo.attrs.get(env[f.args[0].name], frozenset())
    if isinstance(f, Cmp):
        a = env[f.left.name]
        b = env[f.right.name]
        if f.op == "=":
            return a == b
        if f.op == "!=":
            return a != b
        la, lb = topo.labels.get(a), topo.labels.get(b)
        if la is None or lb is None:
            raise EngineError("order comparison on an unlabeled node")
        return la >= lb
    if isinstance(f, InNbhd):
        return len(topo.reps[env[f.term.name]]) <= 2 * f.radius
    if isinstance(f, Not):
        return not reference_holds(f.body, env, topo, domain, table, work)
    if isinstance(f, And):
        return all(
            reference_holds(p, env, topo, domain, table, work) for p in f.parts
        )
    if isinstance(f, Or):
        return any(
            reference_holds(p, env, topo, domain, table, work) for p in f.parts
        )
    if isinstance(f, (Exists, Forall)):
        settle = isinstance(f, Exists)
        value = not settle
        for c in domain:
            env[f.var] = c
            if reference_holds(f.body, env, topo, domain, table, work) == settle:
                value = settle
                break
        env.pop(f.var, None)
        return value
    raise EngineError(f"cannot evaluate {type(f).__name__} locally")


FO_LOCAL_TEXTS = [text for text, _ in FO_BATTERY] + [
    print_formula(relativize(parse_formula(text), "x", k))
    for text in (TWO_HOP_TEXT, HAS_NEIGHBOR_TEXT)
    for k in (1, 2)
]
FP_LOCAL_QUERIES = [span_query(1), span_query(2), tc_query(1), tc_query(2)]


def _table_truth(holder, args):
    """A fixed table for the differential test: some atoms hold, some not."""
    return (3 * holder + sum(args) + len(args)) % 4 != 1


def _outcome(evaluate):
    try:
        return evaluate()
    except EngineError as err:
        return str(err)


def _compare_with_interpreter(net, engine, parsed, table):
    """Every environment of every node: the compiled check of `engine` and
    the interpreter on `parsed`, the query as the engine read it, agree on
    truth (or error) and on the work they count.  Returns (environments
    compared, errors seen)."""
    center, k, query = engine.center, engine.k, engine.query
    if table is None:
        names = [v for v in free_vars(parsed) if v != center]
        body, radius = parsed, k
    else:
        body, names, radius = parsed.body, parsed.vars[1:], 2 * k
    compared = errors = 0
    for a in sorted(net.graph.nodes):
        topo = collect_topology(net, a, radius)
        domain = vertices(topo, k)
        for combo in itertools.product(domain, repeat=len(names)):
            env = dict(zip([center, *names], (CENTER, *combo)))
            work = [0]
            want = _outcome(lambda: reference_holds(
                body, env, topo, domain, table and (parsed.name, table), work
            ))
            slots = [CENTER] * query.width
            slots[1:1 + query.free] = combo
            cx = local_engine._Eval(topo, domain, table)
            got = _outcome(lambda: local_engine._holds(query.check, slots, cx))
            assert (got, cx.work) == (want, work[0]), (text, a, combo)
            compared += 1
            errors += isinstance(got, str)
    return compared, errors


def _differential_graphs():
    graphs = [g for _, g in exhaustive_graphs(4)]
    rng = random.Random(11)
    graphs += [random_connected_graph(rng, n) for n in (5, 6, 7, 8)]
    for g in graphs:
        marks = [min(g.nodes)] + ([max(g.nodes)] if len(g.nodes) > 2 else [])
        yield g.with_unary({"Mark": marks, "ReqNode": [min(g.nodes)]})


def test_compiled_checks_match_the_interpreter():
    """FO-loc and FP-loc (table callback included) evaluate every local
    fixture query as the interpreter did, in the anonymous, labeled and
    global modes: same truth, same work, short-circuits included.  An order
    comparison compiled for labeled nodes and run on anonymous ones raises
    the interpreter's error after the same work."""
    compared = errors = 0
    for g in _differential_graphs():
        for kind, mode in (
            ("anonymous", ANONYMOUS),
            ("labeled", IdentityMode("local-consistent", 1, injective_labels(g))),
            ("global", None),
        ):
            net = make_network(g, mode=mode) if mode else make_network(g)
            for text in FO_LOCAL_TEXTS:
                f = parse_formula(text)
                c, e = _compare_with_interpreter(
                    net, FOLocEngine(f), parse_formula(print_formula(f)), None
                )
                compared += c
                errors += e
            for q in FP_LOCAL_QUERIES:
                read = parse_fixpoint(print_fixpoint(q))
                c, e = _compare_with_interpreter(
                    net, FPLocEngine(q), read, _table_truth
                )
                compared += c
                errors += e
    assert compared > 10_000
    assert errors > 100


def brute_force_fo(g, f, order):
    """The tuples over `order` that satisfy f, every assignment tried: the
    brute-force enumeration the oracle's ball evaluation must equal."""
    return {
        t
        for t in itertools.product(g.nodes, repeat=len(order))
        if holds(g, f, dict(zip(order, t)))
    }


def test_eval_fo_over_balls_equals_brute_force():
    """`eval_fo` ranges a radius-bounded formula's centre over all nodes
    and its other free variables over the centre's ball only.  On every
    FO-loc fixture formula it equals the brute-force enumeration on every
    connected graph of up to 4 nodes and on seeded random graphs.  Three
    paths through the centre add three free variables each, the centre
    first, in the middle and last in order of first occurrence."""
    paths = [
        relativize(parse_formula(text), "x", k)
        for text, k in (
            ("G(x,y) & G(y,z) & x != z", 2),
            ("G(y,x) & G(x,z) & y != z", 1),
            ("G(y,z) & G(z,x) & y != x", 2),
        )
    ]
    texts = FO_LOCAL_TEXTS + [print_formula(f) for f in paths]
    assert {free_vars(f).index("x") for f in paths} == {0, 1, 2}
    nonempty = 0
    for g in _differential_graphs():
        for text in texts:
            f = parse_formula(text)
            locality(f)  # radius-bounded, so the oracle ranges over balls
            want = brute_force_fo(g, f, free_vars(f))
            assert eval_fo(g, f).tuples == want, (g.adj, text)
            nonempty += bool(want)
    assert nonempty > 100


# ------------------------------------------- the quotient vs union-find


def reference_topology(radius, entries):
    """The union-find quotient the one-pass build replaced: union every
    trace with each collected trace its row lists, name each class by its
    least (length, trace), and union the facts and take the least label of
    its traces."""
    uf = _UnionFind(entries)
    for t, row in entries.items():
        for u in row[1]:
            if u in entries:
                uf.union(t, u)
    groups = {}
    for t in entries:
        groups.setdefault(uf.find(t), set()).add(t)
    keyed = sorted(
        (min((len(t), t) for t in g), frozenset(g)) for g in groups.values()
    )
    classes = tuple(g for _, g in keyed)
    reps = tuple(key[1] for key, _ in keyed)
    class_of = {t: i for i, g in enumerate(classes) for t in g}
    inside = {i for i, r in enumerate(reps) if len(r) // 2 <= radius}
    edges = set()
    for t in entries:
        if t:
            c1, c2 = class_of[t[:-2]], class_of[t]
            if c1 in inside and c2 in inside and c1 != c2:
                edges.add((min(c1, c2), max(c1, c2)))
    attrs, labels = {}, {}
    for i, cls in enumerate(classes):
        attrs[i] = frozenset(a for t in cls for a in entries[t][2])
        ls = {entries[t][3] for t in cls} - {None}
        labels[i] = min(ls) if ls else None
    return local_engine.LocalTopology(
        class_of=class_of,
        reps=reps,
        edges=frozenset(edges),
        attrs=attrs,
        labels=labels,
    )


def test_quotient_matches_the_union_find_build():
    """Classes (compared as sets), representatives, class indices, edges,
    facts and labels equal the union-find build's on the reference entries
    of every node at radius 1, 2 and 3."""
    checked = 0
    for g in _differential_graphs():
        for mode in (ANONYMOUS, IdentityMode("local-consistent", 1, injective_labels(g))):
            net = make_network(g, mode=mode, port_seed=3)
            for a in sorted(g.nodes):
                for k in (1, 2, 3):
                    entries = _central_entries(net, a, k)
                    got = local_engine._topology_from_entries(k, entries)
                    assert got == reference_topology(k, entries)
                    checked += 1
    assert checked > 500


def _row(t, lst, facts=(), label=None):
    return (t, tuple(lst), tuple(facts), label)


def test_quotient_links_rows_both_ways():
    """A degree-1 node replied to the short walk x before the longer walk y
    reached it, so only y's row lists x; a third walk z to the same node
    lists only y.  All three are one class, named by x."""
    x, y, z = (1, 1), (2, 1, 2, 1), (2, 1, 3, 1)
    rows = [
        _row((), []),
        _row(x, [x]),
        _row((2, 1), [(2, 1)]),
        _row(y, [x, y]),
        _row(z, [y, z]),
    ]
    entries = {r[0]: r for r in rows}
    topo = local_engine._topology_from_entries(1, entries)
    assert topo == reference_topology(1, entries)
    assert classes_of(topo)[topo.class_of[x]] == {x, y, z}
    assert topo.reps[topo.class_of[z]] == x
    assert vertices(topo, 1) == (0, 1, 2)


@pytest.mark.parametrize("short,long", [
    (_row((1, 1), [(1, 1)], ("Mark",)), _row((2, 1), [(1, 1), (2, 1)])),
    (_row((1, 1), [(1, 1)], (), 5), _row((2, 1), [(1, 1), (2, 1)], (), 6)),
])
def test_quotient_rejects_merged_traces_that_disagree(short, long):
    """Two traces merged into one class must report the same endpoint's
    facts and label; the union-find build silently combined them."""
    entries = {r[0]: r for r in (_row((), []), short, long)}
    with pytest.raises(EngineError, match="different facts or labels"):
        local_engine._topology_from_entries(1, entries)
    agreeing = dict(entries)
    agreeing[long[0]] = long[:2] + short[2:]
    assert local_engine._topology_from_entries(1, agreeing) == reference_topology(
        1, agreeing
    )


# ---------------------------------------------- payload sizes vs the fold


def reference_reply_bits(payload, enc):
    """The per-field fold that sized an R payload before the closed form."""
    def trace_bits(trace):
        return 8 + enc.port_bits * len(trace)

    bits = enc.tag_bits + local_engine._NONCE_BITS + trace_bits(payload[2])
    for t, lst, attrs, label in payload[3]:
        bits += trace_bits(t)
        bits += sum(trace_bits(u) for u in lst)
        bits += sum(8 + enc.text_bits(s) for s in attrs)
        bits += 1 + (enc.id_bits if label is not None else 0)
    return bits


def test_reply_sizes_match_the_per_field_fold(monkeypatch):
    """Every R payload of labeled-mode runs with unary facts, on FO-loc and
    FP-loc, is sized as the per-field fold sized it."""
    real = local_engine.local_payload_bits
    replies = []

    def recording(payload, enc):
        if payload[0] == "R":
            replies.append((payload, enc))
        return real(payload, enc)

    monkeypatch.setattr(local_engine, "local_payload_bits", recording)
    for g in (grid_graph(2, 3), ring_graph(6), path_graph(4)):
        gu = g.with_unary({"Mark": [1, max(g.nodes)], "ReqNode": [1]})
        mode = IdentityMode("local-consistent", 1, injective_labels(g))
        for seed in (0, 1):
            net = make_network(gu, mode=mode, port_seed=seed)
            run_qe_fo_loc(net, LABELED_ORDER, 1)
            run_qe_fp_loc(net, span_query(1), 1)
    rows = [row for payload, _ in replies for row in payload[3]]
    assert any(row[2] for row in rows) and all(row[3] is not None for row in rows)
    assert len(replies) > 300
    for payload, enc in replies:
        assert real(payload, enc) == reference_reply_bits(payload, enc)


# ------------------------- the sparse quotient and one-pass sizing vs before


def all_links_topology(radius, entries):
    """The quotient before only linked traces got an adjacency list: every
    trace gets one, linked both ways to every other collected trace its row
    lists, every class re-checks all its members, and edges are read off
    every trace."""
    linked = {t: [] for t in entries}
    for t, row in entries.items():
        mine = linked[t]
        for u in row[1]:
            if u != t and u in linked:
                mine.append(u)
                linked[u].append(t)
    visit = sorted(entries)
    visit.sort(key=len)
    class_of, reps, attrs, labels = {}, [], {}, {}
    for t in visit:
        if t in class_of:
            continue
        c = len(reps)
        class_of[t] = c
        members = [t]
        for u in members:
            for v in linked[u]:
                if v not in class_of:
                    class_of[v] = c
                    members.append(v)
        _, _, facts, label = entries[t]
        for u in members:
            row = entries[u]
            if row[2] != facts or row[3] != label:
                raise EngineError(
                    f"traces {t!r} and {u!r} are merged but report "
                    "different facts or labels"
                )
        reps.append(t)
        attrs[c] = frozenset(facts)
        labels[c] = label
    n = 0
    while n < len(reps) and len(reps[n]) <= 2 * radius:
        n += 1
    edges = set()
    for t in entries:
        if t:
            c1, c2 = class_of[t[:-2]], class_of[t]
            if c1 < n and c2 < n and c1 != c2:
                edges.add((c1, c2) if c1 < c2 else (c2, c1))
    return local_engine.LocalTopology(
        class_of=class_of,
        reps=tuple(reps),
        edges=frozenset(edges),
        attrs=attrs,
        labels=labels,
    )


def previous_payload_bits(payload, enc):
    """`local_payload_bits` before one-pass sizing, tag by tag."""
    def trace_bits(trace):
        return 8 + enc.port_bits * len(trace)

    tag, counter, nonce = payload[0], 8, local_engine._NONCE_BITS
    if tag == "lq":
        return enc.tag_bits + enc.text_bits(payload[1])
    if tag == "C":
        return enc.tag_bits + nonce + counter + trace_bits(payload[3])
    if tag == "R":
        bits = enc.tag_bits + nonce + trace_bits(payload[2])
        for t, lst, attrs, label in payload[3]:
            bits += 9 + enc.port_bits * (len(t) + sum(map(len, lst))) + 8 * len(lst)
            if attrs:
                bits += sum(8 + enc.text_bits(s) for s in attrs)
            if label is not None:
                bits += enc.id_bits
        return bits
    if tag == "A":
        return (
            enc.tag_bits + trace_bits(payload[1]) + counter
            + sum(trace_bits(t) for t in payload[3])
        )
    if tag == "B":
        return (
            enc.tag_bits + trace_bits(payload[1]) + counter
            + trace_bits(payload[3]) + sum(trace_bits(t) for t in payload[4]) + 1
        )
    if tag == "N":
        return enc.tag_bits + counter
    raise AssertionError(f"unknown tag {tag!r}")


def _distance_two_labels(g):
    """Greedy labels 1, 2, ... that differ within every radius-1 ball: the
    least label no node within distance 2 holds yet, so labels repeat."""
    labels = {}
    for v in sorted(g.nodes):
        taken = {labels.get(u) for u in g.neighborhood_nodes(v, 2)}
        labels[v] = next(c for c in itertools.count(1) if c not in taken)
    return labels


def _recorded_local_runs(monkeypatch):
    """Every collection the quotient is handed and every payload sent by
    the FO-loc and FP-loc `GOLDEN_METRICS` cases, the `foloc-grid` and
    `fploc-ring` benchmark calls at their tiny sizes (seeds 0 and 1), and
    a seeded graph with input facts under repeating, locally consistent
    labels."""
    from test_golden import GOLDEN_METRICS

    collections, payloads = [], []
    quotient, sized = local_engine._topology_from_entries, local_engine.sends_bits

    def recording_quotient(radius, entries):
        collections.append((radius, dict(entries)))
        return quotient(radius, entries)

    def recording_sized(sends, size, enc):
        payloads.extend((payload, enc) for _, payload in sends)
        return sized(sends, size, enc)

    monkeypatch.setattr(local_engine, "_topology_from_entries", recording_quotient)
    monkeypatch.setattr(local_engine, "sends_bits", recording_sized)
    for name, run, _ in GOLDEN_METRICS:
        if name.startswith(("foloc", "fploc")):
            run()
    for seed in (0, 1):
        grid = make_network(grid_graph(3, 3), mode=ANONYMOUS, port_seed=seed)
        run_qe_fo_loc(grid, parse_formula(DEG2), 1)
        ring = make_network(ring_graph(8), mode=ANONYMOUS, port_seed=seed)
        run_qe_fp_loc(ring, tc_query(1), 1)
    g = random_connected_graph(random.Random(34), 9)
    labels = _distance_two_labels(g)
    assert simnet.check_locally_consistent(g, labels, 1)
    assert len(set(labels.values())) < len(g.nodes)
    gu = g.with_unary({"Mark": [1, 5, 9], "ReqNode": [1]})
    net = make_network(gu, IdentityMode("local-consistent", 1, labels), port_seed=2)
    run_qe_fo_loc(net, LABELED_ORDER, 1)
    run_qe_fp_loc(net, span_query(1), 1)
    run_qe_fp_loc(net, tc_query(1), 1)
    monkeypatch.undo()
    return collections, payloads


def test_sparse_quotient_equals_the_all_links_build(monkeypatch):
    """On every collection of the recorded runs the quotient equals the
    all-links build; and where a class merges traces, making one member
    report other facts, or another label, raises the same error in both."""
    collections, _ = _recorded_local_runs(monkeypatch)
    assert len(collections) > 90
    merged = 0
    for radius, entries in collections:
        topo = local_engine._topology_from_entries(radius, entries)
        assert topo == all_links_topology(radius, entries)
        for t, c in topo.class_of.items():
            if t == topo.reps[c]:
                continue
            merged += 1
            _, lst, facts, label = entries[t]
            for wrong in ((t, lst, facts + ("Other",), label), (t, lst, facts, -1)):
                bad = {**entries, t: wrong}
                with pytest.raises(EngineError, match="different facts") as got:
                    local_engine._topology_from_entries(radius, bad)
                with pytest.raises(EngineError) as want:
                    all_links_topology(radius, bad)
                assert str(got.value) == str(want.value)
    assert merged > 200


def test_local_payload_sizes_equal_the_previous_formula(monkeypatch):
    """Every payload of every tag sent in the recorded runs is sized as
    before one-pass sizing, including replies with input facts and
    labels."""
    _, payloads = _recorded_local_runs(monkeypatch)
    assert {payload[0] for payload, _ in payloads} == {"lq", "C", "R", "A", "B", "N"}
    rows = [row for payload, _ in payloads if payload[0] == "R" for row in payload[3]]
    assert any(row[2] for row in rows) and any(row[3] is not None for row in rows)
    for payload, enc in payloads:
        assert local_engine.local_payload_bits(payload, enc) == previous_payload_bits(
            payload, enc
        )


# --------------------------------------------- FP-loc's window plan, rebuilt


def reference_ground(engine, domain):
    """The ground table atoms of one window, built per window as FP-loc
    did before its window plan: every table atom of the body with the
    centre variable bound to class 0 and every other variable to a class
    of the domain, as (holder, args)."""
    ground = set()
    for names, rest in engine.query.shapes:
        for combo in itertools.product(domain, repeat=len(rest)):
            env = dict(zip(rest, combo))
            env[engine.center] = 0
            ground.add((env[names[0]], tuple(env[v] for v in names[1:])))
    return ground


def reference_key(topo, holder, args):
    """A remote atom's key: the route to its holder, and each argument's
    representative renamed by walking back along the route."""
    route = topo.reps[holder]
    back = reverse_trace(route)
    return route, tuple(reduce_trace(back + topo.reps[c]) for c in args)


def reference_asks(engine, state, answers):
    """The asks one window sends: the remote atoms in sorted order, each
    key once and none that `answers` already holds."""
    seen = set(answers)
    asks = []
    for holder, args in sorted(reference_ground(engine, state.domain)):
        key = reference_key(state.topology, holder, args)
        if holder != 0 and key not in seen:
            seen.add(key)
            asks.append(key)
    return asks


def reference_truth(state, holder, args):
    """A ground atom's truth: the node's committed rows when it holds the
    atom, otherwise the answer that came back this window."""
    topo = state.topology
    if holder == 0:
        return tuple(topo.reps[c] for c in args) in state.table
    answer = state.answers.get(reference_key(topo, holder, args))
    if answer is None:
        raise EngineError("table query went unanswered within its window")
    return answer


def test_window_plan_equals_the_per_window_build(monkeypatch):
    """On every window of the FP-loc `GOLDEN_METRICS` cases and of
    reachability on path-5 and the labelled 2x3 grid (port seeds 0 and 1),
    the node's window plan covers exactly the window's ground table atoms,
    sends the asks the per-window build sends, in its order, and gives
    every ground atom the per-window build's truth."""
    counts = {"windows": 0, "finalized": 0, "asks": 0, "local": 0, "remote": 0}
    truths = []
    rows, open_window, finalize = (
        local_engine._rows, FPLocEngine._open_window, FPLocEngine._finalize_window
    )

    def recording_rows(query, cx, center):
        if cx.table is not None:
            truths.append(cx.table)
        return rows(query, cx, center)

    def checked_open(self, state, out):
        ground = reference_ground(self, state.domain)
        assert set(state.plan.atoms) == ground
        assert list(state.plan.asks) == reference_asks(self, state, {})
        want = reference_asks(self, state, state.answers)
        start = len(out)
        sent = open_window(self, state, out)
        assert out[start:] == [(r[0], ("A", r, 2, names)) for r, names in want]
        assert sent == len(want)
        counts["windows"] += 1
        counts["asks"] += sent
        return sent

    def checked_finalize(self, state, ctx, out):
        work = finalize(self, state, ctx, out)
        truth = truths.pop()
        for holder, args in sorted(reference_ground(self, state.domain)):
            assert _outcome(lambda: truth(holder, args)) == _outcome(
                lambda: reference_truth(state, holder, args)
            )
            counts["local" if holder == 0 else "remote"] += 1
        counts["finalized"] += 1
        return work

    monkeypatch.setattr(local_engine, "_rows", recording_rows)
    monkeypatch.setattr(FPLocEngine, "_open_window", checked_open)
    monkeypatch.setattr(FPLocEngine, "_finalize_window", checked_finalize)
    _run_fp_loc_corpus()
    assert not truths
    assert counts["windows"] == counts["finalized"] > 100
    assert counts["asks"] == counts["remote"] > 500 and counts["local"] > 300


def _run_fp_loc_corpus():
    """The FP-loc runs of `GOLDEN_METRICS`, and reachability on path-5 and
    the labelled 2x3 grid at port seeds 0 and 1."""
    from test_golden import GOLDEN_METRICS

    for name, run, _ in GOLDEN_METRICS:
        if name.startswith("fploc"):
            run()
    reach = parse_fixpoint(REACH)
    g = grid_graph(2, 3).with_unary({"Mark": [1, 6]})
    labeled = IdentityMode("local-consistent", 1, injective_labels(g))
    for seed in (0, 1):
        path = path_graph(5).with_unary({"Mark": [1]})
        run_qe_fp_loc(make_network(path, ANONYMOUS, port_seed=seed), reach, 1)
        run_qe_fp_loc(make_network(g, labeled, port_seed=seed), reach, 1)


def test_every_window_opens_with_distinct_asks_and_no_answers(monkeypatch):
    """A window sends every ask of its plan, unchecked: on the FP-loc
    corpus the plan lists each ask once, and a window opens before any
    answer of its own asks can arrive, with last window's answers gone."""
    opened = []
    open_window = FPLocEngine._open_window

    def checked_open(self, state, out):
        asks = state.plan.asks
        assert len(set(asks)) == len(asks) and state.answers == {}
        opened.append(len(asks))
        return open_window(self, state, out)

    monkeypatch.setattr(FPLocEngine, "_open_window", checked_open)
    _run_fp_loc_corpus()
    assert len(opened) > 100 and sum(opened) > 500
