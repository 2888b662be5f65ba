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
            eng = FOLocReporter(("x",))
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
    eng = FPLocReporter()
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
                (FOLocReporter(("x",)), parse_formula(DEG2)),
                (FPLocReporter(), tc_query(1)),
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
    res, _ = simnet.run(labeled, FOLocEngine(("x",)), {1: f}, round_cap=400)
    got = {(a,) for a, rows in res.items() if rows}
    assert got == eval_fo(g, f).tuples == {(2,), (3,), (4,)}
    anonymous = make_network(g, ANONYMOUS)
    with pytest.raises(EngineError, match="unlabeled"):
        simnet.run(anonymous, FOLocEngine(("x",)), {1: f}, round_cap=400)


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
            assert rel.tuples == eval_fo(g, parse_formula(DEG2)).tuples
        assert len(printed) == 2 * run
    assert printed[1] == printed[0]


@pytest.mark.parametrize(
    "engine,text,error",
    [
        (FPLocEngine(), "mu T(x,y). G(x,y", ParseError),
        (FOLocEngine(("x",)), "exists y. G(x,y)", EngineError),
    ],
)
def test_unreadable_query_fails_at_every_node(engine, text, error):
    for nonce in (1, 2):
        state = engine._State(local_engine._Collector(nonce))
        with pytest.raises(error):
            engine._adopt(state, text)
    assert engine.reads == {}


# ------------------------------------------------------- pinned node steps

LABELED_ORDER = "(exists y in N^1(x). (G(x,y) & x >= y)) | Mark(x)"


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
    else:
        g = grid_graph(2, 3).with_unary({"Mark": [1, 6]})
        engine = FOLocEngine
        mode = IdentityMode("local-consistent", 1, injective_labels(g))
        net = make_network(g, mode=mode, port_seed=seed)
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
])
def test_local_node_steps_send_the_pinned_payloads(case, seed, digest):
    """Every node step of FO-loc and FP-loc sends the pinned payloads in the
    pinned order and reports the pinned work, quiescence and wake-up, at
    port seeds 0 and 1; test_simnet checks that permuted inboxes leave
    these digests as they are.  The pins were taken with the sorted-reply
    collector and the sorted inbox."""
    assert _local_step_digest(case, seed) == digest


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
])
def test_local_node_steps_send_the_pinned_payload_sets(case, seed, digest):
    """Every node step sends the pinned payloads, in whatever order within
    the step, with the pinned work, quiescence and wake-up.  These pins were
    taken while the simulator still shuffled the local engines' in-buffers,
    and hold unchanged now that the engines serve their inbox sorted."""
    assert _local_step_digest(case, seed, order_free=True) == digest


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
        if home is not None:
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


def _compare_with_interpreter(net, engine, text, table):
    """Every environment of every node: the compiled check and the
    interpreter agree on truth (or error) and on the work they count.
    Returns (environments compared, errors seen)."""
    parsed, center, k, query = engine._read(text)
    if table is None:
        body, names, radius = parsed, [v for v in engine.order if v != center], k
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
                engine = FOLocEngine(tuple(free_vars(f)))
                c, e = _compare_with_interpreter(net, engine, text, None)
                compared += c
                errors += e
            for q in FP_LOCAL_QUERIES:
                engine = FPLocEngine()
                c, e = _compare_with_interpreter(
                    net, engine, print_fixpoint(q), _table_truth
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
