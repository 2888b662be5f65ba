"""Distributed first-order evaluation against the centralized oracle."""
import random

import pytest

from netquery import simnet
from netquery.engine_fo import (
    EngineError,
    FOQueryEngine,
    answer_key,
    clock_value,
    run_qe_fo,
)
from netquery.fixtures import (
    HAS_NEIGHBOR_TEXT,
    TWO_HOP_TEXT,
    exhaustive_graphs,
    random_connected_graph,
)
from netquery.logic import (
    canonical_print,
    constants,
    free_vars,
    parse_formula,
    stats,
    substitute,
)
from netquery.oracle import eval_fo, make_graph, path_graph, ring_graph
from netquery.simnet import ANONYMOUS


def _net(g, **kw):
    return simnet.make_network(g, **kw)


# ------------------------------------------------------------------- clocks


def test_clock_value_examples():
    assert clock_value(3, 2) == 12
    assert clock_value(1, 1) == 2
    assert clock_value(5, 3) == 30


def test_clock_value_rejects_bad_arguments():
    with pytest.raises(EngineError):
        clock_value(0, 2)
    with pytest.raises(EngineError):
        clock_value(2, 0)


def test_answer_key_is_stable_and_64_bit():
    k = answer_key("exists q1. G(1,q1)")
    assert k == answer_key("exists q1. G(1,q1)")
    assert 0 <= k < 2**64
    assert k != answer_key("exists q1. G(2,q1)")


# ------------------------------------------------------------ step examples


def test_closed_query_true_on_path():
    rel, metrics = run_qe_fo(_net(path_graph(3)), "exists x. exists y. G(x,y)", 1)
    assert rel.arity == 0
    assert rel.tuples == frozenset({()})
    assert metrics.dist_time <= clock_value(2, 2)


def test_closed_query_false_needs_the_deadline():
    # No witness exists (simple graphs have no loops), so the existentials
    # resolve by the silent default at their deadline.
    rel, metrics = run_qe_fo(
        _net(path_graph(3)), "exists x. exists y. (G(x,y) & x = y)", 1
    )
    assert rel.tuples == frozenset()
    assert metrics.dist_time <= clock_value(2, 2)


def test_open_query_every_node_has_a_neighbor():
    rel, metrics = run_qe_fo(_net(path_graph(3)), HAS_NEIGHBOR_TEXT, 1)
    assert rel.arity == 1
    assert rel.tuples == frozenset({(1,), (2,), (3,)})
    assert metrics.dist_time <= clock_value(2, 2)


def test_open_query_two_hop_on_path():
    rel, metrics = run_qe_fo(_net(path_graph(3)), TWO_HOP_TEXT, 1)
    assert rel.tuples == frozenset({(1,), (3,)})
    assert metrics.dist_time <= clock_value(3, 2)


def test_ground_queries_resolve_via_party_floods():
    rel, _ = run_qe_fo(_net(path_graph(3)), "G(1,2)", 1)
    assert rel.tuples == frozenset({()})
    rel, _ = run_qe_fo(_net(path_graph(3)), "G(1,3)", 1)
    assert rel.tuples == frozenset()


def test_tuples_are_held_at_their_first_coordinate():
    f = parse_formula(TWO_HOP_TEXT)
    net = _net(path_graph(4))
    res, _ = simnet.run(net, FOQueryEngine(free_vars(f)), init={1: f})
    held = {a: rep.tuples for a, rep in res.items()}
    assert held[1] == frozenset({(1,)})
    assert held[4] == frozenset({(4,)})
    assert held[2] == held[3] == frozenset()
    for a, fragment in held.items():
        assert all(t[0] == a for t in fragment)


# --------------------------------------------------------- oracle agreement

_MATRIX = [
    HAS_NEIGHBOR_TEXT,
    TWO_HOP_TEXT,
    "exists x. exists y. G(x,y)",
    "forall x. exists y. G(x,y)",
    "forall x. forall y. (!G(x,y) | (exists z. (G(y,z) & z != x)))",
    "exists y. (G(1,y) & y != x)",
    "exists x. exists y. (G(x,y) & x = y)",
    "G(1,2)",
]


def test_matches_oracle_on_all_small_connected_graphs():
    runs = 0
    for _name, g in exhaustive_graphs(max_n=4):
        net = _net(g)
        for text in _MATRIX:
            f = parse_formula(text)
            want = eval_fo(g, f, order=free_vars(f))
            got, metrics = run_qe_fo(net, f, 1)
            assert got.tuples == want.tuples, (_name, text)
            w = stats(f).w
            if g.diameter >= 1 and w >= 2:
                assert metrics.dist_time <= clock_value(w, g.diameter), (_name, text)
            runs += 1
    assert runs == 344


def test_dist_time_within_clock_on_wide_ring():
    rel, metrics = run_qe_fo(_net(ring_graph(6)), "exists x. exists y. G(x,y)", 1)
    assert rel.tuples == frozenset({()})
    assert metrics.dist_time <= clock_value(2, 3)


def test_message_count_stays_polynomial():
    # v = 3 variables for the two-hop query; each node floods each query and
    # answer key at most once, so the per-node count is far below n^(v+1).
    g = path_graph(4)
    _, metrics = run_qe_fo(_net(g), TWO_HOP_TEXT, 1)
    assert metrics.max_msgs_per_node <= 4 * g.n ** 4


# ------------------------------------------------------- instance linking


class _CoreKeepingEngine(FOQueryEngine):
    """Reports each node's whole FOCore, so its tables can be inspected."""

    def collect(self, state, ctx):
        return state


def _unmemoized_match(leaf, cand):
    # A candidate is an instance of the leaf when substituting one of its
    # constants (or 1, for a quantifier that never uses its variable) for
    # the quantified variable prints the candidate's text.
    probes = sorted(set(constants(cand.formula)) | {1})
    return any(
        canonical_print(substitute(leaf.quant, leaf.var, b)) == cand.text
        for b in probes
    )


@pytest.mark.parametrize("text", [TWO_HOP_TEXT, HAS_NEIGHBOR_TEXT])
def test_linking_agrees_with_unmemoized_rule(text):
    f = parse_formula(text)
    for seed in (0, 1, 2):
        g = random_connected_graph(random.Random(seed), 5)
        budget = clock_value(stats(f).w, g.diameter) + g.diameter + 8
        result, _ = simnet.run(
            _net(g, port_seed=seed),
            _CoreKeepingEngine(free_vars(f)),
            init={1: f},
            order_seed=seed,
            round_cap=budget,
        )
        checked = 0
        for core in result.values():
            for (level, _), e in core.entries.items():
                children = [
                    c for (lv, _), c in core.entries.items() if lv == level + 1
                ]
                for path, leaf in enumerate(e.leaves):
                    for cand in children:
                        assert (cand.text in leaf.instances) == _unmemoized_match(
                            leaf, cand
                        ), (seed, path, cand.text)
                        checked += 1
        assert checked > 0


# ------------------------------------------------------------- determinism


def test_results_do_not_depend_on_delivery_or_port_order():
    g = ring_graph(5)
    outcomes = []
    for order_seed in (0, 1, 7, 23, 99):
        for port_seed in (0, 3):
            net = _net(g, port_seed=port_seed)
            rel, m = run_qe_fo(net, TWO_HOP_TEXT, 1, order_seed=order_seed)
            outcomes.append(
                (
                    rel.sorted_tuples(),
                    m.dist_time,
                    tuple(sorted(m.msgs_per_node.items())),
                    m.max_msg_bits,
                )
            )
    assert all(o == outcomes[0] for o in outcomes)
    assert outcomes[0][0] == [(1,), (2,), (3,), (4,), (5,)]


# -------------------------------------------------------------- edge cases


def test_single_node_network():
    net = _net(make_graph([], nodes=[1]))
    for text, want in [
        ("exists x. x = x", {()}),
        ("exists x. G(x,x)", set()),
        ("true", {()}),
        ("false", set()),
    ]:
        rel, metrics = run_qe_fo(net, text, 1)
        assert rel.tuples == frozenset(want), text
        assert metrics.dist_time == 1


def test_rejects_anonymous_networks():
    net = simnet.make_network(path_graph(3), mode=ANONYMOUS)
    with pytest.raises(EngineError):
        run_qe_fo(net, "exists x. exists y. G(x,y)", 1)


def test_rejects_unknown_requester_and_bad_constants():
    net = _net(path_graph(3))
    with pytest.raises(EngineError):
        run_qe_fo(net, "exists x. exists y. G(x,y)", 9)
    with pytest.raises(EngineError):
        run_qe_fo(net, "G(1,7)", 1)


def test_rejects_local_fragment_syntax():
    net = _net(path_graph(3))
    with pytest.raises(EngineError):
        run_qe_fo(net, "exists y in N^2(x). G(x,y)", 1)
    with pytest.raises(EngineError):
        run_qe_fo(net, "y in N^1(x)", 1)


def test_rejects_wide_relations_and_reserved_names():
    net = _net(path_graph(3))
    with pytest.raises(EngineError):
        run_qe_fo(net, "exists y. T(x,y,y)", 1)
    with pytest.raises(EngineError):
        run_qe_fo(net, "exists y. G(q1,y)", 1)


def test_explicit_variable_order_controls_tuple_layout():
    net = _net(path_graph(3))
    f = parse_formula("G(x,y)")
    fwd, _ = run_qe_fo(net, f, 1, order=("x", "y"))
    rev, _ = run_qe_fo(net, f, 1, order=("y", "x"))
    assert fwd.tuples == frozenset({(1, 2), (2, 1), (2, 3), (3, 2)})
    assert fwd.tuples == rev.tuples  # symmetric relation; layouts agree
    with pytest.raises(EngineError):
        run_qe_fo(net, f, 1, order=("x",))
