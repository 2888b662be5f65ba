"""Distributed fixpoint evaluation against the centralized oracle."""
import math
from types import SimpleNamespace

import pytest

from fixture_data import (
    ROUTING_TABLE_TEXT,
    SPANNING_TREE_TEXT,
    TRANSITIVE_CLOSURE_DATALOG,
    TWO_HOP_TEXT,
    fixture_graphs,
)
from netquery import engine_fo, simnet
from netquery.engine_fo import EngineError
from netquery.engine_fp import (
    FPCore,
    FPQueryEngine,
    default_fp_round_cap,
    evaluation_window,
    run_qe_fp,
)
from netquery.fixtures import TRANSITIVE_CLOSURE_TEXT, exhaustive_graphs
from netquery.logic import (
    Exists,
    Forall,
    canonical_print,
    parse_fixpoint,
    relativize_fixpoint,
    stats,
)
from netquery.netlog import run_netlog
from netquery.oracle import eval_fp, path_graph, ring_graph
from netquery.rewriter import compile as compile_program
from netquery.simnet import ANONYMOUS, make_network

GRAPHS = dict(fixture_graphs())


def _net(g, **kw):
    return make_network(g, **kw)


class _HistoryCore(FPCore):
    """FPCore that also keeps its table after every iteration."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.history = []

    def _commit(self):
        super()._commit()
        self.history.append(frozenset(self.committed))


class _HistoryEngine(FPQueryEngine):
    """FP whose node result also carries the node's table after every
    iteration: the union over nodes of ``history[i]`` is stage ``i+1`` of
    the centralized evaluation."""

    def _core(self, *args):
        return _HistoryCore(*args, queries=self.queries)

    def collect(self, state, ctx):
        return SimpleNamespace(
            tuples=super().collect(state, ctx), history=tuple(state.history)
        )


def _run_with_reports(g, q, requester, **kw):
    net = _net(g)
    cap = default_fp_round_cap(net, q)
    return simnet.run(net, _HistoryEngine(), init={requester: q}, round_cap=cap, **kw)


# ------------------------------------------------------------ window length


def test_evaluation_window_uses_clock_budget():
    # twice diameter times the variable-or-constant count, as for plain
    # first-order queries
    assert evaluation_window(3, 3, 1) == 6
    assert evaluation_window(3, 3, 2) == 12
    assert evaluation_window(5, 5, 2) == 20


def test_evaluation_window_floor_for_degenerate_queries():
    # a single-variable body still needs the full deadline horizon
    assert evaluation_window(1, 1, 2) == 5
    assert evaluation_window(1, 1, 0) == 1


# ------------------------------------------------- matches the oracle


def test_transitive_closure_matches_oracle_on_fixtures():
    q = parse_fixpoint(TRANSITIVE_CLOSURE_TEXT)
    checked = 0
    for name, g in fixture_graphs():
        if g.n > 4:
            continue
        got, _ = run_qe_fp(_net(g), q, min(g.nodes))
        want = eval_fp(g, q).final
        assert got.tuples == want.tuples, name
        checked += 1
    assert checked == 8


def test_transitive_closure_matches_oracle_exhaustively():
    q = parse_fixpoint(TRANSITIVE_CLOSURE_TEXT)
    checked = 0
    for name, g in exhaustive_graphs(3):
        got, _ = run_qe_fp(_net(g), q, min(g.nodes))
        assert got.tuples == eval_fp(g, q).final.tuples, name
        checked += 1
    assert checked == 5


def test_routing_table_matches_oracle():
    q = parse_fixpoint(ROUTING_TABLE_TEXT)
    for name in ["path-3", "ring-3"]:
        g = GRAPHS[name]
        got, _ = run_qe_fp(_net(g), q, min(g.nodes))
        assert got.tuples == eval_fp(g, q).final.tuples, name


def test_spanning_tree_matches_oracle():
    q = parse_fixpoint(SPANNING_TREE_TEXT)
    for name in ["path-3", "ring-4"]:
        g = GRAPHS[name].with_unary({"ReqNode": [1]})
        got, _ = run_qe_fp(_net(g), q, 1)
        assert got.tuples == eval_fp(g, q).final.tuples, name


def test_accepts_query_text():
    g = GRAPHS["path-3"]
    got, _ = run_qe_fp(_net(g), TRANSITIVE_CLOSURE_TEXT, 1)
    assert got.arity == 2
    assert got.tuples == eval_fp(g, parse_fixpoint(TRANSITIVE_CLOSURE_TEXT)).final.tuples


# ------------------------------------------------------- stage synchrony


def test_iterations_commit_oracle_stages_in_lockstep():
    q = parse_fixpoint(TRANSITIVE_CLOSURE_TEXT)
    for name in ["path-4", "ring-4"]:
        g = GRAPHS[name]
        trace = eval_fp(g, q)
        res, _ = _run_with_reports(g, q, min(g.nodes))
        reps = res
        counts = {len(r.history) for r in reps.values()}
        assert counts == {len(trace.stages) - 1}, name
        for i in range(len(trace.stages) - 1):
            union = set()
            for r in reps.values():
                union |= set(r.history[i])
            assert union == set(trace.stages[i + 1].tuples), (name, i)


def test_committed_tuples_stay_at_their_first_coordinate():
    q = parse_fixpoint(TRANSITIVE_CLOSURE_TEXT)
    res, _ = _run_with_reports(GRAPHS["ring-4"], q, 1)
    for a, rep in res.items():
        assert all(t[0] == a for t in rep.tuples)


def test_empty_body_stops_after_one_iteration():
    q = parse_fixpoint("mu T(x,y). G(x,y) & x = y & x != y")
    res, metrics = _run_with_reports(GRAPHS["path-3"], q, 1)
    for rep in res.values():
        assert rep.history == (frozenset(),)
        assert rep.tuples == frozenset()
    assert metrics.dist_time >= 1


# ------------------------------------------------------------- resources


def test_response_time_within_budget():
    q = parse_fixpoint(TRANSITIVE_CLOSURE_TEXT)
    w = stats(q).w
    for name, g in fixture_graphs():
        if g.n > 4:
            continue
        _, m = run_qe_fp(_net(g), q, min(g.nodes))
        d = g.diameter
        assert m.dist_time <= d + (g.n**q.arity) * (2 * d * w + d), name


def test_message_size_logarithmic_in_network_size():
    """MSG-SIZE is at most a + b * log2(n), with a fixed by the query text,
    for FP TC on paths, FO two-hop on rings and compiled TC on paths."""
    q = parse_fixpoint(TRANSITIVE_CLOSURE_TEXT)
    for name in ["path-3", "path-6"]:
        g = GRAPHS[name]
        _, m = run_qe_fp(_net(g), q, min(g.nodes))
        # formula text plus a constant number of ids and counters
        assert m.max_msg_bits <= 8 * 64 + 6 * g.n.bit_length(), name
    for n in (4, 6, 8):
        _, m = engine_fo.run_qe_fo(_net(ring_graph(n)), TWO_HOP_TEXT, 1)
        # the query text with node ids in place of its free variable, a tag
        # and a counter
        assert m.max_msg_bits <= 8 * (len(TWO_HOP_TEXT) + 8) + 6 * math.log2(n), n
    for n in range(3, 9):
        g = path_graph(n)
        program = compile_program(TRANSITIVE_CLOSURE_DATALOG, g.diameter).program
        _, m = run_netlog(program, _net(g))
        # A pushed fact is a tag and at most `arity` arguments, each a node
        # id or a clock value below n, so of at most log2(n) + 1 bits.
        arity = max(len(rule.head.args) for rule in program.rules if rule.push)
        assert m.max_msg_bits <= 8 + arity * (math.log2(n) + 1), n


# ---------------------------------------------------------- insensitivity


def test_outcome_insensitive_to_delivery_order_and_ports(permuted_inboxes):
    """TC on ring-4 gives the same relation and metrics under port seeds
    and inbox orders: every step's inbox is permuted by a generator seeded
    with the order seed, and in every run some permutation leaves send
    order."""
    q = parse_fixpoint(TRANSITIVE_CLOSURE_TEXT)
    g = GRAPHS["ring-4"]
    want = eval_fp(g, q).final
    signatures = set()
    for order_seed in (0, 1, 7):
        for port_seed in (0, 3):
            net = make_network(g, port_seed=port_seed)
            with permuted_inboxes(FPQueryEngine, order_seed) as moved:
                got, m = run_qe_fp(net, q, 2)
            assert any(moved)
            assert got.tuples == want.tuples
            signatures.add(
                (
                    tuple(got.sorted_tuples()),
                    m.dist_time,
                    m.max_msg_bits,
                    tuple(sorted(m.msgs_per_node.items())),
                )
            )
    assert len(signatures) == 1


def test_outcome_insensitive_to_requester():
    q = parse_fixpoint(TRANSITIVE_CLOSURE_TEXT)
    g = GRAPHS["path-3"]
    want = eval_fp(g, q).final
    for req in g.nodes:
        got, _ = run_qe_fp(_net(g), q, req)
        assert got.tuples == want.tuples


# ------------------------------------------------------------- validation


def test_rejects_anonymous_networks():
    net = make_network(path_graph(3), mode=ANONYMOUS)
    with pytest.raises(EngineError):
        run_qe_fp(net, TRANSITIVE_CLOSURE_TEXT, 1)


def test_rejects_unknown_requester():
    with pytest.raises(EngineError):
        run_qe_fp(_net(path_graph(3)), TRANSITIVE_CLOSURE_TEXT, 9)


def test_rejects_radius_bounded_queries():
    q0 = parse_fixpoint(TRANSITIVE_CLOSURE_TEXT)
    q = relativize_fixpoint(q0, 2)
    with pytest.raises(EngineError, match="belong to the local-fragment"):
        run_qe_fp(_net(path_graph(3)), q, 1)


def test_rejects_unused_declared_variable():
    with pytest.raises(EngineError):
        run_qe_fp(_net(path_graph(3)), "mu T(x,y). G(x,x)", 1)


def test_rejects_reserved_variable_names():
    with pytest.raises(EngineError):
        run_qe_fp(_net(path_graph(3)), "mu T(q1,y). G(q1,y)", 1)


def test_rejects_foreign_relations():
    with pytest.raises(EngineError):
        run_qe_fp(_net(path_graph(3)), "mu T(x,y). R(x,y)", 1)


def test_ring_six_converges():
    q = parse_fixpoint(TRANSITIVE_CLOSURE_TEXT)
    g = ring_graph(6)
    got, m = run_qe_fp(_net(g), q, 1)
    assert got.tuples == eval_fp(g, q).final.tuples
    d = g.diameter
    assert m.dist_time <= d + (g.n**2) * (2 * d * stats(q).w + d)


def test_query_texts_are_parsed_once_per_run(monkeypatch):
    """The FOCores of every node and iteration share one query table, and
    every text a node receives is the canonical text of a template that
    the table already holds, so a run parses no query text at all."""
    texts = []
    real = engine_fo.parse_formula
    monkeypatch.setattr(
        engine_fo, "parse_formula", lambda text: texts.append(text) or real(text)
    )
    q = parse_fixpoint(TRANSITIVE_CLOSURE_TEXT)
    got, _ = run_qe_fp(_net(path_graph(3)), q, 1)
    assert got.tuples == eval_fp(path_graph(3), q).final.tuples
    assert texts == []


def test_instances_are_derived_once_per_run(monkeypatch):
    """The run's query table substitutes each (text, value) pair once for
    every node and iteration, and the next run starts from an empty table,
    so it derives every pair again."""
    pairs = []
    real = engine_fo.substitute

    def recording(f, var, value):
        pairs.append((canonical_print(f), value, isinstance(f, (Exists, Forall))))
        return real(f, var, value)

    monkeypatch.setattr(engine_fo, "substitute", recording)
    q = parse_fixpoint(TRANSITIVE_CLOSURE_TEXT)
    runs = []
    for _ in range(2):
        pairs.clear()
        got, _ = run_qe_fp(_net(path_graph(4)), q, 1)
        assert got.tuples == eval_fp(path_graph(4), q).final.tuples
        runs.append(sorted(pairs))
    first, second = runs
    assert len(first) == len(set(first))
    assert {v for _, v, quant in first if quant} == {1, 2, 3, 4}
    assert second == first
