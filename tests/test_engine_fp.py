"""Distributed fixpoint evaluation against the centralized oracle."""
import math
import random
from types import SimpleNamespace

import pytest

from fixture_data import (
    ROUTING_TABLE_TEXT,
    SPANNING_TREE_TEXT,
    TRANSITIVE_CLOSURE_DATALOG,
    TWO_HOP_TEXT,
    fixture_graphs,
    random_connected_graph,
)
from netquery import engine_fo, simnet
from netquery.engine_fo import EngineError, FOCore, QueryTable, _BroadcastEngine
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
    parse_formula,
    relativize_fixpoint,
    stats,
    substitute,
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
        return _HistoryCore(*args, run=self)

    def collect(self, state, ctx):
        return SimpleNamespace(
            tuples=super().collect(state, ctx), history=tuple(state.history)
        )


def _run_with_reports(g, q, requester, **kw):
    net = _net(g)
    cap = default_fp_round_cap(net, q)
    return simnet.run(net, _HistoryEngine(q), init={requester: q}, round_cap=cap, **kw)


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


def test_a_flooded_text_other_than_the_run_query_is_an_error():
    """Every node evaluates the engine's one read of the query, so a node
    that hears an FPQ payload whose text is not the run's query raises in
    the step that receives it; the run's own text is adopted and relayed."""
    engine = FPQueryEngine(parse_fixpoint(TRANSITIVE_CLOSURE_TEXT))
    ctx = simnet._context_for(_net(path_graph(3)), 2)
    foreign = ("FPQ", ROUTING_TABLE_TEXT, 0)
    with pytest.raises(EngineError, match="is not the run's query"):
        engine.step(engine.start(ctx), ctx, 1, ((foreign, 1),))
    res = engine.step(engine.start(ctx), ctx, 1, ((("FPQ", engine.text, 1), 1),))
    assert [p for _, p in res.sends] == [("FPQ", engine.text, 0)] * 2


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


def test_the_query_structure_is_built_in_the_first_iteration_only(monkeypatch):
    """Each node builds its entries, leaves and links once per run, in
    iteration 0, and later iterations restart that core: on TC over path-5
    (5 iterations) instance linking registers 205 leaves and matches 500
    candidates, all while the cores still run iteration 0, where a fresh
    core per iteration made 1,025 and 2,500 of these calls."""
    offsets = {"_register": [], "_match": []}
    for name, seen in offsets.items():
        real = getattr(FOCore, name)

        def counted(self, *args, _real=real, _seen=seen):
            _seen.append(self.round_offset)
            return _real(self, *args)

        monkeypatch.setattr(FOCore, name, counted)
    g = path_graph(5)
    q = parse_fixpoint(TRANSITIVE_CLOSURE_TEXT)
    got, _ = run_qe_fp(_net(g), q, 1)
    assert got.tuples == eval_fp(g, q).final.tuples
    assert len(offsets["_register"]) == 205
    assert len(offsets["_match"]) == 500
    first = g.diameter  # iteration 0 opens in round 1 + delta
    assert set(offsets["_register"]) == set(offsets["_match"]) == {first}


def test_a_restarted_core_builds_what_it_lacks_as_a_fresh_core_would():
    """After a restart a core meets query texts that no earlier evaluation
    built: a new instance of a built leaf, an open query and a closed one
    with a quantifier.  It builds them, and in every round it flushes the
    same payloads and holds the same answers and work as a fresh core given
    the same table, round offset and inputs, and ends with the same
    fragment."""
    queries = QueryTable()
    text = lambda f: queries.template(parse_formula(f)).text
    injected = parse_formula("exists z. G(1,z)")
    foreign = [
        ("Q", "B", text("G(1,3)"), 2),
        ("Q", "O", text("G(x,2) & T(x,2)"), (2,)),
        ("Q", "B", text("exists z. (T(1,z) & G(z,2))"), 1),
    ]

    def core():
        return FOCore(1, frozenset({2, 3}), frozenset(), 1, ("x", "y"), queries)

    def evaluate(c, table, offset, payloads):
        c.restart(table, offset)
        c.inject_query(injected, (1,))
        trace = []
        for r in range(offset + 1, offset + 8):
            c.ingest(payloads if r == offset + 2 else [])
            c.advance(r)
            trace.append((c.flush(), dict(c.answers), c.total_work()))
        return trace, c.fragment()

    reused = core()
    evaluate(reused, ("T", frozenset()), 1, [])
    assert not any(
        (extra if kind == "B" else len(extra), t) in reused.built
        for _, kind, t, extra in foreign
    )
    table = ("T", frozenset({(1, 2), (1, 3)}))
    got = evaluate(reused, table, 9, foreign)
    assert got == evaluate(core(), table, 9, foreign)
    assert got[1] == {(1,), (1, 2)}


# ------------------------------------------- reuse against fresh cores


class _FreshCore(FPCore):
    """The reference: a fresh FOCore for every iteration, built from the
    same flooded texts, where FPCore restarts the one it built with it."""

    def _begin_iteration(self, i):
        q, old = self.run.query, self.core
        self.work += old.work
        self.it = i
        self.inform_heard = False
        self.core = FOCore(
            old.self_id, old.neighbors, old.self_unary, old.delta, q.vars, old.queries
        )
        self.core.restart((q.name, frozenset(self.committed)), self._start_round(i) - 1)
        self.core.inject_query(
            substitute(q.body, q.vars[-1], old.self_id), (old.self_id,)
        )


class _FreshEngine(FPQueryEngine):
    def _core(self, *args):
        return _FreshCore(*args, run=self)


def _steps(engine, g, q, port_seed, order_seed, permuted_inboxes):
    """Every node step of one FP run, in call order, with the run's
    results and metrics; with an `order_seed`, every inbox is permuted."""
    steps = []
    real = _BroadcastEngine.step

    def recording(self, state, ctx, round_no, inbox):
        res = real(self, state, ctx, round_no, inbox)
        steps.append((ctx.node_id, round_no, res.sends, res.steps,
                      res.quiescent, res.wake_at, res.bits))
        return res

    net = _net(g, port_seed=port_seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_BroadcastEngine, "step", recording)
        run = lambda: simnet.run(
            net, engine, init={1: q}, round_cap=default_fp_round_cap(net, q)
        )
        if order_seed is None:
            results, metrics = run()
        else:
            with permuted_inboxes(FPQueryEngine, order_seed) as moved:
                results, metrics = run()
            assert any(moved)
    return steps, results, metrics


_REUSE_GRAPHS = {
    "path5": path_graph(5),
    "ring5": ring_graph(5),
    "random5": random_connected_graph(random.Random(0), 5),
}


@pytest.mark.parametrize("text,graph,port_seed,order_seed", [
    # TC on every graph, both port seeds and permuted inboxes; the larger
    # queries once each, on the ring, to keep the test near three seconds.
    ("tc", "path5", 0, None),
    ("tc", "path5", 1, 3),
    ("tc", "ring5", 1, None),
    ("tc", "random5", 0, 7),
    ("routing", "ring5", 1, 11),
    ("spanning-tree", "ring5", 0, None),
])
def test_restarted_cores_step_as_fresh_cores(
    permuted_inboxes, text, graph, port_seed, order_seed
):
    """FPCore's restarted core sends the same payloads in the same order,
    and reports the same work, bits, quiescence and wake-ups, at every node
    step as a fresh core per iteration, and ends with the same results."""
    q = parse_fixpoint({
        "tc": TRANSITIVE_CLOSURE_TEXT,
        "routing": ROUTING_TABLE_TEXT,
        "spanning-tree": SPANNING_TREE_TEXT,
    }[text])
    g = _REUSE_GRAPHS[graph].with_unary({"ReqNode": [1]})
    fresh = _steps(_FreshEngine(q), g, q, port_seed, order_seed, permuted_inboxes)
    kept = _steps(FPQueryEngine(q), g, q, port_seed, order_seed, permuted_inboxes)
    assert kept == fresh
    assert len(kept[0]) > 0
