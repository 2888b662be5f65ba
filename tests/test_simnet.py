"""Simulator behavior: loading, ports, rounds, delivery, metrics."""
from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import random
import re
import types
from collections import Counter
from functools import partialmethod

import pytest

from fixture_data import (
    HAS_NEIGHBOR_TEXT,
    SPANNING_TREE_TEXT,
    TRANSITIVE_CLOSURE_DATALOG,
    TWO_HOP_TEXT,
)
from netquery.engine_fo import EngineError, FOQueryEngine, run_qe_fo
from netquery.engine_fp import FPQueryEngine, run_qe_fp
from netquery import logic, simnet
from netquery.fixtures import (
    SAME_GENERATION_DATALOG,
    TRANSITIVE_CLOSURE_TEXT,
    exhaustive_graphs,
)
from netquery.local_engine import (
    FOLocEngine,
    FPLocEngine,
    LocalTopology,
    run_qe_fo_loc,
    run_qe_fp_loc,
)
from netquery.logic import (
    parse_fixpoint,
    parse_formula,
    relativize,
    relativize_fixpoint,
)
from netquery.netlog import NetlogEngine, run_netlog
from netquery.oracle import (
    GraphError,
    grid_graph,
    path_graph,
    ring_graph,
    star_graph,
)
from netquery.rewriter import compile as compile_program
from netquery.simnet import (
    ANONYMOUS,
    GLOBAL_IDS,
    IdentityMode,
    Metrics,
    NodeEngine,
    RoundCapError,
    SimError,
    StepResult,
    _context_for,
    broadcast,
    check_locally_consistent,
    encoding_for,
    load_network,
    make_network,
    metrics_report,
    network_text,
    parse_identity_mode,
    run,
    sends_bits,
)

PATH3 = "3 2\n1 2\n2 3\n"


class SilentEngine(NodeEngine):
    def start(self, ctx):
        return None

    def step(self, state, ctx, round_no, inbox):
        return StepResult((), quiescent=True, steps=1)

    def collect(self, state, ctx):
        return None


class FloodOnce(NodeEngine):
    """Relay a token once, never back out the arrival port.  State is
    [seen_round, inject_pending]."""

    def start(self, ctx):
        return [None, False]

    def inject(self, state, ctx, payload):
        state[1] = True

    def step(self, state, ctx, round_no, inbox):
        sends: list[tuple[int, object]] = []
        if state[1]:
            sends = broadcast(ctx, "token")
            state[:] = [round_no, False]
        elif state[0] is None:
            arrivals = {port for payload, port in inbox if payload == "token"}
            if arrivals:
                sends = [(p, "token") for p in ctx.ports if p not in arrivals]
                state[0] = round_no
        return StepResult(
            tuple(sends), quiescent=not sends,
            bits=sends_bits(sends, self.payload_bits, ctx.enc),
        )

    def collect(self, state, ctx):
        return state[0]

    def payload_bits(self, payload, enc):
        return enc.tag_bits


class QuietChatter(NodeEngine):
    """Broadcasts every round and reports quiescent from round 3 on, as a
    rule program that keeps re-sending stored facts does."""

    def start(self, ctx):
        return [0]

    def step(self, state, ctx, round_no, inbox):
        state[0] = round_no
        return StepResult(
            tuple(broadcast(ctx, "hi")), quiescent=round_no >= 3,
            bits=ctx.enc.tag_bits,
        )

    def collect(self, state, ctx):
        return state[0]


class Chatterbox(NodeEngine):
    def start(self, ctx):
        return None

    def step(self, state, ctx, round_no, inbox):
        return StepResult(
            tuple(broadcast(ctx, "hi")), quiescent=False, bits=ctx.enc.tag_bits
        )

    def collect(self, state, ctx):
        return None


# ------------------------------------------------------------- loading


def test_load_path3():
    net = load_network(PATH3)
    assert net.n == 3
    assert net.graph.diameter == 2
    assert set(net.ports[2]) == {1, 3}
    assert len(net.ports[2]) == 2


def test_ports_are_consistent_bijections():
    net = load_network("4 4\n1 2\n2 3\n3 4\n4 1\n", port_seed=7)
    for a in net.graph.nodes:
        assert sorted(net.ports[a]) == sorted(net.graph.adj[a])
        for b in net.graph.adj[a]:
            # if some port of a leads to b, some port of b leads back to a
            p = net.port_to[a][b]
            assert net.ports[a][p - 1] == b
            q = net.port_to[b][a]
            assert net.ports[b][q - 1] == a


def test_neighbor_on_port_rejects_ports_outside_one_to_degree():
    net = make_network(path_graph(3))
    assert {net.neighbor_on_port(2, p) for p in (1, 2)} == {1, 3}
    for port in (0, -1, 3):
        with pytest.raises(SimError, match=f"node 2 has no port {port}"):
            net.neighbor_on_port(2, port)


class SendOnPort(NodeEngine):
    """Node 2 sends one message on a given port in round 1."""

    def __init__(self, port):
        self.port = port

    def start(self, ctx):
        return None

    def step(self, state, ctx, round_no, inbox):
        sends = ((self.port, "x"),) if ctx.node_id == 2 and round_no == 1 else ()
        return StepResult(sends, quiescent=not sends, bits=ctx.enc.tag_bits)

    def collect(self, state, ctx):
        return None


@pytest.mark.parametrize("port", [0, -1, 3])
def test_sending_on_a_missing_port_is_an_error(port):
    net = make_network(path_graph(3))
    with pytest.raises(SimError, match=f"node 2 has no port {port}"):
        run(net, SendOnPort(port))
    for good in (1, 2):
        _, metrics = run(net, SendOnPort(good))
        assert metrics.msgs_per_node[2] == 1


def test_ports_deterministic_in_seed():
    a = load_network(PATH3, port_seed=3)
    b = load_network(PATH3, port_seed=3)
    assert a.ports == b.ports


def test_load_rejects_disconnected():
    with pytest.raises(GraphError):
        load_network("4 2\n1 2\n3 4\n")


def test_load_rejects_malformed_edge():
    with pytest.raises(SimError, match="line 2: malformed edge line '1 2 9'"):
        load_network("3 2\n1 2 9\n2 3\n")


def test_load_rejects_non_integer_nodes():
    edge = "line 2: edge '1 a' names a node that is not an integer"
    with pytest.raises(SimError, match=edge):
        load_network("2 1\n1 a\n")
    # int() would read "١ ٢" (Arabic-Indic one and two) as the edge 1-2.
    edge = "line 2: edge '\u0661 \u0662' names a node that is not an integer"
    with pytest.raises(SimError, match=edge):
        load_network("2 1\n\u0661 \u0662\n")
    fact = "line 4: fact 'P x' names a node that is not an integer"
    with pytest.raises(SimError, match=fact):
        load_network("2 1\n1 2\n@facts\nP x\n")


def test_load_rejects_malformed_and_repeated_facts():
    with pytest.raises(SimError, match="line 5: malformed fact line 'P'"):
        load_network("2 1\n1 2\n@facts\nP 1\nP\n")
    repeated = "line 7: fact 'P 1' repeats the fact of line 5"
    with pytest.raises(SimError, match=repeated):
        load_network("2 1\n1 2\n@facts\n# inputs\nP 1\nQ 1\nP 1\n")


def test_load_rejects_bad_header():
    with pytest.raises(SimError):
        load_network("three two\n1 2\n")
    # m = -1 used to slice the header into the fact section.
    with pytest.raises(SimError, match="negative edge count on the first line"):
        load_network("2 -1\n")


@pytest.mark.parametrize("word", ["\u0661", "+1", "1_0", "\uff11"])
def test_load_rejects_non_ascii_integers(word):
    edge = f"line 2: edge '{word} 2' names a node that is not an integer"
    with pytest.raises(SimError, match=re.escape(edge)):
        load_network(f"2 1\n{word} 2\n")
    fact = f"line 4: fact 'P {word}' names a node that is not an integer"
    with pytest.raises(SimError, match=re.escape(fact)):
        load_network(f"2 1\n1 2\n@facts\nP {word}\n")
    with pytest.raises(SimError, match="expected integers on the first line"):
        load_network(f"2 {word}\n1 2\n")


def test_load_rejects_node_outside_range():
    outside = r"line 4: edge '3 9' names node 9 outside 1\.\.3"
    with pytest.raises(SimError, match=outside):
        load_network("3 3\n1 2\n2 3\n3 9\n")
    with pytest.raises(SimError, match="line 2: .* names node 0"):
        load_network("3 2\n0 1\n2 3\n")


def test_load_rejects_duplicate_edge_either_orientation():
    same = "line 4: edge '1 2' repeats the edge of line 2"
    with pytest.raises(SimError, match=same):
        load_network("3 3\n1 2\n2 3\n1 2\n")
    reversed_ = "line 5: edge '3 2' repeats the edge of line 4"
    with pytest.raises(SimError, match=reversed_):
        load_network("# path\n3 3\n1 2\n2 3\n3 2\n")


def test_degree_bound_star():
    star = "4 3\n1 2\n1 3\n1 4\n"
    assert load_network(star).graph.degree_bound == 3


def test_load_facts_section():
    net = load_network("3 2\n1 2\n2 3\n@facts\nReqNode 1\ndest 3\n")
    assert net.graph.unary == {"ReqNode": frozenset({1}), "dest": frozenset({3})}


def test_load_rejects_a_fact_named_like_the_edge_relation():
    named = "line 5: fact 'G 1' names the edge relation"
    with pytest.raises(SimError, match=re.escape(named)):
        load_network("3 2\n1 2\n2 3\n@facts\nG 1\n")


def test_load_facts_unknown_node():
    with pytest.raises(GraphError):
        load_network("3 2\n1 2\n2 3\n@facts\nReqNode 9\n")


def test_network_text_round_trip():
    net = load_network("3 2\n1 2\n2 3\n@facts\ndest 3\n")
    again = load_network(network_text(net.graph))
    assert again.graph.adj == net.graph.adj
    assert again.graph.unary == net.graph.unary


# ------------------------------------------------------------ identity


def test_locally_consistent_ring6():
    net = load_network("6 6\n1 2\n2 3\n3 4\n4 5\n5 6\n6 1\n")
    labels = {i: ((i - 1) % 3) + 1 for i in range(1, 7)}
    assert check_locally_consistent(net.graph, labels, 1)
    assert not check_locally_consistent(net.graph, labels, 2)


def test_local_consistency_needs_a_positive_radius():
    # Radius 0 would hold for any labels: every ball is one node.
    g = load_network("3 2\n1 2\n2 3\n").graph
    for k in (0, -3):
        with pytest.raises(SimError, match="needs a radius k >= 1"):
            check_locally_consistent(g, {1: 1, 2: 1, 3: 1}, k)


def test_make_network_validates_labels():
    net = load_network("6 6\n1 2\n2 3\n3 4\n4 5\n5 6\n6 1\n")
    labels = {i: ((i - 1) % 3) + 1 for i in range(1, 7)}
    mode = IdentityMode("local-consistent", k=2, labels=labels)
    with pytest.raises(SimError):
        make_network(net.graph, mode=mode)
    ok = IdentityMode("local-consistent", k=1, labels=labels)
    lc = make_network(net.graph, mode=ok)
    assert lc.mode.k == 1


def test_missing_labels_are_reported():
    g = load_network("3 2\n1 2\n2 3\n").graph
    with pytest.raises(SimError, match=r"label map misses nodes \[3\]"):
        check_locally_consistent(g, {1: 1, 2: 2}, 1)
    mode = IdentityMode("local-consistent", k=1, labels={1: 1, 2: 2})
    with pytest.raises(SimError, match=r"label map misses nodes \[3\]"):
        make_network(g, mode=mode)


def test_labels_of_unknown_nodes_are_reported():
    g = load_network("3 2\n1 2\n2 3\n").graph
    labels = {1: 1, 2: 2, 3: 3, 99: 5}
    with pytest.raises(SimError, match=r"label map names unknown nodes \[99\]"):
        check_locally_consistent(g, labels, 1)
    mode = IdentityMode("local-consistent", k=1, labels=labels)
    with pytest.raises(SimError, match=r"unknown nodes \[99\]"):
        make_network(g, mode=mode)


def test_parse_identity_mode():
    assert parse_identity_mode("global") is GLOBAL_IDS
    assert parse_identity_mode("anonymous") is ANONYMOUS
    m = parse_identity_mode("local-consistent:2", labels={1: 1})
    assert m.kind == "local-consistent" and m.k == 2
    with pytest.raises(SimError):
        parse_identity_mode("nonsense")
    for text in (
        "local-consistent:x",
        "local-consistent:",
        "local-consistent:\u0663",
        "local-consistent:+1",
        "local-consistent:1_0",
        "local-consistent: 1",
    ):
        needs = f"identity mode '{text}' needs an integer"
        with pytest.raises(SimError, match=re.escape(needs)):
            parse_identity_mode(text, labels={1: 1})


class ContextProbe(NodeEngine):
    def start(self, ctx):
        return ctx

    def step(self, state, ctx, round_no, inbox):
        return StepResult((), quiescent=True)

    def collect(self, state, ctx):
        return state


def test_context_by_mode():
    probe = ContextProbe()
    g = load_network(PATH3 + "@facts\ndest 3\n").graph

    res, _ = run(make_network(g, GLOBAL_IDS), probe)
    ctx = res[2]
    assert ctx.node_id == 2 and ctx.label == 2
    assert sorted(ctx.neighbor_ids.values()) == [1, 3]
    assert ctx.global_unary == {"dest": frozenset({3})}

    res, _ = run(make_network(g, ANONYMOUS), probe)
    ctx = res[2]
    assert ctx.node_id is None and ctx.label is None
    assert ctx.neighbor_ids is None
    assert ctx.global_unary == {}
    assert ctx.diameter == 2
    assert ctx.ports == (1, 2)

    labels = {1: 10, 2: 20, 3: 30}
    mode = IdentityMode("local-consistent", k=1, labels=labels)
    res, _ = run(make_network(g, mode), probe)
    ctx = res[3]
    assert ctx.node_id is None and ctx.label == 30
    # a node with a declared fact sees it locally in every mode
    assert res[3].self_unary == frozenset({"dest"})

    # Anonymous by construction: nodes of equal degree and equal facts get
    # equal contexts but for their private nonces.
    path5 = "5 4\n1 2\n2 3\n3 4\n4 5\n@facts\nP 2\nP 4\n"
    res, _ = run(load_network(path5, ANONYMOUS), probe)
    alike = [
        (a, b)
        for a, b in itertools.combinations(sorted(res), 2)
        if (res[a].ports, res[a].self_unary) == (res[b].ports, res[b].self_unary)
    ]
    assert alike == [(1, 5), (2, 4)]
    for a, b in alike:
        assert res[a].nonce != res[b].nonce
        blank = [dataclasses.replace(res[x], nonce=0) for x in (a, b)]
        assert blank[0] == blank[1]


def test_nonces_are_distinct_where_collection_waves_can_meet():
    """Two FP-loc collection waves at radius k reach 2k+1 hops from their
    initiators, so they can meet at one node when the initiators lie within
    2(2k+1) hops.  No node can tell two waves with equal nonces apart, so
    the simulator's nonces must differ within every such span; a collision
    there goes unnoticed and gives a wrong relation."""
    graphs = [g for _, g in exhaustive_graphs(5)]
    graphs += [ring_graph(512), grid_graph(30, 30)]
    for g in graphs:
        net = make_network(g, ANONYMOUS)
        nonce = {a: _context_for(net, a).nonce for a in g.nodes}
        for k in (1, 2):
            for a in g.nodes:
                near = [nonce[b] for b in g.neighborhood_nodes(a, 2 * (2 * k + 1))]
                assert len(set(near)) == len(near), (g.n, k, a)


def test_nonces_are_distinct_for_every_node_up_to_ten_thousand():
    """The nonces of node ids 1..10,000 are pairwise distinct, so no two
    collection waves share a nonce on any graph whose nodes are numbered
    within 1..10^4, as the ring, grid and path constructors number them,
    whatever its diameter and radius k."""
    nonces = {simnet._nonce(a) for a in range(1, 10_001)}
    assert len(nonces) == 10_000


def _unmix(x):
    """The inverse of `simnet._nonce`'s mix: the xorshift by half the word
    undoes itself, and the odd multiplier has an inverse mod 2**32."""
    x ^= x >> 16
    return x * pow(0x9E3779B1, -1, 1 << 32) % (1 << 32)


def test_the_nonce_map_is_a_bijection_of_32_bit_words():
    """`_nonce` has an inverse on 0..2**32-1, so nodes numbered within that
    range get distinct nonces however many there are."""
    rng = random.Random(36)
    words = [0, 1, 2**32 - 1] + [rng.getrandbits(32) for _ in range(10_000)]
    for a in words:
        x = simnet._nonce(a)
        assert 0 <= x < 2**simnet._NONCE_BITS
        assert _unmix(x) == a


# ------------------------------------------------------------- running


def test_silent_engine_one_round():
    net = load_network(PATH3)
    res, metrics = run(net, SilentEngine())
    assert metrics.dist_time == 1
    assert metrics.total_msgs == 0
    assert metrics.max_msg_bits == 0
    assert metrics.max_in_steps_per_round == 1


def test_flood_once_dist_time_equals_diameter():
    net = load_network(PATH3)
    res, metrics = run(net, FloodOnce(), init={1: "go"})
    assert metrics.dist_time == 2 == net.graph.diameter
    # arrival rounds witness the synchrony invariant: sent in r, seen in r+1
    assert res == {1: 1, 2: 2, 3: 3}
    assert metrics.msgs_per_node == {1: 1, 2: 1, 3: 0}
    assert metrics.max_msg_bits == 8


def test_flood_once_ring():
    net = load_network("5 5\n1 2\n2 3\n3 4\n4 5\n5 1\n")
    res, metrics = run(net, FloodOnce(), init={1: "go"})
    # the two flood frontiers cross once at the far side of the ring,
    # adding one delivery round past the diameter
    assert metrics.dist_time == net.graph.diameter + 1 == 3
    assert res[3] == 3 and res[4] == 3


def test_broadcast_counts_degree_messages():
    net = load_network("4 3\n1 2\n1 3\n1 4\n")
    _, metrics = run(net, FloodOnce(), init={1: "go"})
    assert metrics.msgs_per_node[1] == 3


def test_run_deterministic():
    net = load_network("5 5\n1 2\n2 3\n3 4\n4 5\n5 1\n", port_seed=11)
    first = run(net, FloodOnce(), init={2: "go"})
    assert run(net, FloodOnce(), init={2: "go"}) == first


class SendTwice(NodeEngine):
    """Every node but 1 sends two tagged copies of its number on port 1 in
    round 1; every node records the payloads of its inboxes in order."""

    def start(self, ctx):
        return []

    def step(self, state, ctx, round_no, inbox):
        state.extend(payload for payload, _ in inbox)
        if round_no > 1 or ctx.node_id == 1:
            return StepResult((), quiescent=True)
        sends = ((1, ("a", ctx.node_id)), (1, ("b", ctx.node_id)))
        return StepResult(sends, quiescent=False, bits=1)

    def collect(self, state, ctx):
        return state


def test_run_delivers_in_send_order():
    # Senders step in ascending node order, and each one's sends arrive in
    # the order the step listed them.
    res, _ = run(make_network(star_graph(5), port_seed=3), SendTwice())
    assert res[1] == [(tag, b) for b in range(2, 6) for tag in "ab"]


def test_run_ends_when_every_node_is_quiescent():
    # The sends of round 3, in which every node is quiescent, are neither
    # delivered nor counted.
    res, metrics = run(load_network(PATH3), QuietChatter())
    assert res == {1: 3, 2: 3, 3: 3}
    assert metrics.dist_time == 2
    assert metrics.msgs_per_node == {1: 2, 2: 4, 3: 2}


def test_no_query_engine_is_quiescent_while_sending(monkeypatch):
    # The run ends in the first round in which every node is quiescent and
    # drops that round's sends, so an engine that reported quiescent while
    # sending could lose messages.
    sending = {}
    for cls in (FOQueryEngine, FPQueryEngine, FOLocEngine, FPLocEngine):
        def checked(self, *args, _step=cls.step, _cls=cls):
            res = _step(self, *args)
            assert not (res.quiescent and res.sends), _cls.__name__
            sending[_cls] = sending.get(_cls, 0) + bool(res.sends)
            return res

        monkeypatch.setattr(cls, "step", checked)
    fo_loc = relativize(parse_formula(TWO_HOP_TEXT), "x", 1)
    tc_loc = relativize_fixpoint(parse_fixpoint(TRANSITIVE_CLOSURE_TEXT), 1)
    span_loc = relativize_fixpoint(parse_fixpoint(SPANNING_TREE_TEXT), 1)
    for g in (path_graph(4), ring_graph(5), grid_graph(2, 3)):
        g = g.with_unary({"ReqNode": [1]})
        net = make_network(g)
        run_qe_fo(net, TWO_HOP_TEXT, 1)
        run_qe_fp(net, TRANSITIVE_CLOSURE_TEXT, 1)
        labels = {a: 10 + a for a in g.nodes}
        for mode in (
            GLOBAL_IDS,
            IdentityMode("local-consistent", k=1, labels=labels),
            ANONYMOUS,
        ):
            net = make_network(g, mode)
            run_qe_fo_loc(net, fo_loc, 1)
            run_qe_fp_loc(net, tc_loc, 1)
            if mode is not ANONYMOUS:
                run_qe_fp_loc(net, span_loc, 1)
    assert len(sending) == 4 and all(sending.values())


def test_round_cap_diagnostic():
    net = load_network(PATH3)
    with pytest.raises(RoundCapError) as err:
        run(net, Chatterbox(), round_cap=17)
    assert err.value.metrics.dist_time == 17
    assert err.value.metrics.msgs_per_node[2] == 2 * 17
    assert set(err.value.results) == {1, 2, 3}


@pytest.mark.parametrize("cap", [0, -5])
def test_run_rejects_a_non_positive_round_cap(cap):
    net = load_network(PATH3)
    named = f"round cap {cap} is not a positive number of rounds"
    with pytest.raises(SimError, match=named):
        run(net, SilentEngine(), round_cap=cap)
    with pytest.raises(SimError, match=named):
        run_qe_fo(make_network(path_graph(3)), HAS_NEIGHBOR_TEXT, 1, round_cap=cap)


class Unsized(SendOnPort):
    """Node 2 sends on port 1 in round 1 and reports `bits` for it."""

    def __init__(self, bits):
        super().__init__(1)
        self.bits = bits

    def step(self, state, ctx, round_no, inbox):
        return super().step(state, ctx, round_no, inbox)._replace(bits=self.bits)


@pytest.mark.parametrize("bits", [0, -3])
def test_a_step_that_sends_less_than_one_bit_is_an_error(bits):
    with pytest.raises(SimError, match="a message must be at least one bit"):
        run(make_network(path_graph(3)), Unsized(bits))
    _, metrics = run(make_network(path_graph(3)), Unsized(5))
    assert metrics.max_msg_bits == 5


def test_inject_unknown_node():
    net = load_network(PATH3)
    with pytest.raises(SimError):
        run(net, FloodOnce(), init={9: "go"})


def test_silent_engine_rejects_injection():
    net = load_network(PATH3)
    with pytest.raises(SimError):
        run(net, SilentEngine(), init={1: "go"})


# ------------------------------------------------- event-driven stepping


def reference_run(net, engine, init=None, seed=0, round_cap=10_000):
    """A plain simulator that steps every node in every round, shuffles
    every in-buffer by a generator seeded with (seed, round, node) and sizes
    every message: `run`, which delivers in send order, must match it on
    every engine, since the steps `run` skips are no-ops and an in-buffer
    is a multiset."""
    g = net.graph
    contexts = {a: _context_for(net, a) for a in g.nodes}
    states = {a: engine.start(contexts[a]) for a in g.nodes}
    for a, payload in (init or {}).items():
        if a not in states:
            raise SimError(f"init references unknown node {a}")
        engine.inject(states[a], contexts[a], payload)
    inboxes = {a: [] for a in g.nodes}
    msgs_sent = {a: 0 for a in g.nodes}
    max_bits = max_steps = deliveries = 0

    def outcome():
        metrics = Metrics(
            dist_time=max(deliveries, 1),
            msgs_per_node=dict(msgs_sent),
            max_msg_bits=max_bits,
            max_in_steps_per_round=max_steps,
        )
        return {a: engine.collect(states[a], contexts[a]) for a in g.nodes}, metrics

    for round_no in range(1, round_cap + 1):
        all_quiet = True
        sends = {}
        for a in g.nodes:
            res = engine.step(states[a], contexts[a], round_no, tuple(inboxes[a]))
            inboxes[a] = []
            sends[a] = res.sends
            max_steps = max(max_steps, res.steps)
            all_quiet = all_quiet and res.quiescent
        if all_quiet:
            return outcome()
        if any(sends.values()):
            for a in g.nodes:
                for port, payload in sends[a]:
                    b = net.neighbor_on_port(a, port)
                    inboxes[b].append((payload, net.port_to[b][a]))
                    msgs_sent[a] += 1
                    max_bits = max(max_bits, engine.payload_bits(payload, net.enc))
            deliveries += 1
            for b in g.nodes:
                rng = random.Random(seed * 2_654_435_761 + round_no * 40_503 + b)
                rng.shuffle(inboxes[b])
    results, metrics = outcome()
    raise RoundCapError("round cap exceeded", metrics, results)


DIFFERENTIAL_GRAPHS = {
    "path": path_graph(4),
    "ring": ring_graph(5),
    "grid": grid_graph(2, 3),
    "star": star_graph(5),
}


# Reachability from the node with the ReqNode fact: the cheapest fixpoint
# the global engine runs on these graphs.  Relativized, it keeps FP-loc nodes
# behind its wave quiescent while nodes ahead still work.
REACH_TEXT = "mu R(x). ReqNode(x) | (exists y. (R(y) & G(y,x)))"


@pytest.mark.parametrize("shape", sorted(DIFFERENTIAL_GRAPHS))
def test_run_matches_stepping_every_node(monkeypatch, shape):
    """Every engine family, run through its entry point, collects the same
    results with the same metrics as under the every-node reference, in
    every identity mode it accepts, for port seeds 0-2 and reference
    in-buffer shuffles seeded 0-2 (the costly global engines for equal
    seeds only).  Each node sends the same messages, in the same order, with
    the same `steps`, in the same rounds under both: the steps the reference
    adds are no-ops and send nothing, and its shuffled in-buffers may not
    reach a send.  Every step reports as `bits` the largest `payload_bits`
    among its sends."""
    compared = []
    g = DIFFERENTIAL_GRAPHS[shape].with_unary({"ReqNode": [1]})
    node_of = {simnet._nonce(a): a for a in g.nodes}  # a context names no node
    assert len(node_of) == g.n
    sent = {}  # (round, node) -> (sends, steps) of each step that sends

    def sized(self, state, ctx, round_no, inbox, _step):
        res = _step(self, state, ctx, round_no, inbox)
        assert res.bits == max(
            (self.payload_bits(p, ctx.enc) for _, p in res.sends), default=0
        ), type(self).__name__
        if res.sends:
            sent[round_no, node_of[ctx.nonce]] = (res.sends, res.steps)
        return res

    for cls in (FOQueryEngine, FPQueryEngine, FOLocEngine, FPLocEngine, NetlogEngine):
        monkeypatch.setattr(cls, "step", partialmethod(sized, _step=cls.step))

    def both(net, engine, init=None, round_cap=10_000):
        where = (type(engine).__name__, net.mode.kind, ref_seed)
        sent.clear()
        expected = reference_run(net, engine, init, ref_seed, round_cap)
        expected_sent = dict(sent)
        assert expected_sent, where
        sent.clear()
        got = run(net, engine, init, round_cap=round_cap)
        assert got == expected, where
        assert sent == expected_sent, where
        compared.append(type(engine).__name__)
        return got

    monkeypatch.setattr(simnet, "run", both)
    fo_loc = relativize(parse_formula(TWO_HOP_TEXT), "x", 1)
    tc_loc = relativize_fixpoint(parse_fixpoint(TRANSITIVE_CLOSURE_TEXT), 1)
    reach_loc = relativize_fixpoint(parse_fixpoint(REACH_TEXT), 1)
    program = compile_program(TRANSITIVE_CLOSURE_DATALOG, g.diameter).program
    labels = {a: 10 + a for a in g.nodes}
    modes = (
        GLOBAL_IDS,
        IdentityMode("local-consistent", k=1, labels=labels),
        ANONYMOUS,
    )
    for port_seed in (0, 1, 2):
        for mode in modes:
            net = make_network(g, mode, port_seed=port_seed)
            for ref_seed in (0, 1, 2):  # read by `both`
                if mode is GLOBAL_IDS:
                    if ref_seed == port_seed:
                        run_qe_fo(net, HAS_NEIGHBOR_TEXT, 1)
                        run_qe_fp(net, REACH_TEXT, 2)
                    run_netlog(program, net)
                run_qe_fo_loc(net, fo_loc, 1)
                run_qe_fp_loc(net, tc_loc, 1)
                run_qe_fp_loc(net, reach_loc, 2)
    assert sorted(set(compared)) == [
        "FOLocEngine", "FOQueryEngine", "FPLocEngine", "FPQueryEngine",
        "NetlogEngine",
    ]
    assert len(compared) == 3 * (2 + 3 + 3 * 3 * len(modes))


def test_fp_loc_node_steps_do_not_grow_with_the_ring(monkeypatch):
    # DIST-TIME grows as n/2 while each node does a fixed amount of work;
    # a node with no mail and no wake-up due is not stepped, so node steps
    # per node stay flat too.
    steps = [0]

    def counted(self, *args, _step=FPLocEngine.step):
        steps[0] += 1
        return _step(self, *args)

    monkeypatch.setattr(FPLocEngine, "step", counted)
    tc_loc = relativize_fixpoint(parse_fixpoint(TRANSITIVE_CLOSURE_TEXT), 1)
    per_node = {}
    for n in (64, 128, 256):
        steps[0] = 0
        _, metrics = run_qe_fp_loc(make_network(ring_graph(n), ANONYMOUS), tc_loc, 1)
        assert metrics.dist_time == n // 2 + 9
        per_node[n] = steps[0] / n
    assert per_node[256] <= 1.05 * per_node[64], per_node


# driver -> (query text, its parser, network of n nodes, parses per run
# from the text)
QUERY_READS = {
    "fo": (
        run_qe_fo, TWO_HOP_TEXT, parse_formula,
        lambda n: make_network(path_graph(n)), 1,
    ),
    "fp": (
        run_qe_fp, TRANSITIVE_CLOSURE_TEXT, parse_fixpoint,
        lambda n: make_network(path_graph(n)), 2,
    ),
    "fo-loc": (
        run_qe_fo_loc, "exists y in N^1(x). G(x,y)", parse_formula,
        lambda n: make_network(ring_graph(n), ANONYMOUS), 2,
    ),
    "fp-loc": (
        run_qe_fp_loc,
        "mu T(x,y). (G(x,y) | (exists z in N^1(x). T(x,z) & G(z,y)))"
        " & y in N^1(x)",
        parse_fixpoint,
        lambda n: make_network(ring_graph(n), ANONYMOUS), 2,
    ),
}


@pytest.mark.parametrize("case", sorted(QUERY_READS))
def test_each_run_parses_its_query_a_fixed_number_of_times(monkeypatch, case):
    """A driver given a text parses it once, and the engine it builds
    reads the query once for every node (it prints the query and parses
    the printed text); the FO engine keeps the formula it is given.  So a
    run parses a fixed number of times: the same on 3 nodes as on 6, in
    every run, and one fewer when the driver is given a parsed query."""
    driver, text, parse, network, want = QUERY_READS[case]
    query = parse(text)
    parses = [0]
    real = logic._Parser.__init__

    def counted(self, text):
        parses[0] += 1
        real(self, text)

    monkeypatch.setattr(logic._Parser, "__init__", counted)
    for n in (3, 6, 3):
        for given, extra in ((text, 0), (query, -1)):
            parses[0] = 0
            driver(network(n), given, 1)
            assert parses[0] == want + extra, (n, given)


# engine -> (the text of the query it is built from, the text of another
# query, their parser, a network)
INJECTED_QUERIES = {
    "fo": (
        FOQueryEngine, TWO_HOP_TEXT, HAS_NEIGHBOR_TEXT, parse_formula,
        lambda: make_network(path_graph(3)),
    ),
    "fp": (
        FPQueryEngine, TRANSITIVE_CLOSURE_TEXT, SPANNING_TREE_TEXT,
        parse_fixpoint, lambda: make_network(path_graph(3)),
    ),
    "fo-loc": (
        FOLocEngine,
        "exists y in N^1(x). G(x,y)",
        "exists y in N^1(x). exists z in N^1(x). (G(x,y) & G(x,z) & y != z)",
        parse_formula,
        lambda: make_network(ring_graph(5), ANONYMOUS),
    ),
    "fp-loc": (
        FPLocEngine,
        "mu T(x,y). (G(x,y) | (exists z in N^1(x). T(x,z) & G(z,y)))"
        " & y in N^1(x)",
        "mu T(x). exists y in N^1(x). (G(x,y) & !T(y))",
        parse_fixpoint,
        lambda: make_network(ring_graph(5), ANONYMOUS),
    ),
}


@pytest.mark.parametrize("case", sorted(INJECTED_QUERIES))
def test_an_engine_runs_only_the_query_it_was_built_from(case):
    """`simnet.run` injects its `init` payload at the requester.  A query
    engine is built from its run's query, so a payload that is another
    query raises EngineError, before any node steps; the query itself, or
    an equal one read from the same text, runs."""
    engine, text, other, parse, network = INJECTED_QUERIES[case]
    built, foreign = parse(text), parse(other)
    assert foreign != built
    steps = []

    class Counted(engine):
        def step(self, state, ctx, round_no, inbox):
            steps.append(round_no)
            return super().step(state, ctx, round_no, inbox)

    with pytest.raises(EngineError, match="injected query is not the engine's"):
        simnet.run(network(), Counted(built), {1: foreign})
    with pytest.raises(EngineError, match="injected query is not the engine's"):
        simnet.run(network(), Counted(built), {1: text})
    assert steps == []
    want = simnet.run(network(), engine(built), {1: built})
    assert simnet.run(network(), engine(built), {1: parse(text)}) == want


class Stuck(NodeEngine):
    """Never quiescent, never sends, asks for no wake-up; fails once it is
    stepped more than `limit` times."""

    def __init__(self, limit):
        self.limit = limit
        self.steps = 0

    def start(self, ctx):
        return None

    def step(self, state, ctx, round_no, inbox):
        self.steps += 1
        assert self.steps <= self.limit, "an idle node was stepped"
        return StepResult((), quiescent=False)

    def collect(self, state, ctx):
        return None


def test_round_cap_is_raised_without_spinning():
    # Nothing can ever change, so the run stops after round 1 instead of
    # stepping idle nodes up to the cap.
    net = load_network(PATH3)
    engine = Stuck(limit=net.n)
    with pytest.raises(RoundCapError) as err:
        run(net, engine, round_cap=10**6)
    assert engine.steps == net.n
    assert err.value.metrics.dist_time == 1
    assert set(err.value.results) == {1, 2, 3}


class Alarm(NodeEngine):
    """Node 1 sleeps until round `at` with nothing in flight; each node
    records the rounds it was stepped in."""

    def __init__(self, at):
        self.at = at

    def start(self, ctx):
        return []

    def step(self, state, ctx, round_no, inbox):
        state.append(round_no)
        waiting = ctx.node_id == 1 and round_no < self.at
        return StepResult(
            (), quiescent=not waiting, wake_at=self.at if waiting else None
        )

    def collect(self, state, ctx):
        return state


def test_run_jumps_to_the_next_wake_up():
    res, metrics = run(load_network(PATH3), Alarm(at=50))
    assert res == {1: [1, 50], 2: [1], 3: [1]}
    assert metrics.dist_time == 1
    with pytest.raises(RoundCapError):
        run(load_network(PATH3), Alarm(at=50), round_cap=49)


class Snooze(Alarm):
    """Asks to wake in the round it is in."""

    def step(self, state, ctx, round_no, inbox):
        return StepResult((), quiescent=False, wake_at=round_no)


def test_wake_up_must_lie_ahead():
    with pytest.raises(SimError, match="in round 1 to wake in round 1"):
        run(load_network(PATH3), Snooze(at=1))


class Script(NodeEngine):
    """Node `a`'s step in round r follows `plan[a][r]`, a (wake_at, nodes to
    send to) pair; in a round its plan leaves out it asks for no wake-up and
    sends nothing.  A node is quiescent unless it asks for a wake-up, and
    each node records the rounds it was stepped in."""

    def __init__(self, plan):
        self.plan = plan

    def start(self, ctx):
        return []

    def step(self, state, ctx, round_no, inbox):
        state.append(round_no)
        wake_at, to = self.plan.get(ctx.node_id, {}).get(round_no, (None, ()))
        port_of = {b: p for p, b in ctx.neighbor_ids.items()}
        sends = tuple((port_of[b], "ping") for b in to)
        return StepResult(
            sends, quiescent=wake_at is None, wake_at=wake_at, bits=len(sends)
        )

    def collect(self, state, ctx):
        return state


# name -> (plan on the path 1-2-3, the rounds each node steps in).  Node 2
# wakes in round 2 to mail node 1, which steps in round 3 and replaces the
# wake-up it asked for in round 1; node 3, where it waits, keeps the run
# going past the replaced round.
WAKE_UP_SCRIPTS = {
    # Asked for 50, then for 30: it steps in 30 and not in 50.
    "replaced-by-an-earlier-round": (
        {
            1: {1: (50, ()), 3: (30, ())},
            2: {1: (2, ()), 2: (None, (1,))},
            3: {1: (60, ())},
        },
        {1: [1, 3, 30], 2: [1, 2, 3], 3: [1, 60]},
    ),
    # Asked for 50, then for nothing: it never steps again.
    "cancelled": (
        {1: {1: (50, ())}, 2: {1: (2, ()), 2: (None, (1,))}, 3: {1: (60, ())}},
        {1: [1, 3], 2: [1, 2, 3], 3: [1, 60]},
    ),
    # Asked for 40, then for 40 again: it steps in 40 once.
    "asked-again": (
        {1: {1: (40, ()), 3: (40, ())}, 2: {1: (2, ()), 2: (None, (1,))}},
        {1: [1, 3, 40], 2: [1, 2, 3], 3: [1]},
    ),
    # Asked for 40, then 45, then 40 again (mailed again in round 5): it
    # steps in 40 once and not in 45.
    "asked-back": (
        {
            1: {1: (40, ()), 3: (45, ()), 5: (40, ())},
            2: {1: (2, ()), 2: (4, (1,)), 3: (4, ()), 4: (None, (1,))},
        },
        {1: [1, 3, 5, 40], 2: [1, 2, 3, 4, 5], 3: [1]},
    ),
    # Node 1's request for 30 is replaced by one for 50 while node 3 waits
    # for 40: the idle jump passes the stale 30 and lands on 40.
    "idle-jump-past-a-stale-request": (
        {1: {1: (30, ()), 2: (50, ())}, 2: {1: (None, (1,))}, 3: {1: (40, ())}},
        {1: [1, 2, 50], 2: [1, 2], 3: [1, 40]},
    ),
    # Node 1 asked for 30 and then for 50, and node 3 asks for 30: the
    # jump lands on 30, where only node 3 steps.
    "stale-and-live-in-one-round": (
        {1: {1: (30, ()), 2: (50, ())}, 2: {1: (None, (1,))}, 3: {1: (30, ())}},
        {1: [1, 2, 50], 2: [1, 2], 3: [1, 30]},
    ),
}


@pytest.mark.parametrize("case", sorted(WAKE_UP_SCRIPTS))
def test_a_later_report_replaces_the_wake_up_asked_for(case):
    """Only the wake-up of a node's last report counts: one it replaced or
    cancelled steps it in no round, and a round asked for twice steps it
    once."""
    plan, rounds = WAKE_UP_SCRIPTS[case]
    res, metrics = run(load_network(PATH3), Script(plan), round_cap=100)
    assert res == rounds
    sends = sum(len(to) for steps in plan.values() for _, to in steps.values())
    assert metrics.total_msgs == sends


# ------------------------------------------------------- delivery order


def _sg_run(seed):
    g = grid_graph(3, 3)
    program = compile_program(SAME_GENERATION_DATALOG, g.diameter).program
    return run_netlog(program, make_network(g, port_seed=seed))


def _two_hop_run(seed):
    net = make_network(ring_graph(8), port_seed=seed)
    return run_qe_fo(net, TWO_HOP_TEXT, 1)


def _tc_run(seed):
    net = make_network(path_graph(5), port_seed=seed)
    return run_qe_fp(net, TRANSITIVE_CLOSURE_TEXT, 1)


DEG2 = "exists y in N^1(x). exists z in N^1(x). (G(x,y) & G(x,z) & y != z)"


def _deg2_loc_run(seed):
    net = make_network(grid_graph(3, 3), ANONYMOUS, port_seed=seed)
    return run_qe_fo_loc(net, DEG2, 1)


def _tc_loc_run(seed):
    net = make_network(ring_graph(8), ANONYMOUS, port_seed=seed)
    tc_loc = relativize_fixpoint(parse_fixpoint(TRANSITIVE_CLOSURE_TEXT), 1)
    return run_qe_fp_loc(net, tc_loc, 1)


def _reach_loc_run(seed):
    """FP-loc reachability at radius 2, whose informs (("N", 2)) are relayed
    as ("N", 1); fails unless some step relays one, so that the case keeps
    covering the relay."""
    g = grid_graph(3, 3).with_unary({"ReqNode": [1]})
    net = make_network(g, ANONYMOUS, port_seed=seed)
    reach_loc = relativize_fixpoint(parse_fixpoint(REACH_TEXT), 2)
    relays = [0]
    step = FPLocEngine.step

    def counting(self, state, ctx, round_no, inbox):
        res = step(self, state, ctx, round_no, inbox)
        relays[0] += sum(p == ("N", 1) for _, p in res.sends)
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FPLocEngine, "step", counting)
        out = run_qe_fp_loc(net, reach_loc, 1)
    assert relays[0] > 0
    return out, relays[0]


# Every package engine, with a run whose steps are pinned: the SG program in
# test_netlog, the global engines in test_engine_fo, FO-loc DEG2 and FP-loc
# TC in test_local_engine; the FP-loc reachability run adds relayed informs.
SET_READERS = {
    "netlog-sg-grid-3x3": (NetlogEngine, _sg_run),
    "fo-two-hop-ring-8": (FOQueryEngine, _two_hop_run),
    "fp-tc-path-5": (FPQueryEngine, _tc_run),
    "fo-loc-deg2-grid-3x3": (FOLocEngine, _deg2_loc_run),
    "fp-loc-tc-ring-8": (FPLocEngine, _tc_loc_run),
    "fp-loc-reach-grid-3x3": (FPLocEngine, _reach_loc_run),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("case", sorted(SET_READERS))
def test_set_reading_engines_do_not_depend_on_delivery_order(
    permuted_inboxes, case, seed
):
    """An engine reads its inbox as a multiset.  With every inbox permuted
    before the step reads it, the inboxes arrive in other orders, yet every
    step reports the same (round, sends, steps, quiescence, wake-up), whose
    digest the step pins fix, and the run ends with the same result and
    metrics."""
    engine, call = SET_READERS[case]
    real = engine.step

    def run_recording(permute):
        digest, inboxes = hashlib.sha256(), []

        def recording(self, state, ctx, round_no, inbox):
            inboxes.append(inbox)
            res = real(self, state, ctx, round_no, inbox)
            digest.update(
                repr(
                    (round_no, res.sends, res.steps, res.quiescent, res.wake_at)
                ).encode()
            )
            return res

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "step", recording)
            if not permute:
                return call(seed), inboxes, digest.hexdigest()
            with permuted_inboxes(engine, seed) as moved:
                out = call(seed), inboxes, digest.hexdigest()
            assert any(moved)
            return out

    plain, plain_inboxes, plain_digest = run_recording(False)
    permuted, permuted_boxes, permuted_digest = run_recording(True)
    assert permuted == plain
    assert permuted_digest == plain_digest
    assert permuted_boxes != plain_inboxes
    assert [Counter(box) for box in permuted_boxes] == [
        Counter(box) for box in plain_inboxes
    ]


def test_every_set_reading_engine_has_a_delivery_order_case():
    """Every leaf of the package's engine classes has a case in
    SET_READERS, so a new engine needs a delivery-order case there."""

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    package = {
        c for c in subclasses(NodeEngine) if c.__module__.startswith("netquery.")
    }
    engines = {c for c in package if not package.intersection(c.__subclasses__())}
    assert {FOLocEngine, FPLocEngine} <= engines
    assert engines == {engine for engine, _ in SET_READERS.values()}


@pytest.mark.parametrize("case", sorted(SET_READERS))
def test_every_node_result_is_a_frozenset(monkeypatch, case):
    """A node's result is its answer fragment, a plain frozenset: results
    outlive the run, and the first collection after it scans them."""
    real, results = simnet.run, []

    def recording(*args, **kw):
        out = real(*args, **kw)
        results.append(out[0])
        return out

    monkeypatch.setattr(simnet, "run", recording)
    SET_READERS[case][1](0)
    assert results
    for res in results:
        assert {type(r) for r in res.values()} == {frozenset}


TC_LOC = relativize_fixpoint(parse_fixpoint(TRANSITIVE_CLOSURE_TEXT), 1)


@pytest.mark.parametrize("engine,query", [
    (FOLocEngine(parse_formula(DEG2)), parse_formula(DEG2)),
    (FPLocEngine(TC_LOC), TC_LOC),
])
def test_local_results_reach_no_topology(engine, query):
    """A local engine's node result holds its rows, not the ball the node
    reconstructed: no LocalTopology can be reached from the results."""
    net = make_network(grid_graph(3, 3), ANONYMOUS)
    results, _ = simnet.run(net, engine, {1: query}, round_cap=400)
    assert all(results.values())
    seen, todo = set(), [results]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, LocalTopology)
        todo.extend(gc.get_referents(obj))
    assert len(seen) > 2 * len(results)


def _reachable(root):
    """Every object reachable from `root` by `gc.get_referents`, without
    entering classes, modules or functions: a node state holds no
    function, and the compiled checks it runs are its engine's, made when
    the engine is built."""
    seen, todo, out = set(), [root], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(
            obj, (type, types.ModuleType, types.FunctionType)
        ):
            continue
        seen.add(id(obj))
        out.append(obj)
        todo.extend(gc.get_referents(obj))
    return out


def _is_ball(obj):
    """A reconstructed ball: a LocalTopology, or a dict of collection rows
    (trace -> row whose first field is that trace)."""
    return isinstance(obj, LocalTopology) or isinstance(obj, dict) and any(
        isinstance(row, tuple) and len(row) == 4 and row[0] == trace
        for trace, row in obj.items()
    )


@pytest.mark.parametrize("engine,query,part", [
    (FOLocEngine, parse_formula(DEG2), lambda state: state),
    (
        FPLocEngine,
        relativize_fixpoint(parse_fixpoint(TRANSITIVE_CLOSURE_TEXT), 1),
        lambda state: state.collector,
    ),
], ids=["fo-loc", "fp-loc"])
def test_local_nodes_let_go_of_their_ball(engine, query, part):
    """Once FO-loc has evaluated, nothing of the ball can be reached from a
    node's state; once FP-loc has its topology, its collector holds no
    rows.  Walked from every node's state when the run collects it."""
    held, walked = [], []

    class Walking(engine):
        def collect(self, state, ctx):
            reached = _reachable(part(state))
            walked.append(len(reached))
            held.extend(type(obj).__name__ for obj in reached if _is_ball(obj))
            return super().collect(state, ctx)

    net = make_network(grid_graph(3, 3), ANONYMOUS)
    results, _ = simnet.run(net, Walking(query), {1: query}, round_cap=400)
    assert all(results.values())
    assert len(walked) == 9 and min(walked) > 3
    assert held == []


# ------------------------------------------------- the cyclic collector


# One small run per engine family, each through its driver from query text
# (or, for netlog, from a freshly compiled program, whose plans are
# generated inside the run).
CYCLE_CASES = {
    "fo": lambda: run_qe_fo(make_network(ring_graph(4)), TWO_HOP_TEXT, 1),
    "fp": lambda: run_qe_fp(make_network(path_graph(3)), TRANSITIVE_CLOSURE_TEXT, 1),
    "fo-loc": lambda: run_qe_fo_loc(
        make_network(grid_graph(2, 3), ANONYMOUS), DEG2, 1
    ),
    "fp-loc": lambda: run_qe_fp_loc(
        make_network(ring_graph(6), ANONYMOUS),
        relativize_fixpoint(parse_fixpoint(TRANSITIVE_CLOSURE_TEXT), 1),
        1,
    ),
    "netlog": lambda: run_netlog(
        compile_program(TRANSITIVE_CLOSURE_DATALOG, 2).program,
        make_network(path_graph(3)),
    ),
}


@pytest.mark.parametrize("case", sorted(CYCLE_CASES))
def test_runs_leave_no_cyclic_garbage(case):
    """`run` pauses the cyclic collector, which is sound only while
    reference counting frees everything a run drops.  Run with the
    collector off, each engine family leaves nothing for a collection to
    find; a failure names the functions among the garbage (a nested
    function that calls itself is a cycle)."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        CYCLE_CASES[case]()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        leaked = Counter(
            o.__qualname__ for o in gc.garbage if isinstance(o, types.FunctionType)
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert found == 0, f"{found} objects in cycles, among them {dict(leaked)}"


class CollectorProbe(FloodOnce):
    """Records at each step whether the collector is on, then steps as
    `then` does."""

    def __init__(self, then):
        self.then = then
        self.seen = set()

    def step(self, state, ctx, round_no, inbox):
        self.seen.add(gc.isenabled())
        return self.then(self, state, ctx, round_no, inbox)


def failing_step(self, state, ctx, round_no, inbox):
    raise EngineError("the step failed")


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("then, error", [
    (FloodOnce.step, None),
    (Chatterbox.step, RoundCapError),
    (Snooze.step, SimError),
    (failing_step, EngineError),
], ids=["return", "round-cap", "wake-up", "engine-error"])
def test_run_pauses_the_collector_and_restores_it(then, error, enabled):
    """Every step runs with the collector off, and `run` leaves it as it
    found it: after a normal return, a `RoundCapError`, the `SimError` of a
    wake-up that is not ahead, and an engine's own error from a step."""
    engine = CollectorProbe(then)
    net = load_network(PATH3)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            run(net, engine, init={1: "go"})
        else:
            with pytest.raises(error):
                run(net, engine, init={1: "go"}, round_cap=5)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert engine.seen == {False}


# ------------------------------------------------------------- metrics


def test_encoding_params():
    enc = encoding_for(6, 3)
    assert enc.id_bits == 3
    assert enc.port_bits == 2
    assert enc.tag_bits == 8
    assert enc.text_bits("ab") == 16
    tiny = encoding_for(2, 1)
    assert tiny.id_bits == 1 and tiny.port_bits == 1


def test_metrics_report_csv():
    m = Metrics(
        dist_time=4,
        msgs_per_node={1: 2, 2: 0},
        max_msg_bits=16,
        max_in_steps_per_round=3,
    )
    assert metrics_report(m, "csv") == (
        "measure,node,value\n"
        "IN-TIME/ROUND,,3\n"
        "DIST-TIME,,4\n"
        "MSG-SIZE,,16\n"
        "#MSG/NODE,1,2\n"
        "#MSG/NODE,2,0\n"
    )


def test_metrics_report_table():
    m = Metrics(
        dist_time=4,
        msgs_per_node={1: 2},
        max_msg_bits=16,
        max_in_steps_per_round=3,
    )
    text = metrics_report(m, "table")
    lines = text.splitlines()
    assert lines[0].split() == ["IN-TIME/ROUND", "3"]
    assert lines[1].split() == ["DIST-TIME", "4"]
    assert lines[2].split() == ["MSG-SIZE", "16"]
    assert lines[3].split() == ["#MSG/NODE[1]", "2"]
    with pytest.raises(SimError):
        metrics_report(m, "json")
