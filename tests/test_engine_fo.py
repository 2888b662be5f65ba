"""Distributed first-order evaluation against the centralized oracle."""
import copy
import hashlib
import random

import pytest

from fixture_data import (
    HAS_NEIGHBOR_TEXT,
    ROUTING_TABLE_TEXT,
    SPANNING_TREE_TEXT,
    TWO_HOP_TEXT,
    random_connected_graph,
)
from netquery import engine_fp, simnet
from netquery.engine_fo import (
    EngineError,
    FOCore,
    FOQueryEngine,
    QueryTable,
    _BroadcastEngine,
    _send_order,
    answer_key,
    clock_value,
    run_qe_fo,
)
from netquery.engine_fp import run_qe_fp
from netquery.fixtures import TRANSITIVE_CLOSURE_TEXT, exhaustive_graphs
from netquery.logic import (
    And,
    Atom,
    BoolConst,
    Cmp,
    Exists,
    Forall,
    Not,
    Or,
    Var,
    _terms_of,
    canonical_print,
    constants,
    free_vars,
    parse_fixpoint,
    parse_formula,
    stats,
    substitute,
)
from netquery.oracle import eval_fo, eval_fp, make_graph, path_graph, ring_graph
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
    held = dict(res)
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
            want = eval_fo(g, f)
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


def _fo_cores(g, text, seed):
    f = parse_formula(text)
    budget = clock_value(max(1, stats(f).w), g.diameter) + g.diameter + 8
    result, _ = simnet.run(
        _net(g, port_seed=seed),
        _CoreKeepingEngine(free_vars(f)),
        init={1: f},
        round_cap=budget,
    )
    return list(result.values())


def _fp_cores(g, text):
    """Every FOCore that an FP run of `text` on g builds, on every node and
    in every iteration; each checks that `advance` creates no entry."""
    made = []

    class Recorded(FOCore):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            made.append(self)

        def advance(self, round_no):
            before = len(self.entries)
            super().advance(round_no)
            assert len(self.entries) == before

    q = parse_fixpoint(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_fp, "FOCore", Recorded)
        got, _ = run_qe_fp(_net(g), q, 1)
    assert got.tuples == eval_fp(g, q).final.tuples
    return made


_FP_TEXTS = {
    "tc": TRANSITIVE_CLOSURE_TEXT,
    "routing": ROUTING_TABLE_TEXT,
    "spanning-tree": SPANNING_TREE_TEXT,
}
_FP_GRAPHS = {
    "path5": path_graph(5),
    "ring5": ring_graph(5),
    "random5": random_connected_graph(random.Random(0), 5),
}


@pytest.fixture(scope="module")
def fp_cores():
    return {
        (t, name): _fp_cores(g.with_unary({"ReqNode": [1]}), text)
        for t, text in _FP_TEXTS.items()
        for name, g in _FP_GRAPHS.items()
    }


def _check_links(cores):
    """Each leaf of every core links exactly the entries one level down,
    open ones included, that the reference rule makes its instances: a
    candidate is an instance when substituting one of its constants (or 1,
    for a quantifier that never uses its variable) for the quantified
    variable prints the candidate's text.  The rule is applied from the
    formulas alone, so every (leaf, candidate) pair is decided by it."""
    printed = {}  # (quantifier, variable, value) -> instance text
    linked = 0
    for core in cores:
        probes = {
            ek: set(constants(e.template.formula)) | {1}
            for ek, e in core.entries.items()
        }
        values = set().union(*probes.values())
        for (level, _), e in core.entries.items():
            for path, leaf in enumerate(e.leaves):
                q = leaf.shape
                want = set()
                for b in values:
                    k = (q.quant, q.var, b)
                    if k not in printed:
                        printed[k] = canonical_print(substitute(q.quant, q.var, b))
                    if b in probes.get((level + 1, printed[k]), ()):
                        want.add(printed[k])
                assert leaf.instances == want, (core.self_id, level, path)
                linked += len(want)
    assert linked > 0


@pytest.mark.parametrize("text", [TWO_HOP_TEXT, HAS_NEIGHBOR_TEXT])
def test_linking_agrees_with_unmemoized_rule(text):
    for seed in (0, 1, 2):
        _check_links(_fo_cores(random_connected_graph(random.Random(seed), 5), text, seed))


@pytest.mark.parametrize("graph", sorted(_FP_GRAPHS))
@pytest.mark.parametrize("text", sorted(_FP_TEXTS))
def test_fp_linking_agrees_with_unmemoized_rule(fp_cores, text, graph):
    _check_links(fp_cores[(text, graph)])


def _leaf_deadline(q, entry_level, round_offset, delta):
    """Reference: the round by which the quantifier occurrence q of a
    level-`entry_level` query is decidable everywhere.  An atom first
    becomes ground when the deepest variable in it is instantiated; the
    instantiating node is a party to the atom, so the truth value floods
    from it within delta rounds of that instantiation."""
    top = entry_level

    def go(f, env, depth):
        nonlocal top
        if isinstance(f, (Atom, Cmp)):
            lv = [env[t.name] for t in _terms_of(f) if isinstance(t, Var)]
            top = max(top, max(lv) if lv else entry_level)
        elif isinstance(f, Not):
            go(f.body, env, depth)
        elif isinstance(f, (And, Or)):
            for p in f.parts:
                go(p, env, depth)
        elif isinstance(f, (Exists, Forall)):
            inner = dict(env)
            inner[f.var] = entry_level + depth + 1
            go(f.body, inner, depth + 1)

    go(q, {}, 0)
    return round_offset + 1 + (max(top, 1) + 1) * delta


def test_leaf_deadlines_follow_the_reference_rule(fp_cores):
    cores = [c for cs in fp_cores.values() for c in cs]
    for text in _MATRIX:
        cores += _fo_cores(path_graph(4), text, 0)
    seen = set()
    for core in cores:
        for (level, _), e in core.entries.items():
            for leaf in e.leaves:
                want = _leaf_deadline(leaf.shape.quant, level, core.round_offset, core.delta)
                assert leaf.deadline == want, (leaf.shape.text, level)
                seen.add((level, core.round_offset))
    assert len({lv for lv, _ in seen}) >= 3 and len({r for _, r in seen}) >= 5


# ------------------------------------------------------ compiled evaluation


def _reference_value(core, e, round_no):
    """The interpreted three-valued walk that compiled templates replaced:
    the value of closed entry e read from its formula tree, and the work
    the walk charges, one per node it visits outside quantifier bodies.
    Every part is visited, so each quantifier met is e's next leaf; the
    core evaluates the leaf's instances."""
    work = 0
    leaves = iter(e.leaves)

    def ev(f):
        nonlocal work
        work += 1
        if isinstance(f, BoolConst):
            return f.value
        if isinstance(f, Cmp):
            a, b = f.left.value, f.right.value
            return {"=": a == b, "!=": a != b, ">=": a >= b}[f.op]
        if isinstance(f, Atom):
            return core.answers.get(answer_key(canonical_print(f)))
        if isinstance(f, Not):
            v = ev(f.body)
            return None if v is None else not v
        if isinstance(f, (And, Or)):
            vals = [ev(p) for p in f.parts]
            if isinstance(f, And):
                if any(v is False for v in vals):
                    return False
                return True if all(v is True for v in vals) else None
            if any(v is True for v in vals):
                return True
            return False if all(v is False for v in vals) else None
        leaf = next(leaves)
        assert leaf.shape.quant == f
        if leaf.key in core.answers:
            return core.answers[leaf.key]
        vals = [
            core._eval_entry(core.entries[(e.level + 1, text)], round_no)
            for text in sorted(leaf.instances)
        ]
        if leaf.shape.is_exists and any(v is True for v in vals):
            core._insert_answer(leaf.key, True, announce=True)
            return True
        if not leaf.shape.is_exists and any(v is False for v in vals):
            core._insert_answer(leaf.key, False, announce=True)
            return False
        if round_no >= leaf.deadline:
            v = (
                any(v is True for v in vals)
                if leaf.shape.is_exists
                else not any(v is False for v in vals)
            )
            core._insert_answer(leaf.key, v, announce=False)
            return v
        return None

    value = ev(e.template.formula)
    assert next(leaves, None) is None
    return value, work


def _copy_core(core, forget):
    """A copy of a core's node state that shares the run's query table.
    With `forget`, the copy keeps only the answers that decide atoms: no
    quantifier or compound entry value is known any more."""
    queries = core.queries
    shared = [queries, *queries.templates.values()]
    shared += [q for t in queries.templates.values() for q in t.quantifiers]
    copied = copy.deepcopy(core, {id(x): x for x in shared})
    if forget:
        for e in copied.entries.values():
            if not isinstance(e.template.formula, (Atom, Cmp, BoolConst)):
                e.value = None
                copied.answers.pop(e.key, None)
                for leaf in e.leaves:
                    copied.answers.pop(leaf.key, None)
    return copied


def _check_compiled_values(cores):
    """On copies of each core at the end of its run, with and without the
    derived answers, before every deadline and after all of them, every
    closed entry's compiled value equals the reference walk's, its size
    equals the walk's work, and evaluating all of them in key order leaves
    both copies with the same answers, sends, entry values and work."""
    checked = 0
    for core in cores:
        last = max((lf.deadline for e in core.entries.values() for lf in e.leaves), default=0)
        for forget in (False, True):
            for round_no in (0, last + 1):
                ref, comp = _copy_core(core, forget), _copy_core(core, forget)
                for ek in sorted(ek for ek, e in core.entries.items() if e.kind == "B"):
                    want = _reference_value(ref, ref.entries[ek], round_no)
                    e = comp.entries[ek]
                    got = (e.template.evaluate(comp, e, round_no), e.template.size)
                    assert got == want, (core.self_id, ek, round_no, forget)
                    checked += want[0] is not None
                assert comp.answers == ref.answers and comp.out == ref.out
                assert comp.work == ref.work
                assert [e.value for e in comp.entries.values()] == [
                    e.value for e in ref.entries.values()
                ]
    assert checked > 0


def test_compiled_values_match_the_interpreted_walk_for_fp(fp_cores):
    _check_compiled_values(fp_cores[("tc", "path5")])


@pytest.mark.parametrize("text", _MATRIX)
def test_compiled_values_match_the_interpreted_walk_for_fo(text):
    _check_compiled_values(_fo_cores(path_graph(4), text, 0))


# ------------------------------------------------------------- determinism


def _global_step_digest(case, seed):
    """sha256 over (round, sends, steps, quiescent, wake_at) of every node
    step of one global-engine run, in call order."""
    digest = hashlib.sha256()
    if case == "fp-tc-path-5":
        net = _net(path_graph(5), port_seed=seed)
        call = lambda: run_qe_fp(net, TRANSITIVE_CLOSURE_TEXT, 1)
    else:
        net = _net(ring_graph(8), port_seed=seed)
        call = lambda: run_qe_fo(net, TWO_HOP_TEXT, 1)
    real = _BroadcastEngine.step

    def recording(self, state, ctx, round_no, inbox):
        res = real(self, state, ctx, round_no, inbox)
        digest.update(
            repr(
                (round_no, res.sends, res.steps, res.quiescent, res.wake_at)
            ).encode()
        )
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_BroadcastEngine, "step", recording)
        call()
    return digest.hexdigest()


@pytest.mark.parametrize("case,seed,digest", [
    ("fp-tc-path-5", 0,
     "5fb506bea33ec8f6ff2d16bde2d0caee79cc3fd98738cf22835296c56795f1a4"),
    ("fp-tc-path-5", 1,
     "5fb506bea33ec8f6ff2d16bde2d0caee79cc3fd98738cf22835296c56795f1a4"),
    ("fo-two-hop-ring-8", 0,
     "98e1aae8f4f487d31929a361b9bd1c127fa9d74c458c28379b2caa3012e73d55"),
    ("fo-two-hop-ring-8", 1,
     "98e1aae8f4f487d31929a361b9bd1c127fa9d74c458c28379b2caa3012e73d55"),
])
def test_global_node_steps_send_the_pinned_payloads(case, seed, digest):
    """Every node step of the FO and FP engines sends the pinned payloads in
    the pinned order and reports the pinned work, quiescence and wake-up,
    at port seeds 0 and 1; test_simnet checks that permuted inboxes leave
    these digests as they are.  The pins were taken with the interpreted
    three-valued evaluator that compiled templates replaced."""
    assert _global_step_digest(case, seed) == digest


def test_results_do_not_depend_on_delivery_or_port_order(permuted_inboxes):
    g = ring_graph(5)
    outcomes = []
    for order_seed in (0, 1, 7, 23, 99):
        for port_seed in (0, 3):
            net = _net(g, port_seed=port_seed)
            with permuted_inboxes(FOQueryEngine, order_seed) as moved:
                rel, m = run_qe_fo(net, TWO_HOP_TEXT, 1)
            assert any(moved)
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


def _reference_send_order(p):
    """The send order as zero-padded text keys."""
    if p[0] == "A":
        return (0, f"{p[1]:020d}", str(int(p[2])))
    if p[1] == "B":
        return (1, f"{p[3]:06d}", p[2])
    return (2, f"{len(p[3]):06d}", p[2] + "|" + ",".join(str(x) for x in p[3]))


def _reference_fp_send_order(p):
    if p[0] == "FPQ":
        return (0, 0, "", p[1])
    if p[0] == "I":
        return (1, p[1], "", "")
    return (2, p[1]) + _reference_send_order(p[2])


def _random_payload(rng):
    text = "".join(rng.choice("xyG(),|&1") for _ in range(rng.randint(0, 4)))
    kind = rng.choice("ABO")
    if kind == "A":
        key = rng.choice([rng.randrange(2**64), rng.randrange(1000), 2**64 - 1, 0])
        return ("A", key, rng.choice([True, False, 0, 1]))
    if kind == "B":
        return ("Q", "B", text, rng.choice([rng.randrange(10**6), rng.randrange(12)]))
    suffix = tuple(rng.randrange(rng.choice([10, 10**4])) for _ in range(rng.randint(0, 4)))
    return ("Q", "O", text, suffix)


def test_send_order_matches_the_text_keyed_reference():
    """Integer keys sort payloads as the zero-padded text keys did: answer
    keys are below 2^64 < 10^20 and levels below 10^6.  An FP node's flush
    sends its FPQ and I payloads and its core's payloads, wrapped in F, in
    the reference order."""
    rng = random.Random(14)
    for _ in range(300):
        payloads = [_random_payload(rng) for _ in range(rng.randint(0, 40))]
        assert sorted(payloads, key=_send_order) == sorted(
            payloads, key=_reference_send_order
        )
        node = engine_fp.FPCore(1, frozenset(), frozenset(), 1, QueryTable())
        node.it = rng.randrange(4)
        node.out = [
            ("FPQ", rng.choice("xyz"), rng.randrange(3))
            for _ in range(rng.randint(0, 2))
        ]
        node.out += [("I", rng.randrange(4), rng.randrange(3)) for _ in range(rng.randint(0, 3))]
        rng.shuffle(node.out)
        node.core = FOCore(1, frozenset(), frozenset(), 1, (), QueryTable())
        node.core.out = list(payloads)
        want = node.out + [("F", node.it, p) for p in payloads]
        assert node.flush() == sorted(want, key=_reference_fp_send_order)


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


def test_columns_follow_first_occurrence_order():
    # Both queries ask for the edge from node 1; the second names y first.
    net = _net(path_graph(3))
    fwd, _ = run_qe_fo(net, "x = 1 & G(x,y)", 1)
    rev, _ = run_qe_fo(net, "G(y,x) & x = 1", 1)
    assert fwd.tuples == {(1, 2)}
    assert rev.tuples == {(2, 1)}
