"""What a query may read is decided once per run, before any node steps.

`logic.check_atoms` is the one atom rule: the edge relation G/2, a unary
input fact read closed-world, or a named relation at its declared arity.
The four drivers admit a query with it (plus their family's own syntax
rules) and the oracle rejects the same atoms, so the engines and the oracle
agree on every query either accepts.
"""
from __future__ import annotations

import pytest

from netquery import local_engine
from netquery.cli import main
from netquery.engine_fo import EngineError, _BroadcastEngine, run_qe_fo
from netquery.engine_fp import run_qe_fp
from netquery.fixtures import TRANSITIVE_CLOSURE_TEXT
from netquery.local_engine import run_qe_fo_loc, run_qe_fp_loc
from netquery.logic import (
    EDGE_PRED,
    FALSE,
    TRUE,
    And,
    Atom,
    FixpointQuery,
    InNbhd,
    Not,
    Or,
    Var,
    make_and,
    parse_fixpoint,
    parse_formula,
    print_formula,
    relativize_fixpoint,
)
from netquery.oracle import OracleError, eval_fo, eval_fp, path_graph, ring_graph
from netquery.simnet import ANONYMOUS, make_network, network_text


def _query(q):
    if not isinstance(q, str):
        return q
    return parse_fixpoint(q) if q.startswith("mu ") else parse_formula(q)


def _oracle(g, q):
    q = _query(q)
    return eval_fp(g, q).final if isinstance(q, FixpointQuery) else eval_fo(g, q)


# A query per driver that reads the unary predicate Foo and is true at
# node 2 once node 2 holds Foo.
ABSENT = [
    (run_qe_fo, "Foo(x)"),
    (run_qe_fo_loc, "exists y in N^1(x). (G(x,y) & Foo(x))"),
    (run_qe_fp, "mu T(x). Foo(x)"),
    (run_qe_fp_loc, "mu T(x). exists y in N^1(x). (G(x,y) & Foo(x))"),
]


@pytest.mark.parametrize("run,query", ABSENT)
def test_an_absent_unary_predicate_is_empty_everywhere(run, query):
    """Closed-world: a predicate no node holds is empty, in every driver
    and in the oracle alike; once a node holds it, both see that node."""
    g = path_graph(3)
    rel, _ = run(make_network(g), query, 1)
    assert rel.tuples == _oracle(g, query).tuples == frozenset()
    marked = g.with_unary({"Foo": [2]})
    rel, _ = run(make_network(marked), query, 1)
    assert rel.tuples == _oracle(marked, query).tuples == {(2,)}


def test_check_agrees_on_an_absent_unary_predicate(capsys, tmp_path):
    net = tmp_path / "path3.net"
    net.write_text(network_text(path_graph(3)))
    code = main(
        ["qe-fo", "--net", str(net), "--query", "Foo(x)", "--req", "1", "--check"]
    )
    out = capsys.readouterr().out
    assert code == 0 and "CHECK OK" in out


G_UNARY = Atom(EDGE_PRED, (Var("x"),))  # no parse yields it: G is binary
G_UNARY_LOCAL = make_and(
    [InNbhd(Var("y"), 1, Var("x")), Atom(EDGE_PRED, (Var("y"),))]
)

# Atoms that neither an engine nor the oracle can decide, each in a query
# of the fragment its driver takes.
NON_DECIDABLE = [
    (run_qe_fo, "exists y. T(x,y,y)"),
    (run_qe_fo, "exists y. Foo(x,y)"),
    (run_qe_fo, G_UNARY),
    (run_qe_fp, "mu T(x,y). R(x,y)"),
    (run_qe_fp, FixpointQuery("T", ("x",), parse_formula("exists y. T(x,y)"))),
    (run_qe_fp, "mu G(x,y). G(x,y)"),
    (run_qe_fo_loc, "exists y in N^1(x). Foo(x,y)"),
    (run_qe_fo_loc, G_UNARY_LOCAL),
    (
        run_qe_fp_loc,
        FixpointQuery(
            "T", ("x",), parse_formula("exists y in N^1(x). (G(x,y) & T(x,y))")
        ),
    ),
    (run_qe_fp_loc, "mu G(x,y). y in N^1(x) & G(x,y)"),
]

# What else each engine family refuses, on the network's identity mode.
GLOBAL_INADMISSIBLE = [
    (run_qe_fo, "exists y in N^1(x). G(x,y)", None),
    (run_qe_fo, "y in N^1(x)", None),
    (run_qe_fo, "G(1,7)", None),
    (run_qe_fo, "exists y. G(q1,y)", None),
    (run_qe_fo, "exists y. G(x,y)", ANONYMOUS),
    (run_qe_fp, "mu T(x,y). G(x,x)", None),
    (run_qe_fp, "mu T(q1,y). G(q1,y)", None),
    (run_qe_fp, "mu T(x,y). y in N^1(x) & G(x,y)", None),
    (run_qe_fp, TRANSITIVE_CLOSURE_TEXT, ANONYMOUS),
]
LOCAL_INADMISSIBLE = [
    (run_qe_fo_loc, "exists y. G(x,y)", None),
    (run_qe_fo_loc, "exists y in N^1(x). (G(x,y) & y = 3)", None),
    (run_qe_fo_loc, "exists z in N^1(x). (G(x,z) & G(z,y))", None),
    (run_qe_fo_loc, "exists y in N^1(x). (G(x,y) & x >= y)", ANONYMOUS),
    (run_qe_fp_loc, TRANSITIVE_CLOSURE_TEXT, None),
    (run_qe_fp_loc, "mu T(x,y). exists z in N^1(x). G(x,z)", None),
    (run_qe_fp_loc, "mu T(x). exists y in N^1(x). (T(y) & x >= y)", ANONYMOUS),
    (run_qe_fo_loc, "true", None),
    (run_qe_fo_loc, "false", ANONYMOUS),
]


@pytest.fixture
def no_step(monkeypatch):
    """Fail the test if any query engine steps a node."""

    def step(*args, **kwargs):
        raise AssertionError("a node stepped before the query was admitted")

    for engine in (
        _BroadcastEngine, local_engine.FOLocEngine, local_engine.FPLocEngine
    ):
        monkeypatch.setattr(engine, "step", step)


@pytest.mark.parametrize(
    "run,query,mode",
    [(run, q, None) for run, q in NON_DECIDABLE]
    + GLOBAL_INADMISSIBLE
    + LOCAL_INADMISSIBLE,
)
def test_inadmissible_queries_fail_before_any_node_steps(no_step, run, query, mode):
    g = path_graph(3)
    net = make_network(g, mode=mode) if mode else make_network(g)
    with pytest.raises(EngineError):
        run(net, query, 1)


@pytest.mark.parametrize("run,query", NON_DECIDABLE)
def test_the_oracle_rejects_the_same_atoms(run, query):
    with pytest.raises(OracleError):
        _oracle(path_graph(3), query)


@pytest.mark.parametrize(
    "run,query",
    [
        (run_qe_fp, "mu T(x,y). G(x,x)"),
        (run_qe_fp_loc, "mu T(x,y). exists z in N^1(x). G(x,z)"),
    ],
)
def test_a_declared_variable_missing_from_the_body_has_one_reason(run, query):
    reason = "every declared fixpoint variable must occur in the body"
    g = path_graph(3)
    with pytest.raises(EngineError, match=reason):
        run(make_network(g), query, 1)
    with pytest.raises(OracleError, match=reason):
        _oracle(g, query)


def _with_constants(f):
    """f with `true` and `false` written in, unfolded, and its top-level
    conjuncts kept at the top, where locality reads its guards:
    `!false & (false | first) & rest & true`."""
    parts = f.parts if isinstance(f, And) else (f,)
    return And((Not(FALSE), Or((FALSE, parts[0])), *parts[1:], TRUE))


CONSTANTS_INSIDE = [
    (run_qe_fo, parse_formula("exists y. (G(x,y) & G(y,x))"), None),
    (
        run_qe_fo_loc,
        parse_formula(
            "exists y in N^1(x). exists z in N^1(x). (G(x,y) & G(x,z) & y != z)"
        ),
        ANONYMOUS,
    ),
    (run_qe_fp, parse_fixpoint(TRANSITIVE_CLOSURE_TEXT), None),
    (
        run_qe_fp_loc,
        relativize_fixpoint(parse_fixpoint(TRANSITIVE_CLOSURE_TEXT), 1),
        ANONYMOUS,
    ),
]


@pytest.mark.parametrize("run,query,mode", CONSTANTS_INSIDE)
def test_every_engine_matches_the_oracle_with_true_and_false_inside(run, query, mode):
    """A driver reads its query's printed text, which the parser folds, and
    the oracle decides the constants as written (`oracle.holds`): both give
    the relation of the query without them."""
    if isinstance(query, FixpointQuery):
        written = FixpointQuery(query.name, query.vars, _with_constants(query.body))
        assert "!false" in print_formula(written.body)
    else:
        written = _with_constants(query)
        assert "!false" in print_formula(written)
    g = ring_graph(5)
    net = make_network(g, mode=mode) if mode else make_network(g)
    rel, _ = run(net, written, 1)
    want = _oracle(g, query).tuples
    assert want and rel.tuples == _oracle(g, written).tuples == want


def test_the_global_engine_and_the_oracle_agree_on_a_constant_query():
    g = path_graph(3)
    for f, want in ((TRUE, {()}), (FALSE, set())):
        rel, _ = run_qe_fo(make_network(g), print_formula(f), 1)
        assert rel.tuples == eval_fo(g, f).tuples == want
