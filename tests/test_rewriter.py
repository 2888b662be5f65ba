"""Compiler tests: the five compilation steps, the worked transitive-closure
shapes, and stage-for-stage agreement between the compiled program and the
centralized inflationary evaluation on the standard network families."""
from __future__ import annotations

import pytest

from fixture_data import PATH_FAR_DATALOG, TRANSITIVE_CLOSURE_DATALOG, WIN_DATALOG
from netquery.fixtures import SAME_GENERATION_DATALOG
from netquery.netlog import (
    NetlogEngine,
    NetlogProgram,
    NetlogRule,
    RelLit,
    Var,
    netlog_stages,
    parse_datalog,
    parse_netlog,
    print_rule,
    run_netlog,
)
from netquery.oracle import eval_datalog, path_graph, ring_graph, star_graph
from netquery.rewriter import (
    CompileError,
    compile,
    emit_text,
    localize,
)
from netquery.simnet import make_network

TWO_HOP_DATALOG = "P(x,z) :- G(x,y); G(y,z); x != z."


def _family_graphs():
    out = []
    for n in range(2, 7):
        out.append((f"path-{n}", path_graph(n)))
    for n in range(3, 7):
        out.append((f"ring-{n}", ring_graph(n)))
    for n in range(3, 7):
        out.append((f"star-{n}", star_graph(n)))
    return out


# ----------------------------------------------------------------- localize


def test_localize_marks_leftmost_argument():
    p1 = localize(parse_datalog("T(x,y) :- G(x,y); T(y,x)."))
    rule = p1.rules[0]
    assert rule.head.holding == 0
    assert all(lit.holding == 0 for lit in rule.body)
    assert rule.head.holding_var() == "x"


def test_localize_rejects_constant_holder():
    with pytest.raises(CompileError):
        localize(parse_datalog("R(x) :- G(1,x)."))


def test_localize_rejects_nullary_relation():
    rule = NetlogRule(
        RelLit("flag", ()), (RelLit("G", (Var("x"), Var("y"))),)
    )
    with pytest.raises(CompileError):
        localize(NetlogProgram((rule,)))


# ----------------------------------------------- rewrite: worked shapes


def test_transitive_closure_rewrite_matches_worked_example():
    out = compile(TRANSITIVE_CLOSURE_DATALOG, delta=2)
    assert out.kappa == 2
    assert [k for _, k in out.traces] == [1, 2]
    rules1, _ = out.traces[0]
    assert [print_rule(r) for r in rules1] == ["T(@x, y) :- G(@x, y)."]
    rules2, _ = out.traces[1]
    assert [print_rule(r) for r in rules2] == [
        "T(@x, y) :- G(@x, z); Q_2_1_1(@x, y, z).",
        "Q_2_1_1(@x, y, z) :- T(@z, y); G(@z, x).",
    ]


def test_kappa_is_at_least_the_diameter():
    assert compile(TRANSITIVE_CLOSURE_DATALOG, delta=5).kappa == 5
    assert compile(TRANSITIVE_CLOSURE_DATALOG, delta=1).kappa == 2


def test_same_generation_nests_two_relay_levels():
    out = compile(SAME_GENERATION_DATALOG, delta=3)
    assert [k for _, k in out.traces] == [1 + (1 + 3), 1 + (1 + 3) + (1 + 3)]
    assert out.kappa == 9
    text = emit_text(out)
    assert "Q_1_1_1" in text
    assert "Q_2_1_1" in text
    assert "Q_2_2_2" in text  # depth-two subquery of the recursive rule


def test_negated_literal_travels_into_pushed_subquery():
    out = compile(WIN_DATALOG, delta=2)
    (rules, kappa_r), = out.traces
    assert kappa_r == 2
    assert print_rule(rules[0]) == "win(@x) :- G(@x, y); Q_1_1_1(@x, y)."
    assert print_rule(rules[1]) == "Q_1_1_1(@x, y) :- !win(@y); G(@y, x)."


def test_rewrite_rule_operation_splits_on_context():
    rules, kappa_r = compile(TRANSITIVE_CLOSURE_DATALOG, delta=4).traces[1]
    assert kappa_r == 2
    assert len(rules) == 2


def test_unplaceable_comparison_is_rejected():
    with pytest.raises(CompileError, match="rule 1: comparison v = 1 .* placed"):
        compile("R(x) :- G(x,y); S(z,u); v = 1.", 2)


# ------------------------------------------------- communication and clocks


def test_push_marks_follow_holder_change():
    out = compile(TRANSITIVE_CLOSURE_DATALOG, delta=2)
    by_head = {}
    for rule in out.program.rules:
        by_head.setdefault(rule.head.pred, []).append(rule)
    # the recombined rule stays local, the subquery pushes one hop
    assert all(not r.push for r in by_head["tempT"])
    assert any(r.push for r in by_head["Q_2_1_1"])


def test_emitted_bookkeeping_rules():
    text = emit_text(compile(TRANSITIVE_CLOSURE_DATALOG, delta=2))
    for line in [
        "continue(@x) :- start(@x).",
        "^inf(@y, x) :- start(@x); G(@x, y).",
        "clock(@x, 2) :- start(@x).",
        "clock(@x, p) :- clock(@x, q); q >= 1; p = q - 1; !stop(@x).",
        "clock(@x, 2) :- clock(@x, 0); !stop(@x).",
        "^inf(@z, x) :- inf(@y, x); G(@y, z); x != z; clock(@y, q); q >= 1.",
        "continue(@x) :- inf(@x, y); clock(@x, q); q != 0.",
        "continue(@x) :- continue(@x); clock(@x, q); q != 0.",
        "stop(@x) :- !continue(@x); clock(@x, 0).",
    ]:
        assert line in text


def test_commit_rules_per_intensional_relation():
    text = emit_text(compile(TRANSITIVE_CLOSURE_DATALOG, delta=2))
    assert "T(@v1, v2) :- tempT(@v1, v2); clock(@v1, 0)." in text
    assert "continue(@v1) :- tempT(@v1, v2); !T(@v1, v2); clock(@v1, 0)." in text
    assert (
        "^inf(@w, v1) :- tempT(@v1, v2); !T(@v1, v2); clock(@v1, 0); G(@v1, w)."
        in text
    )


def test_copy_rules_guarded_and_unguarded():
    text = emit_text(compile(TRANSITIVE_CLOSURE_DATALOG, delta=2))
    assert "T(@v1, v2) :- T(@v1, v2)." in text  # committed results persist
    assert "tempT(@v1, v2) :- tempT(@v1, v2); clock(@v1, q); q != 0." in text
    assert (
        "Q_2_1_1(@v1, v2, v3) :- Q_2_1_1(@v1, v2, v3); clock(@v1, q); q != 0."
        in text
    )


def test_every_computation_rule_carries_a_clock_guard():
    out = compile(SAME_GENERATION_DATALOG, delta=2)
    unguarded = [
        r
        for r in out.program.rules
        if r.head.pred not in ("clock", "continue", "inf", "stop")
        and not any(
            isinstance(l, RelLit) and l.pred in ("clock", "start")
            for l in r.body
        )
    ]
    # only the unconditional copies of committed source relations
    assert {r.head.pred for r in unguarded} == {"SG"}
    assert all(r.body == (r.head,) for r in unguarded)


# ------------------------------------------------------- emitted text


def test_emitted_text_header_and_round_trip():
    out = compile(TRANSITIVE_CLOSURE_DATALOG, delta=3)
    text = emit_text(out)
    assert text.splitlines()[0] == "% kappa=3 delta=3"
    reparsed = parse_netlog(text)
    assert len(reparsed.rules) == len(out.program.rules)


def test_compile_is_deterministic():
    a = emit_text(compile(SAME_GENERATION_DATALOG, delta=4))
    b = emit_text(compile(SAME_GENERATION_DATALOG, delta=4))
    assert a == b


# ------------------------------------------------------------- rejections


def test_reserved_relation_names_are_rejected():
    with pytest.raises(CompileError):
        compile("clock(x) :- G(x,y).", delta=2)
    with pytest.raises(CompileError):
        compile("R(x) :- G(x,y); stop(y).", delta=2)
    with pytest.raises(CompileError):
        compile("tempT(x,y) :- G(x,y). T(x,y) :- G(x,y).", delta=2)


def test_unsafe_source_rule_is_rejected():
    with pytest.raises(CompileError):
        compile("R(x,y) :- G(x,z).", delta=2)


def test_distributed_source_rules_are_rejected():
    rule = NetlogRule(
        RelLit("R", (Var("x"),), holding=0),
        (RelLit("G", (Var("x"), Var("y")), holding=0),),
    )
    with pytest.raises(CompileError):
        compile(NetlogProgram((rule,)), delta=2)


def test_negative_diameter_is_rejected():
    with pytest.raises(CompileError):
        compile(TRANSITIVE_CLOSURE_DATALOG, delta=-1)


# ------------------------------------------------------------ empty program


def test_empty_program_compiles_to_bookkeeping_only():
    out = compile(NetlogProgram(()), delta=2)
    assert out.kappa == 2
    assert out.traces == ()
    heads = {r.head.pred for r in out.program.rules}
    assert heads == {"continue", "inf", "clock", "stop"}
    g = path_graph(3)
    stages = netlog_stages(out.program, g)
    assert stages[-1].union_facts() == frozenset()


# ----------------------------------------- equality with the oracle, staged


EQ_PROGRAMS = [
    ("tc", TRANSITIVE_CLOSURE_DATALOG),
    ("same-generation", SAME_GENERATION_DATALOG),
    ("win", WIN_DATALOG),
    ("path-far", PATH_FAR_DATALOG),
    ("two-hop", TWO_HOP_DATALOG),
]


@pytest.mark.parametrize("pname,ptext", EQ_PROGRAMS)
def test_compiled_program_tracks_oracle_stage_for_stage(pname, ptext):
    src = parse_datalog(ptext)
    intensional = set(src.intensional_preds)
    for gname, g in _family_graphs():
        out = compile(src, g.diameter)
        period = out.kappa + 1
        dl = eval_datalog(src, g)
        nl = netlog_stages(out.program, g)

        final = nl[-1]
        for r in sorted(intensional):
            want = frozenset(t for p, t in dl.stages[-1] if p == r)
            assert final.facts_of(r) == want, (pname, gname, r)
        assert {p for p, _ in final.union_facts()} <= intensional, (
            pname,
            gname,
        )

        for i in range(len(dl.stages)):
            idx = min(i * period + 1 if i else 0, len(nl) - 1)
            for r in sorted(intensional):
                want = frozenset(t for p, t in dl.stages[i] if p == r)
                assert nl[idx].facts_of(r) == want, (pname, gname, r, i)

        firsts: dict[tuple, int] = {}
        for j, inst in enumerate(nl):
            for p, t in inst.union_facts():
                if p in intensional and (p, t) not in firsts:
                    firsts[(p, t)] = j
        assert all(j % period == 1 for j in firsts.values()), (pname, gname)


DIST_CASES = [
    (TRANSITIVE_CLOSURE_DATALOG, path_graph(4)),
    (TRANSITIVE_CLOSURE_DATALOG, ring_graph(5)),
    (SAME_GENERATION_DATALOG, path_graph(4)),
    (WIN_DATALOG, ring_graph(5)),
    (PATH_FAR_DATALOG, star_graph(4)),
]


@pytest.mark.parametrize("ptext,g", DIST_CASES)
def test_compiled_program_on_the_simulator_matches_oracle(
    permuted_inboxes, ptext, g
):
    src = parse_datalog(ptext)
    intensional = set(src.intensional_preds)
    out = compile(src, g.diameter)
    dl = eval_datalog(src, g)
    finals = set()
    for seed in (0, 3):
        net = make_network(g, port_seed=seed)
        with permuted_inboxes(NetlogEngine, seed):
            inst, _metrics = run_netlog(out.program, net)
        finals.add(tuple(sorted(inst.union_facts())))
        for r in sorted(intensional):
            want = frozenset(t for p, t in dl.stages[-1] if p == r)
            assert inst.facts_of(r) == want, r
        assert {p for p, _ in inst.union_facts()} <= intensional
    assert len(finals) == 1  # port and delivery order never show in the result
