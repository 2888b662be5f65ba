"""Parser, printer, stats, substitution, relativization."""
from __future__ import annotations

from dataclasses import fields

import pytest

from fixture_data import (
    HAS_NEIGHBOR_TEXT,
    NEXT_HOP_TEXT,
    ROUTE_REQUEST_TEXT,
    ROUTING_TABLE_TEXT,
    SPANNING_TREE_TEXT,
    TWO_HOP_TEXT,
)
from netquery.logic import (
    FALSE,
    TRUE,
    And,
    Atom,
    Cmp,
    Const,
    Exists,
    FixpointQuery,
    Forall,
    FormulaError,
    InNbhd,
    Not,
    Or,
    ParseError,
    Var,
    canonical_print,
    constants,
    free_vars,
    locality,
    parse_formula,
    parse_fixpoint,
    print_formula,
    print_fixpoint,
    ranges,
    relativize,
    relativize_fixpoint,
    stats,
    substitute,
)
from netquery.netlog import parse_datalog

from netquery.fixtures import TRANSITIVE_CLOSURE_TEXT


# ----------------------------------------------------------------- parsing


def test_parse_exists_edge_atom():
    f = parse_formula("exists y. G(x,y)")
    assert isinstance(f, Exists)
    assert f.var == "y"
    assert f.bound is None
    assert f.body == Atom("G", (Var("x"), Var("y")))
    assert free_vars(f) == ("x",)


def test_parse_conjunction_with_comparison():
    f = parse_formula("G(x,h) & h = d")
    assert isinstance(f, And)
    assert f.parts[0] == Atom("G", (Var("x"), Var("h")))
    assert f.parts[1] == Cmp("=", Var("h"), Var("d"))


def test_parse_bounded_quantifier():
    f = parse_formula("exists z in N^2(x). G(x,z)")
    assert isinstance(f, Exists)
    assert f.var == "z"
    assert f.bound == (Var("x"), 2)
    assert f.body == Atom("G", (Var("x"), Var("z")))


def test_parse_membership_atom():
    f = parse_formula("y in N^1(x)")
    assert f == InNbhd(Var("y"), 1, Var("x"))


def test_parse_precedence_not_and_or():
    f = parse_formula("!G(x,y) & G(y,z) | x = y")
    assert isinstance(f, Or)
    left = f.parts[0]
    assert isinstance(left, And)
    assert isinstance(left.parts[0], Not)


def test_quantifier_body_extends_right():
    f = parse_formula("exists y. G(x,y) & x != y")
    assert isinstance(f, Exists)
    assert isinstance(f.body, And)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_formula("exists . G(x,y)")
    assert "column" in str(e.value)
    with pytest.raises(ParseError):
        parse_formula("G(x,")
    with pytest.raises(ParseError):
        parse_formula("")


def test_integers_are_ascii_digits_only():
    # `\d` would also take other Unicode decimal digits and read them as
    # ASCII ones: "x = ٣" printed as "x = 3".
    for text in ("x = \u0663", "G(\u0661,x)"):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_formula(text)
    with pytest.raises(ParseError, match="unexpected character"):
        parse_datalog("T(x) :- G(x,\u0662).")
    assert print_formula(parse_formula("x = 3")) == "x = 3"


def test_true_and_false_fold_below_the_root():
    """The parser folds every `true` and `false` below the root: a neutral
    part of a connective goes, an absorbing one decides it, a negation flips
    its constant and a binder whose body folds to a constant goes.  Only a
    root stays a constant."""
    g = Atom("G", (Var("x"), Var("y")))
    cases = {
        "G(x,y) & true": g,
        "G(x,y) | false": g,
        "true & (G(x,y) & true)": g,
        "G(x,y) & !true": FALSE,
        "G(x,y) | !false": TRUE,
        "!(G(x,y) & false)": TRUE,
        "exists y. (G(x,y) & (false | true))": Exists("y", g, None),
        "forall y in N^1(x). (false | G(x,y))": Forall("y", g, (Var("x"), 1)),
        "exists y. true": TRUE,
        "true & false": FALSE,
        "true & !false": TRUE,
        "false | false": FALSE,
        "!true": FALSE,
        "true": TRUE,
    }
    for text, want in cases.items():
        assert parse_formula(text) == want, text
    q = parse_fixpoint("mu T(x,y). (G(x,y) & true) | (false & T(y,x))")
    assert q.body == g
    assert print_formula(parse_formula("!(exists y. false)")) == "true"


def test_malformed_ranges_and_declarations_are_rejected():
    with pytest.raises(ParseError, match=r"expected neighborhood range N\^k"):
        parse_formula("exists y in M^1(x). G(x,y)")
    with pytest.raises(ParseError, match="fixpoint relation name is a keyword"):
        parse_fixpoint("mu exists(x). G(x,x)")
    with pytest.raises(FormulaError, match="duplicate declared variables in mu T"):
        parse_fixpoint("mu T(x,x). G(x,x)")


def test_arity_mismatch_rejected():
    with pytest.raises(FormulaError):
        parse_formula("G(x,y) & G(x,y,z)")
    with pytest.raises(FormulaError):
        parse_formula("G(x)")


def test_comments_and_whitespace():
    f = parse_formula("# leading comment\n  G( x , y )  # trailing\n")
    assert f == Atom("G", (Var("x"), Var("y")))


def test_shadowed_binders_are_renamed():
    f = parse_formula("exists x. (G(x,y) & exists x. G(x,x))")
    binders = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Exists):
            binders.append(g.var)
            stack.append(g.body)
        elif isinstance(g, And):
            stack.extend(g.parts)
    assert len(binders) == len(set(binders)) == 2


def test_unused_binder_dropped():
    f = parse_formula("exists y. G(x,x)")
    assert f == Atom("G", (Var("x"), Var("x")))


# ------------------------------------------------------------- fixpoints


def test_parse_fixpoint_transitive_closure():
    q = parse_fixpoint(TRANSITIVE_CLOSURE_TEXT)
    assert q.name == "T"
    assert q.vars == ("x", "y")
    assert q.arity == 2
    with pytest.raises(FormulaError, match="unbounded quantifier"):
        locality(q)


def test_parse_fixpoint_spanning_tree():
    q = parse_fixpoint(SPANNING_TREE_TEXT)
    assert q.name == "ST"
    assert q.arity == 2


def test_fixpoint_arity_mismatch():
    with pytest.raises(FormulaError):
        parse_fixpoint("mu T(x). exists y. T(x,y)")


def test_fixpoint_undeclared_free_variable():
    with pytest.raises(FormulaError):
        parse_fixpoint("mu T(x). G(x,y)")


def test_fixpoint_radius_detection_roundtrip():
    q = parse_fixpoint(SPANNING_TREE_TEXT)
    rq = relativize_fixpoint(q, 1)
    assert locality(rq) == ("x", 1)
    reparsed = parse_fixpoint(print_fixpoint(rq))
    assert locality(reparsed) == ("x", 1)
    assert canonical_print(reparsed.body) == canonical_print(rq.body)


def _guards_first(f):
    """f's top-level membership guards moved in front of its other conjuncts."""
    guards = tuple(p for p in f.parts if isinstance(p, InNbhd))
    return And(guards + tuple(p for p in f.parts if not isinstance(p, InNbhd)))


def test_one_locality_rule_for_both_fragments():
    for text in (TRANSITIVE_CLOSURE_TEXT, SPANNING_TREE_TEXT, ROUTE_REQUEST_TEXT):
        q = parse_fixpoint(text)
        with pytest.raises(FormulaError, match="unbounded quantifier"):
            locality(q)
        for k in (1, 2):
            rq = relativize_fixpoint(q, k)
            moved = FixpointQuery(q.name, q.vars, _guards_first(rq.body))
            assert print_fixpoint(moved) != print_fixpoint(rq)
            for written in (rq, moved):
                reparsed = parse_fixpoint(print_fixpoint(written))
                assert locality(reparsed) == ("x", k)
                assert locality(reparsed.body) == ("x", k)
    for text in (TWO_HOP_TEXT, HAS_NEIGHBOR_TEXT):
        for k in (1, 2):
            assert locality(relativize(parse_formula(text), "x", k)) == ("x", k)


@pytest.mark.parametrize(
    "text, reason",
    [
        ("exists y. G(x,y)", "unbounded quantifier"),
        ("exists y in N^1(3). G(x,y)", "quantifier bounds must center"),
        ("y in N^1(3) & G(x,y)", "neighborhood atoms must center"),
        ("G(x,x)", "single locality radius"),
        ("y in N^1(x) & (exists z in N^2(x). G(y,z))", "single locality"),
        ("y in N^1(x) & (exists z in N^1(y). G(y,z))", "single locality"),
        ("y in N^0(x) & G(x,y)", "must be >= 1"),
        ("exists z in N^1(x). (G(x,z) & G(z,y))", r"\['y'\] lack a .* guard"),
        ("G(x,y) | y in N^1(x)", r"\['y'\] lack a .* guard"),
    ],
)
def test_locality_names_the_failing_condition(text, reason):
    with pytest.raises(FormulaError, match=reason):
        locality(parse_formula(text))


def test_fixpoint_radius_is_derived_around_the_first_variable():
    q = parse_fixpoint(TRANSITIVE_CLOSURE_TEXT)
    around_y = relativize(q.body, "y", 1)
    assert locality(around_y) == ("y", 1)
    with pytest.raises(FormulaError, match="first declared variable"):
        locality(parse_fixpoint(f"mu T(x,y). {print_formula(around_y)}"))
    assert locality(parse_fixpoint(f"mu T(y,x). {print_formula(around_y)}")) == ("y", 1)
    with pytest.raises(TypeError):
        FixpointQuery(q.name, q.vars, q.body, 1)


def test_fixpoint_query_keeps_only_what_it_was_given():
    assert [f.name for f in fields(FixpointQuery)] == ["name", "vars", "body"]


@pytest.mark.parametrize(
    "text, reason",
    [
        ("mu T(x,y). exists z. G(x,z)", "unbounded quantifier"),
        ("mu T(x,y). x in N^1(y) & G(x,y)", "first declared variable"),
        ("mu T(y,x). y in N^1(x) & G(x,y)", "first declared variable"),
        (
            "mu T(x,y). exists z in N^1(x). (G(x,z) & T(z,y))",
            r"\['y'\] lack a .* guard",
        ),
        ("mu T(x,y). y in N^1(x) & (exists z in N^2(x). T(z,y))", "single locality"),
    ],
)
def test_fixpoint_locality_names_the_failing_condition(text, reason):
    q = parse_fixpoint(text)
    with pytest.raises(FormulaError, match=reason):
        locality(q)


def test_fixpoint_locality_reads_the_body_around_the_first_variable():
    q = parse_fixpoint("mu T(x,y). y in N^2(x) & (G(x,y) | T(y,x))")
    assert locality(q) == locality(q.body) == ("x", 2)


# ----------------------------------------------------------------- stats


def test_stats_simple_exists():
    s = stats(parse_formula("exists y. G(x,y)"))
    assert (s.num_free_vars, s.num_bound_vars, s.num_constants) == (1, 1, 0)
    assert s.w == 2 and s.v == 2


def test_stats_routing_table_body():
    s = stats(parse_fixpoint(ROUTING_TABLE_TEXT))
    assert s.num_free_vars == 3
    assert s.num_bound_vars == 2
    assert s.num_constants == 0
    assert s.w == 5 and s.v == 5


def test_stats_constants_only():
    s = stats(parse_formula("G(3,4)"))
    assert (s.num_free_vars, s.num_bound_vars, s.num_constants) == (0, 0, 2)
    assert s.w == 2 and s.v == 0


def test_stats_repeated_constant_counts_once():
    s = stats(parse_formula("G(3,3)"))
    assert s.num_constants == 1


def test_a_range_center_counts_as_a_constant():
    f = parse_formula("exists y in N^1(99). y = y")
    assert constants(f) == (99,)
    assert stats(f).num_constants == 1


# ------------------------------------------------------------ substitution


def test_substitute_free_variable():
    f = parse_formula("exists y. G(x,y)")
    g = substitute(f, "x", 3)
    assert g == Exists("y", Atom("G", (Const(3), Var("y"))))


def test_substitute_bound_variable_removes_binder():
    f = parse_formula("exists y. G(x,y)")
    g = substitute(f, "y", 3)
    assert g == Atom("G", (Var("x"), Const(3)))


def test_substitute_comparison():
    f = parse_formula("G(x,y) & y = d")
    g = substitute(f, "d", 7)
    assert g == And((Atom("G", (Var("x"), Var("y"))), Cmp("=", Var("y"), Const(7))))


def test_substitute_bounded_exists_keeps_guard():
    f = parse_formula("exists z in N^2(x). G(x,z)")
    g = substitute(f, "z", 5)
    assert g == And((InNbhd(Const(5), 2, Var("x")), Atom("G", (Var("x"), Const(5)))))


def test_substitute_bounded_forall_guards_by_implication():
    f = parse_formula("forall z in N^1(x). G(x,z)")
    g = substitute(f, "z", 5)
    assert g == Or(
        (Not(InNbhd(Const(5), 1, Var("x"))), Atom("G", (Var("x"), Const(5))))
    )


def test_substitute_keeps_w_constant_for_single_occurrence():
    f = parse_formula("exists y. G(x,y) & x != 9")
    before = stats(f).w
    after = stats(substitute(f, "y", 7)).w
    assert before == after  # one variable out, one fresh constant in


# --------------------------------------------------------- relativization


def test_relativize_adds_free_var_guard():
    f = parse_formula("G(x,y)")
    out = relativize(f, "x", 1)
    assert out == And((Atom("G", (Var("x"), Var("y"))), InNbhd(Var("y"), 1, Var("x"))))


def test_relativize_bounds_quantifier():
    f = parse_formula("exists z. G(x,z)")
    out = relativize(f, "x", 2)
    assert out == Exists("z", Atom("G", (Var("x"), Var("z"))), (Var("x"), 2))


def test_relativize_identity_when_nothing_to_do():
    f = parse_formula("G(x,x)")
    assert relativize(f, "x", 3) == f


def test_relativize_requires_free_center():
    with pytest.raises(FormulaError):
        relativize(parse_formula("G(y,z)"), "x", 1)


def test_relativize_needs_a_positive_radius():
    for k in (0, -1):
        with pytest.raises(FormulaError, match="radius must be >= 1"):
            relativize(parse_formula("exists y. G(x,y)"), "x", k)


def test_relativize_rejects_bounded_input():
    with pytest.raises(FormulaError, match="without neighborhood bounds"):
        relativize(parse_formula("exists y in N^1(x). G(x,y)"), "x", 2)
    tc1 = relativize_fixpoint(parse_fixpoint(TRANSITIVE_CLOSURE_TEXT), 1)
    with pytest.raises(FormulaError, match="without neighborhood bounds"):
        relativize_fixpoint(tc1, 2)


def test_relativize_preserves_free_vars_and_quantifier_count():
    f = parse_formula("(exists z. G(x,z)) & (forall u. (!G(u,y) | u = x))")
    out = relativize(f, "x", 2)
    assert set(free_vars(out)) == set(free_vars(f))
    def count_quants(g):
        from netquery.logic import subformulas, Exists, Forall
        return sum(1 for h in subformulas(g) if isinstance(h, (Exists, Forall)))
    assert count_quants(out) == count_quants(f)


# ------------------------------------------------------------- round trips


ROUND_TRIP_CASES = [
    "exists y. G(x,y)",
    "forall y. (!G(x,y) | (exists z. (G(y,z) & z != x)))",
    "G(x,h) & h = d",
    "exists z in N^2(x). G(x,z)",
    "y in N^1(x) & G(x,y)",
    "!(G(1,2) | G(2,1)) & x >= 3",
    "forall u. exists v. (G(u,v) | u = v)",
    "ReqNode(x) & (exists w. (T(w,x) & w != y))",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_parse_print_round_trip(text):
    f = parse_formula(text)
    g = parse_formula(print_formula(f))
    assert canonical_print(f) == canonical_print(g)


def test_canonical_print_identifies_alpha_equivalent():
    f = parse_formula("exists y. G(x,y)")
    g = parse_formula("exists banana. G(x,banana)")
    assert canonical_print(f) == canonical_print(g)
    assert canonical_print(f) != canonical_print(parse_formula("exists y. G(y,x)"))


def test_fixpoint_print_round_trip():
    for text in (ROUTING_TABLE_TEXT, SPANNING_TREE_TEXT, TRANSITIVE_CLOSURE_TEXT):
        q = parse_fixpoint(text)
        r = parse_fixpoint(print_fixpoint(q))
        assert q.name == r.name and q.vars == r.vars
        assert canonical_print(q.body) == canonical_print(r.body)


READ_CASES = [
    *dict.fromkeys([TWO_HOP_TEXT, HAS_NEIGHBOR_TEXT, *ROUND_TRIP_CASES]),
    ROUTING_TABLE_TEXT,
    SPANNING_TREE_TEXT,
    ROUTE_REQUEST_TEXT,
    NEXT_HOP_TEXT,
    TRANSITIVE_CLOSURE_TEXT,
]


@pytest.mark.parametrize("text", READ_CASES)
def test_one_read_is_a_fixed_point(text):
    """Reading a query means parsing its printed text, as a node reads the
    flood and as a query engine reads its query once for every node.  For
    each fixture query and its forms relativized at radius 1 and 2 (where
    they exist), with r = parse(print(q)), parse(print(r)) == r field for
    field, binder names included: a node that reads the relayed text of a
    read holds the very query the requester read."""
    if text.startswith("mu "):
        parse, show = parse_fixpoint, print_fixpoint
        q = parse(text)
        forms = [q] + [relativize_fixpoint(q, k) for k in (1, 2)]
    else:
        parse, show = parse_formula, print_formula
        q = parse(text)
        forms = [q]
        if free_vars(q) and not any(ranges(q)):
            forms += [relativize(q, free_vars(q)[0], k) for k in (1, 2)]
    for form in forms:
        r = parse(show(form))
        assert parse(show(r)) == r, show(form)
