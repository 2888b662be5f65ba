"""Pinned parser behaviour for formulas and rule programs.

The exact error messages, with their line and column, and a digest over a
seeded corpus of mutated fixtures pin what the two front ends accept, what
they build and how they fail, so a refactor of the shared tokenizer cannot
drift unnoticed.
"""
from __future__ import annotations

import hashlib
import random

import pytest

import fixture_data
from netquery import fixtures
from netquery.logic import ParseError, parse_fixpoint, parse_formula
from netquery.netlog import parse_datalog, parse_netlog


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (
            parse_netlog,
            "% routing table\nT(@x,y) :- G(@x,y).\nT(@x,z) :- T(@x,y) G(@y,z).\n",
            "expected '.', found 'G' (line 3, column 20)",
        ),
        (
            parse_formula,
            "# two hops\nexists y. G(x,y) &\n  exists . G(y,x)",
            "expected 'name', found '.' (line 3, column 10)",
        ),
        (parse_formula, "G(x,y) $ x = y", "unexpected character '$' (line 1, column 8)"),
        (
            parse_netlog,
            "T(@x,y) :- G(@x,y), x ≠ $.",
            "unexpected character '$' (line 1, column 25)",
        ),
        (parse_formula, "G(x,", "expected a term, found '' (line 1, column 5)"),
        (
            parse_datalog,
            "T(x,y) :- G(x,y)",
            "expected '.', found 'end of input' (line 1, column 17)",
        ),
        (
            parse_netlog,
            "T(@x,y) :- G(@x,y), x",
            "expected comparison operator, found '' (line 1, column 22)",
        ),
        (
            parse_fixpoint,
            "nu T(x,y). G(x,y)",
            "fixpoint query must start with 'mu' (line 1, column 1)",
        ),
        (parse_fixpoint, "mu T(x,y). G(x,y) )", "trailing input ')' (line 1, column 19)"),
        (
            parse_formula,
            "exists in. G(x,in)",
            "keyword 'in' cannot be a variable (line 1, column 8)",
        ),
        (
            parse_datalog,
            "T(@x,y) :- G(@x,y).",
            "holding marker @ is not allowed in centralized rules (line 1, column 3)",
        ),
        (
            parse_netlog,
            "T(@x,d) :-\n  G(@x,y), d = e - 2.",
            "only decrement guards of the form p = q - 1 are supported "
            "(line 2, column 18)",
        ),
    ],
)
def test_parse_error_message_and_position(parse, text, message):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert str(e.value) == message


def test_unicode_rule_operators_parse_like_ascii():
    unicode = parse_netlog("↑T(@y,x) :- G(@x,y), x ≠ y, x ≥ 1, ¬S(@x).")
    ascii_ = parse_netlog("^T(@y,x) :- G(@x,y), x != y, x >= 1, !S(@x).")
    assert unicode == ascii_


_ALPHABET = "()=.,;&|!^@:-%#\n xyzGPT01≠≥↑¬$"
_EDGE_CASES = ("", " ", "mu", "exists", "G(", "%", "#", "\n\n", "x ≠ y",
               "T(@x) :- G(@x,y).", "1", "@")


def _mutate(rng: random.Random, text: str) -> str:
    """Insert, delete or replace one to three characters."""
    s = list(text)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(3)
        i = rng.randrange(len(s) + 1)
        if op == 0 or not s:
            s.insert(i, rng.choice(_ALPHABET))
        elif op == 1:
            del s[min(i, len(s) - 1)]
        else:
            s[min(i, len(s) - 1)] = rng.choice(_ALPHABET)
    return "".join(s)


def _corpus(mutations: int, seed: int = 0):
    """(parser, input) pairs: every formula fixture through both formula
    parsers and every rule fixture through both rule parsers, each as
    written and in `mutations` random mutations, plus a few edge cases.
    The fixtures are the package's and the tests' together, in name order."""
    rng = random.Random(seed)
    texts = {**vars(fixture_data), **vars(fixtures)}
    for name in sorted(texts):
        if name.endswith("_TEXT"):
            parsers = (parse_formula, parse_fixpoint)
        elif name.endswith(("_PROGRAM", "_DATALOG")):
            parsers = (parse_netlog, parse_datalog)
        else:
            continue
        text = texts[name]
        for t in [text] + [_mutate(rng, text) for _ in range(mutations)]:
            for parse in parsers:
                yield parse, t
    for t in _EDGE_CASES:
        for parse in (parse_formula, parse_fixpoint, parse_netlog, parse_datalog):
            yield parse, t


def _outcome(parse, text: str) -> str:
    try:
        return repr(parse(text))
    except ValueError as e:  # ParseError, FormulaError, NetlogError
        return f"{type(e).__name__}: {e}"


def test_mutation_corpus_digest():
    lines = [
        f"{parse.__name__}\t{t!r}\t{_outcome(parse, t)}"
        for parse, t in _corpus(mutations=40)
    ]
    assert len(lines) == 1278
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "918b10e69ac29ad95902ca3fc918962246c3472f7e277427fcf4f2bc9dcb2ec3"
    )
