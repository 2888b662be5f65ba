"""The mutant catalogue (`mutants.py`) still applies to the tree."""
from __future__ import annotations

from mutants import MUTANTS, ROOT


def test_every_mutant_snippet_occurs_exactly_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (ROOT / m.path).read_text().count(m.snippet) == 1, m.name
        assert m.replacement != m.snippet, m.name


def test_every_killing_test_exists():
    for m in MUTANTS:
        assert m.killers, m.name
        for node in m.killers:
            path, name = node.split("::")
            assert f"\ndef {name.split('[')[0]}(" in (ROOT / path).read_text(), node
