"""Mutants that back claims of unchanged behaviour, kept with the tests
that kill them.

Each mutant names a source file, an exact snippet that occurs once in it,
the snippet's replacement and the tests that must fail with the
replacement in place.  `test_mutants.py` checks in tier-1 that every
snippet still occurs exactly once and that every killing test still
exists, so a change that moves the code updates or retires a mutant on
purpose.  Run

    python tests/mutants.py [NAME ...]

to apply each mutant (or the named ones) to a copy of `src/` and `tests/`
in a temporary directory and run its killing tests there.  The killing
tests first run once on the unmutated copy, where they must pass.  Each
mutant is reported as killed or survived; the exit status is 1 when one
survived or a killing test failed unmutated.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # the mutated file, relative to the repository root
    snippet: str
    replacement: str
    killers: tuple[str, ...]  # pytest node ids that must fail


MUTANTS = (
    # A node whose step keeps the index memo entry of a predicate that
    # changed probes an index of stale tuples.
    Mutant(
        "netlog-stale-memo-entry-kept",
        "src/netquery/netlog.py",
        "            memo.pop(key, None)\n",
        "",
        ("tests/test_netlog.py::test_sg_node_steps_send_the_pinned_facts",),
    ),
    # The requester of an FO-loc run adopts the query by injection, with no
    # mail: a step that skips the serve path unless mail came never relays.
    Mutant(
        "foloc-idle-guard-ignores-relay",
        "src/netquery/local_engine.py",
        "        work = self._serve_inbox(state, ctx, inbox, out) if inbox or state.relay else 0\n"
        "        if state.adopted and state.collector.radius is None:\n",
        "        work = self._serve_inbox(state, ctx, inbox, out) if inbox else 0\n"
        "        if state.adopted and state.collector.radius is None:\n",
        ("tests/test_local_engine.py::test_local_node_steps_send_the_pinned_payloads",),
    ),
    # A view that ignores a variable repeated inside one literal joins the
    # literal's tuples that disagree on it.  Both sides of
    # `test_compiled_program_tracks_oracle_stage_for_stage` run the view,
    # so only the test-side references catch it.
    Mutant(
        "factview-repeated-variable-filter-dropped",
        "src/netquery/netlog.py",
        "                if same:\n"
        "                    rows = [t for t in rows if all(t[a] == t[b] for a, b in same)]\n",
        "",
        ("tests/test_netlog.py::test_plans_yield_the_reference_bindings",),
    ),
)


def _pytest(where: Path, tests: list[str]) -> int:
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=where,
        env={**os.environ, "PYTHONPATH": str(where / "src")},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    ).returncode


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part)
        killers = sorted({t for m in chosen for t in m.killers})
        if _pytest(copy, killers) != 0:
            print("the killing tests fail on the unmutated copy")
            return 1
        for m in chosen:
            target = copy / m.path
            original = target.read_text()
            target.write_text(original.replace(m.snippet, m.replacement, 1))
            killed = _pytest(copy, list(m.killers)) != 0
            target.write_text(original)
            failed += not killed
            print(f"{m.name}: {'killed' if killed else 'SURVIVED'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
