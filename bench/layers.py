"""Per-layer measurement of one driver call.

Two instruments, used on separate calls so neither distorts the other:

* ``profile_call`` runs the call under cProfile and rolls self time up by
  ``netquery`` module.  Time spent in built-ins and the standard library is
  charged to the ``netquery`` module that called it.  The same profile gives
  exact call counts of named functions.
* ``count_call`` runs the call with counting wrappers installed from this
  file: around the engine that ``simnet.run`` drives, and around
  ``FOCore._match``.  A wrapped name that no longer exists is skipped and its
  counters are absent from the result.
"""
from __future__ import annotations

import cProfile
import importlib
import operator
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from env import PACKAGE_DIR
from netquery import engine_fo, simnet

MODULES = (
    "logic",
    "oracle",
    "simnet",
    "engine_fo",
    "engine_fp",
    "local_engine",
    "netlog",
    "rewriter",
)

# metric -> (module, qualified names whose calls it sums)
CALL_COUNTS = {
    "logic.substitute_calls": ("logic", ("substitute",)),
    "logic.canonical_print_calls": ("logic", ("canonical_print",)),
    "logic.parse_calls": ("logic", ("parse_formula", "parse_fixpoint")),
    "oracle.neighborhood_nodes_calls": ("oracle", ("Graph.neighborhood_nodes",)),
    "local_engine.resolve_trace_calls": ("local_engine", ("resolve_trace",)),
    "local_engine.holds_calls": ("local_engine", ("_holds",)),
    "netlog.match_literal_calls": ("netlog", ("_match_literal",)),
}

Key = tuple[str, int, str]  # cProfile's (file, first line, function name)


def _module_of(key: Key) -> Optional[str]:
    path = Path(key[0])
    return path.stem if path.parent == PACKAGE_DIR else None


def profile_call(call: Callable[[], Any]) -> tuple[Any, float, dict]:
    """Run ``call`` under cProfile; return its result, wall seconds and the
    raw stats table (key -> (cc, nc, tt, ct, callers))."""
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    try:
        result = call()
    finally:
        prof.disable()
    wall = time.perf_counter() - t0
    prof.create_stats()
    return result, wall, prof.stats


def self_time_by_module(stats: dict) -> dict[str, float]:
    """Self seconds per ``netquery`` module.  Time of a function outside the
    package goes to its callers in proportion to the time each caller spent
    in it, repeatedly, until it reaches package code; time that reaches none
    (the profiler's own calls) is left out."""
    shares_memo: dict[Key, dict[str, float]] = {}
    active: set[Key] = set()

    def shares(key: Key) -> dict[str, float]:
        # Fraction of `key`'s cumulative time charged to each module.
        mod = _module_of(key)
        if mod is not None:
            return {mod: 1.0}
        if key in shares_memo:
            return shares_memo[key]
        if key in active or key not in stats:
            return {}
        active.add(key)
        callers = {c: e[3] for c, e in stats[key][4].items() if c != key}
        total = sum(callers.values())
        out: dict[str, float] = defaultdict(float)
        for caller, ct in callers.items():
            if total > 0:
                for m, s in shares(caller).items():
                    out[m] += s * ct / total
        active.discard(key)
        shares_memo[key] = out
        return out

    by_module: dict[str, float] = defaultdict(float)
    for key, (_cc, _nc, tt, _ct, callers) in stats.items():
        mod = _module_of(key)
        if mod is not None:
            by_module[mod] += tt
            continue
        for caller, edge in callers.items():
            if caller != key:
                for m, s in shares(caller).items():
                    by_module[m] += s * edge[2]
    return dict(by_module)


def _defined(module: Any, qualname: str) -> bool:
    try:
        operator.attrgetter(qualname)(module)
    except AttributeError:
        return False
    return True


def call_counts(stats: dict) -> dict[str, int]:
    """Exact call counts of the functions in CALL_COUNTS, from the profile.
    A metric whose functions are all gone from the package is left out."""
    totals: dict[tuple[str, str], int] = defaultdict(int)
    for key, (_cc, nc, *_rest) in stats.items():
        mod = _module_of(key)
        if mod is not None:
            totals[(mod, key[2])] += nc
    out: dict[str, int] = {}
    for metric, (mod_name, qualnames) in CALL_COUNTS.items():
        module = importlib.import_module(f"netquery.{mod_name}")
        present = [q for q in qualnames if _defined(module, q)]
        if present:
            out[metric] = sum(totals[(mod_name, q.rsplit(".", 1)[-1])] for q in present)
    rng = 0
    for key, entry in stats.items():
        if Path(key[0]).name == "random.py" and key[2] in ("__init__", "seed"):
            rng += sum(
                e[0]
                for c, e in entry[4].items()
                if _module_of(c) == "simnet" and c[2] == "run"
            )
    out["simnet.rng_seeds"] = rng
    return out


class _CountingEngine:
    """Delegates to the engine ``simnet.run`` drives and counts its use."""

    def __init__(self, inner: Any, counts: dict[str, int]):
        self._inner = inner
        self._counts = counts

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def step(self, state, ctx, round_no, inbox):
        res = self._inner.step(state, ctx, round_no, inbox)
        c = self._counts
        c["node_steps"] += 1
        c["rounds"] = max(c["rounds"], round_no)
        c["busy_steps"] += bool(inbox or res.sends)
        c["work"] += res.steps
        return res

    def payload_bits(self, payload, enc):
        self._counts["payload_bits_calls"] += 1
        return self._inner.payload_bits(payload, enc)


@contextmanager
def _patched(owner: Any, name: str, make: Callable[[Any], Any]) -> Iterator[bool]:
    original = getattr(owner, name, None) if owner is not None else None
    if original is None:
        yield False
        return
    setattr(owner, name, make(original))
    try:
        yield True
    finally:
        setattr(owner, name, original)


def count_call(call: Callable[[], Any]) -> tuple[Any, dict[str, float]]:
    """Run ``call`` with the counting wrappers; return its result and the
    counters of every wrapper that could be installed."""
    c: dict[str, int] = defaultdict(int)

    def wrap_run(run):
        def counted_run(net, engine, *args, **kwargs):
            return run(net, _CountingEngine(engine, c), *args, **kwargs)

        return counted_run

    def wrap_match(match):
        def counted_match(self, leaf, cand):
            hit = match(self, leaf, cand)
            c["match_calls"] += 1
            c["match_hits"] += bool(hit)
            return hit

        return counted_match

    with ExitStack() as stack:
        have_run = stack.enter_context(_patched(simnet, "run", wrap_run))
        focore = getattr(engine_fo, "FOCore", None)
        have_match = stack.enter_context(_patched(focore, "_match", wrap_match))
        result = call()
    out: dict[str, float] = {}
    if have_run:
        out["simnet.node_steps"] = c["node_steps"]
        out["simnet.rounds"] = c["rounds"]
        out["simnet.busy_step_ratio"] = c["busy_steps"] / max(1, c["node_steps"])
        out["simnet.payload_bits_calls"] = c["payload_bits_calls"]
        out["engine.work"] = c["work"]
    if have_match:
        out["engine_fo.match_calls"] = c["match_calls"]
        out["engine_fo.match_hit_ratio"] = c["match_hits"] / max(1, c["match_calls"])
    return result, out
