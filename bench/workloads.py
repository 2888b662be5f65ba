"""The four benchmark workloads.

Each workload builds its network and query from a seed (the set-up), then
exposes one whole driver call and the centralized oracle answer that call
must reproduce.  The seed is the only input: it becomes both the port seed
and the delivery-order seed, so the program sees nothing but the generated
network and query.  Why each workload exists is in README.md.
"""
from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from netquery import rewriter, simnet
from netquery.engine_fp import run_qe_fp
from netquery.fixtures import SAME_GENERATION_DATALOG, TRANSITIVE_CLOSURE_TEXT
from netquery.local_engine import run_qe_fo_loc, run_qe_fp_loc
from netquery.logic import parse_fixpoint, parse_formula, relativize_fixpoint
from netquery.netlog import parse_datalog, run_netlog
from netquery.oracle import (
    eval_datalog,
    eval_fo,
    eval_fp,
    eval_fp_loc,
    grid_graph,
    path_graph,
    ring_graph,
)

# Every node whose radius-1 ball holds two distinct neighbours (the same
# formula as DEG2 in tests/test_local_engine.py).
DEG2 = "exists y in N^1(x). exists z in N^1(x). (G(x,y) & G(x,z) & y != z)"

# Set-up spans, recorded around the calls into each layer.  The traced run
# reports each as its share of the set-up.
SETUP_SPANS = (
    "oracle.make_graph",
    "simnet.make_network",
    "logic.parse",
    "rewriter.compile",
)


class Spans:
    """Accumulates wall seconds per span name."""

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(SETUP_SPANS, 0.0)

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0


@dataclass(frozen=True)
class Prepared:
    """A set-up workload.  ``call`` runs one driver call and returns the
    relation's tuples and the simulated metrics; ``oracle`` returns the
    tuples the centralized evaluator derives; ``graph`` names the network
    so oracle digests can be pinned per network."""

    call: Callable[[], tuple[frozenset, simnet.Metrics]]
    oracle: Callable[[], frozenset]
    graph: str


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict[str, int]  # "full" and "tiny" -> the network size parameter
    setup: Callable[[int, int, Spans], Prepared]


def _fp_tc_path(n: int, seed: int, span: Spans) -> Prepared:
    with span("oracle.make_graph"):
        g = path_graph(n)
    with span("simnet.make_network"):
        net = simnet.make_network(g, port_seed=seed)
    with span("logic.parse"):
        q = parse_fixpoint(TRANSITIVE_CLOSURE_TEXT)

    def call():
        rel, metrics = run_qe_fp(net, q, 1, order_seed=seed)
        return rel.tuples, metrics

    return Prepared(call, lambda: eval_fp(g, q).final.tuples, f"path_graph({n})")


def _foloc_grid(side: int, seed: int, span: Spans) -> Prepared:
    with span("oracle.make_graph"):
        g = grid_graph(side, side)
    with span("simnet.make_network"):
        net = simnet.make_network(g, mode=simnet.ANONYMOUS, port_seed=seed)
    with span("logic.parse"):
        f = parse_formula(DEG2)

    def call():
        rel, metrics = run_qe_fo_loc(net, f, 1, order_seed=seed)
        return rel.tuples, metrics

    return Prepared(call, lambda: eval_fo(g, f).tuples, f"grid_graph({side}, {side})")


def _fploc_ring(n: int, seed: int, span: Spans) -> Prepared:
    with span("oracle.make_graph"):
        g = ring_graph(n)
    with span("simnet.make_network"):
        net = simnet.make_network(g, mode=simnet.ANONYMOUS, port_seed=seed)
    with span("logic.parse"):
        q = relativize_fixpoint(parse_fixpoint(TRANSITIVE_CLOSURE_TEXT), 1)

    def call():
        rel, metrics = run_qe_fp_loc(net, q, 1, order_seed=seed)
        return rel.tuples, metrics

    return Prepared(call, lambda: eval_fp_loc(g, q).final.tuples, f"ring_graph({n})")


def _netlog_sg(side: int, seed: int, span: Spans) -> Prepared:
    with span("oracle.make_graph"):
        g = grid_graph(side, side)
    with span("rewriter.compile"):
        out = rewriter.compile(SAME_GENERATION_DATALOG, g.diameter)
    with span("simnet.make_network"):
        net = simnet.make_network(g, port_seed=seed)

    def call():
        instance, metrics = run_netlog(out.program, net, order_seed=seed)
        return instance.facts_of("SG"), metrics

    def oracle():
        last = eval_datalog(parse_datalog(SAME_GENERATION_DATALOG), g).final
        return frozenset(args for pred, args in last if pred == "SG")

    return Prepared(call, oracle, f"grid_graph({side}, {side})")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fp-tc-path", {"full": 5, "tiny": 3}, _fp_tc_path),
        Workload("foloc-grid", {"full": 30, "tiny": 3}, _foloc_grid),
        Workload("fploc-ring", {"full": 512, "tiny": 8}, _fploc_ring),
        Workload("netlog-sg", {"full": 3, "tiny": 2}, _netlog_sg),
    )
}


def digest(tuples: frozenset) -> str:
    """Order-independent fingerprint of a relation's tuples."""
    return hashlib.sha256(repr(sorted(tuples)).encode()).hexdigest()
