"""The example query and rule program the benchmark runs, and the network
family the CLI's `fixtures` command writes.

The query is the transitive closure as an inflationary fixpoint; the rule
program is same generation, in centralized Datalog for `rewriter.compile`.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterator

from .oracle import Graph, make_graph

TRANSITIVE_CLOSURE_TEXT = "mu T(x,y). G(x,y) | (exists z. (T(x,z) & G(z,y)))"

# Same generation: two nodes with a common neighbor, closed under stepping
# both sides one hop outward.
SAME_GENERATION_DATALOG = """
SG(x,y) :- G(z,x); G(z,y); x != y.
SG(x,y) :- G(u,x); SG(u,v); G(v,y).
"""

_DEGREE_BOUND = 3


def exhaustive_graphs(max_n: int = 5) -> Iterator[tuple[str, Graph]]:
    """Every connected labeled graph on nodes 1..n for n in 2..max_n with
    maximum degree at most _DEGREE_BOUND."""
    for n in range(2, max_n + 1):
        all_edges = list(combinations(range(1, n + 1), 2))
        for mask in range(1 << len(all_edges)):
            edges = [e for i, e in enumerate(all_edges) if mask >> i & 1]
            if len(edges) < n - 1:
                continue
            degree: dict[int, int] = {v: 0 for v in range(1, n + 1)}
            for u, v in edges:
                degree[u] += 1
                degree[v] += 1
            if any(d > _DEGREE_BOUND for d in degree.values()):
                continue
            try:
                g = make_graph(edges, nodes=range(1, n + 1))
            except ValueError:
                continue
            yield (f"x{n}-{mask:04x}", g)
