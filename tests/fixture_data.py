"""Example queries, rule programs, network families and relabelling that
only the tests read.

The queries are classic distributed-networking computations: a one-hop
routing table, a spanning tree rooted at a requesting node, and a
route-discovery pair (request flooding plus next-hop backtracking).  The
rule programs are the store-and-push formulations of the same
computations, used to cross-check the distributed interpreter against the
centralized fixpoint evaluator.  The package keeps the texts the benchmark
runs (`netquery.fixtures`).
"""
from __future__ import annotations

import random
from typing import Mapping

from netquery.oracle import Graph, grid_graph, make_graph, path_graph, ring_graph, star_graph

# -------------------------------------------------------------- FO examples

# Nodes with a neighbor that has a second distinct neighbor.
TWO_HOP_TEXT = "forall y. (!G(x,y) | (exists z. (G(y,z) & z != x)))"

HAS_NEIGHBOR_TEXT = "exists y. G(x,y)"

# ------------------------------------------------------- fixpoint examples

# Routing table T(x,h,d): reach d from x via first hop h; a node adopts a
# route only while it has none for that destination.
ROUTING_TABLE_TEXT = (
    "mu T(x,h,d). (G(x,h) & h = d)"
    " | (G(x,h) & (exists z. (T(h,z,d) & x != z)) & !(exists u. T(x,u,d)))"
)

# Spanning tree edge ST(x,y): y attaches to the tree under x; ties among
# candidate parents are broken toward the smallest id.
SPANNING_TREE_TEXT = (
    "mu ST(x,y). (G(x,y) & ReqNode(x))"
    " | (!(exists x'. ST(x',y))"
    "    & (exists w. (ST(w,x) & w != y))"
    "    & G(x,y)"
    "    & (forall w'. forall x''. (!(ST(w',x'') & G(x'',y)) | x'' >= x)))"
)

# Route discovery: RouteReq(x,y,d) floods a request for destination d from
# the requesting node; each node forwards once.
ROUTE_REQUEST_TEXT = (
    "mu RouteReq(x,y,d). (G(x,y) & ReqNode(x) & dest(d))"
    " | ((exists w. (RouteReq(w,x,d) & w != y))"
    "    & G(x,y) & x != d & !(exists w'. RouteReq(w',y,d)))"
)

# Next-hop extraction NextHop(x,y,d) over a fixed RouteReq relation:
# backtrack the request path from the destination.
NEXT_HOP_TEXT = (
    "mu NextHop(x,y,d). (RouteReq(x,d,d) & y = d)"
    " | ((exists z. NextHop(y,z,d)) & RouteReq(x,y,d))"
)

# ------------------------------------------------------------ rule programs

# Store-and-push routing table program.  The copy rule keeps every stored
# route alive (a copy restricted to the G(x,d)-seeded rows would let the
# derived rows expire and the instance oscillate).
ROUTING_TABLE_PROGRAM = """
T(@x,d,d) :- G(@x,d).
T(@x,h,d) :- !existT(@x,d); G(@x,h); askT(@x,h,d).
existT(@x,d) :- T(@x,u,d).
^askT(@x,h,d) :- T(@h,z,d); G(@h,x); x != z.
T(@x,h,d) :- T(@x,h,d).
"""

# Store-and-push spanning tree program.  The rejection rule carries the
# strictness guard x' != x: without it every candidate parent would reject
# itself (x' >= x holds reflexively) and no node could ever attach.
SPANNING_TREE_PROGRAM = """
^ST(x,@y) :- G(@x,y); ReqNode(@x).
ST(x,@y) :- !existST(@y); delay(x,@y); !rej(x,@y).
^askST(x,@y) :- ST(w,@x); G(@x,y); w != y.
existST(@y) :- ST(x,@y).
rej(x',@y) :- askST(x,@y); askST(x',@y); x' >= x; x' != x.
delay(x,@y) :- askST(x,@y).
ST(x,@y) :- ST(x,@y).
"""

# Store-and-push route discovery program.  dest(d) is a global input fact
# readable on every node, so it carries no holding marker.
ROUTE_DISCOVERY_PROGRAM = """
^RouteReq(x,@y,d) :- G(@x,y); ReqNode(@x); dest(d).
RouteReq(x,@y,d) :- askRouteReq(x,@y,d); !existRR(@y,d).
^askRouteReq(x,@y,d) :- RouteReq(w,@x,d); G(@x,y); x != d; w != y.
existRR(@y,d) :- RouteReq(w',@y,d).
^Nexthop(@x,d,d) :- RouteReq(x,@d,d); G(@d,x).
^Nexthop(@x,y,d) :- RouteReq(x,@y,d); Nexthop(@y,z,d); G(@y,x).
RouteReq(x,@y,d) :- RouteReq(x,@y,d).
Nexthop(@x,d,d) :- Nexthop(@x,d,d).
"""

TRANSITIVE_CLOSURE_DATALOG = """
T(x,y) :- G(x,y).
T(x,y) :- G(x,z); T(z,y).
"""

# Game positions: a node wins when some neighbor is not winning.
WIN_DATALOG = """
win(x) :- G(x,y); !win(y).
"""

# Connectivity plus its strict part: far pairs are connected but not
# adjacent, exercising negation over the edge relation.
PATH_FAR_DATALOG = """
path(x,y) :- G(x,y).
path(x,y) :- G(x,z); path(z,y).
far(x,y) :- path(x,y); !G(x,y); x != y.
"""

# Store flip without copy rules: the instance alternates forever.
FLIP_PROGRAM = """
A(@x) :- !A(@x).
"""

# --------------------------------------------------------- network families


def fixture_graphs() -> list[tuple[str, Graph]]:
    """The standard comparison fixtures: paths, rings, stars up to six
    nodes, and two small grids."""
    out: list[tuple[str, Graph]] = []
    for n in range(2, 7):
        out.append((f"path-{n}", path_graph(n)))
    for n in range(3, 7):
        out.append((f"ring-{n}", ring_graph(n)))
    for n in range(3, 7):
        out.append((f"star-{n}", star_graph(n)))
    out.append(("grid-2x2", grid_graph(2, 2)))
    out.append(("grid-2x3", grid_graph(2, 3)))
    return out


_DEGREE_BOUND = 3


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """A random connected graph on nodes 1..n: a random spanning tree with
    degrees at most _DEGREE_BOUND, plus up to n extra edges within that
    bound."""
    nodes = list(range(1, n + 1))
    deg = {v: 0 for v in nodes}
    edges: set[tuple[int, int]] = set()
    order = nodes[1:]
    rng.shuffle(order)
    connected = [1]
    for v in order:
        cands = [u for u in connected if deg[u] < _DEGREE_BOUND]
        u = rng.choice(cands)
        edges.add((min(u, v), max(u, v)))
        deg[u] += 1
        deg[v] += 1
        connected.append(v)
    for _ in range(n):
        u, v = rng.sample(nodes, 2)
        e = (min(u, v), max(u, v))
        if e not in edges and deg[u] < _DEGREE_BOUND and deg[v] < _DEGREE_BOUND:
            edges.add(e)
            deg[u] += 1
            deg[v] += 1
    return make_graph(sorted(edges))


# ------------------------------------------------------------- genericity


def apply_isomorphism(g: Graph, mapping: Mapping[int, int]) -> Graph:
    """The image of g, its input facts included, under the node map."""
    edges = [(mapping[u], mapping[v]) for u, v in g.edges()]
    unary = {p: [mapping[x] for x in members] for p, members in g.unary.items()}
    return make_graph(
        edges,
        nodes=[mapping[u] for u in g.nodes],
        degree_bound=g.degree_bound,
        unary=unary,
    )
