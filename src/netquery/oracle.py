"""Centralized reference evaluation of graph queries — the ground truth.

Brute-force, unoptimized by design: nested iteration over all assignments,
BFS-recomputed metadata, inflationary fixpoints iterated stage by stage.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .logic import (
    And,
    Atom,
    BoolConst,
    Cmp,
    Const,
    EDGE_PRED,
    Exists,
    FixpointQuery,
    Forall,
    Formula,
    InNbhd,
    Not,
    Or,
    Term,
    constants,
    free_vars,
)


class GraphError(ValueError):
    pass


class OracleError(ValueError):
    pass


# -------------------------------------------------------------------- graph


@dataclass(frozen=True)
class Graph:
    """Finite connected bounded-degree undirected graph with recomputed
    metadata and unary input facts."""

    nodes: tuple[int, ...]  # sorted ids
    adj: Mapping[int, tuple[int, ...]]  # sorted neighbor lists
    degree_bound: int
    diameter: int
    unary: Mapping[str, frozenset[int]]

    @property
    def n(self) -> int:
        return len(self.nodes)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj.get(u, ())

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each undirected edge once, as (min, max)."""
        for u in self.nodes:
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def neighborhood_nodes(self, a: int, k: int) -> tuple[int, ...]:
        return tuple(sorted(_bfs(self.adj, a, k)))

    def with_unary(self, unary: Mapping[str, Iterable[int]]) -> "Graph":
        merged = dict(self.unary)
        for pred, members in unary.items():
            merged[pred] = frozenset(members)
        return Graph(self.nodes, self.adj, self.degree_bound, self.diameter, merged)


def make_graph(
    edges: Iterable[tuple[int, int]],
    nodes: Optional[Iterable[int]] = None,
    degree_bound: Optional[int] = None,
    unary: Optional[Mapping[str, Iterable[int]]] = None,
    diameter: Optional[int] = None,
) -> Graph:
    """The graph on `edges` (plus isolated `nodes`).  A family constructor
    passes its closed-form `diameter`; without one the exact diameter is
    computed by a BFS from every node, O(n*m)."""
    edge_set: set[tuple[int, int]] = set()
    node_set: set[int] = set(nodes or ())
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at node {u}")
        edge_set.add((min(u, v), max(u, v)))
        node_set.add(u)
        node_set.add(v)
    if not node_set:
        raise GraphError("empty graph")
    adj: dict[int, list[int]] = {u: [] for u in node_set}
    for u, v in edge_set:
        adj[u].append(v)
        adj[v].append(u)
    sorted_adj = {u: tuple(sorted(vs)) for u, vs in adj.items()}
    max_deg = max((len(vs) for vs in sorted_adj.values()), default=0)
    if degree_bound is None:
        degree_bound = max(max_deg, 1)
    elif max_deg > degree_bound:
        offender = next(u for u, vs in sorted_adj.items() if len(vs) > degree_bound)
        raise GraphError(
            f"degree bound {degree_bound} violated at node {offender} "
            f"(degree {len(sorted_adj[offender])})"
        )
    ordered = tuple(sorted(node_set))
    if len(_bfs(sorted_adj, ordered[0])) != len(ordered):
        raise GraphError("graph is not connected")
    if diameter is None:
        diameter = max(max(_bfs(sorted_adj, u).values()) for u in ordered)
    unary_map = {p: frozenset(m) for p, m in (unary or {}).items()}
    for pred, members in unary_map.items():
        bad = members - node_set
        if bad:
            raise GraphError(f"{pred} fact references unknown node {sorted(bad)[0]}")
    return Graph(ordered, sorted_adj, degree_bound, diameter, unary_map)


def _bfs(
    adj: Mapping[int, tuple[int, ...]], src: int, limit: Optional[int] = None
) -> dict[int, int]:
    """Distance from src to every node at most `limit` hops away (every
    node when limit is None)."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if du == limit:
            continue
        for v in adj[u]:
            if v not in dist:
                dist[v] = du + 1
                queue.append(v)
    return dist


def path_graph(n: int) -> Graph:
    return make_graph(
        [(i, i + 1) for i in range(1, n)], nodes=range(1, n + 1), diameter=n - 1
    )


def ring_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"a ring needs at least 3 nodes, not {n}")
    edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    return make_graph(edges, diameter=n // 2)


def star_graph(n: int) -> Graph:
    """Center node 1 with n-1 leaves."""
    return make_graph(
        [(1, i) for i in range(2, n + 1)],
        nodes=range(1, n + 1),
        diameter=min(n - 1, 2),
    )


def grid_graph(rows: int, cols: int) -> Graph:
    """Row-major grid, ids 1..rows*cols."""
    if rows < 1 or cols < 1:
        raise GraphError(
            f"a grid needs at least one row and column, not {rows}x{cols}"
        )
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c + 1
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    return make_graph(
        edges, nodes=range(1, rows * cols + 1), diameter=rows + cols - 2
    )


# ---------------------------------------------------------------- relations


@dataclass(frozen=True)
class Relation:
    arity: int
    tuples: frozenset[tuple[int, ...]]

    def sorted_tuples(self) -> list[tuple[int, ...]]:
        return sorted(self.tuples)

    def __contains__(self, item) -> bool:
        return tuple(item) in self.tuples


def make_relation(arity: int, tuples: Iterable[Sequence[int]]) -> Relation:
    out = frozenset(tuple(t) for t in tuples)
    for t in out:
        if len(t) != arity:
            raise OracleError(f"tuple {t} does not have arity {arity}")
    return Relation(arity, out)


@dataclass(frozen=True)
class StageTrace:
    stages: tuple  # Relations or fact-set instances; I_0 empty, last two equal

    @property
    def final(self):
        return self.stages[-1]

    def __len__(self) -> int:
        return len(self.stages)


# -------------------------------------------------------------- fo semantics

AuxRelations = Mapping[str, Relation]


def _resolve(t: Term, env: Mapping[str, int]) -> int:
    if isinstance(t, Const):
        return t.value
    try:
        return env[t.name]
    except KeyError:
        raise OracleError(f"unbound variable {t.name!r}") from None


def holds(
    g: Graph,
    f: Formula,
    env: Mapping[str, int],
    aux: Optional[AuxRelations] = None,
) -> bool:
    aux = aux or {}
    if isinstance(f, BoolConst):
        return f.value
    if isinstance(f, Atom):
        args = tuple(_resolve(t, env) for t in f.args)
        if f.pred == EDGE_PRED:
            return g.has_edge(args[0], args[1])
        if f.pred in aux:
            return args in aux[f.pred].tuples
        if f.pred in g.unary:
            if len(args) != 1:
                raise OracleError(f"unary predicate {f.pred} used with arity {len(args)}")
            return args[0] in g.unary[f.pred]
        raise OracleError(f"unknown predicate {f.pred!r}")
    if isinstance(f, Cmp):
        a = _resolve(f.left, env)
        b = _resolve(f.right, env)
        return a == b if f.op == "=" else a != b if f.op == "!=" else a >= b
    if isinstance(f, InNbhd):
        t = _resolve(f.term, env)
        c = _resolve(f.center, env)
        return t in _bfs(g.adj, c, f.radius)
    if isinstance(f, Not):
        return not holds(g, f.body, env, aux)
    if isinstance(f, And):
        return all(holds(g, p, env, aux) for p in f.parts)
    if isinstance(f, Or):
        return any(holds(g, p, env, aux) for p in f.parts)
    if isinstance(f, (Exists, Forall)):
        if f.bound is None:
            domain: Iterable[int] = g.nodes
        else:
            center, radius = f.bound
            domain = g.neighborhood_nodes(_resolve(center, env), radius)
        inner = dict(env)
        if isinstance(f, Exists):
            for b in domain:
                inner[f.var] = b
                if holds(g, f.body, inner, aux):
                    return True
            return False
        for b in domain:
            inner[f.var] = b
            if not holds(g, f.body, inner, aux):
                return False
        return True
    raise TypeError(f"not a formula: {f!r}")


def _check_constants(g: Graph, f: Formula) -> None:
    for c in constants(f):
        if c not in g.adj:
            raise OracleError(f"constant {c} does not name a node")


def eval_fo(
    g: Graph,
    f: Formula,
    order: Optional[Sequence[str]] = None,
    aux: Optional[AuxRelations] = None,
) -> Relation:
    """All satisfying assignments to the free variables, in declared order
    (first occurrence unless an explicit order is given)."""
    _check_constants(g, f)
    fv = tuple(order) if order is not None else free_vars(f)
    if order is not None and set(order) != set(free_vars(f)):
        raise OracleError(
            f"order {order!r} does not match free variables {free_vars(f)!r}"
        )
    result: set[tuple[int, ...]] = set()
    env: dict[str, int] = {}

    def enumerate_from(i: int) -> None:
        if i == len(fv):
            if holds(g, f, env, aux):
                result.add(tuple(env[x] for x in fv))
            return
        for b in g.nodes:
            env[fv[i]] = b
            enumerate_from(i + 1)
        del env[fv[i]]

    enumerate_from(0)
    return Relation(len(fv), frozenset(result))


# -------------------------------------------------------------- fp semantics


def eval_fp(
    g: Graph,
    q: FixpointQuery,
    aux: Optional[AuxRelations] = None,
) -> StageTrace:
    """Inflationary fixpoint: I_0 = empty, I_{i+1} = body(I_i) union I_i."""
    _check_constants(g, q.body)
    aux = dict(aux or {})
    ell = q.arity
    stages = [Relation(ell, frozenset())]
    current: frozenset[tuple[int, ...]] = frozenset()
    cap = g.n**ell + 2
    for _ in range(cap):
        aux[q.name] = Relation(ell, current)
        produced = eval_fo(g, q.body, order=q.vars, aux=aux)
        nxt = current | produced.tuples
        stages.append(Relation(ell, nxt))
        if nxt == current:
            return StageTrace(tuple(stages))
        current = nxt
    raise OracleError("fixpoint did not converge within the stage cap")


def eval_fp_loc(g: Graph, q: FixpointQuery) -> StageTrace:
    if q.radius is None:
        raise OracleError("eval_fp_loc requires a query with a locality radius")
    return eval_fp(g, q)


# ----------------------------------------------------------- neighborhoods


@dataclass(frozen=True)
class NeighborhoodFragment:
    center: int
    nodes: tuple[int, ...]
    edges: frozenset[tuple[int, int]]  # (min, max) pairs within the fragment
    dist: Mapping[int, int]  # true distance from the center


def neighborhood(g: Graph, a: int, k: int) -> NeighborhoodFragment:
    if a not in g.adj:
        raise OracleError(f"unknown node {a}")
    if k < 0:
        raise OracleError("radius must be >= 0")
    dist = _bfs(g.adj, a, k)
    edges = frozenset((u, v) for u in dist for v in g.adj[u] if u < v and v in dist)
    return NeighborhoodFragment(a, tuple(sorted(dist)), edges, dist)


# ------------------------------------------------------------------ datalog


def eval_datalog(program, g: Graph) -> StageTrace:
    """Inflationary Datalog-with-negation evaluation: all rules fire
    simultaneously each stage against the previous instance; no
    stratification assumed.

    The program object must expose .rules, each rule .head/.body of relation
    literals (pred, args, positive) and comparison guards; the netlog module
    provides the concrete types and parser.
    """
    # local import to keep layering one-way
    from .netlog import FactView, NetlogError, plan_rule

    try:
        plans = [plan_rule(rule) for rule in program.rules]
    except NetlogError as e:
        raise OracleError(str(e)) from None
    facts: frozenset[tuple[str, tuple[int, ...]]] = frozenset()
    stages = [facts]
    cap = _datalog_cap(program, g)
    for _ in range(cap):
        view = FactView(facts, g.unary, g.edges())
        out: list[tuple[str, tuple[int, ...]]] = []
        for plan in plans:
            plan.fire(view, out)
        derived = set(out)
        nxt = facts | derived
        stages.append(nxt)
        if nxt == facts:
            return StageTrace(tuple(stages))
        facts = nxt
    raise OracleError("datalog evaluation did not converge within the stage cap")


def _datalog_cap(program, g: Graph) -> int:
    # Conservative: one stage per distinct derivable fact, plus two.
    heads = {(r.head.pred, len(r.head.args)) for r in program.rules}
    return sum(g.n**arity for _pred, arity in heads) + 2


# ------------------------------------------------------------- genericity


def apply_isomorphism(g: Graph, mapping: Mapping[int, int]) -> Graph:
    edges = [(mapping[u], mapping[v]) for u, v in g.edges()]
    unary = {p: [mapping[x] for x in members] for p, members in g.unary.items()}
    return make_graph(
        edges,
        nodes=[mapping[u] for u in g.nodes],
        degree_bound=g.degree_bound,
        unary=unary,
    )
