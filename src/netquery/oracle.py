"""Centralized reference evaluation of graph queries — the ground truth.

Brute-force, unoptimized by design: nested iteration over all assignments,
BFS-recomputed metadata, inflationary fixpoints iterated stage by stage.
The one exception is a radius-bounded formula (`logic.locality`) in
`eval_fo` and `eval_fp_loc`: its non-centre variables range over the
centre's ball only, where its guards make every other assignment false.
`eval_fp` stays brute force, as the specification the ball evaluation is
tested against.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

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
    FormulaError,
    InNbhd,
    Not,
    Or,
    Term,
    check_atoms,
    constants,
    free_vars,
    locality,
)


class GraphError(ValueError):
    pass


class OracleError(ValueError):
    pass


# -------------------------------------------------------------------- graph


@dataclass(frozen=True)
class Graph:
    """Finite connected bounded-degree undirected graph with recomputed
    metadata and unary input facts, each on nodes of the graph and none
    named like the edge relation."""

    nodes: tuple[int, ...]  # sorted ids
    adj: Mapping[int, tuple[int, ...]]  # sorted neighbor lists
    degree_bound: int
    diameter: int
    unary: Mapping[str, frozenset[int]]

    def __post_init__(self) -> None:
        if EDGE_PRED in self.unary:
            raise GraphError(f"unary fact {EDGE_PRED} would shadow the edge relation")
        for pred, members in self.unary.items():
            bad = members.difference(self.adj)
            if bad:
                raise GraphError(f"{pred} fact references unknown node {min(bad)}")

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
    unary: Optional[Mapping[str, Iterable[int]]] = None,
    diameter: Optional[int] = None,
) -> Graph:
    """The graph on `edges` (plus isolated `nodes`).  Its degree bound is
    its largest degree, at least 1.  A family constructor passes its
    closed-form `diameter`; without one the exact diameter is computed by a
    BFS from every node, O(n*m)."""
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
    degree_bound = max(1, max(len(vs) for vs in sorted_adj.values()))
    ordered = tuple(sorted(node_set))
    if len(_bfs(sorted_adj, ordered[0])) != len(ordered):
        raise GraphError("graph is not connected")
    if diameter is None:
        diameter = max(max(_bfs(sorted_adj, u).values()) for u in ordered)
    unary_map = {p: frozenset(m) for p, m in (unary or {}).items()}
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
    """Truth of f under `env`, for an f whose atoms `check_atoms` admits
    with the `aux` relations (`_check_query` checks that)."""
    aux = aux or {}
    if isinstance(f, BoolConst):
        return f.value
    if isinstance(f, Atom):
        args = tuple(_resolve(t, env) for t in f.args)
        if f.pred == EDGE_PRED:
            return g.has_edge(args[0], args[1])
        if f.pred in aux:
            return args in aux[f.pred].tuples
        return args[0] in g.unary.get(f.pred, ())  # closed-world
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


def _check_query(g: Graph, query, aux: AuxRelations) -> None:
    """Reject what the oracle cannot decide: a query `check_atoms` does
    not admit with the `aux` relations, or a constant that names no node."""
    try:
        check_atoms(query, {name: rel.arity for name, rel in aux.items()})
    except FormulaError as err:
        raise OracleError(str(err)) from None
    for c in constants(query.body if isinstance(query, FixpointQuery) else query):
        if c not in g.adj:
            raise OracleError(f"constant {c} does not name a node")


def eval_fo(g: Graph, f: Formula) -> Relation:
    """All satisfying assignments to the free variables, its columns the
    free variables in order of first occurrence."""
    _check_query(g, f, {})
    fv = free_vars(f)
    return Relation(len(fv), _satisfying(g, f, fv, _ball_candidates(g, f, fv), None))


def _satisfying(
    g: Graph,
    f: Formula,
    fv: Sequence[str],
    candidates: Iterable[tuple[int, ...]],
    aux: Optional[AuxRelations],
) -> frozenset[tuple[int, ...]]:
    """The candidate assignments to `fv` under which f holds."""
    return frozenset(t for t in candidates if holds(g, f, dict(zip(fv, t)), aux))


def _ball_candidates(
    g: Graph, f: Formula, fv: Sequence[str]
) -> Iterable[tuple[int, ...]]:
    """Every assignment to `fv` that can satisfy f.  For a radius-bounded f
    (`logic.locality`) the centre ranges over all nodes and every other
    variable over the centre's ball, outside which its guard is false;
    otherwise every assignment is a candidate."""
    try:
        x, k = locality(f)
    except FormulaError:
        return product(g.nodes, repeat=len(fv))
    i = fv.index(x)
    return (
        rest[:i] + (a,) + rest[i:]
        for a in g.nodes
        for rest in product(g.neighborhood_nodes(a, k), repeat=len(fv) - 1)
    )


# -------------------------------------------------------------- fp semantics


def eval_fp(
    g: Graph,
    q: FixpointQuery,
    aux: Optional[AuxRelations] = None,
) -> StageTrace:
    """Inflationary fixpoint: I_0 = empty, I_{i+1} = body(I_i) union I_i."""
    _check_query(g, q, aux or {})
    return _stages(g, q, aux, lambda stage: _satisfying(
        g, q.body, q.vars, product(g.nodes, repeat=q.arity), stage
    ))


def eval_fp_loc(g: Graph, q: FixpointQuery) -> StageTrace:
    """`eval_fp` for a radius-bounded query, over balls.  `logic.locality`
    guards every declared variable but the centre x = vars[0] by a top-level
    `y in N^k(x)`, so a tuple with a component outside x's k-ball is false
    in every stage: the centre ranges over all nodes, the other variables
    over its ball only, and each stage equals `eval_fp`'s."""
    try:
        locality(q)
    except FormulaError as err:
        raise OracleError(f"eval_fp_loc needs a radius-bounded query: {err}") from None
    _check_query(g, q, {})
    candidates = list(_ball_candidates(g, q.body, q.vars))
    return _stages(
        g, q, None, lambda stage: _satisfying(g, q.body, q.vars, candidates, stage)
    )


def _stages(
    g: Graph,
    q: FixpointQuery,
    aux: Optional[AuxRelations],
    produce: Callable[[AuxRelations], Iterable[tuple[int, ...]]],
) -> StageTrace:
    """The inflationary stages of q, where `produce` gives the tuples the
    body holds for under the relations of one stage."""
    stage = dict(aux or {})
    ell = q.arity
    stages = [Relation(ell, frozenset())]
    current: frozenset[tuple[int, ...]] = frozenset()
    cap = g.n**ell + 2
    for _ in range(cap):
        stage[q.name] = Relation(ell, current)
        nxt = current.union(produce(stage))
        stages.append(Relation(ell, nxt))
        if nxt == current:
            return StageTrace(tuple(stages))
        current = nxt
    raise OracleError("fixpoint did not converge within the stage cap")


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
    from .netlog import (
        FactView, NetlogError, _match_literal, both_ways, group_facts, plan_rule,
    )

    try:
        plans = [plan_rule(rule) for rule in program.rules]
    except NetlogError as e:
        raise OracleError(str(e)) from None
    facts: frozenset[tuple[str, tuple[int, ...]]] = frozenset()
    stages = [facts]
    cap = datalog_cap(program, g)
    edges = both_ways(g.edges())
    for _ in range(cap):
        view = FactView(group_facts(facts), g.unary, edges)
        out: list[tuple[str, tuple[int, ...]]] = []
        for plan in plans:
            _match_literal(plan, view, out)
        derived = set(out)
        nxt = facts | derived
        stages.append(nxt)
        if nxt == facts:
            return StageTrace(tuple(stages))
        facts = nxt
    raise OracleError("datalog evaluation did not converge within the stage cap")


def datalog_cap(program, g: Graph) -> int:
    """Stages that suffice for a rule program on g: one per fact its heads
    can derive (n**arity per head predicate), plus two."""
    heads = {(r.head.pred, len(r.head.args)) for r in program.rules}
    return sum(g.n**arity for _pred, arity in heads) + 2
