"""Distributed evaluation of radius-bounded queries on port-numbered networks.

The engines here answer radius-bounded queries, as `logic.locality` defines
them: every quantifier and every free variable is confined to the
fixed-radius neighborhood of one center variable.  A node reconstructs its
surroundings without reading any neighbor identity: it floods bounded walks
over its ports, every visited node records the port trace of each walk that
reaches it, and the returned traces are quotiented by the equivalence that
relates two walks exactly when some visited node certifies that they end at
the same place.  The quotient classes serve as self-made local names:
formulas are evaluated over them, fixpoint tables are keyed by them, and the
table fragment held by a nearby node is consulted by source-routing a
request along a recorded walk and re-locating each name in the holder's own
frame.

Concurrent collections are kept apart by a constant-size random nonce drawn
by each initiator: two different initiators can otherwise record identical
port traces at the same node (for instance on a ring whose ports are labeled
the same way everywhere), which would merge classes that belong to distinct
nodes.  The nonce scopes every record to one wave, and the reconstruction
verifier cross-checks the outcome against the reference construction.

The module also provides centralized reference constructions (direct walk
enumeration on the network object) used to validate the protocol, and a
reconstruction verifier.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence, Union

from .engine_fo import EngineError, _check_fixpoint_vars, _run_from_requester
from .logic import (
    EDGE_PRED,
    And,
    Atom,
    BoolConst,
    Cmp,
    Exists,
    FixpointQuery,
    Forall,
    Formula,
    FormulaError,
    InNbhd,
    Not,
    Or,
    Var,
    _UnionFind,
    atoms,
    constants,
    free_vars,
    locality,
    parse_fixpoint,
    parse_formula,
    print_fixpoint,
    print_formula,
    subformulas,
)
from .oracle import neighborhood
from .simnet import (
    EncodingParams,
    Message,
    Network,
    NodeContext,
    NodeEngine,
    StepResult,
    broadcast,
    check_locally_consistent,
)

__all__ = [
    "PortTrace",
    "LocalTopology",
    "collect_topology",
    "verify_reconstruction",
    "resolve_trace",
    "reverse_trace",
    "reduce_trace",
    "run_qe_fo_loc",
    "run_qe_fp_loc",
    "check_locally_consistent",
    "local_payload_bits",
    "FOLocReport",
    "FPLocReport",
]


# A port trace is a flat tuple of port numbers: positions 0, 2, 4, ... are
# the ports a walk leaves through and positions 1, 3, 5, ... the ports it
# arrives on.  Even length means the trace pins down a node; the empty trace
# names the walk's start.
PortTrace = tuple[int, ...]

_NONCE_BITS = 32
_SMALL_COUNTER_BITS = 8


# ------------------------------------------------------------ trace algebra


def reverse_trace(trace: PortTrace) -> PortTrace:
    """The same walk traversed backwards (even-length traces only)."""
    if len(trace) % 2:
        raise EngineError("only even-length traces can be reversed")
    return tuple(reversed(trace))


def reduce_trace(trace: PortTrace) -> PortTrace:
    """Cancel immediate reversals (leave and re-enter over the same edge)."""
    if len(trace) % 2:
        raise EngineError("only even-length traces can be reduced")
    steps: list[tuple[int, int]] = []
    for i in range(0, len(trace), 2):
        step = (trace[i], trace[i + 1])
        if steps and steps[-1] == (step[1], step[0]):
            steps.pop()
        else:
            steps.append(step)
    return tuple(x for s in steps for x in s)


def resolve_trace(net: Network, start: int, trace: PortTrace) -> int:
    """Walk a trace over the network's port assignment and return the
    endpoint (harness-side helper; nodes never resolve traces to ids)."""
    if len(trace) % 2:
        raise EngineError("only even-length traces pin down a node")
    cur = start
    for i in range(0, len(trace), 2):
        nxt = net.neighbor_on_port(cur, trace[i])
        if net.port_to[nxt][cur] != trace[i + 1]:
            raise EngineError(
                f"trace {trace!r} does not follow the port assignment"
            )
        cur = nxt
    return cur


# ------------------------------------------------------------ the quotient


@dataclass(frozen=True)
class LocalTopology:
    """The neighborhood a node reconstructs from traces alone.  The recorded
    walk traces are partitioned by the certified same-endpoint equivalence
    (closed reflexively, symmetrically and transitively); the classes are
    the vertices, named by index and represented by their least trace, with
    edges certified by recorded walks, plus the input facts and (where the
    identity mode provides one) the label carried home by the collection."""

    classes: tuple[frozenset[PortTrace], ...]
    class_of: Mapping[PortTrace, int]
    reps: tuple[PortTrace, ...]
    vertices: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    center: int
    attrs: Mapping[int, frozenset[str]]
    labels: Mapping[int, Optional[int]]

    def rep(self, idx: int) -> PortTrace:
        return self.reps[idx]

    def dist(self, idx: int) -> int:
        return len(self.reps[idx]) // 2

    def class_index(self, trace: PortTrace) -> int:
        try:
            return self.class_of[trace]
        except KeyError:
            raise EngineError(
                f"trace {trace!r} lies outside the collected fragment"
            ) from None

    def has_edge(self, a: int, b: int) -> bool:
        return a != b and (min(a, b), max(a, b)) in self.edges


# Per-trace collection record: (tracelist of the endpoint, its input facts,
# its exposed label or None).
_Entry = tuple[tuple[PortTrace, ...], tuple[str, ...], Optional[int]]


def _topology_from_entries(
    radius: int, entries: Mapping[PortTrace, _Entry]
) -> LocalTopology:
    uf = _UnionFind(entries)
    for t, e in entries.items():
        for u in e[0]:
            if u in entries:
                uf.union(t, u)
    groups: dict[PortTrace, set[PortTrace]] = {}
    for t in entries:
        groups.setdefault(uf.find(t), set()).add(t)
    keyed = sorted(
        (min((len(t), t) for t in g), frozenset(g)) for g in groups.values()
    )
    classes = tuple(g for _, g in keyed)
    reps = tuple(key[1] for key, _ in keyed)
    class_of = {t: i for i, g in enumerate(classes) for t in g}
    vertices = tuple(
        i for i, r in enumerate(reps) if len(r) // 2 <= radius
    )
    vset = set(vertices)
    edges: set[tuple[int, int]] = set()
    for t in entries:
        if not t:
            continue
        c1 = class_of[t[:-2]]
        c2 = class_of[t]
        if c1 in vset and c2 in vset and c1 != c2:
            edges.add((min(c1, c2), max(c1, c2)))
    attrs: dict[int, frozenset[str]] = {}
    labels: dict[int, Optional[int]] = {}
    for i, cls in enumerate(classes):
        a: set[str] = set()
        ls: set[int] = set()
        for t in cls:
            e = entries[t]
            a.update(e[1])
            if e[2] is not None:
                ls.add(e[2])
        attrs[i] = frozenset(a)
        labels[i] = min(ls) if ls else None
    return LocalTopology(
        classes=classes,
        class_of=class_of,
        reps=reps,
        vertices=vertices,
        edges=frozenset(edges),
        center=class_of[()],
        attrs=attrs,
        labels=labels,
    )


# ----------------------------------------------- centralized reference build


def _walk_traces(net: Network, start: int, radius: int) -> dict[PortTrace, int]:
    """Every even trace of at most radius+1 steps from `start` that never
    immediately reverses, mapped to its endpoint."""
    out: dict[PortTrace, int] = {(): start}
    frontier: list[tuple[PortTrace, int]] = [((), start)]
    for _ in range(radius + 1):
        nxt: list[tuple[PortTrace, int]] = []
        for trace, u in frontier:
            entered = trace[-1] if trace else None
            for p in range(1, net.degree(u) + 1):
                if p == entered:
                    continue
                v = net.neighbor_on_port(u, p)
                t2 = trace + (p, net.port_to[v][u])
                out[t2] = v
                nxt.append((t2, v))
        frontier = nxt
    return out


def _central_entries(
    net: Network, start: int, radius: int
) -> dict[PortTrace, _Entry]:
    walks = _walk_traces(net, start, radius)
    by_end: dict[int, set[PortTrace]] = {}
    for t, u in walks.items():
        if t:
            by_end.setdefault(u, set()).add(t)
    g = net.graph
    out: dict[PortTrace, _Entry] = {}
    for t, u in walks.items():
        attrs = tuple(sorted(p for p, m in g.unary.items() if u in m))
        out[t] = (
            tuple(sorted(by_end.get(u, ()))),
            attrs,
            net.mode.label_of(u),
        )
    return out


def collect_topology(net: Network, a: int, k: int) -> LocalTopology:
    """Reference construction of the trace-quotient view of N^k(a): what the
    distributed collection at `a` produces, computed directly."""
    if a not in net.graph.adj:
        raise EngineError(f"{a} is not a node")
    if k < 1:
        raise EngineError("collection radius must be >= 1")
    return _topology_from_entries(k, _central_entries(net, a, k))


def verify_reconstruction(net: Network, a: int, k: int) -> bool:
    """True when the trace-quotient reconstruction of N^k(a) names the true
    neighborhood: every trace of a class resolves to the same node, the
    vertices map one-to-one onto N^k(a), and two vertices share an edge
    exactly when their nodes do."""
    topo = collect_topology(net, a, k)
    frag = neighborhood(net.graph, a, k)
    ends = [{resolve_trace(net, a, t) for t in cls} for cls in topo.classes]
    if any(len(e) != 1 for e in ends):
        return False
    node_of = [min(e) for e in ends]
    if sorted(node_of[c] for c in topo.vertices) != list(frag.nodes):
        return False
    edges = {frozenset(e) for e in frag.edges}
    return all(
        topo.has_edge(c, d) == (frozenset((node_of[c], node_of[d])) in edges)
        for c, d in itertools.combinations(topo.vertices, 2)
    )


# --------------------------------------------------------- query validation


def _check_local_atoms(
    f: Formula, mode_kind: str, table: Optional[tuple[str, int]] = None
) -> None:
    """Check that every atom of f can be decided over a collected
    neighborhood: node facts, edges, the fixpoint `table`, and order
    comparisons only where nodes carry labels; never a constant."""
    for g in atoms(f):
        if isinstance(g, Cmp):
            if g.op == ">=" and mode_kind == "anonymous":
                raise EngineError(
                    "order comparison needs node labels; "
                    "the network is anonymous"
                )
        elif isinstance(g, Atom):
            if g.pred == EDGE_PRED:
                continue
            if table is not None and g.pred == table[0]:
                if len(g.args) != table[1]:
                    raise EngineError(
                        f"table atom {g.pred} used with arity {len(g.args)}"
                    )
                if not all(isinstance(t, Var) for t in g.args):
                    raise EngineError("table atoms must use variables")
                continue
            if len(g.args) != 1:
                raise EngineError(
                    f"relation {g.pred}/{len(g.args)} is not available "
                    "on the network"
                )
    if constants(f):
        raise EngineError(
            "constants are not available to the local-fragment engines"
        )


def _validate_fo_local(f: Formula, mode_kind: str) -> tuple[str, int]:
    """The (center, radius) of a first-order query FO-loc can evaluate."""
    try:
        center, k = locality(f)
    except FormulaError as err:
        raise EngineError(str(err)) from None
    _check_local_atoms(f, mode_kind)
    return center, k


def _validate_fp_local(q: FixpointQuery, mode_kind: str) -> int:
    """The radius of a fixpoint query FP-loc can evaluate."""
    if q.radius is None:
        try:
            locality(q.body)
            reason = "the locality center must be the first declared variable"
        except FormulaError as err:
            reason = str(err)
        raise EngineError(
            "the fixpoint query carries no locality radius; "
            f"use the unrestricted fixpoint engine: {reason}"
        )
    _check_fixpoint_vars(q)
    _check_local_atoms(q.body, mode_kind, table=(q.name, len(q.vars)))
    return q.radius


# ----------------------------------------------------------- local evaluator


def _holds(
    f: Formula,
    env: dict[str, int],
    topo: LocalTopology,
    domain: tuple[int, ...],
    table: Optional[tuple[str, Callable[[int, tuple[int, ...]], bool]]],
    work: list[int],
) -> bool:
    """Truth of f over the classes, with the table atoms named table[0]
    decided by table[1](holder, args)."""
    work[0] += 1
    if isinstance(f, BoolConst):
        return f.value
    if isinstance(f, Atom):
        if f.pred == EDGE_PRED:
            a = env[f.args[0].name]
            b = env[f.args[1].name]
            return topo.has_edge(a, b)
        if table is not None and f.pred == table[0]:
            holder = env[f.args[0].name]
            return table[1](holder, tuple(env[t.name] for t in f.args[1:]))
        return f.pred in topo.attrs.get(env[f.args[0].name], frozenset())
    if isinstance(f, Cmp):
        a = env[f.left.name]
        b = env[f.right.name]
        if f.op == "=":
            return a == b
        if f.op == "!=":
            return a != b
        la, lb = topo.labels.get(a), topo.labels.get(b)
        if la is None or lb is None:
            raise EngineError("order comparison on an unlabeled node")
        return la >= lb
    if isinstance(f, InNbhd):
        return topo.dist(env[f.term.name]) <= f.radius
    if isinstance(f, Not):
        return not _holds(f.body, env, topo, domain, table, work)
    if isinstance(f, And):
        return all(
            _holds(p, env, topo, domain, table, work) for p in f.parts
        )
    if isinstance(f, Or):
        return any(
            _holds(p, env, topo, domain, table, work) for p in f.parts
        )
    if isinstance(f, (Exists, Forall)):
        # The domain is the one ball every bound names, and the parser gives
        # each binder a fresh name, so the binding is simply dropped after.
        settle = isinstance(f, Exists)  # the body value that settles f
        value = not settle
        for c in domain:
            env[f.var] = c
            if _holds(f.body, env, topo, domain, table, work) == settle:
                value = settle
                break
        env.pop(f.var, None)
        return value
    raise EngineError(f"cannot evaluate {type(f).__name__} locally")


def _assignments(
    center: str, rest: Sequence[str], topo: LocalTopology, domain: tuple[int, ...]
) -> Iterator[dict[str, int]]:
    """Every environment that binds `center` to the topology's center and
    each of `rest` to a class of `domain`."""
    for combo in itertools.product(domain, repeat=len(rest)):
        env = {center: topo.center}
        env.update(zip(rest, combo))
        yield env


# ------------------------------------------------------- collection protocol


def _wire_entries(entries: Mapping[PortTrace, _Entry]) -> tuple:
    return tuple(
        (t, e[0], e[1], e[2]) for t, e in sorted(entries.items())
    )


class _Collector:
    """Per-node state of the walk-flood collection.  One wave is launched by
    this node (identified by its nonce); waves of every other node are served
    with the same rules."""

    __slots__ = ("nonce", "radius", "records", "pending", "acc", "stored")

    def __init__(self, nonce: int):
        self.nonce = nonce
        self.radius: Optional[int] = None  # set by launch
        self.records: dict[int, set[PortTrace]] = {}
        self.pending: dict[tuple[int, PortTrace], set[int]] = {}
        self.acc: dict[tuple[int, PortTrace], dict[PortTrace, _Entry]] = {}
        self.stored: Optional[dict[PortTrace, _Entry]] = None

    @property
    def done(self) -> bool:
        return self.stored is not None

    def _self_entry(self, ctx: NodeContext, wave: int) -> _Entry:
        return (
            tuple(sorted(self.records.get(wave, ()))),
            tuple(sorted(ctx.self_unary)),
            ctx.label,
        )

    def launch(
        self, ctx: NodeContext, radius: int, out: list[tuple[int, Any]]
    ) -> None:
        self.radius = radius
        if not ctx.ports:
            self.stored = {(): self._self_entry(ctx, self.nonce)}
            return
        self.pending[(self.nonce, ())] = set(ctx.ports)
        self.acc[(self.nonce, ())] = {}
        for p in ctx.ports:
            out.append((p, ("C", self.nonce, radius, (p,))))

    def note_collect(self, msg: Message) -> None:
        """First pass over the inbox: record every arriving trace before any
        reply snapshot of this round is taken."""
        _, wave, _, todd = msg.payload
        full = tuple(todd) + (msg.dst_port,)
        if len(full) % 2:
            raise EngineError(f"malformed collection trace {full!r}")
        self.records.setdefault(wave, set()).add(full)

    def serve_collect(
        self, ctx: NodeContext, msg: Message, out: list[tuple[int, Any]]
    ) -> None:
        _, wave, budget, todd = msg.payload
        full = tuple(todd) + (msg.dst_port,)
        rest = [p for p in ctx.ports if p != msg.dst_port]
        if budget > 0 and rest:
            self.pending[(wave, full)] = set(rest)
            self.acc[(wave, full)] = {}
            for p in rest:
                out.append((p, ("C", wave, budget - 1, full + (p,))))
        else:
            entry = {full: self._self_entry(ctx, wave)}
            out.append((msg.dst_port, ("R", wave, full, _wire_entries(entry))))

    def serve_reply(
        self, ctx: NodeContext, msg: Message, out: list[tuple[int, Any]]
    ) -> None:
        _, wave, walk, wire = msg.payload
        walk = tuple(walk)
        key = (wave, walk[:-2])
        pend = self.pending.get(key)
        if pend is None or walk[-2] not in pend:
            raise EngineError("reply for a walk that was never forwarded")
        pend.discard(walk[-2])
        bucket = self.acc[key]
        for t, lst, attrs, label in wire:
            bucket[tuple(t)] = (tuple(lst), tuple(attrs), label)
        if pend:
            return
        del self.pending[key]
        entries = self.acc.pop(key)
        prefix = key[1]
        if prefix == ():
            if wave != self.nonce:
                raise EngineError("root reply for a foreign wave")
            entries[()] = self._self_entry(ctx, self.nonce)
            self.stored = entries
            return
        entries[prefix] = self._self_entry(ctx, wave)
        out.append((prefix[-1], ("R", wave, prefix, _wire_entries(entries))))

    def build(self) -> LocalTopology:
        assert self.stored is not None and self.radius is not None
        return _topology_from_entries(self.radius, self.stored)


def _node_nonce(ctx: NodeContext) -> int:
    # Stands in for each node's private random source; the true id seeds it
    # but never appears in any message or derived value.
    return random.Random(1_000_003 * ctx.node + 7).getrandbits(_NONCE_BITS)


# ------------------------------------------------------------ shared engine


class _LocalState:
    """What a local engine keeps per node: the adopted query, its centre
    variable and radius, the walk collection, and the topology and domain
    it yields."""

    __slots__ = ("query", "center", "k", "relay", "collector", "topology", "domain")

    def __init__(self, collector: _Collector) -> None:
        self.query: Any = None
        self.center = ""
        self.k = 0
        self.relay: Optional[str] = None  # the query text still to relay
        self.collector = collector
        self.topology: Optional[LocalTopology] = None
        self.domain: tuple[int, ...] = ()


class _LocalEngine(NodeEngine):
    """What the local engines share: adopt the first query heard and relay
    it once, serve the walk collection, and build the topology and the
    radius-k domain when the collection comes home.  An engine names its
    state class `_State` and its query printer `_print`, reads a query text
    into (query, centre variable, radius) in `_read`, and serves its own
    message tags in `_serve`.  One engine object serves every node of a
    run, so each distinct text is read, and the query it reads printed for
    the relay, once per run; a text that fails to read is not kept and
    fails again at every node that reads it."""

    def __init__(self) -> None:
        self.reads: dict[str, tuple[Any, str, int, str]] = {}

    def start(self, ctx: NodeContext) -> Any:
        return self._State(_Collector(_node_nonce(ctx)))

    def inject(self, state: Any, ctx: NodeContext, payload: Any) -> None:
        self._adopt(state, self._print(payload))

    def _adopt(self, state: _LocalState, text: str) -> None:
        if state.query is None:
            read = self.reads.get(text)
            if read is None:
                query, center, k = self._read(text)
                read = self.reads[text] = (query, center, k, self._print(query))
            state.query, state.center, state.k, state.relay = read

    def _serve(
        self, state: Any, ctx: NodeContext, m: Message, out: list[tuple[int, Any]]
    ) -> int:
        raise EngineError(f"unexpected message tag {m.payload[0]!r}")

    def _serve_inbox(
        self,
        state: _LocalState,
        ctx: NodeContext,
        inbox: Sequence[Message],
        out: list[tuple[int, Any]],
    ) -> int:
        """Note every arriving collection trace before any reply snapshot of
        this round is taken, serve the inbox in order, and relay a newly
        adopted query; returns the work done."""
        work = len(inbox)
        for m in inbox:
            if m.payload[0] == "C":
                state.collector.note_collect(m)
        for m in inbox:
            tag = m.payload[0]
            if tag == "lq":
                self._adopt(state, m.payload[1])
            elif tag == "C":
                state.collector.serve_collect(ctx, m, out)
            elif tag == "R":
                state.collector.serve_reply(ctx, m, out)
            else:
                work += self._serve(state, ctx, m, out)
        if state.relay is not None:
            out.extend(broadcast(ctx, ("lq", state.relay)))
            state.relay = None
        return work

    def _built(self, state: _LocalState) -> bool:
        """Build the topology and domain if the collection just came home,
        and say whether it did."""
        if state.topology is not None or not state.collector.done:
            return False
        topo = state.collector.build()
        state.topology = topo
        state.domain = tuple(i for i in topo.vertices if topo.dist(i) <= state.k)
        return True

    def payload_bits(self, payload: Any, enc: EncodingParams) -> int:
        return local_payload_bits(payload, enc)


# -------------------------------------------------------- first-order engine


@dataclass(frozen=True)
class FOLocReport:
    topology: Optional[LocalTopology]
    rows: frozenset[tuple[PortTrace, ...]]


class _FOLocState(_LocalState):
    __slots__ = ("rows",)

    def __init__(self, collector: _Collector) -> None:
        super().__init__(collector)
        self.rows: frozenset[tuple[PortTrace, ...]] = frozenset()


class FOLocEngine(_LocalEngine):
    """Radius-bounded first-order evaluation: flood the query, collect the
    k-neighborhood as a trace quotient, evaluate in-node over the classes.
    Only mail drives it, so it asks for no wake-up."""

    _State = _FOLocState
    _print = staticmethod(print_formula)

    def __init__(self, order: tuple[str, ...], mode_kind: str):
        super().__init__()
        self.order = tuple(order)
        self.mode_kind = mode_kind

    def _read(self, text: str) -> tuple[Formula, str, int]:
        f = parse_formula(text)
        return (f, *_validate_fo_local(f, self.mode_kind))

    def step(
        self,
        state: _FOLocState,
        ctx: NodeContext,
        round_no: int,
        inbox: Sequence[Message],
    ) -> StepResult:
        out: list[tuple[int, Any]] = []
        work = self._serve_inbox(state, ctx, inbox, out)
        if state.query is not None and state.collector.radius is None:
            state.collector.launch(ctx, state.k, out)
        if self._built(state):
            topo = state.topology
            assert topo is not None
            rest = [v for v in self.order if v != state.center]
            counter = [0]
            state.rows = frozenset(
                tuple(topo.rep(env[v]) for v in self.order)
                for env in _assignments(state.center, rest, topo, state.domain)
                if _holds(state.query, env, topo, state.domain, None, counter)
            )
            work += counter[0]
        return StepResult(
            sends=tuple(out),
            quiescent=not out and (
                state.query is None or state.topology is not None
            ),
            steps=1 + work,
        )

    def collect(self, state: _FOLocState, ctx: NodeContext) -> FOLocReport:
        return FOLocReport(topology=state.topology, rows=state.rows)


def run_qe_fo_loc(
    net: Network,
    formula: Union[Formula, str],
    requester: int,
    *,
    order: Optional[Sequence[str]] = None,
    order_seed: int = 0,
    round_cap: Optional[int] = None,
    with_placement: bool = False,
):
    """Evaluate a radius-bounded first-order query distributively; every node
    answers for itself as the center and the relation is the union of the
    resolved per-node answer fragments.  With `with_placement` the resolved
    per-node fragments are returned as a third value."""
    f = parse_formula(formula) if isinstance(formula, str) else formula
    _, k = _validate_fo_local(f, net.mode.kind)
    return _run_from_requester(
        net,
        lambda ordered: FOLocEngine(ordered, net.mode.kind),
        f,
        requester,
        free_vars(f),
        order,
        order_seed=order_seed,
        round_cap=(
            round_cap if round_cap is not None
            else net.graph.diameter + 2 * k + 16
        ),
        with_placement=with_placement,
        fragment=lambda a, rep: (
            tuple(resolve_trace(net, a, t) for t in row) for row in rep.rows
        ),
    )


# ----------------------------------------------------------- fixpoint engine


@dataclass(frozen=True)
class FPLocReport:
    topology: Optional[LocalTopology]
    tuples: frozenset[tuple[PortTrace, ...]]
    history: tuple[frozenset[tuple[PortTrace, ...]], ...]
    awake_windows: tuple[int, ...]


def _query_key(
    topo: LocalTopology, holder: int, args: tuple[int, ...]
) -> tuple[PortTrace, tuple[PortTrace, ...]]:
    route = topo.rep(holder)
    back = reverse_trace(route)
    names = tuple(reduce_trace(back + topo.rep(c)) for c in args)
    return route, names


def _fp_loc_clock(diameter: int, k: int) -> tuple[int, int, int]:
    """FP-loc's schedule at radius k: the collection starts in round c0,
    the first window in round f0, and a window lasts tau rounds."""
    c0 = diameter + 2
    return c0, c0 + 4 * k + 3, 3 * k + 2


class _FPLocState(_LocalState):
    __slots__ = ("table", "buffer", "history", "awake", "awake_windows",
                 "window", "had_new", "inform_heard", "max_relayed", "answers")

    def __init__(self, collector: _Collector) -> None:
        super().__init__(collector)
        self.table: set[tuple[PortTrace, ...]] = set()
        self.buffer: set[tuple[PortTrace, ...]] = set()
        self.history: list[frozenset[tuple[PortTrace, ...]]] = []
        self.awake = False
        self.awake_windows: list[int] = []
        self.window = -1
        self.had_new = False
        self.inform_heard = False
        self.max_relayed = 0
        self.answers: dict = {}


class FPLocEngine(_LocalEngine):
    """Radius-bounded inflationary fixpoint evaluation: collect the doubled
    neighborhood once, then run synchronized evaluation windows in which
    remote table fragments are consulted by source-routed, trace-named
    queries, new rows are committed at the window boundary, and nearby nodes
    are woken by bounded informs."""

    _State = _FPLocState
    _print = staticmethod(print_fixpoint)

    def __init__(self, mode_kind: str):
        super().__init__()
        self.mode_kind = mode_kind

    def _read(self, text: str) -> tuple[FixpointQuery, str, int]:
        q = parse_fixpoint(text)
        return q, q.vars[0], _validate_fp_local(q, self.mode_kind)

    def step(
        self,
        state: _FPLocState,
        ctx: NodeContext,
        round_no: int,
        inbox: Sequence[Message],
    ) -> StepResult:
        out: list[tuple[int, Any]] = []
        c0, f0, tau = _fp_loc_clock(ctx.diameter, state.k)
        if (
            state.topology is not None
            and round_no >= f0
            and (round_no - f0) % tau == 0
        ):
            self._cross_boundary(state)
        if (
            state.query is not None
            and state.topology is None
            and round_no >= f0
        ):
            raise EngineError("collection did not finish within its window")
        work = self._serve_inbox(state, ctx, inbox, out)
        if (
            state.query is not None
            and round_no == c0
            and state.collector.radius is None
        ):
            state.collector.launch(ctx, 2 * state.k, out)
        if self._built(state):
            state.awake = True
        if state.topology is not None and round_no >= f0:
            r = (round_no - f0) % tau
            if r == 0 and state.awake:
                work += self._open_window(state, out)
            elif r == 2 * state.k + 1 and state.awake:
                work += self._finalize_window(state, ctx, out)
        busy = state.query is not None and (
            state.topology is None or state.awake or bool(state.buffer)
        )
        return StepResult(
            sends=tuple(out),
            quiescent=not out and not busy,
            steps=1 + work,
            wake_at=self._wake_at(state, round_no, c0, f0, tau),
        )

    @staticmethod
    def _wake_at(
        state: _FPLocState, round_no: int, c0: int, f0: int, tau: int
    ) -> Optional[int]:
        """The next round in which the clock alone gives this node work:
        the launch, the end of the collection's window, the finalize of an
        awake window, or the next window boundary (quiescent nodes commit
        their history there too)."""
        if state.query is None:
            return None
        if state.topology is None:
            if state.collector.radius is None and round_no < c0:
                return c0
            return f0
        if round_no < f0:
            return f0
        start = round_no - (round_no - f0) % tau
        finalize = start + 2 * state.k + 1
        if state.awake and round_no < finalize:
            return finalize
        return start + tau

    # -- phases

    def _cross_boundary(self, state: _FPLocState) -> None:
        if state.window >= 0:
            state.table |= state.buffer
            state.buffer = set()
            state.history.append(frozenset(state.table))
            state.awake = state.had_new or state.inform_heard
        else:
            state.awake = True
        state.window += 1
        state.had_new = False
        state.inform_heard = False
        state.max_relayed = 0
        state.answers = {}

    def _serve(
        self,
        state: _FPLocState,
        ctx: NodeContext,
        m: Message,
        out: list[tuple[int, Any]],
    ) -> int:
        tag = m.payload[0]
        if tag == "A":
            return self._serve_ask(state, m, out)
        if tag == "B":
            return self._serve_answer(state, m, out)
        if tag == "N":
            state.inform_heard = True
            budget = m.payload[1]
            if budget - 1 > state.max_relayed:
                state.max_relayed = budget - 1
                out.extend(broadcast(ctx, ("N", budget - 1)))
            return 0
        return super()._serve(state, ctx, m, out)

    def _serve_ask(
        self, state: _FPLocState, m: Message, out: list[tuple[int, Any]]
    ) -> int:
        _, route, j, names = m.payload
        route = tuple(route)
        if m.dst_port != route[j - 1]:
            raise EngineError("routed query strayed from its walk")
        if j < len(route):
            out.append((route[j], ("A", route, j + 2, names)))
            return 1
        topo = state.topology
        if topo is None:
            raise EngineError("table query arrived before any table exists")
        row = tuple(
            topo.rep(topo.class_index(tuple(t))) for t in names
        )
        truth = row in state.table
        back = reverse_trace(route)
        out.append((back[0], ("B", back, 2, route, names, truth)))
        return 1

    def _serve_answer(
        self, state: _FPLocState, m: Message, out: list[tuple[int, Any]]
    ) -> int:
        _, back, j, route, names, truth = m.payload
        back = tuple(back)
        if m.dst_port != back[j - 1]:
            raise EngineError("routed answer strayed from its walk")
        if j < len(back):
            out.append((back[j], ("B", back, j + 2, route, names, truth)))
            return 1
        state.answers[(tuple(route), tuple(tuple(t) for t in names))] = truth
        return 0

    def _open_window(
        self, state: _FPLocState, out: list[tuple[int, Any]]
    ) -> int:
        q = state.query
        topo = state.topology
        assert q is not None and topo is not None
        ground: set[tuple[int, tuple[int, ...]]] = set()
        for g in subformulas(q.body):
            if not (isinstance(g, Atom) and g.pred == q.name):
                continue
            rest = [v for v in dict.fromkeys(t.name for t in g.args)
                    if v != q.vars[0]]
            for env in _assignments(q.vars[0], rest, topo, state.domain):
                ground.add(
                    (
                        env[g.args[0].name],
                        tuple(env[t.name] for t in g.args[1:]),
                    )
                )
        sent = 0
        for holder, args in sorted(ground):
            if holder == topo.center:
                continue
            route, names = _query_key(topo, holder, args)
            key = (route, names)
            if key in state.answers:
                continue
            state.answers[key] = None
            out.append((route[0], ("A", route, 2, names)))
            sent += 1
        return sent

    def _finalize_window(
        self,
        state: _FPLocState,
        ctx: NodeContext,
        out: list[tuple[int, Any]],
    ) -> int:
        q = state.query
        topo = state.topology
        assert q is not None and topo is not None

        def truth(holder: int, args: tuple[int, ...]) -> bool:
            """A ground table atom: the node's own committed rows directly,
            remote rows from the answers that came back this window."""
            if holder == topo.center:
                return tuple(topo.rep(c) for c in args) in state.table
            answer = state.answers.get(_query_key(topo, holder, args))
            if answer is None:
                raise EngineError("table query went unanswered within its window")
            return answer

        counter = [0]
        derived = {
            tuple(topo.rep(env[v]) for v in q.vars[1:])
            for env in _assignments(q.vars[0], q.vars[1:], topo, state.domain)
            if _holds(q.body, env, topo, state.domain, (q.name, truth), counter)
        }
        state.buffer = derived - state.table
        state.had_new = bool(state.buffer)
        state.awake_windows.append(state.window)
        if state.had_new:
            out.extend(broadcast(ctx, ("N", state.k)))
        state.awake = False
        return counter[0]

    def collect(self, state: _FPLocState, ctx: NodeContext) -> FPLocReport:
        return FPLocReport(
            topology=state.topology,
            tuples=frozenset(state.table),
            history=tuple(state.history),
            awake_windows=tuple(state.awake_windows),
        )


def default_fp_loc_round_cap(net: Network, q: FixpointQuery) -> int:
    assert q.radius is not None
    g = net.graph
    ell = len(q.vars) - 1
    total = sum(
        max(1, len(g.neighborhood_nodes(a, q.radius))) ** ell for a in g.nodes
    )
    _, f0, tau = _fp_loc_clock(g.diameter, q.radius)
    return f0 + (total + 3) * tau + 8


def run_qe_fp_loc(
    net: Network,
    query: Union[FixpointQuery, str],
    requester: int,
    *,
    order_seed: int = 0,
    round_cap: Optional[int] = None,
    with_placement: bool = False,
):
    """Evaluate a radius-bounded inflationary fixpoint query distributively;
    the relation is the union of the resolved per-node table fragments.
    With `with_placement` the resolved fragments are returned per node."""
    q = parse_fixpoint(query) if isinstance(query, str) else query
    _validate_fp_local(q, net.mode.kind)
    return _run_from_requester(
        net,
        lambda _order: FPLocEngine(net.mode.kind),
        q,
        requester,
        q.vars,
        None,
        order_seed=order_seed,
        round_cap=(
            round_cap if round_cap is not None
            else default_fp_loc_round_cap(net, q)
        ),
        with_placement=with_placement,
        fragment=lambda a, rep: (
            (a,) + tuple(resolve_trace(net, a, t) for t in row)
            for row in rep.tuples
        ),
    )


# ------------------------------------------------------------- message sizes


def _trace_bits(trace: Sequence[int], enc: EncodingParams) -> int:
    return 8 + enc.port_bits * len(trace)


def local_payload_bits(payload: tuple, enc: EncodingParams) -> int:
    """Wire size of a local-engine payload.  No field grows with the network
    size: traces and counters are bounded by the query radius and the degree
    bound, and nonces have a fixed width."""
    tag = payload[0]
    if tag == "lq":
        return enc.tag_bits + enc.text_bits(payload[1])
    if tag == "C":
        return (
            enc.tag_bits
            + _NONCE_BITS
            + _SMALL_COUNTER_BITS
            + _trace_bits(payload[3], enc)
        )
    if tag == "R":
        bits = enc.tag_bits + _NONCE_BITS + _trace_bits(payload[2], enc)
        for t, lst, attrs, label in payload[3]:
            bits += _trace_bits(t, enc)
            bits += sum(_trace_bits(u, enc) for u in lst)
            bits += sum(8 + enc.text_bits(s) for s in attrs)
            bits += 1 + (enc.id_bits if label is not None else 0)
        return bits
    if tag == "A":
        return (
            enc.tag_bits
            + _trace_bits(payload[1], enc)
            + _SMALL_COUNTER_BITS
            + sum(_trace_bits(t, enc) for t in payload[3])
        )
    if tag == "B":
        return (
            enc.tag_bits
            + _trace_bits(payload[1], enc)
            + _SMALL_COUNTER_BITS
            + _trace_bits(payload[3], enc)
            + sum(_trace_bits(t, enc) for t in payload[4])
            + 1
        )
    if tag == "N":
        return enc.tag_bits + _SMALL_COUNTER_BITS
    raise EngineError(f"unknown payload tag {tag!r}")
