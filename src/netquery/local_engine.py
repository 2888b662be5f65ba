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

Concurrent collections are kept apart by the constant-size nonce each
initiator's context carries: two different initiators can otherwise record
identical port traces at the same node (for instance on a ring whose ports
are labeled the same way everywhere), which would merge classes that
belong to distinct nodes.  The nonce scopes every record to one wave.  The
simulator gives every node a distinct nonce (`simnet._nonce`); two equal
nonces, which a real random source could draw, would merge two waves
unnoticed.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence, Union

from .engine_fo import EngineError, _check_injected, _run_from_requester
from .logic import (
    EDGE_PRED,
    And,
    Atom,
    Cmp,
    Exists,
    FixpointQuery,
    Forall,
    Formula,
    FormulaError,
    InNbhd,
    Not,
    Or,
    atoms,
    check_atoms,
    constants,
    free_vars,
    locality,
    parse_fixpoint,
    parse_formula,
    print_fixpoint,
    print_formula,
    subformulas,
)
from .simnet import (
    EncodingParams,
    Network,
    NodeContext,
    NodeEngine,
    StepResult,
    _NONCE_BITS,
    broadcast,
    sends_bits,
)


# A port trace is a flat tuple of port numbers: positions 0, 2, 4, ... are
# the ports a walk leaves through and positions 1, 3, 5, ... the ports it
# arrives on.  Even length means the trace pins down a node; the empty trace
# names the walk's start.
PortTrace = tuple[int, ...]

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


# The centre's class.  `_topology_from_entries` visits traces in (length,
# trace) order, so the empty trace, the walk's start, founds class 0.
_CENTER = 0


@dataclass(frozen=True)
class LocalTopology:
    """The neighborhood a node reconstructs from traces alone, holding only
    what evaluation reads.  The recorded walk traces are partitioned by the
    certified same-endpoint equivalence (closed reflexively, symmetrically
    and transitively); `class_of` maps each trace to its class, and the
    classes are named by index and represented by their least trace, the
    centre's being `_CENTER`.  The edges join classes within the radius
    and are certified by recorded walks; each class has its input facts
    and (where the identity mode provides one) the label carried home by
    the collection."""

    class_of: Mapping[PortTrace, int]
    reps: tuple[PortTrace, ...]
    edges: frozenset[tuple[int, int]]
    attrs: Mapping[int, frozenset[str]]
    labels: Mapping[int, Optional[int]]

    def class_index(self, trace: PortTrace) -> int:
        try:
            return self.class_of[trace]
        except KeyError:
            raise EngineError(
                f"trace {trace!r} lies outside the collected fragment"
            ) from None


# A collection row: (a walk's trace, the tracelist its endpoint recorded,
# the endpoint's input facts, its exposed label or None).  It is made once,
# at the node it describes, and forwarded home unchanged.
_Row = tuple[PortTrace, tuple[PortTrace, ...], tuple[str, ...], Optional[int]]


def _topology_from_entries(
    radius: int, entries: Mapping[PortTrace, _Row]
) -> LocalTopology:
    """Quotient the rows (keyed by trace) by the same-endpoint relation.
    Each trace is linked both ways to every other collected trace its row
    lists.  Most rows list only their own trace, so only linked traces get
    an adjacency list, and a trace with none is a class of its own with
    nothing to re-check.  Traces are visited in (length, trace) order and
    each one not yet reached starts a class, so the first trace of a
    component is its representative and classes come out in representative
    order.  A class's facts and label are its representative's, and another
    trace of the class that disagrees means a wrong merge."""
    linked: dict[PortTrace, list[PortTrace]] = {}
    for t, row in entries.items():
        for u in row[1]:
            if u != t and u in entries:
                linked.setdefault(t, []).append(u)
                linked.setdefault(u, []).append(t)
    visit = sorted(entries)
    visit.sort(key=len)  # stable, so (length, trace) order
    class_of: dict[PortTrace, int] = {}
    reps: list[PortTrace] = []
    attrs: dict[int, frozenset[str]] = {}
    labels: dict[int, Optional[int]] = {}
    for t in visit:
        if t in class_of:
            continue
        c = class_of[t] = len(reps)
        _, _, facts, label = entries[t]
        members = [t] if t in linked else ()
        for u in members:
            for v in linked[u]:
                if v not in class_of:
                    class_of[v] = c
                    members.append(v)
            row = entries[u]
            if row[2] != facts or row[3] != label:
                raise EngineError(
                    f"traces {t!r} and {u!r} are merged but report "
                    "different facts or labels"
                )
        reps.append(t)
        attrs[c] = frozenset(facts)
        labels[c] = label
    # Representatives are in length order, so the classes within the radius
    # are a prefix, the first n.
    n = sum(len(t) <= 2 * radius for t in reps)
    edges: set[tuple[int, int]] = set()
    for t, c2 in class_of.items():
        if c2 < n and t:
            c1 = class_of[t[:-2]]
            if c1 < n and c1 != c2:
                edges.add((c1, c2) if c1 < c2 else (c2, c1))
    return LocalTopology(
        class_of=class_of,
        reps=tuple(reps),
        edges=frozenset(edges),
        attrs=attrs,
        labels=labels,
    )


# ---------------------------------------------------------- query admission


def _locality(query: Union[Formula, FixpointQuery]) -> tuple[str, int]:
    """`logic.locality`, whose FormulaError is re-raised as EngineError."""
    try:
        return locality(query)
    except FormulaError as err:
        raise EngineError(
            "the fixpoint query carries no locality radius; use the "
            f"unrestricted fixpoint engine: {err}"
            if isinstance(query, FixpointQuery) else str(err)
        ) from None


def _admit_local(net: Network, query: Union[Formula, FixpointQuery]) -> int:
    """Admit a query to the local engines, once per run before any node
    steps, and return its radius: a radius-bounded query (`_locality`),
    atoms by `check_atoms`, no constant, and order comparisons only where
    nodes carry labels.  The engines trust what passes."""
    _, k = _locality(query)
    f = query.body if isinstance(query, FixpointQuery) else query
    try:
        check_atoms(query)
    except FormulaError as err:
        raise EngineError(str(err)) from None
    if constants(f):
        raise EngineError(
            "constants are not available to the local-fragment engines"
        )
    if net.mode.kind == "anonymous" and any(
        isinstance(g, Cmp) and g.op == ">=" for g in atoms(f)
    ):
        raise EngineError(
            "order comparison needs node labels; the network is anonymous"
        )
    return k


# ----------------------------------------------------------- local evaluator


class _Eval:
    """One evaluation at one node: what compiled checks read (the
    topology, the domain every quantifier ranges over, the table callback)
    and the work they count, one step per formula node visited."""

    __slots__ = ("domain", "edges", "attrs", "labels", "reps", "table", "work")

    def __init__(
        self,
        topo: LocalTopology,
        domain: tuple[int, ...],
        table: Optional[Callable[[int, tuple[int, ...]], bool]] = None,
    ) -> None:
        self.domain = domain
        self.edges = topo.edges
        self.attrs = topo.attrs
        self.labels = topo.labels
        self.reps = topo.reps
        self.table = table
        self.work = 0


# A compiled formula: its truth in an environment, a list of class indices
# indexed by variable slot.
_Check = Callable[[list[int], _Eval], bool]


def _compile(f: Formula, slots: dict[str, int], table: Optional[str]) -> _Check:
    """The check deciding f, with the atoms named `table` decided by the
    evaluation's table callback.  Each bound variable gets a slot here; the
    domain is the one ball every bound names, and the parser gives each
    binder a fresh name, so a binding is never restored.  No `true` or
    `false` reaches it: the parser folds each one below the root, and
    `_locality` rejects a query that is one."""
    if isinstance(f, Atom) and f.pred == EDGE_PRED:
        i, j = (slots[t.name] for t in f.args)

        def check(env, cx):
            cx.work += 1
            a, b = env[i], env[j]
            return a != b and ((a, b) if a < b else (b, a)) in cx.edges

    elif isinstance(f, Atom) and f.pred == table:
        i, *rest = (slots[t.name] for t in f.args)

        def check(env, cx):
            cx.work += 1
            return cx.table(env[i], tuple([env[s] for s in rest]))

    elif isinstance(f, Atom):
        pred, i = f.pred, slots[f.args[0].name]

        def check(env, cx):
            cx.work += 1
            return pred in cx.attrs[env[i]]

    elif isinstance(f, Cmp):
        op, i, j = f.op, slots[f.left.name], slots[f.right.name]

        def check(env, cx):
            cx.work += 1
            a, b = env[i], env[j]
            if op == "=":
                return a == b
            if op == "!=":
                return a != b
            la, lb = cx.labels[a], cx.labels[b]
            if la is None or lb is None:
                raise EngineError("order comparison on an unlabeled node")
            return la >= lb

    elif isinstance(f, InNbhd):
        i, length = slots[f.term.name], 2 * f.radius

        def check(env, cx):
            cx.work += 1
            return len(cx.reps[env[i]]) <= length

    elif isinstance(f, Not):
        body = _compile(f.body, slots, table)

        def check(env, cx):
            cx.work += 1
            return not body(env, cx)

    elif isinstance(f, (And, Or)):
        parts = [_compile(p, slots, table) for p in f.parts]
        settle = isinstance(f, Or)  # the part value that settles f

        def check(env, cx):
            cx.work += 1
            for part in parts:
                if part(env, cx) == settle:
                    return settle
            return not settle

    elif isinstance(f, (Exists, Forall)):
        s = slots.setdefault(f.var, len(slots))
        body = _compile(f.body, slots, table)
        settle = isinstance(f, Exists)  # the body value that settles f

        def check(env, cx):
            cx.work += 1
            for c in cx.domain:
                env[s] = c
                if body(env, cx) == settle:
                    return settle
            return not settle

    else:
        raise EngineError(f"cannot evaluate {type(f).__name__} locally")
    return check


class _Compiled(NamedTuple):
    """A query compiled once per run.  `check` decides the body in an
    environment of `width` slots: the centre variable in slot 0, the other
    free variables in slots 1..`free`, then the bound variables.  A result
    row is the representatives of the classes in the `out` slots.  FP-loc's
    table atoms are listed in `shapes` as (argument names, non-centre
    variables); FO-loc has none."""

    check: _Check
    width: int
    free: int
    out: list[int]
    shapes: list[tuple[tuple[str, ...], tuple[str, ...]]]


def _compile_query(
    body: Formula,
    center: str,
    free: Sequence[str],
    out: Sequence[str],
    table: Optional[str] = None,
) -> _Compiled:
    slots = {v: i for i, v in enumerate((center, *free))}
    check = _compile(body, slots, table)
    shapes = []
    for g in subformulas(body):
        if isinstance(g, Atom) and g.pred == table:
            names = tuple(t.name for t in g.args)
            rest = tuple(v for v in dict.fromkeys(names) if v != center)
            shapes.append((names, rest))
    return _Compiled(check, len(slots), len(free), [slots[v] for v in out], shapes)


def _holds(check: _Check, env: list[int], cx: _Eval) -> bool:
    """Truth of a compiled query in one environment: the one entry point
    of every local evaluation."""
    return check(env, cx)


def _rows(query: _Compiled, cx: _Eval, center: int) -> set[tuple[PortTrace, ...]]:
    """The result rows of every environment that binds the centre variable
    to `center` and the other free variables to classes of the domain."""
    env = [center] * query.width
    rows = set()
    for combo in itertools.product(cx.domain, repeat=query.free):
        env[1 : 1 + query.free] = combo
        if _holds(query.check, env, cx):
            rows.add(tuple([cx.reps[env[s]] for s in query.out]))
    return rows


# ------------------------------------------------------- collection protocol


class _Collector:
    """Per-node state of the walk-flood collection.  One wave is launched by
    this node (identified by its nonce); waves of every other node are served
    with the same rules.  A walk that was forwarded waits for one reply per
    port, keeping each as (port, rows); when the last one is in, it replies
    with its own row followed by the children's rows in port order, which is
    the order of their traces.  This node's own rows wait in `stored` until
    `_LocalEngine._home` takes them, in the step they come home.  Every row
    the node makes ends with the same sorted facts and label, which are read
    from its context once, so a row sorts only the wave's tracelist."""

    __slots__ = ("nonce", "facts", "label", "radius", "records", "pending", "stored")

    def __init__(self, ctx: NodeContext):
        self.nonce = ctx.nonce
        self.facts = tuple(sorted(ctx.self_unary))
        self.label = ctx.label
        self.radius: Optional[int] = None  # set by launch
        self.records: dict[int, set[PortTrace]] = {}
        # (wave, walk) -> (ports still to reply, [(port, rows)] received)
        self.pending: dict[tuple[int, PortTrace], tuple] = {}
        self.stored: Optional[dict[PortTrace, _Row]] = None

    def _row(self, wave: int, walk: PortTrace) -> _Row:
        return walk, tuple(sorted(self.records.get(wave, ()))), self.facts, self.label

    def launch(
        self, ctx: NodeContext, radius: int, out: list[tuple[int, Any]]
    ) -> None:
        self.radius = radius
        if not ctx.ports:
            self.stored = {(): self._row(self.nonce, ())}
            return
        self.pending[(self.nonce, ())] = (set(ctx.ports), [])
        for p in ctx.ports:
            out.append((p, ("C", self.nonce, radius, (p,))))

    def note_collect(self, payload: tuple, port: int) -> PortTrace:
        """First pass over the inbox: record a trace arriving on `port`
        before any row of this round is made, and return it."""
        full = payload[3] + (port,)
        if len(full) % 2:
            raise EngineError(f"malformed collection trace {full!r}")
        seen = self.records.get(payload[1])
        if seen is None:
            seen = self.records[payload[1]] = set()
        seen.add(full)
        return full

    def serve_collect(
        self,
        ctx: NodeContext,
        payload: tuple,
        port: int,
        full: PortTrace,
        out: list[tuple[int, Any]],
    ) -> None:
        _, wave, budget, _ = payload
        rest = [p for p in ctx.ports if p != port] if budget > 0 else ()
        if rest:
            self.pending[(wave, full)] = (set(rest), [])
            for p in rest:
                out.append((p, ("C", wave, budget - 1, full + (p,))))
        else:
            row = self._row(wave, full)
            out.append((port, ("R", wave, full, (row,))))

    def serve_reply(self, payload: tuple, out: list[tuple[int, Any]]) -> None:
        _, wave, walk, rows = payload
        key = (wave, walk[:-2])
        waiting = self.pending.get(key)
        port = walk[-2]
        if waiting is None or port not in waiting[0]:
            raise EngineError("reply for a walk that was never forwarded")
        ports, replies = waiting
        ports.discard(port)
        replies.append((port, rows))
        if ports:
            return
        del self.pending[key]
        replies.sort()  # ports differ, so no two rows are compared
        prefix = key[1]
        if prefix == ():
            stored = {(): self._row(wave, ())}
            for _, rows in replies:
                for row in rows:
                    stored[row[0]] = row
            self.stored = stored
            return
        wire = [self._row(wave, prefix)]
        for _, rows in replies:
            wire.extend(rows)
        out.append((prefix[-1], ("R", wave, prefix, tuple(wire))))


# ------------------------------------------------------------ shared engine


class _LocalState:
    """What a local engine keeps per node: whether it has adopted the run's
    query and still has to relay it, and the walk collection."""

    __slots__ = ("adopted", "relay", "collector")

    def __init__(self, collector: _Collector) -> None:
        self.adopted = False
        self.relay = False  # adopted, and the query not yet relayed
        self.collector = collector


class _LocalEngine(NodeEngine):
    """What the local engines share: adopt the run's query when it is
    injected or first heard and relay it once, serve the walk collection,
    and hand over the topology and the radius-k domain once, in the step
    the collection comes home (`_home`).  An engine is built from the run's
    query, its `source`, which is the only query it may be injected with,
    and reads it once, as every node reads the flood: it prints the
    query (`text`, the relayed text) and parses the printed text into its
    centre variable `center`, its radius `k` and the compiled `query`.
    Every node evaluates through those compiled checks, and a node that
    hears a text other than the run's query raises EngineError.  An engine
    names its state class `_State` and serves its own message tags in
    `_serve`.

    A step serves its inbox sorted, so it reads the inbox as a set.
    Messages compare by payload first, and two local messages in one inbox
    differ by their tag, wave, trace, route or query text before any row or
    label would be compared."""

    source: Union[Formula, FixpointQuery]
    text: str
    center: str
    k: int
    query: _Compiled

    def start(self, ctx: NodeContext) -> Any:
        return self._State(_Collector(ctx))

    def inject(self, state: Any, ctx: NodeContext, payload: Any) -> None:
        _check_injected(payload, self.source)
        self._adopt(state)

    def _adopt(self, state: _LocalState) -> None:
        if not state.adopted:
            state.adopted = state.relay = True

    def _serve(
        self,
        state: Any,
        ctx: NodeContext,
        payload: tuple,
        port: int,
        out: list[tuple[int, Any]],
    ) -> int:
        raise EngineError(f"unexpected message tag {payload[0]!r}")

    def _serve_inbox(
        self,
        state: _LocalState,
        ctx: NodeContext,
        inbox: Sequence[tuple[Any, int]],
        out: list[tuple[int, Any]],
    ) -> int:
        """Note every arriving collection trace before any row of this round
        is made, serve the inbox in sorted order, and relay a newly adopted
        query; returns the work done."""
        work = len(inbox)
        inbox = sorted(inbox)
        collector = state.collector
        walks = iter([
            collector.note_collect(payload, port)
            for payload, port in inbox
            if payload[0] == "C"
        ])
        for payload, port in inbox:
            tag = payload[0]
            if tag == "lq":
                if payload[1] != self.text:
                    raise EngineError(
                        f"flooded query {payload[1]!r} is not the run's query"
                    )
                self._adopt(state)
            elif tag == "C":
                collector.serve_collect(ctx, payload, port, next(walks), out)
            elif tag == "R":
                collector.serve_reply(payload, out)
            else:
                work += self._serve(state, ctx, payload, port, out)
        if state.relay:
            out.extend(broadcast(ctx, ("lq", self.text)))
            state.relay = False
        return work

    def _home(self, state: _LocalState) -> tuple[LocalTopology, tuple[int, ...]]:
        """The topology and the radius-k domain, once: in the step the
        collection comes home, when the collector lets go of its rows (the
        caller checks that `collector.stored` holds them)."""
        collector = state.collector
        topo = _topology_from_entries(collector.radius, collector.stored)
        collector.stored = None
        return topo, tuple(i for i, t in enumerate(topo.reps) if len(t) <= 2 * self.k)

    def payload_bits(self, payload: Any, enc: EncodingParams) -> int:
        return local_payload_bits(payload, enc)


# -------------------------------------------------------- first-order engine


class _FOLocState(_LocalState):
    __slots__ = ("rows",)

    def __init__(self, collector: _Collector) -> None:
        super().__init__(collector)
        self.rows: Optional[frozenset[tuple[PortTrace, ...]]] = None  # until evaluated


class FOLocEngine(_LocalEngine):
    """Radius-bounded first-order evaluation: flood the query, collect the
    k-neighborhood as a trace quotient, evaluate in-node over the classes in
    the step the collection comes home, and keep only the rows.  Only mail
    drives it, so it asks for no wake-up."""

    _State = _FOLocState

    def __init__(self, f: Formula):
        self.source = f
        self.text = print_formula(f)
        read = parse_formula(self.text)
        self.center, self.k = _locality(read)
        order = free_vars(f)  # the answer columns
        rest = [v for v in order if v != self.center]
        self.query = _compile_query(read, self.center, rest, order)

    def step(
        self,
        state: _FOLocState,
        ctx: NodeContext,
        round_no: int,
        inbox: Sequence[tuple[Any, int]],
    ) -> StepResult:
        out: list[tuple[int, Any]] = []
        # With no mail and no relay pending, as in an after-send step, there
        # is nothing to serve.
        work = self._serve_inbox(state, ctx, inbox, out) if inbox or state.relay else 0
        if state.adopted and state.collector.radius is None:
            state.collector.launch(ctx, self.k, out)
        if state.collector.stored is not None:
            cx = _Eval(*self._home(state))
            state.rows = frozenset(_rows(self.query, cx, _CENTER))
            work += cx.work
        return StepResult(
            sends=tuple(out),
            quiescent=not out and (not state.adopted or state.rows is not None),
            steps=1 + work,
            bits=sends_bits(out, local_payload_bits, ctx.enc) if out else 0,
        )

    def collect(self, state: _FOLocState, ctx: NodeContext) -> frozenset:
        return state.rows or frozenset()


def run_qe_fo_loc(
    net: Network,
    formula: Union[Formula, str],
    requester: int,
    *,
    order_seed: int = 0,  # unread: bench/workloads.py passes it (ROADMAP item 2)
    round_cap: Optional[int] = None,
    with_placement: bool = False,
):
    """Evaluate a radius-bounded first-order query distributively; every node
    answers for itself as the center and the relation is the union of the
    resolved per-node answer fragments, its columns the free variables in
    order of first occurrence.  With `with_placement` the resolved per-node
    fragments are returned as a third value."""
    f = parse_formula(formula) if isinstance(formula, str) else formula
    k = _admit_local(net, f)
    return _run_from_requester(
        net,
        FOLocEngine(f),
        f,
        requester,
        len(free_vars(f)),
        round_cap=(
            round_cap if round_cap is not None
            else net.graph.diameter + 2 * k + 16
        ),
        with_placement=with_placement,
        fragment=lambda a, rows: (
            tuple(resolve_trace(net, a, t) for t in row) for row in rows
        ),
    )


# ----------------------------------------------------------- fixpoint engine


# A ground table atom: its holder's class and its other arguments' classes.
_Ground = tuple[int, tuple[int, ...]]
# A remote table atom's key: the route to its holder and the arguments
# renamed in the holder's frame, as an ask (A) carries them.
_AskKey = tuple[PortTrace, tuple[PortTrace, ...]]


def _query_key(topo: LocalTopology, holder: int, args: tuple[int, ...]) -> _AskKey:
    route = topo.reps[holder]
    back = reverse_trace(route)
    names = tuple(reduce_trace(back + topo.reps[c]) for c in args)
    return route, names


class _WindowPlan(NamedTuple):
    """What every window of one FP-loc node reads, fixed once its collection
    comes home.  `atoms` maps each ground table atom the node's windows can
    decide (the centre variable bound to `_CENTER`, every other variable of
    a table atom to a class of the domain) to its row when the node holds
    the atom and to its ask key otherwise; `asks` lists the remote keys in
    ground-atom order, each once."""

    asks: tuple[_AskKey, ...]
    atoms: dict[_Ground, Union[tuple[PortTrace, ...], _AskKey]]


def _fp_loc_clock(diameter: int, k: int) -> tuple[int, int, int]:
    """FP-loc's schedule at radius k: the collection starts in round c0,
    the first window in round f0, and a window lasts tau rounds."""
    c0 = diameter + 2
    return c0, c0 + 4 * k + 3, 3 * k + 2


class _FPLocState(_LocalState):
    """FP-loc's node state: the topology and domain handed over by the
    collection, which every window evaluates over, the window plan built
    from them, and the table."""

    __slots__ = ("topology", "domain", "plan", "table", "buffer", "awake",
                 "window", "inform_heard", "max_relayed", "answers")

    def __init__(self, collector: _Collector) -> None:
        super().__init__(collector)
        self.topology: Optional[LocalTopology] = None
        self.domain: tuple[int, ...] = ()
        self.plan: Optional[_WindowPlan] = None
        self.table: set[tuple[PortTrace, ...]] = set()
        self.buffer: set[tuple[PortTrace, ...]] = set()
        self.awake = False
        self.window = -1
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
    clock: tuple[int, int, int]  # c0, f0, tau of `_fp_loc_clock`

    def __init__(self, q: FixpointQuery):
        self.source = q
        self.text = print_fixpoint(q)
        read = parse_fixpoint(self.text)
        self.center, self.k = _locality(read)
        rest = tuple(v for v in read.vars if v != self.center)
        self.query = _compile_query(read.body, self.center, rest, rest, read.name)

    def start(self, ctx: NodeContext) -> Any:
        # Every node of a run reads the same diameter, so the clock is the
        # run's: set here, read by every step.
        self.clock = _fp_loc_clock(ctx.diameter, self.k)
        return super().start(ctx)

    def step(
        self,
        state: _FPLocState,
        ctx: NodeContext,
        round_no: int,
        inbox: Sequence[tuple[Any, int]],
    ) -> StepResult:
        out: list[tuple[int, Any]] = []
        c0, f0, tau = self.clock
        if (
            state.topology is not None
            and round_no >= f0
            and (round_no - f0) % tau == 0
        ):
            self._cross_boundary(state)
        if state.adopted and state.topology is None and round_no >= f0:
            raise EngineError("collection did not finish within its window")
        # A step with no mail and no relay pending serves nothing: a window
        # boundary, an after-send step or round 1.
        work = self._serve_inbox(state, ctx, inbox, out) if inbox or state.relay else 0
        if state.adopted and round_no == c0 and state.collector.radius is None:
            state.collector.launch(ctx, 2 * self.k, out)
        if state.collector.stored is not None:
            state.topology, state.domain = self._home(state)
            state.plan = self._window_plan(state.topology, state.domain)
            state.awake = True
        if state.topology is not None and round_no >= f0:
            r = (round_no - f0) % tau
            if r == 0 and state.awake:
                work += self._open_window(state, out)
            elif r == 2 * self.k + 1 and state.awake:
                work += self._finalize_window(state, ctx, out)
        busy = state.adopted and (
            state.topology is None or state.awake or bool(state.buffer)
        )
        return StepResult(
            sends=tuple(out),
            quiescent=not out and not busy,
            steps=1 + work,
            wake_at=self._wake_at(state, round_no, c0, f0, tau),
            bits=sends_bits(out, local_payload_bits, ctx.enc) if out else 0,
        )

    def _wake_at(
        self, state: _FPLocState, round_no: int, c0: int, f0: int, tau: int
    ) -> Optional[int]:
        """The next round in which the clock alone gives this node work:
        the launch, the end of the collection's window, the finalize of an
        awake window, or the next window boundary (a quiescent node wakes
        there too, since `window` and the per-window resets advance only in
        a boundary step)."""
        if not state.adopted:
            return None
        if state.topology is None:
            if state.collector.radius is None and round_no < c0:
                return c0
            return f0
        if round_no < f0:
            return f0
        start = round_no - (round_no - f0) % tau
        finalize = start + 2 * self.k + 1
        if state.awake and round_no < finalize:
            return finalize
        return start + tau

    # -- phases

    def _cross_boundary(self, state: _FPLocState) -> None:
        if state.window >= 0:
            state.awake = bool(state.buffer) or state.inform_heard
            state.table |= state.buffer
            state.buffer = set()
        else:
            state.awake = True
        state.window += 1
        state.inform_heard = False
        state.max_relayed = 0
        state.answers = {}

    def _serve(
        self,
        state: _FPLocState,
        ctx: NodeContext,
        payload: tuple,
        port: int,
        out: list[tuple[int, Any]],
    ) -> int:
        tag = payload[0]
        if tag == "N":
            state.inform_heard = True
            budget = payload[1]
            if budget - 1 > state.max_relayed:
                state.max_relayed = budget - 1
                out.extend(broadcast(ctx, ("N", budget - 1)))
            return 0
        if tag != "A" and tag != "B":
            return super()._serve(state, ctx, payload, port, out)
        # One source-routing step: an ask (A) or an answer (B) carries its
        # walk and its place on it as fields 1 and 2, arrives over the
        # walk's last port so far, and goes on while the walk does.  A
        # forward costs 1, an ask answered 1 and an answer that arrives 0.
        walk, j = payload[1], payload[2]
        if port != walk[j - 1]:
            kind = "query" if tag == "A" else "answer"
            raise EngineError(f"routed {kind} strayed from its walk")
        if j < len(walk):
            out.append((walk[j], (tag, walk, j + 2, *payload[3:])))
            return 1
        if tag == "B":
            _, _, _, route, names, truth = payload
            state.answers[(route, names)] = truth
            return 0
        topo = state.topology
        if topo is None:
            raise EngineError("table query arrived before any table exists")
        names = payload[3]
        row = tuple(topo.reps[topo.class_index(t)] for t in names)
        back = reverse_trace(walk)
        out.append((back[0], ("B", back, 2, walk, names, row in state.table)))
        return 1

    def _window_plan(
        self, topo: LocalTopology, domain: tuple[int, ...]
    ) -> _WindowPlan:
        """The node's window plan, built in the step its collection comes
        home: a table atom's ground instances over the domain, taken once
        however many atoms of the body share them, and in sorted order each
        one's row or ask key."""
        atoms: dict[_Ground, Any] = {}
        for names, rest in self.query.shapes:
            for combo in itertools.product(domain, repeat=len(rest)):
                env = dict(zip(rest, combo))
                env[self.center] = _CENTER
                atoms[env[names[0]], tuple([env[v] for v in names[1:]])] = None
        asks = []
        for holder, args in sorted(atoms):
            if holder == _CENTER:
                atoms[holder, args] = tuple([topo.reps[c] for c in args])
            else:
                key = atoms[holder, args] = _query_key(topo, holder, args)
                asks.append(key)
        return _WindowPlan(tuple(asks), atoms)

    def _open_window(
        self, state: _FPLocState, out: list[tuple[int, Any]]
    ) -> int:
        asks = state.plan.asks
        out.extend((route[0], ("A", route, 2, names)) for route, names in asks)
        return len(asks)

    def _finalize_window(
        self,
        state: _FPLocState,
        ctx: NodeContext,
        out: list[tuple[int, Any]],
    ) -> int:
        atoms, table, answers = state.plan.atoms, state.table, state.answers

        def truth(holder: int, args: tuple[int, ...]) -> bool:
            """A ground table atom: the node's own committed rows directly,
            remote rows from the answers that came back this window."""
            if holder == _CENTER:
                return atoms[holder, args] in table
            answer = answers.get(atoms[holder, args])
            if answer is None:
                raise EngineError("table query went unanswered within its window")
            return answer

        cx = _Eval(state.topology, state.domain, truth)
        state.buffer = _rows(self.query, cx, _CENTER) - state.table
        if state.buffer:
            out.extend(broadcast(ctx, ("N", self.k)))
        state.awake = False
        return cx.work

    def collect(self, state: _FPLocState, ctx: NodeContext) -> frozenset:
        return frozenset(state.table)


def default_fp_loc_round_cap(net: Network, q: FixpointQuery, k: int) -> int:
    g = net.graph
    ell = len(q.vars) - 1
    total = sum(
        max(1, len(g.neighborhood_nodes(a, k))) ** ell for a in g.nodes
    )
    _, f0, tau = _fp_loc_clock(g.diameter, k)
    return f0 + (total + 3) * tau + 8


def run_qe_fp_loc(
    net: Network,
    query: Union[FixpointQuery, str],
    requester: int,
    *,
    order_seed: int = 0,  # unread: bench/workloads.py passes it (ROADMAP item 2)
    round_cap: Optional[int] = None,
    with_placement: bool = False,
):
    """Evaluate a radius-bounded inflationary fixpoint query distributively;
    the relation is the union of the resolved per-node table fragments, its
    columns the declared variables in order.  With `with_placement` the
    resolved fragments are returned per node."""
    q = parse_fixpoint(query) if isinstance(query, str) else query
    k = _admit_local(net, q)
    return _run_from_requester(
        net,
        FPLocEngine(q),
        q,
        requester,
        q.arity,
        round_cap=(
            round_cap if round_cap is not None
            else default_fp_loc_round_cap(net, q, k)
        ),
        with_placement=with_placement,
        fragment=lambda a, rows: (
            (a,) + tuple(resolve_trace(net, a, t) for t in row) for row in rows
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
    if tag == "C":  # the trace as _trace_bits
        pb = enc.port_bits
        return enc.tag_bits + _NONCE_BITS + _SMALL_COUNTER_BITS + 8 + pb * len(payload[3])
    if tag == "R":
        # The walk, and per row its trace and each listed trace, as
        # _trace_bits; per row also a presence bit, every input fact and
        # the label when there is one.  One pass counts the ports.
        ports, lists, bits = len(payload[2]), 0, 9 * len(payload[3])
        for t, lst, attrs, label in payload[3]:
            ports += len(t)
            lists += len(lst)
            for u in lst:
                ports += len(u)
            if attrs:
                bits += sum(8 + enc.text_bits(s) for s in attrs)
            if label is not None:
                bits += enc.id_bits
        return bits + enc.tag_bits + _NONCE_BITS + 8 * (1 + lists) + enc.port_bits * ports
    if tag == "lq":
        return enc.tag_bits + enc.text_bits(payload[1])
    if tag == "A" or tag == "B":
        # The walk, the place on it and the traces named; an answer (B)
        # also carries the asking walk and one truth bit.
        bits = enc.tag_bits + _trace_bits(payload[1], enc) + _SMALL_COUNTER_BITS
        if tag == "A":
            return bits + sum(_trace_bits(t, enc) for t in payload[3])
        names = sum(_trace_bits(t, enc) for t in payload[4])
        return bits + _trace_bits(payload[3], enc) + names + 1
    if tag == "N":
        return enc.tag_bits + _SMALL_COUNTER_BITS
    raise EngineError(f"unknown payload tag {tag!r}")
