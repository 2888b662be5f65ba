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

Concurrent collections are kept apart by the constant-size random nonce
each initiator's context carries: two different initiators can otherwise
record identical port traces at the same node (for instance on a ring whose
ports are labeled the same way everywhere), which would merge classes that
belong to distinct nodes.  The nonce scopes every record to one wave.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence, Union

from .engine_fo import EngineError, _run_from_requester
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
    Each trace is linked both ways to every collected trace its row lists;
    traces are visited in (length, trace) order and each one not yet
    reached starts a class, so the first trace of a component is its
    representative and classes come out in representative order.  A
    class's facts and label are its representative's, and another trace
    of the class that disagrees means a wrong merge."""
    linked: dict[PortTrace, list[PortTrace]] = {t: [] for t in entries}
    for t, row in entries.items():
        mine = linked[t]
        for u in row[1]:
            if u != t and u in linked:
                mine.append(u)
                linked[u].append(t)
    visit = sorted(entries)
    visit.sort(key=len)  # stable, so (length, trace) order
    class_of: dict[PortTrace, int] = {}
    reps: list[PortTrace] = []
    attrs: dict[int, frozenset[str]] = {}
    labels: dict[int, Optional[int]] = {}
    for t in visit:
        if t in class_of:
            continue
        c = len(reps)
        class_of[t] = c
        members = [t]
        for u in members:
            for v in linked[u]:
                if v not in class_of:
                    class_of[v] = c
                    members.append(v)
        _, _, facts, label = entries[t]
        for u in members:
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
    # are a prefix.
    n = 0
    while n < len(reps) and len(reps[n]) <= 2 * radius:
        n += 1
    edges: set[tuple[int, int]] = set()
    for t in entries:
        if t:
            c1 = class_of[t[:-2]]
            c2 = class_of[t]
            if c1 < n and c2 < n and c1 != c2:
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
    """The centre variable and radius of a radius-bounded query (see
    `logic.locality`); a fixpoint query's centre is its first declared
    variable."""
    fixpoint = isinstance(query, FixpointQuery)
    try:
        center, k = locality(query.body if fixpoint else query)
        if fixpoint and center != query.vars[0]:
            raise FormulaError("the locality center must be the first declared variable")
    except FormulaError as err:
        raise EngineError(
            "the fixpoint query carries no locality radius; use the "
            f"unrestricted fixpoint engine: {err}" if fixpoint else str(err)
        ) from None
    return center, k


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
    binder a fresh name, so a binding is never restored."""
    if isinstance(f, BoolConst):
        value = f.value

        def check(env, cx):
            cx.work += 1
            return value

    elif isinstance(f, Atom) and f.pred == EDGE_PRED:
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
    `_LocalEngine._home` takes them, in the step they come home."""

    __slots__ = ("nonce", "radius", "records", "pending", "stored")

    def __init__(self, nonce: int):
        self.nonce = nonce
        self.radius: Optional[int] = None  # set by launch
        self.records: dict[int, set[PortTrace]] = {}
        # (wave, walk) -> (ports still to reply, [(port, rows)] received)
        self.pending: dict[tuple[int, PortTrace], tuple] = {}
        self.stored: Optional[dict[PortTrace, _Row]] = None

    def _row(self, ctx: NodeContext, wave: int, walk: PortTrace) -> _Row:
        return (
            walk,
            tuple(sorted(self.records.get(wave, ()))),
            tuple(sorted(ctx.self_unary)),
            ctx.label,
        )

    def launch(
        self, ctx: NodeContext, radius: int, out: list[tuple[int, Any]]
    ) -> None:
        self.radius = radius
        if not ctx.ports:
            self.stored = {(): self._row(ctx, self.nonce, ())}
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
        self.records.setdefault(payload[1], set()).add(full)
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
        rest = [p for p in ctx.ports if p != port]
        if budget > 0 and rest:
            self.pending[(wave, full)] = (set(rest), [])
            for p in rest:
                out.append((p, ("C", wave, budget - 1, full + (p,))))
        else:
            row = self._row(ctx, wave, full)
            out.append((port, ("R", wave, full, (row,))))

    def serve_reply(
        self, ctx: NodeContext, payload: tuple, out: list[tuple[int, Any]]
    ) -> None:
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
            if wave != self.nonce:
                raise EngineError("root reply for a foreign wave")
            stored = {(): self._row(ctx, wave, ())}
            for _, rows in replies:
                for row in rows:
                    stored[row[0]] = row
            self.stored = stored
            return
        wire = [self._row(ctx, wave, prefix)]
        for _, rows in replies:
            wire.extend(rows)
        out.append((prefix[-1], ("R", wave, prefix, tuple(wire))))


# ------------------------------------------------------------ shared engine


class _LocalState:
    """What a local engine keeps per node: the adopted query (compiled), its
    centre variable and radius, and the walk collection."""

    __slots__ = ("query", "center", "k", "relay", "collector")

    def __init__(self, collector: _Collector) -> None:
        self.query: Optional[_Compiled] = None
        self.center = ""
        self.k = 0
        self.relay: Optional[str] = None  # the query text still to relay
        self.collector = collector


class _LocalEngine(NodeEngine):
    """What the local engines share: adopt the first query heard and relay
    it once, serve the walk collection, and hand over the topology and the
    radius-k domain once, in the step the collection comes home (`_home`).
    An engine names its state class `_State` and its query printer
    `_print`, reads a query text into (parsed query, centre variable,
    radius, compiled query) in `_read`, and serves its own message tags in
    `_serve`.  One engine object serves every node of a run, so `reads`
    maps each distinct text to what `_read` made of it and the parsed query
    printed for the relay: each text is read, compiled and printed once per
    run, and every node evaluates through the same compiled checks.  A text
    that fails to read is not kept and fails again at every node that
    reads it.

    A step serves its inbox sorted, so it reads the inbox as a set.
    Messages compare by payload first, and two local messages in one inbox
    differ by their tag, wave, trace, route or query text before any row or
    label would be compared."""

    def __init__(self) -> None:
        self.reads: dict[str, tuple[Any, str, int, _Compiled, str]] = {}

    def start(self, ctx: NodeContext) -> Any:
        return self._State(_Collector(ctx.nonce))

    def inject(self, state: Any, ctx: NodeContext, payload: Any) -> None:
        self._adopt(state, self._print(payload))

    def _adopt(self, state: _LocalState, text: str) -> None:
        if state.query is None:
            read = self.reads.get(text)
            if read is None:
                read = self._read(text)
                read = self.reads[text] = (*read, self._print(read[0]))
            _, state.center, state.k, state.query, state.relay = read

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
                self._adopt(state, payload[1])
            elif tag == "C":
                collector.serve_collect(ctx, payload, port, next(walks), out)
            elif tag == "R":
                collector.serve_reply(ctx, payload, out)
            else:
                work += self._serve(state, ctx, payload, port, out)
        if state.relay is not None:
            out.extend(broadcast(ctx, ("lq", state.relay)))
            state.relay = None
        return work

    def _home(
        self, state: _LocalState
    ) -> Optional[tuple[LocalTopology, tuple[int, ...]]]:
        """The topology and the radius-k domain, once: in the step the
        collection comes home, when the collector lets go of its rows."""
        collector = state.collector
        if collector.stored is None:
            return None
        topo = _topology_from_entries(collector.radius, collector.stored)
        collector.stored = None
        return topo, tuple(i for i, t in enumerate(topo.reps) if len(t) <= 2 * state.k)

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
    _print = staticmethod(print_formula)

    def __init__(self, order: tuple[str, ...]):
        super().__init__()
        self.order = tuple(order)

    def _read(self, text: str) -> tuple[Formula, str, int, _Compiled]:
        f = parse_formula(text)
        center, k = _locality(f)
        rest = [v for v in self.order if v != center]
        return f, center, k, _compile_query(f, center, rest, self.order)

    def step(
        self,
        state: _FOLocState,
        ctx: NodeContext,
        round_no: int,
        inbox: Sequence[tuple[Any, int]],
    ) -> StepResult:
        if not inbox and state.relay is None and (
            state.query is None or state.collector.radius is not None
        ):
            # Nothing to serve, relay or launch, and the collection can only
            # come home through a reply: the simulator's after-send step.
            return StepResult((), state.query is None or state.rows is not None)
        out: list[tuple[int, Any]] = []
        work = self._serve_inbox(state, ctx, inbox, out)
        if state.query is not None and state.collector.radius is None:
            state.collector.launch(ctx, state.k, out)
        home = self._home(state)
        if home is not None:
            cx = _Eval(*home)
            state.rows = frozenset(_rows(state.query, cx, _CENTER))
            work += cx.work
        return StepResult(
            sends=tuple(out),
            quiescent=not out and (state.query is None or state.rows is not None),
            steps=1 + work,
            bits=sends_bits(out, local_payload_bits, ctx.enc),
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
    order = free_vars(f)
    return _run_from_requester(
        net,
        FOLocEngine(order),
        f,
        requester,
        len(order),
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


def _query_key(
    topo: LocalTopology, holder: int, args: tuple[int, ...]
) -> tuple[PortTrace, tuple[PortTrace, ...]]:
    route = topo.reps[holder]
    back = reverse_trace(route)
    names = tuple(reduce_trace(back + topo.reps[c]) for c in args)
    return route, names


def _fp_loc_clock(diameter: int, k: int) -> tuple[int, int, int]:
    """FP-loc's schedule at radius k: the collection starts in round c0,
    the first window in round f0, and a window lasts tau rounds."""
    c0 = diameter + 2
    return c0, c0 + 4 * k + 3, 3 * k + 2


class _FPLocState(_LocalState):
    """FP-loc's node state: the topology and domain handed over by the
    collection, which every window evaluates over, and the table."""

    __slots__ = ("topology", "domain", "table", "buffer", "awake", "window",
                 "had_new", "inform_heard", "max_relayed", "answers")

    def __init__(self, collector: _Collector) -> None:
        super().__init__(collector)
        self.topology: Optional[LocalTopology] = None
        self.domain: tuple[int, ...] = ()
        self.table: set[tuple[PortTrace, ...]] = set()
        self.buffer: set[tuple[PortTrace, ...]] = set()
        self.awake = False
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

    def _read(self, text: str) -> tuple[FixpointQuery, str, int, _Compiled]:
        q = parse_fixpoint(text)
        center, k = _locality(q)
        rest = q.vars[1:]
        return q, center, k, _compile_query(q.body, center, rest, rest, q.name)

    def step(
        self,
        state: _FPLocState,
        ctx: NodeContext,
        round_no: int,
        inbox: Sequence[tuple[Any, int]],
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
        home = self._home(state)
        if home is not None:
            state.topology, state.domain = home
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
            bits=sends_bits(out, local_payload_bits, ctx.enc),
        )

    @staticmethod
    def _wake_at(
        state: _FPLocState, round_no: int, c0: int, f0: int, tau: int
    ) -> Optional[int]:
        """The next round in which the clock alone gives this node work:
        the launch, the end of the collection's window, the finalize of an
        awake window, or the next window boundary (a quiescent node wakes
        there too, since `window` and the per-window resets advance only in
        a boundary step)."""
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
        payload: tuple,
        port: int,
        out: list[tuple[int, Any]],
    ) -> int:
        tag = payload[0]
        if tag == "A":
            return self._serve_ask(state, payload, port, out)
        if tag == "B":
            return self._serve_answer(state, payload, port, out)
        if tag == "N":
            state.inform_heard = True
            budget = payload[1]
            if budget - 1 > state.max_relayed:
                state.max_relayed = budget - 1
                out.extend(broadcast(ctx, ("N", budget - 1)))
            return 0
        return super()._serve(state, ctx, payload, port, out)

    def _serve_ask(
        self,
        state: _FPLocState,
        payload: tuple,
        port: int,
        out: list[tuple[int, Any]],
    ) -> int:
        _, route, j, names = payload
        if port != route[j - 1]:
            raise EngineError("routed query strayed from its walk")
        if j < len(route):
            out.append((route[j], ("A", route, j + 2, names)))
            return 1
        topo = state.topology
        if topo is None:
            raise EngineError("table query arrived before any table exists")
        row = tuple(topo.reps[topo.class_index(t)] for t in names)
        truth = row in state.table
        back = reverse_trace(route)
        out.append((back[0], ("B", back, 2, route, names, truth)))
        return 1

    def _serve_answer(
        self,
        state: _FPLocState,
        payload: tuple,
        port: int,
        out: list[tuple[int, Any]],
    ) -> int:
        _, back, j, route, names, truth = payload
        if port != back[j - 1]:
            raise EngineError("routed answer strayed from its walk")
        if j < len(back):
            out.append((back[j], ("B", back, j + 2, route, names, truth)))
            return 1
        state.answers[(route, names)] = truth
        return 0

    def _open_window(
        self, state: _FPLocState, out: list[tuple[int, Any]]
    ) -> int:
        q = state.query
        topo = state.topology
        assert q is not None and topo is not None
        ground: set[tuple[int, tuple[int, ...]]] = set()
        for names, rest in q.shapes:
            for combo in itertools.product(state.domain, repeat=len(rest)):
                env = dict(zip(rest, combo))
                env[state.center] = _CENTER
                ground.add((env[names[0]], tuple([env[v] for v in names[1:]])))
        sent = 0
        for holder, args in sorted(ground):
            if holder == _CENTER:
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
            if holder == _CENTER:
                return tuple(topo.reps[c] for c in args) in state.table
            answer = state.answers.get(_query_key(topo, holder, args))
            if answer is None:
                raise EngineError("table query went unanswered within its window")
            return answer

        cx = _Eval(topo, state.domain, truth)
        state.buffer = _rows(q, cx, _CENTER) - state.table
        state.had_new = bool(state.buffer)
        if state.had_new:
            out.extend(broadcast(ctx, ("N", state.k)))
        state.awake = False
        return cx.work

    def collect(self, state: _FPLocState, ctx: NodeContext) -> frozenset:
        return frozenset(state.table)


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
    order_seed: int = 0,  # unread: bench/workloads.py passes it (ROADMAP item 2)
    round_cap: Optional[int] = None,
    with_placement: bool = False,
):
    """Evaluate a radius-bounded inflationary fixpoint query distributively;
    the relation is the union of the resolved per-node table fragments, its
    columns the declared variables in order.  With `with_placement` the
    resolved fragments are returned per node."""
    q = parse_fixpoint(query) if isinstance(query, str) else query
    _admit_local(net, q)
    return _run_from_requester(
        net,
        FPLocEngine(),
        q,
        requester,
        q.arity,
        round_cap=(
            round_cap if round_cap is not None
            else default_fp_loc_round_cap(net, q)
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
        # Per row: the trace and each listed trace as _trace_bits, every
        # input fact, and a presence bit plus the label when there is one.
        pb = enc.port_bits
        bits = enc.tag_bits + _NONCE_BITS + _trace_bits(payload[2], enc)
        for t, lst, attrs, label in payload[3]:
            bits += 9 + pb * (len(t) + sum(map(len, lst))) + 8 * len(lst)
            if attrs:
                bits += sum(8 + enc.text_bits(s) for s in attrs)
            if label is not None:
                bits += enc.id_bits
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
