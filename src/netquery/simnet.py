"""Synchronous round-based message-passing network simulator.

Nodes run deterministic automata over port-numbered channels.  A round is a
computation phase (nodes step on their in-buffers) followed by an atomic
delivery phase (out-buffers flushed to neighbor in-buffers, in send order).
The simulator is event-driven: in round 1 every node steps; after that, a
node steps in round r only when it has mail, when it sent in round r-1, or
when the wake-up round it last asked for (`StepResult.wake_at`) is r.  A
step the simulator skips must be a no-op: no sends, no change of state, the
same quiescence as the node's last report.  The run ends after the first
computation phase after which every node's last report is quiescent; the
sends of that round are never delivered.

A node's context (`NodeContext`) holds what the identity mode exposes and
a private 32-bit nonce, which stands in for the node's own random bits; the
simulator's own node numbers reach an engine only as the ids of global mode.
The nonce is a fixed bijection of the node number mod 2**32 (`_nonce`), so
nodes numbered within any 2**32 consecutive integers get distinct nonces by
construction.  Engines treat a nonce as opaque bits: it breaks the symmetry
between the collection waves of an anonymous network, and nothing reads
more of it than equality and order.  A real random source could make two
nodes draw the same bits; the model leaves that collision out.  The local
engines key each wave by its nonce alone (`local_engine._Collector`), so
such a collision would merge two waves unnoticed; a wave key that would
survive one is left open (ROADMAP item 11).

A delivered message is a plain `(payload, arrival port)` pair, and a node's
in-buffer a tuple of them: one delivery format for every engine.  An
in-buffer is a multiset (`NodeEngine`), so the simulator has one schedule,
send order; the tests check that no engine depends on it by permuting
in-buffers before a step reads them.

Each step reports the largest wire size among its sends (`StepResult.bits`,
which the engine sizes itself).  The simulator checks that a step that sends
reports at least one bit, and MSG-SIZE is the largest over the delivered
rounds.

A run pauses Python's cyclic garbage collector (`run`): the nodes' state
only grows during a run, and the collector would rescan it again and again
although none of it can be cyclic garbage.  That is sound only because no
step, and nothing a step calls, builds a reference cycle, so reference
counting alone frees what a run drops; the tests check this for every
engine family.
"""
from __future__ import annotations

import gc
import math
import random
import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence

from .logic import EDGE_PRED
from .oracle import Graph, make_graph


class SimError(ValueError):
    pass


class RoundCapError(RuntimeError):
    """Round limit exceeded; carries the partial metrics and results."""

    def __init__(self, message: str, metrics: "Metrics", results: Mapping[int, Any]):
        super().__init__(message)
        self.metrics = metrics
        self.results = results


_INT_RE = re.compile(r"-?[0-9]+")


def _ascii_int(word: str) -> int:
    """`int(word)` for ASCII `-?[0-9]+` only; other Unicode digits, a `+`
    sign, `_` separators and surrounding space raise ValueError."""
    if _INT_RE.fullmatch(word) is None:
        raise ValueError(f"not an ASCII integer: {word!r}")
    return int(word)


# ---------------------------------------------------------------- identity


@dataclass(frozen=True)
class IdentityMode:
    """What a node may know about itself and its neighborhood: globally
    unique ids, k-locally-consistent labels, or nothing but port numbers."""

    kind: str  # "global" | "local-consistent" | "anonymous"
    k: Optional[int] = None
    labels: Optional[Mapping[int, int]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("global", "local-consistent", "anonymous"):
            raise SimError(f"unknown identity mode {self.kind!r}")
        if self.kind == "local-consistent":
            if self.k is None or self.k < 1:
                raise SimError("local-consistent mode needs a radius k >= 1")
            if self.labels is None:
                raise SimError("local-consistent mode needs a label map")

    def label_of(self, a: int) -> Optional[int]:
        """The label node `a` exposes: its id with global ids, its label
        with locally consistent labels, None when anonymous."""
        if self.kind == "global":
            return a
        if self.kind == "local-consistent":
            assert self.labels is not None
            return self.labels[a]
        return None


GLOBAL_IDS = IdentityMode("global")
ANONYMOUS = IdentityMode("anonymous")


def parse_identity_mode(
    text: str, labels: Optional[Mapping[int, int]] = None
) -> IdentityMode:
    if text == "global":
        return GLOBAL_IDS
    if text == "anonymous":
        return ANONYMOUS
    if text.startswith("local-consistent:"):
        try:
            k = _ascii_int(text.split(":", 1)[1])
        except ValueError:
            raise SimError(
                f"identity mode {text!r} needs an integer radius k in "
                f"'local-consistent:k'"
            ) from None
        return IdentityMode("local-consistent", k=k, labels=labels)
    raise SimError(f"unknown identity mode {text!r}")


def check_locally_consistent(g: Graph, labels: Mapping[int, int], k: int) -> bool:
    """True when any two distinct nodes within distance k of a common node
    carry distinct labels."""
    if k < 1:
        raise SimError("local consistency needs a radius k >= 1")
    missing = [a for a in g.nodes if a not in labels]
    if missing:
        raise SimError(f"label map misses nodes {missing}")
    unknown = sorted(set(labels) - set(g.nodes))
    if unknown:
        raise SimError(f"label map names unknown nodes {unknown}")
    for a in g.nodes:
        seen: dict[int, int] = {}
        for b in g.neighborhood_nodes(a, k):
            lb = labels[b]
            if lb in seen and seen[lb] != b:
                return False
            seen[lb] = b
    return True


# ---------------------------------------------------------------- encoding


@dataclass(frozen=True)
class EncodingParams:
    """Canonical bit-cost model: node ids cost ceil(log2 n) bits, port
    numbers ceil(log2 D) bits, text payloads 8 bits per character, message
    tags 8 bits, counters a fixed width wide enough for round numbers."""

    id_bits: int
    port_bits: int
    counter_bits: int
    tag_bits: int = 8

    def text_bits(self, text: str) -> int:
        return 8 * len(text)


def encoding_for(n: int, degree_bound: int) -> EncodingParams:
    id_bits = max(1, math.ceil(math.log2(max(2, n))))
    port_bits = max(1, math.ceil(math.log2(max(2, degree_bound))))
    return EncodingParams(id_bits, port_bits, counter_bits=2 * id_bits + 8)


# ----------------------------------------------------------------- network


@dataclass(frozen=True)
class Network:
    graph: Graph
    ports: Mapping[int, tuple[int, ...]]  # node -> neighbor by port-1
    port_to: Mapping[int, Mapping[int, int]]  # node -> {neighbor: port}
    mode: IdentityMode
    enc: EncodingParams

    @property
    def n(self) -> int:
        return self.graph.n

    def degree(self, a: int) -> int:
        return len(self.ports[a])

    def neighbor_on_port(self, a: int, port: int) -> int:
        ports = self.ports[a]
        if not 1 <= port <= len(ports):
            raise SimError(f"node {a} has no port {port}")
        return ports[port - 1]


def make_network(
    g: Graph, mode: IdentityMode = GLOBAL_IDS, port_seed: int = 0
) -> Network:
    if mode.kind == "local-consistent":
        assert mode.labels is not None and mode.k is not None
        if not check_locally_consistent(g, mode.labels, mode.k):
            raise SimError(
                f"label map is not {mode.k}-locally consistent on this graph"
            )
    ports: dict[int, tuple[int, ...]] = {}
    port_to: dict[int, dict[int, int]] = {}
    for a in g.nodes:
        neighbors = list(g.adj[a])
        rng = random.Random(port_seed * 1_000_003 + a)
        rng.shuffle(neighbors)
        ports[a] = tuple(neighbors)
        port_to[a] = {b: i + 1 for i, b in enumerate(neighbors)}
    return Network(g, ports, port_to, mode, encoding_for(g.n, g.degree_bound))


def load_network(
    text: str,
    mode: IdentityMode = GLOBAL_IDS,
    port_seed: int = 0,
) -> Network:
    """Parse the edge-list format: first line `n m`, then m lines `u v`,
    then optionally a line `@facts` followed by `Pred node` lines.  The
    graph's degree bound is its largest degree (`oracle.make_graph`)."""
    numbered = [
        (no, ln)
        for no, ln in enumerate((ln.strip() for ln in text.splitlines()), 1)
        if ln and not ln.startswith("#")
    ]
    lines = [ln for _, ln in numbered]
    if not lines:
        raise SimError("empty network file")
    head = lines[0].split()
    if len(head) != 2:
        raise SimError(f"expected 'n m' on the first line, got {lines[0]!r}")
    try:
        n, m = _ascii_int(head[0]), _ascii_int(head[1])
    except ValueError:
        raise SimError(f"expected integers on the first line, got {lines[0]!r}")
    if m < 0:
        raise SimError(f"negative edge count on the first line {lines[0]!r}")
    if len(lines) < 1 + m:
        raise SimError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges: dict[tuple[int, int], int] = {}
    for no, ln in numbered[1 : 1 + m]:
        parts = ln.split()
        if len(parts) != 2:
            raise SimError(f"line {no}: malformed edge line {ln!r}")
        u, v = _node_ids(no, "edge", ln, parts)
        for x in (u, v):
            if not 1 <= x <= n:
                raise SimError(
                    f"line {no}: edge {ln!r} names node {x} outside 1..{n}"
                )
        key = (min(u, v), max(u, v))
        if key in edges:
            raise SimError(
                f"line {no}: edge {ln!r} repeats the edge of line {edges[key]}"
            )
        edges[key] = no
    unary: dict[str, set[int]] = {}
    facts: dict[tuple[str, int], int] = {}
    rest = numbered[1 + m :]
    if rest:
        if rest[0][1] != "@facts":
            raise SimError(f"unexpected line {rest[0][1]!r} (expected '@facts')")
        for no, ln in rest[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise SimError(f"line {no}: malformed fact line {ln!r}")
            (a,) = _node_ids(no, "fact", ln, parts[1:])
            if parts[0] == EDGE_PRED:
                raise SimError(f"line {no}: fact {ln!r} names the edge relation")
            if (parts[0], a) in facts:
                raise SimError(
                    f"line {no}: fact {ln!r} repeats the fact of line "
                    f"{facts[parts[0], a]}"
                )
            facts[parts[0], a] = no
            unary.setdefault(parts[0], set()).add(a)
    g = make_graph(list(edges), nodes=range(1, n + 1), unary=unary)
    return make_network(g, mode=mode, port_seed=port_seed)


def _node_ids(no: int, what: str, ln: str, words: Sequence[str]) -> list[int]:
    try:
        return [_ascii_int(w) for w in words]
    except ValueError:
        raise SimError(
            f"line {no}: {what} {ln!r} names a node that is not an integer"
        ) from None


def network_text(g: Graph) -> str:
    """Render a graph in the edge-list file format."""
    edge_list = list(g.edges())
    out = [f"{g.n} {len(edge_list)}"]
    out.extend(f"{u} {v}" for u, v in edge_list)
    if g.unary:
        out.append("@facts")
        for pred in sorted(g.unary):
            for a in sorted(g.unary[pred]):
                out.append(f"{pred} {a}")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------- context


@dataclass(frozen=True)
class NodeContext:
    """Everything a node automaton may read: what the identity mode exposes
    (diameter always; id only in global mode; label in labeled modes), the
    port list, mode-dependent neighbor knowledge, input facts, the bit-cost
    model by which the engine sizes its sends, and the node's nonce."""

    node_id: Optional[int]  # exposed id, None unless mode is global
    label: Optional[int]  # exposed label (global: the id; anonymous: None)
    ports: tuple[int, ...]  # port numbers 1..deg
    neighbor_ids: Optional[Mapping[int, int]]  # port -> id, global mode only
    diameter: int
    self_unary: frozenset[str]
    global_unary: Mapping[str, frozenset[int]]  # readable in global mode
    enc: EncodingParams
    nonce: int  # the node's private random bits, never an identity


_NONCE_BITS = 32  # the width of `NodeContext.nonce`, on the wire too
_NONCE_MASK = (1 << _NONCE_BITS) - 1


def _nonce(a: int) -> int:
    """Node `a`'s _NONCE_BITS bits, a stand-in for the node's own random
    source: `a` times an odd constant mod 2**32, then its high half xored
    into its low half.  Both steps are bijections of the 32-bit words (an
    odd number is invertible mod 2**32, and the xor leaves the high half as
    it was, so applying it again undoes it), so two node numbers that
    differ by less than 2**32 get distinct nonces.  Engines read the
    result as opaque bits."""
    x = (a * 0x9E3779B1) & _NONCE_MASK
    return x ^ (x >> 16)


def _context_for(net: Network, a: int) -> NodeContext:
    g = net.graph
    mode = net.mode
    node_id = a if mode.kind == "global" else None
    neighbor_ids = (
        {p: net.ports[a][p - 1] for p in range(1, net.degree(a) + 1)}
        if mode.kind == "global"
        else None
    )
    self_unary = frozenset(p for p, members in g.unary.items() if a in members)
    global_unary = g.unary if mode.kind == "global" else {}
    return NodeContext(
        node_id=node_id,
        label=mode.label_of(a),
        ports=tuple(range(1, net.degree(a) + 1)),
        neighbor_ids=neighbor_ids,
        diameter=g.diameter,
        self_unary=self_unary,
        global_unary=global_unary,
        enc=net.enc,
        nonce=_nonce(a),
    )


# ------------------------------------------------------------------- steps


class StepResult(NamedTuple):
    """What one node's step produced (a tuple, because every node step
    makes one).  `quiescent` says that a further round would change nothing
    this node holds or reports; `steps` is the work the step took
    (IN-TIME/ROUND); `wake_at`, when set, is the next round (after this
    one) in which the node must step even with no mail.  A node that sends
    is stepped in the next round anyway.  `bits` is the largest wire size
    among the sends, at least 1 when there are any, with each distinct
    payload object of the step sized once."""

    sends: tuple[tuple[int, Any], ...]  # (port, payload)
    quiescent: bool
    steps: int = 1
    wake_at: Optional[int] = None
    bits: int = 0


class NodeEngine:
    """Deterministic node automaton interface.  `start` returns a node's
    state object, which the simulator keeps for the whole run; `inject` and
    `step` update it in place.

    Every node steps in round 1.  From round 2 on a node steps only in a
    round in which it has mail, in the round after one in which it sent, and
    in the round its last step named as `wake_at`.  Any other step is
    skipped, so it must be a no-op: it would send nothing, change no state
    and report the same quiescence as the node's last step.  The run ends
    after the first round after which every node's last report is
    quiescent, and the sends of that round are never delivered.

    A step's inbox is a tuple of `(payload, arrival port)` pairs, one per
    message delivered to the node in the round before.  They are plain
    tuples, not a named type: the simulator makes one per delivered message,
    and a tuple subclass costs several times as much to make and free.

    Every method gets the node's `NodeContext`: what the identity mode
    exposes plus the node's nonce.  A step sizes its own sends and reports
    the largest as `StepResult.bits`.

    A step reads its inbox as a multiset: the order of its pairs must not
    reach anything the step sends, holds or reports.  The simulator
    delivers in send order; the tests permute inboxes to check the
    contract.

    A run pauses the cyclic garbage collector, so a step, and everything it
    calls, must not build a reference cycle (a nested function that calls
    itself is one): what the run drops is freed by reference counting
    alone.  The tests run every engine family with the collector off and
    check that a collection afterwards finds nothing."""

    def start(self, ctx: NodeContext) -> Any:
        raise NotImplementedError

    def inject(self, state: Any, ctx: NodeContext, payload: Any) -> None:
        raise SimError(f"{type(self).__name__} does not accept query injection")

    def step(
        self,
        state: Any,
        ctx: NodeContext,
        round_no: int,
        inbox: Sequence[tuple[Any, int]],
    ) -> StepResult:
        raise NotImplementedError

    def collect(self, state: Any, ctx: NodeContext) -> Any:
        """The node's result.  Results outlive the run, and the first
        collection after the collector resumes scans all of them, so
        `collect` returns only what the driver reads: for a query engine,
        the node's answer fragment as a frozenset."""
        raise NotImplementedError


def broadcast(ctx: NodeContext, payload: Any) -> list[tuple[int, Any]]:
    """One logical broadcast: a copy on every port."""
    return [(p, payload) for p in ctx.ports]


_NO_PAYLOAD = object()


def sends_bits(
    sends: Sequence[tuple[int, Any]],
    size: Callable[[Any, EncodingParams], int],
    enc: EncodingParams,
) -> int:
    """The largest `size(payload, enc)` among the sends, 0 for none.  A
    payload repeated on consecutive sends, as a broadcast repeats one, is
    sized once."""
    bits = 0
    last: Any = _NO_PAYLOAD
    for _port, payload in sends:
        if payload is not last:
            b = size(payload, enc)
            if b > bits:
                bits = b
            last = payload
    return bits


# ----------------------------------------------------------------- metrics


@dataclass(frozen=True)
class Metrics:
    """The paper's simulated costs: DIST-TIME (rounds with a delivery, at
    least 1), #MSG/NODE (messages each node sent), MSG-SIZE (the largest
    message in bits) and IN-TIME/ROUND (the largest `steps` any stepped
    node reported; a skipped step is idle and would report 1, which round 1
    already reaches)."""

    dist_time: int
    msgs_per_node: Mapping[int, int]
    max_msg_bits: int
    max_in_steps_per_round: int

    @property
    def max_msgs_per_node(self) -> int:
        return max(self.msgs_per_node.values(), default=0)

    @property
    def total_msgs(self) -> int:
        return sum(self.msgs_per_node.values())


def metrics_report(metrics: Metrics, fmt: str = "table") -> str:
    rows: list[tuple[str, str, int]] = [
        ("IN-TIME/ROUND", "", metrics.max_in_steps_per_round),
        ("DIST-TIME", "", metrics.dist_time),
        ("MSG-SIZE", "", metrics.max_msg_bits),
    ]
    for node in sorted(metrics.msgs_per_node):
        rows.append(("#MSG/NODE", str(node), metrics.msgs_per_node[node]))
    if fmt == "csv":
        out = ["measure,node,value"]
        out.extend(f"{m},{n},{v}" for m, n, v in rows)
        return "\n".join(out) + "\n"
    if fmt == "table":
        out = []
        for m, n, v in rows:
            name = f"{m}[{n}]" if n else m
            out.append(f"{name:<18} {v:>10}")
        return "\n".join(out) + "\n"
    raise SimError(f"unknown report format {fmt!r}")


# --------------------------------------------------------------------- run


def run(
    net: Network,
    engine: NodeEngine,
    init: Optional[Mapping[int, Any]] = None,
    round_cap: int = 10_000,
) -> tuple[dict[int, Any], Metrics]:
    """Drive the engine to termination: the run ends after the first round
    after which every node's last report is quiescent.  Returns each node's
    collected result and the run's metrics.  Raises SimError when the round
    cap is below 1.

    The cyclic garbage collector is paused for the whole run, because no
    step builds a reference cycle (`NodeEngine`); it is enabled again on
    every way out, unless the caller had disabled it.  The results outlive
    the run, so the first collection after it resumes scans them; that is
    why `NodeEngine.collect` returns only what the driver reads."""
    if round_cap < 1:
        raise SimError(f"round cap {round_cap} is not a positive number of rounds")
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(net, engine, init, round_cap)
    finally:
        if enabled:
            gc.enable()


def _run(
    net: Network,
    engine: NodeEngine,
    init: Optional[Mapping[int, Any]],
    round_cap: int,
) -> tuple[dict[int, Any], Metrics]:
    g = net.graph
    contexts = {a: _context_for(net, a) for a in g.nodes}
    states = {a: engine.start(contexts[a]) for a in g.nodes}
    for a, payload in (init or {}).items():
        if a not in states:
            raise SimError(f"init references unknown node {a}")
        engine.inject(states[a], contexts[a], payload)
    # node -> {port: (neighbor, arrival port at the neighbor)}
    links = {
        a: {p: (b, net.port_to[b][a]) for p, b in enumerate(net.ports[a], 1)}
        for a in g.nodes
    }
    # node -> its (payload, arrival port) pairs, for nodes with mail
    inboxes: defaultdict[int, list[tuple[Any, int]]] = defaultdict(list)
    restless: set[int] = set()  # nodes whose last report is not quiescent
    wake: dict[int, int] = {}  # node -> the wake-up round of its last report
    # wake-up round -> the nodes that asked for it; a node whose later report
    # replaced the request is stale there, since `wake` decides
    calendar: defaultdict[int, list[int]] = defaultdict(list)

    msgs_sent = {a: 0 for a in g.nodes}
    max_bits = 0
    max_steps = 0
    deliveries = 0

    def snapshot_metrics() -> Metrics:
        return Metrics(
            dist_time=max(deliveries, 1),
            msgs_per_node=dict(msgs_sent),
            max_msg_bits=max_bits,
            max_in_steps_per_round=max_steps,
        )

    def results() -> dict[int, Any]:
        return {a: engine.collect(states[a], contexts[a]) for a in g.nodes}

    round_no = 1
    stepping: Sequence[int] = g.nodes
    step, pop_inbox = engine.step, inboxes.pop
    while round_no <= round_cap:
        senders: list[tuple[int, Sequence[tuple[int, Any]]]] = []
        round_bits = 0
        for a in stepping:
            sends, quiescent, steps, w, bits = step(
                states[a], contexts[a], round_no, tuple(pop_inbox(a, ()))
            )
            if steps > max_steps:
                max_steps = steps
            if quiescent:
                restless.discard(a)
            else:
                restless.add(a)
            if w is None:
                wake.pop(a, None)
            elif w <= round_no:
                raise SimError(
                    f"node {a} asked in round {round_no} to wake in round {w}"
                )
            elif wake.get(a) != w:
                wake[a] = w
                calendar[w].append(a)
            if sends:
                if bits < 1:
                    raise SimError(
                        f"node {a} sent in round {round_no} with a largest "
                        f"message of {bits} bits; a message must be at "
                        f"least one bit"
                    )
                if bits > round_bits:
                    round_bits = bits
                senders.append((a, sends))
        if not restless:
            return results(), snapshot_metrics()
        if senders:
            if round_bits > max_bits:
                max_bits = round_bits
            for a, sends in senders:
                link = links[a]
                for port, payload in sends:
                    try:
                        b, arrival = link[port]
                    except KeyError:
                        raise SimError(f"node {a} has no port {port}") from None
                    inboxes[b].append((payload, arrival))
                msgs_sent[a] += len(sends)
            deliveries += 1
            round_no += 1
        else:
            # Nothing in flight: jump to the earliest wake-up still asked
            # for, dropping the buckets that hold only stale requests.
            while calendar:
                w = min(calendar)
                if any(wake.get(a) == w for a in calendar[w]):
                    break
                del calendar[w]
            else:
                break  # nothing can change any more
            round_no = w
        # Every round in `calendar` lies after the last round stepped.
        due = set(inboxes).union(a for a, _ in senders)
        asked = calendar.pop(round_no, None)
        if asked:
            due.update(a for a in asked if wake.get(a) == round_no)
        stepping = sorted(due)
    raise RoundCapError(
        f"round cap {round_cap} exceeded without termination",
        snapshot_metrics(),
        results(),
    )
