"""Distributed evaluation of first-order queries on identified networks.

Every node runs the same automaton over the port-numbered network.  Queries
flood the network as canonically printed formulas; each node reduces a query
by instantiating the rightmost free variable, or the leftmost (outermost)
quantified variable, with its own id.  The node that performs the last free
instantiation is the holding node for the resulting tuple.  Ground relation
atoms are decided by the nodes mentioned in them, which broadcast the truth
values; every answer is relayed at most once per node, so the answer floods
reach the whole network.

The nodes share the global round counter, so every quantifier occurrence has
an absolute deadline computed from the formula structure and the diameter:
by that round all instance values are derivable everywhere, and every node
silently aggregates the quantifier (no witness means false for an
existential, true for a universal) in the same round.  Short-circuit
resolutions found before the deadline are broadcast.  This keeps all nodes'
answer tables consistent regardless of message order, and the total response
time within the clock budget of `clock_value`.

Each closed query text is compiled once per run, when the run's
`QueryTable` first meets it, into a closure that gives its three-valued
value on a node from that node's answers, with the atom keys bound; its
quantifier positions ask the node's core for the leaf's value.  A node is
charged the text's node count outside quantifier bodies per evaluation.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Iterable,
    Optional,
    Sequence,
    Union,
)

from . import simnet
from .logic import (
    EDGE_PRED,
    And,
    Atom,
    BoolConst,
    Cmp,
    Const,
    Exists,
    FixpointQuery,
    Forall,
    Formula,
    FormulaError,
    Not,
    Or,
    Var,
    _scoped,
    _terms_of,
    atoms,
    canonical_print,
    check_atoms,
    constants,
    free_vars,
    parse_formula,
    ranges,
    stats,
    substitute,
)
from .oracle import Relation
from .simnet import (
    EncodingParams,
    Network,
    NodeContext,
    NodeEngine,
    StepResult,
    broadcast,
    sends_bits,
)


class EngineError(ValueError):
    pass


def clock_value(w: int, delta: int) -> int:
    """Response-time budget for a query with w variables-or-constants on a
    network of diameter delta."""
    if w < 1:
        raise EngineError("clock needs a positive variable-or-constant count")
    if delta < 1:
        raise EngineError("clock needs a positive diameter")
    return 2 * delta * w


def answer_key(text: str) -> int:
    """64-bit wire key for an answer to the canonically printed query."""
    return int.from_bytes(
        hashlib.blake2b(text.encode(), digest_size=8).digest(), "big"
    )


# ------------------------------------------------------------------- tables


@dataclass(frozen=True)
class _Quantifier:
    """An outermost quantifier occurrence of a query text: what every node
    derives alike from it."""

    quant: Formula  # the Exists/Forall subformula
    var: str
    is_exists: bool
    text: str  # canonical text
    depth: int  # binder nesting, inside quant, of the deepest atom variable


@dataclass(frozen=True)
class _Template:
    """The node-independent facts about one canonical query text."""

    text: str
    formula: Formula
    probes: tuple[int, ...]  # values that can make it a quantifier instance
    ground: tuple[tuple[str, tuple[int, ...], int], ...]  # (pred, args, key)
    free: tuple[str, ...]  # free variables
    quantifiers: tuple[_Quantifier, ...]  # of a closed text: outermost, pre-order
    evaluate: Optional[_Eval]  # of a closed text: its compiled value
    size: int  # of a closed text: its node count outside quantifier bodies


@dataclass
class _Leaf:
    """One outermost quantifier occurrence of a stored query, with the
    absolute round by which its value can be aggregated locally."""

    shape: _Quantifier
    deadline: int
    key: int  # answer key of the quantifier's value
    instances: set[str] = field(default_factory=set)  # instance query texts
    ordered: list[_Entry] = field(default_factory=list)  # theirs, by text


@dataclass
class _Entry:
    template: _Template
    level: int  # number of instantiations performed so far
    kind: str  # "B" closed query, "O" open query
    key: int  # answer key of the query's value
    suffix: tuple[int, ...] = ()  # open: already-assigned values, leftmost first
    leaves: list[_Leaf] = field(default_factory=list)  # in pre-order
    value: Optional[bool] = None


# ------------------------------------------------------------ formula walks


def _atom_depth(q: Formula) -> int:
    """The largest binder nesting depth inside q (q's own binder at depth 1)
    of a variable an atom of q reads; 0 when no atom reads one.  q is a
    quantifier of a closed text, so q binds every variable in it."""
    return max(
        (
            len(binders) - binders[::-1].index(t.name)
            for g, binders in _scoped(q)
            for t in _terms_of(g)
            if isinstance(t, Var)
        ),
        default=0,
    )


def _cmp_holds(op: str, a: int, b: int) -> bool:
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    return a >= b


# A closed text's three-valued value on a node: (core, entry, round) -> value.
_Eval = Callable[["FOCore", "_Entry", int], Optional[bool]]


def _compile(
    f: Formula, queries: QueryTable, quants: list[Formula]
) -> tuple[_Eval, int]:
    """f, a part of a closed query text, compiled: its three-valued value
    and its node count outside quantifier bodies.  Every part is evaluated,
    without short circuits, so a quantifier's instances are visited as the
    count assumes; each quantifier met is the entry's next leaf, and is
    appended to `quants`."""
    if isinstance(f, BoolConst):
        v: Optional[bool] = f.value
        return (lambda core, e, r: v), 1
    if isinstance(f, Cmp):  # ground: the text is closed
        v = _cmp_holds(f.op, f.left.value, f.right.value)  # type: ignore[union-attr]
        return (lambda core, e, r: v), 1
    if isinstance(f, Atom):
        k = queries.atom_key(f)
        return (lambda core, e, r: core.answers.get(k)), 1
    if isinstance(f, Not):
        body, n = _compile(f.body, queries, quants)

        def negation(core: FOCore, e: _Entry, r: int) -> Optional[bool]:
            v = body(core, e, r)
            return None if v is None else not v

        return negation, n + 1
    if isinstance(f, (And, Or)):
        compiled = [_compile(p, queries, quants) for p in f.parts]
        parts = tuple(g for g, _ in compiled)
        decisive = isinstance(f, Or)  # the part value that decides f

        def junction(core: FOCore, e: _Entry, r: int) -> Optional[bool]:
            vals = [g(core, e, r) for g in parts]
            if decisive in vals:
                return decisive
            return None if None in vals else not decisive

        return junction, 1 + sum(n for _, n in compiled)
    if isinstance(f, (Exists, Forall)):
        i = len(quants)
        quants.append(f)
        return (lambda core, e, r: core._quantify(e, e.leaves[i], r)), 1
    raise EngineError(f"unsupported subformula {f!r}")


class QueryTable:
    """What the nodes of one run derive alike from the query texts it
    floods, derived once: the engine object of a run owns one and hands it
    to every FOCore it builds, on every node and in every fixpoint
    iteration.  It maps a canonical text to its template, (text, value)
    to the template of the instance that substitutes the value, a ground
    atom to its answer key, and (level, text) to the answer key of a
    query's value.  Every flooded text was made by `template` on the
    sending side, so a received text indexes `templates` directly.
    Nothing in it depends on a node or a round."""

    def __init__(self) -> None:
        self.templates: dict[str, _Template] = {}
        self.instances: dict[tuple[str, int], _Template] = {}
        self.atom_keys: dict[Atom, int] = {}
        self.keys: dict[tuple[Optional[int], str], int] = {}

    def template(self, f: Formula) -> _Template:
        text = canonical_print(f)
        t = self.templates.get(text)
        if t is None:
            ground = tuple(
                (a.pred, tuple(c.value for c in a.args), self.atom_key(a))
                for a in atoms(f)
                if isinstance(a, Atom) and all(isinstance(c, Const) for c in a.args)
            )
            free = free_vars(f)
            quants: list[Formula] = []
            evaluate, size = (None, 0) if free else _compile(f, self, quants)
            quantifiers = tuple(
                _Quantifier(
                    q,
                    q.var,  # type: ignore[union-attr]
                    isinstance(q, Exists),
                    canonical_print(q),
                    _atom_depth(q),
                )
                for q in quants
            )
            probes = tuple(sorted(set(constants(f)) | {1}))
            t = _Template(
                text, f, probes, ground, free, quantifiers, evaluate, size
            )
            self.templates[text] = t
        return t

    def instance(self, text: str, f: Formula, var: str, value: int) -> _Template:
        """The template of f, whose canonical text is `text`, with `value`
        for `var`.  Within a run a text fixes the variable: a quantifier's
        own, or an open query's rightmost free variable in the answer order
        every core shares."""
        inst = self.instances.get((text, value))
        if inst is None:
            inst = self.template(substitute(f, var, value))
            self.instances[(text, value)] = inst
        return inst

    def atom_key(self, a: Atom) -> int:
        k = self.atom_keys.get(a)
        if k is None:
            k = self.atom_keys[a] = answer_key(canonical_print(a))
        return k

    def key(self, level: Optional[int], text: str) -> int:
        """The answer key of the value of `text` after `level`
        instantiations, or of a fact's (level None), which no depth
        changes."""
        k = self.keys.get((level, text))
        if k is None:
            k = answer_key(text if level is None else f"{level}|{text}")
            self.keys[(level, text)] = k
        return k


# ----------------------------------------------------------------- the core


def _send_order(p: tuple) -> tuple:
    """Answers by key, then closed queries by level, then open queries by
    the length of their assignments, each next by its text."""
    if p[0] == "A":
        return (0, p[1], int(p[2]))
    if p[1] == "B":
        return (1, p[3], p[2])
    return (2, len(p[3]), p[2] + "|" + ",".join(str(x) for x in p[3]))


class FOCore:
    """One node's share of the distributed first-order evaluation.

    Deterministic and order-insensitive: a round ingests the whole inbox
    into the query/answer tables, in whatever order it arrives, then runs a
    local pass to a fixed point in sorted key order, then flushes the queued
    broadcasts in sorted order.  Ingesting commutes, so a core orders what
    it sends, not what it reads.

    Everything a query text implies regardless of the node comes from the
    run's shared `QueryTable`, its compiled value included; deciding atoms,
    deadlines, answers and links stay here.  A leaf keeps its instance
    entries in text order, re-sorted only when it gains one, and `idle`
    reads only the leaves that may still await their deadline.

    A closed entry's quantifier leaf links the entries one level down that
    are its instances: those whose text is the leaf's quantifier with one
    of the candidate's probes substituted (`_match`).  To find them without
    a scan, `links` maps (level, text) to every leaf that prints that text
    for some value in `values` (1, the own id and every probe seen so far);
    a probe seen for the first time registers the existing leaves under it,
    so every matching pair meets in `links`.
    """

    def __init__(
        self,
        self_id: int,
        neighbors: frozenset[int],
        self_unary: frozenset[str],
        delta: int,
        order: tuple[str, ...],
        queries: QueryTable,
        table: Optional[tuple[str, frozenset[tuple[int, ...]]]] = None,
        round_offset: int = 0,
    ):
        self.self_id = self_id
        self.neighbors = frozenset(neighbors)
        self.self_unary = frozenset(self_unary)
        self.delta = delta
        self.order = tuple(order)
        self.queries = queries
        self.table = table  # (name, committed rows) of a fixpoint relation
        self.round_offset = round_offset
        self.entries: dict[tuple[int, str], _Entry] = {}
        self.unresolved: dict[tuple[int, str], _Entry] = {}  # closed, no value
        self.links: dict[tuple[int, str], list[_Leaf]] = {}
        self.open_leaves: list[_Leaf] = []  # may still await their deadline
        self.values: set[int] = {1, self_id}
        self.answers: dict[int, bool] = {}
        self.out: list[tuple] = []
        self.tuples: dict[tuple[int, str], tuple[int, ...]] = {}
        self.stored: set[tuple[int, ...]] = set()
        self.work = 0
        self._dirty = False

    # -- local fact knowledge

    def _decide_atom(self, pred: str, args: tuple[int, ...]) -> Optional[bool]:
        if pred == EDGE_PRED:
            if self.self_id not in args:
                return None
            a, b = args
            if a == b:
                return False
            other = b if a == self.self_id else a
            return other in self.neighbors
        # Closed-world: the node named by the first argument decides.
        if args[0] != self.self_id:
            return None
        if self.table is not None and pred == self.table[0]:
            return args in self.table[1]
        return pred in self.self_unary

    # -- answer table

    def _insert_answer(self, k: int, value: bool, announce: bool) -> None:
        prev = self.answers.get(k)
        if prev is not None:
            if prev != value:
                raise EngineError(f"conflicting answers for answer key {k}")
            return
        self.answers[k] = value
        self._dirty = True
        if announce:
            self.out.append(("A", k, value))

    # -- query table construction

    def _create_entry(
        self,
        t: _Template,
        kind: str,
        level: int,
        suffix: tuple[int, ...],
    ) -> _Entry:
        ek = (level, t.text)
        if ek in self.entries:
            e = self.entries[ek]
            if kind == "O" and e.suffix != suffix:
                raise EngineError(
                    f"open query {t.text!r} reached with conflicting assignments"
                )
            return e
        self.work += 1
        fact = isinstance(t.formula, (Atom, Cmp, BoolConst))
        key = self.queries.key(None if fact else level, t.text)
        e = _Entry(t, level, kind, key, suffix)
        self.entries[ek] = e
        if kind == "B":
            self.unresolved[ek] = e
        self._dirty = True
        if not isinstance(t.formula, BoolConst):
            if kind == "B":
                self.out.append(("Q", "B", t.text, level))
            else:
                self.out.append(("Q", "O", t.text, suffix))
        for pred, args, k in t.ground:
            v = self._decide_atom(pred, args)
            if v is not None:
                self._insert_answer(k, v, announce=True)
        fresh = [b for b in t.probes if b not in self.values]
        if fresh:
            self.values.update(fresh)
            for (lv, _), parent in self.entries.items():
                for leaf in parent.leaves:
                    self._register(lv + 1, leaf, fresh)
        if kind == "O":
            self._extend_open(e)
        else:
            # An atom first becomes ground when the deepest variable in it
            # is instantiated; the instantiating node is a party to the
            # atom, so its truth value floods from it within delta rounds.
            e.leaves = [
                _Leaf(
                    q,
                    self.round_offset + 1 + (max(level + q.depth, 1) + 1) * self.delta,
                    self.queries.key(level, q.text),
                )
                for q in t.quantifiers
            ]
            self.open_leaves.extend(e.leaves)
            for leaf in e.leaves:
                self._register(level + 1, leaf, self.values)
            self._spawn_instances(e)
        for leaf in self.links.get(ek, ()):
            if t.text not in leaf.instances and self._match(leaf, e):
                leaf.instances.add(t.text)
        return e

    def _register(self, level: int, leaf: _Leaf, values: Iterable[int]) -> None:
        """File `leaf` under the text of its instance for each value, and
        link the stored level-`level` entries among them."""
        q = leaf.shape
        for b in values:
            text = self.queries.instance(q.text, q.quant, q.var, b).text
            self.links.setdefault((level, text), []).append(leaf)
            cand = self.entries.get((level, text))
            if cand is None or text in leaf.instances:
                continue
            if self._match(leaf, cand):
                leaf.instances.add(text)

    def _extend_open(self, e: _Entry) -> None:
        t = e.template
        remaining = [v for v in self.order if v in t.free]
        if not remaining:
            raise EngineError(f"open query {t.text!r} has no free variables left")
        nt = self.queries.instance(t.text, t.formula, remaining[-1], self.self_id)
        ns = (self.self_id,) + e.suffix
        if len(remaining) == 1:
            be = self._create_entry(nt, "B", e.level + 1, ())
            self.tuples[(e.level + 1, be.template.text)] = ns
        else:
            self._create_entry(nt, "O", e.level + 1, ns)

    def _spawn_instances(self, e: _Entry) -> None:
        for leaf in e.leaves:
            q = leaf.shape
            inst = self.queries.instance(q.text, q.quant, q.var, self.self_id)
            leaf.instances.add(inst.text)
            self._create_entry(inst, "B", e.level + 1, ())

    def _match(self, leaf: _Leaf, cand: _Entry) -> bool:
        """Whether substituting one of cand's probes for the leaf's
        variable prints cand's text."""
        q, text = leaf.shape, cand.template.text
        for b in cand.template.probes:
            if self.queries.instance(q.text, q.quant, q.var, b).text == text:
                return True
        return False

    # -- round interface

    def inject_query(self, f: Formula, suffix: tuple[int, ...]) -> None:
        """Start evaluating a query whose last `len(suffix)` variables are
        already assigned (leftmost first); a closed query records the suffix
        as the candidate answer tuple of this node."""
        level = len(suffix)
        t = self.queries.template(f)
        if t.free:
            self._create_entry(t, "O", level, tuple(suffix))
        else:
            self._create_entry(t, "B", level, ())
            self.tuples[(level, t.text)] = tuple(suffix)

    def ingest(self, payloads: Sequence[tuple]) -> None:
        for p in payloads:
            self.work += 1
            if p[0] == "A":
                self._insert_answer(p[1], bool(p[2]), announce=True)
                continue
            _, kind, text, extra = p
            # A closed query carries its level, an open one its assignments.
            suffix = () if kind == "B" else tuple(extra)
            level = extra if kind == "B" else len(suffix)
            known = self.entries.get((level, text))
            if known is None:
                self._create_entry(
                    self.queries.templates[text], kind, level, suffix
                )
            elif known.suffix != suffix:
                raise EngineError(
                    f"open query {text!r} reached with conflicting assignments"
                )

    def advance(self, round_no: int) -> None:
        """Evaluate the unresolved closed entries in sorted key order, pass
        after pass, until a pass changes nothing.  No entry is created
        here, so one sort serves every pass."""
        pending = [self.unresolved[ek] for ek in sorted(self.unresolved)]
        while pending:
            self._dirty = False
            for e in pending:
                if e.value is None:
                    self._eval_entry(e, round_no)
            pending = [e for e in pending if e.value is None]
            if not self._dirty:
                break
        self.unresolved = {(e.level, e.template.text): e for e in pending}
        for ek, answer in self.tuples.items():
            if self.entries[ek].value is True:
                self.stored.add(answer)

    def _eval_entry(self, e: _Entry, round_no: int) -> Optional[bool]:
        if e.value is not None:
            return e.value
        t = e.template
        v = self.answers.get(e.key)
        if v is None:
            self.work += t.size
            v = t.evaluate(self, e, round_no)  # type: ignore[misc]
        if v is not None:
            e.value = v
            announce = not isinstance(t.formula, (Cmp, BoolConst))
            self._insert_answer(e.key, v, announce)
            self._dirty = True
        return v

    def _quantify(self, e: _Entry, leaf: _Leaf, round_no: int) -> Optional[bool]:
        """The value of one of e's quantifier leaves: its answer if known,
        else a witness (a counterexample for a universal) among its
        instances, else its default once its deadline has come."""
        v = self.answers.get(leaf.key)
        if v is not None:
            return v
        if len(leaf.ordered) != len(leaf.instances):
            level = e.level + 1
            leaf.ordered = [
                self.entries[(level, text)] for text in sorted(leaf.instances)
            ]
        vals = [self._eval_entry(inst, round_no) for inst in leaf.ordered]
        decisive = leaf.shape.is_exists
        if decisive in vals:
            self._insert_answer(leaf.key, decisive, announce=True)
            return decisive
        if round_no >= leaf.deadline:
            # Every instance value is derivable network-wide by now, so all
            # nodes reach the same default in the same round; nothing needs
            # to be sent.
            self._insert_answer(leaf.key, not decisive, announce=False)
            return not decisive
        return None

    def flush(self) -> list[tuple]:
        out = sorted(self.out, key=_send_order)
        self.out = []
        return out

    def idle(self, round_no: int) -> bool:
        """No quantifier still awaits its deadline.  Rounds only grow and
        answers are never withdrawn, so a leaf dropped here stays closed."""
        self.open_leaves = [
            leaf
            for leaf in self.open_leaves
            if round_no < leaf.deadline and leaf.key not in self.answers
        ]
        return not self.open_leaves

    def total_work(self) -> int:
        return self.work

    def fragment(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.stored)


# ------------------------------------------------------------ simnet engine


class _BroadcastEngine(NodeEngine):
    """Simulator adapter of the global engines: one core per node, built by
    `_core(self_id, neighbors, self_unary, delta)`, whose round is ingest,
    advance and flush, with every payload broadcast.  Every node is stepped
    in every round.  One engine object serves one run: it owns the run's
    `QueryTable` and hands it to every core it builds, so each query text
    the run floods is parsed, printed, instantiated and compiled once per
    run, not once per node.

    Both cores read their inbox as a set by construction: a core orders
    what it sends, not what it reads.  `FOCore.ingest` takes payloads in
    any order, since ingesting them commutes; `FPCore.ingest` keeps the
    largest hop count among a round's FPQ copies and among its I copies
    and hands the F payloads to its FOCore; and both `flush`es sort."""

    def start(self, ctx: NodeContext) -> Any:
        if ctx.node_id is None or ctx.neighbor_ids is None:
            raise EngineError(
                f"{type(self).__name__} needs globally unique node ids"
            )
        return self._core(
            ctx.node_id,
            frozenset(ctx.neighbor_ids.values()),
            ctx.self_unary,
            ctx.diameter,
        )

    def step(
        self,
        state: Any,
        ctx: NodeContext,
        round_no: int,
        inbox: Sequence[tuple[Any, int]],
    ) -> StepResult:
        before = state.total_work()
        state.ingest([payload for payload, _ in inbox])
        state.advance(round_no)
        outs = state.flush()
        sends = tuple(s for p in outs for s in broadcast(ctx, p))
        return StepResult(
            sends=sends,
            quiescent=not outs and state.idle(round_no),
            steps=1 + state.total_work() - before,
            wake_at=round_no + 1,  # a quantifier deadline may fall in any round
            bits=sends_bits(sends, self.payload_bits, ctx.enc),
        )

    def collect(self, state: Any, ctx: NodeContext) -> frozenset:
        return state.fragment()


class FOQueryEngine(_BroadcastEngine):
    """One FOCore per node, for a query whose answer variables are `order`."""

    def __init__(self, order: tuple[str, ...]):
        self.order = tuple(order)
        self.queries = QueryTable()

    def _core(self, *args: Any) -> FOCore:
        return FOCore(*args, order=self.order, queries=self.queries)

    def inject(self, state: FOCore, ctx: NodeContext, payload: Any) -> None:
        state.inject_query(payload, ())

    def payload_bits(self, payload: Any, enc: EncodingParams) -> int:
        return fo_payload_bits(payload, enc)


def fo_payload_bits(payload: tuple, enc: EncodingParams) -> int:
    """Wire size of one first-order engine payload (shared with the
    fixpoint engine, which wraps these payloads)."""
    if payload[0] == "A":
        return enc.tag_bits + 64 + 1
    if payload[1] == "B":
        return enc.tag_bits + enc.counter_bits + enc.text_bits(payload[2])
    return (
        enc.tag_bits
        + enc.text_bits(payload[2])
        + enc.id_bits * max(1, len(payload[3]))
    )


# -------------------------------------------------------------- entry point


def _admit_global(net: Network, query: Union[Formula, FixpointQuery]) -> None:
    """Admit a query to the global engines, once per run before any node
    steps: no neighborhood bound, atoms by `check_atoms`, constants that
    name nodes, and no free variable named like the binders that canonical
    printing makes (q1, q2, ...).  The engines trust what passes."""
    f = query.body if isinstance(query, FixpointQuery) else query
    if any(ranges(f)):
        raise EngineError("neighborhood bounds belong to the local-fragment engines")
    try:
        check_atoms(query)
    except FormulaError as err:
        raise EngineError(str(err)) from None
    for c in constants(f):
        if c not in net.graph.adj:
            raise EngineError(f"constant {c} is not a node id")
    for v in free_vars(f):
        if v.startswith("q") and v[1:].isdigit():
            raise EngineError(f"variable name {v!r} is reserved")


def _run_from_requester(
    net: Network,
    engine: NodeEngine,
    query: Any,
    requester: int,
    arity: int,
    *,
    round_cap: int,
    with_placement: bool,
    fragment: Callable[[int, frozenset], Iterable[tuple[int, ...]]],
):
    """The body shared by the query drivers: inject the query at the
    requester, run the engine, and gather the per-node fragments into one
    relation of the given arity; with `with_placement` the fragments are a
    third value.  A node's result is its answer fragment, a frozenset of
    rows; ``fragment(node, rows)`` gives them as tuples of node ids."""
    if requester not in net.graph.adj:
        raise EngineError(f"requester {requester} is not a node")
    results, metrics = simnet.run(
        net, engine, init={requester: query}, round_cap=round_cap
    )
    placement = {
        a: frozenset(fragment(a, rows)) for a, rows in results.items()
    }
    rel = Relation(arity, frozenset().union(*placement.values()))
    if with_placement:
        return rel, metrics, placement
    return rel, metrics


def run_qe_fo(
    net: Network,
    formula: Union[Formula, str],
    requester: int,
    *,
    round_cap: Optional[int] = None,
    with_placement: bool = False,
):
    """Evaluate a first-order query distributively; the relation is the
    union of the per-node held fragments, its columns the free variables
    in order of first occurrence (arity 0 encodes a Boolean result: {()}
    for true, {} for false).  With `with_placement` the per-node fragments
    are returned as a third value."""
    f = parse_formula(formula) if isinstance(formula, str) else formula
    _admit_global(net, f)
    delta = net.graph.diameter
    budget = clock_value(max(1, stats(f).w), max(1, delta))
    order = free_vars(f)
    return _run_from_requester(
        net,
        FOQueryEngine(order),
        f,
        requester,
        len(order),
        round_cap=round_cap if round_cap is not None else budget + delta + 8,
        with_placement=with_placement,
        fragment=lambda a, rows: rows,
    )
