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
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
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
    InNbhd,
    Not,
    Or,
    Var,
    _terms_of,
    atoms,
    canonical_print,
    constants,
    free_vars,
    parse_formula,
    stats,
    subformulas,
    substitute,
)
from .oracle import Relation
from .simnet import (
    EncodingParams,
    Message,
    Network,
    NodeContext,
    NodeEngine,
    StepResult,
    broadcast,
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


@dataclass
class _Leaf:
    """One outermost quantifier occurrence of a stored query, with the
    absolute round by which its value can be aggregated locally."""

    quant: Formula  # the Exists/Forall subformula
    var: str
    is_exists: bool
    deadline: int
    key: int  # answer key of the quantifier's value
    instances: set[str] = field(default_factory=set)  # instance query texts
    # value b -> canonical text of the instance that substitutes b for var
    texts: dict[int, str] = field(default_factory=dict)


@dataclass
class _Entry:
    text: str
    formula: Formula
    level: int  # number of instantiations performed so far
    kind: str  # "B" closed query, "O" open query
    key: int  # answer key of the query's value
    probes: tuple[int, ...]  # values that can make it a quantifier instance
    suffix: tuple[int, ...] = ()  # open: already-assigned values, leftmost first
    leaves: list[_Leaf] = field(default_factory=list)  # in pre-order
    value: Optional[bool] = None


@dataclass(frozen=True)
class FONodeReport:
    """Per-node outcome: the locally held answer tuples."""

    tuples: frozenset[tuple[int, ...]]


# ------------------------------------------------------------ formula walks


def _quantifier_leaves(f: Formula) -> Iterator[Formula]:
    """Outermost quantifier occurrences, in pre-order."""
    if isinstance(f, (Exists, Forall)):
        yield f
    elif isinstance(f, Not):
        yield from _quantifier_leaves(f.body)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            yield from _quantifier_leaves(p)


def _cmp_holds(op: str, a: int, b: int) -> bool:
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    return a >= b


# ----------------------------------------------------------------- the core


def _send_order(p: tuple) -> tuple:
    if p[0] == "A":
        return (0, f"{p[1]:020d}", str(int(p[2])))
    if p[1] == "B":
        return (1, f"{p[3]:06d}", p[2])
    return (2, f"{len(p[3]):06d}", p[2] + "|" + ",".join(str(x) for x in p[3]))


class FOCore:
    """One node's share of the distributed first-order evaluation.

    Deterministic and order-insensitive: a round ingests the whole inbox
    into the query/answer tables, then runs a local pass to a fixed point in
    sorted key order, then flushes the queued broadcasts in sorted order.
    """

    def __init__(
        self,
        self_id: int,
        neighbors: frozenset[int],
        self_unary: frozenset[str],
        delta: int,
        order: tuple[str, ...],
        formulas: dict[str, Formula],
        table: Optional[tuple[str, frozenset[tuple[int, ...]]]] = None,
        round_offset: int = 0,
    ):
        self.self_id = self_id
        self.neighbors = frozenset(neighbors)
        self.self_unary = frozenset(self_unary)
        self.delta = delta
        self.order = tuple(order)
        # Query text -> parsed formula, shared by every core of one run.
        self.formulas = formulas
        self.table = table  # (name, committed rows) of a fixpoint relation
        self.round_offset = round_offset
        self.entries: dict[tuple[int, str], _Entry] = {}
        self.by_level: dict[int, set[str]] = {}
        self.answers: dict[int, bool] = {}
        self.out: list[tuple] = []
        self.tuples: dict[tuple[int, str], tuple[int, ...]] = {}
        self.stored: set[tuple[int, ...]] = set()
        self.work = 0
        self._dirty = False

    # -- local fact knowledge

    def _decide_atom(self, pred: str, args: tuple[int, ...]) -> Optional[bool]:
        if self.table is not None and pred == self.table[0]:
            # Closed-world: the node named by the first argument decides.
            return args in self.table[1] if args[0] == self.self_id else None
        if pred == EDGE_PRED:
            if self.self_id not in args:
                return None
            a, b = args
            if a == b:
                return False
            other = b if a == self.self_id else a
            return other in self.neighbors
        if len(args) == 1:
            if args[0] != self.self_id:
                return None
            return pred in self.self_unary
        raise EngineError(f"relation {pred}/{len(args)} is not available")

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

    def _scan_ground_atoms(self, f: Formula) -> None:
        for a in atoms(f):
            if isinstance(a, Atom) and all(isinstance(t, Const) for t in a.args):
                args = tuple(t.value for t in a.args)
                v = self._decide_atom(a.pred, args)
                if v is not None:
                    self._insert_answer(answer_key(canonical_print(a)), v, announce=True)

    # -- deadlines

    def _leaf_deadline(self, q: Formula, entry_level: int) -> int:
        """Round by which the quantifier occurrence q of a level-`entry_level`
        query is decidable everywhere.  An atom first becomes ground when the
        deepest variable in it is instantiated; the instantiating node is a
        party to the atom, so the truth value floods from it within delta
        rounds of that instantiation."""
        top = entry_level

        def go(f: Formula, env: dict[str, int], depth: int) -> None:
            nonlocal top
            if isinstance(f, (Atom, Cmp)):
                lv = [env[t.name] for t in _terms_of(f) if isinstance(t, Var)]
                top = max(top, max(lv) if lv else entry_level)
            elif isinstance(f, Not):
                go(f.body, env, depth)
            elif isinstance(f, (And, Or)):
                for p in f.parts:
                    go(p, env, depth)
            elif isinstance(f, (Exists, Forall)):
                inner = dict(env)
                inner[f.var] = entry_level + depth + 1
                go(f.body, inner, depth + 1)

        go(q, {}, 0)
        return self.round_offset + 1 + (max(top, 1) + 1) * self.delta

    # -- query table construction

    def _create_entry(
        self,
        formula: Formula,
        kind: str,
        level: int,
        suffix: tuple[int, ...],
    ) -> _Entry:
        text = canonical_print(formula)
        ek = (level, text)
        if ek in self.entries:
            e = self.entries[ek]
            if kind == "O" and e.suffix != suffix:
                raise EngineError(
                    f"open query {text!r} reached with conflicting assignments"
                )
            return e
        self.work += 1
        if isinstance(formula, (Atom, Cmp, BoolConst)):
            key = answer_key(text)  # fact truth does not depend on the depth
        else:
            key = answer_key(f"{level}|{text}")
        probes = tuple(sorted(set(constants(formula)) | {1}))
        e = _Entry(text, formula, level, kind, key, probes, suffix)
        self.entries[ek] = e
        self.by_level.setdefault(level, set()).add(text)
        self._dirty = True
        if not isinstance(formula, BoolConst):
            if kind == "B":
                self.out.append(("Q", "B", text, level))
            else:
                self.out.append(("Q", "O", text, suffix))
        self._scan_ground_atoms(formula)
        if kind == "O":
            self._extend_open(e)
        else:
            e.leaves = [
                _Leaf(
                    quant=q,
                    var=q.var,  # type: ignore[union-attr]
                    is_exists=isinstance(q, Exists),
                    deadline=self._leaf_deadline(q, level),
                    key=answer_key(f"{level}|{canonical_print(q)}"),
                )
                for q in _quantifier_leaves(formula)
            ]
            self._spawn_instances(e)
            self._link_new_parent(e)
        self._link_new_child(e)
        return e

    def _extend_open(self, e: _Entry) -> None:
        present = set(free_vars(e.formula))
        remaining = [v for v in self.order if v in present]
        if not remaining:
            raise EngineError(f"open query {e.text!r} has no free variables left")
        rightmost = remaining[-1]
        nf = substitute(e.formula, rightmost, self.self_id)
        ns = (self.self_id,) + e.suffix
        if len(remaining) == 1:
            be = self._create_entry(nf, "B", e.level + 1, ())
            self.tuples[(e.level + 1, be.text)] = ns
        else:
            self._create_entry(nf, "O", e.level + 1, ns)

    def _spawn_instances(self, e: _Entry) -> None:
        for leaf in e.leaves:
            inst = substitute(leaf.quant, leaf.var, self.self_id)
            ie = self._create_entry(inst, "B", e.level + 1, ())
            leaf.instances.add(ie.text)
            leaf.texts[self.self_id] = ie.text

    def _match(self, leaf: _Leaf, cand: _Entry) -> bool:
        for b in cand.probes:
            text = leaf.texts.get(b)
            if text is None:
                text = canonical_print(substitute(leaf.quant, leaf.var, b))
                leaf.texts[b] = text
            if text == cand.text:
                return True
        return False

    def _link(self, parent: _Entry, cand: _Entry) -> None:
        for leaf in parent.leaves:
            if cand.text not in leaf.instances and self._match(leaf, cand):
                leaf.instances.add(cand.text)

    def _link_new_parent(self, e: _Entry) -> None:
        if not e.leaves:
            return
        for text2 in sorted(self.by_level.get(e.level + 1, ())):
            self._link(e, self.entries[(e.level + 1, text2)])

    def _link_new_child(self, e: _Entry) -> None:
        if e.level == 0:
            return
        for ptext in sorted(self.by_level.get(e.level - 1, ())):
            self._link(self.entries[(e.level - 1, ptext)], e)

    # -- round interface

    def inject_query(self, f: Formula, suffix: tuple[int, ...]) -> None:
        """Start evaluating a query whose last `len(suffix)` variables are
        already assigned (leftmost first); a closed query records the suffix
        as the candidate answer tuple of this node."""
        level = len(suffix)
        if free_vars(f):
            e = self._create_entry(f, "O", level, tuple(suffix))
        else:
            e = self._create_entry(f, "B", level, ())
            self.tuples[(level, e.text)] = tuple(suffix)

    def ingest(self, payloads: Sequence[tuple]) -> None:
        ans = sorted((p for p in payloads if p[0] == "A"), key=_send_order)
        qs = sorted((p for p in payloads if p[0] == "Q"), key=_send_order)
        for _, k, v in ans:
            self.work += 1
            self._insert_answer(k, bool(v), announce=True)
        for _, kind, text, extra in qs:
            self.work += 1
            # A closed query carries its level, an open one its assignments.
            suffix = () if kind == "B" else tuple(extra)
            level = extra if kind == "B" else len(suffix)
            known = self.entries.get((level, text))
            if known is None:
                f = self.formulas.get(text)
                if f is None:
                    f = self.formulas[text] = parse_formula(text)
                self._create_entry(f, kind, level, suffix)
            elif known.suffix != suffix:
                raise EngineError(
                    f"open query {text!r} reached with conflicting assignments"
                )

    def advance(self, round_no: int) -> None:
        changed = True
        while changed:
            self._dirty = False
            for ek in sorted(self.entries):
                e = self.entries[ek]
                if e.kind == "B" and e.value is None:
                    self._eval_entry(e, round_no)
            changed = self._dirty
        for ek in sorted(self.tuples):
            e = self.entries[ek]
            if e.value is True:
                self.stored.add(self.tuples[ek])

    def _eval_entry(self, e: _Entry, round_no: int) -> Optional[bool]:
        if e.value is not None:
            return e.value
        if e.key in self.answers:
            v: Optional[bool] = self.answers[e.key]
        else:
            v = self._ev(e, e.formula, iter(e.leaves), round_no)
        if v is not None:
            e.value = v
            announce = not isinstance(e.formula, (Cmp, BoolConst))
            self._insert_answer(e.key, v, announce)
            self._dirty = True
        return v

    def _ev(
        self, e: _Entry, f: Formula, leaves: Iterator[_Leaf], round_no: int
    ) -> Optional[bool]:
        """Three-valued value of f, a part of e's formula; `leaves` yields
        e's quantifier leaves from f's first one on.  Every part is visited,
        so each quantifier met is the next leaf."""
        self.work += 1
        if isinstance(f, BoolConst):
            return f.value
        if isinstance(f, Cmp):
            if isinstance(f.left, Const) and isinstance(f.right, Const):
                return _cmp_holds(f.op, f.left.value, f.right.value)
            raise EngineError(f"cannot evaluate open comparison {canonical_print(f)!r}")
        if isinstance(f, Atom):
            if not all(isinstance(t, Const) for t in f.args):
                raise EngineError(f"cannot evaluate open atom {canonical_print(f)!r}")
            return self.answers.get(answer_key(canonical_print(f)))
        if isinstance(f, Not):
            v = self._ev(e, f.body, leaves, round_no)
            return None if v is None else not v
        if isinstance(f, (And, Or)):
            vals = [self._ev(e, p, leaves, round_no) for p in f.parts]
            if isinstance(f, And):
                if any(v is False for v in vals):
                    return False
                return True if all(v is True for v in vals) else None
            if any(v is True for v in vals):
                return True
            return False if all(v is False for v in vals) else None
        if isinstance(f, (Exists, Forall)):
            leaf = next(leaves)
            if leaf.key in self.answers:
                return self.answers[leaf.key]
            vals = []
            for text in sorted(leaf.instances):
                inst = self.entries[(e.level + 1, text)]
                vals.append(self._eval_entry(inst, round_no))
            if leaf.is_exists and any(v is True for v in vals):
                self._insert_answer(leaf.key, True, announce=True)
                return True
            if not leaf.is_exists and any(v is False for v in vals):
                self._insert_answer(leaf.key, False, announce=True)
                return False
            if round_no >= leaf.deadline:
                # Every instance value is derivable network-wide by now, so
                # all nodes reach the same default in the same round; nothing
                # needs to be sent.
                v = (
                    any(v is True for v in vals)
                    if leaf.is_exists
                    else not any(v is False for v in vals)
                )
                self._insert_answer(leaf.key, v, announce=False)
                return v
            return None
        raise EngineError(f"unsupported subformula {f!r}")

    def flush(self) -> list[tuple]:
        out = sorted(self.out, key=_send_order)
        self.out = []
        return out

    def idle(self, round_no: int) -> bool:
        """No quantifier still awaits its deadline."""
        return not any(
            round_no < leaf.deadline and leaf.key not in self.answers
            for e in self.entries.values()
            for leaf in e.leaves
        )

    def total_work(self) -> int:
        return self.work

    def report(self) -> FONodeReport:
        return FONodeReport(tuples=frozenset(self.stored))


# ------------------------------------------------------------ simnet engine


class _BroadcastEngine(NodeEngine):
    """Simulator adapter of the global engines: one core per node, built by
    `_core(self_id, neighbors, self_unary, delta)`, whose round is ingest,
    advance and flush, with every payload broadcast.  Every node is stepped
    in every round.  One engine object serves one run, and its cores share
    the engine's `formulas`, so each query text a run floods is parsed once;
    a text that fails to parse is not kept."""

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
        self, state: Any, ctx: NodeContext, round_no: int, inbox: Sequence[Message]
    ) -> StepResult:
        before = state.total_work()
        state.ingest([m.payload for m in inbox])
        state.advance(round_no)
        outs = state.flush()
        return StepResult(
            sends=tuple(s for p in outs for s in broadcast(ctx, p)),
            quiescent=not outs and state.idle(round_no),
            steps=1 + state.total_work() - before,
            wake_at=round_no + 1,  # a quantifier deadline may fall in any round
        )

    def collect(self, state: Any, ctx: NodeContext) -> Any:
        return state.report()


class FOQueryEngine(_BroadcastEngine):
    """One FOCore per node, for a query whose answer variables are `order`."""

    def __init__(self, order: tuple[str, ...]):
        self.order = tuple(order)
        self.formulas: dict[str, Formula] = {}

    def _core(self, *args: Any) -> FOCore:
        return FOCore(*args, order=self.order, formulas=self.formulas)

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


def _validate_query(
    f: Formula, net: Network, allow: Optional[Mapping[str, int]] = None
) -> None:
    for g in subformulas(f):
        if isinstance(g, InNbhd):
            raise EngineError(
                "neighborhood atoms belong to the local-fragment engines"
            )
        if isinstance(g, (Exists, Forall)) and g.bound is not None:
            raise EngineError(
                "radius-bounded quantifiers belong to the local-fragment engines"
            )
        if isinstance(g, Atom):
            if g.pred == EDGE_PRED:
                continue
            if allow and allow.get(g.pred) == len(g.args):
                continue
            if len(g.args) != 1 or (allow and g.pred in allow):
                raise EngineError(
                    f"relation {g.pred}/{len(g.args)} is not available on the network"
                )
    nodes = set(net.graph.adj)
    for c in constants(f):
        if c not in nodes:
            raise EngineError(f"constant {c} is not a node id")
    for v in free_vars(f):
        if v.startswith("q") and v[1:].isdigit():
            raise EngineError(f"free variable name {v!r} is reserved")


def _check_fixpoint_vars(q: FixpointQuery) -> None:
    if q.name == EDGE_PRED:
        raise EngineError(f"fixpoint relation may not shadow {EDGE_PRED!r}")
    if set(free_vars(q.body)) != set(q.vars):
        raise EngineError(
            "every declared fixpoint variable must occur in the body"
        )


def _run_from_requester(
    net: Network,
    make_engine: Callable[[tuple[str, ...]], NodeEngine],
    query: Any,
    requester: int,
    variables: tuple[str, ...],
    order: Optional[Sequence[str]],
    *,
    order_seed: int,
    round_cap: int,
    with_placement: bool,
    fragment: Callable[[int, Any], Iterable[tuple[int, ...]]],
):
    """The body shared by the query drivers: inject the query at the
    requester, run the engine built for the answer-variable order, and
    gather the per-node fragments (``fragment(node, report)``) into one
    relation; with `with_placement` the fragments are a third value."""
    if requester not in net.graph.adj:
        raise EngineError(f"requester {requester} is not a node")
    ordered = tuple(order) if order is not None else tuple(variables)
    if len(set(ordered)) != len(ordered) or set(ordered) != set(variables):
        raise EngineError(
            f"variable order {ordered!r} does not match free variables "
            f"{tuple(variables)!r}"
        )
    results, metrics = simnet.run(
        net,
        make_engine(ordered),
        init={requester: query},
        order_seed=order_seed,
        round_cap=round_cap,
    )
    placement = {
        a: frozenset(fragment(a, rep)) for a, rep in results.items()
    }
    rel = Relation(len(ordered), frozenset().union(*placement.values()))
    if with_placement:
        return rel, metrics, placement
    return rel, metrics


def run_qe_fo(
    net: Network,
    formula: Union[Formula, str],
    requester: int,
    *,
    order: Optional[Sequence[str]] = None,
    order_seed: int = 0,
    round_cap: Optional[int] = None,
    with_placement: bool = False,
):
    """Evaluate a first-order query distributively; the relation is the
    union of the per-node held fragments (arity 0 encodes a Boolean result:
    {()} for true, {} for false).  With `with_placement` the per-node
    fragments are returned as a third value."""
    f = parse_formula(formula) if isinstance(formula, str) else formula
    if net.mode.kind != "global":
        raise EngineError(
            "the first-order query engine needs globally unique node ids"
        )
    _validate_query(f, net)
    delta = net.graph.diameter
    budget = clock_value(max(1, stats(f).w), max(1, delta))
    return _run_from_requester(
        net,
        FOQueryEngine,
        f,
        requester,
        free_vars(f),
        order,
        order_seed=order_seed,
        round_cap=round_cap if round_cap is not None else budget + delta + 8,
        with_placement=with_placement,
        fragment=lambda a, rep: rep.tuples,
    )
