"""Distributed evaluation of inflationary fixpoint queries.

The computation alternates globally synchronized windows driven by the shared
round counter:

* Query flood: the requester broadcasts the printed fixpoint query with a
  hop budget of one less than the diameter; every node relays it once while
  the budget lasts, so by round ``1 + delta`` every node holds the query.
* Evaluation window (one per iteration): every node starts a fresh
  first-order core for the query body with its own id substituted for the
  last declared variable, the remaining variables resolved by the usual
  open-query machinery.  Atoms over the relation being computed are decided
  by the node named in their first argument, against the table committed in
  earlier iterations.  Positive tuples collect in the core until the window
  closes, then move into the committed table all at once, so every node
  switches stages in the same round.
* Inform window: a node that committed new tuples floods a small notice
  (relayed at most once per node per iteration).  At the end of the window
  each node continues to the next iteration if it committed new tuples or
  heard a notice, and halts otherwise; because notices reach every node
  within the window, all nodes make the same choice.

The committed tables grow exactly like the centralized stages: the union of
the per-node tables after iteration ``i`` equals stage ``i+1`` of the
centralized inflationary evaluation.
"""
from __future__ import annotations

from typing import Any, Optional, Sequence, Union

from .engine_fo import (
    FOCore,
    QueryTable,
    _BroadcastEngine,
    _admit_global,
    _run_from_requester,
    fo_payload_bits,
)
from .logic import (
    FixpointQuery,
    parse_fixpoint,
    print_fixpoint,
    stats,
    substitute,
)
from .simnet import EncodingParams, Network, NodeContext


def evaluation_window(w: int, v: int, delta: int) -> int:
    """Length of one per-iteration evaluation window.  The clock budget
    ``2*delta*w`` covers it whenever the query has at least two
    variables-or-constants; the second term is the exact deadline horizon of
    the embedded first-order evaluation and keeps degenerate queries sound.
    """
    return max(2 * delta * w, 1 + (v + 1) * delta)


def _iteration_start(delta: int, window: int, i: int) -> int:
    """The round in which iteration i's evaluation window opens: after the
    query flood, each iteration takes one window and one inform flood."""
    return (1 + delta) + i * (window + delta)


def _fp_send_order(p: tuple) -> tuple:
    """An FPQ or I payload's place in a round's sends: query floods by
    text, then informs by iteration."""
    if p[0] == "FPQ":
        return (0, 0, "", p[1])
    return (1, p[1], "", "")


class FPCore:
    """One node's share of the distributed fixpoint evaluation.  It keeps
    the committed table, not its past: after iteration i (`_commit`) the
    union over nodes of `committed` is stage i+1 of the centralized
    evaluation."""

    def __init__(
        self,
        self_id: int,
        neighbors: frozenset[int],
        self_unary: frozenset[str],
        delta: int,
        queries: QueryTable,
    ):
        self.self_id = self_id
        self.neighbors = frozenset(neighbors)
        self.self_unary = frozenset(self_unary)
        self.delta = delta
        self.queries = queries  # handed to every iteration's FOCore
        self.query: Optional[FixpointQuery] = None
        self.window = 0  # evaluation window length, set with the query
        self.done = False  # set when an iteration ends with nothing new
        self.it = -1  # index of the current iteration, -1 before the first
        self.core: Optional[FOCore] = None
        self.committed: set[tuple[int, ...]] = set()
        self.new_local = False
        self.inform_heard = False
        self.out: list[tuple] = []
        self.work = 0

    # -- schedule (absolute rounds, identical on every node)

    def _start_round(self, i: int) -> int:
        return _iteration_start(self.delta, self.window, i)

    # -- query adoption

    def adopt(self, q: FixpointQuery) -> None:
        if self.query is not None:
            return
        st = stats(q)
        self.query = q
        self.window = evaluation_window(max(1, st.w), st.v, self.delta)
        self.work += 1

    def seed(self, q: FixpointQuery) -> None:
        """Requester entry point: adopt the query and start its flood."""
        text = print_fixpoint(q)
        self.adopt(parse_fixpoint(text))
        if self.delta >= 1:
            self.out.append(("FPQ", text, self.delta - 1))

    # -- iteration bookkeeping

    def _begin_iteration(self, i: int) -> None:
        q = self.query
        assert q is not None
        if self.core is not None:
            self.work += self.core.work
        self.it = i
        self.inform_heard = False
        self.core = FOCore(
            self_id=self.self_id,
            neighbors=self.neighbors,
            self_unary=self.self_unary,
            delta=self.delta,
            order=q.vars,
            queries=self.queries,
            table=(q.name, frozenset(self.committed)),
            round_offset=self._start_round(i) - 1,
        )
        self.core.inject_query(
            substitute(q.body, q.vars[-1], self.self_id), (self.self_id,)
        )

    def _commit(self) -> None:
        assert self.core is not None
        fresh = self.core.fragment() - self.committed
        self.committed |= fresh
        self.new_local = bool(fresh)
        self.work += 1
        if fresh and self.delta >= 1:
            self.out.append(("I", self.it, self.delta - 1))

    # -- round interface

    def ingest(self, payloads: Sequence[tuple]) -> None:
        floods: list[tuple[int, str]] = []  # (hops, text) of each FPQ copy
        inform_hops = -1
        inner: list[tuple] = []
        for p in payloads:
            if p[0] == "FPQ":
                floods.append((p[2], p[1]))
            elif p[0] == "I":
                if p[1] == self.it:
                    inform_hops = max(inform_hops, p[2])
            elif p[0] == "F":
                if p[1] == self.it:
                    inner.append(p[2])
        if floods and self.query is None:
            # Like an inform, the query flood goes on with the largest hop
            # count among the round's copies, whatever their order.
            hops, text = max(floods)
            self.adopt(parse_fixpoint(text))
            if hops > 0:
                self.out.append(("FPQ", text, hops - 1))
        if inform_hops >= 0 and not self.inform_heard:
            self.inform_heard = True
            self.work += 1
            if inform_hops > 0:
                self.out.append(("I", self.it, inform_hops - 1))
        if inner and self.core is not None:
            self.core.ingest(inner)

    def advance(self, round_no: int) -> None:
        """Run the scheduled actions for this round: finish the current
        evaluation window, commit, and decide whether to continue."""
        if self.query is None or self.done:
            return
        if self.core is not None:
            self.core.advance(round_no)
            if round_no == self._start_round(self.it) + self.window:
                self._commit()
        nxt = self.it + 1
        if round_no == self._start_round(nxt):
            if nxt > 0 and not (self.new_local or self.inform_heard):
                self.work += self.core.work if self.core is not None else 0
                self.core = None
                self.done = True
                self.out = []
                return
            self._begin_iteration(nxt)
            self.core.advance(round_no)

    def flush(self) -> list[tuple]:
        """The round's FPQ and I payloads in `_fp_send_order`, then the
        core's, all of one iteration, as `FOCore.flush` orders them."""
        out = sorted(self.out, key=_fp_send_order)
        self.out = []
        if self.core is not None:
            out.extend(("F", self.it, p) for p in self.core.flush())
        return out

    def idle(self, round_no: int) -> bool:
        return self.done

    def total_work(self) -> int:
        return self.work + (self.core.work if self.core is not None else 0)

    def fragment(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.committed)


# ------------------------------------------------------------ simnet engine


class FPQueryEngine(_BroadcastEngine):
    """One FPCore per node; the requester is seeded with the query, everyone
    else learns it from the flood."""

    def __init__(self) -> None:
        self.queries = QueryTable()

    def _core(self, *args: Any) -> FPCore:
        return FPCore(*args, queries=self.queries)

    def inject(self, state: FPCore, ctx: NodeContext, payload: Any) -> None:
        state.seed(payload)

    def payload_bits(self, payload: Any, enc: EncodingParams) -> int:
        if payload[0] == "FPQ":
            return enc.tag_bits + enc.text_bits(payload[1]) + enc.counter_bits
        if payload[0] == "I":
            return enc.tag_bits + 2 * enc.counter_bits
        return enc.tag_bits + enc.counter_bits + fo_payload_bits(payload[2], enc)


# -------------------------------------------------------------- entry point


def default_fp_round_cap(net: Network, q: FixpointQuery) -> int:
    st = stats(q)
    delta = net.graph.diameter
    window = evaluation_window(max(1, st.w), st.v, delta)
    horizon = net.graph.n**q.arity + 2
    return _iteration_start(delta, window, horizon) + window + delta + 8


def run_qe_fp(
    net: Network,
    query: Union[FixpointQuery, str],
    requester: int,
    *,
    order_seed: int = 0,  # unread: bench/workloads.py passes it (ROADMAP item 2)
    round_cap: Optional[int] = None,
    with_placement: bool = False,
):
    """Evaluate an inflationary fixpoint query distributively; the relation
    is the union of the per-node committed fragments, its columns the
    declared variables in order.  With `with_placement` the per-node
    fragments are returned as a third value."""
    q = parse_fixpoint(query) if isinstance(query, str) else query
    _admit_global(net, q)
    return _run_from_requester(
        net,
        FPQueryEngine(),
        q,
        requester,
        q.arity,
        round_cap=(
            round_cap if round_cap is not None else default_fp_round_cap(net, q)
        ),
        with_placement=with_placement,
        fragment=lambda a, rows: rows,
    )
