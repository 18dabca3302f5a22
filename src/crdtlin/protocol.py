"""Proposer and acceptor handlers for quorum-replicated CRDT state.

Every replica runs both roles. Its acceptor is its payload,
``Replica.state``, which only grows, and every peer message first passes
one gate, ``Replica._admit``. Updates apply at the proposer's own payload
and spread through a single merge round; a query broadcasts a prepare. One
handler answers a merge and a prepare alike: it folds the payload in and
answers with a ``Merged``, or with an ``Ack`` carrying the merged state. As
soon as a quorum of the live attempt's acks hold one frontier, and so one
state, the query learns it. When the attempt's first quorum disagrees
(updates raced the prepare), the proposer sends nothing and asks for a
back-off timer; it keeps counting the attempt's acks meanwhile, and folds
every ack into everything gathered so far. If no agreeing quorum forms
before the timer fires, it prepares again with that least upper bound. A
lost prepare or ack retries the same way when the loss timer fires. Once
writes quiesce, a retry carrying everything gathered ends the query.

Learning from any agreeing quorum is safe. Each ack is its acceptor's
payload right after it merged the prepare, and payloads only grow; two
quorums share an acceptor, so any two learned states are ordered. An update
that finished before the query began sits at a merge quorum, which meets
the agreeing one, so the learned state holds it. A duplicate set add moves
a frontier but no element, so its ack disagrees with one that lacks it:
that costs rounds, never safety. Traffic that repeats elements takes the
rounds that unique elements take (README, "File formats").

Handlers are pure state machines: no I/O, no clocks, no randomness. The
same ``Replica`` runs under the simulator and the networked service, and
both drive it through :class:`Runtime`, which states once how a step's
timers, messages and replies are routed and how long a timer waits.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Collection, Iterable

from .crdt import (
    CausalTag,
    CommandError,
    SemilatticeValue,
    ShapeError,
    UpdateOp,
    apply_query,
    apply_update,
)
from .messages import Ack, Merge, Merged, Prepare, ReplicaMessage, Reply, Request

_REQ_ID = struct.Struct(">QQ")


class ProtocolError(Exception):
    """Misuse of the protocol layer (not a peer misbehaving)."""


class PayloadRejected(Exception):
    """A peer's payload claims updates this replica never issued.

    Raised by :meth:`Replica.step` before any state changes; the runtime
    drops the message.
    """


@dataclass(frozen=True, slots=True)
class ProtocolConfig:
    n_replicas: int
    batching: bool = False
    max_retries: int | None = 50


# ------------------------------------------------------------------ events
#
# Per-step records are plain slotted dataclasses: a runtime builds several
# for every operation and never shares them, and a frozen one costs about
# three times as much to build.


@dataclass(slots=True)
class TimerFire:
    request_id: bytes


@dataclass(slots=True)
class RequestRetry:
    """Reported when a request starts another round; kinds: incremental,
    merge-resend."""

    request_id: bytes
    kind: str


@dataclass(slots=True)
class StepOutput:
    sends: list[tuple[int, ReplicaMessage]] = field(default_factory=list)  # (destination, message)
    replies: list[tuple[bytes, Reply]] = field(default_factory=list)  # (proposer request id, reply)
    timers: list[tuple[bytes, int | None]] = field(default_factory=list)  # (request id, back-off)
    retries: list[RequestRetry] = field(default_factory=list)


class Runtime:
    """The one way to drive a :class:`Replica`, which the simulator and the
    daemon inherit. :meth:`route` steps the replica, then applies its
    timers, sends and replies, in that order. A request has one timer:
    arming it again cancels the one before, and the request's end cancels
    the last. A timer's back-off is None for the loss timer, which waits
    ``timeout``; back-off ``r``, a query's retries so far as it waits to
    prepare again after a disagreeing quorum, waits ``(r + 2) * round_trip``.
    A runtime supplies those two, a ``timers`` dict (request id -> handle)
    and four hooks: ``send(src, dst, msg)``, which delivers a message to
    ``src`` itself back through ``route``, reliably and in order;
    ``answer(request_id, reply)``; ``schedule(rid, delay, request_id)``,
    which returns a handle and steps replica ``rid`` with
    ``TimerFire(request_id)`` after ``delay``; and ``unschedule(handle)``.
    """

    def route(self, replica: Replica, event) -> StepOutput:
        out = replica.step(event)
        for request_id, backoff in out.timers:
            self.cancel(request_id)
            delay = self.timeout if backoff is None else (backoff + 2) * self.round_trip
            self.timers[request_id] = self.schedule(replica.rid, delay, request_id)
        for dst, msg in out.sends:
            self.send(replica.rid, dst, msg)
        for request_id, reply in out.replies:
            self.answer(request_id, reply)
            if request_id not in replica.requests:  # a batch answers a rejected op early
                self.cancel(request_id)
        return out

    def cancel(self, request_id: bytes) -> None:
        if (handle := self.timers.pop(request_id, None)) is not None:
            self.unschedule(handle)


# ------------------------------------------------------------------ proposer


@dataclass(slots=True)
class ProposerRequest:
    """One in-flight protocol run, serving one or more client operations."""

    request_id: bytes
    kind: str  # "update" | "query"
    ops: list[tuple[bytes, object]]  # (client request id, an update's tag or the query command)
    attempt: int = 1  # number of the live prepare
    backing_off: bool = False  # a query whose live attempt's first quorum disagreed
    acks: dict[int, SemilatticeValue] = field(default_factory=dict)  # of the live prepare
    merged: set[int] = field(default_factory=set)
    gathered: SemilatticeValue | None = None  # LUB of every payload seen so far
    merge_state: SemilatticeValue | None = None
    retries: int = 0
    round_trips: int = 0


class Replica:
    """Protocol state machine for one replica: acceptor plus proposer.

    Feed it events through :meth:`step`; it answers with messages to send,
    client replies, and timers to arm, which a :class:`Runtime` routes.
    Handlers never block and never talk to a clock.
    """

    def __init__(self, rid: int, config: ProtocolConfig, initial: SemilatticeValue):
        if not 1 <= rid <= config.n_replicas:
            raise ProtocolError(f"replica id {rid} outside 1..{config.n_replicas}")
        self.rid = rid
        self.config = config
        self.state = initial  # the acceptor: this replica's payload
        self.requests: dict[bytes, ProposerRequest] = {}
        self._request_counter = 0
        self._update_seq = 0
        # by request kind: ops waiting for the next batch, and the batch in flight
        self._pending: dict[str, list[tuple[bytes, object]]] = {"update": [], "query": []}
        self._inflight: dict[str, bytes | None] = {"update": None, "query": None}
        # one handler per event type; every peer message passes _admit first
        self._handlers = {
            Request: self._submit,
            TimerFire: self.on_timeout,
            Merge: self._accept,
            Prepare: self._accept,
            Merged: self.on_merged,
            Ack: self.on_ack,
        }

    # -- identity helpers

    def is_quorum(self, ids: Collection[int]) -> bool:
        """True for more than half the replicas; two such sets of ids always intersect."""
        return len(ids) > self.config.n_replicas // 2

    def _new_request_id(self) -> bytes:
        self._request_counter += 1
        return _REQ_ID.pack(self.rid, self._request_counter)

    def _peers(self) -> Iterable[int]:
        return (r for r in range(1, self.config.n_replicas + 1) if r != self.rid)

    def _broadcast(self, msg: ReplicaMessage, out: StepOutput) -> None:
        # one message object for every destination, so a runtime can encode it once
        out.sends.extend((dst, msg) for dst in range(1, self.config.n_replicas + 1))

    # -- event entry point

    def step(self, event) -> StepOutput:
        handler = self._handlers.get(type(event))
        if handler is None:
            raise ProtocolError(f"unknown event {event!r}")
        out = StepOutput()
        handler(event, out)
        return out

    def _admit(self, m) -> bool:
        """The gate every peer message passes first. False drops a sender
        outside the cluster; a forged or misshapen payload raises."""
        if not 1 <= m.sender <= self.config.n_replicas:
            return False
        if type(m) is Merged:
            return True
        if len(frontier := m.state.frontier) != self.config.n_replicas:
            raise ShapeError(
                f"frontier of width {len(frontier)} in a {self.config.n_replicas}-replica cluster"
            )
        # only this replica issues its own tags, so a claim beyond its
        # sequence is forged; taking it in would put every later local
        # update out of sequence
        claimed = frontier[self.rid - 1]
        if claimed > self._update_seq:
            raise PayloadRejected(
                f"{type(m).__name__} from replica {m.sender} holds {claimed} updates "
                f"of replica {self.rid}, which has issued {self._update_seq}"
            )
        return True

    # -- acceptor

    def _accept(self, m: Merge | Prepare, out: StepOutput) -> None:
        """Fold a merge's or a prepare's payload in and answer it."""
        if not self._admit(m):
            return
        self.state = self.state.merge(m.state)
        if type(m) is Merge:
            reply = Merged(self.rid, m.request_id)
        else:
            reply = Ack(self.rid, m.request_id, m.attempt, self.state)
        out.sends.append((m.sender, reply))

    # -- client operations and batching

    def _submit(self, event: Request, out: StepOutput) -> None:
        kind = "update" if type(event.command) is UpdateOp else "query"
        self._pending[kind].append((event.request_id, event.command))
        if self._inflight[kind] is None:
            self._flush(kind, out)

    def _flush(self, kind: str, out: StepOutput) -> None:
        items = self._pending[kind]
        if not items:
            return
        self._pending[kind] = []
        req = (self._start_update if kind == "update" else self._start_query)(items, out)
        # without batching each op runs alone; a single-replica cluster
        # completes its update before the request could be in flight
        if self.config.batching and req is not None and req.request_id in self.requests:
            self._inflight[kind] = req.request_id

    def _start_update(self, items, out: StepOutput) -> ProposerRequest | None:
        request_id = self._new_request_id()
        tagged: list[tuple[bytes, CausalTag]] = []
        for client_request_id, op in items:
            tag = (self.rid, self._update_seq + 1)
            try:
                self.state = apply_update(op, tag, self.state)
            except CommandError as exc:
                reply = Reply(self.rid, client_request_id, False, reason=str(exc))
                out.replies.append((request_id, reply))
                continue
            # taken once the op applies: a rejected op leaves no gap in the tags
            self._update_seq += 1
            tagged.append((client_request_id, tag))
        if not tagged:
            return None
        req = ProposerRequest(
            request_id=request_id,
            kind="update",
            ops=tagged,
            merged={self.rid},
            merge_state=self.state,
            round_trips=1,
        )
        self.requests[request_id] = req
        merge = Merge(self.rid, request_id, req.merge_state)
        out.sends.extend((peer, merge) for peer in self._peers())
        self._arm_timer(req, out)
        self._check_merge_quorum(req, out)
        return req

    def _start_query(self, items, out: StepOutput) -> ProposerRequest:
        request_id = self._new_request_id()
        payload = self.state  # start from the local payload, not bottom
        req = ProposerRequest(
            request_id=request_id,
            kind="query",
            ops=items,
            gathered=payload,
            round_trips=1,
        )
        self.requests[request_id] = req
        self._broadcast(Prepare(self.rid, request_id, req.attempt, payload), out)
        self._arm_timer(req, out)
        return req

    # -- proposer message handlers

    def on_merged(self, m: Merged, out: StepOutput) -> None:
        if not self._admit(m):
            return
        req = self.requests.get(m.request_id)
        if req is None or req.kind != "update":
            return
        req.merged.add(m.sender)
        self._check_merge_quorum(req, out)

    def _check_merge_quorum(self, req: ProposerRequest, out: StepOutput) -> None:
        if not self.is_quorum(req.merged):
            return
        for client_request_id, tag in req.ops:
            self._reply(req, client_request_id, True, out, tag=tag)
        self._finish(req, out)

    def on_ack(self, m: Ack, out: StepOutput) -> None:
        if not self._admit(m):
            return
        req = self.requests.get(m.request_id)
        if req is None or req.kind != "query":
            return
        req.gathered = req.gathered.merge(m.state)
        if m.attempt != req.attempt or m.sender in req.acks:
            return  # an earlier attempt's ack, or a repeat: keep only the payload
        req.acks[m.sender] = m.state
        if not self.is_quorum(req.acks.keys()):
            return
        # only the newcomer can complete an agreeing quorum that was not
        # there before, so look at the acks of its frontier alone, which
        # hold its very state; acks that arrive while backing off count too
        frontier = m.state.frontier
        agreeing = [r for r, s in req.acks.items() if s.frontier == frontier]
        if self.is_quorum(agreeing):
            self._complete_query(req, m.state, out)
        elif not req.backing_off:
            # the first quorum disagrees, as updates raced the prepare: wait
            # for them to spread, then prepare again with everything gathered
            req.backing_off = True
            self._arm_timer(req, out, backoff=req.retries)

    def on_timeout(self, event: TimerFire, out: StepOutput) -> None:
        request_id = event.request_id
        req = self.requests.get(request_id)
        if req is None:
            return
        if req.kind == "update":
            req.retries += 1
            if self._retries_exhausted(req, out):
                return
            req.round_trips += 1
            out.retries.append(RequestRetry(req.request_id, "merge-resend"))
            merge = Merge(self.rid, request_id, req.merge_state)
            out.sends.extend((peer, merge) for peer in self._peers() if peer not in req.merged)
            self._arm_timer(req, out)
        else:
            self._retry_incremental(req, out)

    def _retry_incremental(self, req: ProposerRequest, out: StepOutput) -> None:
        req.retries += 1
        if self._retries_exhausted(req, out):
            return
        req.backing_off = False
        req.attempt += 1
        req.acks = {}
        req.round_trips += 1
        out.retries.append(RequestRetry(req.request_id, "incremental"))
        self._broadcast(Prepare(self.rid, req.request_id, req.attempt, req.gathered), out)
        self._arm_timer(req, out)

    def _retries_exhausted(self, req: ProposerRequest, out: StepOutput) -> bool:
        limit = self.config.max_retries
        if limit is None or req.retries <= limit:
            return False
        for client_request_id, entry in req.ops:
            # a failed update may still take effect: its payload already merged
            # into the local payload, so surface the tentative tag
            tag = entry if req.kind == "update" else None
            self._reply(req, client_request_id, False, out, reason="max-retries", tag=tag)
        self._finish(req, out)
        return True

    def _complete_query(self, req: ProposerRequest, learned: SemilatticeValue, out: StepOutput) -> None:
        for client_request_id, query in req.ops:
            try:
                result = apply_query(query, learned)
            except CommandError as exc:
                self._reply(req, client_request_id, False, out, reason=str(exc))
                continue
            self._reply(
                req, client_request_id, True, out, result=result, learned_frontier=learned.frontier
            )
        self._finish(req, out)

    def _finish(self, req: ProposerRequest, out: StepOutput) -> None:
        del self.requests[req.request_id]
        if self._inflight[req.kind] == req.request_id:
            self._inflight[req.kind] = None
            self._flush(req.kind, out)

    def _arm_timer(self, req: ProposerRequest, out: StepOutput, backoff: int | None = None) -> None:
        out.timers.append((req.request_id, backoff))

    def _reply(self, req: ProposerRequest, request_id: bytes, ok: bool, out: StepOutput, **fields):
        """Answer ``req``'s op with client request id ``request_id``, at the cost so far."""
        reply = Reply(
            self.rid, request_id, ok, round_trips=req.round_trips, retries=req.retries, **fields
        )
        out.replies.append((req.request_id, reply))
