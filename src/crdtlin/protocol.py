"""Proposer and acceptor handlers for quorum-replicated CRDT state.

Every replica runs both roles. Updates apply at the proposer's co-located
acceptor and spread through a single merge round; queries learn a state
through incremental prepares, either directly when a quorum answers with
equivalent payloads or through one vote round when the quorum agrees on a
round. Rejected or timed-out queries retry with an incremental prepare
carrying the least upper bound of every payload received so far, which
bounds retries once writes quiesce.

Handlers are pure state machines: no I/O, no clocks, no randomness. The
same ``Replica`` runs under the simulator and the networked service; the
runtime routes outbound messages, delivers timer expiries, and decides what
a timer's duration means.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable

from .crdt import (
    CausalTag,
    CausalTaggedState,
    CommandError,
    QueryCommand,
    SemilatticeValue,
    ShapeError,
    UpdateCommand,
    UpdateOp,
    apply_query,
    apply_update,
)
from .messages import (
    BOTTOM_ID,
    BOTTOM_NR,
    Ack,
    Merge,
    Merged,
    Nack,
    Prepare,
    ReplicaMessage,
    Round,
    RoundId,
    Vote,
    Voted,
    incremental_round,
)

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


@dataclass(frozen=True, slots=True)
class ClientUpdate:
    op: UpdateOp
    client: object
    token: object


@dataclass(frozen=True, slots=True)
class ClientQuery:
    query: QueryCommand
    client: object
    token: object


@dataclass(frozen=True, slots=True)
class TimerFire:
    request_id: bytes
    generation: int


@dataclass(frozen=True, slots=True)
class ClientReply:
    client: object
    token: object
    kind: str  # "update" | "query"
    ok: bool
    request_id: bytes
    result: object = None
    tag: CausalTag | None = None
    learned: SemilatticeValue | None = None
    round_trips: int = 0
    retries: int = 0
    reason: str | None = None


@dataclass(frozen=True, slots=True)
class TimerRequest:
    """(Re)arm the per-request timer; the runtime chooses the duration."""

    request_id: bytes
    generation: int


@dataclass(frozen=True, slots=True)
class RequestRetry:
    """Reported when a request starts another round; kinds: incremental,
    fixed, merge-resend."""

    request_id: bytes
    kind: str


@dataclass(slots=True)
class StepOutput:
    sends: list[tuple[int, ReplicaMessage]] = field(default_factory=list)
    replies: list[ClientReply] = field(default_factory=list)
    timers: list[TimerRequest] = field(default_factory=list)
    retries: list[RequestRetry] = field(default_factory=list)


# ------------------------------------------------------------------ acceptor


class Acceptor:
    """Round-tracking holder of the replica's CRDT payload.

    The payload only ever grows: updates inflate it, merges fold remote
    payloads in. Applying an update or a merge blanks the round id so that
    votes prepared before the change can no longer succeed.
    """

    __slots__ = ("rid", "round", "state")

    def __init__(self, rid: int, initial: SemilatticeValue):
        self.rid = rid
        self.round = Round(0, BOTTOM_ID)
        self.state = initial

    def apply_update(self, cmd: UpdateCommand) -> SemilatticeValue:
        self.state = apply_update(cmd, self.state)
        self.round = Round(self.round.nr, BOTTOM_ID)
        return self.state

    def on_merge(self, m: Merge) -> Merged:
        self.state = self.state.merge(m.state)
        self.round = Round(self.round.nr, BOTTOM_ID)
        return Merged(sender=self.rid, request_id=m.request_id)

    def on_prepare(self, m: Prepare) -> Ack | Nack:
        self.state = self.state.merge(m.state)
        r = m.round
        if r.nr == BOTTOM_NR:
            # incremental prepare: one past whatever this acceptor has seen
            r = Round(self.round.nr + 1, r.rid)
        if r.nr > self.round.nr:
            self.round = r
            return Ack(self.rid, m.request_id, self.round, self.state)
        return Nack(self.rid, m.request_id, self.round, self.state, reject_id=m.round.rid)

    def on_vote(self, m: Vote) -> Voted | Nack:
        # merge first: even a refused vote's payload must not be lost
        self.state = self.state.merge(m.state)
        if m.round == self.round:
            return Voted(self.rid, m.request_id, m.round)
        return Nack(self.rid, m.request_id, self.round, self.state, reject_id=m.round.rid)


# ------------------------------------------------------------------ proposer


@dataclass(slots=True)
class ProposerRequest:
    """One in-flight protocol run, serving one or more client operations."""

    request_id: bytes
    kind: str  # "update" | "query"
    ops: list[tuple[object, object, object]]  # (client, token, command)
    phase: str  # "merging" | "preparing" | "voting"
    round: Round = Round(BOTTOM_NR, BOTTOM_ID)  # its id names the live prepare/vote attempt
    acks: dict[int, tuple[Round, SemilatticeValue]] = field(default_factory=dict)
    merged: set[int] = field(default_factory=set)
    voted: set[int] = field(default_factory=set)
    proposed: SemilatticeValue | None = None  # set exactly while phase == "voting"
    gathered: SemilatticeValue | None = None  # LUB of every payload seen so far
    merge_state: SemilatticeValue | None = None
    retries: int = 0
    round_trips: int = 0
    timer_generation: int = 0


class Replica:
    """Protocol state machine for one replica: acceptor plus proposer.

    Feed it events through :meth:`step`; it answers with messages to send,
    client replies, and timer requests. Messages addressed to the replica's
    own id must be delivered back through ``step`` by the runtime (reliably,
    it is a local hop). Handlers never block and never talk to a clock.
    """

    def __init__(self, rid: int, config: ProtocolConfig, initial: SemilatticeValue):
        if not 1 <= rid <= config.n_replicas:
            raise ProtocolError(f"replica id {rid} outside 1..{config.n_replicas}")
        self.rid = rid
        self.config = config
        self.acceptor = Acceptor(rid, initial)
        self.requests: dict[bytes, ProposerRequest] = {}
        self._round_counter = 0
        self._request_counter = 0
        self._update_seq = 0
        # by request kind: ops waiting for the next batch, and the batch in flight
        self._pending: dict[str, list[tuple[object, object, object]]] = {"update": [], "query": []}
        self._inflight: dict[str, bytes | None] = {"update": None, "query": None}
        # one handler per event type; peer payloads pass _admit before any state changes
        self._handlers = {
            ClientUpdate: self._submit,
            ClientQuery: self._submit,
            TimerFire: self.on_timeout,
            Merge: self._on_acceptor_message,
            Prepare: self._on_acceptor_message,
            Vote: self._on_acceptor_message,
            Merged: self.on_merged,
            Ack: self.on_ack,
            Voted: self.on_voted,
            Nack: self.on_nack,
        }

    # -- identity helpers

    def is_quorum(self, ids: AbstractSet[int]) -> bool:
        """True for more than half the replicas; two such sets always intersect."""
        return len(ids) > self.config.n_replicas // 2

    def new_round_id(self) -> RoundId:
        self._round_counter += 1
        return (self._round_counter, self.rid)

    def _new_request_id(self) -> bytes:
        self._request_counter += 1
        return _REQ_ID.pack(self.rid, self._request_counter)

    def _next_tag(self) -> CausalTag:
        # consumed by _start_update only once the update applies, so a
        # rejected command leaves no gap in this replica's tag sequence
        return (self.rid, self._update_seq + 1)

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

    def _admit(self, m) -> None:
        state = m.state
        if not isinstance(state, CausalTaggedState):
            return  # a mismatched shape raises ShapeError in the merge itself
        if len(state.frontier) != self.config.n_replicas:
            raise ShapeError(
                f"frontier of width {len(state.frontier)} in a {self.config.n_replicas}-replica cluster"
            )
        # only this replica issues its own tags, so a claim beyond its
        # sequence is forged; taking it in would put every later local
        # update out of sequence
        claimed = state.frontier[self.rid - 1]
        if claimed > self._update_seq:
            raise PayloadRejected(
                f"{type(m).__name__} from replica {m.sender} holds {claimed} updates "
                f"of replica {self.rid}, which has issued {self._update_seq}"
            )

    def _on_acceptor_message(self, m, out: StepOutput) -> None:
        self._admit(m)
        if not 1 <= m.sender <= self.config.n_replicas:
            return
        if isinstance(m, Merge):
            reply = self.acceptor.on_merge(m)
        elif isinstance(m, Prepare):
            reply = self.acceptor.on_prepare(m)
        else:
            reply = self.acceptor.on_vote(m)
        out.sends.append((m.sender, reply))

    # -- client operations and batching

    def _submit(self, event: ClientUpdate | ClientQuery, out: StepOutput) -> None:
        if type(event) is ClientUpdate:
            kind, item = "update", (event.client, event.token, event.op)
        else:
            kind, item = "query", (event.client, event.token, event.query)
        self._pending[kind].append(item)
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
        bound: list[tuple[object, object, UpdateCommand]] = []
        for client, token, op in items:
            try:
                cmd = self._bind_update(op)
                self.acceptor.apply_update(cmd)
            except CommandError as exc:
                out.replies.append(
                    ClientReply(
                        client=client, token=token, kind="update", ok=False,
                        request_id=request_id, reason=str(exc),
                    )
                )
                continue
            self._update_seq += 1
            bound.append((client, token, cmd))
        if not bound:
            return None
        req = ProposerRequest(
            request_id=request_id,
            kind="update",
            ops=bound,
            phase="merging",
            merged={self.rid},
            merge_state=self.acceptor.state,
            round_trips=1,
        )
        self.requests[request_id] = req
        merge = Merge(self.rid, request_id, req.merge_state)
        out.sends.extend((peer, merge) for peer in self._peers())
        self._arm_timer(req, out)
        self._check_merge_quorum(req, out)
        return req

    def _bind_update(self, op: UpdateOp) -> UpdateCommand:
        if op.kind == "increment":
            return UpdateCommand.increment(self.rid - 1, self._next_tag())
        if op.kind == "set_add":
            if op.element is None:
                raise CommandError("set_add without an element")
            return UpdateCommand.set_add(op.element, self._next_tag())
        raise CommandError(f"unknown update kind {op.kind!r}")

    def _start_query(self, items, out: StepOutput) -> ProposerRequest:
        request_id = self._new_request_id()
        payload = self.acceptor.state  # start from the local payload, not bottom
        req = ProposerRequest(
            request_id=request_id,
            kind="query",
            ops=items,
            phase="preparing",
            round=incremental_round(self.new_round_id()),
            gathered=payload,
            round_trips=1,
        )
        self.requests[request_id] = req
        self._broadcast(Prepare(self.rid, request_id, req.round, payload), out)
        self._arm_timer(req, out)
        return req

    # -- proposer message handlers

    def on_merged(self, m: Merged, out: StepOutput) -> None:
        req = self.requests.get(m.request_id)
        if req is None or req.kind != "update" or req.phase != "merging":
            return
        if not 1 <= m.sender <= self.config.n_replicas:
            return
        req.merged.add(m.sender)
        self._check_merge_quorum(req, out)

    def _check_merge_quorum(self, req: ProposerRequest, out: StepOutput) -> None:
        if not self.is_quorum(req.merged):
            return
        for client, token, cmd in req.ops:
            out.replies.append(_reply(req, client, token, True, tag=cmd.tag))
        self._finish(req, out)

    def on_ack(self, m: Ack, out: StepOutput) -> None:
        self._admit(m)
        req = self.requests.get(m.request_id)
        if req is None or req.kind != "query" or req.phase != "preparing":
            return
        if not 1 <= m.sender <= self.config.n_replicas:
            return
        req.gathered = req.gathered.merge(m.state)
        if m.round.rid != req.round.rid:
            return  # an earlier attempt's ack: keep the payload, not the vote
        if m.sender not in req.acks:
            req.acks[m.sender] = (m.round, m.state)
        if not self.is_quorum(req.acks.keys()):
            return
        entries = sorted(req.acks.items())  # stable across runs
        states = [s for _, (_, s) in entries]
        rounds = [r for _, (r, _) in entries]
        lub = states[0]
        for s in states[1:]:
            lub = lub.merge(s)
        if all(lub.compare(s) for s in states):
            # equivalent payloads: the quorum already agrees on this state
            self._complete_query(req, lub, out)
        elif all(r == rounds[0] for r in rounds[1:]):
            # same round everywhere: ask the quorum to adopt the LUB
            req.phase = "voting"
            req.proposed = lub
            req.round = rounds[0]
            req.voted = set()
            req.round_trips += 1
            self._broadcast(Vote(self.rid, req.request_id, req.round, lub), out)
            self._arm_timer(req, out)
        else:
            # mixed rounds: outbid them all with a fixed prepare
            nr = max(r.nr for r in rounds) + 1
            req.round = Round(nr, self.new_round_id())
            req.acks = {}
            req.retries += 1
            req.round_trips += 1
            out.retries.append(RequestRetry(req.request_id, "fixed"))
            if self._retries_exhausted(req, out):
                return
            self._broadcast(Prepare(self.rid, req.request_id, req.round, lub), out)
            self._arm_timer(req, out)

    def on_voted(self, m: Voted, out: StepOutput) -> None:
        req = self.requests.get(m.request_id)
        if req is None or req.kind != "query" or req.phase != "voting":
            return
        if m.round != req.round:
            return  # vote for an abandoned round
        if not 1 <= m.sender <= self.config.n_replicas:
            return
        req.voted.add(m.sender)
        if self.is_quorum(req.voted):
            self._complete_query(req, req.proposed, out)

    def on_nack(self, m: Nack, out: StepOutput) -> None:
        self._admit(m)
        req = self.requests.get(m.request_id)
        if req is None or req.kind != "query":
            return
        if not 1 <= m.sender <= self.config.n_replicas:
            return
        req.gathered = req.gathered.merge(m.state)
        if m.reject_id != req.round.rid:
            return  # refusal of an attempt already superseded
        self._retry_incremental(req, out)

    def on_timeout(self, event: TimerFire, out: StepOutput) -> None:
        request_id = event.request_id
        req = self.requests.get(request_id)
        if req is None or event.generation != req.timer_generation:
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
        req.phase = "preparing"
        req.round = incremental_round(self.new_round_id())
        req.acks = {}
        req.proposed = None
        req.round_trips += 1
        out.retries.append(RequestRetry(req.request_id, "incremental"))
        self._broadcast(Prepare(self.rid, req.request_id, req.round, req.gathered), out)
        self._arm_timer(req, out)

    def _retries_exhausted(self, req: ProposerRequest, out: StepOutput) -> bool:
        limit = self.config.max_retries
        if limit is None or req.retries <= limit:
            return False
        for client, token, cmd in req.ops:
            # a failed update may still take effect: its payload already merged
            # into the local acceptor, so surface the tentative tag
            tag = cmd.tag if req.kind == "update" else None
            out.replies.append(_reply(req, client, token, False, reason="max-retries", tag=tag))
        self._finish(req, out)
        return True

    def _complete_query(self, req: ProposerRequest, learned: SemilatticeValue, out: StepOutput) -> None:
        for client, token, query in req.ops:
            try:
                result = apply_query(query, learned)
            except CommandError as exc:
                out.replies.append(_reply(req, client, token, False, reason=str(exc)))
                continue
            out.replies.append(_reply(req, client, token, True, result=result, learned=learned))
        self._finish(req, out)

    def _finish(self, req: ProposerRequest, out: StepOutput) -> None:
        del self.requests[req.request_id]
        if self._inflight[req.kind] == req.request_id:
            self._inflight[req.kind] = None
            self._flush(req.kind, out)

    def _arm_timer(self, req: ProposerRequest, out: StepOutput) -> None:
        req.timer_generation += 1
        out.timers.append(TimerRequest(req.request_id, req.timer_generation))


def _reply(req: ProposerRequest, client, token, ok: bool, **fields) -> ClientReply:
    """A reply to one of ``req``'s ops, carrying the request's cost so far."""
    return ClientReply(
        client=client, token=token, kind=req.kind, ok=ok, request_id=req.request_id,
        round_trips=req.round_trips, retries=req.retries, **fields,
    )
