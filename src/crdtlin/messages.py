"""The message vocabulary shared by every transport.

A query's ``Prepare`` and its ``Ack`` carry the attempt number of the
prepare, counted per request from 1, so a proposer can tell an ack of its
live attempt from one of an attempt it has moved past.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crdt import CausalTag, QueryCommand, SemilatticeValue, UpdateOp


# ----------------------------------------------------------- replica to replica


@dataclass(frozen=True, slots=True)
class Merge:
    sender: int
    request_id: bytes
    state: SemilatticeValue


@dataclass(frozen=True, slots=True)
class Merged:
    sender: int
    request_id: bytes


@dataclass(frozen=True, slots=True)
class Prepare:
    sender: int
    request_id: bytes
    attempt: int
    state: SemilatticeValue


@dataclass(frozen=True, slots=True)
class Ack:
    sender: int
    request_id: bytes
    attempt: int  # the answered prepare's
    state: SemilatticeValue


# ----------------------------------------------------------- client to replica
# not frozen: each is built once per operation and never shared, and frozen costs 2-3x to build


@dataclass(slots=True)
class Request:
    sender: int
    request_id: bytes
    command: UpdateOp | QueryCommand  # its type says update or query


@dataclass(slots=True)
class Reply:
    """A replica's answer to one client request, as ``Replica.step`` returns
    it and the daemon sends it. It does not repeat the operation's kind; the
    client already holds the request it answers. ``tag`` is an update's
    causal tag, kept on a failure whose payload already merged locally (the
    tag may still surface); ``result`` answers an ok query, and
    ``learned_frontier`` is the frontier of the state it learned, all the
    offline checker needs of that state (the daemon sends it only when
    ``instrument`` is on); ``reason`` says why an op failed."""

    sender: int
    request_id: bytes
    ok: bool
    tag: CausalTag | None = None
    result: object = None
    learned_frontier: tuple[int, ...] | None = None
    round_trips: int = 0
    retries: int = 0
    reason: str | None = None


ReplicaMessage = Merge | Merged | Prepare | Ack
ClientMessage = Request | Reply
Message = ReplicaMessage | ClientMessage
