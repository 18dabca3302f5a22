"""Rounds and the message vocabulary shared by every transport.

A round is a pair of a round number and a round id. Ordering between rounds
compares numbers alone; two rounds are the same round only when both number
and id match. Either half can be the distinguished bottom value: a bottom
number marks an incremental prepare whose effective number each acceptor
computes locally, and a bottom id marks a round invalidated by an update
or merge (or the acceptor's initial round).
"""

from __future__ import annotations

from dataclasses import dataclass

from .crdt import CausalTag, QueryCommand, SemilatticeValue, UpdateOp

# Round ids are (per-process counter, process id). Counters start at 1 and
# process ids at 1, so (0, 0) stays reserved for bottom.
RoundId = tuple[int, int]

BOTTOM_NR = -1
BOTTOM_ID: RoundId = (0, 0)


@dataclass(frozen=True, slots=True)
class Round:
    nr: int
    rid: RoundId


ROUND_BOTTOM = Round(BOTTOM_NR, BOTTOM_ID)


def incremental_round(rid: RoundId) -> Round:
    return Round(BOTTOM_NR, rid)


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
    round: Round
    state: SemilatticeValue


@dataclass(frozen=True, slots=True)
class Ack:
    sender: int
    request_id: bytes
    round: Round
    state: SemilatticeValue


@dataclass(frozen=True, slots=True)
class Vote:
    sender: int
    request_id: bytes
    round: Round
    state: SemilatticeValue


@dataclass(frozen=True, slots=True)
class Voted:
    # No payload: the proposer kept the proposed state. The round names the
    # vote being answered so late votes from an abandoned round never count.
    sender: int
    request_id: bytes
    round: Round


@dataclass(frozen=True, slots=True)
class Nack:
    sender: int
    request_id: bytes
    round: Round  # the acceptor's current round
    state: SemilatticeValue  # the acceptor's current payload
    reject_id: RoundId  # round id of the refused prepare or vote


# ----------------------------------------------------------- client to replica


@dataclass(frozen=True, slots=True)
class Update:
    sender: int
    request_id: bytes
    op: UpdateOp


@dataclass(frozen=True, slots=True)
class Query:
    sender: int
    request_id: bytes
    query: QueryCommand


@dataclass(frozen=True, slots=True)
class Reply:
    """A replica's answer to one client request: the outcome fields of
    ``protocol.ClientReply`` under the same names. ``tag`` is an update's
    causal tag, kept on a failure whose payload already merged locally (the
    tag may still surface); ``result`` and ``learned`` answer an ok query;
    ``reason`` says why an op failed."""

    sender: int
    request_id: bytes
    kind: str  # "update" | "query"
    ok: bool
    tag: CausalTag | None = None
    result: object = None
    learned: SemilatticeValue | None = None
    round_trips: int = 0
    retries: int = 0
    reason: str | None = None


ReplicaMessage = Merge | Merged | Prepare | Ack | Vote | Voted | Nack
ClientMessage = Update | Query | Reply
Message = ReplicaMessage | ClientMessage
