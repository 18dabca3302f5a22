"""Binary framing for the TCP transport.

Every frame is a 4-byte big-endian length (counting everything after
itself) followed by a fixed header and a type-specific body:

    u8   message type
    16B  request id
    u32  sender (0 for clients)
    i64  round number (-1 is the incremental marker)
    u64  round id counter, u64 round id process ((0, 0) is bottom)
    ...  body

Messages that carry no round write the bottom round, and decoding insists
on it: any other filler means a corrupt or foreign frame. Replicated states
travel in their canonical byte form inside a length-prefixed slot (length
zero means absent). Decoding is strict end to end; anything malformed
raises FrameError, never an arbitrary struct or index error.
"""

from __future__ import annotations

import struct

from .crdt import QueryCommand, SemilatticeValue, state_from_bytes
from .messages import (
    BOTTOM_ID,
    BOTTOM_NR,
    ROUND_BOTTOM,
    Ack,
    Failed,
    Merge,
    Merged,
    Message,
    Nack,
    Prepare,
    Query,
    QueryDone,
    Round,
    Update,
    UpdateDone,
    UpdateOp,
    Vote,
    Voted,
)

__all__ = ["MAX_FRAME", "FrameError", "encode", "decode_payload", "try_decode"]

MAX_FRAME = 16 * 1024 * 1024  # total frame size cap, length prefix included

_TYPES: dict[type, int] = {
    Update: 1,
    UpdateDone: 2,
    Query: 3,
    QueryDone: 4,
    Merge: 5,
    Merged: 6,
    Prepare: 7,
    Ack: 8,
    Vote: 9,
    Voted: 10,
    Nack: 11,
    Failed: 12,
}

_OP_KINDS = {"increment": b"i", "set_add": b"a"}
_OP_KINDS_BACK = {v: k for k, v in _OP_KINDS.items()}
_QUERY_KINDS = {"counter_value": b"v", "set_contains": b"c", "set_elements": b"e"}
_QUERY_KINDS_BACK = {v: k for k, v in _QUERY_KINDS.items()}
_FAIL_KINDS = {"update": b"u", "query": b"q"}
_FAIL_KINDS_BACK = {v: k for k, v in _FAIL_KINDS.items()}


class FrameError(Exception):
    """The byte stream does not hold a well-formed frame."""


# ------------------------------------------------------------------- encode


def _state_slot(state: SemilatticeValue | None) -> bytes:
    if state is None:
        return struct.pack(">I", 0)
    blob = state.canonical_bytes()
    return struct.pack(">I", len(blob)) + blob


def _bytes_slot(data: bytes | None) -> bytes:
    if data is None:
        return b"\x00"
    return b"\x01" + struct.pack(">I", len(data)) + data


def _str_slot(text: str) -> bytes:
    blob = text.encode("utf-8")
    return struct.pack(">I", len(blob)) + blob


def _tag_slot(tag) -> bytes:
    if tag is None:
        return b"\x00"
    return b"\x01" + struct.pack(">QQ", tag[0], tag[1])


def _result_slot(result) -> bytes:
    if result is None:
        return b"N"
    if isinstance(result, bool):  # before int: bool is an int subclass
        return b"B" + (b"\x01" if result else b"\x00")
    if isinstance(result, int):
        return b"I" + struct.pack(">q", result)
    if isinstance(result, (tuple, list)):
        parts = [b"L", struct.pack(">I", len(result))]
        for element in result:
            parts.append(struct.pack(">I", len(element)) + element)
        return b"".join(parts)
    raise FrameError(f"result {result!r} has no wire form")


def _op_slot(op: UpdateOp) -> bytes:
    kind = _OP_KINDS.get(op.kind)
    if kind is None:
        raise FrameError(f"update op kind {op.kind!r} has no wire form")
    return kind + _bytes_slot(op.element)


def _query_slot(query: QueryCommand) -> bytes:
    kind = _QUERY_KINDS.get(query.kind)
    if kind is None:
        raise FrameError(f"query kind {query.kind!r} has no wire form")
    return kind + _bytes_slot(query.element)


def _body(msg: Message) -> bytes:
    match msg:
        case Update():
            return _op_slot(msg.op)
        case UpdateDone():
            return struct.pack(">QQII", msg.tag[0], msg.tag[1], msg.round_trips, msg.retries)
        case Query():
            return _query_slot(msg.query)
        case QueryDone():
            return (
                struct.pack(">II", msg.round_trips, msg.retries)
                + _result_slot(msg.result)
                + _state_slot(msg.learned)
            )
        case Merge() | Prepare() | Ack() | Vote():
            return _state_slot(msg.state)
        case Merged() | Voted():
            return b""
        case Nack():
            return struct.pack(">QQ", msg.reject_id[0], msg.reject_id[1]) + _state_slot(msg.state)
        case Failed():
            kind = _FAIL_KINDS.get(msg.kind)
            if kind is None:
                raise FrameError(f"failure kind {msg.kind!r} has no wire form")
            return kind + _str_slot(msg.reason) + _tag_slot(msg.tag)
    raise FrameError(f"{type(msg).__name__} has no wire form")


def encode(msg: Message) -> bytes:
    mtype = _TYPES.get(type(msg))
    if mtype is None:
        raise FrameError(f"{type(msg).__name__} has no wire form")
    if len(msg.request_id) != 16:
        raise FrameError(f"request id must be 16 bytes, got {len(msg.request_id)}")
    rnd = getattr(msg, "round", ROUND_BOTTOM)
    payload = (
        struct.pack(">B16sIqQQ", mtype, msg.request_id, msg.sender, rnd.nr, *rnd.rid)
        + _body(msg)
    )
    if 4 + len(payload) > MAX_FRAME:
        raise FrameError(f"frame of {4 + len(payload)} bytes exceeds the {MAX_FRAME} cap")
    return struct.pack(">I", len(payload)) + payload


# ------------------------------------------------------------------- decode


class _Reader:
    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise FrameError("frame ends mid-field")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise FrameError(f"{len(self.buf) - self.pos} trailing bytes after the body")


def _read_state(r: _Reader) -> SemilatticeValue | None:
    (n,) = r.unpack(">I")
    if n == 0:
        return None
    blob = r.take(n)
    try:
        return state_from_bytes(blob)
    except Exception as exc:
        raise FrameError(f"state slot does not decode: {exc}") from exc


def _require_state(r: _Reader, mtype: int) -> SemilatticeValue:
    state = _read_state(r)
    if state is None:
        raise FrameError(f"message type {mtype} requires a state payload")
    return state


def _read_bytes_slot(r: _Reader) -> bytes | None:
    (present,) = r.unpack(">B")
    if present == 0:
        return None
    if present != 1:
        raise FrameError(f"bad presence byte {present}")
    (n,) = r.unpack(">I")
    return r.take(n)


def _read_result(r: _Reader):
    lead = r.take(1)
    if lead == b"N":
        return None
    if lead == b"B":
        (flag,) = r.unpack(">B")
        if flag > 1:
            raise FrameError(f"bad boolean byte {flag}")
        return flag == 1
    if lead == b"I":
        (value,) = r.unpack(">q")
        return value
    if lead == b"L":
        (count,) = r.unpack(">I")
        elements = []
        for _ in range(count):
            (n,) = r.unpack(">I")
            elements.append(r.take(n))
        return tuple(elements)
    raise FrameError(f"unknown result lead byte {lead!r}")


def _read_tag(r: _Reader):
    (present,) = r.unpack(">B")
    if present == 0:
        return None
    if present != 1:
        raise FrameError(f"bad presence byte {present}")
    return tuple(r.unpack(">QQ"))


def decode_payload(payload: bytes) -> Message:
    r = _Reader(payload)
    mtype, request_id, sender, nr, rid_counter, rid_process = r.unpack(">B16sIqQQ")
    if nr < BOTTOM_NR:
        raise FrameError(f"round number {nr} below bottom")
    rnd = Round(nr, (rid_counter, rid_process))

    def plain_round() -> None:
        if rnd != ROUND_BOTTOM:
            raise FrameError(f"message type {mtype} must carry the bottom round")

    msg: Message
    if mtype == 1:
        plain_round()
        kind = _OP_KINDS_BACK.get(r.take(1))
        if kind is None:
            raise FrameError("unknown update op kind")
        msg = Update(sender, request_id, UpdateOp(kind, _read_bytes_slot(r)))
    elif mtype == 2:
        plain_round()
        tag_p, tag_c, round_trips, retries = r.unpack(">QQII")
        msg = UpdateDone(sender, request_id, (tag_p, tag_c), round_trips, retries)
    elif mtype == 3:
        plain_round()
        kind = _QUERY_KINDS_BACK.get(r.take(1))
        if kind is None:
            raise FrameError("unknown query kind")
        msg = Query(sender, request_id, QueryCommand(kind, _read_bytes_slot(r)))
    elif mtype == 4:
        plain_round()
        round_trips, retries = r.unpack(">II")
        result = _read_result(r)
        msg = QueryDone(sender, request_id, result, _read_state(r), round_trips, retries)
    elif mtype == 5:
        plain_round()
        msg = Merge(sender, request_id, _require_state(r, mtype))
    elif mtype == 6:
        plain_round()
        msg = Merged(sender, request_id)
    elif mtype == 7:
        msg = Prepare(sender, request_id, rnd, _require_state(r, mtype))
    elif mtype == 8:
        msg = Ack(sender, request_id, rnd, _require_state(r, mtype))
    elif mtype == 9:
        msg = Vote(sender, request_id, rnd, _require_state(r, mtype))
    elif mtype == 10:
        msg = Voted(sender, request_id, rnd)
    elif mtype == 11:
        reject = tuple(r.unpack(">QQ"))
        msg = Nack(sender, request_id, rnd, _require_state(r, mtype), reject)
    elif mtype == 12:
        plain_round()
        kind = _FAIL_KINDS_BACK.get(r.take(1))
        if kind is None:
            raise FrameError("unknown failure kind")
        (n,) = r.unpack(">I")
        try:
            reason = r.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameError("failure reason is not valid UTF-8") from exc
        msg = Failed(sender, request_id, kind, reason, _read_tag(r))
    else:
        raise FrameError(f"unknown message type {mtype}")
    r.done()
    return msg


def try_decode(buffer: bytes | bytearray) -> tuple[Message, int] | None:
    """Decode one frame from the front of ``buffer`` if fully present.

    Returns the message and the byte count consumed, or None when more
    data is needed. Raises FrameError on a malformed or oversized frame.
    """
    if len(buffer) < 4:
        return None
    (length,) = struct.unpack_from(">I", buffer)
    if length + 4 > MAX_FRAME:
        raise FrameError(f"declared frame of {length + 4} bytes exceeds the {MAX_FRAME} cap")
    if len(buffer) < 4 + length:
        return None
    # one copy of the payload, whether the buffer is bytes or a bytearray
    return decode_payload(bytes(memoryview(buffer)[4 : 4 + length])), 4 + length
