"""Binary framing for the TCP transport.

Every frame is a 4-byte big-endian length (counting everything after
itself) followed by a fixed header and a type-specific body:

    u8   message type
    16B  request id
    u32  sender (0 for clients)
    ...  body

Every list on the wire has one of two layouts, each written and read by
``crdt``: a u64 list (u32 count, then u64s) and an element list (u32
count, then each element's u32 length and bytes). A replicated state
travels in its canonical form (a counter is "C" and its slots' u64 list;
a set is "S", its element list, then its frontier's u64 list) inside a
state slot, a u32 length and then the form, which is never empty. Between
replicas, Merge (type 5) is one state slot and Merged (type 6) has no
body; Prepare (type 7) and Ack (type 8) are a u32 attempt number and then
a state slot. Decoding is strict end to end; anything malformed raises
FrameError, never an arbitrary struct or index error.

Clients send every operation as one Request (type 1): a command kind
byte, then the command's element (presence byte, then u32 length and the
bytes). The kind byte names the command's class as well: updates are "i"
increment and "a" set_add, queries "v" counter_value, "c" set_contains and
"e" set_elements. Only "a" and "c" carry an element, by
``crdt.make_command``'s rule, on encode and decode alike. Every answer, ok
or failed, update or query, is one Reply (type 2); it does not repeat the
kind, which the client's request already says:

    u8   ok (0 or 1)
    u32  round trips, u32 retries
    ...  tag (presence byte, then u64 replica, u64 counter)
    ...  result (lead byte N, B, I or L, then its value; L's is an element list)
    ...  learned frontier (a u64 list, width 0 for none; never the state)
    ...  reason (presence byte, then u32 length and UTF-8 text)

Types 3, 4, 9, 10, 11 and 12 are retired and decode as unknown, like any
other number.
"""

from __future__ import annotations

import struct

from .crdt import CrdtError, QueryCommand, SemilatticeValue, UpdateOp, make_command
from .crdt import pack_elements, pack_u64s, read_elements, read_u64s, state_from_bytes
from .messages import Ack, Merge, Merged, Message, Prepare, Reply, Request

__all__ = ["MAX_FRAME", "FrameError", "encode", "decode_payload", "try_decode"]

MAX_FRAME = 16 * 1024 * 1024  # total frame size cap, length prefix included

# wire type numbers; the gaps are retired numbers
_TYPES: dict[type, int] = {Request: 1, Reply: 2, Merge: 5, Merged: 6, Prepare: 7, Ack: 8}
_BY_NUMBER = {number: cls for cls, number in _TYPES.items()}

# one byte per command kind; the kind names the command's class as well
_KIND_BYTES = {
    "increment": b"i",
    "set_add": b"a",
    "counter_value": b"v",
    "set_contains": b"c",
    "set_elements": b"e",
}
_KINDS_BY_BYTE = {byte[0]: kind for kind, byte in _KIND_BYTES.items()}

_HEADER = struct.Struct(">B16sI")
_PREFIXED_HEADER = struct.Struct(">IB16sI")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_II = struct.Struct(">II")
_QQ = struct.Struct(">QQ")


class FrameError(Exception):
    """The byte stream does not hold a well-formed frame."""


# ------------------------------------------------------------------- encode


def _state_slot(state: SemilatticeValue) -> bytes:
    blob = state.canonical_bytes()
    return _U32.pack(len(blob)) + blob


def _bytes_slot(data: bytes | None) -> bytes:
    if data is None:
        return b"\x00"
    return b"\x01" + _U32.pack(len(data)) + data


def _tag_slot(tag) -> bytes:
    if tag is None:
        return b"\x00"
    return b"\x01" + _QQ.pack(tag[0], tag[1])


def _result_slot(result) -> bytes:
    if result is None:
        return b"N"
    if isinstance(result, bool):  # before int: bool is an int subclass
        return b"B" + (b"\x01" if result else b"\x00")
    if isinstance(result, int):
        if not -(2**63) <= result < 2**63:
            raise FrameError(f"result {result} does not fit an i64")
        return b"I" + _I64.pack(result)
    if isinstance(result, (tuple, list)):
        return b"L" + pack_elements(result)
    raise FrameError(f"result {result!r} has no wire form")


def _command_slot(command: UpdateOp | QueryCommand) -> bytes:
    if type(make_command(command.kind, command.element)) is not type(command):
        raise FrameError(f"{type(command).__name__} kind {command.kind!r} has no wire form")
    return _KIND_BYTES[command.kind] + _bytes_slot(command.element)


def _body(msg: Message) -> bytes:
    match msg:  # peer messages first: they are most of the traffic
        case Prepare() | Ack():
            return _U32.pack(msg.attempt) + _state_slot(msg.state)
        case Merge():
            return _state_slot(msg.state)
        case Merged():
            return b""
        case Request():
            return _command_slot(msg.command)
        case Reply():
            reason = None if msg.reason is None else msg.reason.encode("utf-8")
            return (
                (b"\x01" if msg.ok else b"\x00")
                + _II.pack(msg.round_trips, msg.retries)
                + _tag_slot(msg.tag)
                + _result_slot(msg.result)
                + pack_u64s(msg.learned_frontier or ())
                + _bytes_slot(reason)
            )
    raise FrameError(f"{type(msg).__name__} has no wire form")


def encode(msg: Message) -> bytes:
    mtype = _TYPES.get(type(msg))
    if mtype is None:
        raise FrameError(f"{type(msg).__name__} has no wire form")
    if len(msg.request_id) != 16:
        raise FrameError(f"request id must be 16 bytes, got {len(msg.request_id)}")
    try:
        body = _body(msg)
    except CrdtError as exc:  # a command that breaks the element rule
        raise FrameError(str(exc)) from exc
    length = _HEADER.size + len(body)
    if 4 + length > MAX_FRAME:
        raise FrameError(f"frame of {4 + length} bytes exceeds the {MAX_FRAME} cap")
    return _PREFIXED_HEADER.pack(length, mtype, msg.request_id, msg.sender) + body


# ------------------------------------------------------------------- decode
#
# Each reader takes the payload and an offset and returns what it read with
# the offset past it. Fixed-width fields rely on ``unpack_from`` refusing a
# short buffer; every declared length is checked against the payload first.


def _read_state(p: bytes, pos: int, mtype: int) -> tuple[SemilatticeValue, int]:
    (n,) = _U32.unpack_from(p, pos)
    pos += 4
    if n == 0:
        raise FrameError(f"message type {mtype} requires a state payload")
    end = pos + n
    if end > len(p):
        raise FrameError("frame ends mid-field")
    return state_from_bytes(p, pos, end), end


def _read_flag(p: bytes, pos: int, what: str) -> bool:
    flag = p[pos]
    if flag > 1:
        raise FrameError(f"bad {what} byte {flag}")
    return flag == 1


def _read_bytes_slot(p: bytes, pos: int) -> tuple[bytes | None, int]:
    if not _read_flag(p, pos, "presence"):
        return None, pos + 1
    end = pos + 5 + _U32.unpack_from(p, pos + 1)[0]
    if end > len(p):
        raise FrameError("frame ends mid-field")
    return p[pos + 5 : end], end


def _read_result(p: bytes, pos: int):
    if pos >= len(p):
        raise FrameError("frame ends mid-field")
    lead = p[pos : pos + 1]
    pos += 1
    if lead == b"N":
        return None, pos
    if lead == b"B":
        return _read_flag(p, pos, "boolean"), pos + 1
    if lead == b"I":
        return _I64.unpack_from(p, pos)[0], pos + 8
    if lead == b"L":
        return read_elements(p, pos, len(p))
    raise FrameError(f"unknown result lead byte {lead!r}")


def _read_tag(p: bytes, pos: int):
    if not _read_flag(p, pos, "presence"):
        return None, pos + 1
    return _QQ.unpack_from(p, pos + 1), pos + 17


def decode_payload(payload: bytes) -> Message:
    try:
        msg, pos = _decode(payload)
    except (struct.error, IndexError) as exc:
        raise FrameError("frame ends mid-field") from exc
    except CrdtError as exc:  # a state, a list or a command that does not decode
        raise FrameError(f"frame does not decode: {exc}") from exc
    if pos != len(payload):
        raise FrameError(f"{len(payload) - pos} trailing bytes after the body")
    return msg


def _decode(p: bytes) -> tuple[Message, int]:
    mtype, request_id, sender = _HEADER.unpack_from(p)
    if mtype not in _BY_NUMBER:
        raise FrameError(f"unknown message type {mtype}")
    pos = _HEADER.size
    if mtype == 7 or mtype == 8:
        (attempt,) = _U32.unpack_from(p, pos)
        state, pos = _read_state(p, pos + 4, mtype)
        return _BY_NUMBER[mtype](sender, request_id, attempt, state), pos  # Prepare, Ack
    if mtype == 5:
        state, pos = _read_state(p, pos, mtype)
        return Merge(sender, request_id, state), pos
    if mtype == 6:
        return Merged(sender, request_id), pos
    if mtype == 1:
        kind = _KINDS_BY_BYTE.get(p[pos])
        if kind is None:
            raise FrameError("unknown command kind")
        element, pos = _read_bytes_slot(p, pos + 1)
        return Request(sender, request_id, make_command(kind, element)), pos
    ok = _read_flag(p, pos, "ok")
    round_trips, retries = _II.unpack_from(p, pos + 1)
    tag, pos = _read_tag(p, pos + 9)
    result, pos = _read_result(p, pos)
    learned_frontier, pos = read_u64s(p, pos, len(p))
    reason, pos = _read_bytes_slot(p, pos)
    if reason is not None:
        try:
            reason = reason.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameError("reply reason is not valid UTF-8") from exc
    return Reply(
        sender, request_id, ok, tag, result, learned_frontier or None, round_trips, retries, reason
    ), pos


def try_decode(buffer: bytes | bytearray) -> tuple[Message, int] | None:
    """Decode one frame from the front of ``buffer`` if fully present.

    Returns the message and the byte count consumed, or None when more
    data is needed. Raises FrameError on a malformed or oversized frame.
    """
    if len(buffer) < 4:
        return None
    (length,) = _U32.unpack_from(buffer)
    if length + 4 > MAX_FRAME:
        raise FrameError(f"declared frame of {length + 4} bytes exceeds the {MAX_FRAME} cap")
    if len(buffer) < 4 + length:
        return None
    # one copy of the payload, whether the buffer is bytes or a bytearray
    return decode_payload(bytes(memoryview(buffer)[4 : 4 + length])), 4 + length
