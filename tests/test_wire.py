"""Frame codec: exact round trips for every message shape, and strictness
against truncated, oversized, and random-garbage input."""

import random
import struct
import tracemalloc
from dataclasses import replace

import pytest

from crdtlin.crdt import GCounter, GSet, QueryCommand
from crdtlin.messages import Ack, Merge, Merged, Prepare, Reply, Request, UpdateOp
from crdtlin.protocol import ProtocolConfig, Replica
from crdtlin.wire import MAX_FRAME, FrameError, decode_payload, encode, try_decode

RID = bytes(range(16))
STATE = GCounter((3, 0, 7))
PLAIN = GCounter((1, 2, 3))
SET_STATE = GSet(frozenset({b"", b"alpha", b"\x00\xff"}), (1, 0, 2))

SAMPLES = [
    Request(0, RID, UpdateOp.increment()),
    Request(0, RID, UpdateOp.set_add(b"")),
    Request(0, RID, UpdateOp.set_add(b"payload \xf0\x9f")),
    Reply(2, RID, True, (2, 41), round_trips=1),
    Request(0, RID, QueryCommand.counter_value()),
    Request(0, RID, QueryCommand.set_contains(b"x")),
    Request(0, RID, QueryCommand.set_elements()),
    Reply(1, RID, True, None, 42, STATE.frontier, 3, 1),
    Reply(1, RID, True, None, None, None, 1, 0),
    Reply(1, RID, True, None, True, None, 1, 0),
    Reply(1, RID, True, None, False, SET_STATE.frontier, 2, 0),
    Reply(1, RID, True, None, (b"", b"two"), SET_STATE.frontier, 1, 0),
    Merge(3, RID, PLAIN),
    Merge(3, RID, STATE),
    Merged(2, RID),
    Prepare(1, RID, 1, PLAIN),
    Prepare(1, RID, 7, STATE),
    Ack(2, RID, 0, PLAIN),
    Ack(2, RID, 0xFFFFFFFF, SET_STATE),
    Reply(1, RID, False, round_trips=52, retries=51, reason="max-retries"),
    Reply(1, RID, False, (2, 9), round_trips=4, retries=3, reason="max-retries"),
    Reply(1, RID, False, None, reason="ожидание истекло"),
    Reply(1, RID, True, None, 2**63 - 1, None, 1, 0),  # the ends of a result's i64
    Reply(1, RID, True, None, -(2**63), None, 1, 0),
]


def _sample_id(msg) -> str:
    """A Request is named for its command, a Reply for the outcome it
    carries (only an ok update's has a tag), any other message for its type."""
    if isinstance(msg, Request):
        return "Update" if isinstance(msg.command, UpdateOp) else "Query"
    if isinstance(msg, Reply):
        return "Failed" if not msg.ok else "UpdateDone" if msg.tag is not None else "QueryDone"
    return type(msg).__name__


@pytest.mark.parametrize("msg", SAMPLES, ids=_sample_id)
def test_round_trip(msg):
    frame = encode(msg)
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    assert decode_payload(frame[4:]) == msg
    decoded, consumed = try_decode(frame + b"extra")
    assert decoded == msg
    assert consumed == len(frame)


def test_booleans_survive_the_int_overlap():
    # bool is an int subclass; make sure True does not come back as 1
    frame = encode(Reply(1, RID, True, result=True))
    assert decode_payload(frame[4:]).result is True
    frame = encode(Reply(1, RID, True, result=1))
    result = decode_payload(frame[4:]).result
    assert result == 1 and not isinstance(result, bool)


@pytest.mark.parametrize("result", [2**63, -(2**63) - 1])
def test_an_int_result_outside_i64_is_a_frame_error(result):
    with pytest.raises(FrameError, match="i64"):
        encode(Reply(1, RID, True, result=result))


# commands that break the element rule: an element exactly where none is taken
_MISMATCHED_COMMANDS = [
    UpdateOp("increment", b"x"),
    UpdateOp("set_add", None),
    QueryCommand("counter_value", b""),
    QueryCommand("set_contains", None),
    QueryCommand("set_elements", b"x"),
]


@pytest.mark.parametrize("command", _MISMATCHED_COMMANDS, ids=lambda c: c.kind)
def test_a_command_breaking_the_element_rule_is_a_frame_error_both_ways(command):
    with pytest.raises(FrameError, match="element"):
        encode(Request(0, RID, command))
    # the same frame, laid out by hand: the header and kind byte of a valid
    # command of that kind, then the mismatched element slot
    valid = type(command)(command.kind, b"x" if command.element is None else None)
    head = encode(Request(0, RID, valid))[4:26]
    element = b"\x00" if command.element is None else b"\x01" + struct.pack(">I", 1) + b"x"
    with pytest.raises(FrameError, match="element"):
        decode_payload(head + element)


@pytest.mark.parametrize(
    "command", [UpdateOp.increment(), QueryCommand.counter_value(), QueryCommand.set_elements()],
    ids=lambda c: c.kind,
)
def test_a_decoded_element_less_command_is_the_shared_one(command):
    assert decode_payload(encode(Request(0, RID, command))[4:]).command is command


def test_try_decode_waits_for_a_full_frame():
    frame = encode(Merge(1, RID, STATE))
    for cut in range(len(frame)):
        assert try_decode(frame[:cut]) is None
    assert try_decode(frame) is not None


def test_every_truncated_payload_is_rejected():
    for msg in SAMPLES:
        payload = encode(msg)[4:]
        for cut in range(len(payload)):
            with pytest.raises(FrameError):
                decode_payload(payload[:cut])


def test_trailing_bytes_inside_the_frame_are_rejected():
    payload = encode(Merged(2, RID))[4:]
    with pytest.raises(FrameError):
        decode_payload(payload + b"\x00")


def test_oversized_declared_length_is_rejected():
    with pytest.raises(FrameError):
        try_decode(struct.pack(">I", MAX_FRAME) + b"x")


def test_oversized_state_is_rejected_at_encode():
    elements = {bytes([i % 251, i // 251 % 251, i // 63001]) + b"x" * 40 for i in range(400_000)}
    big = GSet(frozenset(elements), (1,))
    with pytest.raises(FrameError):
        encode(Merge(1, RID, big))


def test_unknown_message_type_is_rejected():
    for mtype in (99, 3, 4, 9, 10, 11, 12):  # 3, 4 and 9 to 12 are retired numbers
        payload = bytearray(encode(Merged(2, RID))[4:])
        payload[0] = mtype
        with pytest.raises(FrameError, match=f"unknown message type {mtype}"):
            decode_payload(bytes(payload))


_REPLY_BODY = 1 + 16 + 4  # where a Reply's body starts in its payload


@pytest.mark.parametrize(
    "index, value",
    [(_REPLY_BODY, 2), (_REPLY_BODY + 9, 2), (_REPLY_BODY + 9 + 17 + 1 + 4, 7), (-1, 0xFF)],
    ids=["ok", "tag-presence", "reason-presence", "reason-not-utf8"],
)
def test_reply_with_a_bad_byte_is_rejected(index, value):
    reply = Reply(1, RID, False, (2, 9), round_trips=4, retries=3, reason="max-retries")
    payload = bytearray(encode(reply)[4:])
    payload[index] = value
    with pytest.raises(FrameError):
        decode_payload(bytes(payload))


def test_wrong_request_id_length_is_rejected():
    with pytest.raises(FrameError):
        encode(Merged(2, b"short"))


def test_merge_requires_a_state_payload():
    # a peer message's state slot is always present: length 0 is no state at all
    for msg in (Merge(1, RID, PLAIN), Prepare(1, RID, 4, PLAIN), Ack(2, RID, 4, SET_STATE)):
        payload = encode(msg)[4:]
        slot = len(payload) - 4 - msg.state.canonical_size()
        with pytest.raises(FrameError, match=f"message type {payload[0]} requires a state payload"):
            decode_payload(payload[:slot] + bytes(4))


def test_a_width_0_frontier_slot_decodes_as_no_learned_frontier():
    reply = Reply(1, RID, True, None, 3, None, 1, 0)
    payload = encode(reply)[4:]
    assert payload[-5:] == bytes(4) + b"\x00"  # frontier width 0, then no reason
    assert decode_payload(payload).learned_frontier is None
    assert encode(replace(reply, learned_frontier=())) == encode(reply)


def test_a_truncated_element_list_result_names_the_element_list():
    payload = encode(Reply(1, RID, True, None, (b"alpha", b"beta"), None, 1, 0))[4:]
    # the result's last element loses its last byte, and the frontier slot after it
    with pytest.raises(FrameError, match="truncated element list"):
        decode_payload(payload[:-6])


def test_a_set_contains_reply_frame_does_not_grow_with_the_set():
    def reply_frame(size: int) -> bytes:
        # replica 1 answers a contains query once a quorum acks a set of
        # ``size`` elements that replica 2 added
        state = GSet(frozenset(b"element-%04d" % i for i in range(size)), (0, size, 0))
        r = Replica(1, ProtocolConfig(n_replicas=3), state)
        out = r.step(Request(9, RID, QueryCommand.set_contains(b"absent")))
        request_id = next(m for _, m in out.sends if isinstance(m, Prepare)).request_id
        r.step(Ack(1, request_id, 1, state))
        [(_, reply)] = r.step(Ack(2, request_id, 1, state)).replies
        assert reply.ok and reply.result is False
        assert reply.learned_frontier == (0, size, 0)
        return encode(reply)

    small, big = reply_frame(0), reply_frame(1000)
    assert len(big) == len(small) <= 100


def test_corrupt_state_bytes_are_rejected():
    payload = bytearray(encode(Merge(1, RID, PLAIN))[4:])
    payload[-1] ^= 0xFF
    payload[-9] ^= 0xFF  # stay decodable in length, break the content lead
    header_end = 1 + 16 + 4
    payload[header_end + 4] = ord("?")
    with pytest.raises(FrameError):
        decode_payload(bytes(payload))


def test_fuzzed_buffers_never_raise_anything_but_frame_errors():
    rng = random.Random(99)
    survived = 0
    for _ in range(100_000):
        blob = rng.randbytes(rng.randrange(0, 60))
        try:
            out = try_decode(blob)
        except FrameError:
            continue
        if out is not None:
            survived += 1
    # random short buffers essentially never form a valid frame
    assert survived == 0


def test_fuzzed_mutations_of_valid_frames():
    rng = random.Random(7)
    frames = [encode(m) for m in SAMPLES]
    for _ in range(20_000):
        frame = bytearray(rng.choice(frames))
        for _ in range(rng.randrange(1, 4)):
            frame[rng.randrange(len(frame))] ^= 1 << rng.randrange(8)
        try:
            try_decode(bytes(frame))
        except FrameError:
            pass  # rejection is fine; any other exception fails the test


def _random_state(rng: random.Random):
    if rng.randrange(2):
        return GCounter(tuple(rng.randrange(1 << 40) for _ in range(rng.randrange(1, 6))))
    frontier = tuple(rng.randrange(1 << 30) for _ in range(rng.randrange(1, 8)))
    return GSet(
        frozenset(rng.randbytes(rng.randrange(0, 12)) for _ in range(rng.randrange(0, 6))), frontier
    )


def test_hundred_thousand_random_valid_messages_round_trip():
    rng = random.Random(2401)
    rounds = 100_000
    for i in range(rounds):
        rid = rng.randbytes(16)
        sender = rng.randrange(0, 64)
        attempt = rng.randrange(1 << 32)
        pick = i % 9
        if pick == 0:
            msg = Request(sender, rid, UpdateOp.set_add(rng.randbytes(rng.randrange(0, 20))))
        elif pick == 1:
            msg = Reply(sender, rid, True, (rng.randrange(1, 9), rng.randrange(1, 1 << 30)),
                        round_trips=rng.randrange(1 << 16), retries=rng.randrange(1 << 10))
        elif pick == 2:
            msg = Request(sender, rid, QueryCommand.set_contains(rng.randbytes(rng.randrange(0, 9))))
        elif pick == 3:
            result = rng.choice([None, True, False, rng.randrange(-(1 << 40), 1 << 40),
                                 tuple(rng.randbytes(3) for _ in range(rng.randrange(0, 4)))])
            msg = Reply(sender, rid, True, None, result,
                        rng.choice([None, _random_state(rng).frontier]), rng.randrange(1 << 8),
                        rng.randrange(1 << 8))
        elif pick == 4:
            msg = Merge(sender, rid, _random_state(rng))
        elif pick == 5:
            msg = Merged(sender, rid)
        elif pick == 6:
            msg = Prepare(sender, rid, attempt, _random_state(rng))
        elif pick == 7:
            msg = Ack(sender, rid, attempt, _random_state(rng))
        else:
            tag = (rng.randrange(1, 9), rng.randrange(1, 1 << 20)) if rng.random() < 0.5 else None
            msg = Reply(sender, rid, False, tag,
                        round_trips=rng.randrange(1 << 8), retries=rng.randrange(1 << 8),
                        reason=rng.choice(["timeout", "max-retries", ""]))
        assert decode_payload(encode(msg)[4:]) == msg


_FRAMED_SET = GSet(frozenset({b"e1", b"e22"}), (2, 0, 1))
_HEAD = "000102030405060708090a0b0c0d0e0f"  # RID
# a state slot: u32 length, then the state's canonical form
_COUNTER_HEX = "0000001d4300000003000000000000000300000000000000000000000000000007"
_FRAMED_SET_HEX = (
    "0000002e5300000002000000026531000000036532320000000300000000000000020000000000"
    "0000000000000000000001"
)

# one frame per message type, written out field by field from the layout in
# the wire.py docstring: the wire format must not move by a byte. A Prepare,
# for one: 1 type + 16 request id + 4 sender + 4 attempt + 4 slot length +
# 29 state bytes = 58 (0x3a) after the length prefix
GOLDEN = [
    (Request(0, RID, UpdateOp.set_add(b"e7")),
     "0000001d01" + _HEAD + "00000000" + "6101000000026537"),
    (Reply(2, RID, True, (2, 41), round_trips=1),
     "0000003502" + _HEAD + "00000002"
     + "01" + "0000000100000000" + "01" + "0000000000000002" + "0000000000000029"
     + "4e" + "00000000" + "00"),
    (Request(0, RID, QueryCommand.set_contains(b"x")),
     "0000001c01" + _HEAD + "00000000" + "63010000000178"),
    (Reply(1, RID, True, None, 42, STATE.frontier, 3, 1),
     "0000004502" + _HEAD + "00000001"
     + "01" + "0000000300000001" + "00" + "49000000000000002a"
     + "00000003" + "0000000000000003" + "0000000000000000" + "0000000000000007" + "00"),
    (Merge(3, RID, _FRAMED_SET),
     "0000004705" + _HEAD + "00000003" + _FRAMED_SET_HEX),
    (Merged(2, RID), "0000001506" + _HEAD + "00000002"),
    (Prepare(1, RID, 4, STATE),
     "0000003a07" + _HEAD + "00000001" + "00000004" + _COUNTER_HEX),
    (Ack(2, RID, 12, SET_STATE),
     "0000005108" + _HEAD + "00000002" + "0000000c"
     + "000000345300000003000000000000000200ff00000005616c706861"
     + "00000003" + "0000000000000001" + "0000000000000000" + "0000000000000002"),
    (Reply(1, RID, False, (2, 9), round_trips=4, retries=3, reason="max-retries"),
     "0000004402" + _HEAD + "00000001"
     + "00" + "0000000400000003" + "01" + "0000000000000002" + "0000000000000009"
     + "4e" + "00000000" + "01" + "0000000b" + "6d61782d72657472696573"),
]


@pytest.mark.parametrize("msg,frame_hex", GOLDEN, ids=[_sample_id(m) for m, _ in GOLDEN])
def test_golden_frames(msg, frame_hex):
    frame = bytes.fromhex(frame_hex)
    assert encode(msg) == frame
    assert try_decode(frame) == (msg, len(frame))


def test_golden_frames_cover_every_message_type():
    assert len({type(msg) for msg, _ in GOLDEN}) == 6


def test_huge_declared_frontier_width_is_rejected_before_allocating():
    # 120-byte frames whose frontier claims 2**32 - 1 entries in a Merge's set
    # state and 2**31 in a Reply's frontier slot: the width is checked against
    # the bytes present, so no 16 or 32 GiB unpack
    blob = b"S" + struct.pack(">II", 0, 0xFFFFFFFF)  # no elements, then the width
    header = encode(Merged(2, RID))[5:]  # request id, sender
    merge = b"\x05" + header + struct.pack(">I", 120 - 4 - 21 - 4) + blob
    head = encode(Reply(1, RID, True, None, 3, None, 1, 0))[4:-5]  # up to the frontier slot
    reply = head + struct.pack(">I", 1 << 31)
    for payload in (merge, reply):
        payload += b"\x00" * (116 - len(payload))
        frame = struct.pack(">I", len(payload)) + payload
        assert len(frame) == 120
        tracemalloc.start()
        try:
            with pytest.raises(FrameError, match="truncated frontier"):
                try_decode(frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_back_to_back_frames_decode_in_sequence():
    stream = b"".join(encode(m) for m in SAMPLES)
    decoded = []
    view = stream
    while view:
        msg, consumed = try_decode(view)
        decoded.append(msg)
        view = view[consumed:]
    assert decoded == SAMPLES
