"""Builders shared by the tests: history records, sets, a payload's tags,
a one-shot stand-in replica and the raw reply frames it sends."""

import socket
import struct
import threading

from crdtlin.crdt import GSet, QueryCommand, UpdateOp
from crdtlin.history import OpRecord
from crdtlin.messages import Reply
from crdtlin.wire import encode, try_decode


def gset(*elements: bytes, frontier: tuple[int, ...] = (0,)) -> GSet:
    return GSet(frozenset(elements), frontier)


def tags(state) -> tuple:
    """Every tag folded into a payload, expanded from its frontier, in sorted order."""
    return tuple((r, k) for r, top in enumerate(state.frontier, 1) for k in range(1, top + 1))


def answer_once(frame) -> tuple[int, threading.Thread]:
    """A one-shot replica on a free port: it reads one request and sends
    back the bytes ``frame(request_id)``. Returns the port and its thread."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        with listener, listener.accept()[0] as conn:
            buf = bytearray()
            while (decoded := try_decode(buf)) is None:
                buf += conn.recv(65536)
            conn.sendall(frame(decoded[0].request_id))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname()[1], thread


def reply_learning_bytes(request_id: bytes, blob: bytes) -> bytes:
    """An ok query reply frame whose learned-state slot holds ``blob`` as it is."""
    head = encode(Reply(1, request_id, True, None, 3, None, 1, 0))[4:-5]  # up to the state slot
    payload = head + struct.pack(">I", len(blob)) + blob + b"\x00"  # the slot, then no reason
    return struct.pack(">I", len(payload)) + payload


def make_update(op_id, inv, resp, tag, outcome="ok", client=0):
    return OpRecord(
        op_id=op_id, client=client, replica=1, kind="update",
        op=UpdateOp.increment(), invoke_t=inv, tag=tag,
        response_t=resp, outcome=outcome,
    )


def make_query(op_id, inv, resp, frontier, outcome="ok", client=0):
    return OpRecord(
        op_id=op_id, client=client, replica=1, kind="query",
        op=QueryCommand.counter_value(), invoke_t=inv, response_t=resp,
        outcome=outcome, learned_frontier=frontier,
    )
