"""Builders shared by the tests: history records, reachable sets, a
payload's tags, a one-shot stand-in replica and the raw reply frames it
sends."""

import random
import socket
import struct
import threading

from crdtlin.crdt import GSet, QueryCommand, UpdateOp, apply_update
from crdtlin.history import OpRecord
from crdtlin.messages import Reply
from crdtlin.wire import encode, try_decode


def gset(*adds: list[bytes]) -> GSet:
    """The set of a cluster of ``len(adds)`` replicas once each has seen
    every add: replica ``r`` added the elements ``adds[r - 1]`` in order,
    under its tags ``(r, 1), (r, 2), ...``, so the frontier matches the
    elements."""
    state = GSet.empty(len(adds))
    for origin, elements in enumerate(adds, 1):
        for seq, element in enumerate(elements, 1):
            state = apply_update(UpdateOp.set_add(element), (origin, seq), state)
    return state


def reachable_sets(rng: random.Random, width: int, steps: int) -> list[GSet]:
    """Every payload a seeded run of ``width`` set replicas passes through.

    The run starts from empty payloads. At each of ``steps`` steps one
    replica either adds an element of a four-letter alphabet under its own
    next tag, so adds repeat, or joins another replica's payload in. Joins
    are built by the lattice definition (union of elements, pointwise-max
    frontier), not by the ``merge`` under test. Each tag names one element
    across the run, so any payloads it returns are states of one cluster.
    """
    parts = [GSet.empty(width) for _ in range(width)]
    seen = [parts[0]]
    for _ in range(steps):
        r = rng.randrange(width)
        if rng.random() < 0.4:
            a, b = parts[r], parts[rng.randrange(width)]
            parts[r] = GSet(a.elements | b.elements, tuple(map(max, a.frontier, b.frontier)))
        else:
            element = bytes([rng.randrange(4)])
            tag = (r + 1, parts[r].frontier[r] + 1)
            parts[r] = apply_update(UpdateOp.set_add(element), tag, parts[r])
        seen.append(parts[r])
    return seen


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


def reply_with_frontier_slot(request_id: bytes, slot: bytes) -> bytes:
    """An ok set-query reply frame whose learned-frontier slot is ``slot`` as it is."""
    head = encode(Reply(1, request_id, True, None, (b"x",)))[4:-5]  # up to the frontier slot
    payload = head + slot + b"\x00"  # the slot, then no reason
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
