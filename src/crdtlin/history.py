"""Operation histories and execution traces, and their on-disk forms.

Histories are line-delimited JSON, one operation per line; traces are
line-delimited JSON, one event per line. Both carry a schema version so
tooling can refuse files it does not understand. Byte strings (set
elements) are base64 in JSON. In memory a record's ``op`` is the
operation's own command; the file keeps it as ``{"kind", "element"}``, and
the reader maps that back through ``crdt.make_command``, so every record
of an element-less kind shares one command object again.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field, replace
from typing import IO, Iterable

from .crdt import CausalTag, CommandError, QueryCommand, UpdateOp, make_command
from .messages import Reply

SCHEMA_VERSION = 2

# json.dumps would build a new encoder for every line
_ENCODER = json.JSONEncoder(separators=(",", ":"))


class HistoryFormatError(Exception):
    """A history or trace file does not parse under this schema."""


@dataclass(slots=True)
class OpRecord:
    """One client operation: its invocation, and its response if any.

    ``outcome`` is "ok", "failed", or None while the operation is still
    pending (no response was ever observed). ``op`` is the frozen command the
    client issued, shared by every record of an element-less kind, so a
    record holds no copy of it. ``learned_frontier`` is set for
    instrumented query responses only: entry ``r - 1`` is the highest
    sequence number of replica ``r`` folded into the learned state, so the
    learned tags are ``(r, 1..frontier[r - 1])`` and a record costs
    O(replicas) however many updates came before it.
    """

    op_id: int
    client: int
    replica: int
    kind: str  # "update" | "query"
    op: UpdateOp | QueryCommand
    invoke_t: int
    tag: CausalTag | None = None
    response_t: int | None = None
    outcome: str | None = None
    result: object = None
    learned_frontier: tuple[int, ...] | None = None
    round_trips: int | None = None
    retries: int | None = None
    incremental_retry_times: tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class TraceEvent:
    t: int
    seq: int
    kind: str  # deliver | drop | duplicate | timer | crash | invoke | respond
    detail: tuple[tuple[str, object], ...] = field(default_factory=tuple)


def op_dict(cmd: UpdateOp | QueryCommand) -> dict:
    """A record's ``op`` as the file keeps it: the command's kind, and its
    element in base64 if it has one."""
    if cmd.element is None:
        return {"kind": cmd.kind}
    return {"kind": cmd.kind, "element": base64.b64encode(cmd.element).decode("ascii")}


def record_reply(rec: OpRecord, reply: Reply, response_t: int) -> None:
    """Write a replica's answer into ``rec``, in the simulator and a live client alike."""
    rec.response_t = response_t
    rec.outcome = "ok" if reply.ok else "failed"
    rec.result = reply.result
    rec.round_trips = reply.round_trips
    rec.retries = reply.retries
    if rec.kind == "update":
        rec.tag = reply.tag
    elif reply.ok:
        rec.learned_frontier = reply.learned_frontier


def _encode_result(result) -> object:
    if result is None or isinstance(result, (bool, int)):
        return result
    if isinstance(result, (tuple, list)):
        return {"elements": [base64.b64encode(e).decode("ascii") for e in result]}
    raise HistoryFormatError(f"unencodable result {result!r}")


def _b64(value, name: str) -> bytes:
    # strict: the lenient default reads "!!" as b"" and lets "a?b" raise binascii.Error
    try:
        return base64.b64decode(value, validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise HistoryFormatError(f"bad history record: {name} {value!r} is not base64") from exc


def _decode_result(obj) -> object:
    if obj is None or type(obj) is bool or type(obj) is int:
        return obj
    if type(obj) is dict and obj.keys() == {"elements"} and type(obj["elements"]) is list:
        return tuple(_b64(e, "result element") for e in obj["elements"])
    raise HistoryFormatError(
        f'bad history record: result {obj!r} is not null, a bool, an int or {{"elements": [...]}}'
    )


_COMMAND_CLASSES = {"update": UpdateOp, "query": QueryCommand}


def _decode_op(obj, kind: str) -> UpdateOp | QueryCommand:
    """The command of a ``kind`` record's ``op``, by ``crdt.make_command``'s rule."""
    if type(obj) is not dict or obj.keys() not in ({"kind"}, {"kind", "element"}):
        raise HistoryFormatError(
            f'bad history record: op {obj!r} is not {{"kind"}} or {{"kind", "element"}}'
        )
    element = _b64(obj["element"], "op element") if "element" in obj else None
    try:
        command = make_command(obj["kind"], element)
    except CommandError as exc:
        raise HistoryFormatError(f"bad history record: op {exc}") from exc
    if type(command) is not _COMMAND_CLASSES[kind]:
        raise HistoryFormatError(f"bad history record: op kind {obj['kind']!r} is no {kind}")
    return command


def record_to_json(rec: OpRecord) -> str:
    obj = {
        "v": SCHEMA_VERSION,
        "op_id": rec.op_id,
        "client": rec.client,
        "replica": rec.replica,
        "kind": rec.kind,
        "op": op_dict(rec.op),
        "invoke_t": rec.invoke_t,
        "tag": list(rec.tag) if rec.tag is not None else None,
        "response_t": rec.response_t,
        "outcome": rec.outcome,
        "result": _encode_result(rec.result),
        "learned_frontier": (
            list(rec.learned_frontier) if rec.learned_frontier is not None else None
        ),
        "round_trips": rec.round_trips,
        "retries": rec.retries,
        "incremental_retry_times": list(rec.incremental_retry_times),
    }
    return _ENCODER.encode(obj)


def _int_tuple(value, name: str, optional: bool = False) -> tuple[int, ...] | None:
    if optional and value is None:
        return None
    # type() rather than isinstance(): a bool is an int but no id, time, count or tag entry
    if type(value) is list and all(type(x) is int for x in value):
        return tuple(value)
    raise HistoryFormatError(f"bad history record: {name} {value!r} is not a list of ints")


def _int(value, name: str, optional: bool = False) -> int | None:
    if type(value) is int or (optional and value is None):
        return value
    raise HistoryFormatError(f"bad history record: {name} {value!r} is not an int")


_KINDS = ("update", "query")
_OUTCOMES = ("ok", "failed", None)


def _choice(value, name: str, allowed: tuple):
    if value in allowed:
        return value
    raise HistoryFormatError(f"bad history record: {name} {value!r} is not one of {allowed}")


def record_from_json(line: str) -> OpRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise HistoryFormatError(f"bad history line: {exc}") from exc
    if not isinstance(obj, dict):
        raise HistoryFormatError(f"history line is not a JSON object: {line.strip()[:80]!r}")
    if obj.get("v") != SCHEMA_VERSION:
        raise HistoryFormatError(f"unsupported history schema: {obj.get('v')!r}")
    try:
        kind = _choice(obj["kind"], "kind", _KINDS)
        rec = OpRecord(
            op_id=_int(obj["op_id"], "op_id"),
            client=_int(obj["client"], "client"),
            replica=_int(obj["replica"], "replica"),
            kind=kind,
            op=_decode_op(obj["op"], kind),
            invoke_t=_int(obj["invoke_t"], "invoke_t"),
            tag=_int_tuple(obj.get("tag"), "tag", optional=True),
            response_t=_int(obj.get("response_t"), "response_t", optional=True),
            outcome=_choice(obj.get("outcome"), "outcome", _OUTCOMES),
            result=_decode_result(obj.get("result")),
            learned_frontier=_int_tuple(obj.get("learned_frontier"), "learned_frontier", optional=True),
            round_trips=_int(obj.get("round_trips"), "round_trips", optional=True),
            retries=_int(obj.get("retries"), "retries", optional=True),
            incremental_retry_times=_int_tuple(
                obj.get("incremental_retry_times", []), "incremental_retry_times"
            ),
        )
    except (KeyError, TypeError) as exc:
        raise HistoryFormatError(f"bad history record: {exc}") from exc
    if rec.tag is not None and len(rec.tag) != 2:
        raise HistoryFormatError(f"bad history record: tag {list(rec.tag)} is not two ints")
    # the checker reads a response time wherever there is an outcome, and no other
    if (rec.outcome is None) != (rec.response_t is None):
        raise HistoryFormatError(
            f"bad history record: outcome {rec.outcome!r} with response_t {rec.response_t!r}"
        )
    if rec.response_t is not None and rec.response_t < rec.invoke_t:
        raise HistoryFormatError(
            f"bad history record: response_t {rec.response_t} before invoke_t {rec.invoke_t}"
        )
    return rec


def write_history(records: Iterable[OpRecord], fp: IO[str]) -> None:
    for rec in records:
        fp.write(record_to_json(rec))
        fp.write("\n")


def read_history(fp: IO[str]) -> list[OpRecord]:
    records = [record_from_json(line) for line in fp if line.strip()]
    # a witness names ops by id, so an id used twice would make it ambiguous
    seen: set[int] = set()
    for rec in records:
        if rec.op_id in seen:
            raise HistoryFormatError(f"repeated op_id {rec.op_id}")
        seen.add(rec.op_id)
    return records


def merge_histories(histories: Iterable[Iterable[OpRecord]]) -> list[OpRecord]:
    """One history from several clients' own: ordered by ``invoke_t`` and
    renumbered 1..N, since each client numbers its ops from 1."""
    merged = sorted((rec for history in histories for rec in history), key=lambda r: r.invoke_t)
    return [replace(rec, op_id=i) for i, rec in enumerate(merged, 1)]


def trace_event_to_json(ev: TraceEvent) -> str:
    obj = {"v": SCHEMA_VERSION, "t": ev.t, "seq": ev.seq, "kind": ev.kind}
    for key, value in ev.detail:
        obj[key] = value
    return _ENCODER.encode(obj)


def write_trace(events: Iterable[TraceEvent], fp: IO[str]) -> None:
    for ev in events:
        fp.write(trace_event_to_json(ev))
        fp.write("\n")
