"""Networked replica daemon and a blocking client for it.

One daemon hosts both protocol roles for its replica id. All protocol state
lives on a single asyncio event loop: protocol callbacks feed each complete
frame and each timer fire into the state machine synchronously, so no two
handlers ever interleave inside it. As a :class:`~crdtlin.protocol.Runtime`
the daemon takes the config's ``timeout`` seconds as its timeout and 0 as
its round trip, so a query's back-off fires on the loop's next turn, once
the frames already received have been handled. Peer frames are written
straight to the socket, or held while the link reconnects; past a byte cap
a dead or slow peer's frames are dropped, which the protocol is built to
absorb. A link that is down retries as soon as the daemon accepts a
connection, since a peer that comes up connects to us, or else every 0.2 s.

Replicas keep no durable state. A killed daemon is a crash-stop: the rest
of the cluster carries on while a quorum survives, and bringing the same
id back requires restarting the cluster.

Clients speak the same framed protocol over a plain TCP connection: each
update or query is one ``Request`` frame with a client-chosen 16-byte
request id, and the one ``Reply`` frame that answers it echoes the id but
not the kind, which the client already knows. The replica itself takes the
``Request`` and returns the ``Reply``, which carries the frontier of the
state a query learned, not the state, and goes out without it when the
cluster's ``instrument`` is off. :class:`ReplicaClient` wraps that in a
blocking API: each call returns the operation's :class:`OpRecord`, and
with ``record=True`` the client also keeps them all as a history for the
offline checker.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path

from .crdt import (
    CRDT_KINDS,
    CrdtError,
    QueryCommand,
    SemilatticeValue,
    UpdateOp,
    initial_state,
)
from .history import OpRecord, record_reply
from .messages import Message, Reply, Request
from .protocol import PayloadRejected, ProtocolConfig, Replica, Runtime, TimerFire
from .wire import FrameError, encode, try_decode

__all__ = [
    "ClusterConfig",
    "ClusterConfigError",
    "ReplicaClient",
    "ReplicaDaemon",
    "ReplicaEndpoint",
    "RequestFailed",
    "load_cluster_config",
]

log = logging.getLogger(__name__)

_PEER_BUFFER_LIMIT = 128 << 10  # bytes a link may hold unsent: ~2,100-5,200 counter frames of 25-62 B
_RECONNECT_DELAY = 0.2
# bounds what a forged frontier can claim: no recordable session folds in
# more updates than this, so a learned frontier naming more is refused
# rather than recorded for the checker
_MAX_LEARNED_TAGS = 1 << 20


class ClusterConfigError(Exception):
    """The cluster description is missing, malformed, or inconsistent."""


class RequestFailed(Exception):
    """The contacted replica reported the operation as failed."""

    def __init__(self, kind: str, reason: str):
        self.kind = kind
        self.reason = reason
        super().__init__(f"{kind} failed: {reason}")


@dataclass(frozen=True, slots=True)
class ReplicaEndpoint:
    id: int
    host: str
    port: int


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    replicas: tuple[ReplicaEndpoint, ...]
    crdt: str = "gcounter"
    batching: bool = False
    timeout: float = 0.5
    max_retries: int | None = 50
    instrument: bool = True

    def validate(self) -> None:
        n = len(self.replicas)
        if n < 1:
            raise ClusterConfigError("a cluster needs at least one replica")
        ids = sorted(r.id for r in self.replicas)
        if ids != list(range(1, n + 1)):
            raise ClusterConfigError(f"replica ids must be exactly 1..{n}, got {ids}")
        endpoints = {(r.host, r.port) for r in self.replicas}
        if len(endpoints) != n:
            raise ClusterConfigError("two replicas share a host:port endpoint")
        if self.crdt not in CRDT_KINDS:
            raise ClusterConfigError(f"unknown crdt {self.crdt!r}")
        if self.timeout <= 0:
            raise ClusterConfigError("timeout must be positive")
        if self.max_retries is not None and self.max_retries < 0:
            raise ClusterConfigError("max_retries cannot be negative")

    def endpoint(self, replica_id: int) -> ReplicaEndpoint:
        for r in self.replicas:
            if r.id == replica_id:
                return r
        raise ClusterConfigError(f"no replica with id {replica_id} in the cluster")

    def initial_state(self) -> SemilatticeValue:
        return initial_state(self.crdt, len(self.replicas))


# the JSON types each optional config key takes; type() rather than isinstance(),
# since a bool is an int to Python but no count, and "false" is no bool
_KEY_TYPES = {
    "crdt": (str,),
    "batching": (bool,),
    "timeout": (int, float),
    "max_retries": (int, type(None)),
    "instrument": (bool,),
}


def load_cluster_config(path: str | Path) -> ClusterConfig:
    try:
        with open(path) as fp:
            raw = json.load(fp)
    except OSError as exc:
        raise ClusterConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ClusterConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("replicas"), list):
        raise ClusterConfigError(f"{path} must be an object with a 'replicas' list")
    options = {k: v for k, v in raw.items() if k != "replicas"}  # absent ones keep their defaults
    unknown = set(options) - set(_KEY_TYPES)
    if unknown:
        raise ClusterConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in options.items():
        if type(value) not in _KEY_TYPES[key]:
            raise ClusterConfigError(f"config key {key!r} has a bad value {value!r}")
    config = ClusterConfig(tuple(_endpoint(entry) for entry in raw["replicas"]), **options)
    config.validate()
    return config


def _endpoint(entry) -> ReplicaEndpoint:
    try:
        rid, host, port = entry["id"], entry["host"], entry["port"]
    except (TypeError, KeyError) as exc:
        raise ClusterConfigError(f"bad replica entry {entry!r}: {exc}") from exc
    if type(rid) is not int or type(host) is not str or type(port) is not int:
        raise ClusterConfigError(
            f"bad replica entry {entry!r}: id and port must be ints, host a string"
        )
    return ReplicaEndpoint(rid, host, port)


# -------------------------------------------------------------------- daemon


class ReplicaDaemon(Runtime):
    """One replica process: listens for peers and clients, runs the protocol."""

    def __init__(self, config: ClusterConfig, replica_id: int):
        config.validate()
        self.config = config
        self.endpoint = config.endpoint(replica_id)
        proto = ProtocolConfig(
            len(config.replicas), batching=config.batching, max_retries=config.max_retries
        )
        self.replica = Replica(replica_id, proto, config.initial_state())
        self._links = {p.id: _PeerLink() for p in config.replicas if p.id != replica_id}
        self._client_transports: dict[bytes, asyncio.Transport] = {}
        self.timeout = config.timeout
        self.round_trip = 0  # a back-off waits only for the frames already received
        self.timers: dict[bytes, asyncio.TimerHandle] = {}  # by request id
        self._local: deque[Message] = deque()  # messages to this replica, in order
        self._framed: tuple[Message, bytes] | None = None  # last peer message and its frame
        self._connections: set[asyncio.Transport] = set()  # inbound, peers' and clients'
        self._stop = asyncio.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        # threading.Event so a controlling thread can wait for the bind
        self.bound = threading.Event()

    async def serve(self) -> None:
        """Run until :meth:`request_stop`; raises if the listen bind fails."""
        self._loop = asyncio.get_running_loop()
        server = await self._loop.create_server(
            lambda: _Connection(self), self.endpoint.host, self.endpoint.port
        )
        self.bound.set()
        log.info(
            "replica %d serving on %s:%d", self.endpoint.id, self.endpoint.host, self.endpoint.port
        )
        tasks = [
            asyncio.ensure_future(self._keep_linked(self.config.endpoint(peer_id), link))
            for peer_id, link in self._links.items()
        ]
        try:
            await self._stop.wait()
        finally:
            server.close()
            await asyncio.sleep(0)  # let just-accepted connections register
            for transport in self._connections:
                transport.close()
            for handle in self.timers.values():
                handle.cancel()
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            for link in self._links.values():
                if link.transport is not None:
                    link.transport.close()
            await server.wait_closed()
            log.info("replica %d stopped", self.endpoint.id)

    def request_stop(self) -> None:
        """Ask the daemon to shut down; safe to call from any thread."""
        if self._loop is None:
            self._stop.set()
        else:
            self._loop.call_soon_threadsafe(self._stop.set)

    # -- protocol event routing; synchronous, so handlers never interleave

    def _dispatch(self, event) -> None:
        self._local.clear()  # a frame refused midway leaves nothing for the next one
        self.route(self.replica, event)
        while self._local:
            self.route(self.replica, self._local.popleft())

    def schedule(self, rid: int, delay: float, request_id: bytes) -> asyncio.TimerHandle:
        return self._loop.call_later(delay, self._fire, request_id)

    def unschedule(self, handle: asyncio.TimerHandle) -> None:
        handle.cancel()

    def _fire(self, request_id: bytes) -> None:
        del self.timers[request_id]
        self._dispatch(TimerFire(request_id))

    def send(self, src: int, dst: int, msg) -> None:
        if dst == src:
            self._local.append(msg)  # local hop: delivered reliably, in order
        else:
            self._enqueue_peer(dst, msg)

    def _enqueue_peer(self, dst: int, msg) -> None:
        link = self._links[dst]
        transport = link.transport
        if transport is not None and transport.is_closing():
            transport = None  # its writes would be lost; hold them for the next link
        buffered = len(link.held) if transport is None else transport.get_write_buffer_size()
        if buffered >= _PEER_BUFFER_LIMIT:
            log.debug("replica %d: link to peer %d full, dropping frame", self.endpoint.id, dst)
            return
        # a broadcast hands every peer one message object: encode it once
        if self._framed is None or self._framed[0] is not msg:
            try:
                self._framed = (msg, encode(msg))
            except FrameError as exc:
                # lost like any other dropped frame; the link itself stays up
                log.warning(
                    "replica %d: dropping %s to peer %d: %s",
                    self.endpoint.id, type(msg).__name__, dst, exc,
                )
                return
        frame = self._framed[1]
        if transport is None:
            link.held += frame
        else:
            transport.write(frame)

    def answer(self, request_id: bytes, reply: Reply) -> None:
        transport = self._client_transports.pop(reply.request_id, None)
        if transport is None:
            return  # the client went away; nothing to route
        if reply.learned_frontier is not None and not self.config.instrument:
            reply = replace(reply, learned_frontier=None)
        try:
            frame = encode(reply)
        except FrameError as exc:
            # such as a sum of forged counter slots past i64: the client
            # gets a failed reply that says why, not a silent wait
            log.warning("replica %d: failing a reply with no wire form: %s", self.endpoint.id, exc)
            reply = replace(reply, ok=False, result=None, learned_frontier=None,
                            reason=f"reply has no wire form: {exc}")
            frame = encode(reply)
        try:
            transport.write(frame)
        except Exception:
            log.debug("replica %d: client reply write failed", self.endpoint.id, exc_info=True)

    # -- inbound connections (peers and clients share the listener)

    def _handle_message(self, msg: Message, transport: asyncio.Transport) -> None:
        match msg:
            case Request():
                self._client_transports[msg.request_id] = transport
                self._dispatch(msg)
            case Reply():
                raise FrameError("a Reply answers a request; a daemon takes none")
            case _:
                try:
                    self._dispatch(msg)
                except (CrdtError, PayloadRejected) as exc:
                    # the replica refused the payload before changing any
                    # state; drop this frame like a lost one, keep the link
                    log.warning(
                        "replica %d: dropping %s from %s: %s", self.endpoint.id,
                        type(msg).__name__, transport.get_extra_info("peername"), exc,
                    )

    # -- outbound peer links

    async def _keep_linked(self, peer: ReplicaEndpoint, link: _PeerLink) -> None:
        while True:
            link.wake.clear()  # a connection accepted from here on cuts the wait below short
            try:
                await self._loop.create_connection(lambda: link, peer.host, peer.port)
            except OSError:
                linked = False
            else:
                linked = True
                log.info("replica %d: linked to peer %d", self.endpoint.id, peer.id)
                await link.lost
                link.wake.clear()  # connections accepted while the link was up say nothing new
            # a peer that comes up connects to us; poll in case none does
            try:
                await asyncio.wait_for(link.wake.wait(), _RECONNECT_DELAY)
            except TimeoutError:
                pass
            # shutdown cancels this task in that wait: links a stopping cluster closes are no drops
            if linked and not self._stop.is_set():
                log.info("replica %d: link to peer %d dropped", self.endpoint.id, peer.id)


class _Connection(asyncio.Protocol):
    """An accepted connection: each frame is dispatched as its last byte arrives."""

    def __init__(self, daemon: ReplicaDaemon):
        self.daemon = daemon
        self.buf = bytearray()

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.daemon._connections.add(transport)
        for link in self.daemon._links.values():
            link.wake.set()  # a peer that comes up connects to us: retry the links now

    def data_received(self, data: bytes) -> None:
        self.buf += data
        try:
            while self.buf and (decoded := try_decode(self.buf)) is not None:
                del self.buf[: decoded[1]]
                self.daemon._handle_message(decoded[0], self.transport)
        except FrameError as exc:
            peer = self.transport.get_extra_info("peername")
            log.warning("replica %d: dropping %s: %s", self.daemon.endpoint.id, peer, exc)
            self.transport.close()

    def connection_lost(self, exc) -> None:
        clients = self.daemon._client_transports
        for request_id in [r for r, t in clients.items() if t is self.transport]:
            del clients[request_id]
        self.daemon._connections.discard(self.transport)


class _PeerLink(asyncio.Protocol):
    """The outbound link to one peer; ``held`` keeps frames sent while it is down."""

    transport: asyncio.Transport | None = None
    lost: asyncio.Future  # resolved when the current connection ends

    def __init__(self):
        self.held = bytearray()
        self.wake = asyncio.Event()  # set by every accepted connection: the peer may be up

    def connection_made(self, transport) -> None:
        self.transport, self.lost = transport, asyncio.get_running_loop().create_future()
        transport.write(self.held)
        self.held = bytearray()

    def connection_lost(self, exc) -> None:
        self.transport = None
        if not self.lost.done():  # shutdown cancels it with the task awaiting it
            self.lost.set_result(None)


# -------------------------------------------------------------------- client


class ReplicaClient:
    """Blocking single-connection client; one outstanding request at a time.

    Every call returns its operation's :class:`OpRecord`, timestamped with a
    monotonic nanosecond clock; a failed one raises :class:`RequestFailed`
    after its record says so. With ``record=True`` each record is also
    appended to :attr:`history` as the call starts, ready for the offline
    checker; a call that never gets its answer stays there as pending.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 10.0,
        client_id: int = 0,
        record: bool = False,
        connect_retries: int = 25,
    ):
        last: OSError | None = None
        for _ in range(max(1, connect_retries)):
            try:
                self._sock = socket.create_connection((host, port), timeout=timeout)
                break
            except OSError as exc:
                last = exc
                time.sleep(0.1)
        else:
            raise ConnectionError(f"cannot reach replica at {host}:{port}: {last}")
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = bytearray()
        self.client_id = client_id
        self.record = record
        self.history: list[OpRecord] = []
        self._op_counter = 0
        self._replica_hint = 0

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "ReplicaClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- operations

    def increment(self) -> OpRecord:
        return self.call(UpdateOp.increment())

    def add(self, element: bytes) -> OpRecord:
        return self.call(UpdateOp.set_add(element))

    def value(self) -> OpRecord:
        return self.call(QueryCommand.counter_value())

    def contains(self, element: bytes) -> OpRecord:
        return self.call(QueryCommand.set_contains(element))

    def elements(self) -> OpRecord:
        return self.call(QueryCommand.set_elements())

    def call(self, command: UpdateOp | QueryCommand) -> OpRecord:
        """Run one update or query and return its record."""
        kind = "update" if isinstance(command, UpdateOp) else "query"
        request_id = os.urandom(16)
        # encoded first: a command with no wire form raises before it is recorded
        frame = encode(Request(self.client_id, request_id, command))
        self._op_counter += 1
        rec = OpRecord(
            op_id=self._op_counter,
            client=self.client_id,
            replica=self._replica_hint,
            kind=kind,
            op=command,
            invoke_t=time.monotonic_ns(),
        )
        if self.record:
            self.history.append(rec)
        self._sock.sendall(frame)
        reply = self._next_frame()
        while type(reply) is not Reply or reply.request_id != request_id:
            reply = self._next_frame()  # a stray frame for someone else's request
        response_t = time.monotonic_ns()
        rec.replica = self._replica_hint = reply.sender
        if reply.learned_frontier is not None:
            n_tags = sum(reply.learned_frontier)
            if n_tags > _MAX_LEARNED_TAGS:
                reply = replace(
                    reply, ok=False, result=None, learned_frontier=None,
                    reason=f"learned frontier names {n_tags} tags",
                )
        record_reply(rec, reply, response_t)
        if not reply.ok:
            raise RequestFailed(kind, reply.reason)
        return rec

    def _next_frame(self) -> Message:
        while True:
            out = try_decode(self._buf)
            if out is not None:
                msg, consumed = out
                del self._buf[:consumed]
                return msg
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("replica closed the connection")
            self._buf += chunk
