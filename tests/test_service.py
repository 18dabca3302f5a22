"""Networked daemon tests over real loopback sockets: cluster config
validation, end-to-end counter and set operations, crash tolerance,
malformed-frame robustness, and client-side history recording."""

import asyncio
import io
import json
import logging
import random
import socket
import struct
import threading
import time
from bisect import bisect_left, bisect_right
from dataclasses import replace

import pytest

from crdtlin import service
from crdtlin.checker import check_all, linearize
from crdtlin.crdt import (
    CRDT_KINDS,
    GCounter,
    GSet,
    QueryCommand,
    apply_update,
    workload_op,
)
from crdtlin.history import merge_histories, read_history, write_history
from crdtlin.messages import Ack, Merge, Merged, Prepare, Reply, Request, UpdateOp
from crdtlin.protocol import PayloadRejected, TimerFire
from crdtlin.service import (
    ClusterConfig,
    ClusterConfigError,
    ReplicaClient,
    ReplicaDaemon,
    ReplicaEndpoint,
    _PEER_BUFFER_LIMIT,
    RequestFailed,
    load_cluster_config,
)
from crdtlin.wire import MAX_FRAME, FrameError, encode, try_decode
from tests_support import answer_once, reply_with_frontier_slot


def _free_ports(n: int) -> list[int]:
    socks, ports = [], []
    for _ in range(n):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        ports.append(s.getsockname()[1])
    for s in socks:
        s.close()
    return ports


class Cluster:
    def __init__(self, n: int = 3, **config_kw):
        ports = _free_ports(n)
        endpoints = tuple(
            ReplicaEndpoint(i + 1, "127.0.0.1", ports[i]) for i in range(n)
        )
        self.config = ClusterConfig(replicas=endpoints, **config_kw)
        self.daemons: dict[int, ReplicaDaemon] = {}
        self.threads: dict[int, threading.Thread] = {}

    def start(self, replica_id: int, config: ClusterConfig | None = None) -> None:
        daemon = ReplicaDaemon(config or self.config, replica_id)
        thread = threading.Thread(
            target=asyncio.run, args=(daemon.serve(),), daemon=True
        )
        thread.start()
        assert daemon.bound.wait(5), f"replica {replica_id} never bound"
        self.daemons[replica_id] = daemon
        self.threads[replica_id] = thread

    def start_all(self) -> None:
        for endpoint in self.config.replicas:
            self.start(endpoint.id)

    def stop(self, replica_id: int) -> None:
        self.daemons.pop(replica_id).request_stop()
        self.threads.pop(replica_id).join(5)

    def stop_all(self) -> None:
        for replica_id in list(self.daemons):
            self.stop(replica_id)

    def client(self, replica_id: int, **kw) -> ReplicaClient:
        endpoint = self.config.endpoint(replica_id)
        return ReplicaClient(endpoint.host, endpoint.port, **kw)


@pytest.fixture
def cluster(caplog):
    started: list[Cluster] = []

    def factory(n: int = 3, *, start: bool = True, **config_kw) -> Cluster:
        c = Cluster(n, **config_kw)
        if start:
            c.start_all()
        started.append(c)
        return c

    yield factory
    for c in started:
        c.stop_all()
    # a clean shutdown leaves no cancelled connection handler for asyncio to report
    asyncio_errors = [
        rec.getMessage()
        for when in ("setup", "call", "teardown")
        for rec in caplog.get_records(when)
        if rec.name == "asyncio" and rec.levelno >= logging.ERROR
    ]
    assert not asyncio_errors


# ------------------------------------------------------------- configuration


def test_load_cluster_config_round_trip(tmp_path):
    path = tmp_path / "cluster.json"
    path.write_text(
        json.dumps(
            {
                "crdt": "gset",
                "batching": True,
                "timeout": 0.25,
                "max_retries": None,
                "replicas": [
                    {"id": 1, "host": "127.0.0.1", "port": 7101},
                    {"id": 2, "host": "127.0.0.1", "port": 7102},
                ],
            }
        )
    )
    config = load_cluster_config(path)
    assert config.crdt == "gset"
    assert config.batching is True
    assert config.max_retries is None
    assert config.endpoint(2).port == 7102


def test_load_cluster_config_rejects_bad_input(tmp_path):
    with pytest.raises(ClusterConfigError):
        load_cluster_config(tmp_path / "missing.json")

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ClusterConfigError):
        load_cluster_config(bad)

    sparse = tmp_path / "sparse.json"
    sparse.write_text(json.dumps({"replicas": [{"id": 2, "host": "h", "port": 1}]}))
    with pytest.raises(ClusterConfigError):
        load_cluster_config(sparse)

    dup = tmp_path / "dup.json"
    dup.write_text(
        json.dumps(
            {
                "replicas": [
                    {"id": 1, "host": "h", "port": 1},
                    {"id": 2, "host": "h", "port": 1},
                ]
            }
        )
    )
    with pytest.raises(ClusterConfigError):
        load_cluster_config(dup)

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"replicas": [{"id": 1, "host": "h", "port": 1}], "spd": 9}))
    with pytest.raises(ClusterConfigError):
        load_cluster_config(unknown)

    # values are type-checked, not coerced: a bool is no count and a string no bool
    endpoint = {"id": 1, "host": "h", "port": 1}
    for key, value in (
        ("crdt", 1),
        ("batching", "false"),
        ("instrument", "no"),
        ("timeout", True),
        ("max_retries", 2.9),
    ):
        typed = tmp_path / f"typed-{key}.json"
        typed.write_text(json.dumps({"replicas": [endpoint], key: value}))
        with pytest.raises(ClusterConfigError):
            load_cluster_config(typed)
    for key, value in (("id", True), ("host", 7), ("port", "7001")):
        typed = tmp_path / f"typed-replica-{key}.json"
        typed.write_text(json.dumps({"replicas": [{**endpoint, key: value}]}))
        with pytest.raises(ClusterConfigError):
            load_cluster_config(typed)


def test_cluster_config_validates_crdt_and_timeout():
    endpoint = (ReplicaEndpoint(1, "127.0.0.1", 7000),)
    with pytest.raises(ClusterConfigError):
        ClusterConfig(replicas=endpoint, crdt="pncounter").validate()
    with pytest.raises(ClusterConfigError):
        ClusterConfig(replicas=endpoint, timeout=0).validate()


# ---------------------------------------------------------------- end to end


def test_counter_end_to_end(cluster):
    c = cluster(3)
    with c.client(1) as alice:
        for _ in range(5):
            outcome = alice.increment()
            assert outcome.round_trips >= 1
        assert alice.value().result == 5
    # a different replica serves the same linearized value
    with c.client(2) as bob:
        assert bob.value().result == 5


def test_client_returns_its_record_and_keeps_history_only_when_recording(cluster):
    c = cluster(3)
    with c.client(1) as quiet, c.client(2, record=True, client_id=4) as kept:
        rec = quiet.increment()
        assert rec.kind == "update" and rec.outcome == "ok" and rec.tag is not None
        assert quiet.history == []
        rec = kept.value()
        assert rec.kind == "query" and rec.outcome == "ok" and rec.result == 1
        assert rec.replica == 2 and rec.learned_frontier is not None
        assert kept.history == [rec] and kept.history[0] is rec


def test_set_end_to_end(cluster):
    c = cluster(3, crdt="gset")
    with c.client(1) as writer, c.client(3) as reader:
        writer.add(b"wren")
        writer.add(b"crow")
        assert reader.contains(b"wren").result is True
        assert reader.contains(b"emu").result is False
        assert set(reader.elements().result) == {b"wren", b"crow"}


def test_survives_minority_crash(cluster):
    c = cluster(3)
    with c.client(1) as alice:
        for _ in range(5):
            alice.increment()
        assert alice.value().result == 5
        c.stop(3)
        for _ in range(5):
            alice.increment()
        assert alice.value().result == 10


def test_batching_cluster_works(cluster):
    c = cluster(3, batching=True)
    with c.client(2) as alice:
        for _ in range(4):
            alice.increment()
        assert alice.value().result == 4


def test_uninstrumented_cluster_omits_learned_state(cluster):
    c = cluster(3, instrument=False)
    with c.client(1) as alice:
        alice.increment()
        outcome = alice.value()
        assert outcome.result == 1
        assert outcome.learned_frontier is None
    # the reply frame itself carries no learned frontier, not just the client's view of it
    endpoint = c.config.endpoint(1)
    with socket.create_connection((endpoint.host, endpoint.port), timeout=5) as raw:
        raw.sendall(encode(Request(0, bytes(16), QueryCommand.counter_value())))
        buf = bytearray()
        while (decoded := try_decode(buf)) is None:
            chunk = raw.recv(65536)
            assert chunk, "replica closed the connection"
            buf += chunk
    reply = decoded[0]
    assert isinstance(reply, Reply) and reply.ok and reply.tag is None
    assert reply.result == 1 and reply.learned_frontier is None


@pytest.mark.parametrize("crdt", CRDT_KINDS)
def test_uninstrumented_replica_refuses_payloads_claiming_its_unissued_updates(crdt):
    # instrument only decides what replies carry: every payload form has a
    # frontier, so a claim on the receiver's own slot is checked in any mode
    config = Cluster(3, crdt=crdt, instrument=False).config
    replica = ReplicaDaemon(config, 1).replica
    update = workload_op(crdt, "update", b"x")
    forged = apply_update(update, (1, 1), config.initial_state())  # replica 1 issued none
    before = replica.state
    for msg in (Merge(2, bytes(16), forged), Prepare(2, bytes(16), 1, forged)):
        with pytest.raises(PayloadRejected, match="holds 1 updates of replica 1"):
            replica.step(msg)
    assert replica.state is before


def test_concurrent_clients_agree_on_the_total(cluster):
    c = cluster(3)
    per_client = 10
    errors: list[Exception] = []

    def hammer(replica_id: int) -> None:
        try:
            with c.client(replica_id) as cl:
                for _ in range(per_client):
                    cl.increment()
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(rid,)) for rid in (1, 2, 3, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert not errors
    with c.client(2) as reader:
        assert reader.value().result == per_client * len(threads)


def test_contended_backoff_never_waits_for_the_loss_timer(cluster):
    c = cluster(3, batching=True, timeout=5.0)
    with c.client(1) as warm:
        warm.value()  # every link is up
    records, errors = [], []

    def work(index: int) -> None:
        try:
            with c.client(index % 3 + 1, client_id=index) as cl:
                for n in range(60):
                    records.append(cl.increment() if n % 2 else cl.value())
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    backoffs = []  # every back-off a daemon armed
    for daemon in c.daemons.values():
        route = daemon.route

        def counting_route(replica, event, route=route):
            out = route(replica, event)
            backoffs.extend(backoff for _, backoff in out.timers if backoff is not None)
            return out

        daemon.route = counting_route
    threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
    start = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    elapsed = time.monotonic() - start
    assert not errors and len(records) == 360
    # updates raced queries, so some quorums disagreed and their queries backed off
    assert backoffs
    # yet the whole run took less than one loss timer: no back-off waited for it
    assert elapsed < 5.0, elapsed


class _StubTimer:
    def __init__(self, when: float):
        self._when = when

    def when(self) -> float:
        return self._when

    def cancel(self) -> None:
        pass


class _StubLoop:
    """The loop calls a daemon's timers make, on a clock the test sets;
    its timers never fire on their own."""

    def __init__(self, now: float):
        self.now = now
        self.delays = []  # of every call_later, in order

    def time(self) -> float:
        return self.now

    def call_later(self, delay, callback, *args) -> _StubTimer:
        self.delays.append(delay)
        return _StubTimer(self.now + delay)


def test_daemon_backoff_waits_r_plus_two_of_the_failed_attempts_round_trips():
    config = Cluster(3, timeout=0.5).config
    daemon = ReplicaDaemon(config, 1)
    daemon._loop = loop = _StubLoop(100.0)
    daemon._dispatch(Request(0, bytes(16), QueryCommand.counter_value()))  # prepare, self-ack
    [request_id] = daemon.timers
    loop.now = 100.004
    daemon._dispatch(Ack(2, request_id, 1, GCounter((0, 1, 0))))  # a disagreeing quorum
    # back-off 0 waits two round trips of 4 ms, the time since the prepare went out
    assert loop.delays == [0.5, pytest.approx(2 * 0.004)]
    loop.now = 100.012
    daemon._fire(request_id)  # the second attempt prepares under its own loss timer
    loop.now = 100.015
    daemon._dispatch(Ack(2, request_id, 2, GCounter((0, 2, 0))))
    # back-off 1 waits three round trips of the second attempt, not of the first
    assert loop.delays == [0.5, pytest.approx(0.008), 0.5, pytest.approx(3 * 0.003)]
    assert daemon.replica.requests[request_id].retries == 1


def test_idle_daemon_fires_no_timers(cluster):
    c = cluster(3, timeout=0.2)
    # a replica that starts before its peers links to each one as that peer
    # connects to it, so the first request may race the links coming up and
    # hold frames until they do; let the links settle
    with c.client(1) as alice:
        alice.value()
    time.sleep(0.5)
    fires = []
    for daemon in c.daemons.values():
        step = daemon.replica.step

        def counting_step(event, step=step):
            if isinstance(event, TimerFire):
                fires.append(event)
            return step(event)

        daemon.replica.step = counting_step
    with c.client(1) as alice:
        for i in range(20):
            alice.increment() if i % 4 == 0 else alice.value()
    time.sleep(0.5)  # more than twice the timeout
    assert fires == []  # every request's timer was cancelled once it was answered
    assert all(not daemon.timers for daemon in c.daemons.values())


def test_batch_with_a_rejected_op_resends_its_lost_merge(cluster):
    c = cluster(2, crdt="gset", batching=True, timeout=0.2)
    with c.client(1) as alice:
        alice.add(b"warm")  # the link between the two replicas is up
    daemon = c.daemons[1]
    first_sent: list[bytes] = []  # request ids of replica 1's merges, by first send
    enqueue = daemon._enqueue_peer

    def lossy(dst, msg) -> None:
        if isinstance(msg, Merge) and msg.request_id not in first_sent:
            first_sent.append(msg.request_id)
            if len(first_sent) == 2:
                return  # the second batch's first merge is lost
        enqueue(dst, msg)

    daemon._enqueue_peer = lossy
    rid_a, rid_b, rid_c = (bytes(15) + bytes([i]) for i in (1, 2, 3))
    endpoint = c.config.endpoint(1)
    with socket.create_connection((endpoint.host, endpoint.port), timeout=5) as raw:
        # a starts the first batch; b, refused by a set, and c wait for the second
        raw.sendall(
            encode(Request(0, rid_a, UpdateOp.set_add(b"a")))
            + encode(Request(0, rid_b, UpdateOp.increment()))
            + encode(Request(0, rid_c, UpdateOp.set_add(b"c")))
        )
        replies = {r.request_id: r for r in _read_replies(raw, 3)}
    assert replies[rid_a].ok and replies[rid_a].tag is not None
    assert not replies[rid_b].ok
    assert replies[rid_c].ok and replies[rid_c].tag is not None  # its merge was sent again
    assert replies[rid_c].retries == 1


# ---------------------------------------------------------------- framing


def _read_replies(sock: socket.socket, count: int) -> list:
    buf, replies = bytearray(), []
    while len(replies) < count:
        chunk = sock.recv(65536)
        assert chunk, "replica closed the connection"
        buf += chunk
        while (decoded := try_decode(buf)) is not None:
            replies.append(decoded[0])
            del buf[: decoded[1]]
    return replies


def test_two_requests_in_one_segment_both_get_replies(cluster):
    c = cluster(3)
    rid_a, rid_b = bytes(15) + b"\x01", bytes(15) + b"\x02"
    endpoint = c.config.endpoint(1)
    with socket.create_connection((endpoint.host, endpoint.port), timeout=5) as raw:
        raw.sendall(
            encode(Request(0, rid_a, UpdateOp.increment()))
            + encode(Request(0, rid_b, QueryCommand.counter_value()))
        )
        replies = {r.request_id: r for r in _read_replies(raw, 2)}
    assert replies[rid_a].ok and replies[rid_a].tag is not None
    assert replies[rid_b].ok and replies[rid_b].tag is None and replies[rid_b].result == 1


def test_request_sent_a_byte_at_a_time_gets_its_reply(cluster):
    c = cluster(3)
    rid = bytes(15) + b"\x07"
    endpoint = c.config.endpoint(2)
    with socket.create_connection((endpoint.host, endpoint.port), timeout=5) as raw:
        raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for byte in encode(Request(0, rid, QueryCommand.counter_value())):
            raw.sendall(bytes([byte]))
            time.sleep(0.001)
        (reply,) = _read_replies(raw, 1)
    assert reply.ok and reply.request_id == rid and reply.result == 0


def test_peer_frame_queued_before_the_peer_listens_arrives_once_it_does():
    rid = bytes(15) + b"\x09"
    c = Cluster(2)
    c.start(1)
    daemon = c.daemons[1]
    try:
        queued = threading.Event()

        def enqueue() -> None:
            daemon._enqueue_peer(2, Merged(1, rid))
            queued.set()

        daemon._loop.call_soon_threadsafe(enqueue)
        assert queued.wait(5)
        time.sleep(0.3)  # replica 1 has tried, and failed, to reach replica 2
        # a bare listener stands in for replica 2
        with socket.create_server(("127.0.0.1", c.config.endpoint(2).port)) as peer:
            peer.settimeout(5)
            conn, _ = peer.accept()
            with conn:
                conn.settimeout(5)
                (frame,) = _read_replies(conn, 1)
    finally:
        c.stop_all()
    assert frame == Merged(1, rid)


def test_a_replica_links_to_a_peer_as_soon_as_it_connects(monkeypatch):
    # a poll this slow would hold replica 1's Prepares past the client timeout
    monkeypatch.setattr(service, "_RECONNECT_DELAY", 30.0)
    c = Cluster(3)
    try:
        c.start(1)
        time.sleep(0.1)  # replica 1 has tried, and failed, to reach replicas 2 and 3
        assert all(link.transport is None for link in c.daemons[1]._links.values())
        c.start(2)
        c.start(3)
        with c.client(1, timeout=3) as alice:
            assert alice.value().result == 0
        # a lost link comes back as soon as its peer does, too; with replica 3
        # down, replica 1's quorum needs replica 2 back
        c.stop(3)
        c.stop(2)
        c.start(2)  # no update has run, so a fresh replica 2 reuses no tag
        with c.client(1, timeout=3) as alice:
            assert alice.value().result == 0
    finally:
        c.stop_all()


def test_link_to_a_down_peer_holds_no_more_than_the_byte_cap(caplog):
    caplog.set_level(logging.DEBUG, logger="crdtlin.service")
    element = GSet(frozenset({b"x" * 65536}), (0, 0))
    c = Cluster(2, crdt="gset")
    c.start(1)  # replica 2 never starts
    daemon = c.daemons[1]
    try:
        flooded = threading.Event()

        def flood() -> None:
            for i in range(_PEER_BUFFER_LIMIT // 65536 + 4):  # 4 frames more than fit
                daemon._enqueue_peer(2, Merge(1, i.to_bytes(16, "big"), element))
            flooded.set()

        daemon._loop.call_soon_threadsafe(flood)
        assert flooded.wait(10)
        held = len(daemon._links[2].held)
    finally:
        c.stop_all()
    assert _PEER_BUFFER_LIMIT <= held < _PEER_BUFFER_LIMIT + 70_000
    assert any("full, dropping frame" in r.getMessage() for r in caplog.records)


def test_a_full_link_warns_once_per_episode_of_drops(caplog):
    caplog.set_level(logging.DEBUG, logger="crdtlin.service")
    element = GSet(frozenset({b"x" * 65536}), (0, 0))
    c = Cluster(2, crdt="gset")
    c.start(1)  # replica 2 never starts
    daemon = c.daemons[1]
    link = daemon._links[2]
    try:
        done = threading.Event()

        def episodes() -> None:
            for episode in range(2):
                for i in range(_PEER_BUFFER_LIMIT // 65536 + 4):  # 4 frames more than fit
                    rid = (10 * episode + i).to_bytes(16, "big")
                    daemon._enqueue_peer(2, Merge(1, rid, element))
                link.held = bytearray()  # as a link that comes up sends what it held
            done.set()

        daemon._loop.call_soon_threadsafe(episodes)
        assert done.wait(10)
    finally:
        c.stop_all()
    drops = [r.levelno for r in caplog.records if "full, dropping frame" in r.getMessage()]
    # each episode: its first drop at WARNING, the three after it at DEBUG
    assert drops == ([logging.WARNING] + [logging.DEBUG] * 3) * 2


# ---------------------------------------------------------------- robustness


def test_malformed_frame_drops_connection_but_not_daemon(cluster):
    c = cluster(3)
    endpoint = c.config.endpoint(1)

    raw = socket.create_connection((endpoint.host, endpoint.port), timeout=5)
    raw.sendall(struct.pack(">I", 40) + b"\x63" + bytes(39))  # unknown message type
    assert raw.recv(1024) == b""  # daemon closed the offender
    raw.close()

    oversized = socket.create_connection((endpoint.host, endpoint.port), timeout=5)
    oversized.sendall(struct.pack(">I", 0xFFFFFFFF))
    assert oversized.recv(1024) == b""
    oversized.close()

    with c.client(1) as alice:  # the daemon itself is unharmed
        alice.increment()
        assert alice.value().result == 1


def test_oversized_frame_to_a_peer_is_dropped_and_the_link_kept(caplog):
    rid_a, rid_b = bytes(15) + b"\x01", bytes(15) + b"\x02"
    huge = GSet(frozenset({b"a" * (MAX_FRAME // 2), b"b" * (MAX_FRAME // 2)}), (0, 0))
    c = Cluster(2, crdt="gset")
    # a bare listener stands in for replica 2 and reads what replica 1 sends it
    with socket.create_server(("127.0.0.1", c.config.endpoint(2).port)) as peer:
        c.start(1)
        daemon = c.daemons[1]
        try:
            for msg in (Merge(1, rid_a, huge), Merged(1, rid_b)):
                daemon._loop.call_soon_threadsafe(daemon._enqueue_peer, 2, msg)
            peer.settimeout(5)
            conn, _ = peer.accept()
            with conn:
                conn.settimeout(5)
                buf = bytearray()
                while (decoded := try_decode(buf)) is None:
                    chunk = conn.recv(65536)
                    assert chunk, "link to the peer closed"
                    buf += chunk
            assert decoded[0] == Merged(1, rid_b)  # the next frame still arrives
        finally:
            c.stop_all()
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert any("Merge" in w and "exceeds" in w for w in warnings), warnings


def test_forged_payloads_are_dropped_and_updates_keep_working(caplog):
    rid_a, rid_b, rid_c = (bytes(15) + bytes([i]) for i in (1, 2, 3))
    forged = GCounter((5, 0, 0))  # 5 updates replica 1 never issued
    narrow = GCounter.zero(2)  # width 2 in a 3-replica cluster
    c = Cluster(3)
    # a bare listener stands in for replica 2 and reads what replica 1 sends it;
    # replica 3 starts only once that link is read, so the listener cannot
    # accept replica 3's link instead
    with socket.create_server(("127.0.0.1", c.config.endpoint(2).port)) as peer:
        c.start(1)
        try:
            endpoint = c.config.endpoint(1)
            with socket.create_connection((endpoint.host, endpoint.port), timeout=5) as raw:
                raw.sendall(encode(Merge(2, rid_a, forged)))
                raw.sendall(encode(Merge(2, rid_b, narrow)))
                # the same connection still carries a well-formed merge
                raw.sendall(encode(Merge(2, rid_c, c.config.initial_state())))
                peer.settimeout(5)
                conn, _ = peer.accept()
                with conn:
                    conn.settimeout(5)
                    buf = bytearray()
                    while (decoded := try_decode(buf)) is None:
                        chunk = conn.recv(65536)
                        assert chunk, "link to the peer closed"
                        buf += chunk
            assert decoded[0] == Merged(1, rid_c)  # neither refused merge was answered
            c.start(3)  # with replica 1, a quorum for the increments below
            with c.client(1) as alice:
                assert alice.increment().tag == (1, 1)
                assert alice.increment().tag == (1, 2)
                outcome = alice.value()
                assert outcome.result == 2
                assert outcome.learned_frontier == (2, 0, 0)
            # a forged entry for another replica passes here, but a client
            # refuses a learned frontier that claims more updates than any
            # recordable session holds
            with socket.create_connection((endpoint.host, endpoint.port), timeout=5) as raw:
                raw.sendall(encode(Merge(2, rid_a, GCounter((2, 2**21, 0)))))
            with c.client(1) as alice:
                with pytest.raises(RequestFailed):
                    alice.value()
        finally:
            c.stop_all()
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert any("holds 5 updates of replica 1" in w for w in warnings), warnings
    assert any("width 2" in w for w in warnings), warnings
    # each frame starts with an empty local-hop queue, so what a frame refused
    # midway left queued never reaches the replica with the next frame
    idle = ReplicaDaemon(c.config, 1)
    idle._local.append(Merged(1, rid_b))
    with pytest.raises(PayloadRejected):
        idle._dispatch(Merge(2, rid_a, forged))
    assert not idle._local
    assert not [r for r in caplog.records if r.name == "asyncio" and r.levelno >= logging.ERROR]


def test_a_query_result_past_i64_fails_its_request_at_once(cluster, caplog):
    c = cluster(3)
    endpoint = c.config.endpoint(1)
    # slot 2 is replica 2's own, so replica 1 admits the claim, and a query's
    # sum of the slots no longer fits a reply's i64 result
    forged = Merge(2, bytes(16), GCounter((0, 2**63, 0)))
    query = Request(9, bytes(15) + b"\x01", QueryCommand.counter_value())
    with socket.create_connection((endpoint.host, endpoint.port), timeout=2) as raw:
        raw.sendall(encode(forged) + encode(query))  # one connection keeps them in order
        buf = bytearray()
        while (decoded := try_decode(buf)) is None:
            chunk = raw.recv(65536)
            assert chunk, "replica closed the connection"
            buf += chunk
    reply = decoded[0]
    assert reply.request_id == query.request_id
    assert not reply.ok and reply.result is None and "i64" in reply.reason
    with c.client(1, timeout=5) as alice:
        started = time.monotonic()
        with pytest.raises(RequestFailed, match="i64"):
            alice.value()
        assert time.monotonic() - started < 2
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert any("no wire form" in w and "i64" in w for w in warnings), warnings


def test_reply_frames_sent_at_a_daemon_are_rejected(cluster):
    c = cluster(3)
    endpoint = c.config.endpoint(2)
    raw = socket.create_connection((endpoint.host, endpoint.port), timeout=5)
    raw.sendall(encode(Reply(9, bytes(16), True, (1, 1), round_trips=1)))
    assert raw.recv(1024) == b""
    raw.close()
    with c.client(2) as cl:
        cl.increment()
        assert cl.value().result == 1


def test_client_refuses_a_learned_set_without_a_frontier():
    # a set reply whose frontier slot declares 3 entries, and the frame ends after one
    slot = struct.pack(">IQ", 3, 1)
    port, thread = answer_once(lambda rid: reply_with_frontier_slot(rid, slot))
    with ReplicaClient("127.0.0.1", port, timeout=5) as cl:
        with pytest.raises(FrameError, match="truncated frontier"):
            cl.elements()
    thread.join(5)
    assert not thread.is_alive()


def test_client_fails_a_reply_whose_learned_state_names_too_many_tags():
    n_tags = service._MAX_LEARNED_TAGS + 1
    # a set whose replica 1 added one element n_tags times
    learned = GSet(frozenset({b"x"}), (n_tags, 0, 0))
    port, thread = answer_once(
        lambda rid: encode(Reply(1, rid, True, None, 3, learned.frontier, 1, 0))
    )
    with ReplicaClient("127.0.0.1", port, timeout=5, record=True) as cl:
        with pytest.raises(RequestFailed, match=f"names {n_tags} tags"):
            cl.value()
    thread.join(5)
    assert not thread.is_alive()
    (rec,) = cl.history
    assert rec.outcome == "failed" and rec.result is None and rec.learned_frontier is None


# ------------------------------------------------------------ recorded runs


def test_recorded_history_passes_the_checker(cluster):
    c = cluster(3)
    with c.client(1, record=True, client_id=0) as alice:
        for _ in range(4):
            alice.increment()
        alice.value()
        with c.client(2, record=True, client_id=1) as bob:
            bob.increment()
            bob.value()
    merged = merge_histories([alice.history, bob.history])
    verdicts = check_all(merged)
    assert all(v.passed for v in verdicts.values()), verdicts
    witness = linearize(merged)
    assert len(witness.order) == len(merged)


def test_a_client_recorded_history_reads_back_equal(cluster):
    c = cluster(3, crdt="gset")
    with c.client(1, record=True) as alice:
        alice.add(b"wren")
        alice.contains(b"wren")
        alice.elements()
        alice.elements()
    buf = io.StringIO()
    write_history(alice.history, buf)
    back = read_history(io.StringIO(buf.getvalue()))
    assert back == alice.history
    assert [r.result for r in back] == [None, True, (b"wren",), (b"wren",)]
    assert back[2].op is back[3].op is QueryCommand.set_elements()


def test_a_str_element_raises_before_the_client_records_it(cluster):
    c = cluster(3, crdt="gset")
    with c.client(1, record=True) as alice:
        alice.add(b"wren")
        alice.contains(b"wren")
        for call in (alice.add, alice.contains):
            with pytest.raises(TypeError, match="'x'"):
                call("x")
        # a command built around make_command is refused when it is encoded
        with pytest.raises(TypeError, match="'x'"):
            alice.call(UpdateOp("set_add", "x"))
        alice.elements()
    assert [r.op_id for r in alice.history] == [1, 2, 3]
    buf = io.StringIO()
    write_history(alice.history, buf)
    back = read_history(io.StringIO(buf.getvalue()))
    assert [r.result for r in back] == [None, True, (b"wren",)]
    verdicts = check_all(back)
    assert all(v.passed for v in verdicts.values()), verdicts


def test_benchmark_shaped_live_history_passes_every_check(cluster, tmp_path):
    # the live benchmark's shape: 3 daemons without batching, and 2 recording
    # clients on replicas 1 and 2, each a closed loop of seeded ops at 20%
    # increments; its history must pass every check the benchmark applies
    c = cluster(3, batching=False, timeout=0.5)
    ops = 1000  # per client, as in the benchmark
    clients = [c.client(rid, client_id=rid, record=True) for rid in (1, 2)]
    errors: list[Exception] = []

    def loop(client: ReplicaClient) -> None:
        rng = random.Random(f"rehearsal:{client.client_id}")
        try:
            for _ in range(ops):
                client.increment() if rng.random() < 0.2 else client.value()
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=loop, args=(cl,)) for cl in clients]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        for cl in clients:
            cl.close()
    assert not errors and not any(t.is_alive() for t in threads)
    history = _passes_the_live_checks(clients, tmp_path / "history.jsonl")
    assert len(history) == 2 * ops


class _DelayingForwarder:
    """A loopback TCP forwarder to ``port`` on its own event loop: each chunk
    leaves at least ``delay`` seconds after it arrives, in order."""

    def __init__(self, port: int, delay: float = 0.005):
        self.target, self.delay = port, delay
        self.writers: set[asyncio.StreamWriter] = set()
        self.loop = asyncio.new_event_loop()
        self.server = self.loop.run_until_complete(
            asyncio.start_server(self._forward, "127.0.0.1", 0)
        )
        self.port = self.server.sockets[0].getsockname()[1]
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()

    async def _forward(self, reader, writer) -> None:
        self.writers.add(writer)
        try:
            up_reader, up_writer = await asyncio.open_connection("127.0.0.1", self.target)
            self.writers.add(up_writer)
            await asyncio.gather(self._pipe(reader, up_writer), self._pipe(up_reader, writer))
        except OSError:
            writer.close()

    async def _pipe(self, reader, writer) -> None:
        while chunk := await reader.read(65536):
            await asyncio.sleep(self.delay)
            writer.write(chunk)
        writer.close()

    def close(self) -> None:
        async def stop() -> None:
            self.server.close()
            for writer in self.writers:
                writer.close()
            handlers = asyncio.all_tasks() - {asyncio.current_task()}
            if handlers:
                await asyncio.wait(handlers, timeout=5)
            await self.server.wait_closed()

        asyncio.run_coroutine_threadsafe(stop(), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(5)
        self.loop.close()


@pytest.mark.parametrize(
    "batching, forwarded",
    [
        pytest.param(False, True, id="False"),
        pytest.param(True, True, id="True"),
        pytest.param(False, False, id="False-direct"),
        pytest.param(True, False, id="True-direct"),
    ],
)
def test_a_read_through_a_lagging_replica_sees_the_write_before_it(
    cluster, tmp_path, batching, forwarded
):
    # forwarded, replicas 1 and 2 reach replica 3 only through a 5 ms
    # forwarder, so an increment through replica 1 completes on a quorum of
    # 1 and 2 before replica 3 holds it; a read through replica 3 must still
    # count it. Direct, replica 3 lags only by its share of the loopback.
    c = cluster(3, start=False, batching=batching)
    c.start(3)
    forwarder = _DelayingForwarder(c.config.endpoint(3).port) if forwarded else None
    try:
        detour = c.config
        if forwarded:
            lagging = ReplicaEndpoint(3, "127.0.0.1", forwarder.port)
            detour = replace(c.config, replicas=c.config.replicas[:2] + (lagging,))
        c.start(1, detour)
        c.start(2, detour)
        clients = [c.client(rid, client_id=rid, record=True) for rid in (1, 3)]
        errors: list[Exception] = []

        def pairs() -> None:
            try:
                for _ in range(30):
                    clients[0].increment()
                    clients[1].value()
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        thread = threading.Thread(target=pairs)
        try:
            thread.start()
            thread.join(30)
        finally:
            for cl in clients:
                cl.close()
        assert not errors and not thread.is_alive()
        history = _passes_the_live_checks(clients, tmp_path / "history.jsonl")
        assert len(history) == 60
    finally:
        c.stop(1)
        c.stop(2)
        if forwarded:
            forwarder.close()


def _passes_the_live_checks(clients: list[ReplicaClient], path) -> list:
    """Apply the live benchmark's checks to the clients' merged history and
    return it: a file round trip, every ok, the five checks, ``linearize``,
    and the counter bound."""
    with open(path, "w") as fp:
        write_history(merge_histories(cl.history for cl in clients), fp)
    with open(path) as fp:
        history = read_history(fp)
    assert all(r.outcome == "ok" for r in history)
    verdicts = check_all(history)
    assert all(v.passed for v in verdicts.values()), verdicts
    assert len(linearize(history).order) == len(history)
    # a query counts at least the increments answered before its invoke and
    # at most those invoked before its response
    updates = [r for r in history if r.kind == "update"]
    answered = sorted(r.response_t for r in updates)
    invoked = sorted(r.invoke_t for r in updates)
    for q in history:
        if q.kind == "query":
            low, high = bisect_left(answered, q.invoke_t), bisect_right(invoked, q.response_t)
            assert low <= q.result <= high, (q, low, high)
    return history


def test_client_reports_request_failure(cluster):
    # a 1-replica cluster with max_retries=0 still succeeds locally, so use
    # a counter query against a set cluster to force a clean failure
    c = cluster(1, crdt="gset")
    with c.client(1, record=True) as alice:
        with pytest.raises(RequestFailed) as exc:
            alice.value()
        assert exc.value.kind == "query"
    (rec,) = alice.history
    assert rec.kind == "query" and rec.outcome == "failed" and rec.response_t >= rec.invoke_t
    assert type(rec.round_trips) is int and type(rec.retries) is int
