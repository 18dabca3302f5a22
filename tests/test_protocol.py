"""Handler-level protocol tests.

Each scenario drives a single replica through ``Replica.step`` with hand-built
messages and checks the exact outputs. Expected states were worked out by
hand on lattices small enough to eyeball. The routing contract that both
runtimes inherit is tested once, against a fake runtime that records its
hooks.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import crdtlin
from crdtlin.checker import check_validity
from crdtlin.crdt import (
    GCounter,
    GSet,
    QueryCommand,
    ShapeError,
)
from crdtlin.history import OpRecord, record_reply
from crdtlin.messages import Ack, Merge, Merged, Prepare, Request, UpdateOp
from crdtlin.protocol import (
    PayloadRejected,
    ProtocolConfig,
    ProtocolError,
    Replica,
    Runtime,
    TimerFire,
)
from crdtlin.service import ReplicaDaemon
from crdtlin.sim import Simulation

REQ = b"\x00" * 15 + b"\x01"


def client_req_id(n: int) -> bytes:
    """A client's 16-byte request id, numbered for the test."""
    return n.to_bytes(16, "big")


def make_replica(rid=1, n=3, batching=False, max_retries=50, width=None, issued=0):
    """A replica with a zero counter that has issued and merged ``issued``
    updates of its own, so that a peer's payload may hold that many."""
    config = ProtocolConfig(n_replicas=n, batching=batching, max_retries=max_retries)
    r = Replica(rid, config, GCounter.zero(width or n))
    for i in range(issued):
        out = r.step(Request(0, client_req_id(1000 + i), UpdateOp.increment()))
        r.step(Merged(rid % n + 1, sends_by_type(out, Merge)[0][1].request_id))
    return r


def sends_by_type(out, cls):
    return [(dst, m) for dst, m in out.sends if isinstance(m, cls)]


# ---------------------------------------------------------------- acceptor


def acceptor(rid, state):
    """A replica holding ``state`` with no request of its own: its acceptor alone."""
    return Replica(rid, ProtocolConfig(n_replicas=len(state.frontier)), state)


def test_merge_folds_the_payload():
    a = acceptor(2, GCounter((1, 0, 2)))
    [(dst, reply)] = a.step(Merge(sender=1, request_id=REQ, state=GCounter((0, 0, 3)))).sends
    assert a.state == GCounter((1, 0, 3))
    assert dst == 1 and reply == Merged(sender=2, request_id=REQ)


def test_duplicate_merge_is_idempotent_but_still_answered():
    a = acceptor(2, GCounter.zero(3))
    m = Merge(sender=1, request_id=REQ, state=GCounter((1, 0, 0)))
    first = a.step(m).sends
    state_after = a.state
    second = a.step(m).sends
    assert a.state == state_after
    assert first == second == [(1, Merged(sender=2, request_id=REQ))]


def test_incremental_prepare_always_accepted():
    a = acceptor(1, GCounter((1, 0)))
    [(dst, reply)] = a.step(Prepare(2, REQ, 3, GCounter((0, 1)))).sends
    assert a.state == GCounter((1, 1))
    assert dst == 2 and reply == Ack(1, REQ, 3, GCounter((1, 1)))  # answers the prepare's attempt


_counters = st.lists(st.integers(0, 5), min_size=3, max_size=3).map(
    lambda counts: GCounter(tuple(counts))
)


@given(_counters, _counters, st.integers(1, 60))
def test_prepare_always_acks_with_a_state_at_least_the_prepares(held, sent, attempt):
    sent = GCounter((0,) + sent.frontier[1:])  # replica 1 has issued no update
    a = acceptor(1, held)
    [(_, reply)] = a.step(Prepare(2, REQ, attempt, sent)).sends
    assert isinstance(reply, Ack) and reply.attempt == attempt
    assert sent.compare(reply.state) and held.compare(reply.state)
    assert reply.state == a.state


# ---------------------------------------------------------------- ids


def test_round_ids_distinct_across_processes():
    """A prepare round is named by the (request id, attempt) it carries, and
    request ids never repeat across replicas."""
    seen = set()
    replicas = [make_replica(rid=i, n=5) for i in range(1, 6)]
    for _ in range(200):
        for rep in replicas:
            out = rep.step(Request(0, client_req_id(0), QueryCommand.counter_value()))
            request_id = out.sends[0][1].request_id
            assert request_id not in seen
            seen.add(request_id)
    assert len(seen) == 1000


# ---------------------------------------------------------------- proposer: updates


def test_client_update_applies_locally_then_merges():
    r = make_replica(rid=1, n=3)
    out = r.step(Request(7, client_req_id(70), UpdateOp.increment()))
    assert r.state == GCounter((1, 0, 0))
    merges = sends_by_type(out, Merge)
    assert [dst for dst, _ in merges] == [2, 3]
    assert all(m.state == GCounter((1, 0, 0)) for _, m in merges)
    assert out.replies == []
    assert len(out.timers) == 1


def test_update_completes_on_merge_quorum():
    r = make_replica(rid=1, n=3)
    out = r.step(Request(7, client_req_id(70), UpdateOp.increment()))
    req_id = sends_by_type(out, Merge)[0][1].request_id
    out2 = r.step(Merged(sender=2, request_id=req_id))
    assert len(out2.replies) == 1
    reply = out2.replies[0][1]
    assert reply.ok and reply.request_id == client_req_id(70)
    assert reply.tag == (1, 1)
    assert reply.round_trips == 1
    assert req_id not in r.requests


def test_duplicate_merged_counted_once():
    r = make_replica(rid=1, n=5)
    out = r.step(Request(1, client_req_id(1), UpdateOp.increment()))
    req_id = sends_by_type(out, Merge)[0][1].request_id
    assert r.step(Merged(sender=2, request_id=req_id)).replies == []
    assert r.step(Merged(sender=2, request_id=req_id)).replies == []  # same acceptor
    assert r.step(Merged(sender=3, request_id=req_id)).replies != []  # quorum of 3


def test_late_merged_after_completion_dropped():
    r = make_replica(rid=1, n=3)
    out = r.step(Request(1, client_req_id(1), UpdateOp.increment()))
    req_id = sends_by_type(out, Merge)[0][1].request_id
    r.step(Merged(sender=2, request_id=req_id))
    assert r.step(Merged(sender=3, request_id=req_id)).replies == []


def test_update_timeout_resends_to_silent_acceptors_only():
    r = make_replica(rid=1, n=3)
    out = r.step(Request(1, client_req_id(1), UpdateOp.increment()))
    req_id = sends_by_type(out, Merge)[0][1].request_id
    r.step(Merged(sender=2, request_id=req_id))  # not yet a reply-quorum... 2 of 3 is
    # quorum already met with self + 2; rebuild a fresh scenario for N=5
    r = make_replica(rid=1, n=5)
    out = r.step(Request(1, client_req_id(1), UpdateOp.increment()))
    req_id = sends_by_type(out, Merge)[0][1].request_id
    r.step(Merged(sender=2, request_id=req_id))
    out2 = r.step(TimerFire(req_id))
    resent = sends_by_type(out2, Merge)
    assert sorted(dst for dst, _ in resent) == [3, 4, 5]
    assert out2.retries and out2.retries[0].kind == "merge-resend"
    assert r.requests[req_id].round_trips == 2


# ---------------------------------------------------------------- proposer: queries


def start_query(r, client=9, request=90):
    out = r.step(Request(client, client_req_id(request), QueryCommand.counter_value()))
    prepares = sends_by_type(out, Prepare)
    assert [dst for dst, _ in prepares] == list(range(1, r.config.n_replicas + 1))
    msg = prepares[0][1]
    assert msg.attempt == 1
    return msg.request_id, out


def disagree(r, req_id):
    """Two acks of attempt 1 with unequal payloads: a quorum of 3 that disagrees."""
    r.step(Ack(1, req_id, 1, GCounter((1, 0, 0))))
    return r.step(Ack(2, req_id, 1, GCounter((0, 1, 0))))


def test_query_prepare_carries_local_payload():
    r = make_replica(rid=2, n=3)
    r.state = GCounter((0, 4, 0))
    _, out = start_query(r)
    assert all(m.state == GCounter((0, 4, 0)) for _, m in sends_by_type(out, Prepare))


def test_concurrent_queries_use_distinct_round_ids():
    r = make_replica(rid=1, n=3)
    req_a, out_a = start_query(r, request=1)
    req_b, out_b = start_query(r, request=2)
    assert req_a != req_b
    prep_a, prep_b = sends_by_type(out_a, Prepare)[0][1], sends_by_type(out_b, Prepare)[0][1]
    assert (prep_a.request_id, prep_a.attempt) != (prep_b.request_id, prep_b.attempt)


def test_consistent_quorum_completes_in_one_round():
    r = make_replica(rid=1, n=3, issued=1)
    req_id, _ = start_query(r)
    s = GCounter((1, 1, 0))
    assert r.step(Ack(1, req_id, 1, s)).replies == []
    out = r.step(Ack(2, req_id, 1, s))
    assert len(out.replies) == 1
    reply = out.replies[0][1]
    assert reply.ok and reply.result == 2 and reply.round_trips == 1


def test_disagreeing_quorum_backs_off_without_sending():
    r = make_replica(rid=1, n=3, issued=1)
    req_id, _ = start_query(r)
    out = disagree(r, req_id)
    assert out.sends == [] and out.replies == [] and out.retries == []
    # one back-off timer; no retries yet, so its count is 0
    assert [backoff for _, backoff in out.timers] == [0]
    assert r.requests[req_id].backing_off
    assert r.requests[req_id].round_trips == 1


def test_ack_during_backoff_joins_gathered_and_sends_nothing():
    r = make_replica(rid=1, n=3, issued=1)
    req_id, _ = start_query(r)
    disagree(r, req_id)
    out = r.step(Ack(3, req_id, 1, GCounter((0, 0, 4))))
    assert out.sends == [] and out.timers == [] and out.replies == []
    assert r.requests[req_id].gathered == GCounter((1, 1, 4))


def test_backoff_fire_reprepares_with_gathered_as_one_retry():
    r = make_replica(rid=1, n=3, issued=1)
    req_id, _ = start_query(r)
    disagree(r, req_id)
    r.step(Ack(3, req_id, 1, GCounter((0, 0, 2))))  # late, during the back-off
    out = r.step(TimerFire(req_id))
    prepares = sends_by_type(out, Prepare)
    assert [dst for dst, _ in prepares] == [1, 2, 3]
    msg = prepares[0][1]
    assert msg.attempt == 2
    assert msg.state == GCounter((1, 1, 2))  # LUB of everything received
    assert [retry.kind for retry in out.retries] == ["incremental"]
    req = r.requests[req_id]
    assert (req.backing_off, req.retries, req.round_trips) == (False, 1, 2)
    assert out.timers[0][1] is None  # the loss timer again
    # a quorum of the new attempt that agrees ends the query
    s = GCounter((1, 1, 2))
    r.step(Ack(1, req_id, 2, s))
    reply = r.step(Ack(2, req_id, 2, s)).replies[0][1]
    assert reply.ok and reply.result == 4
    assert (reply.round_trips, reply.retries) == (2, 1)


def test_second_backoff_counts_the_retries_so_far():
    r = make_replica(rid=1, n=3, issued=1)
    req_id, _ = start_query(r)
    disagree(r, req_id)
    r.step(TimerFire(req_id))
    r.step(Ack(1, req_id, 2, GCounter((1, 1, 0))))
    out = r.step(Ack(2, req_id, 2, GCounter((1, 2, 0))))
    assert out.sends == [] and [backoff for _, backoff in out.timers] == [1]


def test_stale_ack_only_feeds_the_gathered_lub():
    r = make_replica(rid=1, n=3)
    req_id, _ = start_query(r)
    r.step(TimerFire(req_id))  # attempt 2 begins
    assert r.requests[req_id].attempt == 2
    # ack for the abandoned attempt: remembered as payload, not toward a quorum
    r.step(Ack(1, req_id, 1, GCounter((0, 5, 0))))
    out = r.step(Ack(2, req_id, 1, GCounter((0, 5, 0))))
    assert out.replies == [] and out.timers == []
    assert r.requests[req_id].acks == {}
    assert r.requests[req_id].gathered == GCounter((0, 5, 0))


def _set_query(r):
    out = r.step(Request(9, client_req_id(90), QueryCommand.set_elements()))
    return sends_by_type(out, Prepare)[0][1].request_id


def test_late_ack_completing_an_agreeing_quorum_ends_the_query_in_one_round():
    # a set: replica 2 added x, replica 3 added y; A' is an equal copy of A,
    # a distinct object of the same frontier
    r = Replica(1, ProtocolConfig(n_replicas=3), GSet.empty(3))
    req_id = _set_query(r)
    a = GSet(frozenset({b"x"}), (0, 1, 0))
    b = GSet(frozenset({b"y"}), (0, 0, 1))
    a_prime = GSet(frozenset({b"x"}), (0, 1, 0))
    r.step(Ack(1, req_id, 1, a))
    out = r.step(Ack(2, req_id, 1, b))
    assert out.replies == [] and [backoff for _, backoff in out.timers] == [0]
    out = r.step(Ack(3, req_id, 1, a_prime))
    assert out.sends == [] and out.retries == []  # no second prepare
    [(_, reply)] = out.replies
    assert reply.ok and reply.result == (b"x",)
    assert (reply.round_trips, reply.retries) == (1, 0)
    # the agreeing acks' one state, none of B's tags: equal frontiers, equal states
    assert reply.learned_frontier == a.frontier == (0, 1, 0)
    assert req_id not in r.requests


def test_a_duplicate_add_moves_the_frontier_so_its_ack_disagrees():
    # replica 2 added x twice; A holds only its first add. The two sets hold
    # the same elements, but the frontier orders payloads, so they disagree:
    # safe, and the query may take longer
    r = Replica(1, ProtocolConfig(n_replicas=3), GSet.empty(3))
    req_id = _set_query(r)
    a = GSet(frozenset({b"x"}), (0, 1, 0))
    twice = GSet(frozenset({b"x"}), (0, 2, 0))
    r.step(Ack(1, req_id, 1, a))
    out = r.step(Ack(2, req_id, 1, twice))
    assert out.replies == [] and out.sends == []
    assert [backoff for _, backoff in out.timers] == [0]  # backs off
    [(_, reply)] = r.step(Ack(3, req_id, 1, twice)).replies
    assert reply.ok and reply.result == (b"x",) and reply.learned_frontier == twice.frontier


def test_agreeing_group_one_short_of_a_quorum_waits():
    r = make_replica(rid=1, n=5)
    req_id, _ = start_query(r)
    a, b = GCounter((0, 1, 0, 0, 0)), GCounter((0, 0, 1, 0, 0))
    for sender, state in ((1, a), (2, b), (3, a), (4, b)):
        assert r.step(Ack(sender, req_id, 1, state)).replies == []
    [(_, reply)] = r.step(Ack(5, req_id, 1, a)).replies
    assert reply.ok and reply.result == 1 and reply.round_trips == 1


def test_repeated_ack_never_counts_twice_toward_an_agreeing_group():
    r = make_replica(rid=1, n=5)
    req_id, _ = start_query(r)
    a, b = GCounter((0, 1, 0, 0, 0)), GCounter((0, 0, 1, 0, 0))
    r.step(Ack(2, req_id, 1, a))
    r.step(Ack(3, req_id, 1, b))
    out = r.step(Ack(4, req_id, 1, b))  # a quorum of 3 that disagrees
    assert [backoff for _, backoff in out.timers] == [0]
    for _ in range(3):
        out = r.step(Ack(2, req_id, 1, a))  # duplicated by the network
        assert out.replies == [] and out.timers == []
    assert r.step(Ack(5, req_id, 1, a)).replies == []  # two of five agree on a
    assert r.step(Ack(1, req_id, 1, b)).replies != []  # b's group reaches three


def test_agreeing_acks_of_an_earlier_attempt_never_complete_the_query():
    r = make_replica(rid=1, n=3, issued=1)
    req_id, _ = start_query(r)
    disagree(r, req_id)  # A from replica 1, B from replica 2
    r.step(TimerFire(req_id))  # attempt 2 begins
    # replica 3's ack of attempt 1 agrees with A, but that attempt is over
    out = r.step(Ack(3, req_id, 1, GCounter((1, 0, 0))))
    assert out.replies == [] and out.sends == [] and out.timers == []
    assert r.requests[req_id].acks == {}


def test_round_ids_unique_and_increasing():
    """Each re-prepare of a request carries the next attempt number."""
    r = make_replica(rid=1, n=3)
    req_id, out = start_query(r)
    rounds = [(req_id, sends_by_type(out, Prepare)[0][1].attempt)]
    for _ in range(3):
        out = r.step(TimerFire(req_id))
        m = sends_by_type(out, Prepare)[0][1]
        rounds.append((m.request_id, m.attempt))
    assert rounds == [(req_id, a) for a in (1, 2, 3, 4)]


def test_query_timeout_retries_incrementally():
    r = make_replica(rid=1, n=3)
    req_id, _ = start_query(r)
    out = r.step(TimerFire(req_id))
    msg = sends_by_type(out, Prepare)[0][1]
    assert msg.attempt == 2
    assert out.retries[0].kind == "incremental"


def test_max_retries_fails_the_request():
    r = make_replica(rid=1, n=3, max_retries=2)
    req_id, out = start_query(r, client=4, request=40)
    for _ in range(2):
        r.step(TimerFire(req_id))
    out = r.step(TimerFire(req_id))
    assert len(out.replies) == 1
    reply = out.replies[0][1]
    assert not reply.ok and reply.reason == "max-retries" and reply.request_id == client_req_id(40)
    assert req_id not in r.requests


def test_replies_to_unknown_request_ids_dropped():
    r = make_replica(rid=1, n=3)
    ghost = b"\x99" * 16
    assert r.step(Ack(2, ghost, 1, GCounter.zero(3))).sends == []
    assert r.step(Merged(2, ghost)).replies == []


@pytest.mark.parametrize("kind", ["Merge", "Prepare", "Merged", "Ack"])
def test_senders_outside_the_cluster_ignored(kind):
    for sender in (0, 4, 17):
        r = make_replica(rid=1, n=3)
        out = r.step(Request(1, client_req_id(1), UpdateOp.increment()))
        update_id = sends_by_type(out, Merge)[0][1].request_id
        query_id, _ = start_query(r)
        before = r.state
        payload = GCounter((0, 0, 5))
        msg = {
            "Merge": Merge(sender, REQ, payload),
            "Prepare": Prepare(sender, REQ, 1, payload),
            "Merged": Merged(sender, update_id),  # with the proposer's own, a quorum of 2
            "Ack": Ack(sender, query_id, 1, payload),
        }[kind]
        out = r.step(msg)
        assert out.sends == [] and out.replies == [] and out.timers == []
        # nothing is merged, and nothing counts toward a quorum or feeds the LUB
        assert r.state == before
        assert r.requests[update_id].merged == {1}
        assert r.requests[query_id].acks == {}
        assert r.requests[query_id].gathered == before


def test_learned_state_attached_only_when_exposed():
    # every query reply carries its learned state's frontier; the daemon
    # decides what reaches the client (nothing when the cluster is not
    # instrumented)
    r = make_replica(rid=1, n=3)
    req_id, _ = start_query(r)
    s = GCounter((0, 2, 0))
    r.step(Ack(1, req_id, 1, s))
    out = r.step(Ack(2, req_id, 1, s))
    reply = out.replies[0][1]
    assert reply.result == 2 and reply.learned_frontier == s.frontier


# ---------------------------------------------------------------- batching


def test_updates_buffered_while_batch_in_flight():
    r = make_replica(rid=1, n=3, batching=True)
    out = r.step(Request(0, client_req_id(0), UpdateOp.increment()))
    first_req = sends_by_type(out, Merge)[0][1].request_id
    # ten more arrive while the first batch is still merging
    for i in range(1, 11):
        out_i = r.step(Request(i, client_req_id(i), UpdateOp.increment()))
        assert out_i.sends == []
    out_done = r.step(Merged(sender=2, request_id=first_req))
    assert [rep.request_id for _, rep in out_done.replies] == [client_req_id(0)]
    merges = sends_by_type(out_done, Merge)
    # the queued ten apply locally as one batch and ship in one merge round
    assert len(merges) == 2
    assert all(m.state == GCounter((11, 0, 0)) for _, m in merges)
    second_req = merges[0][1].request_id
    out_done2 = r.step(Merged(sender=3, request_id=second_req))
    assert sorted(rep.request_id for _, rep in out_done2.replies) == [
        client_req_id(i) for i in range(1, 11)
    ]
    assert all(rep.round_trips == 1 for _, rep in out_done2.replies)


def test_queries_batch_and_share_one_learned_state():
    r = make_replica(rid=1, n=3, batching=True)
    out = r.step(Request(0, client_req_id(0), QueryCommand.counter_value()))
    first_req = sends_by_type(out, Prepare)[0][1].request_id
    for i in range(1, 4):
        assert r.step(Request(i, client_req_id(i), QueryCommand.counter_value())).sends == []
    s = GCounter((0, 3, 0))
    r.step(Ack(1, first_req, 1, s))
    out_done = r.step(Ack(2, first_req, 1, s))
    assert [rep.request_id for _, rep in out_done.replies] == [client_req_id(0)]
    # completion flushes the waiting three as a single new request
    next_prepares = sends_by_type(out_done, Prepare)
    assert len(next_prepares) == 3
    second_req = next_prepares[0][1].request_id
    r.step(Ack(1, second_req, 1, s))
    out2 = r.step(Ack(3, second_req, 1, s))
    ids = sorted(rep.request_id for _, rep in out2.replies)
    assert ids == [client_req_id(i) for i in (1, 2, 3)]
    assert all(rep.result == 3 for _, rep in out2.replies)


def test_update_and_query_batches_run_independently():
    r = make_replica(rid=1, n=3, batching=True)
    out_u = r.step(Request(0, client_req_id(0), UpdateOp.increment()))
    out_q = r.step(Request(1, client_req_id(1), QueryCommand.counter_value()))
    assert sends_by_type(out_u, Merge)
    assert sends_by_type(out_q, Prepare)


def test_single_replica_batch_does_not_wedge():
    r = make_replica(rid=1, n=1, batching=True, width=1)
    out = r.step(Request(0, client_req_id(0), UpdateOp.increment()))
    assert out.replies and out.replies[0][1].ok
    out2 = r.step(Request(0, client_req_id(1), UpdateOp.increment()))
    assert out2.replies and out2.replies[0][1].ok
    assert r.state == GCounter((2,))


# ---------------------------------------------------------------- invariants


@pytest.mark.parametrize("batching", [False, True])
def test_bad_command_against_cluster_type_fails_cleanly(batching):
    r = make_replica(rid=1, n=3, batching=batching)
    out = r.step(Request(1, client_req_id(1), UpdateOp.set_add(b"x")))
    assert len(out.replies) == 1 and not out.replies[0][1].ok
    assert out.sends == []
    assert r.requests == {}
    # a batch with no valid op leaves nothing in flight: the next update ships at once
    out = r.step(Request(1, client_req_id(2), UpdateOp.increment()))
    assert [dst for dst, _ in sends_by_type(out, Merge)] == [2, 3]


@pytest.mark.parametrize("batching", [False, True])
def test_rejected_update_burns_no_tag(batching):
    # (empty value, an op that value rejects, an op it takes)
    cases = [
        (GCounter.zero(3), UpdateOp.set_add(b"x"), UpdateOp.increment()),  # wrong crdt
        (GSet.empty(3), UpdateOp("set_add", None), UpdateOp.set_add(b"x")),  # no element
        (GCounter.zero(3), UpdateOp("decrement"), UpdateOp.increment()),  # unknown kind
    ]
    for initial, bad, good in cases:
        r = Replica(1, ProtocolConfig(n_replicas=3, batching=batching), initial)
        failed = r.step(Request(1, client_req_id(1), bad))
        assert not failed.replies[0][1].ok, bad
        out = r.step(Request(1, client_req_id(2), good))
        req_id = sends_by_type(out, Merge)[0][1].request_id
        reply = r.step(Merged(sender=2, request_id=req_id)).replies[0][1]
        assert reply.ok and reply.tag == (1, 1), bad


def test_payload_claiming_unissued_local_updates_is_refused():
    config = ProtocolConfig(n_replicas=3)
    r = Replica(2, config, GCounter.zero(3))
    before = r.state
    forged = GCounter((0, 1, 0))  # (2, 1) was never issued
    for msg in (
        Merge(1, REQ, forged),
        Prepare(1, REQ, 1, forged),
        Ack(1, REQ, 1, forged),  # refused even for a request it never made
    ):
        with pytest.raises(PayloadRejected):
            r.step(msg)
    with pytest.raises(ShapeError):
        r.step(Merge(1, REQ, GCounter.zero(2)))
    assert r.state == before
    # once (2, 1) is issued here, the same payload is an ordinary merge
    out = r.step(Request(1, client_req_id(1), UpdateOp.increment()))
    assert sends_by_type(out, Merge)
    assert r.step(Merge(1, REQ, forged)).sends == [(1, Merged(2, REQ))]
    # from outside the cluster, a forged payload is dropped before it is read
    assert r.step(Merge(17, REQ, GCounter((0, 9, 0)))).sends == []


def test_a_restart_with_amnesia_reuses_a_tag_and_the_checker_names_both():
    # a replica that restarts with an empty payload forgets the tags it
    # issued: its earlier life's (3, 1) = x has spread, and the fresh one
    # issues (3, 1) = y
    config = ProtocolConfig(n_replicas=3)
    peers = {rid: Replica(rid, config, GSet.empty(3)) for rid in (1, 2)}
    earlier = Replica(3, config, GSet.empty(3))
    out = earlier.step(Request(7, client_req_id(1), UpdateOp.set_add(b"x")))
    merge_x = sends_by_type(out, Merge)[0][1]
    for r in peers.values():
        r.step(merge_x)
    [(_, reply_x)] = earlier.step(Merged(1, merge_x.request_id)).replies
    fresh = Replica(3, config, GSet.empty(3))
    # the fresh replica refuses the peers' payloads, which claim a tag of its
    # own that it has not issued
    for rid, r in peers.items():
        for msg in (Merge(rid, REQ, r.state), Prepare(rid, REQ, 1, r.state)):
            with pytest.raises(PayloadRejected):
                fresh.step(msg)
    assert fresh.state == GSet.empty(3)
    out = fresh.step(Request(7, client_req_id(2), UpdateOp.set_add(b"y")))
    merge_y = sends_by_type(out, Merge)[0][1]
    assert merge_y.state == GSet(frozenset({b"y"}), (0, 0, 1))
    # a peer holds the same frontier, so under frontier order the two are
    # one state: its merge keeps its own elements, and y is lost there
    held = peers[1].state
    assert peers[1].step(merge_y).sends == [(3, Merged(1, merge_y.request_id))]
    assert peers[1].state is held and held.elements == {b"x"}
    [(_, reply_y)] = fresh.step(Merged(1, merge_y.request_id)).replies
    assert reply_x.tag == reply_y.tag == (3, 1)
    # the recorded history stays loud: validity names both updates of (3, 1)
    history = []
    for op_id, (element, reply) in enumerate(((b"x", reply_x), (b"y", reply_y)), 1):
        rec = OpRecord(
            op_id=op_id, client=7, replica=3, kind="update",
            op=UpdateOp.set_add(element), invoke_t=10 * op_id,
        )
        record_reply(rec, reply, 10 * op_id + 1)
        history.append(rec)
    verdict = check_validity(history)
    assert not verdict.passed and verdict.witness.op_ids == (1, 2)
    assert "(3, 1)" in verdict.witness.message


def test_unknown_event_is_a_protocol_error():
    r = make_replica()
    for event in (UpdateOp.increment(), "merge", None):
        with pytest.raises(ProtocolError):
            r.step(event)


# ---------------------------------------------------------------- runtime contract


class _Handle:
    def __init__(self, delay):
        self.delay = delay
        self.cancelled = False


class _FakeRuntime(Runtime):
    """Records each hook call in order; its timers never fire on their own."""

    timeout = 7
    round_trip = 3

    def __init__(self):
        self.timers = {}
        self.calls = []

    def schedule(self, rid, delay, request_id):
        handle = _Handle(delay)
        self.calls.append(("schedule", request_id, handle))
        return handle

    def unschedule(self, handle):
        handle.cancelled = True
        self.calls.append(("unschedule", handle))

    def send(self, src, dst, msg):
        self.calls.append(("send", src, dst, msg))

    def answer(self, request_id, reply):
        self.calls.append(("answer", request_id, reply))

    def fire(self, replica, request_id):
        del self.timers[request_id]
        return self.route(replica, TimerFire(request_id))


def test_runtime_rearming_a_timer_cancels_the_one_before_and_sizes_it():
    rt, r = _FakeRuntime(), make_replica(rid=1, n=3, issued=1)
    rt.route(r, Request(9, client_req_id(90), QueryCommand.counter_value()))
    [(req_id, loss)] = rt.timers.items()
    assert loss.delay == rt.timeout
    rt.route(r, Ack(1, req_id, 1, GCounter((1, 0, 0))))
    rt.route(r, Ack(2, req_id, 1, GCounter((0, 1, 0))))  # a disagreeing quorum
    backoff = rt.timers[req_id]
    assert loss.cancelled and not backoff.cancelled
    assert backoff.delay == (0 + 2) * rt.round_trip
    rt.fire(r, req_id)  # prepares again under a fresh loss timer
    assert rt.timers[req_id].delay == rt.timeout and not backoff.cancelled
    rt.route(r, Ack(1, req_id, 2, GCounter((1, 1, 0))))
    rt.route(r, Ack(2, req_id, 2, GCounter((1, 2, 0))))
    assert rt.timers[req_id].delay == (1 + 2) * rt.round_trip  # back-off 1


def test_runtime_cancels_a_timer_when_a_reply_ends_its_request():
    rt, r = _FakeRuntime(), make_replica(rid=1, n=3)
    rt.route(r, Request(9, client_req_id(90), QueryCommand.counter_value()))
    [(req_id, loss)] = rt.timers.items()
    rt.route(r, Ack(1, req_id, 1, GCounter((0, 1, 0))))
    rt.route(r, Ack(2, req_id, 1, GCounter((0, 1, 0))))
    assert loss.cancelled and rt.timers == {} and r.requests == {}
    # a one-replica update ends within its first step, timer and all
    rt, r = _FakeRuntime(), make_replica(rid=1, n=1)
    rt.route(r, Request(1, client_req_id(1), UpdateOp.increment()))
    assert [call[0] for call in rt.calls] == ["schedule", "answer", "unschedule"]
    assert rt.calls[0][2].cancelled and rt.timers == {} and r.requests == {}


def test_runtime_applies_timers_then_sends_then_replies():
    # a finished batch hands over to the next in one step, whose first op a
    # set rejects: the step replies to both batches but only the first ends
    rt = _FakeRuntime()
    r = Replica(1, ProtocolConfig(n_replicas=3, batching=True), GSet.empty(3))
    rt.route(r, Request(1, client_req_id(1), UpdateOp.set_add(b"a")))
    [(first, first_timer)] = rt.timers.items()
    rt.route(r, Request(1, client_req_id(2), UpdateOp.increment()))
    rt.route(r, Request(1, client_req_id(3), UpdateOp.set_add(b"c")))
    rt.calls.clear()
    out = rt.route(r, Merged(2, first))
    assert [dst for dst, _ in out.sends] == [2, 3] and len(out.replies) == 2
    [second] = r.requests
    assert [call[0] for call in rt.calls] == [
        "schedule", "send", "send", "answer", "unschedule", "answer"
    ]
    assert rt.calls[4] == ("unschedule", first_timer) and first_timer.cancelled
    assert rt.calls[5][1] == second and not rt.timers[second].cancelled
    assert [call[1] for call in rt.calls if call[0] == "answer"] == [first, second]


def test_both_runtimes_route_through_the_one_contract():
    assert Simulation.route is Runtime.route and ReplicaDaemon.route is Runtime.route
    # so the timer-duration rule lives in protocol.py alone
    src = Path(crdtlin.__file__).parent
    naming = sorted(p.name for p in src.glob("*.py") if "backoff" in p.read_text())
    assert naming == ["protocol.py"]
