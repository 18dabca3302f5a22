"""Handler-level protocol tests.

Each scenario drives a single replica (or a bare acceptor) with hand-built
messages and checks the exact outputs. Expected states were worked out by
hand on lattices small enough to eyeball.
"""

from __future__ import annotations

import pytest

from crdtlin.crdt import CausalTaggedState, GCounter, QueryCommand, ShapeError, UpdateCommand
from crdtlin.messages import (
    BOTTOM_ID,
    BOTTOM_NR,
    Ack,
    Merge,
    Merged,
    Nack,
    Prepare,
    Round,
    UpdateOp,
    Vote,
    Voted,
    incremental_round,
)
from crdtlin.protocol import (
    Acceptor,
    ClientQuery,
    ClientUpdate,
    PayloadRejected,
    ProtocolConfig,
    ProtocolError,
    Replica,
    TimerFire,
)

X = (1, 2)  # some previously issued round ids
Y = (2, 3)
Z = (3, 1)

REQ = b"\x00" * 15 + b"\x01"


def make_replica(rid=1, n=3, batching=False, max_retries=50, width=None):
    config = ProtocolConfig(n_replicas=n, batching=batching, max_retries=max_retries)
    return Replica(rid, config, GCounter.zero(width or n))


def sends_by_type(out, cls):
    return [(dst, m) for dst, m in out.sends if isinstance(m, cls)]


# ---------------------------------------------------------------- acceptor


def test_acceptor_starts_at_round_zero_bottom():
    a = Acceptor(1, GCounter.zero(2))
    assert a.round == Round(0, BOTTOM_ID)


def test_apply_update_inflates_and_blanks_round_id():
    a = Acceptor(1, GCounter((1, 0)))
    a.round = Round(3, X)
    s = a.apply_update(UpdateCommand.increment(0, (1, 1)))
    assert s == GCounter((2, 0))
    assert a.round == Round(3, BOTTOM_ID)


def test_merge_folds_payload_and_blanks_round_id():
    a = Acceptor(2, GCounter((1, 0, 2)))
    a.round = Round(2, X)
    reply = a.on_merge(Merge(sender=1, request_id=REQ, state=GCounter((0, 3, 2))))
    assert a.state == GCounter((1, 3, 2))
    assert a.round == Round(2, BOTTOM_ID)
    assert reply == Merged(sender=2, request_id=REQ)


def test_duplicate_merge_is_idempotent_but_still_answered():
    a = Acceptor(2, GCounter.zero(3))
    m = Merge(sender=1, request_id=REQ, state=GCounter((1, 0, 0)))
    first = a.on_merge(m)
    state_after = a.state
    second = a.on_merge(m)
    assert a.state == state_after
    assert first == second == Merged(sender=2, request_id=REQ)


def test_incremental_prepare_always_accepted():
    a = Acceptor(1, GCounter((1, 0)))
    a.round = Round(2, X)
    reply = a.on_prepare(Prepare(2, REQ, incremental_round(Y), GCounter((0, 1))))
    assert a.round == Round(3, Y)
    assert a.state == GCounter((1, 1))
    assert reply == Ack(1, REQ, Round(3, Y), GCounter((1, 1)))


def test_fixed_prepare_below_current_round_refused():
    a = Acceptor(1, GCounter((1, 0)))
    a.round = Round(2, X)
    reply = a.on_prepare(Prepare(2, REQ, Round(1, Z), GCounter.zero(2)))
    assert isinstance(reply, Nack)
    # the refusal carries the acceptor's round and payload, plus which
    # prepare it refused
    assert reply.round == Round(2, X)
    assert reply.state == GCounter((1, 0))
    assert reply.reject_id == Z
    assert a.round == Round(2, X)


def test_fixed_prepare_at_equal_number_refused():
    a = Acceptor(1, GCounter.zero(2))
    a.round = Round(2, X)
    reply = a.on_prepare(Prepare(2, REQ, Round(2, Z), GCounter.zero(2)))
    assert isinstance(reply, Nack)


def test_fixed_prepare_above_current_round_accepted():
    a = Acceptor(1, GCounter((1, 0)))
    a.round = Round(2, X)
    reply = a.on_prepare(Prepare(2, REQ, Round(5, Z), GCounter((1, 0))))
    assert a.round == Round(5, Z)
    assert reply == Ack(1, REQ, Round(5, Z), GCounter((1, 0)))


def test_refused_prepare_payload_still_merged():
    a = Acceptor(1, GCounter((1, 0)))
    a.round = Round(4, X)
    a.on_prepare(Prepare(2, REQ, Round(1, Z), GCounter((0, 7))))
    assert a.state == GCounter((1, 7))


def test_vote_on_matching_round_succeeds():
    a = Acceptor(1, GCounter((1, 0)))
    a.round = Round(3, Y)
    reply = a.on_vote(Vote(2, REQ, Round(3, Y), GCounter((1, 1))))
    assert reply == Voted(1, REQ, Round(3, Y))
    assert GCounter((1, 1)).compare(a.state)


def test_vote_after_invalidation_refused():
    a = Acceptor(1, GCounter((1, 1)))
    a.round = Round(3, Y)
    a.apply_update(UpdateCommand.increment(0, (1, 1)))  # blanks the round id
    assert a.round == Round(3, BOTTOM_ID)
    reply = a.on_vote(Vote(2, REQ, Round(3, Y), GCounter((1, 1))))
    assert isinstance(reply, Nack)
    assert reply.reject_id == Y


def test_vote_on_stale_round_refused_but_payload_kept():
    a = Acceptor(1, GCounter((0, 0)))
    a.round = Round(4, Z)
    reply = a.on_vote(Vote(2, REQ, Round(3, Y), GCounter((1, 1))))
    assert isinstance(reply, Nack)
    assert reply.round == Round(4, Z)
    assert a.state == GCounter((1, 1))


def test_merge_without_new_state_still_invalidates_the_round():
    # even a no-op merge signals concurrent update traffic; pending votes
    # must re-check rather than attest a state they did not re-read
    a = Acceptor(1, GCounter((3, 1)))
    a.round = Round(4, Z)
    a.on_merge(Merge(2, REQ, GCounter((3, 0))))
    assert a.round == Round(4, BOTTOM_ID)
    assert a.state == GCounter((3, 1))


def test_vote_needs_full_round_equality():
    a = Acceptor(1, GCounter.zero(2))
    a.round = Round(3, Y)
    reply = a.on_vote(Vote(2, REQ, Round(3, Z), GCounter.zero(2)))
    assert isinstance(reply, Nack)


# ---------------------------------------------------------------- round ids


def test_round_ids_unique_and_increasing():
    r = make_replica()
    a = r.new_round_id()
    b = r.new_round_id()
    assert a == (1, 1) and b == (2, 1)
    assert a < b


def test_round_ids_distinct_across_processes():
    seen = set()
    replicas = [make_replica(rid=i, n=5) for i in range(1, 6)]
    for _ in range(200):
        for rep in replicas:
            rid = rep.new_round_id()
            assert rid not in seen
            assert rid != BOTTOM_ID
            seen.add(rid)
    assert len(seen) == 1000


# ---------------------------------------------------------------- proposer: updates


def test_client_update_applies_locally_then_merges():
    r = make_replica(rid=1, n=3)
    out = r.step(ClientUpdate(UpdateOp.increment(), client=7, token=70))
    assert r.acceptor.state == GCounter((1, 0, 0))
    merges = sends_by_type(out, Merge)
    assert [dst for dst, _ in merges] == [2, 3]
    assert all(m.state == GCounter((1, 0, 0)) for _, m in merges)
    assert out.replies == []
    assert len(out.timers) == 1


def test_update_completes_on_merge_quorum():
    r = make_replica(rid=1, n=3)
    out = r.step(ClientUpdate(UpdateOp.increment(), client=7, token=70))
    req_id = sends_by_type(out, Merge)[0][1].request_id
    out2 = r.step(Merged(sender=2, request_id=req_id))
    assert len(out2.replies) == 1
    reply = out2.replies[0]
    assert reply.ok and reply.kind == "update" and reply.token == 70
    assert reply.tag == (1, 1)
    assert reply.round_trips == 1
    assert req_id not in r.requests


def test_duplicate_merged_counted_once():
    r = make_replica(rid=1, n=5)
    out = r.step(ClientUpdate(UpdateOp.increment(), client=1, token=1))
    req_id = sends_by_type(out, Merge)[0][1].request_id
    assert r.step(Merged(sender=2, request_id=req_id)).replies == []
    assert r.step(Merged(sender=2, request_id=req_id)).replies == []  # same acceptor
    assert r.step(Merged(sender=3, request_id=req_id)).replies != []  # quorum of 3


def test_late_merged_after_completion_dropped():
    r = make_replica(rid=1, n=3)
    out = r.step(ClientUpdate(UpdateOp.increment(), client=1, token=1))
    req_id = sends_by_type(out, Merge)[0][1].request_id
    r.step(Merged(sender=2, request_id=req_id))
    assert r.step(Merged(sender=3, request_id=req_id)).replies == []


def test_update_timeout_resends_to_silent_acceptors_only():
    r = make_replica(rid=1, n=3)
    out = r.step(ClientUpdate(UpdateOp.increment(), client=1, token=1))
    req_id = sends_by_type(out, Merge)[0][1].request_id
    timer = out.timers[0]
    r.step(Merged(sender=2, request_id=req_id))  # not yet a reply-quorum... 2 of 3 is
    # quorum already met with self + 2; rebuild a fresh scenario for N=5
    r = make_replica(rid=1, n=5)
    out = r.step(ClientUpdate(UpdateOp.increment(), client=1, token=1))
    req_id = sends_by_type(out, Merge)[0][1].request_id
    timer = out.timers[0]
    r.step(Merged(sender=2, request_id=req_id))
    out2 = r.step(TimerFire(req_id, timer.generation))
    resent = sends_by_type(out2, Merge)
    assert sorted(dst for dst, _ in resent) == [3, 4, 5]
    assert out2.retries and out2.retries[0].kind == "merge-resend"
    assert r.requests[req_id].round_trips == 2


def test_stale_timer_generation_ignored():
    r = make_replica(rid=1, n=5)
    out = r.step(ClientUpdate(UpdateOp.increment(), client=1, token=1))
    req_id = sends_by_type(out, Merge)[0][1].request_id
    old = out.timers[0].generation
    out2 = r.step(TimerFire(req_id, old))  # arms generation old+1
    assert out2.timers[0].generation == old + 1
    assert r.step(TimerFire(req_id, old)).sends == []


# ---------------------------------------------------------------- proposer: queries


def start_query(r, client=9, token=90):
    out = r.step(ClientQuery(QueryCommand.counter_value(), client=client, token=token))
    prepares = sends_by_type(out, Prepare)
    assert [dst for dst, _ in prepares] == list(range(1, r.config.n_replicas + 1))
    msg = prepares[0][1]
    assert msg.round.nr == BOTTOM_NR  # first attempt is always incremental
    return msg.request_id, msg.round.rid, out


def test_query_prepare_carries_local_payload():
    r = make_replica(rid=2, n=3)
    r.acceptor.state = GCounter((0, 4, 0))
    _, _, out = start_query(r)
    assert all(m.state == GCounter((0, 4, 0)) for _, m in sends_by_type(out, Prepare))


def test_concurrent_queries_use_distinct_round_ids():
    r = make_replica(rid=1, n=3)
    _, rid_a, _ = start_query(r, token=1)
    _, rid_b, _ = start_query(r, token=2)
    assert rid_a != rid_b


def test_consistent_quorum_completes_in_one_round():
    r = make_replica(rid=1, n=3)
    req_id, rid, _ = start_query(r)
    s = GCounter((1, 1, 0))
    assert r.step(Ack(1, req_id, Round(3, rid), s)).replies == []
    out = r.step(Ack(2, req_id, Round(3, rid), s))
    assert len(out.replies) == 1
    reply = out.replies[0]
    assert reply.ok and reply.result == 2 and reply.round_trips == 1


def test_equal_rounds_unequal_states_trigger_vote():
    r = make_replica(rid=1, n=3)
    req_id, rid, _ = start_query(r)
    r.step(Ack(1, req_id, Round(3, rid), GCounter((1, 0, 0))))
    out = r.step(Ack(2, req_id, Round(3, rid), GCounter((0, 1, 0))))
    votes = sends_by_type(out, Vote)
    assert [dst for dst, _ in votes] == [1, 2, 3]
    assert all(m.round == Round(3, rid) and m.state == GCounter((1, 1, 0)) for _, m in votes)
    assert r.requests[req_id].phase == "voting"
    assert r.requests[req_id].proposed == GCounter((1, 1, 0))
    assert r.requests[req_id].round_trips == 2


def test_vote_quorum_learns_proposed_state():
    r = make_replica(rid=1, n=3)
    req_id, rid, _ = start_query(r)
    r.step(Ack(1, req_id, Round(3, rid), GCounter((1, 0, 0))))
    r.step(Ack(2, req_id, Round(3, rid), GCounter((0, 1, 0))))
    assert r.step(Voted(1, req_id, Round(3, rid))).replies == []
    out = r.step(Voted(2, req_id, Round(3, rid)))
    assert out.replies[0].result == 2
    assert out.replies[0].round_trips == 2


def test_mixed_rounds_trigger_fixed_prepare_with_lub():
    r = make_replica(rid=1, n=3)
    req_id, rid, _ = start_query(r)
    r.step(Ack(1, req_id, Round(3, rid), GCounter((1, 0, 0))))
    out = r.step(Ack(2, req_id, Round(4, rid), GCounter((0, 1, 0))))
    prepares = sends_by_type(out, Prepare)
    assert [dst for dst, _ in prepares] == [1, 2, 3]
    msg = prepares[0][1]
    assert msg.round.nr == 5  # one past the highest seen
    assert msg.round.rid != rid  # fresh attempt id
    assert msg.state == GCounter((1, 1, 0))
    assert out.retries and out.retries[0].kind == "fixed"
    assert r.requests[req_id].round_trips == 2


def test_nack_restarts_with_incremental_prepare_and_gathered_lub():
    r = make_replica(rid=1, n=3)
    req_id, rid, _ = start_query(r)
    r.step(Ack(1, req_id, Round(3, rid), GCounter((1, 0, 0))))
    out = r.step(
        Nack(2, req_id, Round(4, Z), GCounter((0, 3, 0)), reject_id=rid)
    )
    prepares = sends_by_type(out, Prepare)
    assert len(prepares) == 3
    msg = prepares[0][1]
    assert msg.round.nr == BOTTOM_NR
    assert msg.state == GCounter((1, 3, 0))  # LUB of everything received
    assert out.retries[0].kind == "incremental"
    assert r.requests[req_id].retries == 1


def test_nack_during_vote_phase_restarts_prepare():
    r = make_replica(rid=1, n=3)
    req_id, rid, _ = start_query(r)
    r.step(Ack(1, req_id, Round(3, rid), GCounter((1, 0, 0))))
    r.step(Ack(2, req_id, Round(3, rid), GCounter((0, 1, 0))))
    assert r.requests[req_id].phase == "voting"
    out = r.step(Nack(3, req_id, Round(4, Z), GCounter((0, 0, 2)), reject_id=rid))
    assert r.requests[req_id].phase == "preparing"
    assert r.requests[req_id].proposed is None
    msg = sends_by_type(out, Prepare)[0][1]
    assert msg.state == GCounter((1, 1, 2))


def test_stale_ack_only_feeds_the_gathered_lub():
    r = make_replica(rid=1, n=3)
    req_id, rid, _ = start_query(r)
    r.step(Nack(3, req_id, Round(9, Z), GCounter((0, 0, 1)), reject_id=rid))
    new_rid = r.requests[req_id].round.rid
    assert new_rid != rid
    # ack for the abandoned attempt: remembered as payload, not as a vote
    r.step(Ack(1, req_id, Round(3, rid), GCounter((5, 0, 0))))
    assert r.requests[req_id].acks == {}
    assert r.requests[req_id].gathered == GCounter((5, 0, 1))


def test_stale_voted_ignored():
    r = make_replica(rid=1, n=3)
    req_id, rid, _ = start_query(r)
    r.step(Ack(1, req_id, Round(3, rid), GCounter((1, 0, 0))))
    r.step(Ack(2, req_id, Round(3, rid), GCounter((0, 1, 0))))
    r.step(Voted(1, req_id, Round(3, rid)))
    # the vote aborts; a new attempt begins
    r.step(Nack(3, req_id, Round(4, Z), GCounter.zero(3), reject_id=rid))
    new_rid = r.requests[req_id].round.rid
    r.step(Ack(1, req_id, Round(5, new_rid), GCounter((1, 1, 0))))
    r.step(Ack(2, req_id, Round(5, new_rid), GCounter((1, 1, 1))))
    assert r.requests[req_id].phase == "voting"
    # stale voted from the first vote round must not count now
    out = r.step(Voted(1, req_id, Round(3, rid)))
    assert out.replies == []
    assert r.requests[req_id].voted == set()


def test_stale_nack_does_not_retrigger_retry():
    r = make_replica(rid=1, n=3)
    req_id, rid, _ = start_query(r)
    r.step(Nack(2, req_id, Round(4, Z), GCounter((0, 1, 0)), reject_id=rid))
    retries_after_first = r.requests[req_id].retries
    out = r.step(Nack(3, req_id, Round(4, Z), GCounter((0, 0, 1)), reject_id=rid))
    assert r.requests[req_id].retries == retries_after_first
    assert out.sends == []
    assert r.requests[req_id].gathered == GCounter((0, 1, 1))


def test_query_timeout_retries_incrementally():
    r = make_replica(rid=1, n=3)
    req_id, rid, out0 = start_query(r)
    timer = out0.timers[0]
    out = r.step(TimerFire(req_id, timer.generation))
    msg = sends_by_type(out, Prepare)[0][1]
    assert msg.round.nr == BOTTOM_NR
    assert msg.round.rid != rid
    assert out.retries[0].kind == "incremental"


def test_max_retries_fails_the_request():
    r = make_replica(rid=1, n=3, max_retries=2)
    req_id, rid, out = start_query(r, client=4, token=40)
    for _ in range(2):
        gen = out.timers[-1].generation if out.timers else None
        out = r.step(TimerFire(req_id, gen))
    gen = out.timers[-1].generation
    out = r.step(TimerFire(req_id, gen))
    assert len(out.replies) == 1
    reply = out.replies[0]
    assert not reply.ok and reply.reason == "max-retries" and reply.token == 40
    assert req_id not in r.requests


def test_replies_to_unknown_request_ids_dropped():
    r = make_replica(rid=1, n=3)
    ghost = b"\x99" * 16
    assert r.step(Ack(2, ghost, Round(1, X), GCounter.zero(3))).sends == []
    assert r.step(Merged(2, ghost)).replies == []
    assert r.step(Voted(2, ghost, Round(1, X))).replies == []
    assert r.step(Nack(2, ghost, Round(1, X), GCounter.zero(3), reject_id=X)).sends == []


def test_senders_outside_the_cluster_ignored():
    r = make_replica(rid=1, n=3)
    req_id, rid, _ = start_query(r)
    r.step(Ack(17, req_id, Round(3, rid), GCounter.zero(3)))
    assert r.requests[req_id].acks == {}
    # a refusal from outside the cluster neither feeds the LUB nor starts a retry
    out = r.step(Nack(17, req_id, Round(4, Z), GCounter((0, 0, 5)), reject_id=rid))
    assert out.sends == [] and out.retries == []
    assert r.requests[req_id].retries == 0
    assert r.requests[req_id].round.rid == rid
    assert r.requests[req_id].gathered == GCounter.zero(3)


def test_learned_state_attached_only_when_exposed():
    # every query reply carries its learned state; the daemon decides what
    # reaches the client (a tagged state only)
    r = make_replica(rid=1, n=3)
    req_id, rid, _ = start_query(r)
    s = GCounter((2, 0, 0))
    r.step(Ack(1, req_id, Round(1, rid), s))
    out = r.step(Ack(2, req_id, Round(1, rid), s))
    assert out.replies[0].learned == s


# ---------------------------------------------------------------- batching


def test_updates_buffered_while_batch_in_flight():
    r = make_replica(rid=1, n=3, batching=True)
    out = r.step(ClientUpdate(UpdateOp.increment(), client=0, token=0))
    first_req = sends_by_type(out, Merge)[0][1].request_id
    # ten more arrive while the first batch is still merging
    for i in range(1, 11):
        out_i = r.step(ClientUpdate(UpdateOp.increment(), client=i, token=i))
        assert out_i.sends == []
    out_done = r.step(Merged(sender=2, request_id=first_req))
    assert [rep.token for rep in out_done.replies] == [0]
    merges = sends_by_type(out_done, Merge)
    # the queued ten apply locally as one batch and ship in one merge round
    assert len(merges) == 2
    assert all(m.state == GCounter((11, 0, 0)) for _, m in merges)
    second_req = merges[0][1].request_id
    out_done2 = r.step(Merged(sender=3, request_id=second_req))
    assert sorted(rep.token for rep in out_done2.replies) == list(range(1, 11))
    assert all(rep.round_trips == 1 for rep in out_done2.replies)


def test_queries_batch_and_share_one_learned_state():
    r = make_replica(rid=1, n=3, batching=True)
    out = r.step(ClientQuery(QueryCommand.counter_value(), client=0, token=0))
    first_req = sends_by_type(out, Prepare)[0][1].request_id
    first_rid = sends_by_type(out, Prepare)[0][1].round.rid
    for i in range(1, 4):
        assert r.step(ClientQuery(QueryCommand.counter_value(), client=i, token=i)).sends == []
    s = GCounter((3, 0, 0))
    r.step(Ack(1, first_req, Round(1, first_rid), s))
    out_done = r.step(Ack(2, first_req, Round(1, first_rid), s))
    assert [rep.token for rep in out_done.replies] == [0]
    # completion flushes the waiting three as a single new request
    next_prepares = sends_by_type(out_done, Prepare)
    assert len(next_prepares) == 3
    second_req = next_prepares[0][1].request_id
    second_rid = next_prepares[0][1].round.rid
    r.step(Ack(1, second_req, Round(2, second_rid), s))
    out2 = r.step(Ack(3, second_req, Round(2, second_rid), s))
    assert sorted(rep.token for rep in out2.replies) == [1, 2, 3]
    assert all(rep.result == 3 for rep in out2.replies)


def test_update_and_query_batches_run_independently():
    r = make_replica(rid=1, n=3, batching=True)
    out_u = r.step(ClientUpdate(UpdateOp.increment(), client=0, token=0))
    out_q = r.step(ClientQuery(QueryCommand.counter_value(), client=1, token=1))
    assert sends_by_type(out_u, Merge)
    assert sends_by_type(out_q, Prepare)


def test_single_replica_batch_does_not_wedge():
    r = make_replica(rid=1, n=1, batching=True, width=1)
    out = r.step(ClientUpdate(UpdateOp.increment(), client=0, token=0))
    assert out.replies and out.replies[0].ok
    out2 = r.step(ClientUpdate(UpdateOp.increment(), client=0, token=1))
    assert out2.replies and out2.replies[0].ok
    assert r.acceptor.state == GCounter((2,))


# ---------------------------------------------------------------- invariants


def test_one_vote_broadcast_per_request_round():
    r = make_replica(rid=1, n=3)
    req_id, rid, _ = start_query(r)
    r.step(Ack(1, req_id, Round(3, rid), GCounter((1, 0, 0))))
    out = r.step(Ack(2, req_id, Round(3, rid), GCounter((0, 1, 0))))
    first_votes = {(m.request_id, m.round) for _, m in sends_by_type(out, Vote)}
    assert len(first_votes) == 1
    # a late ack for the same attempt must not re-broadcast the vote
    out2 = r.step(Ack(3, req_id, Round(3, rid), GCounter((0, 0, 1))))
    assert sends_by_type(out2, Vote) == []


def test_proposed_state_set_exactly_in_voting_phase():
    r = make_replica(rid=1, n=3)
    req_id, rid, _ = start_query(r)
    assert r.requests[req_id].proposed is None
    r.step(Ack(1, req_id, Round(3, rid), GCounter((1, 0, 0))))
    r.step(Ack(2, req_id, Round(3, rid), GCounter((0, 1, 0))))
    assert r.requests[req_id].phase == "voting"
    assert r.requests[req_id].proposed is not None


@pytest.mark.parametrize("batching", [False, True])
def test_bad_command_against_cluster_type_fails_cleanly(batching):
    r = make_replica(rid=1, n=3, batching=batching)
    out = r.step(ClientUpdate(UpdateOp.set_add(b"x"), client=1, token=1))
    assert len(out.replies) == 1 and not out.replies[0].ok
    assert out.sends == []
    assert r.requests == {}
    # a batch with no valid op leaves nothing in flight: the next update ships at once
    out = r.step(ClientUpdate(UpdateOp.increment(), client=1, token=2))
    assert [dst for dst, _ in sends_by_type(out, Merge)] == [2, 3]


@pytest.mark.parametrize("tagged", [False, True])
def test_rejected_update_burns_no_tag(tagged):
    initial = GCounter.zero(3)
    if tagged:
        initial = CausalTaggedState.initial(initial, 3)
    r = Replica(1, ProtocolConfig(n_replicas=3), initial)
    failed = r.step(ClientUpdate(UpdateOp.set_add(b"x"), client=1, token=1))
    assert not failed.replies[0].ok
    out = r.step(ClientUpdate(UpdateOp.increment(), client=1, token=2))
    req_id = sends_by_type(out, Merge)[0][1].request_id
    reply = r.step(Merged(sender=2, request_id=req_id)).replies[0]
    assert reply.ok and reply.tag == (1, 1)


def test_payload_claiming_unissued_local_updates_is_refused():
    config = ProtocolConfig(n_replicas=3)
    r = Replica(2, config, CausalTaggedState.initial(GCounter.zero(3), 3))
    before = r.acceptor.state
    forged = CausalTaggedState(GCounter((0, 1, 0)), (0, 1, 0))  # (2, 1) was never issued
    for msg in (
        Merge(1, REQ, forged),
        Prepare(1, REQ, incremental_round(X), forged),
        Vote(1, REQ, Round(1, X), forged),
        Ack(1, REQ, Round(1, X), forged),  # refused even for a request it never made
        Nack(1, REQ, Round(1, X), forged, X),
    ):
        with pytest.raises(PayloadRejected):
            r.step(msg)
    with pytest.raises(ShapeError):
        r.step(Merge(1, REQ, CausalTaggedState.initial(GCounter.zero(3), 2)))
    assert r.acceptor.state == before and r.acceptor.round == Round(0, BOTTOM_ID)
    # once (2, 1) is issued here, the same payload is an ordinary merge
    out = r.step(ClientUpdate(UpdateOp.increment(), client=1, token=1))
    assert sends_by_type(out, Merge)
    assert r.step(Merge(1, REQ, forged)).sends == [(1, Merged(2, REQ))]


def test_unknown_event_is_a_protocol_error():
    r = make_replica()
    for event in (UpdateOp.increment(), "merge", None):
        with pytest.raises(ProtocolError):
            r.step(event)
