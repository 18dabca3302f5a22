"""Checker tests: constructed violations for each safety condition, witness
minimality, the explicit-order construction, and cross-validation of
linearize() against the exhaustive oracle on random small histories.

Queries are built with the frontier they learned: ``(2, 0, 1)`` names the
tags (1, 1), (1, 2) and (3, 1).

The oracle and linearize() share no machinery, so agreement between them on
arbitrary histories (safe and corrupt alike) is strong evidence both are
right. For tag-exact histories the five safety conditions are not merely
sufficient for linearizability but equivalent to it: each kind of violation
directly contradicts every candidate total order, which is why the
agreement test may treat "some check failed" and "no legal order exists"
as the same verdict.
"""

import random

import pytest

from crdtlin.checker import (
    CheckError,
    PreconditionFailed,
    UnsupportedInput,
    check_all,
    check_consistency,
    check_results,
    check_stability,
    check_update_stability,
    check_update_visibility,
    check_validity,
    linearize,
    linearizability_oracle,
)
from crdtlin import crdt
from crdtlin.crdt import GSet, QueryCommand, UpdateOp
from crdtlin.history import OpRecord
from crdtlin.sim import SimConfig, sim_run


def u(op_id, inv, resp, tag, outcome="ok", client=0):
    return OpRecord(
        op_id=op_id, client=client, replica=1, kind="update",
        op=UpdateOp.increment(), invoke_t=inv, tag=tag,
        response_t=resp, outcome=outcome,
    )


def q(op_id, inv, resp, frontier, outcome="ok", client=0):
    return OpRecord(
        op_id=op_id, client=client, replica=1, kind="query",
        op=QueryCommand.counter_value(), invoke_t=inv, response_t=resp,
        outcome=outcome, learned_frontier=frontier,
    )


def retriggers(check, history, verdict):
    assert not verdict.passed
    wanted = set(verdict.witness.op_ids)
    again = check([rec for rec in history if rec.op_id in wanted])
    assert not again.passed, "witness alone must reproduce the violation"


# ------------------------------------------------------------------ validity


def test_empty_history_passes_everything():
    for verdict in check_all([]).values():
        assert verdict.passed
    assert linearize([]).order == ()
    assert linearizability_oracle([])


def test_validity_rejects_never_invoked_tag():
    # the frontier reaches one past origin 1's last update
    history = [u(1, 0, 5, (1, 1)), q(2, 10, 20, (2, 0, 0))]
    verdict = check_validity(history)
    retriggers(check_validity, history, verdict)
    assert "(1, 2)" in verdict.witness.message


def test_validity_rejects_tag_learned_before_its_invocation():
    history = [q(1, 0, 10, (1, 0, 0)), u(2, 50, 60, (1, 1))]
    verdict = check_validity(history)
    retriggers(check_validity, history, verdict)
    assert set(verdict.witness.op_ids) == {1, 2}


def test_validity_accepts_pending_update_whose_tag_leaked():
    # the update never finished, but it was invoked before the learn
    history = [u(1, 0, None, (1, 1), outcome=None), q(2, 10, 20, (1, 0, 0))]
    assert check_validity(history).passed


def test_validity_rejects_two_updates_with_one_tag():
    # two increments were made, but one tag cannot tell them apart
    history = [u(1, 0, 10, (1, 1)), u(2, 20, 30, (1, 1)), q(3, 40, 50, (1, 0, 0))]
    verdict = check_validity(history)
    retriggers(check_validity, history, verdict)
    assert verdict.witness.op_ids == (1, 2)
    with pytest.raises(PreconditionFailed) as exc:
        linearize(history)
    assert exc.value.verdict.condition == "validity"


def test_validity_rejects_frontiers_of_different_widths():
    history = [u(1, 0, 5, (1, 1)), q(2, 10, 20, (1, 0, 0)), q(3, 30, 40, (1, 0))]
    verdict = check_validity(history)
    retriggers(check_validity, history, verdict)
    assert verdict.witness.op_ids == (2, 3)
    # the other checks read a missing entry as holding no tags
    assert [name for name, v in check_all(history).items() if not v.passed] == ["validity"]


# ----------------------------------------------------------------- stability


def test_single_query_is_stable():
    assert check_stability([q(1, 0, 5, (1, 0, 0))]).passed


def test_stability_rejects_lost_tag():
    history = [
        q(1, 0, 10, (1, 1, 0)),
        q(2, 20, 30, (1, 0, 0)),
    ]
    verdict = check_stability(history)
    retriggers(check_stability, history, verdict)
    assert verdict.witness.op_ids == (1, 2)


def test_stability_remembers_every_finished_query():
    # op 2 finished last before op 3 began, but op 1 finished earlier and
    # learned more than op 3
    history = [q(1, 0, 10, (2, 0, 0)), q(2, 5, 15, (1, 0, 0)), q(3, 20, 30, (1, 0, 0))]
    verdict = check_stability(history)
    retriggers(check_stability, history, verdict)
    assert verdict.witness.op_ids == (1, 3)


def test_stability_ignores_overlapping_queries():
    # neither finished before the other began, so shrinkage is no violation
    history = [
        q(1, 0, 50, (1, 1, 0)),
        q(2, 10, 40, (1, 0, 0)),
    ]
    assert check_stability(history).passed


# --------------------------------------------------------------- consistency


def test_consistency_rejects_disjoint_learned_sets():
    history = [q(1, 0, 50, (1, 0, 0)), q(2, 10, 40, (0, 1, 0))]
    verdict = check_consistency(history)
    retriggers(check_consistency, history, verdict)


def test_consistency_accepts_nested_learned_sets():
    history = [q(1, 0, 50, (1, 0, 0)), q(2, 10, 40, (1, 1, 0))]
    assert check_consistency(history).passed


def test_consistency_rejects_equal_size_different_sets():
    history = [q(1, 0, 50, (1, 1, 0)), q(2, 10, 40, (1, 0, 1))]
    verdict = check_consistency(history)
    retriggers(check_consistency, history, verdict)


# ----------------------------------------------------- update-centric checks


def test_update_stability_rejects_second_without_first():
    history = [
        u(1, 0, 10, (1, 1)),
        u(2, 20, 30, (2, 1)),  # invoked after op 1 finished
        q(3, 40, 50, (0, 1, 0)),
    ]
    verdict = check_update_stability(history)
    retriggers(check_update_stability, history, verdict)
    assert set(verdict.witness.op_ids) == {1, 2, 3}


def test_update_stability_allows_concurrent_updates_split():
    history = [
        u(1, 0, 30, (1, 1)),
        u(2, 10, 20, (2, 1)),  # overlaps op 1
        q(3, 40, 50, (0, 1, 0)),
        q(4, 60, 70, (1, 1, 0)),
    ]
    assert check_update_stability(history).passed


def test_update_visibility_rejects_missing_finished_update():
    history = [u(1, 0, 10, (1, 1)), q(2, 20, 30, (0, 0, 0))]
    verdict = check_update_visibility(history)
    retriggers(check_update_visibility, history, verdict)
    assert verdict.witness.op_ids == (1, 2)


def test_update_visibility_allows_concurrent_exclusion():
    history = [u(1, 0, 30, (1, 1)), q(2, 10, 20, (0, 0, 0))]
    assert check_update_visibility(history).passed


def test_failed_update_constrains_nothing():
    # the proposer gave up at t=10, but the effect may still surface later,
    # so a query invoked afterwards need not see it
    history = [u(1, 0, 10, (1, 1), outcome="failed"), q(2, 20, 30, (0, 0, 0))]
    assert check_update_visibility(history).passed
    assert check_update_stability(
        history + [u(3, 20, 25, (3, 1)), q(4, 40, 50, (0, 0, 1))]
    ).passed


# ----------------------------------------------------------- instrumentation


def test_uninstrumented_update_is_unsupported():
    with pytest.raises(UnsupportedInput):
        check_validity([u(1, 0, 5, None)])


def test_uninstrumented_query_is_unsupported():
    with pytest.raises(UnsupportedInput):
        check_stability([q(1, 0, 5, None)])


def test_malformed_tag_or_frontier_is_unsupported():
    with pytest.raises(UnsupportedInput, match="start at 1"):
        check_validity([u(1, 0, 5, (0, 1))])
    with pytest.raises(UnsupportedInput, match="negative"):
        check_stability([q(1, 0, 5, (1, -1, 0))])


# ----------------------------------------------------------------- linearize


def test_linearize_single_update_then_query():
    history = [u(1, 0, 10, (1, 1)), q(2, 20, 30, (1, 0, 0))]
    witness = linearize(history)
    assert witness.order == (1, 2)
    assert witness.levels == ((1, 0, 0),)


def test_linearize_orders_excluded_concurrent_update_after_query():
    # the query's learned state excludes the overlapping update, so the
    # query linearizes first
    history = [u(1, 0, 20, (1, 1)), q(2, 5, 15, (0, 0, 0))]
    witness = linearize(history)
    assert witness.order == (2, 1)


def test_linearize_refuses_unsafe_history_and_names_the_check():
    history = [
        u(1, 0, None, (1, 1), outcome=None),
        u(2, 0, None, (2, 1), outcome=None),
        q(3, 0, 50, (1, 0, 0)),
        q(4, 10, 40, (0, 1, 0)),
    ]
    with pytest.raises(PreconditionFailed) as exc:
        linearize(history)
    assert exc.value.verdict.condition == "consistency"
    # an unknown tag is a validity failure, reported ahead of consistency
    with pytest.raises(PreconditionFailed) as exc:
        linearize([q(1, 0, 50, (1, 0, 0)), q(2, 10, 40, (0, 1, 0))])
    assert exc.value.verdict.condition == "validity"


def test_linearize_breaks_simultaneous_invocations_deterministically():
    history = [
        u(1, 0, None, (1, 1), outcome=None, client=1),
        u(2, 0, None, (2, 1), outcome=None, client=0),
        q(3, 5, 9, (0, 0, 0)),
    ]
    witness = linearize(history)
    # both updates unlearned: placed after the query, client id breaks the tie
    assert witness.order == (3, 2, 1)


def test_linearize_respects_real_time_on_sim_history():
    cfg = SimConfig(n_replicas=3, n_clients=4, ops_per_client=15, update_fraction=0.4,
                    drop_probability=0.15, delay_max=3, record_trace=False, seed=77)
    history = sim_run(cfg).history
    witness = linearize(history)
    pos = {op_id: i for i, op_id in enumerate(witness.order)}
    by_id = {r.op_id: r for r in history}
    placed = [by_id[i] for i in witness.order]
    for a in placed:
        if a.outcome != "ok":
            continue
        for b in placed:
            if b.op_id != a.op_id and a.response_t < b.invoke_t:
                assert pos[a.op_id] < pos[b.op_id]


def test_linearize_levels_form_a_chain_on_sim_history():
    cfg = SimConfig(n_replicas=5, n_clients=5, ops_per_client=12, update_fraction=0.5,
                    drop_probability=0.1, delay_max=4, record_trace=False, seed=13)
    witness = linearize(sim_run(cfg).history)
    assert len(witness.levels) > 1
    for small, big in zip(witness.levels, witness.levels[1:]):
        # strict pointwise growth, not merely lexicographic order
        assert small != big and all(a <= b for a, b in zip(small, big))


# -------------------------------------------------------------------- oracle


def test_oracle_rejects_incomparable_learned_states():
    history = [q(1, 0, 50, (1, 0, 0)), q(2, 10, 40, (0, 1, 0))]
    assert not linearizability_oracle(history)


def test_oracle_rejects_lost_update():
    history = [u(1, 0, 10, (1, 1)), q(2, 20, 30, (0, 0, 0))]
    assert not linearizability_oracle(history)


def test_oracle_accepts_concurrent_split():
    history = [u(1, 0, 20, (1, 1)), q(2, 5, 15, (0, 0, 0)), q(3, 30, 40, (1, 0, 0))]
    assert linearizability_oracle(history)


def test_oracle_bound_is_enforced():
    history = [u(i, i, i + 1, (1, i)) for i in range(1, 14)]
    with pytest.raises(UnsupportedInput):
        linearizability_oracle(history)
    assert linearizability_oracle(history[:12])


# ------------------------------------------------------------------ purity


def test_verdicts_do_not_depend_on_record_order():
    history = [
        u(1, 0, 10, (1, 1)),
        u(2, 5, 25, (2, 1)),
        q(3, 12, 18, (1, 0, 0)),
        q(4, 30, 40, (1, 1, 0)),
    ]
    baseline = {name: v.passed for name, v in check_all(history).items()}
    rng = random.Random(3)
    for _ in range(10):
        shuffled = history[:]
        rng.shuffle(shuffled)
        assert {name: v.passed for name, v in check_all(shuffled).items()} == baseline


# ------------------------------------------------- oracle cross-validation


def _random_history(rng: random.Random) -> list:
    """Small histories, safe and corrupt alike, with tag-exact updates.

    Each origin numbers its updates 1, 2, ... (no tag repeats, as the tag
    model assumes). Each learned frontier entry is drawn from 0 to the
    origin's last update, and one query in ten reaches one past it.
    """
    records = []
    op_id = 0
    issued = [0, 0, 0]
    for _ in range(rng.randint(0, 4)):
        op_id += 1
        inv = rng.randrange(0, 40)
        resp = inv + rng.randrange(1, 25)
        origin = rng.randint(1, 3)
        issued[origin - 1] += 1
        tag = (origin, issued[origin - 1])
        roll = rng.random()
        if roll < 0.6:
            records.append(u(op_id, inv, resp, tag, client=rng.randrange(3)))
        elif roll < 0.8:
            records.append(u(op_id, inv, None, tag, outcome=None, client=rng.randrange(3)))
        else:
            records.append(u(op_id, inv, resp, tag, outcome="failed", client=rng.randrange(3)))
    for _ in range(rng.randint(0, 4)):
        op_id += 1
        inv = rng.randrange(0, 40)
        resp = inv + rng.randrange(1, 25)
        frontier = [rng.randint(0, n) for n in issued]
        if rng.random() < 0.1:
            origin = rng.randrange(3)
            frontier[origin] = issued[origin] + 1  # a tag no update ever carried
        records.append(q(op_id, inv, resp, tuple(frontier), client=rng.randrange(3)))
    return records


def test_linearize_agrees_with_oracle_on_random_histories():
    rng = random.Random(2026)
    verdicts = {True: 0, False: 0}
    for _ in range(500):
        history = _random_history(rng)
        try:
            linearize(history)
            constructed = True
        except PreconditionFailed:
            constructed = False
        # CheckError would mean the construction broke on a safe history:
        # let it propagate and fail the test
        assert constructed == linearizability_oracle(history)
        verdicts[constructed] += 1
    assert verdicts[True] > 50
    assert verdicts[False] > 50


def test_safe_sim_histories_satisfy_checks_order_and_oracle():
    for seed in range(6):
        cfg = SimConfig(n_replicas=3, n_clients=2, ops_per_client=3, update_fraction=0.5,
                        drop_probability=0.1, delay_max=3, record_trace=False, seed=seed)
        history = sim_run(cfg).history
        assert all(v.passed for v in check_all(history).values())
        linearize(history)
        assert linearizability_oracle(history)


# ------------------------------------------------------------------- results


def add(op_id, inv, resp, tag, element):
    return OpRecord(
        op_id=op_id, client=0, replica=1, kind="update",
        op=UpdateOp.set_add(element), invoke_t=inv, tag=tag,
        response_t=resp, outcome="ok",
    )


def answered(op_id, frontier, result, op=None):
    return OpRecord(
        op_id=op_id, client=0, replica=1, kind="query",
        op=op or QueryCommand.counter_value(), invoke_t=10, response_t=11,
        outcome="ok", result=result, learned_frontier=frontier,
    )


# each update overlaps each query, so any learned frontier passes the five
_COUNTER_UPDATES = [u(1, 0, 20, (1, 1)), u(2, 0, 20, (1, 2)), u(3, 0, 20, (2, 1))]
_SET_UPDATES = [add(1, 0, 20, (1, 1), b"a"), add(2, 0, 20, (1, 2), b"b"), add(3, 0, 20, (2, 1), b"a")]


def test_results_accept_the_answers_their_frontiers_name():
    history = _COUNTER_UPDATES + [answered(4, (2, 0), 2), answered(5, (2, 1), 3), answered(6, (0, 0), 0)]
    assert check_results(history).passed
    elements, contains = QueryCommand.set_elements(), QueryCommand.set_contains
    history = _SET_UPDATES + [
        answered(4, (1, 0), (b"a",), elements),
        answered(5, (0, 1), (b"a",), elements),
        answered(6, (2, 1), (b"a", b"b"), elements),
        answered(7, (1, 0), False, contains(b"b")),
        answered(8, (0, 1), True, contains(b"a")),
        answered(9, (0, 0), (), elements),
    ]
    assert check_results(history).passed


@pytest.mark.parametrize(
    "updates, query, names_update",
    [
        (_COUNTER_UPDATES, answered(9, (2, 1), 2), False),
        (_COUNTER_UPDATES, answered(9, (2, 1), 4), False),
        (_COUNTER_UPDATES, answered(9, (2, 1), 0), True),
        (_COUNTER_UPDATES, answered(9, (2, 1), None), False),
        (_SET_UPDATES, answered(9, (2, 0), (b"a",), QueryCommand.set_elements()), False),
        (_SET_UPDATES, answered(9, (1, 0), (b"a", b"b"), QueryCommand.set_elements()), False),
        (_SET_UPDATES, answered(9, (0, 1), (), QueryCommand.set_elements()), True),
        (_SET_UPDATES, answered(9, (1, 0), (b"a", b"a"), QueryCommand.set_elements()), False),
        (_SET_UPDATES, answered(9, (0, 1), False, QueryCommand.set_contains(b"a")), True),
        (_SET_UPDATES, answered(9, (1, 0), True, QueryCommand.set_contains(b"b")), False),
        (_SET_UPDATES, answered(9, (1, 0), 1, QueryCommand.set_contains(b"a")), False),
    ],
    ids=[
        "count-low", "count-high", "count-zero", "count-missing",
        "set-lacks-element", "set-extra-element", "set-empty", "set-repeats-element",
        "contains-false", "contains-true", "contains-not-bool",
    ],
)
def test_results_reject_a_wrong_answer_with_a_witness_of_its_own(updates, query, names_update):
    history = updates + [query]
    verdict = check_results(history)
    assert not verdict.passed and verdict.condition == "results"
    assert verdict.witness.op_ids[-1] == query.op_id
    assert (len(verdict.witness.op_ids) == 2) == names_update
    # the five read tags alone and pass the same history
    assert all(v.passed for v in check_all(history).values())
    retriggers(check_results, history, verdict)


def test_a_join_that_drops_elements_passes_the_five_and_fails_results(monkeypatch):
    # a set whose join keeps only its own elements still advances the frontier,
    # so every tag-level check and the simulator's frontier monitor pass
    monkeypatch.setattr(crdt.GSet, "_join", lambda self, other, frontier: GSet(self.elements, frontier))
    cfg = SimConfig(n_replicas=3, n_clients=4, crdt="gset", ops_per_client=30,
                    update_fraction=0.5, drop_probability=0.1, delay_max=4,
                    record_trace=False, seed=1)
    history = sim_run(cfg).history
    assert all(v.passed for v in check_all(history).values())
    linearize(history)
    verdict = check_results(history)
    assert not verdict.passed
    assert verdict.condition == "results"
    retriggers(check_results, history, verdict)
