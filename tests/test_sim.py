"""Simulator behavior: determinism, fault injection, workload shape, and
the execution invariants it enforces while running."""

import hashlib
import io
import json
import re
from dataclasses import replace

import pytest

from crdtlin.crdt import CRDT_KINDS, GCounter, GSet, QueryCommand
from crdtlin.history import (
    OpRecord,
    read_history,
    record_reply,
    record_to_json,
    write_history,
    write_trace,
)
from crdtlin.messages import Merge, Merged, Reply
from crdtlin.protocol import Replica, TimerFire
from crdtlin.sim import (
    ConfigError,
    InvariantViolation,
    Metrics,
    SimConfig,
    Simulation,
    sim_run,
    summarize,
    workload_generate,
)


def _config_fields(cfg: SimConfig) -> dict:
    return {name: getattr(cfg, name) for name in cfg.__dataclass_fields__}


def _trace_bytes(result) -> bytes:
    buf = io.StringIO()
    write_trace(result.trace, buf)
    return buf.getvalue().encode()


# ------------------------------------------------------------- configuration


def test_validate_rejects_bad_probabilities():
    with pytest.raises(ConfigError):
        SimConfig(drop_probability=1.0).validate()
    with pytest.raises(ConfigError):
        SimConfig(duplicate_probability=-0.1).validate()


def test_validate_rejects_zero_delay():
    # a delivery in the same tick as its send would break causality
    with pytest.raises(ConfigError):
        SimConfig(delay_min=0).validate()


def test_validate_rejects_timeout_within_one_round_trip():
    with pytest.raises(ConfigError):
        SimConfig(delay_max=5, timeout_ticks=10).validate()
    SimConfig(delay_max=5, timeout_ticks=11).validate()


def test_validate_rejects_unknown_crash_target():
    with pytest.raises(ConfigError):
        SimConfig(n_replicas=3, crash_schedule=((4, 0),)).validate()


def test_validate_rejects_overlapping_partition_groups():
    with pytest.raises(ConfigError):
        SimConfig(partition_schedule=((((1, 2), (2, 3)), 0, 10),)).validate()


# -------------------------------------------------------------- determinism


def test_same_config_and_seed_give_identical_trace_bytes():
    cfg = SimConfig(
        n_replicas=5,
        n_clients=6,
        ops_per_client=25,
        update_fraction=0.4,
        drop_probability=0.2,
        duplicate_probability=0.1,
        delay_min=1,
        delay_max=5,
        crash_schedule=((4, 60),),
        seed=42,
    )
    first = sim_run(cfg)
    second = sim_run(SimConfig(**_config_fields(cfg)))
    assert _trace_bytes(first) == _trace_bytes(second)
    assert len(first.trace) > 500


# sha256 of each output file of four runs, recorded from a tree whose
# histories pass every `crdtlin check`: a refactor that keeps these keeps
# every simulated event, reply and metric. The last two runs are fault-free
# with a fixed delay, so the simulator takes no drop, duplicate or delay draw.
_GOLDEN = {
    "quick-start": (
        SimConfig(
            n_replicas=5, n_clients=8, ops_per_client=50, update_fraction=0.5,
            drop_probability=0.1, duplicate_probability=0.05, delay_min=1, delay_max=4,
            crash_schedule=((3, 120),), seed=7,
        ),
        {
            "history.jsonl": "664919ee2aaf84d407a237fc45e897468128d2e88ab01109be99581686b73391",
            "trace.jsonl": "109a0f386ecd13c6e5ec54cba808ab0c3134be42e54434bca162cf41aa5fbd99",
            "metrics.csv": "1f635c40ee4432a614cc97ea174c5f7e869338acd1fb5ea659eb2fc0d2e2ef2a",
        },
    ),
    "gset-faults-batching": (
        SimConfig(
            n_replicas=5, n_clients=6, ops_per_client=60, update_fraction=0.4, crdt="gset",
            drop_probability=0.2, delay_max=3, crash_schedule=((2, 40),),
            partition_schedule=((((1, 2), (3, 4)), 20, 90),), max_retries=2, batching=True,
            seed=11,
        ),
        {
            "history.jsonl": "a6b17ae6fb195acd69b891a34eff69d2e564439029e2cebc25d1a93ea977fa39",
            "trace.jsonl": "bf1da87165a7bc92cb9f0869967ef035ca7e103349d3581a77d9f1ddd257b2b2",
            "metrics.csv": "920d17559618fc68ec5d9b6f7a2cd4210fdb9effdca9bede5588034b65514aee",
        },
    ),
    "fixed-delay-batching": (
        SimConfig(
            n_replicas=3, n_clients=16, ops_per_client=20, update_fraction=0.1, batching=True,
            seed=1,
        ),
        {
            "history.jsonl": "738e94c11d37322ef8e843126520077e91d3a32e15dc893cfa79983894871f37",
            "trace.jsonl": "a658e4a62e368a95301a3990c526289e66f6c62adaa1c4bb995e1fa5541ad98d",
            "metrics.csv": "e1dd1832a40dbf7827276a49af19e3a9820faf296b5101146b38659a5697b1a3",
        },
    ),
    # sim-contention's kind of run: a batched counter that records no learned frontiers
    "fixed-delay-batching-uninstrumented": (
        SimConfig(
            n_replicas=3, n_clients=16, ops_per_client=20, update_fraction=0.1, batching=True,
            instrument=False, seed=1,
        ),
        {
            "history.jsonl": "fde4bbbcc4cc13ed186704c95dc44cb59dbf2eb4805ddf86ec389446b62d715b",
            "trace.jsonl": "a658e4a62e368a95301a3990c526289e66f6c62adaa1c4bb995e1fa5541ad98d",
            "metrics.csv": "e1dd1832a40dbf7827276a49af19e3a9820faf296b5101146b38659a5697b1a3",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_outputs_match_golden_digests(name, tmp_path):
    cfg, digests = _GOLDEN[name]
    sim_run(cfg).write_outputs(tmp_path)
    for filename, digest in digests.items():
        assert hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest() == digest, filename


@pytest.mark.parametrize("name", ["quick-start", "gset-faults-batching"])
def test_every_timer_that_fires_does_work(name, monkeypatch):
    # a timer that is re-armed, or whose request ends, is cancelled, so the
    # replica never steps a timer for a request that has moved on or ended
    timer_steps = []
    step = Replica.step

    def recording_step(self, event):
        out = step(self, event)
        if type(event) is TimerFire:
            timer_steps.append(out)
        return out

    monkeypatch.setattr(Replica, "step", recording_step)
    result = sim_run(_GOLDEN[name][0])
    assert timer_steps
    assert all(out.sends or out.replies for out in timer_steps)
    if name == "quick-start":
        # no cancelled timer keeps the clock running after the last delivery
        last_delivery = max(e.t for e in result.trace if e.kind == "deliver")
        assert result.metrics.final_time <= last_delivery


def test_different_seeds_diverge():
    cfg = SimConfig(n_clients=4, ops_per_client=20, drop_probability=0.1, delay_max=4, seed=1)
    other = SimConfig(**{**_config_fields(cfg), "seed": 2})
    assert _trace_bytes(sim_run(cfg)) != _trace_bytes(sim_run(other))


# ---------------------------------------------------------------- fast paths


def test_fault_free_updates_take_one_round_trip_of_two_delays():
    cfg = SimConfig(n_replicas=5, n_clients=4, ops_per_client=25,
                    update_fraction=1.0, delay_min=3, delay_max=3, seed=8)
    result = sim_run(cfg)
    updates = [r for r in result.history if r.kind == "update"]
    assert len(updates) == 100
    for rec in updates:
        assert rec.outcome == "ok"
        assert rec.round_trips == 1
        # one broadcast out plus acknowledgements back, at fixed delay 3
        assert rec.response_t - rec.invoke_t == 6


def test_update_free_queries_take_one_round_trip():
    cfg = SimConfig(n_replicas=3, n_clients=4, ops_per_client=25,
                    update_fraction=0.0, delay_max=2, seed=8)
    result = sim_run(cfg)
    queries = [r for r in result.history if r.kind == "query"]
    assert len(queries) == 100
    assert all(r.outcome == "ok" and r.round_trips == 1 for r in queries)


def test_a_finished_client_schedules_no_further_invoke():
    # fault-free updates at a fixed delay: every Merged lands with the reply
    # it completes, so the run ends at the last response, not a tick later
    cfg = SimConfig(n_replicas=3, n_clients=2, ops_per_client=5, update_fraction=1.0, seed=1)
    result = sim_run(cfg)
    assert len(result.history) == 10
    assert result.metrics.final_time == max(r.response_t for r in result.history)


# ------------------------------------------------------------------- faults


def test_minority_crash_leaves_cluster_available():
    cfg = SimConfig(n_replicas=3, n_clients=4, ops_per_client=25,
                    update_fraction=0.5, crash_schedule=((2, 0),), seed=3)
    result = sim_run(cfg)
    assert all(r.outcome == "ok" for r in result.history)
    assert len(result.history) == 100
    # nothing was ever routed to the dead replica
    assert all(r.replica != 2 for r in result.history)


def test_quorum_loss_stalls_without_failing():
    cfg = SimConfig(n_replicas=3, n_clients=2, ops_per_client=5, update_fraction=1.0,
                    crash_schedule=((2, 0), (3, 0)), max_retries=None,
                    max_virtual_time=4000, seed=3)
    result = sim_run(cfg)
    assert not result.metrics.quiescent
    stats = summarize(result.history)["update"]
    assert stats["pending"] == 2  # one in-flight op per closed-loop client
    assert stats["failed"] == 0
    pending = [r for r in result.history if r.outcome is None]
    assert len(pending) == 2
    assert all(r.response_t is None for r in pending)


def test_all_replicas_crashed_halts_clients():
    cfg = SimConfig(n_replicas=1, n_clients=2, ops_per_client=5,
                    crash_schedule=((1, 0),), seed=0)
    result = sim_run(cfg)
    assert result.history == []
    assert result.metrics.quiescent


def test_a_crash_cancels_its_replicas_timers():
    # the whole cluster crashes at tick 4 with the client's request in flight,
    # so nothing after the crash does any work
    cfg = SimConfig(n_replicas=3, n_clients=1, ops_per_client=3,
                    crash_schedule=((1, 4), (2, 4), (3, 4)), seed=1)
    result = sim_run(cfg)
    assert result.history[-1].outcome is None
    assert result.metrics.final_time == 4


def test_partition_stalls_then_heals():
    cfg = SimConfig(n_replicas=3, n_clients=3, ops_per_client=20, update_fraction=0.5,
                    partition_schedule=((((1,), (2, 3)), 0, 300),),
                    max_virtual_time=100_000, seed=11)
    result = sim_run(cfg)
    assert result.metrics.quiescent
    assert all(r.outcome == "ok" for r in result.history)
    assert result.metrics.dropped["partition"] > 0
    # ops that straddled the window finished only after it closed
    straddlers = [r for r in result.history if r.invoke_t < 300 < r.response_t]
    assert straddlers


def test_replica_absent_from_all_groups_is_isolated():
    # group list names only {2, 3}; replica 1 is implicitly cut off
    cfg = SimConfig(n_replicas=3, n_clients=1, ops_per_client=4, update_fraction=1.0,
                    partition_schedule=((((2, 3),), 0, 10_000),),
                    max_virtual_time=20_000, max_retries=None, seed=2)
    result = sim_run(cfg)
    touched_one = [r for r in result.history if r.replica == 1 and r.invoke_t < 9_000]
    finished_during = [r for r in touched_one if r.response_t is not None and r.response_t < 10_000]
    assert not finished_during


def test_crashed_replica_stops_answering():
    cfg = SimConfig(n_replicas=3, n_clients=2, ops_per_client=30,
                    update_fraction=0.5, crash_schedule=((3, 40),), seed=6)
    result = sim_run(cfg)
    for rec in result.history:
        if rec.replica == 3 and rec.invoke_t >= 40:
            pytest.fail("client targeted a replica already crashed")
    assert result.metrics.dropped.get("crashed", 0) > 0


# ----------------------------------------------------------------- workload


def test_workload_fraction_is_respected():
    cfg = SimConfig(n_clients=10, ops_per_client=1000, update_fraction=0.3, seed=17)
    scripts = workload_generate(cfg)
    flat = [kind for script in scripts for kind in script]
    assert len(flat) == 10_000
    share = flat.count("update") / len(flat)
    assert abs(share - 0.3) < 0.02


def test_workload_pure_extremes():
    assert all(
        k == "update"
        for s in workload_generate(SimConfig(n_clients=3, ops_per_client=50, update_fraction=1.0))
        for k in s
    )
    assert all(
        k == "query"
        for s in workload_generate(SimConfig(n_clients=3, ops_per_client=50, update_fraction=0.0))
        for k in s
    )


def test_gset_updates_use_distinct_elements():
    cfg = SimConfig(crdt="gset", n_clients=4, ops_per_client=20, update_fraction=1.0, seed=5)
    result = sim_run(cfg)
    elements = [r.op.element for r in result.history]
    assert len(set(elements)) == len(elements)
    final = max(
        (r for r in result.history if r.outcome == "ok"), key=lambda r: r.response_t
    )
    assert final.tag is not None


@pytest.mark.parametrize("batching", [False, True])
def test_repeated_set_elements_keep_histories_checkable(monkeypatch, batching):
    # adds drawn from a two-element alphabet: a repeated add moves the frontier
    # and not the elements, so a query that agreed by elements alone learned
    # frontiers that are no chain, and the tag-level checks refused the history
    from crdtlin import sim as sim_module
    from crdtlin.checker import check_all, check_results, linearize

    workload_op = sim_module.workload_op
    monkeypatch.setattr(
        sim_module, "workload_op",
        lambda crdt, kind, element: workload_op(crdt, kind, b"e%d" % (int(element[1:]) % 2)),
    )
    for seed in range(1, 4):
        cfg = SimConfig(n_replicas=3, n_clients=8, crdt="gset", ops_per_client=20,
                        update_fraction=0.5, batching=batching, drop_probability=0.05,
                        delay_max=3, record_trace=False, seed=seed)
        history = sim_run(cfg).history
        assert {r.op.element for r in history if r.kind == "update"} == {b"e0", b"e1"}
        verdicts = check_all(history)
        assert all(v.passed for v in verdicts.values()), (seed, verdicts)
        assert check_results(history).passed
        linearize(history, verdicts)


# ------------------------------------------------------- trace and history IO


def test_trace_kinds_are_from_the_fixed_vocabulary():
    cfg = SimConfig(n_replicas=3, n_clients=3, ops_per_client=15, update_fraction=0.5,
                    drop_probability=0.15, duplicate_probability=0.1, delay_max=3,
                    crash_schedule=((3, 50),), seed=21)
    result = sim_run(cfg)
    kinds = {e.kind for e in result.trace}
    assert kinds <= {"deliver", "drop", "duplicate", "timer", "crash", "invoke", "respond"}
    assert {"deliver", "drop", "duplicate", "invoke", "respond", "crash"} <= kinds
    responds = [e for e in result.trace if e.kind == "respond"]
    assert len(responds) == sum(1 for r in result.history if r.outcome is not None)


def test_responses_are_never_fabricated():
    cfg = SimConfig(n_clients=5, ops_per_client=20, drop_probability=0.25,
                    delay_max=4, update_fraction=0.5, seed=33)
    result = sim_run(cfg)
    invokes = sum(1 for e in result.trace if e.kind == "invoke")
    assert invokes == len(result.history)
    for rec in result.history:
        if rec.outcome is not None:
            assert rec.response_t > rec.invoke_t


def test_retry_instrumentation_records_incremental_rounds():
    cfg = SimConfig(n_clients=6, ops_per_client=25, drop_probability=0.3,
                    update_fraction=0.3, delay_max=4, timeout_ticks=20, seed=13)
    result = sim_run(cfg)
    retried = [r for r in result.history if r.kind == "query" and r.incremental_retry_times]
    assert retried, "a 30% drop rate should force at least one query retry"
    for rec in retried:
        times = rec.incremental_retry_times
        assert list(times) == sorted(times)
        assert all(rec.invoke_t < t <= rec.response_t for t in times if rec.response_t)


def test_record_trace_off_keeps_history():
    cfg = SimConfig(n_clients=3, ops_per_client=10, record_trace=False, seed=1)
    result = sim_run(cfg)
    assert result.trace == []
    assert len(result.history) == 30


def test_write_outputs_round_trips(tmp_path):
    cfg = SimConfig(n_clients=2, ops_per_client=8, drop_probability=0.1, seed=9)
    result = sim_run(cfg)
    result.write_outputs(tmp_path)
    with open(tmp_path / "history.jsonl") as fp:
        back = read_history(fp)
    assert back == result.history
    assert (tmp_path / "trace.jsonl").stat().st_size > 0
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == "metric,value"
    assert any(line.startswith("final_time,") for line in lines)


def test_records_of_counter_ops_share_their_two_commands(tmp_path):
    result = sim_run(SimConfig(n_clients=3, ops_per_client=10, update_fraction=0.5, seed=2))
    result.write_outputs(tmp_path)
    with open(tmp_path / "history.jsonl") as fp:
        back = read_history(fp)
    for history in (result.history, back):
        assert len(history) == 30
        # one increment and one counter_value object, however long the history
        assert len({id(r.op) for r in history}) == 2


@pytest.mark.parametrize("crdt", CRDT_KINDS)
def test_a_history_read_back_equals_the_one_written(crdt):
    cfg = SimConfig(crdt=crdt, n_clients=3, ops_per_client=10, update_fraction=0.5,
                    drop_probability=0.1, seed=4)
    history = sim_run(cfg).history
    buf = io.StringIO()
    write_history(history, buf)
    back = read_history(io.StringIO(buf.getvalue()))
    assert back == history
    assert [type(r.op) for r in back] == [type(r.op) for r in history]
    queries = {id(r.op) for r in back if r.kind == "query"}
    assert len(queries) == 1  # every query reads the whole value through one shared command


def test_metrics_track_message_flow():
    cfg = SimConfig(n_clients=4, ops_per_client=20, drop_probability=0.1,
                    duplicate_probability=0.15, delay_max=3, update_fraction=0.5, seed=10)
    result = sim_run(cfg)
    m = result.metrics
    assert m.duplicated > 0
    assert m.dropped["loss"] > 0
    assert m.max_payload_bytes > 0
    assert m.messages_sent["Merge"] > 0
    assert m.messages_sent["Prepare"] > 0
    assert m.delivered > m.duplicated


def test_single_replica_cluster_runs():
    cfg = SimConfig(n_replicas=1, n_clients=2, ops_per_client=15, update_fraction=0.5, seed=4)
    result = sim_run(cfg)
    assert all(r.outcome == "ok" for r in result.history)
    counter_reads = [r.result for r in result.history if r.kind == "query"]
    assert counter_reads == sorted(counter_reads)  # single site is trivially linear


def test_simulation_object_runs_once():
    sim = Simulation(SimConfig(n_clients=1, ops_per_client=1))
    sim.run()
    with pytest.raises(ConfigError):
        sim.run()


def test_tagged_payload_size_does_not_grow_with_the_history():
    def run(n_clients, ops_per_client):
        cfg = SimConfig(n_clients=n_clients, ops_per_client=ops_per_client,
                        update_fraction=1.0, record_trace=False, seed=5)
        return sim_run(cfg)

    after_first = run(1, 1).metrics.max_payload_bytes
    long_run = run(4, 250)
    assert sum(r.kind == "update" and r.outcome == "ok" for r in long_run.history) == 1000
    assert long_run.metrics.max_payload_bytes == after_first == 29  # a 3-replica counter


def test_query_records_do_not_grow_with_the_history():
    def run(ops_per_client):
        cfg = SimConfig(n_clients=1, ops_per_client=ops_per_client, update_fraction=0.5,
                        record_trace=False, seed=5)
        history = sim_run(cfg).history
        updates = sum(r.kind == "update" and r.outcome == "ok" for r in history)
        # every number counts as one character, so only the record's shape is compared
        longest = max(
            len(re.sub(r"\d+", "0", record_to_json(r))) for r in history if r.kind == "query"
        )
        return updates, longest

    short_updates, short_longest = run(12)
    long_updates, long_longest = run(2060)
    assert short_updates == 10 and long_updates >= 1000
    assert long_longest <= short_longest


def test_a_query_record_holds_the_learned_frontier_not_the_learned_value():
    elements = [b"element-%04d" % i for i in range(1000)]
    learned = GSet(frozenset(elements), (400, 300, 300))
    reply = Reply(0, bytes(16), True, result=False, learned_frontier=learned.frontier, round_trips=1)
    rec = OpRecord(op_id=1, client=0, replica=1, kind="query",
                   op=QueryCommand.set_contains(b"absent"), invoke_t=0)
    record_reply(rec, reply, 5)
    line = record_to_json(rec)
    assert rec.learned_frontier == (400, 300, 300)
    assert not any(e.decode() in line for e in elements)
    assert len(line) < 400  # O(replicas), whatever the size of the learned set


def test_metrics_csv_and_bench_summary_share_one_percentile():
    def query(op_id, latency):
        return OpRecord(op_id=op_id, client=0, replica=1, kind="query", op=QueryCommand.counter_value(), invoke_t=10,
                        response_t=10 + latency, outcome="ok", round_trips=1)

    # even lengths put the p50 rank on a half, where rounding rules differ
    for samples in ([1, 2], [4, 3, 2, 1], [5, 1, 4, 2, 6, 3], list(range(10, 0, -1))):
        history = [query(i, latency) for i, latency in enumerate(samples, 1)]
        csv = dict(Metrics().rows(history))
        bench = summarize(history)["query"]
        assert (bench["p50"], bench["p95"]) == (csv["latency_query_p50"], csv["latency_query_p95"])
        assert bench["ok"] == csv["ops_query_ok"] == csv["round_trips_query_1"] == len(samples)
    assert summarize([query(1, 1), query(2, 2)])["query"]["p50"] == 2


# ------------------------------------------------------------- invariant monitor
#
# Each test plants a protocol fault, checks that the monitor stops the run,
# and that the same run with the monitor off raises nothing: the monitor
# alone catches the fault.


def test_monitor_catches_an_acceptor_that_overwrites_instead_of_merging(monkeypatch):
    accept = Replica._accept

    def overwrite(self, m, out):
        if type(m) is not Merge:
            return accept(self, m, out)  # a prepare still merges
        self.state = m.state
        out.sends.append((m.sender, Merged(sender=self.rid, request_id=m.request_id)))

    monkeypatch.setattr(Replica, "_accept", overwrite)
    config = SimConfig(n_replicas=3, n_clients=4, update_fraction=0.8, ops_per_client=20,
                       delay_max=3, seed=1)
    with pytest.raises(InvariantViolation, match="payload shrank"):
        sim_run(config)
    sim_run(replace(config, check_invariants=False))


def test_monitor_catches_a_batch_learning_an_inflated_state(monkeypatch):
    complete = Replica._complete_query
    batch_sizes = []

    def inflate(self, req, learned, out):
        # only batches of two or more, so the violation surfaces in a step
        # whose replies all share one learned state
        if len(req.ops) >= 2:
            batch_sizes.append(len(req.ops))
            learned = GCounter(tuple(c + 1000 for c in learned.frontier))
        complete(self, req, learned, out)

    monkeypatch.setattr(Replica, "_complete_query", inflate)
    config = SimConfig(n_replicas=3, n_clients=16, update_fraction=0.1, ops_per_client=10,
                       batching=True, seed=1)
    with pytest.raises(InvariantViolation, match="not dominated by any quorum"):
        sim_run(config)
    assert batch_sizes
    sim_run(replace(config, check_invariants=False))


def test_monitor_catches_a_proposer_learning_a_disagreeing_quorums_join(monkeypatch):
    arm = Replica._arm_timer
    learned_joins = []

    def learn_join(self, req, out, backoff=None):
        if backoff is None:
            return arm(self, req, out)
        # instead of backing off, learn the join of the quorum's unequal acks
        states = list(req.acks.values())
        lub = states[0]
        for state in states[1:]:
            lub = lub.merge(state)
        learned_joins.append(lub)
        self._complete_query(req, lub, out)

    monkeypatch.setattr(Replica, "_arm_timer", learn_join)
    # at unit delay every merge sent in a tick lands in the next one, which
    # hides the join; uneven delays expose it
    config = SimConfig(n_replicas=3, n_clients=16, update_fraction=0.3, ops_per_client=20,
                       delay_max=3, seed=1)
    with pytest.raises(InvariantViolation, match="not dominated by any quorum"):
        sim_run(config)
    assert learned_joins
    sim_run(replace(config, check_invariants=False))
