"""System-level acceptance criteria, one test per criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line with the measured
numbers, then asserts. The fault sweep behind criteria 1-4 and 6 is built
once per module; it spans cluster sizes, drop rates, duplication, crash
counts up to a minority, and the full range of update mixes.
"""

import dataclasses
import itertools
import json
import random
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from crdtlin.checker import (
    CheckError,
    PreconditionFailed,
    check_all,
    check_results,
    linearizability_oracle,
    linearize,
)
from crdtlin.crdt import GCounter, GSet, UpdateOp, apply_update
from crdtlin.history import merge_histories
from crdtlin.service import ReplicaClient
from crdtlin.sim import SimConfig, sim_run
from tests_support import reachable_sets, tags


def _line(num: int, passed: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if passed else 'FAIL'} - {detail}", flush=True)


# ------------------------------------------------------------- fault sweep


@dataclasses.dataclass(frozen=True)
class SweepRun:
    label: str
    n: int
    crashes: int
    drop: float
    dup: float
    update_fraction: float
    crashed: frozenset
    history: tuple
    quiescent: bool


def _crash_schedule(n: int, count: int, key: str) -> tuple:
    rng = random.Random(key)
    picked = rng.sample(range(1, n + 1), count)
    # half the schedules hit at t=0, the rest mid-run
    return tuple(
        (rid, 0 if i % 2 == 0 else rng.randint(5, 40)) for i, rid in enumerate(picked)
    )


def _run(label: str, cfg: SimConfig, crashes: int) -> SweepRun:
    result = sim_run(cfg)
    return SweepRun(
        label=label,
        n=cfg.n_replicas,
        crashes=crashes,
        drop=cfg.drop_probability,
        dup=cfg.duplicate_probability,
        update_fraction=cfg.update_fraction,
        crashed=frozenset(rid for rid, _ in cfg.crash_schedule),
        history=tuple(result.history),
        quiescent=result.metrics.quiescent,
    )


GRID_SEEDS = range(1, 10)


def _grid_axes():
    axes = []
    for n in (3, 5):
        for crashes in range((n - 1) // 2 + 1):
            for drop in (0.0, 0.05, 0.2):
                for dup in (0.0, 0.1):
                    for uf in (0.0, 0.1, 0.5, 1.0):
                        axes.append((n, crashes, drop, dup, uf))
    return axes


@pytest.fixture(scope="module")
def sweep():
    grid = []
    for (n, crashes, drop, dup, uf), seed in itertools.product(_grid_axes(), GRID_SEEDS):
        label = f"grid n={n} crash={crashes} drop={drop} dup={dup} uf={uf} seed={seed}"
        cfg = SimConfig(
            n_replicas=n,
            n_clients=4,
            crdt="gset" if seed % 3 == 0 else "gcounter",
            update_fraction=uf,
            ops_per_client=12,
            drop_probability=drop,
            duplicate_probability=dup,
            delay_min=1,
            delay_max=4,
            record_trace=False,
            seed=seed,
            crash_schedule=_crash_schedule(n, crashes, label),
        )
        grid.append(_run(label, cfg, crashes))

    # small runs whose histories fit the exhaustive oracle
    tiny = []
    for (drop, dup, uf, crashes), seed in itertools.product(
        itertools.product((0.0, 0.2), (0.0, 0.1), (0.3, 0.5), (0, 1)),
        range(1, 16),
    ):
        label = f"tiny drop={drop} dup={dup} uf={uf} crash={crashes} seed={seed}"
        cfg = SimConfig(
            n_replicas=3,
            n_clients=2,
            update_fraction=uf,
            ops_per_client=3,
            drop_probability=drop,
            duplicate_probability=dup,
            delay_min=1,
            delay_max=3,
            record_trace=False,
            seed=seed,
            crash_schedule=_crash_schedule(3, crashes, label),
        )
        tiny.append(_run(label, cfg, crashes))
    return {"grid": grid, "tiny": tiny, "all": grid + tiny}


def test_criterion_01_safety_sweep(sweep):
    runs = sweep["all"]
    failures = []
    for run in runs:
        history = list(run.history)
        for name, verdict in [*check_all(history).items(), ("results", check_results(history))]:
            if not verdict.passed:
                failures.append(f"{run.label}: {name}: {verdict.witness.message}")
    passed = len(sweep["grid"]) >= 1000 and not failures
    _line(
        1,
        passed,
        f"{len(runs)} runs ({len(sweep['grid'])} across the fault grid), "
        f"{len(failures)} safety violations",
    )
    assert len(sweep["grid"]) >= 1000
    assert not failures, failures[:5]


def test_criterion_02_linearizability(sweep):
    runs = sweep["all"]
    order_failures = []
    for run in runs:
        try:
            linearize(list(run.history))
        except (PreconditionFailed, CheckError) as exc:
            order_failures.append(f"{run.label}: {exc}")

    small = [run for run in runs if len(run.history) <= 12]
    disagreements = []
    for run in small:
        history = list(run.history)
        try:
            linearize(history)
            constructive = True
        except PreconditionFailed:
            constructive = False
        if constructive != linearizability_oracle(history):
            disagreements.append(run.label)
    passed = not order_failures and not disagreements and len(small) >= 200
    _line(
        2,
        passed,
        f"{len(runs)} histories ordered, oracle agreement on {len(small)} small "
        f"histories, {len(order_failures) + len(disagreements)} failures",
    )
    assert not order_failures, order_failures[:5]
    assert not disagreements, disagreements[:5]
    assert len(small) >= 200


def test_criterion_03_update_single_round_trip(sweep):
    clean = [r for r in sweep["all"] if r.drop == 0.0 and r.crashes == 0]
    updates = [
        rec for run in clean for rec in run.history if rec.kind == "update"
    ]
    slow = [r for r in updates if r.outcome != "ok" or r.round_trips != 1]

    # fixed-delay run: one round trip must be exactly two message delays
    cfg = SimConfig(
        n_replicas=3, n_clients=6, update_fraction=1.0, ops_per_client=20,
        delay_min=3, delay_max=3, record_trace=False, seed=11,
    )
    timed = [rec for rec in sim_run(cfg).history if rec.kind == "update"]
    off_latency = [r for r in timed if r.response_t - r.invoke_t != 6]

    passed = not slow and not off_latency and updates and timed
    _line(
        3,
        passed,
        f"{len(updates)} fault-free updates all in 1 round trip, "
        f"{len(timed)} timed updates all at 2 message delays"
        if passed
        else f"{len(slow)} updates over 1 round trip, {len(off_latency)} off latency",
    )
    assert updates and timed
    assert not slow, slow[:5]
    assert not off_latency, off_latency[:5]


def test_criterion_04_query_fast_path(sweep):
    relevant = [r for r in sweep["all"] if r.update_fraction == 0.0 and r.drop == 0.0]
    checked = 0
    violations = []
    for run in relevant:
        for rec in run.history:
            if rec.kind != "query":
                continue
            if rec.outcome is None and rec.replica in run.crashed:
                continue  # lost with its serving replica, never completed
            checked += 1
            if rec.outcome != "ok" or rec.round_trips != 1:
                violations.append(f"{run.label}: op {rec.op_id} rt={rec.round_trips}")
    passed = checked > 0 and not violations
    _line(4, passed, f"{checked} update-free queries, {len(violations)} over 1 round trip")
    assert checked > 0
    assert not violations, violations[:5]


def test_criterion_05_batching_round_trip_bound():
    cfg = SimConfig(
        n_replicas=3,
        n_clients=64,
        update_fraction=0.1,
        ops_per_client=160,
        batching=True,
        delay_min=1,
        delay_max=1,
        instrument=False,
        record_trace=False,
        seed=1,
    )
    result = sim_run(cfg)
    history = result.history
    queries = [r for r in history if r.kind == "query" and r.outcome == "ok"]
    within = sum(1 for r in queries if r.round_trips <= 3)
    fraction = within / len(queries)
    passed = len(history) >= 10_000 and fraction >= 0.99
    _line(
        5,
        passed,
        f"{len(history)} ops, {fraction:.2%} of {len(queries)} queries within "
        f"3 round trips (needs >= 99%)",
    )
    assert len(history) >= 10_000
    assert fraction >= 0.99, (
        f"{fraction:.2%} of batched queries within 3 round trips, under the 99% "
        "bound; the protocol meets it at seeds 1-6 (README, \"Round trips under "
        "load\"), so a drop here is a regression"
    )


def test_criterion_05_holds_at_seeds_2_to_6():
    # the same run at five more seeds, so the back-off rule is not fitted to seed 1
    fractions = {}
    for seed in range(2, 7):
        cfg = SimConfig(
            n_replicas=3, n_clients=64, update_fraction=0.1, ops_per_client=160,
            batching=True, delay_min=1, delay_max=1, instrument=False, record_trace=False,
            seed=seed,
        )
        history = sim_run(cfg).history
        assert len(history) >= 10_000
        queries = [r for r in history if r.kind == "query" and r.outcome == "ok"]
        fractions[seed] = sum(1 for r in queries if r.round_trips <= 3) / len(queries)
    worst = min(fractions, key=fractions.get)
    passed = fractions[worst] >= 0.99
    _line(5, passed, f"seeds 2-6: worst {fractions[worst]:.2%} within 3 round trips (seed {worst})")
    assert passed, fractions


def test_criterion_06_query_termination(sweep):
    checked = 0
    violations = []
    for run in sweep["all"]:
        finished_updates = [
            r.response_t
            for r in run.history
            if r.kind == "update" and r.outcome == "ok"
        ]
        last_update = max(finished_updates, default=0)
        for rec in run.history:
            if rec.replica in run.crashed:
                continue  # served by a crashed process; liveness holds for live ones
            if rec.kind == "update":
                if rec.outcome != "ok":
                    violations.append(f"{run.label}: update {rec.op_id} never finished")
                continue
            checked += 1
            if rec.outcome != "ok":
                violations.append(f"{run.label}: query {rec.op_id} -> {rec.outcome}")
                continue
            if run.drop == 0.0 and rec.response_t > last_update:
                late = [t for t in rec.incremental_retry_times if t > last_update]
                if len(late) > run.n:
                    violations.append(
                        f"{run.label}: query {rec.op_id} took {len(late)} retries "
                        f"after the final update (bound {run.n})"
                    )
    passed = checked > 0 and not violations
    _line(6, passed, f"{checked} queries at live replicas, {len(violations)} stalled past the bound")
    assert checked > 0
    assert not violations, violations[:5]


def test_criterion_07_availability_under_crash():
    problems = []
    runs = 0
    for rid, drop, seed in itertools.product((1, 2, 3), (0.0, 0.05), (1, 2, 3)):
        cfg = SimConfig(
            n_replicas=3,
            n_clients=5,
            update_fraction=0.3,
            ops_per_client=10,
            drop_probability=drop,
            delay_min=1,
            delay_max=3,
            record_trace=False,
            seed=seed,
            crash_schedule=((rid, 0),),
        )
        result = sim_run(cfg)
        runs += 1
        label = f"crash={rid} drop={drop} seed={seed}"
        for rec in result.history:
            if rec.replica == rid:
                problems.append(f"{label}: op routed to the crashed replica")
            if rec.outcome != "ok":
                problems.append(f"{label}: op {rec.op_id} -> {rec.outcome}")
        for name, verdict in check_all(result.history).items():
            if not verdict.passed:
                problems.append(f"{label}: {name} violated")
        try:
            linearize(result.history)
        except (PreconditionFailed, CheckError) as exc:
            problems.append(f"{label}: {exc}")
    passed = not problems
    _line(7, passed, f"{runs} one-of-three crash runs, {len(problems)} incomplete or unsafe")
    assert not problems, problems[:5]


def test_criterion_08_deterministic_replay(tmp_path):
    cfg = SimConfig(
        n_replicas=4,
        n_clients=6,
        update_fraction=0.4,
        ops_per_client=15,
        drop_probability=0.15,
        duplicate_probability=0.1,
        delay_min=1,
        delay_max=5,
        seed=42,
        crash_schedule=((2, 30),),
        partition_schedule=((((1, 3), (4,)), 10, 25),),
    )
    out = []
    for name in ("first", "second"):
        rundir = tmp_path / name
        sim_run(cfg).write_outputs(rundir)
        out.append(
            {
                f.name: f.read_bytes()
                for f in sorted(rundir.iterdir())
            }
        )
    identical = out[0] == out[1]

    other = sim_run(dataclasses.replace(cfg, seed=43))
    rerun_dir = tmp_path / "other"
    other.write_outputs(rerun_dir)
    diverged = (rerun_dir / "trace.jsonl").read_bytes() != out[0]["trace.jsonl"]

    passed = identical and diverged
    _line(
        8,
        passed,
        f"replay byte-identical across {sorted(out[0])}, different seed diverges",
    )
    assert identical
    assert diverged


def test_criterion_09_crdt_algebra():
    rng = random.Random(90_01)

    def counter() -> GCounter:
        return GCounter(tuple(rng.randrange(6) for _ in range(3)))

    def gsets(n: int) -> list[GSet]:
        # states of one seeded run of tagged adds and joins: every slot
        # vector is a reachable counter, but a set is reachable only when its
        # frontier names exactly its elements' adds
        seen = reachable_sets(rng, 3, rng.randrange(13))
        return [rng.choice(seen) for _ in range(n)]

    cases = 10_000
    for pick in (lambda: [counter() for _ in range(3)], lambda: gsets(3)):
        for _ in range(cases):
            a, b, c = pick()
            assert a.merge(b) == b.merge(a)
            assert a.merge(b).merge(c) == a.merge(b.merge(c))
            assert a.merge(a) == a
            assert a.compare(a.merge(b)) and b.compare(a.merge(b))
            if a.compare(b) and b.compare(a):
                assert a == b

    for _ in range(cases):
        # each CRDT's payload form: a counter is its own frontier, a set carries one
        for s, op in (
            (counter(), UpdateOp.increment()),
            (gsets(1)[0], UpdateOp.set_add(b"new")),
        ):
            origin = rng.randint(1, 3)
            tag = (origin, s.frontier[origin - 1] + 1)
            grown = apply_update(op, tag, s)
            assert s.compare(grown) and not grown.compare(s)  # strict inflation
            assert set(tags(grown)) == set(tags(s)) | {tag}

    for _ in range(cases):
        a, b = gsets(2)
        joined = a.merge(b)
        assert set(tags(joined)) == set(tags(a)) | set(tags(b))  # tag sets join homomorphically
        assert joined.elements == a.elements | b.elements

    _line(9, True, f"{cases} cases each: lattice laws, inflation, tag homomorphism")


# --------------------------------------------------------------- end to end


def _free_ports(count: int) -> list[int]:
    socks, ports = [], []
    for _ in range(count):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        ports.append(s.getsockname()[1])
    for s in socks:
        s.close()
    return ports


def test_criterion_10_networked_counter(tmp_path):
    ports = _free_ports(3)
    config = {
        "replicas": [
            {"id": i + 1, "host": "127.0.0.1", "port": ports[i]} for i in range(3)
        ],
        "timeout": 0.3,
    }
    cfg_path = tmp_path / "cluster.json"
    cfg_path.write_text(json.dumps(config))

    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "crdtlin.cli", "replica", str(cfg_path), str(i + 1)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for i in range(3)
    ]
    clients: list[ReplicaClient] = []
    try:
        clients = [
            ReplicaClient("127.0.0.1", ports[i], client_id=i + 1, record=True)
            for i in range(3)
        ]
        for k in range(5):
            clients[k % 3].increment()
        first = clients[0].value()
        assert first.result == 5

        procs[2].terminate()
        procs[2].wait(timeout=10)
        for k in range(5):
            clients[k % 2].increment()
        second = clients[1].value()
        assert second.result == 10

        combined = merge_histories(c.history for c in clients)
        verdicts = check_all(combined)
        bad = [name for name, v in verdicts.items() if not v.passed]
        linearize(combined)
        passed = first.result == 5 and second.result == 10 and not bad
        _line(
            10,
            passed,
            f"live cluster: 5 increments -> 5, one daemon killed, 5 more -> 10, "
            f"{len(combined)} recorded ops pass all checks",
        )
        assert not bad, bad
    finally:
        for c in clients:
            try:
                c.close()
            except OSError:
                pass
        for p in procs:
            if p.poll() is None:
                p.terminate()
        for p in procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
