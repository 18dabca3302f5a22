"""Round-trip and latency benchmarking, against the simulator or a live
cluster.

Both modes drive closed-loop clients over a query/update mix, record an
operation history, and project it with ``op_rows`` into the same
four-column CSV: ``kind,latency,round_trips,outcome``. Latency is in
virtual ticks for simulated runs and in milliseconds for live ones. After
the data rows come summary rows in the same four columns, computed by
``summarize``: a ``summary:<kind>:p50`` / ``:p95`` row holds the percentile
in the latency column, and a ``summary:<kind>:rt:<n>`` row holds, in the
latency column, the number of operations that finished in ``n`` round
trips.
"""

from __future__ import annotations

import random
import threading
import time

from .history import OpRecord
from .service import ClusterConfig, ReplicaClient, RequestFailed
from .sim import BenchRow, SimConfig, op_rows, sim_run, summarize

__all__ = [
    "BenchRow",
    "bench_live",
    "bench_sim",
    "read_bench_csv",
    "summarize",
    "write_bench_csv",
]


def bench_sim(
    *,
    clients: int,
    mix: float,
    batching: bool,
    ops_per_client: int,
    n_replicas: int = 3,
    drop: float = 0.0,
    duplicate: float = 0.0,
    delay_min: int = 1,
    delay_max: int = 1,
    duration: int | None = None,
    seed: int = 0,
    crdt: str = "gcounter",
    instrument: bool = False,
    check_invariants: bool = True,
) -> list[BenchRow]:
    config = SimConfig(
        n_replicas=n_replicas,
        n_clients=clients,
        crdt=crdt,
        update_fraction=mix,
        ops_per_client=ops_per_client,
        drop_probability=drop,
        duplicate_probability=duplicate,
        delay_min=delay_min,
        delay_max=delay_max,
        batching=batching,
        instrument=instrument,
        check_invariants=check_invariants,
        record_trace=False,
        seed=seed,
        max_virtual_time=duration if duration is not None else 100_000_000,
    )
    return op_rows(sim_run(config).history)


def bench_live(
    config: ClusterConfig,
    *,
    clients: int,
    mix: float,
    ops_per_client: int,
    duration: float | None = None,
    seed: int = 0,
) -> list[BenchRow]:
    """Drive a running cluster with ``clients`` closed-loop threads.

    Raises ConnectionError if any client cannot reach its replica. The mix
    and per-client scripts are seeded, so two runs issue the same ops.
    """
    deadline = None if duration is None else time.monotonic() + duration
    histories: list[list[OpRecord]] = [[] for _ in range(clients)]
    errors: list[BaseException] = []
    replicas = config.replicas

    def run_client(idx: int) -> None:
        rng = random.Random(f"{seed}:client:{idx}")
        endpoint = replicas[idx % len(replicas)]
        try:
            with ReplicaClient(endpoint.host, endpoint.port, client_id=idx, record=True) as client:
                histories[idx] = client.history
                for n in range(ops_per_client):
                    if deadline is not None and time.monotonic() >= deadline:
                        break
                    is_update = rng.random() < mix
                    try:
                        if is_update and config.crdt == "gcounter":
                            client.increment()
                        elif is_update:
                            client.add(f"bench-{idx}-{n}".encode())
                        elif config.crdt == "gcounter":
                            client.value()
                        else:
                            client.elements()
                    except RequestFailed:
                        pass  # the history records the op as failed
        except BaseException as exc:  # surfaced to the caller after join
            errors.append(exc)

    threads = [threading.Thread(target=run_client, args=(i,)) for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    # recorded times are monotonic nanoseconds; bench latencies are milliseconds
    return op_rows([rec for history in histories for rec in history], scale=1e-6)


def write_bench_csv(rows: list[BenchRow], fp) -> None:
    fp.write("kind,latency,round_trips,outcome\n")
    for row in rows:
        latency = "" if row.latency is None else f"{row.latency:g}"
        rt = "" if row.round_trips is None else str(row.round_trips)
        fp.write(f"{row.kind},{latency},{rt},{row.outcome}\n")
    stats = summarize(rows)
    for kind in ("update", "query"):
        entry = stats[kind]
        if "p50" in entry:
            fp.write(f"summary:{kind}:p50,{entry['p50']:g},,\n")
            fp.write(f"summary:{kind}:p95,{entry['p95']:g},,\n")
        for n, count in entry["round_trips"].items():
            fp.write(f"summary:{kind}:rt:{n},{count},{n},\n")


def read_bench_csv(fp) -> list[BenchRow]:
    header = fp.readline().strip()
    if header != "kind,latency,round_trips,outcome":
        raise ValueError(f"not a bench CSV (header {header!r})")
    rows = []
    for line in fp:
        line = line.strip()
        if not line or line.startswith("summary:"):
            continue
        kind, latency, rt, outcome = line.split(",")
        rows.append(
            BenchRow(
                kind,
                float(latency) if latency else None,
                int(rt) if rt else None,
                outcome,
            )
        )
    return rows
