"""Round-trip and latency benchmarking, against the simulator or a live
cluster.

Both modes drive closed-loop clients over a query/update mix and emit the
same four-column CSV: ``kind,latency,round_trips,outcome``. Latency is in
virtual ticks for simulated runs and in milliseconds for live ones. After
the data rows come summary rows in the same four columns: a
``summary:<kind>:p50`` / ``:p95`` row holds the percentile in the latency
column, and a ``summary:<kind>:rt:<n>`` row holds, in the latency column,
the number of operations that finished in ``n`` round trips.
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter
from dataclasses import dataclass

from .service import ClusterConfig, ReplicaClient, RequestFailed
from .sim import SimConfig, percentile, sim_run

__all__ = [
    "BenchRow",
    "bench_live",
    "bench_sim",
    "read_bench_csv",
    "summarize",
    "write_bench_csv",
]


@dataclass(frozen=True, slots=True)
class BenchRow:
    kind: str  # "update" | "query"
    latency: float | None  # ticks (sim) or milliseconds (live); None = pending
    round_trips: int | None
    outcome: str  # "ok" | "failed" | "pending"


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
    result = sim_run(config)
    rows = []
    for rec in result.history:
        if rec.outcome is None:
            rows.append(BenchRow(rec.kind, None, None, "pending"))
        else:
            rows.append(
                BenchRow(rec.kind, rec.response_t - rec.invoke_t, rec.round_trips, rec.outcome)
            )
    return rows


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
    per_client_rows: list[list[BenchRow]] = [[] for _ in range(clients)]
    errors: list[BaseException] = []
    replicas = config.replicas

    def run_client(idx: int) -> None:
        rng = random.Random(f"{seed}:client:{idx}")
        endpoint = replicas[idx % len(replicas)]
        rows = per_client_rows[idx]
        try:
            with ReplicaClient(endpoint.host, endpoint.port, client_id=idx) as client:
                for n in range(ops_per_client):
                    if deadline is not None and time.monotonic() >= deadline:
                        break
                    is_update = rng.random() < mix
                    started = time.monotonic_ns()
                    try:
                        if is_update:
                            if config.crdt == "gcounter":
                                outcome = client.increment()
                            else:
                                outcome = client.add(f"bench-{idx}-{n}".encode())
                        else:
                            if config.crdt == "gcounter":
                                outcome = client.value()
                            else:
                                outcome = client.elements()
                        elapsed = (time.monotonic_ns() - started) / 1e6
                        rows.append(
                            BenchRow(
                                "update" if is_update else "query",
                                elapsed,
                                outcome.round_trips,
                                "ok",
                            )
                        )
                    except RequestFailed:
                        elapsed = (time.monotonic_ns() - started) / 1e6
                        rows.append(
                            BenchRow("update" if is_update else "query", elapsed, None, "failed")
                        )
        except BaseException as exc:  # surfaced to the caller after join
            errors.append(exc)

    threads = [threading.Thread(target=run_client, args=(i,)) for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return [row for rows in per_client_rows for row in rows]


# ----------------------------------------------------------------- summaries


def summarize(rows: list[BenchRow]) -> dict:
    out: dict = {}
    for kind in ("update", "query"):
        ok = [r for r in rows if r.kind == kind and r.outcome == "ok"]
        latencies = sorted(r.latency for r in ok)
        hist = Counter(r.round_trips for r in ok)
        entry = {
            "ok": len(ok),
            "failed": sum(1 for r in rows if r.kind == kind and r.outcome == "failed"),
            "pending": sum(1 for r in rows if r.kind == kind and r.outcome == "pending"),
            "round_trips": dict(sorted(hist.items())),
        }
        if latencies:
            entry["p50"] = percentile(latencies, 0.50)
            entry["p95"] = percentile(latencies, 0.95)
        out[kind] = entry
    return out


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
