"""Load generation against a live cluster.

``bench_live`` drives closed-loop clients over a query/update mix, each
recording its operations, and returns their merged history: the same
schema-2 history the simulator records, with times in monotonic
nanoseconds. ``crdtlin check`` verifies it, and ``op_metric_rows`` digests
it into the operation rows of ``metrics.csv``.
"""

from __future__ import annotations

import random
import threading
import time

from .crdt import workload_op
from .history import OpRecord, merge_histories
from .service import ClusterConfig, ReplicaClient, RequestFailed

__all__ = ["bench_live"]


def bench_live(
    config: ClusterConfig,
    *,
    clients: int,
    mix: float,
    ops_per_client: int,
    duration: float | None = None,
    seed: int = 0,
) -> list[OpRecord]:
    """Drive a running cluster with ``clients`` closed-loop threads.

    Raises ValueError for an empty or out-of-range workload, and
    ConnectionError if any client cannot reach its replica. The mix and
    per-client scripts are seeded, so two runs issue the same ops.
    """
    if clients < 1 or ops_per_client < 1:
        raise ValueError("a bench needs at least one client and one op per client")
    if not 0.0 <= mix <= 1.0:
        raise ValueError("mix must lie in [0, 1]")
    if duration is not None and duration <= 0:
        raise ValueError("duration must be positive")
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
                    kind = "update" if rng.random() < mix else "query"
                    try:
                        client.call(workload_op(config.crdt, kind, f"bench-{idx}-{n}".encode()))
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
    return merge_histories(histories)
