"""Run one replica daemon with its layers traced.

Usage: python3 perfbench/launcher.py <cluster.json> <replica id> <stats.json>

Does what ``crdtlin replica`` does (INFO logging to stderr, then
``ReplicaDaemon.serve`` until SIGINT or SIGTERM), after wrapping
``Replica.step``, the lattice methods and the codec calls of the service
module. A log handler counts the service's own records of full peer queues
and dropped peer links. On shutdown it writes the span aggregates and
counters to the stats file and the first raw spans next to it.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import crdtlin.service  # noqa: E402
from crdtlin import ReplicaDaemon, load_cluster_config  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


class _ServiceLogCounter(logging.Handler):
    # matched against the service module's own format strings
    PATTERNS = (("service.peer_queue_drops", "full, dropping frame"),
                ("service.peer_link_drops", "link to peer %d dropped"))

    def __init__(self, counts):
        super().__init__(logging.DEBUG)
        self.counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        for key, pattern in self.PATTERNS:
            if pattern in str(record.msg):
                self.counts[key] += 1


async def _serve(daemon: ReplicaDaemon) -> None:
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, daemon.request_stop)
    await daemon.serve()


def main(argv: list[str]) -> int:
    config_path, replica_id, stats_path = argv
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    for handler in logging.getLogger().handlers:
        handler.setLevel(logging.INFO)
    tracer = Tracer()
    service_log = logging.getLogger("crdtlin.service")
    service_log.setLevel(logging.DEBUG)
    service_log.addHandler(_ServiceLogCounter(tracer.counts))
    layers.trace_protocol_and_crdt(tracer)
    frame_sizes = layers.trace_wire(tracer, crdtlin.service)

    daemon = ReplicaDaemon(load_cluster_config(config_path), int(replica_id))
    asyncio.run(_serve(daemon))

    stats = tracer.summary()
    stats["frame_sizes"] = dict(frame_sizes)
    Path(stats_path).write_text(json.dumps(stats))
    tracer.write_spans(Path(stats_path).with_suffix(".spans.jsonl"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
