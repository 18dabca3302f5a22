"""Deterministic discrete-event simulation of a replica cluster.

Virtual time is an integer tick counter. Every source of randomness comes
from one seed, fanned out into independent per-subsystem streams keyed by
stable labels, and event ordering is a priority queue keyed by delivery
time with a global sequence number as the tiebreak, so a configuration and
seed pin the entire execution: running twice yields byte-identical trace
files.

The network reorders, delays, drops, and duplicates (at most one extra
copy) inter-replica messages; replicas can crash-stop at scheduled times
and groups can be partitioned for a window. Messages a replica addresses
to itself take one reliable tick. Clients are closed-loop: each runs a
generated script and issues the next operation one tick after the previous
response. Replicas are driven through :class:`~crdtlin.protocol.Runtime`,
whose timer rules hold here with ``effective_timeout()`` ticks as the
timeout and ``delay_max`` ticks as the round trip; a replica's crash also
cancels its timers. A cancelled timer neither steps a replica nor appears
in the trace.

While it runs, the simulator cross-checks execution invariants that the
protocol promises: acceptor payloads only grow, each acceptor's
acknowledged payloads are monotonic, and every learned state is dominated
by a quorum of current acceptor payloads at the moment it is learned.

Operation metrics have one source, the recorded history: ``summarize``
turns it into outcome counts, round-trip histograms and latency
percentiles, and ``op_metric_rows`` lays those out as the operation rows
of ``metrics.csv``, for the ``sim`` command and the live bench alike.
``Metrics`` itself keeps only network and run facts.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from operator import le
from pathlib import Path

from .crdt import CRDT_KINDS, SemilatticeValue, initial_state, workload_op
from .history import OpRecord, TraceEvent, record_reply, write_history, write_trace
from .messages import Ack, Reply, Request
from .protocol import ProtocolConfig, Replica, Runtime, TimerFire

__all__ = [
    "ConfigError",
    "InvariantViolation",
    "Metrics",
    "SimConfig",
    "SimResult",
    "Simulation",
    "op_metric_rows",
    "percentile",
    "sim_run",
    "summarize",
    "workload_generate",
    "write_metrics_csv",
]


class ConfigError(Exception):
    """The simulation configuration is not runnable."""


class InvariantViolation(AssertionError):
    """A protocol execution invariant failed during simulation."""


@dataclass(slots=True)
class SimConfig:
    n_replicas: int = 3
    n_clients: int = 1
    crdt: str = "gcounter"  # "gcounter" | "gset"
    update_fraction: float = 0.5
    ops_per_client: int = 10
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    delay_min: int = 1
    delay_max: int = 1
    timeout_ticks: int | None = None  # default: 4x the round-trip upper bound
    max_retries: int | None = 50
    batching: bool = False
    instrument: bool = True  # record each query's learned frontier in the history
    check_invariants: bool = True
    record_trace: bool = True
    seed: int = 0
    max_virtual_time: int = 1_000_000
    crash_schedule: tuple[tuple[int, int], ...] = ()
    partition_schedule: tuple[tuple[tuple[tuple[int, ...], ...], int, int], ...] = ()

    def effective_timeout(self) -> int:
        if self.timeout_ticks is not None:
            return self.timeout_ticks
        return 8 * self.delay_max

    def validate(self) -> None:
        if self.n_replicas < 1:
            raise ConfigError("n_replicas must be at least 1")
        if self.n_clients < 0 or self.ops_per_client < 0:
            raise ConfigError("client counts cannot be negative")
        if self.crdt not in CRDT_KINDS:
            raise ConfigError(f"unknown crdt {self.crdt!r}")
        if not 0.0 <= self.update_fraction <= 1.0:
            raise ConfigError("update_fraction must lie in [0, 1]")
        for name, p in (("drop", self.drop_probability), ("duplicate", self.duplicate_probability)):
            if not 0.0 <= p < 1.0:
                raise ConfigError(f"{name} probability must lie in [0, 1)")
        if self.delay_min < 1:
            raise ConfigError("delay_min must be at least 1 tick")
        if self.delay_max < self.delay_min:
            raise ConfigError("delay_max must be >= delay_min")
        if self.effective_timeout() <= 2 * self.delay_max:
            raise ConfigError("timeout must exceed one round trip of maximum delay")
        if self.max_retries is not None and self.max_retries < 0:
            raise ConfigError("max_retries cannot be negative")
        if self.max_virtual_time < 1:
            raise ConfigError("max_virtual_time must be positive")
        replicas = set(range(1, self.n_replicas + 1))
        for rid, t in self.crash_schedule:
            if rid not in replicas:
                raise ConfigError(f"crash schedule names unknown replica {rid}")
            if not 0 <= t <= self.max_virtual_time:
                raise ConfigError(f"crash time {t} outside the run horizon")
        for groups, t0, t1 in self.partition_schedule:
            seen: set[int] = set()
            for group in groups:
                for rid in group:
                    if rid not in replicas:
                        raise ConfigError(f"partition names unknown replica {rid}")
                    if rid in seen:
                        raise ConfigError(f"replica {rid} appears in two partition groups")
                    seen.add(rid)
            if not 0 <= t0 < t1:
                raise ConfigError("partition window must satisfy 0 <= start < end")


def _stream(seed: int, label: str) -> random.Random:
    # string seeding hashes the whole key, so streams never collide and new
    # subsystems do not perturb existing ones
    return random.Random(f"{seed}:{label}")


def workload_generate(config: SimConfig) -> list[list[str]]:
    """Per-client operation scripts: "update" / "query" kinds only.

    Targets and payloads are chosen at invocation time from separate
    streams so that scripts stay stable under fault-schedule changes.
    """
    rng = _stream(config.seed, "workload")
    scripts = []
    for _ in range(config.n_clients):
        script = [
            "update" if rng.random() < config.update_fraction else "query"
            for _ in range(config.ops_per_client)
        ]
        scripts.append(script)
    return scripts


def percentile(sorted_values: list, q: float):
    """The sample at index ``q * (n - 1)`` rounded half up; None for no samples."""
    if not sorted_values:
        return None
    idx = max(0, min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5)))
    return sorted_values[idx]


def summarize(history: list[OpRecord]) -> dict:
    """Per kind: outcome counts, the round-trip histogram of ok ops, and
    p50/p95 of ok latencies (omitted when no op succeeded). Latencies are in
    the history's clock: virtual ticks simulated, monotonic ns live."""
    out: dict = {}
    for kind in ("update", "query"):
        records = [r for r in history if r.kind == kind]
        ok = [r for r in records if r.outcome == "ok"]
        latencies = sorted(r.response_t - r.invoke_t for r in ok)
        hist = Counter(r.round_trips for r in ok)
        entry = {
            "ok": len(ok),
            "failed": sum(1 for r in records if r.outcome == "failed"),
            "pending": sum(1 for r in records if r.outcome is None),
            "round_trips": dict(sorted(hist.items())),
        }
        if latencies:
            entry["p50"] = percentile(latencies, 0.50)
            entry["p95"] = percentile(latencies, 0.95)
        out[kind] = entry
    return out


def op_metric_rows(history: list[OpRecord]) -> list[tuple[str, object]]:
    """The ``ops_*``, ``round_trips_*`` and ``latency_*`` rows of ``metrics.csv``."""
    stats = summarize(history)
    rows: list[tuple[str, object]] = []
    for kind in ("query", "update"):
        for outcome in ("failed", "ok", "pending"):
            if stats[kind][outcome]:
                rows.append((f"ops_{kind}_{outcome}", stats[kind][outcome]))
    for kind in ("query", "update"):
        for n, count in stats[kind]["round_trips"].items():
            rows.append((f"round_trips_{kind}_{n}", count))
    for kind in ("update", "query"):
        if "p50" in stats[kind]:
            rows.append((f"latency_{kind}_p50", stats[kind]["p50"]))
            rows.append((f"latency_{kind}_p95", stats[kind]["p95"]))
    return rows


def write_metrics_csv(rows: list[tuple[str, object]], fp) -> None:
    """``metrics.csv``: a ``metric,value`` header, the schema version, then ``rows``."""
    fp.write("metric,value\nschema_version,1\n")
    for key, value in rows:
        fp.write(f"{key},{value}\n")


@dataclass(slots=True)
class Metrics:
    """Network and run facts; operation figures come from the history."""

    messages_sent: Counter = field(default_factory=Counter)
    delivered: int = 0
    dropped: Counter = field(default_factory=Counter)  # by reason
    duplicated: int = 0
    max_payload_bytes: int = 0
    final_time: int = 0
    quiescent: bool = True

    def rows(self, history: list[OpRecord]) -> list[tuple[str, object]]:
        rows: list[tuple[str, object]] = [
            ("final_time", self.final_time),
            ("quiescent", int(self.quiescent)),
            ("messages_delivered", self.delivered),
            ("messages_duplicated", self.duplicated),
            ("max_payload_bytes", self.max_payload_bytes),
        ]
        for mtype in sorted(self.messages_sent):
            rows.append((f"messages_sent_{mtype}", self.messages_sent[mtype]))
        for reason in sorted(self.dropped):
            rows.append((f"messages_dropped_{reason}", self.dropped[reason]))
        return rows + op_metric_rows(history)


@dataclass(slots=True)
class SimResult:
    config: SimConfig
    trace: list[TraceEvent]
    history: list[OpRecord]
    metrics: Metrics

    def write_outputs(self, outdir: str | Path) -> None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        if self.config.record_trace:
            with open(outdir / "trace.jsonl", "w") as fp:
                write_trace(self.trace, fp)
        with open(outdir / "history.jsonl", "w") as fp:
            write_history(self.history, fp)
        with open(outdir / "metrics.csv", "w") as fp:
            write_metrics_csv(self.metrics.rows(self.history), fp)


@dataclass(slots=True)
class _ClientState:
    script: list[str]
    next_op: int = 0


class Simulation(Runtime):
    """One configured run; faults come from the config's schedules."""

    def __init__(self, config: SimConfig):
        config.validate()
        self.config = config
        self._ran = False

    # -- run

    def run(self) -> SimResult:
        if self._ran:
            raise ConfigError("a Simulation object runs once")
        self._ran = True
        cfg = self.config

        self._delay_rng = _stream(cfg.seed, "delays")
        self._drop_rng = _stream(cfg.seed, "drops")
        self._dup_rng = _stream(cfg.seed, "duplicates")
        self._target_rng = _stream(cfg.seed, "targets")

        proto = ProtocolConfig(
            n_replicas=cfg.n_replicas, batching=cfg.batching, max_retries=cfg.max_retries
        )
        self.replicas = {
            rid: Replica(rid, proto, initial_state(cfg.crdt, cfg.n_replicas))
            for rid in range(1, cfg.n_replicas + 1)
        }
        self.crashed: set[int] = set()
        self._alive = list(self.replicas)  # ascending, as the target draw expects
        self.clients = [_ClientState(script) for script in workload_generate(cfg)]

        self.trace: list[TraceEvent] = []
        self.metrics = Metrics()
        self.records: dict[bytes, OpRecord] = {}  # by client request id, in op order
        self._incremental_times: dict[bytes, list[int]] = defaultdict(list)
        self._next_op_id = 0
        self._seq = 0
        self._heap: list = []
        self.timers: dict[bytes, list] = {}  # request id -> heap entry of its armed timer
        self.timeout = cfg.effective_timeout()
        self.round_trip = cfg.delay_max
        self._sized = None  # the state sent last; states are immutable, so size it once
        self._now = 0
        self._tracing = cfg.record_trace

        # invariant monitor state
        self._last_acked: dict[int, SemilatticeValue] = {}

        for rid, t in sorted(cfg.crash_schedule):
            self._push(t, self._process_crash, (rid,))
        for cid, client in enumerate(self.clients):
            if client.script:
                self._push(0, self._process_invoke, (cid,))

        horizon_hit = False
        heap = self._heap
        while heap:
            t, _seq, handler, data = heapq.heappop(heap)
            if handler is None:
                continue  # a cancelled timer
            if t > cfg.max_virtual_time:
                horizon_hit = True
                break
            self._now = t
            handler(t, *data)

        self.metrics.final_time = self._now
        self.metrics.quiescent = not horizon_hit
        # updates still in flight (stalled or behind a crash) have applied at
        # their origin, so their tags can surface in learned states; recover
        # them for the checker
        for replica in self.replicas.values():
            for req in replica.requests.values():
                if req.kind != "update":
                    continue
                for request_id, tag in req.ops:
                    rec = self.records[request_id]
                    if rec.tag is None:
                        rec.tag = tag
        history = list(self.records.values())
        return SimResult(self.config, self.trace, history, self.metrics)

    # -- internals

    def _push(self, t: int, handler, data: tuple) -> list:
        """Schedule ``handler(t, *data)``; the entry is returned so that a
        timer can be cancelled by clearing its handler."""
        self._seq += 1
        entry = [t, self._seq, handler, data]
        heapq.heappush(self._heap, entry)
        return entry

    def schedule(self, rid: int, delay: int, request_id: bytes) -> list:
        return self._push(self._now + delay, self._process_timer, (rid, request_id))

    def unschedule(self, entry: list) -> None:
        entry[2] = None  # the run loop skips it

    def _trace(self, t: int, kind: str, detail: tuple[tuple[str, object], ...]) -> None:
        # callers test ``_tracing`` first, so an untraced run builds no detail
        self._seq += 1
        self.trace.append(TraceEvent(t=t, seq=self._seq, kind=kind, detail=detail))

    # -- event processing

    def _process_crash(self, t: int, rid: int) -> None:
        if rid in self.crashed:
            return
        self.crashed.add(rid)
        self._alive.remove(rid)
        for request_id in self.replicas[rid].requests:
            self.cancel(request_id)  # a crashed replica's requests never end
        if self._tracing:
            self._trace(t, "crash", (("replica", rid),))

    def _process_timer(self, t: int, rid: int, request_id: bytes) -> None:
        del self.timers[request_id]
        if self._tracing:
            self._trace(t, "timer", (("replica", rid), ("request_id", request_id.hex()),))
        self._step_replica(t, rid, TimerFire(request_id))

    def _process_invoke(self, t: int, cid: int) -> None:
        client = self.clients[cid]
        if not self._alive:
            return  # nowhere to send: the client halts
        target = self._target_rng.choice(self._alive)
        kind = client.script[client.next_op]
        client.next_op += 1
        self._next_op_id += 1
        op_id = self._next_op_id
        # a set element is unique per op by construction
        cmd = workload_op(self.config.crdt, kind, f"e{op_id}".encode())
        event = Request(cid, op_id.to_bytes(16, "big"), cmd)
        self.records[event.request_id] = OpRecord(
            op_id=op_id, client=cid, replica=target, kind=kind, op=cmd, invoke_t=t
        )
        if self._tracing:
            self._trace(
                t,
                "invoke",
                (("op_id", op_id), ("client", cid), ("replica", target), ("op", kind)),
            )
        self._step_replica(t, target, event)

    def _process_deliver(self, t: int, src: int, dst: int, msg) -> None:
        if dst in self.crashed:
            reason = "crashed"
        elif self._partitioned(src, dst, t):
            reason = "partition"
        else:
            self.metrics.delivered += 1
            if self._tracing:
                self._trace(
                    t,
                    "deliver",
                    (("src", src), ("dst", dst), ("msg", type(msg).__name__),
                     ("request_id", msg.request_id.hex())),
                )
            self._step_replica(t, dst, msg)
            return
        self.metrics.dropped[reason] += 1
        if self._tracing:
            self._trace(
                t, "drop", (("reason", reason), ("src", src), ("dst", dst), ("msg", type(msg).__name__))
            )

    def _partitioned(self, src: int, dst: int, t: int) -> bool:
        if src == dst:
            return False
        for groups, t0, t1 in self.config.partition_schedule:
            if not t0 <= t < t1:
                continue
            membership: dict[int, int] = {}
            for idx, group in enumerate(groups):
                for rid in group:
                    membership[rid] = idx
            # replicas outside every named group are isolated singletons
            if membership.get(src, -src) != membership.get(dst, -dst):
                return True
        return False

    # -- replica stepping and output routing

    def _step_replica(self, t: int, rid: int, event) -> None:
        if rid in self.crashed:
            return
        replica = self.replicas[rid]
        before_state = replica.state
        out = self.route(replica, event)
        if self.config.check_invariants:
            self._check_step_invariants(rid, replica, before_state, out)
        # recorded after routing: a step that retries a request never answers it
        for retry in out.retries:
            if retry.kind == "incremental":
                self._incremental_times[retry.request_id].append(t)

    def send(self, src: int, dst: int, msg) -> None:
        cfg = self.config
        t = self._now
        state = getattr(msg, "state", None)
        if state is not None and state is not self._sized:
            self._sized = state
            size = state.canonical_size()
            if size > self.metrics.max_payload_bytes:
                self.metrics.max_payload_bytes = size
        mtype = type(msg).__name__
        self.metrics.messages_sent[mtype] += 1
        if dst == src:
            # local hop: reliable, never duplicated, one tick
            self._push(t + 1, self._process_deliver, (src, dst, msg))
            return
        # each draw below comes from a stream of its own, so a draw whose
        # outcome is fixed by the config can be skipped without moving any other
        copies = 1
        if cfg.duplicate_probability and self._dup_rng.random() < cfg.duplicate_probability:
            copies = 2
            self.metrics.duplicated += 1
            if self._tracing:
                self._trace(t, "duplicate", (("src", src), ("dst", dst), ("msg", mtype)))
        for _ in range(copies):
            if cfg.drop_probability and self._drop_rng.random() < cfg.drop_probability:
                self.metrics.dropped["loss"] += 1
                if self._tracing:
                    self._trace(t, "drop", (("reason", "loss"), ("src", src), ("dst", dst), ("msg", mtype)))
                continue
            if cfg.delay_min == cfg.delay_max:
                delay = cfg.delay_min
            else:
                delay = self._delay_rng.randint(cfg.delay_min, cfg.delay_max)
            self._push(t + delay, self._process_deliver, (src, dst, msg))

    def answer(self, request_id: bytes, reply: Reply) -> None:
        t = self._now
        rec = self.records[reply.request_id]
        record_reply(rec, reply, t)
        if not self.config.instrument:
            rec.learned_frontier = None  # the reply keeps it for the invariant monitor
        times = self._incremental_times.get(request_id)
        if times:
            rec.incremental_retry_times = tuple(times)
        if self._tracing:
            self._trace(
                t,
                "respond",
                (("op_id", rec.op_id), ("outcome", rec.outcome), ("round_trips", reply.round_trips)),
            )
        client = self.clients[rec.client]
        if client.next_op < len(client.script):  # a finished client schedules nothing
            self._push(t + 1, self._process_invoke, (rec.client,))

    # -- execution invariants

    def _check_step_invariants(self, rid, replica, before_state, out) -> None:
        after = replica.state
        if not before_state.compare(after):
            raise InvariantViolation(f"replica {rid} acceptor payload shrank")
        for _dst, msg in out.sends:
            if isinstance(msg, Ack):
                last = self._last_acked.get(rid)
                if last is not None and not last.compare(msg.state):
                    raise InvariantViolation(f"replica {rid} acknowledged a smaller payload")
                self._last_acked[rid] = msg.state
        checked = None  # a batch's replies share one learned frontier: check it once
        for _request_id, reply in out.replies:
            learned = reply.learned_frontier
            if not reply.ok or learned is None or learned is checked:
                continue
            checked = learned
            dominating = {
                r for r, rep in self.replicas.items() if all(map(le, learned, rep.state.frontier))
            }
            if not replica.is_quorum(dominating):
                raise InvariantViolation(
                    "learned state not dominated by any quorum of acceptor payloads"
                )


def sim_run(config: SimConfig) -> SimResult:
    return Simulation(config).run()
