"""Command-line entry points.

Subcommands: ``replica`` (run a daemon), ``client`` (one operation against
a running replica), ``sim`` (deterministic simulation runs and seed
sweeps), ``check`` (safety and linearizability verdicts over a recorded
history), and ``bench`` (load a live cluster and record its history). ``sim``
and ``bench`` write the same ``history.jsonl`` and ``metrics.csv``.

Exit codes: 0 success, 1 a check or operation failed, 2 usage or
configuration problem, 3 cannot reach the cluster or cannot read its reply,
141 standard output was closed early, as by ``| head``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import os
import sys
from pathlib import Path

from .bench import bench_live
from .checker import (
    UnsupportedInput,
    Verdict,
    check_all,
    check_results,
    linearize,
)
from .crdt import CRDT_KINDS
from .history import HistoryFormatError, read_history, write_history
from .service import (
    ClusterConfigError,
    ReplicaClient,
    ReplicaDaemon,
    RequestFailed,
    load_cluster_config,
)
from .sim import (
    ConfigError,
    SimConfig,
    Simulation,
    op_metric_rows,
    summarize,
    write_metrics_csv,
)
from .wire import FrameError

log = logging.getLogger(__name__)

_USAGE_ERROR = 2
_CHECK_FAILED = 1
_CONNECT_ERROR = 3
_OUTPUT_CLOSED = 141  # 128 + SIGPIPE, as a shell reports a process that SIGPIPE ended


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(f"endpoint {text!r} is not host:port")
    try:
        return host, int(port)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad port in {text!r}") from exc


def _parse_crash(text: str) -> tuple[int, int]:
    try:
        replica, t = text.split("@")
        return int(replica), int(t)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"crash spec {text!r} is not REPLICA@TICK") from exc


def _parse_partition(text: str) -> tuple[tuple[tuple[int, ...], ...], int, int]:
    # e.g. "1|2,3@50..200": groups split by |, members by comma
    try:
        groups_text, window = text.split("@")
        start, end = window.split("..")
        groups = tuple(
            tuple(int(m) for m in group.split(",")) for group in groups_text.split("|")
        )
        return groups, int(start), int(end)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"partition spec {text!r} is not G1|G2@START..END"
        ) from exc


def _parse_seeds(text: str) -> range:
    try:
        first, last = text.split("..") if ".." in text else (text, text)
        seeds = range(int(first), int(last) + 1)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"seed range {text!r} is not A..B") from exc
    if not seeds:
        raise argparse.ArgumentTypeError(f"seed range {text!r} is empty: A must not exceed B")
    return seeds


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crdtlin",
        description="Replicated CRDTs with linearizable queries: daemon, sim, checker, bench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("replica", help="run one replica daemon until interrupted")
    p.add_argument("config", type=Path, help="cluster config JSON")
    p.add_argument("id", type=int, help="replica id from the config")
    p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("client", help="run one operation against a replica")
    p.add_argument("endpoint", type=_parse_endpoint, help="host:port of any replica")
    p.add_argument(
        "op", choices=["incr", "get", "add", "contains", "elements"], help="operation"
    )
    p.add_argument("element", nargs="?", help="element for add/contains (utf-8)")
    p.add_argument("--timeout", type=float, default=10.0)
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("sim", help="run the deterministic simulator")
    p.add_argument("--replicas", type=int, default=3)
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--ops", type=int, default=25, help="operations per client")
    p.add_argument("--mix", type=float, default=0.5, help="update fraction in [0,1]")
    p.add_argument("--crdt", choices=CRDT_KINDS, default="gcounter")
    p.add_argument("--drop", type=float, default=0.0)
    p.add_argument("--duplicate", type=float, default=0.0)
    p.add_argument("--delay-min", type=int, default=1)
    p.add_argument("--delay-max", type=int, default=1)
    p.add_argument("--timeout-ticks", type=int, default=None)
    p.add_argument("--max-retries", type=int, default=50)
    p.add_argument("--batching", action="store_true")
    p.add_argument("--no-instrument", action="store_true",
                   help="record no learned frontiers, so crdtlin check cannot verify the history")
    p.add_argument("--no-invariants", action="store_true")
    p.add_argument("--no-trace", action="store_true")
    p.add_argument("--horizon", type=int, default=1_000_000, help="virtual time limit")
    p.add_argument("--crash", type=_parse_crash, action="append", default=[],
                   metavar="REPLICA@TICK")
    p.add_argument("--partition", type=_parse_partition, action="append", default=[],
                   metavar="G1|G2@START..END")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=_parse_seeds, default=None, metavar="A..B",
                   help="sweep mode: seed,metric,value rows of every seed's metrics")
    p.add_argument("--out", type=Path, default=None, help="output directory")

    p = sub.add_parser("check", help="verify a recorded history")
    p.add_argument("history", type=Path, help="history JSONL file")

    p = sub.add_parser(
        "bench",
        help="load a live cluster and record its history",
        description="Load a live cluster and record its history. crdtlin check reads a history "
        "as starting from empty replicas, so it fails validity on a run against a cluster that "
        "has already served operations: check only runs against freshly started daemons.",
    )
    p.add_argument("--config", type=Path, required=True, help="cluster config JSON")
    p.add_argument("--clients", type=int, default=8)
    p.add_argument("--mix", type=float, default=0.1, help="update fraction in [0,1]")
    p.add_argument("--ops", type=int, default=200, help="operations per client")
    p.add_argument("--duration", type=float, default=None, help="cap in wall-clock seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None, help="output directory")

    return parser


# ------------------------------------------------------------------ commands


def _cmd_replica(args) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    config = load_cluster_config(args.config)
    daemon = ReplicaDaemon(config, args.id)
    try:
        asyncio.run(daemon.serve())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_client(args) -> int:
    if args.op in ("add", "contains") and args.element is None:
        print(f"error: {args.op} needs an element", file=sys.stderr)
        return _USAGE_ERROR
    host, port = args.endpoint
    element = args.element.encode() if args.element is not None else None
    with ReplicaClient(host, port, timeout=args.timeout, connect_retries=3) as client:
        if args.op in ("incr", "add"):
            outcome = client.increment() if args.op == "incr" else client.add(element)
            payload = {
                "tag": list(outcome.tag),
                "round_trips": outcome.round_trips,
                "retries": outcome.retries,
            }
            print(json.dumps(payload) if args.json else f"ok tag={outcome.tag}")
            return 0
        if args.op == "get":
            outcome = client.value()
        elif args.op == "contains":
            outcome = client.contains(element)
        else:
            outcome = client.elements()
        if args.json:
            result = outcome.result
            if isinstance(result, tuple):
                result = [e.decode("utf-8", "backslashreplace") for e in result]
            print(
                json.dumps(
                    {
                        "result": result,
                        "round_trips": outcome.round_trips,
                        "retries": outcome.retries,
                        "learned_frontier": list(outcome.learned_frontier)
                        if outcome.learned_frontier is not None
                        else None,
                    }
                )
            )
        elif args.op == "elements":
            for item in outcome.result:
                print(item.decode("utf-8", "backslashreplace"))
        elif args.op == "contains":
            print("true" if outcome.result else "false")
        else:
            print(outcome.result)
        return 0


def _sim_config(args, seed: int, record_trace: bool) -> SimConfig:
    return SimConfig(
        n_replicas=args.replicas,
        n_clients=args.clients,
        crdt=args.crdt,
        update_fraction=args.mix,
        ops_per_client=args.ops,
        drop_probability=args.drop,
        duplicate_probability=args.duplicate,
        delay_min=args.delay_min,
        delay_max=args.delay_max,
        timeout_ticks=args.timeout_ticks,
        max_retries=args.max_retries if args.max_retries >= 0 else None,
        batching=args.batching,
        instrument=not args.no_instrument,
        check_invariants=not args.no_invariants,
        record_trace=record_trace,
        seed=seed,
        max_virtual_time=args.horizon,
        crash_schedule=tuple(args.crash),
        partition_schedule=tuple(args.partition),
    )


def _cmd_sim(args) -> int:
    if args.seeds is not None:
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            out = open(args.out / "sweep.csv", "w")
        else:
            out = sys.stdout
        try:
            out.write("seed,metric,value\n")
            for seed in args.seeds:
                result = Simulation(_sim_config(args, seed, record_trace=False)).run()
                for key, value in result.metrics.rows(result.history):
                    out.write(f"{seed},{key},{value}\n")
        finally:
            if out is not sys.stdout:
                out.close()
        return 0

    result = Simulation(_sim_config(args, args.seed, record_trace=not args.no_trace)).run()
    metrics = result.metrics
    if args.out:
        result.write_outputs(args.out)
    else:
        write_metrics_csv(metrics.rows(result.history), sys.stdout)
    stats = summarize(result.history)
    done = stats["update"]["ok"] + stats["query"]["ok"]
    stalled = stats["update"]["pending"] + stats["query"]["pending"]
    print(
        f"completed {done} ops in {metrics.final_time} ticks"
        f" ({'quiescent' if metrics.quiescent else 'horizon hit'}, {stalled} stalled)",
        file=sys.stderr,
    )
    return 0


def _print_witness(verdict: Verdict) -> None:
    """A failed check's witness, as one JSON line."""
    witness = verdict.witness
    print(json.dumps(
        {"condition": verdict.condition, "op_ids": list(witness.op_ids), "message": witness.message}
    ))


def _cmd_check(args) -> int:
    with open(args.history) as fp:
        history = read_history(fp)
    failed = False
    verdicts = check_all(history)
    for name, verdict in [*verdicts.items(), ("results", check_results(history))]:
        if verdict.passed:
            print(f"{name}: pass")
        else:
            failed = True
            print(f"{name}: FAIL")
            _print_witness(verdict)
    if failed:
        return _CHECK_FAILED
    witness = linearize(history, verdicts)
    print(f"linearizable: pass ({len(witness.order)} operations ordered)")
    return 0


def _cmd_bench(args) -> int:
    history = bench_live(
        load_cluster_config(args.config),
        clients=args.clients,
        mix=args.mix,
        ops_per_client=args.ops,
        duration=args.duration,
        seed=args.seed,
    )
    rows = op_metric_rows(history)
    if not args.out:
        write_metrics_csv(rows, sys.stdout)
        return 0
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "history.jsonl", "w") as fp:
        write_history(history, fp)
    with open(args.out / "metrics.csv", "w") as fp:
        write_metrics_csv(rows, fp)
    return 0


_COMMANDS = {
    "replica": _cmd_replica,
    "client": _cmd_client,
    "sim": _cmd_sim,
    "check": _cmd_check,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout went away; it is a ConnectionError, so catch it
        # first. As Python's SIGPIPE note advises, point stdout at devnull so
        # that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _OUTPUT_CLOSED
    except (
        ClusterConfigError,
        ConfigError,
        HistoryFormatError,
        UnsupportedInput,
        FileNotFoundError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except RequestFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _CHECK_FAILED
    except (ConnectionError, TimeoutError, FrameError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _CONNECT_ERROR


if __name__ == "__main__":
    sys.exit(main())
