"""CLI integration tests: every subcommand and every exit-code path."""

import asyncio
import json
import socket
import struct
import subprocess
import sys
import threading

import pytest

from crdtlin import checker
from crdtlin.cli import main
from crdtlin.messages import Reply
from crdtlin.history import HistoryFormatError, read_history, record_to_json, write_history
from crdtlin.service import ClusterConfig, ReplicaDaemon, ReplicaEndpoint
from crdtlin.sim import SimConfig, sim_run
from crdtlin.wire import encode
from tests_support import answer_once, reply_with_frontier_slot


def run_cli(*argv) -> int:
    return main(list(argv))


# ----------------------------------------------------------------------- sim


def test_sim_writes_outputs_and_is_repeatable(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(
            "sim", "--clients", "3", "--ops", "10", "--drop", "0.1",
            "--seed", "7", "--out", str(out),
        ) == 0
    for name in ("trace.jsonl", "history.jsonl", "metrics.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert "completed" in capsys.readouterr().err


def test_sim_crash_flag(tmp_path):
    out = tmp_path / "run"
    assert run_cli(
        "sim", "--replicas", "3", "--clients", "2", "--ops", "8",
        "--crash", "1@0", "--seed", "3", "--out", str(out),
    ) == 0
    assert (out / "history.jsonl").exists()


def test_sim_partition_flag(tmp_path):
    assert run_cli(
        "sim", "--clients", "2", "--ops", "6", "--partition", "1|2,3@0..50",
        "--horizon", "10000", "--out", str(tmp_path / "p"),
    ) == 0


def test_sim_batching_flag(tmp_path, capsys):
    def prepares(*flags):
        out = tmp_path / ("batched" if flags else "plain")
        assert run_cli(
            "sim", "--clients", "8", "--mix", "0.1", "--ops", "40", *flags, "--out", str(out),
        ) == 0
        metrics = dict(line.split(",") for line in (out / "metrics.csv").read_text().splitlines())
        assert int(metrics["ops_query_ok"]) + int(metrics["ops_update_ok"]) == 320
        return int(metrics["messages_sent_Prepare"])

    # 8 clients on 3 replicas: batched queries share prepare rounds
    assert prepares("--batching") < prepares()
    assert "completed 320 ops" in capsys.readouterr().err


def test_sim_seed_sweep(tmp_path):
    out = tmp_path / "sweep"
    assert run_cli(
        "sim", "--clients", "2", "--ops", "5", "--seeds", "1..5", "--out", str(out),
    ) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "seed,metric,value"
    rows = [line.split(",") for line in lines[1:]]
    assert sorted({int(seed) for seed, _, _ in rows}) == [1, 2, 3, 4, 5]
    # every seed reports the same metrics a single run writes, round trips included
    for seed in range(1, 6):
        metrics = {metric for s, metric, _ in rows if s == str(seed)}
        assert {"final_time", "ops_query_ok", "round_trips_query_1", "latency_query_p50"} <= metrics


def test_sim_seed_sweep_rows_are_each_seeds_metrics(tmp_path, capsys):
    assert run_cli(
        "sim", "--clients", "4", "--ops", "20", "--mix", "0.3", "--batching", "--seeds", "3..4",
    ) == 0
    sweep = capsys.readouterr().out.splitlines()[1:]
    for seed in (3, 4):
        single = tmp_path / str(seed)
        assert run_cli(
            "sim", "--clients", "4", "--ops", "20", "--mix", "0.3", "--batching",
            "--seed", str(seed), "--no-trace", "--out", str(single),
        ) == 0
        # a metrics.csv without its header and schema row
        expected = (single / "metrics.csv").read_text().splitlines()[2:]
        assert [line.split(",", 1)[1] for line in sweep if line.startswith(f"{seed},")] == expected


def test_sim_sweep_into_a_closed_pipe_ends_quietly():
    # like `crdtlin sim --seeds 1..2 | head` once head has exited
    proc = subprocess.Popen(
        [sys.executable, "-m", "crdtlin.cli", "sim", "--clients", "1", "--ops", "2",
         "--seeds", "1..2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141  # 128 + SIGPIPE, not 3 ("cannot reach the cluster")
    assert err == b""


def test_sim_rejects_bad_config(capsys):
    assert run_cli("sim", "--drop", "1.5") == 2
    assert "error:" in capsys.readouterr().err


def test_sim_rejects_an_empty_seed_range(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("sim", "--seeds", "5..3")
    assert exc.value.code == 2
    err = capsys.readouterr()
    assert "is empty" in err.err and err.out == ""


def test_sim_metrics_to_stdout_without_out(capsys):
    assert run_cli("sim", "--clients", "1", "--ops", "3", "--no-trace") == 0
    out = capsys.readouterr().out
    assert out.startswith("metric,value")


# --------------------------------------------------------------------- check


def _write_history(tmp_path, records, name="history.jsonl"):
    path = tmp_path / name
    with open(path, "w") as fp:
        write_history(records, fp)
    return path


def test_check_passing_history(tmp_path, capsys):
    history = sim_run(
        SimConfig(n_clients=3, ops_per_client=10, drop_probability=0.1, seed=4)
    ).history
    path = _write_history(tmp_path, history)
    assert run_cli("check", str(path)) == 0
    out = capsys.readouterr().out
    for condition in ("validity", "stability", "consistency",
                      "update-stability", "update-visibility", "results"):
        assert f"{condition}: pass" in out
    assert "linearizable: pass" in out


def test_check_fails_a_query_whose_result_its_frontier_does_not_name(tmp_path, capsys):
    history = sim_run(
        SimConfig(n_clients=3, ops_per_client=10, crdt="gset", update_fraction=0.5, seed=4)
    ).history
    query = next(r for r in history if r.kind == "query" and r.outcome == "ok" and r.result)
    if query.op.kind == "set_contains":
        query.result = not query.result
    else:
        query.result = query.result[1:]
    path = _write_history(tmp_path, history)
    assert run_cli("check", str(path)) == 1
    out = capsys.readouterr().out
    assert "update-visibility: pass" in out and "results: FAIL" in out
    lines = out.splitlines()
    witness = json.loads(lines[lines.index("results: FAIL") + 1])
    assert witness["condition"] == "results" and witness["op_ids"][-1] == query.op_id
    assert "linearizable" not in out


def test_check_runs_each_safety_check_once(tmp_path, capsys, monkeypatch):
    calls = dict.fromkeys(checker.GLA_CONDITIONS, 0)

    def counted(name, check):
        def run(history):
            calls[name] += 1
            return check(history)

        return run

    for name, check in list(checker._CHECKS.items()):
        monkeypatch.setitem(checker._CHECKS, name, counted(name, check))
    history = sim_run(SimConfig(n_clients=3, ops_per_client=10, seed=4)).history
    path = _write_history(tmp_path, history)
    assert run_cli("check", str(path)) == 0
    assert "linearizable: pass" in capsys.readouterr().out
    assert calls == dict.fromkeys(checker.GLA_CONDITIONS, 1)
    # called alone, linearize still runs the checks itself
    checker.linearize(history)
    assert calls == dict.fromkeys(checker.GLA_CONDITIONS, 2)


def test_check_gla_violation_exits_one_with_witness_json(tmp_path, capsys):
    from tests_support import make_query, make_update

    query = make_query(2, 20, 30, (0, 0, 0))
    query.result = 0  # the answer its frontier names, so only the tags are wrong
    history = [make_update(1, 0, 10, (1, 1)), query]
    path = _write_history(tmp_path, history)
    assert run_cli("check", str(path)) == 1
    out = capsys.readouterr().out
    assert "update-visibility: FAIL" in out and "results: pass" in out
    lines = out.splitlines()
    witness = json.loads(lines[lines.index("update-visibility: FAIL") + 1])
    assert witness["condition"] == "update-visibility"
    assert witness["op_ids"] == [1, 2]


def test_check_uninstrumented_history_is_a_usage_error(tmp_path, capsys):
    history = sim_run(
        SimConfig(n_clients=2, ops_per_client=4, instrument=False, seed=1)
    ).history
    path = _write_history(tmp_path, history)
    assert run_cli("check", str(path)) == 2
    assert "error:" in capsys.readouterr().err


def test_check_missing_file_is_a_usage_error(tmp_path):
    assert run_cli("check", str(tmp_path / "nope.jsonl")) == 2


def test_check_malformed_history_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "garbage.jsonl"
    path.write_text('{"no": "schema"}\n')
    assert run_cli("check", str(path)) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [(None, None), ("learned_frontier", "ab"), ("tag", [1, 1.5]),
     ("op_id", [1]), ("client", "0"), ("replica", 1.0), ("invoke_t", "a"),
     ("response_t", "x"), ("round_trips", True), ("retries", 2.5),
     ("incremental_retry_times", None), ("op", "ab"), ("kind", "Query"),
     ("outcome", "OK"), ("response_t", None), ("outcome", None), ("invoke_t", 11),
     ("tag", [7]), ("tag", []), ("tag", [1, 2, 3]),
     ("op", {"kind": "set_contains", "element": "!!"}),
     ("op", {"kind": "set_contains", "element": "a?b"}),
     ("result", {"elements": ["!!"]}),
     ("op", {"element": "ZQ=="}), ("op", {"kind": "counter_value", "x": 1}),
     ("op", {"kind": "decrement"}), ("op", {"kind": ["counter_value"]}),
     ("op", {"kind": "increment"}), ("op", {"kind": "counter_value", "element": "ZQ=="}),
     ("op", {"kind": "set_contains"}), ("op", {"kind": "set_contains", "element": None}),
     ("result", "3"), ("result", 2.5), ("result", [1]), ("result", {"value": 3}),
     ("result", {"elements": ["ZQ=="], "x": 1}), ("result", {"elements": "ZQ=="})],
    ids=["not-an-object", "frontier-string", "tag-float",
         "op_id-list", "client-string", "replica-float", "invoke_t-string",
         "response_t-string", "round_trips-bool", "retries-float", "retry-times-null",
         "op-string", "kind-unknown", "outcome-unknown", "outcome-without-response_t",
         "response_t-without-outcome", "response_t-before-invoke_t",
         "tag-one-int", "tag-empty", "tag-three-ints",
         "element-not-base64", "element-bad-base64-char", "result-element-not-base64",
         "op-without-kind", "op-extra-key", "op-kind-unknown", "op-kind-not-a-string",
         "op-update-in-a-query", "op-element-where-none-is-taken", "op-element-missing",
         "op-element-null", "result-string", "result-float", "result-list",
         "result-object-without-elements", "result-elements-extra-key", "result-elements-string"],
)
def test_check_mistyped_history_line_is_a_usage_error(tmp_path, capsys, field, value):
    from tests_support import make_query

    if field is None:
        line = "[1, 2]"
    else:
        line = json.dumps({**json.loads(record_to_json(make_query(1, 0, 10, (1, 0, 0)))), field: value})
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n")
    with open(path) as fp, pytest.raises(HistoryFormatError):
        read_history(fp)
    assert run_cli("check", str(path)) == 2
    assert "error:" in capsys.readouterr().err


def test_check_repeated_op_id_is_a_usage_error(tmp_path, capsys):
    history = sim_run(SimConfig(n_clients=2, ops_per_client=5, seed=1)).history
    for rec in history:
        rec.op_id = 1
    path = _write_history(tmp_path, history)
    with open(path) as fp, pytest.raises(HistoryFormatError, match="repeated op_id 1"):
        read_history(fp)
    assert run_cli("check", str(path)) == 2
    assert "error: repeated op_id 1" in capsys.readouterr().err


def test_schema_1_history_is_refused(tmp_path, capsys):
    from tests_support import make_query

    # a schema-1 query record listed every learned tag
    record = json.loads(record_to_json(make_query(1, 0, 10, (1, 0, 0))))
    record["v"] = 1
    del record["learned_frontier"]
    record["learned_tags"] = [[1, 1]]
    path = tmp_path / "v1.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with open(path) as fp, pytest.raises(HistoryFormatError, match="unsupported history schema: 1"):
        read_history(fp)
    assert run_cli("check", str(path)) == 2
    assert "unsupported history schema" in capsys.readouterr().err


# two lines as written before queries stopped recording a rendered learned value
_SCHEMA_2_WITH_LEARNED_VALUE = """\
{"v":2,"op_id":1,"client":0,"replica":2,"kind":"update","op":{"kind":"set_add","element":"ZTE="},"invoke_t":0,"tag":[2,1],"response_t":2,"outcome":"ok","result":null,"learned_frontier":null,"learned_value":null,"round_trips":1,"retries":0,"incremental_retry_times":[]}
{"v":2,"op_id":2,"client":0,"replica":3,"kind":"query","op":{"kind":"set_elements"},"invoke_t":3,"tag":null,"response_t":5,"outcome":"ok","result":{"elements":["ZTE="]},"learned_frontier":[0,1,0],"learned_value":"{e1}","round_trips":1,"retries":0,"incremental_retry_times":[]}
"""


def test_schema_2_history_with_a_learned_value_still_checks(tmp_path, capsys):
    path = tmp_path / "old.jsonl"
    path.write_text(_SCHEMA_2_WITH_LEARNED_VALUE)
    with open(path) as fp:
        update, query = read_history(fp)
    assert update.tag == (2, 1)
    assert query.result == (b"e1",) and query.learned_frontier == (0, 1, 0)
    assert run_cli("check", str(path)) == 0
    assert "linearizable: pass (2 operations ordered)" in capsys.readouterr().out


# --------------------------------------------------------------------- bench


def test_bench_unreachable_cluster_is_a_connection_error(tmp_path, capsys):
    # grab a port nothing listens on
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    config = tmp_path / "cluster.json"
    config.write_text(json.dumps({
        "replicas": [{"id": 1, "host": "127.0.0.1", "port": port}],
    }))
    assert run_cli(
        "bench", "--config", str(config), "--clients", "1", "--ops", "1",
    ) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value", [("--mix", "2"), ("--clients", "0"), ("--ops", "0"), ("--duration", "-1")]
)
def test_bench_rejects_an_empty_or_out_of_range_workload(tmp_path, capsys, flag, value):
    config = tmp_path / "cluster.json"
    config.write_text(json.dumps({"replicas": [{"id": 1, "host": "127.0.0.1", "port": 1}]}))
    assert run_cli("bench", "--config", str(config), flag, value) == 2
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------ replica/client


@pytest.fixture
def live_cluster(tmp_path):
    ports = []
    socks = []
    for _ in range(3):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        ports.append(s.getsockname()[1])
    for s in socks:
        s.close()
    endpoints = tuple(ReplicaEndpoint(i + 1, "127.0.0.1", ports[i]) for i in range(3))
    config = ClusterConfig(replicas=endpoints)
    config_path = tmp_path / "cluster.json"
    config_path.write_text(json.dumps({
        "replicas": [{"id": e.id, "host": e.host, "port": e.port} for e in endpoints],
    }))
    daemons = [ReplicaDaemon(config, i + 1) for i in range(3)]
    threads = [
        threading.Thread(target=asyncio.run, args=(d.serve(),), daemon=True)
        for d in daemons
    ]
    for t in threads:
        t.start()
    for d in daemons:
        assert d.bound.wait(5)
    yield config_path, endpoints
    for d in daemons:
        d.request_stop()
    for t in threads:
        t.join(5)


def test_client_incr_and_get(live_cluster, capsys):
    _config, endpoints = live_cluster
    target = f"{endpoints[0].host}:{endpoints[0].port}"
    values = []
    for _ in range(3):
        assert run_cli("client", target, "incr") == 0
        assert run_cli("client", target, "get", "--json") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values.append(json.loads(lines[-1])["result"])
    assert values == sorted(values)  # monotone on a quiet cluster
    assert values[-1] == 3


def test_client_get_json_reports_learned_frontier(live_cluster, capsys):
    _config, endpoints = live_cluster
    target = f"{endpoints[0].host}:{endpoints[0].port}"
    for _ in range(2):
        assert run_cli("client", target, "incr") == 0
    assert run_cli("client", target, "get", "--json") == 0
    reply = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert reply["result"] == 2
    assert reply["learned_frontier"] == [2, 0, 0]  # both increments went through replica 1
    assert "learned_tags" not in reply


def test_client_missing_element_is_usage_error(live_cluster, capsys):
    _config, endpoints = live_cluster
    target = f"{endpoints[1].host}:{endpoints[1].port}"
    assert run_cli("client", target, "add") == 2
    assert "needs an element" in capsys.readouterr().err


def test_client_against_downed_replica_is_connection_error(capsys):
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    assert run_cli("client", f"127.0.0.1:{port}", "get") == 3
    assert "error:" in capsys.readouterr().err


def _unknown_type_frame(rid: bytes) -> bytes:
    frame = bytearray(encode(Reply(1, rid, True, None, 3, None, 1, 0)))
    frame[4] = 99  # no message type has this number
    return bytes(frame)


def _wrapped_set_frame(rid: bytes) -> bytes:
    # a set reply whose whole frontier slot is followed by one stray byte
    return reply_with_frontier_slot(rid, struct.pack(">IQ", 1, 1) + b"\x00")


@pytest.mark.parametrize("frame, needle", [(_unknown_type_frame, "unknown message type 99"),
                                           (_wrapped_set_frame, "1 trailing bytes")],
                         ids=["unknown-type", "wrapped-set"])
@pytest.mark.parametrize("command", ["client", "bench"])
def test_a_malformed_reply_is_a_clean_error(frame, needle, command, tmp_path, capsys):
    port, thread = answer_once(frame)
    if command == "client":
        argv = ["client", f"127.0.0.1:{port}", "get", "--timeout", "5"]
    else:
        config = tmp_path / "cluster.json"
        config.write_text(json.dumps({"replicas": [{"id": 1, "host": "127.0.0.1", "port": port}]}))
        argv = ["bench", "--config", str(config), "--clients", "1", "--ops", "1", "--mix", "0",
                "--out", str(tmp_path / "out")]
    assert run_cli(*argv) == 3
    thread.join(5)
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err and "Traceback" not in err


def test_bench_live_cluster_then_check(live_cluster, tmp_path, capsys):
    config_path, _endpoints = live_cluster
    out = tmp_path / "live"
    assert run_cli(
        "bench", "--config", str(config_path), "--clients", "2", "--ops", "10",
        "--mix", "0.5", "--out", str(out),
    ) == 0
    metrics = dict(line.split(",") for line in (out / "metrics.csv").read_text().splitlines())
    assert int(metrics["ops_query_ok"]) + int(metrics["ops_update_ok"]) == 20
    assert not [key for key in metrics if key.startswith("messages_")]
    assert run_cli("check", str(out / "history.jsonl")) == 0
    text = capsys.readouterr().out
    for condition in ("validity", "stability", "consistency",
                      "update-stability", "update-visibility"):
        assert f"{condition}: pass" in text
    assert "linearizable: pass (20 operations ordered)" in text


def test_client_timeout_without_a_quorum_is_a_connection_error(capsys):
    ports = []
    for _ in range(3):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        ports.append(s.getsockname()[1])
        s.close()
    config = ClusterConfig(
        replicas=tuple(ReplicaEndpoint(i + 1, "127.0.0.1", port) for i, port in enumerate(ports))
    )
    daemon = ReplicaDaemon(config, 1)  # replicas 2 and 3 never start
    thread = threading.Thread(target=asyncio.run, args=(daemon.serve(),), daemon=True)
    thread.start()
    try:
        assert daemon.bound.wait(5)
        assert run_cli("client", f"127.0.0.1:{ports[0]}", "get", "--timeout", "0.5") == 3
        assert "error:" in capsys.readouterr().err
    finally:
        daemon.request_stop()
        thread.join(5)
    assert not thread.is_alive()


def test_replica_rejects_unknown_id(live_cluster, capsys):
    config_path, _endpoints = live_cluster
    assert run_cli("replica", str(config_path), "9") == 2
    assert "error:" in capsys.readouterr().err


def test_replica_missing_config_is_usage_error(tmp_path, capsys):
    assert run_cli("replica", str(tmp_path / "none.json"), "1") == 2
    assert "error:" in capsys.readouterr().err


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        run_cli("client", "not-an-endpoint", "get")
    assert exc.value.code == 2
