"""The sim-contention workload.

The workload is a fixed set of seeded ``SimConfig`` inputs: input 0 runs
the benchmark seed itself, so input 0 at seed 1 is exactly criterion 5's
run. A cycle runs every input once through ``sim_run``, and a
check pass runs the output checks over the first cycle's histories. The
run alternates the two until its time is up and reports rates over the
median cycle and the median check pass. Every cycle must reproduce the
first cycle's histories exactly, because the simulator is deterministic.

The simulator and the checks run in this one thread and wait on nothing,
like the loop of the probe process (``speed.Probe``) that runs beside
them. Each cycle's and check pass's wall time is divided by the probe's
slowdown during it, since the machine's speed changes over minutes. A
set-up sample is too short for the probe's cuts, so it is taken in CPU
time and divided by the reference loop timed right after it.

Client latency in a simulator is counted in virtual ticks, which depend on
the protocol and the seed alone. The latency metrics report them at a
nominal ``TICK_MS`` per tick, the simulated one-way link delay of one tick.
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import asdict, replace
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

from crdtlin import SimConfig, sim_run

import layers
from checks import CHECKS, check_history
from speed import REFERENCE_S, Probe, reference_seconds
from tracer import Tracer, latency_metrics, proc_status_kb, round_trip_metrics, span

# criterion 5's configuration; each of the INPUTS inputs of a cycle runs it on its own seed
CONFIG = SimConfig(
    n_replicas=3, n_clients=64, crdt="gcounter", update_fraction=0.1,
    ops_per_client=160, batching=True, delay_min=1, delay_max=1,
    instrument=False, check_invariants=True, record_trace=False,
)
INPUTS = 6

SETUP_PER_CYCLE = 3
TICK_MS = 1.0
# trace kinds that are simulator events doing work (the workload injects no faults)
_EVENT_KINDS = {"deliver", "timer", "invoke"}


def input_configs(seed: int) -> list[SimConfig]:
    seeds = [seed] + [random.Random(f"{seed}:input:{i}").getrandbits(31) for i in range(1, INPUTS)]
    return [replace(CONFIG, seed=s) for s in seeds]


def _is_package_module(name: str) -> bool:
    return name == "crdtlin" or name.startswith("crdtlin.")


def _setup_seconds(config: SimConfig) -> float:
    """Time to import the package afresh and build the simulation.

    The package's modules are dropped from ``sys.modules`` and imported
    again (from their compiled files), then put back as they were, so the
    benchmark's own modules keep the classes they already hold.
    """
    saved = {n: m for n, m in sys.modules.items() if _is_package_module(n)}
    for name in saved:
        del sys.modules[name]
    try:
        t0 = process_time()
        fresh = importlib.import_module("crdtlin")
        fresh.Simulation(fresh.SimConfig(**asdict(config)))
        return process_time() - t0
    finally:
        for name in [n for n in sys.modules if _is_package_module(n)]:
            del sys.modules[name]
        sys.modules.update(saved)


def _signature(history) -> list[tuple]:
    return [(r.kind, r.outcome, r.invoke_t, r.response_t, r.round_trips, r.result) for r in history]


def _measure(configs, seconds: float, outdir: Path, tracer: Tracer | None) -> dict:
    """Alternate timed cycles, check passes and set-up samples until the time is up.

    Interleaving spreads every kind of sample over the whole run, so a slow
    spell of the machine weighs on all alike. Returns the raw figures of
    one phase.
    """
    start = perf_counter()
    cycles = []  # (start, end) of each cycle
    passes = []  # (start, end) of each check pass
    setup = []
    reference = signatures = None
    problems = []
    history_bytes = 0
    path = outdir / "history.jsonl"
    base = configs[0]
    while not problems and (perf_counter() - start < seconds or len(cycles) < 3):
        histories = []
        t0 = perf_counter()
        for config in configs:
            with span(tracer, "sim.run"):
                histories.append(sim_run(config).history)
        cycles.append((t0, perf_counter()))
        if reference is None:
            reference, signatures = histories, [_signature(h) for h in histories]
            # every later cycle repeats this work, and check passes come after
            rss_kb = proc_status_kb("self", "VmHWM")
        elif [_signature(h) for h in histories] != signatures:
            problems.append("a repeated input gave a different history")

        history_bytes = 0
        t0 = perf_counter()
        for history in reference:
            found, size = check_history(history, path, tagged=False, counter=True, tracer=tracer)
            problems += found
            history_bytes += size
        passes.append((t0, perf_counter()))
        for _ in range(SETUP_PER_CYCLE):
            setup.append((_setup_seconds(base), reference_seconds()))
    return {
        "cycles": cycles,
        "histories": reference,
        "rss_kb": rss_kb,
        "check_passes": passes,
        "setup": setup,  # (set-up time, reference-loop time right after it)
        "history_bytes": history_bytes,
        "problems": problems,
    }


def _scaled_median(spans, probe: Probe) -> float:
    """Median over ``(start, end)`` spans of their wall time over the probe's slowdown."""
    return median((end - start) / probe.slowdown(start, end) for start, end in spans)


def _end_to_end(configs, raw: dict, probe: Probe) -> tuple[dict, dict, int, int]:
    records = [r for h in raw["histories"] for r in h]
    attempted = sum(c.n_clients * c.ops_per_client for c in configs)
    ok = [r for r in records if r.outcome == "ok"]
    e2e, notes = latency_metrics(
        {kind: [r.response_t - r.invoke_t for r in ok if r.kind == kind]
         for kind in ("query", "update")},
        TICK_MS,
    )
    trips, trip_notes = round_trip_metrics([r.round_trips for r in ok if r.kind == "query"])
    e2e.update(trips)
    notes.update(trip_notes)
    first, _ = round_trip_metrics(
        [r.round_trips for r in raw["histories"][0] if r.kind == "query" and r.outcome == "ok"]
    )
    notes["query_rt_le3_frac"] = f"input 0 (seed {configs[0].seed}) alone: {first['query_rt_le3_frac']:.6f}"
    raw_e2e = dict(
        setup_s=median(t for t, _ref in raw["setup"]),
        ops_per_s=len(ok) / median(end - start for start, end in raw["cycles"]),
        check_ops_per_s=len(records) / median(end - start for start, end in raw["check_passes"]),
    )
    e2e.update(
        setup_s=median(t / ref for t, ref in raw["setup"]) * REFERENCE_S,
        ops_per_s=len(ok) / _scaled_median(raw["cycles"], probe),
        check_ops_per_s=len(records) / _scaled_median(raw["check_passes"], probe),
        ops_ok_frac=len(ok) / attempted,
        peak_rss_mb=raw["rss_kb"] / 1024,
    )
    notes.update(
        setup_s=f"median of {len(raw['setup'])} imports, each over the reference loop right after it",
        ops_per_s=f"{len(ok)} ops per cycle; median of {len(raw['cycles'])} cycles, "
        f"probe slowdown {median(probe.slowdown(*c) for c in raw['cycles']):.3f}",
        check_ops_per_s=f"median of {len(raw['check_passes'])} passes",
    )
    for name, value in raw_e2e.items():
        notes[name] += f"; {value:.6g} unscaled"
    return e2e, notes, attempted, attempted - len(ok)


def _stall_problems(configs, raw) -> list[str]:
    problems = []
    for config, history in zip(configs, raw["histories"]):
        pending = sum(1 for r in history if r.outcome is None)
        if pending or len(history) != config.n_clients * config.ops_per_client:
            problems.append(
                f"seed {config.seed}: {len(history)} ops recorded, {pending} never answered"
            )
    return problems


def _events(configs) -> int:
    """Simulator events that did work, from one untimed run per input with the trace on."""
    total = 0
    for config in configs:
        trace = sim_run(replace(config, record_trace=True)).trace
        total += sum(1 for ev in trace if ev.kind in _EVENT_KINDS)
    return total


def _layers(configs, raw: dict, tracer: Tracer, untraced: dict, probe: Probe) -> dict:
    cycles = len(raw["cycles"])
    histories = raw["histories"]
    ops = cycles * sum(len(h) for h in histories)
    queries = cycles * sum(1 for h in histories for r in h if r.kind == "query")
    updates = cycles * sum(1 for h in histories for r in h if r.kind == "update")
    total, own = tracer.total_ns, tracer.self_ns
    run_ns = total["sim.run"]
    out = layers.protocol_and_crdt_metrics(tracer, ops, queries, updates, run_ns)
    events = _events(configs)
    ops_per_cycle = sum(len(h) for h in histories)
    out["sim.self_share"] = own["sim.run"] / run_ns
    out["sim.events_per_op"] = events / ops_per_cycle
    out["sim.events_per_s"] = events / _scaled_median(untraced["cycles"], probe)
    passes = len(raw["check_passes"])
    for name in [n for n, _fn in CHECKS] + ["linearize"]:
        out[f"checker.{name}_s"] = total["checker." + name] / 1e9 / passes
    out["history.write_s"] = total["history.write"] / 1e9 / passes
    out["history.read_s"] = total["history.read"] / 1e9 / passes
    out["history.bytes_per_op"] = raw["history_bytes"] / ops_per_cycle
    return out


def run(seed: int, seconds: float, traced: bool, outdir: Path) -> dict:
    configs = input_configs(seed)
    phase = seconds / 2 if traced else seconds
    tracer = Tracer()
    with Probe() as probe:
        raw = _measure(configs, phase, outdir, None)
        if traced:
            layers.trace_protocol_and_crdt(tracer)
            try:
                traced_raw = _measure(configs, phase, outdir, tracer)
            finally:
                tracer.unwrap_all()
    e2e, notes, attempted, failed = _end_to_end(configs, raw, probe)
    problems = raw["problems"] + _stall_problems(configs, raw)
    result = {"e2e": e2e, "notes": notes, "attempted": attempted, "failed": failed,
              "problems": problems}
    if traced:
        tracer.write_spans(outdir / "spans.jsonl")
        result["problems"] += traced_raw["problems"]
        result["traced_e2e"] = _end_to_end(configs, traced_raw, probe)[0]
        result["layers"] = _layers(configs, traced_raw, tracer, raw, probe)
        result["spans"] = {n: (c, tracer.total_ns[n], tracer.self_ns[n]) for n, c in tracer.calls.items()}
        result["span_base"] = "sim_run wall time"
        result["span_base_ns"] = tracer.total_ns["sim.run"]
    return result
