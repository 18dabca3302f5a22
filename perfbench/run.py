"""The crdtlin benchmark: one command, two workloads, checked outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: sim-contention, live-counter (see BENCHMARK.json
and perfbench/NOTES.md). The package is imported from ``src/`` of the same
tree; nothing has to be installed. With ``--trace 0`` the run measures the
end-to-end metrics with no tracing. With ``--trace 1`` it spends half its
time on an untraced phase and half on a traced one, and reports the
per-layer metrics, the span table with self times, and the tracing
overhead (traced minus untraced, per end-to-end metric).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A failed output
check prints ``"correct": false`` and exits with 1. Run outputs (histories,
daemon logs, span files) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("sim-contention", "live-counter")
# layers a workload never runs; their per-layer metrics read 0 there
NOT_EXERCISED = {
    "sim-contention": ("wire.", "service."),
    "live-counter": ("sim.",),
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def _print_table(title: str, rows) -> None:
    print(f"== {title}")
    for name, value, unit, note in rows:
        print(f"  {name:44s} {value:>14.6g} {unit:8s} {note}")


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through every cleanup block


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "crdtlin" / "__init__.py").is_file():
        print(f"error: no crdtlin package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, _on_sigterm)
    # a shell that starts this in the background ignores SIGINT, and child
    # processes inherit an ignored signal; a handled one is reset to the
    # default in them, so the daemons can still be stopped like Ctrl-C
    signal.signal(signal.SIGINT, signal.default_int_handler)

    outdir = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    traced = bool(args.trace)
    if args.workload == "live-counter":
        import live

        result = live.run(args.seed, args.seconds, traced, ROOT, outdir)
    else:
        import sims

        result = sims.run(args.seed, args.seconds, traced, outdir)

    e2e = result["e2e"]
    _print_table(
        f"{args.workload} seed {args.seed}: end to end" + (" (untraced phase)" if traced else ""),
        [(n, e2e[n], units[n], result["notes"].get(n, "")) for n in sorted(e2e)],
    )
    problems = result["problems"]
    metrics = e2e
    if traced and "layers" in result:
        metrics = dict(result["layers"])
        traced_e2e = result["traced_e2e"]
        for name in e2e:
            metrics[f"overhead.{name}"] = traced_e2e[name] - e2e[name]
        metrics["src_lines"] = _src_lines()
        skip = NOT_EXERCISED[args.workload]
        for m in spec["per_layer"]:
            if m["name"] not in metrics and m["name"].startswith(skip):
                metrics[m["name"]] = 0
        _print_table("end to end (traced phase)",
                     [(n, traced_e2e[n], units[n], "") for n in sorted(traced_e2e)])
        print(f"== spans (self share is of {result['span_base']})")
        for name, (calls, total, own) in sorted(result["spans"].items()):
            print(f"  {name:24s} calls {calls:>10d}  total {total / 1e6:>10.1f} ms"
                  f"  self {own / 1e6:>10.1f} ms  self share {own / result['span_base_ns']:.3f}")
        _print_table("per layer (traced phase)",
                     [(n, metrics[n], units[n], "") for n in sorted(metrics)])
    expected = {m["name"] for m in (spec["per_layer"] if traced else spec["end_to_end"])}
    if set(metrics) != expected and not problems:
        problems.append(f"metric set differs from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ expected)}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units.get(n, "")} for n in sorted(metrics)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
