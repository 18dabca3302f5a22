"""Span recording and sample statistics for the benchmark.

The tracer wraps public callables of the package (class methods or module
functions) from outside, so the program itself carries no instrumentation.
Every span is aggregated as it closes (total time, self time, calls); the
first ``KEEP_SPANS`` raw spans are also kept in memory and written out when the
run ends. A span's self time is its duration minus the time of the spans it
directly encloses. A wrapped call made while a span of the same name is
open (a tagged state merging its inner value, say) belongs to the outer
span and records nothing of its own.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from collections import Counter, defaultdict
from contextlib import nullcontext
from time import perf_counter_ns


KEEP_SPANS = 5_000  # raw spans kept per tracer; aggregates cover every span


class Tracer:
    def __init__(self):
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()  # free-form counters filled by hooks
        self.maxima: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[str, int, int, str | None]] = []
        self._stack: list[list] = []  # [name, start_ns, child_ns]
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``hook(args, result, tracer)`` runs after each recorded call.
        """
        original = getattr(owner, attr)
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return original(*args, **kwargs)
            frame = [name, perf_counter_ns(), 0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer._close(frame, end)
            if hook is not None:
                hook(args, result, tracer)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def _close(self, frame: list, end: int) -> None:
        name, start, child = frame
        duration = end - start
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((name, start, end, parent[0] if parent else None))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict:
        return {
            "total_ns": dict(self.total_ns),
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    def add_summary(self, summary: dict) -> None:
        """Fold in another tracer's :meth:`summary`, such as a daemon's."""
        for name, ns in summary["total_ns"].items():
            self.total_ns[name] += ns
        for name, ns in summary["self_ns"].items():
            self.self_ns[name] += ns
        self.calls.update(summary["calls"])
        self.counts.update(summary["counts"])
        for name, value in summary["maxima"].items():
            self.maxima[name] = max(self.maxima[name], value)

    def write_spans(self, path) -> None:
        with open(path, "w") as fp:
            for name, start, end, parent in self.spans:
                fp.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent}))
                fp.write("\n")


def span(tracer: Tracer | None, name: str):
    """A span of ``tracer``, or a context that records nothing when it is None."""
    return nullcontext() if tracer is None else _Span(tracer, name)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._frame = [name, 0, 0]

    def __enter__(self):
        self._frame[1] = perf_counter_ns()
        self._tracer._stack.append(self._frame)
        return self

    def __exit__(self, *exc):
        end = perf_counter_ns()
        self._tracer._stack.pop()
        self._tracer._close(self._frame, end)


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond rank ceil(q * n)."""
    return n - max(1, math.ceil(q * n))


def percentile(values, q: float):
    """The q-quantile of the samples, and how many samples lie beyond its rank.

    Integer samples (round trips, virtual ticks, bytes) count whole units: a
    sample k stands for a value in (k - 1, k], spread evenly, and the
    quantile inverts that distribution. It moves smoothly as the share of
    each count moves, where a nearest-rank value would read the same count
    on every seed and jump a whole step when a share crosses q. Other
    samples use the inclusive interpolation of ``statistics.quantiles``;
    ``q`` is then a whole percentage.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2:
        raise ValueError("a percentile needs two samples or more")
    if isinstance(ordered[0], int):
        below = 0
        for k, count in sorted(Counter(ordered).items()):
            if below + count >= q * n:
                return k - 1 + (q * n - below) / count, beyond(n, q)
            below += count
    return statistics.quantiles(ordered, n=100, method="inclusive")[round(q * 100) - 1], beyond(n, q)


# Tails are reported at p90. On a 2-core machine whose speed drifts, the
# quartiles of ten seeded live runs lay up to 39% (query latency p99), 26%
# (update latency p99) and 21% (round-trip p99) of the median apart, more
# than any regression bound could absorb; the p99s are still printed.
TAIL = 90


def latency_metrics(samples: dict[str, list], scale: float) -> tuple[dict, dict]:
    """``<kind>_p50_ms`` and the tail per op kind, from samples times ``scale``; and notes."""
    metrics, notes = {}, {}
    for kind, values in samples.items():
        for q in (50, TAIL):
            value, n_beyond = percentile(values, q / 100)
            metrics[f"{kind}_p{q}_ms"] = value * scale
            notes[f"{kind}_p{q}_ms"] = f"n={len(values)}, {n_beyond} beyond"
        p99, n_beyond = percentile(values, 0.99)
        notes[f"{kind}_p{TAIL}_ms"] += f"; p99 {p99 * scale:.4g} ms, {n_beyond} beyond"
    return metrics, notes


def round_trip_metrics(trips: list[int]) -> tuple[dict, dict]:
    """Round trips per ok query: mean, tail, and the share within three."""
    tail, n_beyond = percentile(trips, TAIL / 100)
    p99, n99 = percentile(trips, 0.99)
    metrics = {
        "query_rt_mean": sum(trips) / len(trips),
        f"query_rt_p{TAIL}": tail,
        "query_rt_le3_frac": sum(1 for t in trips if t <= 3) / len(trips),
    }
    notes = {f"query_rt_p{TAIL}": f"n={len(trips)}, {n_beyond} beyond; p99 {p99:.4g}, {n99} beyond"}
    return metrics, notes


def proc_status_kb(pid: int | str, field: str) -> int:
    """A ``kB`` field of ``/proc/<pid>/status``, such as VmHWM."""
    with open(f"/proc/{pid}/status") as fp:
        for line in fp:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as fp:
        fields = fp.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime and stime are fields 14 and 15
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
