"""Output checks, run outside the timed regions.

Every recorded history goes to disk through ``write_history`` and is read
back with ``read_history``; the checks then run on what was read. Tagged
histories must pass the five safety conditions and ``linearize``. Counter
histories must keep every answered query between two bounds: at least the
increments answered before the query was invoked, at most the increments
invoked before the query was answered.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from crdtlin import PreconditionFailed, linearize, read_history, write_history
from crdtlin.checker import (
    check_consistency,
    check_stability,
    check_update_stability,
    check_update_visibility,
    check_validity,
)

from tracer import span

CHECKS = (
    ("validity", check_validity),
    ("stability", check_stability),
    ("consistency", check_consistency),
    ("update_stability", check_update_stability),
    ("update_visibility", check_update_visibility),
)


def counter_bound_violations(history) -> list[int]:
    updates = [r for r in history if r.kind == "update"]
    answered = sorted(r.response_t for r in updates if r.outcome == "ok")
    invoked = sorted(r.invoke_t for r in updates)
    bad = []
    for q in history:
        if q.kind != "query" or q.outcome != "ok":
            continue
        low = bisect_left(answered, q.invoke_t)
        high = bisect_right(invoked, q.response_t)
        if not low <= q.result <= high:
            bad.append(q.op_id)
    return bad


def check_history(history, path, *, tagged: bool, counter: bool, tracer=None) -> tuple[list[str], int]:
    """Round-trip ``history`` through ``path`` and check it; returns (problems, file bytes)."""
    with span(tracer, "history.write"), open(path, "w") as fp:
        write_history(history, fp)
    size = path.stat().st_size
    with span(tracer, "history.read"), open(path) as fp:
        back = read_history(fp)
    problems = []
    if len(back) != len(history):
        problems.append(f"history read back {len(back)} of {len(history)} records")
    if tagged:
        for name, fn in CHECKS:
            with span(tracer, "checker." + name):
                if not fn(back).passed:
                    problems.append(f"{name} fails")
        try:
            with span(tracer, "checker.linearize"):
                linearize(back)
        except PreconditionFailed as exc:
            problems.append(f"linearize: {exc}")
    if counter:
        bad = counter_bound_violations(back)
        if bad:
            problems.append(f"{len(bad)} counter queries outside their bounds, e.g. op {bad[0]}")
    return problems, size
