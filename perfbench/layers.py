"""Which public calls of the package the traced run wraps, and what it counts.

Span names are ``<layer>.<call>``: ``protocol.step`` wraps ``Replica.step``,
``crdt.<fn>`` wraps the lattice methods of every shipped value type, and
``wire.encode`` / ``wire.decode`` wrap the codec functions as the daemon's
service module calls them.
"""

from __future__ import annotations

from collections import Counter

from crdtlin import CausalTaggedState, GCounter, GSet, Replica

CRDT_FUNCS = ("merge", "compare", "canonical_size", "canonical_bytes")
MESSAGE_TYPES = ("Merge", "Merged", "Prepare", "Ack", "Vote", "Voted", "Nack")
RETRY_KINDS = ("incremental", "fixed", "merge-resend")


def _on_step(args, out, tracer) -> None:
    counts = tracer.counts
    if type(args[1]).__name__ == "TimerFire":
        counts["timer_fires"] += 1
    for _dst, msg in out.sends:
        counts["msg." + type(msg).__name__] += 1
    for retry in out.retries:
        counts["retry." + retry.kind] += 1


def _on_size(args, size, tracer) -> None:
    if size > tracer.maxima["crdt.payload_bytes"]:
        tracer.maxima["crdt.payload_bytes"] = size


def _on_bytes(args, blob, tracer) -> None:
    _on_size(args, len(blob), tracer)


def trace_protocol_and_crdt(tracer) -> None:
    tracer.wrap(Replica, "step", "protocol.step", _on_step)
    hooks = {"canonical_size": _on_size, "canonical_bytes": _on_bytes}
    for cls in (GCounter, GSet, CausalTaggedState):
        for fn in CRDT_FUNCS:
            tracer.wrap(cls, fn, "crdt." + fn, hooks.get(fn))


def trace_wire(tracer, service_module) -> Counter:
    """Wrap the codec calls the service module makes; returns the frame-size histogram."""
    sizes: Counter = Counter()

    def on_encode(args, frame, tracer) -> None:
        sizes[len(frame)] += 1
        tracer.counts["wire.encode_bytes"] += len(frame)

    tracer.wrap(service_module, "encode", "wire.encode", on_encode)
    tracer.wrap(service_module, "try_decode", "wire.decode")
    return sizes


def protocol_and_crdt_metrics(tracer, ops: int, queries: int, updates: int, base_ns: float) -> dict:
    """Per-layer metrics from the protocol and lattice spans; shares are of ``base_ns``."""
    total, own, calls, counts = tracer.total_ns, tracer.self_ns, tracer.calls, tracer.counts
    out = {}
    steps = calls["protocol.step"]
    out["protocol.step_us"] = total["protocol.step"] / steps / 1000
    out["protocol.steps_per_op"] = steps / ops
    out["protocol.share"] = own["protocol.step"] / base_ns
    sent = {t: counts["msg." + t] for t in MESSAGE_TYPES}
    out["protocol.msgs_per_op"] = sum(sent.values()) / ops
    for t, n in sent.items():
        out[f"protocol.msgs_per_op.{t}"] = n / ops
    out["protocol.vote_success_ratio"] = sent["Voted"] / sent["Vote"] if sent["Vote"] else 0.0
    out["protocol.retries_per_query.incremental"] = counts["retry.incremental"] / queries
    out["protocol.retries_per_query.fixed"] = counts["retry.fixed"] / queries
    out["protocol.retries_per_update.merge-resend"] = counts["retry.merge-resend"] / updates
    for fn in CRDT_FUNCS:
        name = "crdt." + fn
        out[f"{name}_us"] = total[name] / calls[name] / 1000 if calls[name] else 0.0
        out[f"{name}_per_op"] = calls[name] / ops
    out["crdt.share"] = sum(own["crdt." + fn] for fn in CRDT_FUNCS) / base_ns
    out["crdt.payload_bytes_max"] = tracer.maxima["crdt.payload_bytes"]
    return out
