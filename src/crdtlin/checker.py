"""Offline safety and linearizability checking for recorded histories.

The checks work on causal tags rather than replicated payloads. Replica
``r`` tags its updates ``(r, 1), (r, 2), ...`` and every payload holds a
prefix of each replica's sequence, so a learned state is a downward-closed
tag set, recorded as its per-replica frontier: tag ``(r, k)`` is learned
iff ``k <= frontier[r - 1]``. Two payloads have the same
frontier exactly when they are the join of the same updates, so the
pointwise order on frontiers is the lattice order itself, the one
``SemilatticeValue.compare`` states, and it stays exact even when a query
response only carries a projection of the state. Each check costs O(replicas) per
operation whatever the history length; a witness is searched for only
once a check has failed.

Five conditions define safe query behavior:

- validity: every tag a query learns belongs to an update invoked before
  the query's response. The frontier model also needs each tag on one
  update only and all learned frontiers of one width, so validity fails
  on a shared tag or a width mismatch too;
- stability: of two non-overlapping queries, the later learns a pointwise
  greater-or-equal frontier;
- consistency: all learned frontiers are pairwise ordered by pointwise <=;
- update stability: if update A finished before update B was invoked, no
  learned state may hold B's tag without A's;
- update visibility: a query invoked after an update finished must learn
  that update's tag.

One more condition reads what a query answered, not only what it learned:

- results: each answered query's result is the one its learned frontier
  names (a counter's count of the named updates, or the elements they
  added). The five hold on tags alone, so this is the check that a
  payload holds exactly the updates its frontier names. A set query costs
  O(its answer) once per distinct learned frontier.

``linearize`` turns a history that passes all five into an explicit total
order and verifies it is legal (each query's learned frontier counts
exactly the updates ordered before it) and consistent with real-time
precedence. ``linearizability_oracle`` answers the same legality question
for small histories by exhaustive search over explicit tag sets, sharing
no machinery with ``linearize``, so each can catch the other lying.

Failed updates are treated as still-pending: the proposer gave up, but the
payload already merged into at least one acceptor, so the effect may
surface later. Failed or unanswered queries learned nothing and constrain
nothing; they are dropped.
"""

from __future__ import annotations

import reprlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import le

from .crdt import CausalTag, QueryCommand
from .history import OpRecord

__all__ = [
    "GLA_CONDITIONS",
    "CheckError",
    "PreconditionFailed",
    "SequentialWitness",
    "UnsupportedInput",
    "Verdict",
    "Witness",
    "check_all",
    "check_consistency",
    "check_results",
    "check_stability",
    "check_update_stability",
    "check_update_visibility",
    "check_validity",
    "linearize",
    "linearizability_oracle",
]

Frontier = tuple[int, ...]


class CheckError(Exception):
    """The checker itself hit an inconsistency it cannot explain."""


class UnsupportedInput(Exception):
    """The history lacks what this check needs (instrumentation, size bound)."""


class PreconditionFailed(Exception):
    """linearize() was given a history that fails a safety condition."""

    def __init__(self, verdict: "Verdict"):
        self.verdict = verdict
        super().__init__(
            f"history fails the {verdict.condition} check: {verdict.witness.message}"
        )


@dataclass(frozen=True, slots=True)
class Witness:
    """Smallest set of operations that reproduces the violation on its own."""

    op_ids: tuple[int, ...]
    message: str


@dataclass(frozen=True, slots=True)
class Verdict:
    condition: str
    passed: bool
    witness: Witness | None = None


@dataclass(frozen=True, slots=True)
class SequentialWitness:
    """A legal total order over the extended history.

    ``order`` lists op ids; updates that never got a response appear after
    every query that excludes them. ``levels`` is the chain of learned
    frontiers the order was built around, smallest first.
    """

    order: tuple[int, ...]
    levels: tuple[Frontier, ...]


# --------------------------------------------------------------- extraction


def _extract(history: list[OpRecord]) -> tuple[list, list[tuple[OpRecord, Frontier]], int]:
    """Tagged updates, answered queries paired with their frontiers, and the width.

    Frontiers are zero-padded to one width that also covers every update's
    origin. A missing entry holds no tags, so padding keeps each tag set as
    it is; check_validity reports differing widths on its own.
    """
    updates = []
    queries = []
    for rec in history:
        if rec.kind == "update":
            if rec.tag is None:
                if rec.outcome == "ok":
                    raise UnsupportedInput(
                        f"update op {rec.op_id} completed without a causal tag; "
                        "the history was not recorded with instrumentation on"
                    )
                continue
            if min(rec.tag) < 1:
                raise UnsupportedInput(
                    f"update op {rec.op_id} carries tag {rec.tag}; "
                    "origins and sequence numbers start at 1"
                )
            updates.append(rec)
        elif rec.kind == "query" and rec.outcome == "ok":
            if rec.learned_frontier is None:
                raise UnsupportedInput(
                    f"query op {rec.op_id} has no learned frontier; "
                    "the history was not recorded with instrumentation on"
                )
            if min(rec.learned_frontier, default=0) < 0:
                raise UnsupportedInput(f"query op {rec.op_id} learned a negative frontier entry")
            queries.append(rec)
    width = max(
        [len(q.learned_frontier) for q in queries] + [u.tag[0] for u in updates], default=0
    )
    padded = [
        (q, tuple(q.learned_frontier) + (0,) * (width - len(q.learned_frontier)))
        for q in queries
    ]
    return updates, padded, width


def _update_effective(rec: OpRecord) -> bool:
    # a failed update may still take effect later; only "ok" pins a response
    return rec.outcome == "ok"


def _holds(frontier: Frontier, tag: CausalTag) -> bool:
    return tag[1] <= frontier[tag[0] - 1]


def _below(small, big) -> bool:
    return all(map(le, small, big))


def _first_missing(small: Frontier, big: Frontier) -> CausalTag:
    """Smallest tag that ``small`` holds and ``big`` does not."""
    for origin, (a, b) in enumerate(zip(small, big), 1):
        if a > b:
            return (origin, b + 1)
    raise CheckError(f"frontier {list(small)} is below {list(big)}")


def _fail(condition: str, op_ids: tuple[int, ...], message: str) -> Verdict:
    return Verdict(condition, False, Witness(op_ids, message))


# --------------------------------------------------------------- the checks


def check_validity(history: list[OpRecord]) -> Verdict:
    updates, queries, width = _extract(history)
    first = queries[0][0] if queries else None
    for q, _ in queries:
        if len(q.learned_frontier) != len(first.learned_frontier):
            return _fail(
                "validity",
                (first.op_id, q.op_id),
                f"query ops {first.op_id} and {q.op_id} learned frontiers of widths "
                f"{len(first.learned_frontier)} and {len(q.learned_frontier)}",
            )
    by_tag: dict = {}
    for u in updates:
        twin = by_tag.setdefault(u.tag, u)
        if twin is not u:
            return _fail(
                "validity",
                (twin.op_id, u.op_id),
                f"update ops {twin.op_id} and {u.op_id} carry the same tag {u.tag}",
            )
    if not queries:
        return Verdict("validity", True)
    # per origin, the latest invocation among sequence numbers 1..k; each
    # list stops short of the first sequence number no update carries
    reach = []
    for origin in range(1, width + 1):
        latest: list[int] = []
        while (u := by_tag.get((origin, len(latest) + 1))) is not None:
            latest.append(max(latest[-1], u.invoke_t) if latest else u.invoke_t)
        reach.append(latest)
    for q, frontier in queries:
        for top, latest in zip(frontier, reach):
            # strict interval precedence: a response at the same instant as
            # the invocation counts as concurrent, not earlier
            if top and (top > len(latest) or q.response_t < latest[top - 1]):
                return _invalid_tag(q, frontier, by_tag)
    return Verdict("validity", True)


def _invalid_tag(q: OpRecord, frontier: Frontier, by_tag: dict) -> Verdict:
    for origin, top in enumerate(frontier, 1):
        for seq in range(1, top + 1):
            tag = (origin, seq)
            u = by_tag.get(tag)
            if u is None:
                return _fail(
                    "validity",
                    (q.op_id,),
                    f"query op {q.op_id} learned tag {tag} that no invoked update carries",
                )
            if q.response_t < u.invoke_t:
                return _fail(
                    "validity",
                    (u.op_id, q.op_id),
                    f"query op {q.op_id} learned tag {tag} before update op "
                    f"{u.op_id} was invoked",
                )
    raise CheckError(f"query op {q.op_id} failed validity but learned no offending tag")


def check_stability(history: list[OpRecord]) -> Verdict:
    _, queries, width = _extract(history)
    queries.sort(key=lambda p: p[0].response_t)
    # q1 precedes q2 iff q1.response_t < q2.invoke_t; sweeping in response
    # order, it is enough to compare each query against the pointwise max
    # of everything that finished before it was invoked
    events = sorted(queries, key=lambda p: p[0].invoke_t)
    idx = 0
    settled = (0,) * width
    for q, frontier in events:
        while idx < len(queries) and queries[idx][0].response_t < q.invoke_t:
            settled = tuple(map(max, settled, queries[idx][1]))
            idx += 1
        if not _below(settled, frontier):
            # name one concrete predecessor that learned a missing tag
            tag = _first_missing(settled, frontier)
            for prev, seen in queries[:idx]:
                if prev.response_t < q.invoke_t and _holds(seen, tag):
                    return _fail(
                        "stability",
                        (prev.op_id, q.op_id),
                        f"query op {q.op_id} lost tag {tag} that the earlier "
                        f"query op {prev.op_id} had learned",
                    )
            raise CheckError("stability sweep lost track of a predecessor")
    return Verdict("stability", True)


def check_consistency(history: list[OpRecord]) -> Verdict:
    first_with: dict[Frontier, OpRecord] = {}
    for q, frontier in _extract(history)[1]:
        first_with.setdefault(frontier, q)
    # distinct frontiers in a chain strictly grow in sum, so the chain holds
    # iff each frontier is below its successor in sum order
    chain = sorted(first_with, key=sum)
    for small, big in zip(chain, chain[1:]):
        if not _below(small, big):
            qa, qb = first_with[small], first_with[big]
            sample = _first_missing(small, big)
            return _fail(
                "consistency",
                (qa.op_id, qb.op_id),
                f"query ops {qa.op_id} and {qb.op_id} learned incomparable "
                f"states (tag {sample} in one but not the other)",
            )
    return Verdict("consistency", True)


def check_update_stability(history: list[OpRecord]) -> Verdict:
    updates, queries, width = _extract(history)
    finished = sorted((u for u in updates if _update_effective(u)), key=lambda r: r.response_t)
    finish_times = [u.response_t for u in finished]
    # reach[i]: pointwise max of the tags of finished[:i]
    reach = [(0,) * width]
    for u in finished:
        entry = list(reach[-1])
        origin, seq = u.tag
        entry[origin - 1] = max(entry[origin - 1], seq)
        reach.append(tuple(entry))
    # per origin: sequence numbers in order, and the latest-invoked update
    # among those up to each one
    seqs: dict[int, list[int]] = {}
    latest: dict[int, list[OpRecord]] = {}
    for u in sorted(updates, key=lambda r: r.tag):
        origin, seq = u.tag
        best = latest.setdefault(origin, [])
        seqs.setdefault(origin, []).append(seq)
        best.append(u if not best or u.invoke_t > best[-1].invoke_t else best[-1])
    seen: set[Frontier] = set()
    for q, frontier in queries:
        if frontier in seen:
            continue
        seen.add(frontier)
        # latest invocation among members: any update finished before it
        # must already be a member
        members = []
        for origin, top in enumerate(frontier, 1):
            n = bisect_right(seqs.get(origin, ()), top)
            if n:
                members.append(latest[origin][n - 1])
        if not members:
            continue
        last = max(members, key=lambda r: r.invoke_t)
        i = bisect_left(finish_times, last.invoke_t)
        if _below(reach[i], frontier):
            continue
        u1 = next(u for u in finished[:i] if not _holds(frontier, u.tag))
        return _fail(
            "update-stability",
            (u1.op_id, last.op_id, q.op_id),
            f"query op {q.op_id} learned update op {last.op_id} "
            f"but not op {u1.op_id}, which finished first",
        )
    return Verdict("update-stability", True)


def check_update_visibility(history: list[OpRecord]) -> Verdict:
    updates, queries, width = _extract(history)
    finished = sorted((u for u in updates if _update_effective(u)), key=lambda r: r.response_t)
    queries.sort(key=lambda p: p[0].invoke_t)
    idx = 0
    must = [0] * width
    for q, frontier in queries:
        while idx < len(finished) and finished[idx].response_t < q.invoke_t:
            origin, seq = finished[idx].tag
            must[origin - 1] = max(must[origin - 1], seq)
            idx += 1
        if not _below(must, frontier):
            missing = [u for u in finished[:idx] if not _holds(frontier, u.tag)]
            tag = min(u.tag for u in missing)
            u = next(u for u in missing if u.tag == tag)
            return _fail(
                "update-visibility",
                (u.op_id, q.op_id),
                f"query op {q.op_id} started after update op {u.op_id} "
                f"finished but did not learn its tag",
            )
    return Verdict("update-visibility", True)


def _answer(cmd: QueryCommand, count: int, added: set):
    """What a state holding ``count`` updates that added ``added`` answers."""
    if cmd.kind == "counter_value":
        return count
    if cmd.kind == "set_contains":
        return cmd.element in added
    return tuple(sorted(added))


def _same(result, expected) -> bool:
    return type(result) is type(expected) and result == expected


def check_results(history: list[OpRecord]) -> Verdict:
    """Each answered query's result is the one its learned frontier names.

    The five conditions read tags alone. A payload holds exactly the updates
    its frontier names, so a counter query must answer how many updates its
    learned frontier names, and a set query what the elements they added
    give. A state that dropped an element under an advancing frontier passes
    the five and fails here. The witness is the query alone, or the query
    and one named update, whichever fails on its own.
    """
    updates, queries, _ = _extract(history)
    by_origin: dict[int, list[OpRecord]] = {}
    for u in sorted(updates, key=lambda r: r.tag):
        by_origin.setdefault(u.tag[0], []).append(u)
    seqs = {origin: [u.tag[1] for u in us] for origin, us in by_origin.items()}

    def spans(frontier: Frontier) -> list[tuple[list[OpRecord], int]]:
        # per origin, its updates by sequence number and how many the frontier names
        return [
            (by_origin.get(origin, []), bisect_right(seqs.get(origin, ()), top))
            for origin, top in enumerate(frontier, 1)
        ]

    elements: dict[Frontier, set] = {}  # built once per distinct frontier
    for q, frontier in queries:
        counts = spans(frontier)
        if q.op.kind != "counter_value" and frontier not in elements:
            elements[frontier] = {
                u.op.element for us, n in counts for u in us[:n] if u.op.element is not None
            }
        expected = _answer(q.op, sum(n for _, n in counts), elements.get(frontier, set()))
        if _same(q.result, expected):
            continue
        witness = (q.op_id,)
        if _same(q.result, type(expected)()):  # alone, the query answers as it should
            lacking = next(
                u for us, n in counts for u in us[:n]
                if not _same(q.result, _answer(q.op, 1, {u.op.element}))
            )
            witness = (lacking.op_id, q.op_id)
        return _fail(
            "results",
            witness,
            f"query op {q.op_id} answered {reprlib.repr(q.result)}, but the updates "
            f"its learned frontier names give {reprlib.repr(expected)}",
        )
    return Verdict("results", True)


# the five safety conditions, in the order check_all and linearize run them
_CHECKS = {
    "validity": check_validity,
    "stability": check_stability,
    "consistency": check_consistency,
    "update-stability": check_update_stability,
    "update-visibility": check_update_visibility,
}
GLA_CONDITIONS = tuple(_CHECKS)


def check_all(history: list[OpRecord]) -> dict[str, Verdict]:
    return {name: fn(history) for name, fn in _CHECKS.items()}


# ------------------------------------------------------------- linearization


def _inv_key(rec: OpRecord) -> tuple:
    # invocation order; virtual-time ties broken by (client, op id)
    return (rec.invoke_t, rec.client, rec.op_id)


def linearize(history: list[OpRecord], verdicts: dict[str, Verdict] | None = None) -> SequentialWitness:
    """Build and validate the explicit total order for a safe history.

    Raises :class:`PreconditionFailed` naming the first failing safety
    condition: the construction is only meaningful once all five hold.
    ``verdicts``, from :func:`check_all` on the same history, saves running
    the five checks again.
    """
    for name, check in _CHECKS.items():
        verdict = check(history) if verdicts is None else verdicts[name]
        if not verdict.passed:
            raise PreconditionFailed(verdict)

    updates, queries, width = _extract(history)

    # learned frontiers form a chain (consistency just passed); its distinct
    # values, smallest first, are the levels of the order
    levels = tuple(sorted({frontier for _, frontier in queries}, key=sum))
    level_of = {frontier: i for i, frontier in enumerate(levels)}
    # origin r's entries along the chain never decrease, so the first level
    # holding (r, k) is a binary search in column r; tags never learned go
    # after every query
    columns = tuple(zip(*levels))

    def sort_key(item: tuple[OpRecord, Frontier | None]) -> tuple:
        rec, frontier = item
        if frontier is None:
            origin, seq = rec.tag
            first = bisect_left(columns[origin - 1], seq) if columns else len(levels)
            return (first, 0, _inv_key(rec))
        return (level_of[frontier], 1, _inv_key(rec))

    ordered = sorted([(u, None) for u in updates] + queries, key=sort_key)

    # legality: at each query, the updates placed before it are exactly the
    # tags it learned. Tags are unique (validity just passed), so origin r
    # contributes (r, 1..f) iff it has f applied tags, the largest being f
    counts = [0] * width
    tops = [0] * width
    for rec, frontier in ordered:
        if frontier is None:
            origin, seq = rec.tag
            counts[origin - 1] += 1
            tops[origin - 1] = max(tops[origin - 1], seq)
        elif tuple(counts) != frontier or tuple(tops) != frontier:
            raise CheckError(
                f"constructed order is illegal at query op {rec.op_id}: applied "
                f"counts {counts} and maxima {tops} vs learned frontier {list(frontier)}"
            )

    # real-time precedence: nothing may be placed after an operation that
    # was invoked only once it had already finished
    max_invoke = None
    max_invoke_op = None
    for rec, _ in ordered:
        if rec.outcome == "ok" and max_invoke is not None and rec.response_t < max_invoke:
            raise CheckError(
                f"constructed order puts op {rec.op_id} after op "
                f"{max_invoke_op}, which it precedes in real time"
            )
        if max_invoke is None or rec.invoke_t > max_invoke:
            max_invoke = rec.invoke_t
            max_invoke_op = rec.op_id

    return SequentialWitness(order=tuple(rec.op_id for rec, _ in ordered), levels=levels)


def linearizability_oracle(history: list[OpRecord], bound: int = 12) -> bool:
    """Exhaustive search for any legal order; independent of linearize()."""
    updates, queries, _ = _extract(history)
    ops = [(u, None) for u in updates] + queries
    if len(ops) > bound:
        raise UnsupportedInput(f"{len(ops)} operations exceed the oracle bound of {bound}")

    n = len(ops)
    resp = [
        rec.response_t if rec.outcome == "ok" else None  # None: pending, no upper edge
        for rec, _ in ops
    ]
    inv = [rec.invoke_t for rec, _ in ops]
    # i must come before j whenever i finished before j was invoked
    must_precede = [
        frozenset(
            i for i in range(n) if i != j and resp[i] is not None and resp[i] < inv[j]
        )
        for j in range(n)
    ]
    # each learned frontier expanded into its explicit tag set
    learned = [
        frozenset((r, k) for r, top in enumerate(frontier, 1) for k in range(1, top + 1))
        if frontier is not None
        else None
        for _, frontier in ops
    ]
    tags = [rec.tag if frontier is None else None for rec, frontier in ops]

    seen: set[frozenset] = set()

    def search(placed: frozenset, applied: frozenset) -> bool:
        if len(placed) == n:
            return True
        if placed in seen:
            return False
        seen.add(placed)
        for j in range(n):
            if j in placed or not must_precede[j] <= placed:
                continue
            if learned[j] is not None:
                if learned[j] != applied:
                    continue
                if search(placed | {j}, applied):
                    return True
            else:
                if search(placed | {j}, applied | {tags[j]}):
                    return True
        return False

    return search(frozenset(), frozenset())
