"""Join-semilattice values and the commands that read and inflate them.

An update is the client's ``UpdateOp`` plus the causal tag its proposer
gives it, ``apply_update(op, tag, state)``; it advances the tag's origin.

The replication layer is generic over ``SemilatticeValue``: anything with a
``frontier``, a join and a canonical byte form. Each replica applies its own
tags in sequence, so the tags in a payload are summarised by a per-replica
frontier (a version vector), and a payload holds exactly the updates its
frontier names. So the frontier is the one order, said once on
``SemilatticeValue``, and the checker applies it to learned frontiers. Each
CRDT is its one payload form, which ``initial_state`` builds: a ``GCounter``
is its own frontier, since each slot counts its own replica's tags, and a
``GSet`` carries one next to its elements. Frontiers cost O(replicas) per
payload and per recorded query, however long the history.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import le

__all__ = [
    "COMMANDS",
    "CRDT_KINDS",
    "CausalTag",
    "CommandError",
    "CrdtError",
    "GCounter",
    "GSet",
    "QueryCommand",
    "SemilatticeValue",
    "SerializationError",
    "ShapeError",
    "UpdateOp",
    "apply_query",
    "apply_update",
    "initial_state",
    "make_command",
    "pack_elements",
    "pack_u64s",
    "read_elements",
    "read_u64s",
    "state_from_bytes",
    "workload_op",
]

# (issuing replica id, per-replica update sequence number)
CausalTag = tuple[int, int]

# the value types a cluster can replicate, by the name configs and the CLI use
CRDT_KINDS = ("gcounter", "gset")

_U32 = struct.Struct(">I")


class CrdtError(Exception):
    """Base class for value and command errors."""


class ShapeError(CrdtError):
    """Operands are structurally incompatible (type or width mismatch)."""


class CommandError(CrdtError):
    """Command does not fit the state it was applied to."""


class SerializationError(CrdtError):
    """Canonical byte form is malformed."""


class SemilatticeValue:
    """A value in a join semilattice, ordered by its ``frontier``.

    ``compare`` is pointwise ``<=`` on frontiers, true when self is dominated
    by ``other``. ``merge`` is the least upper bound: an operand itself when
    its frontier already is the join, else ``_join``. Both raise ShapeError
    on another type or frontier width. Implementations are immutable, and
    each provides:

    - ``frontier``: the per-replica frontier of its update tags;
    - ``_join(other, frontier)``: the value holding both operands' updates
      under their joined ``frontier``;
    - ``canonical_bytes() -> bytes``: a self-describing canonical encoding,
      equal for equal values;
    - ``canonical_size() -> int``: the length of ``canonical_bytes()``
      without building it.
    """

    __slots__ = ()

    def _check(self, other: "SemilatticeValue") -> tuple[int, ...]:
        """``other``'s frontier, if it has this value's type and width."""
        if type(other) is not type(self):
            raise ShapeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        theirs = other.frontier
        if len(theirs) != len(self.frontier):
            raise ShapeError(f"frontier width mismatch: {len(self.frontier)} vs {len(theirs)}")
        return theirs

    def compare(self, other: "SemilatticeValue") -> bool:
        return other is self or all(map(le, self.frontier, self._check(other)))

    def merge(self, other: "SemilatticeValue") -> "SemilatticeValue":
        if other is self:
            return self
        mine, theirs = self.frontier, self._check(other)
        frontier = tuple(map(max, mine, theirs))
        if frontier == mine:
            return self
        if frontier == theirs:
            return other
        return self._join(other, frontier)


@dataclass(frozen=True, slots=True)
class GCounter(SemilatticeValue):
    """Grow-only counter with one slot per replica.

    Slot ``r - 1`` counts replica ``r``'s tags, so the counts are its
    frontier. The slot count is fixed at cluster creation; merging counters
    of different widths is a shape error, not a silent resize.
    """

    frontier: tuple[int, ...]  # the counts

    @classmethod
    def zero(cls, width: int) -> "GCounter":
        if width < 1:
            raise ShapeError(f"counter needs at least one slot, got {width}")
        return cls((0,) * width)

    def _join(self, other: "GCounter", frontier: tuple[int, ...]) -> "GCounter":
        return GCounter(frontier)

    def increment(self, slot: int) -> "GCounter":
        if not 0 <= slot < len(self.frontier):
            raise CommandError(f"slot {slot} out of range for width {len(self.frontier)}")
        counts = list(self.frontier)
        counts[slot] += 1
        return GCounter(tuple(counts))

    def value(self) -> int:
        return sum(self.frontier)

    def canonical_bytes(self) -> bytes:
        return b"C" + pack_u64s(self.frontier)

    def canonical_size(self) -> int:
        return 5 + 8 * len(self.frontier)


@dataclass(frozen=True, slots=True)
class GSet(SemilatticeValue):
    """Grow-only set of opaque byte strings, with the frontier of its tags.

    Replica ``r`` issues tags ``(r, 1), (r, 2), ...`` and applies them to its
    own payload in that order, so every payload holds a prefix of each
    replica's sequence. ``frontier[r - 1]`` is the length of replica ``r``'s
    prefix: tag ``(r, k)`` is present iff ``frontier[r - 1] >= k``. A duplicate
    add advances the frontier but adds no element, so the frontier is not the
    set's value; it still orders sets, since frontier ``<=`` implies elements
    ``<=``. Its width is fixed at cluster creation.
    """

    elements: frozenset[bytes]
    frontier: tuple[int, ...]

    @classmethod
    def empty(cls, width: int) -> "GSet":
        if width < 1:
            raise ShapeError(f"frontier needs at least one replica, got {width}")
        return cls(frozenset(), (0,) * width)

    def _join(self, other: "GSet", frontier: tuple[int, ...]) -> "GSet":
        return GSet(self.elements | other.elements, frontier)

    def add(self, element: bytes, slot: int) -> "GSet":
        """Add ``element`` under the next tag of replica ``slot + 1``, whose
        range and sequence ``apply_update`` checks."""
        if not isinstance(element, bytes):
            raise CommandError(f"set elements are bytes, got {type(element).__name__}")
        frontier = list(self.frontier)
        frontier[slot] += 1
        return GSet(self.elements | {element}, tuple(frontier))

    def contains(self, element: bytes) -> bool:
        return element in self.elements

    def sorted_elements(self) -> tuple[bytes, ...]:
        return tuple(sorted(self.elements))

    def canonical_bytes(self) -> bytes:
        return b"S" + pack_elements(sorted(self.elements)) + pack_u64s(self.frontier)

    def canonical_size(self) -> int:
        return 9 + sum(4 + len(el) for el in self.elements) + 8 * len(self.frontier)


def initial_state(crdt: str, n_replicas: int) -> SemilatticeValue:
    """The empty payload of a ``crdt`` cluster of ``n_replicas``: a zero
    counter, or an empty set whose frontier records no update yet."""
    if crdt == "gcounter":
        return GCounter.zero(n_replicas)
    if crdt == "gset":
        return GSet.empty(n_replicas)
    raise ValueError(f"unknown crdt {crdt!r}, expected one of {', '.join(CRDT_KINDS)}")


@dataclass(frozen=True, slots=True)
class UpdateOp:
    """A client's write. Its proposer gives it the causal tag (proposer id,
    next sequence number); a counter increments the slot of the tag's origin."""

    kind: str
    element: bytes | None = None

    @classmethod
    def increment(cls) -> "UpdateOp":
        return _INCREMENT

    @classmethod
    def set_add(cls, element: bytes) -> "UpdateOp":
        return make_command("set_add", element)


@dataclass(frozen=True, slots=True)
class QueryCommand:
    """A read of the full replicated state: no side effects, a plain result."""

    kind: str
    element: bytes | None = None

    @classmethod
    def counter_value(cls) -> "QueryCommand":
        return _COUNTER_VALUE

    @classmethod
    def set_contains(cls, element: bytes) -> "QueryCommand":
        return make_command("set_contains", element)

    @classmethod
    def set_elements(cls) -> "QueryCommand":
        return _SET_ELEMENTS


# commands are frozen, so every op of a kind without an element shares one
# object: a history of counter ops holds two commands however long it is
_INCREMENT = UpdateOp("increment")
_COUNTER_VALUE = QueryCommand("counter_value")
_SET_ELEMENTS = QueryCommand("set_elements")

# every command kind: its class, and its shared object if it takes no element
COMMANDS: dict[str, tuple[type, UpdateOp | QueryCommand | None]] = {
    "increment": (UpdateOp, _INCREMENT),
    "set_add": (UpdateOp, None),
    "counter_value": (QueryCommand, _COUNTER_VALUE),
    "set_contains": (QueryCommand, None),
    "set_elements": (QueryCommand, _SET_ELEMENTS),
}


def make_command(kind: str, element: bytes | None = None) -> UpdateOp | QueryCommand:
    """The command of ``kind`` holding ``element``, shared if it takes none: the
    rule every decoder of commands follows. An unknown kind, or an element
    given exactly when the kind takes none, raises CommandError; an element
    that is not ``bytes`` raises TypeError."""
    entry = COMMANDS.get(kind)
    if entry is None:
        raise CommandError(f"unknown command kind {kind!r}")
    cls, shared = entry
    if (element is None) == (shared is None):
        raise CommandError(f"{kind} {'needs an' if shared is None else 'takes no'} element")
    if element is not None and not isinstance(element, bytes):
        raise TypeError(f"{kind} element {element!r} is a {type(element).__name__}, not bytes")
    return cls(kind, element) if shared is None else shared


def workload_op(crdt: str, kind: str, element: bytes) -> UpdateOp | QueryCommand:
    """The op a generated workload issues on a CRDT of kind ``crdt``: for an
    ``"update"`` an increment or an add of ``element``, for a ``"query"`` a
    read of the whole value."""
    if crdt == "gcounter":
        return _INCREMENT if kind == "update" else _COUNTER_VALUE
    return UpdateOp.set_add(element) if kind == "update" else _SET_ELEMENTS


def apply_update(op: UpdateOp, tag: CausalTag, state: SemilatticeValue) -> SemilatticeValue:
    """Apply ``op`` under the causal ``tag`` its proposer gave it, returning an
    inflated copy of ``state`` whose frontier holds the tag. Every check of
    an update's kind and element is made here."""
    # the closure invariant behind the frontier: each origin's tags arrive
    # at its own payload in sequence, with no gap or repeat
    frontier = state.frontier
    origin, seq = tag
    if not 1 <= origin <= len(frontier):
        raise CommandError(f"tag origin {origin} outside 1..{len(frontier)}")
    if seq != frontier[origin - 1] + 1:
        raise CommandError(
            f"tag {tag} out of sequence: replica {origin} is at {frontier[origin - 1]}"
        )
    if op.kind == "increment":
        if not isinstance(state, GCounter):
            raise CommandError("increment targets a counter state")
        return state.increment(origin - 1)
    if op.kind == "set_add":
        if not isinstance(state, GSet):
            raise CommandError("set_add targets a set state")
        if op.element is None:
            raise CommandError("set_add without an element")
        return state.add(op.element, origin - 1)
    raise CommandError(f"unknown update kind {op.kind!r}")


def apply_query(cmd: QueryCommand, state: SemilatticeValue):
    """Evaluate a query command against a state."""
    if cmd.kind == "counter_value":
        if not isinstance(state, GCounter):
            raise CommandError("counter_value targets a counter state")
        return state.value()
    if cmd.kind == "set_contains":
        if not isinstance(state, GSet):
            raise CommandError("set_contains targets a set state")
        if cmd.element is None:
            raise CommandError("set_contains without an element")
        return state.contains(cmd.element)
    if cmd.kind == "set_elements":
        if not isinstance(state, GSet):
            raise CommandError("set_elements targets a set state")
        return state.sorted_elements()
    raise CommandError(f"unknown query kind {cmd.kind!r}")


def state_from_bytes(data: bytes, pos: int = 0, end: int | None = None) -> SemilatticeValue:
    """The state whose canonical form is exactly ``data[pos:end]``, parsed in place.

    Every declared count is checked against the bytes left before a format
    string is built or a list grows, so a forged width costs nothing.
    """
    if end is None:
        end = len(data)
    lead = data[pos : pos + 1]
    if lead == b"C":
        counts, pos = read_u64s(data, pos + 1, end)
        state = GCounter(counts)
    elif lead == b"S":
        elements, pos = read_elements(data, pos + 1, end)
        frontier, pos = read_u64s(data, pos, end)
        if not frontier:
            raise SerializationError("set with an empty frontier")
        state = GSet(frozenset(elements), frontier)
    else:
        raise SerializationError(f"unknown state lead byte {lead!r}")
    if pos != end:
        raise SerializationError(f"{end - pos} trailing bytes after state")
    return state


# the codec's two list layouts, each written and read only here: a state's
# canonical form is built from them, and so are the wire's reply fields


def pack_u64s(values: tuple[int, ...]) -> bytes:
    """The u64-list form: a u32 count, then each value as a u64."""
    return struct.pack(f">I{len(values)}Q", len(values), *values)


def pack_elements(elements: list[bytes] | tuple[bytes, ...]) -> bytes:
    """The element-list form: a u32 count, then each element as a u32 length and its bytes."""
    parts = [_U32.pack(len(elements))]
    for el in elements:
        parts += (_U32.pack(len(el)), el)
    return b"".join(parts)


def read_u64s(data: bytes, pos: int, end: int) -> tuple[tuple[int, ...], int]:
    """The u64 list at ``data[pos:end]``, and the offset just past it."""
    count, pos = _read_count(data, pos, end, 8, "frontier")
    return struct.unpack_from(f">{count}Q", data, pos), pos + 8 * count


def read_elements(data: bytes, pos: int, end: int) -> tuple[tuple[bytes, ...], int]:
    """The element list at ``data[pos:end]``, and the offset just past it."""
    count, pos = _read_count(data, pos, end, 4, "element list")
    elements = []
    for _ in range(count):
        if pos + 4 > end or (stop := pos + 4 + _U32.unpack_from(data, pos)[0]) > end:
            raise SerializationError("truncated element list")
        elements.append(data[pos + 4 : stop])
        pos = stop
    return tuple(elements), pos


def _read_count(data: bytes, pos: int, end: int, item_size: int, what: str) -> tuple[int, int]:
    """A u32 count whose items of ``item_size`` bytes fit before ``end``, and the offset past it."""
    if pos + 4 > end or pos + 4 + item_size * (count := _U32.unpack_from(data, pos)[0]) > end:
        raise SerializationError(f"truncated {what}")
    return count, pos + 4
