"""Value-level tests: lattice laws, command behavior, canonical bytes.

Expected values in the example tests were computed by the small oracles at
the top of this file (naive recomputation / replay), then frozen.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crdtlin
from crdtlin.crdt import (
    CausalTaggedState,
    CommandError,
    GCounter,
    GSet,
    QueryCommand,
    SerializationError,
    ShapeError,
    UpdateOp,
    apply_query,
    apply_update,
    state_from_bytes,
)
from tests_support import gset, tags

# ---------------------------------------------------------------- oracles


def oracle_counter_merge(a: list[int], b: list[int]) -> list[int]:
    assert len(a) == len(b)
    return [x if x > y else y for x, y in zip(a, b)]


def oracle_counter_leq(a: list[int], b: list[int]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def oracle_counter_replay(width: int, slots: list[int]) -> int:
    counts = [0] * width
    for s in slots:
        counts[s] += 1
    return sum(counts)


counters = st.integers(min_value=2, max_value=6).flatmap(
    lambda w: st.tuples(
        *[st.integers(min_value=0, max_value=50) for _ in range(w)]
    ).map(GCounter)
)
counter_pairs = st.integers(min_value=2, max_value=6).flatmap(
    lambda w: st.tuples(
        st.tuples(*[st.integers(min_value=0, max_value=50) for _ in range(w)]).map(GCounter),
        st.tuples(*[st.integers(min_value=0, max_value=50) for _ in range(w)]).map(GCounter),
    )
)
elements = st.binary(min_size=0, max_size=6)
gsets = st.frozensets(elements, max_size=8).map(GSet)


# ---------------------------------------------------------------- examples


def test_counter_merge_example():
    a = GCounter((1, 0, 2))
    b = GCounter((0, 3, 2))
    expect = GCounter(tuple(oracle_counter_merge([1, 0, 2], [0, 3, 2])))
    assert a.merge(b) == expect == GCounter((1, 3, 2))
    assert a.merge(a) == a


def test_counter_compare_examples():
    assert GCounter((0, 1)).compare(GCounter((2, 1))) is True
    assert GCounter((2, 1)).compare(GCounter((0, 1))) is False
    # incomparable pair: neither direction holds
    assert GCounter((1, 0)).compare(GCounter((0, 1))) is False
    assert GCounter((0, 1)).compare(GCounter((1, 0))) is False


def test_counter_width_mismatch():
    with pytest.raises(ShapeError):
        GCounter((1, 2)).merge(GCounter((1, 2, 3)))
    with pytest.raises(ShapeError):
        GCounter((1, 2)).compare(GCounter((1,)))


def test_counter_value_replay_oracle():
    rng = random.Random(7)
    for _ in range(100):
        width = rng.randint(1, 5)
        slots = [rng.randrange(width) for _ in range(rng.randint(0, 40))]
        state = GCounter.zero(width)
        for s in slots:
            # a counter is its own frontier: each origin's tags come in sequence
            tag = (s + 1, state.counts[s] + 1)
            state = apply_update(UpdateOp.increment(), tag, state)
        assert apply_query(QueryCommand.counter_value(), state) == oracle_counter_replay(
            width, slots
        ) == len(slots)


def test_increment_out_of_range():
    with pytest.raises(CommandError):
        GCounter.zero(2).increment(2)
    with pytest.raises(CommandError):
        GCounter.zero(2).increment(-1)


def test_set_examples():
    s = GSet.empty()
    s1 = apply_update(UpdateOp.set_add(b"a"), (1, 1), s)
    assert s1 == gset(b"a")
    # adding the same element again is a no-op on the value
    s2 = apply_update(UpdateOp.set_add(b"a"), (1, 2), s1)
    assert s2 == s1
    assert apply_query(QueryCommand.set_contains(b"a"), s2) is True
    assert apply_query(QueryCommand.set_contains(b"b"), s2) is False
    assert apply_query(QueryCommand.set_elements(), gset(b"b", b"a")) == (b"a", b"b")


def test_set_merge_is_union():
    assert gset(b"a", b"b").merge(gset(b"b", b"c")) == gset(b"a", b"b", b"c")
    assert gset(b"a").compare(gset(b"a", b"b")) is True
    assert gset(b"a", b"b").compare(gset(b"a")) is False


def test_cross_type_operations_rejected():
    with pytest.raises(ShapeError):
        GCounter((0,)).merge(GSet.empty())
    with pytest.raises(ShapeError):
        GSet.empty().compare(GCounter((0,)))
    with pytest.raises(CommandError):
        apply_update(UpdateOp.set_add(b"x"), (1, 1), GCounter.zero(2))
    with pytest.raises(CommandError):
        apply_query(QueryCommand.counter_value(), GSet.empty())


# ---------------------------------------------------------------- lattice laws


@settings(max_examples=300, deadline=None)
@given(counter_pairs)
def test_counter_merge_commutes_and_dominates(pair):
    a, b = pair
    m = a.merge(b)
    assert m == b.merge(a)
    assert m.counts == tuple(oracle_counter_merge(list(a.counts), list(b.counts)))
    assert a.compare(m) and b.compare(m)
    assert a.compare(b) == oracle_counter_leq(list(a.counts), list(b.counts))


@settings(max_examples=200, deadline=None)
@given(counters)
def test_counter_merge_idempotent(a):
    assert a.merge(a) == a


@settings(max_examples=200, deadline=None)
@given(gsets, gsets, gsets)
def test_set_merge_laws(a, b, c):
    assert a.merge(b) == b.merge(a)
    assert a.merge(a) == a
    assert a.merge(b).merge(c) == a.merge(b.merge(c))
    assert a.compare(a.merge(b))


def _join(a, b):
    """The least upper bound by the pointwise and set definitions, built afresh."""
    if isinstance(a, CausalTaggedState):
        frontier = tuple(x if x > y else y for x, y in zip(a.frontier, b.frontier))
        return CausalTaggedState(_join(a.value, b.value), frontier)
    if isinstance(a, GCounter):
        return GCounter(tuple(oracle_counter_merge(list(a.counts), list(b.counts))))
    return GSet(frozenset([*a.elements, *b.elements]))


def _leq(a, b) -> bool:
    if isinstance(a, CausalTaggedState):
        return _leq(a.value, b.value)  # the frontier rides along
    if isinstance(a, GCounter):
        return oracle_counter_leq(list(a.counts), list(b.counts))
    return all(e in b.elements for e in a.elements)


@st.composite
def lattice_pairs(draw):
    """Two operands of one shape: random, equal, one dominated, or the same object."""
    counter = draw(st.booleans())
    tagged = draw(st.booleans())
    width = draw(st.integers(min_value=1, max_value=4))

    def operand():
        if counter:
            value = GCounter(tuple(draw(st.integers(0, 3)) for _ in range(width)))
        else:
            value = GSet(draw(st.frozensets(st.binary(max_size=2), max_size=4)))
        if tagged:
            return CausalTaggedState(value, tuple(draw(st.integers(0, 3)) for _ in range(width)))
        return value

    a = operand()
    relation = draw(st.sampled_from(["random", "equal", "dominated", "identical"]))
    if relation == "random":
        b = operand()
    elif relation == "equal":
        b = _join(a, a)  # a fresh object at every level
    elif relation == "dominated":
        b = _join(a, operand())
    else:
        b = a
    return (b, a) if draw(st.booleans()) else (a, b)


@settings(max_examples=500, deadline=None)
@given(lattice_pairs())
def test_merge_and_compare_follow_the_definitions_and_reuse_the_join(pair):
    a, b = pair
    join = _join(a, b)
    assert a.compare(b) == _leq(a, b)
    assert b.compare(a) == _leq(b, a)
    for x, y in ((a, b), (b, a)):
        merged = x.merge(y)
        assert merged == join
        # an operand that already is the join comes back itself; else a new value
        if x == join:
            assert merged is x
        elif y == join:
            assert merged is y
        else:
            assert merged is not x and merged is not y


def test_counter_compare_antisymmetry_exhaustive():
    # every width-2 vector with entries in 0..3
    vecs = [GCounter((i, j)) for i in range(4) for j in range(4)]
    for a in vecs:
        for b in vecs:
            if a.compare(b) and b.compare(a):
                assert a == b


@settings(max_examples=200, deadline=None)
@given(counters, st.integers(min_value=0, max_value=5))
def test_update_inflates(state, slot):
    slot = slot % len(state.counts)
    new = apply_update(UpdateOp.increment(), (slot + 1, state.counts[slot] + 1), state)
    assert state.compare(new)
    assert not new.compare(state)


def test_apply_update_inflates_the_payload():
    # an increment lands in the slot of its tag's origin
    assert apply_update(UpdateOp.increment(), (1, 2), GCounter((1, 0))) == GCounter((2, 0))
    assert apply_update(UpdateOp.increment(), (2, 1), GCounter((1, 0))) == GCounter((1, 1))


# ---------------------------------------------------------------- tagged states


def _random_run(rng: random.Random, n_updates: int):
    """Reach the same tags twice through different merge histories.

    Each part owns one slot and applies its own tags in sequence; the two
    runs interleave the parts differently, and before each step a part may
    first merge a random other part's current payload.
    """
    width = 3
    queues: list[list[tuple[int, int]]] = [[] for _ in range(width)]  # tags, by origin
    for _ in range(n_updates):
        pid = rng.randint(1, width)
        queues[pid - 1].append((pid, len(queues[pid - 1]) + 1))

    def run():
        # slot increments stay on their owning part: max-merge is not additive
        parts = [CausalTaggedState.initial(GCounter.zero(width), width) for _ in range(width)]
        pending = [list(q) for q in queues]
        while any(pending):
            if rng.random() < 0.5:
                dst, src = rng.sample(range(width), 2)
                parts[dst] = parts[dst].merge(parts[src])
            pid = rng.choice([i for i in range(width) if pending[i]])
            parts[pid] = apply_update(UpdateOp.increment(), pending[pid].pop(0), parts[pid])
        order = rng.sample(range(width), width)
        out = parts[order[0]]
        for i in order[1:]:
            out = out.merge(parts[i])
        return out

    return run(), run()


def test_equal_tag_sets_imply_equivalent_values():
    rng = random.Random(21)
    for _ in range(1000):
        a, b = _random_run(rng, rng.randint(0, 12))
        assert tags(a) == tags(b)
        assert a.equivalent(b)
        assert a.value == b.value


def test_tagged_merge_unions_tags():
    base = CausalTaggedState.initial(GCounter.zero(2), 2)
    a = apply_update(UpdateOp.increment(), (1, 1), base)
    b = apply_update(UpdateOp.increment(), (2, 1), base)
    m = a.merge(b)
    assert m.frontier == (1, 1)
    assert tags(m) == ((1, 1), (2, 1))
    assert m.value == GCounter((1, 1))
    # ordering ignores tags entirely
    assert a.compare(m) and b.compare(m)


def test_tagged_cannot_mix_with_untagged():
    with pytest.raises(ShapeError):
        CausalTaggedState.initial(GCounter.zero(2), 2).merge(GCounter.zero(2))


def test_tagged_frontier_widths_must_match():
    with pytest.raises(ShapeError):
        CausalTaggedState.initial(GCounter.zero(2), 2).merge(
            CausalTaggedState.initial(GCounter.zero(2), 3)
        )
    with pytest.raises(ShapeError):
        CausalTaggedState.initial(GCounter.zero(2), 0)


def test_tags_expand_the_frontier_in_order():
    state = CausalTaggedState(GSet.empty(), (2, 0, 3))
    assert tags(state) == ((1, 1), (1, 2), (3, 1), (3, 2), (3, 3))


def test_tagged_update_must_be_its_origins_next_tag():
    # both payload forms: a counter is its own frontier, a set carries one
    for state, op in (
        (GCounter((2, 0, 0)), UpdateOp.increment()),
        (CausalTaggedState(GSet.empty(), (2, 0, 0)), UpdateOp.set_add(b"x")),
    ):
        grown = apply_update(op, (1, 3), state)
        assert grown.frontier == (3, 0, 0)
        for tag in ((1, 2), (1, 4), (2, 2), (2, 0), (4, 1), (0, 1)):
            with pytest.raises(CommandError):  # repeat, skip, or unknown origin
                apply_update(op, tag, state)


# ---------------------------------------------------------------- serialization


@settings(max_examples=300, deadline=None)
@given(counters)
def test_counter_bytes_roundtrip(state):
    data = state.canonical_bytes()
    assert len(data) == state.canonical_size()
    assert state_from_bytes(data) == state


@settings(max_examples=300, deadline=None)
@given(gsets)
def test_set_bytes_roundtrip(state):
    data = state.canonical_bytes()
    assert len(data) == state.canonical_size()
    assert state_from_bytes(data) == state


@settings(max_examples=200, deadline=None)
@given(gsets, st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6).map(tuple))
def test_tagged_bytes_roundtrip(value, frontier):
    state = CausalTaggedState(value, frontier)
    data = state.canonical_bytes()
    assert len(data) == state.canonical_size()
    assert state_from_bytes(data) == state


def test_canonical_bytes_are_order_insensitive():
    a = GSet(frozenset([b"x", b"y", b"z"]))
    b = GSet(frozenset([b"z", b"x", b"y"]))
    assert a.canonical_bytes() == b.canonical_bytes()


def test_malformed_bytes_rejected():
    good = GCounter((1, 2)).canonical_bytes()
    with pytest.raises(SerializationError):
        state_from_bytes(good[:-1])
    with pytest.raises(SerializationError):
        state_from_bytes(good + b"\x00")
    with pytest.raises(SerializationError):
        state_from_bytes(b"Z" + good[1:])
    with pytest.raises(SerializationError):
        state_from_bytes(b"")


def test_malformed_tagged_bytes_rejected():
    good = CausalTaggedState(GCounter((1, 2, 3)), (1, 0, 4)).canonical_bytes()
    assert len(good) == 58
    with pytest.raises(SerializationError):
        state_from_bytes(good[:-1])  # truncated frontier
    with pytest.raises(SerializationError):
        state_from_bytes(good[:-24])  # frontier width with no entries
    empty = GCounter((1, 2, 3)).canonical_bytes() + b"\x00" * 4
    with pytest.raises(SerializationError):
        state_from_bytes(b"T" + empty)  # a frontier of width 0
    with pytest.raises(SerializationError):
        state_from_bytes(good + b"\x00")
    with pytest.raises(SerializationError):
        state_from_bytes(good + bytes(8))  # a whole extra entry beyond the width


def test_untagged_values_answer_no_frontier():
    # a counter's slots count its replicas' tags, so it is its own frontier
    assert GCounter((1, 0, 2)).frontier == (1, 0, 2) and gset(b"a").frontier is None
    # the attribute lives on the value types, so the wrapper still needs its frontier
    with pytest.raises(TypeError):
        CausalTaggedState(GCounter.zero(3))


def test_only_crdt_names_the_tagged_wrapper():
    # every value answers .frontier, so no other module needs the tagged type
    src = Path(crdtlin.__file__).parent
    naming = sorted(p.name for p in src.glob("*.py") if "CausalTaggedState" in p.read_text())
    assert naming == ["__init__.py", "crdt.py"]
