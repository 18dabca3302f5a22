"""Value-level tests: lattice laws, command behavior, canonical bytes.

Expected values in the example tests were computed by the small oracles at
the top of this file (naive recomputation / replay), then frozen.
"""

from __future__ import annotations

import random
import struct
from operator import le
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crdtlin
from crdtlin.checker import _below
from crdtlin.crdt import (
    CommandError,
    GCounter,
    GSet,
    QueryCommand,
    SemilatticeValue,
    SerializationError,
    ShapeError,
    UpdateOp,
    apply_query,
    apply_update,
    make_command,
    state_from_bytes,
)
from tests_support import gset, reachable_sets, tags

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
frontiers = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6).map(tuple)
gsets = st.builds(GSet, st.frozensets(elements, max_size=8), st.tuples(*[st.integers(0, 3)] * 2))


@st.composite
def reachable(draw, n: int):
    """``n`` set payloads that one seeded run of tagged adds and joins
    reaches, so every tag names one element in all of them: the states a
    cluster can hold. Arbitrary element sets under arbitrary frontiers are
    not, and the frontier orders only reachable states."""
    rng = draw(st.randoms(use_true_random=False))
    seen = reachable_sets(rng, draw(st.integers(1, 4)), draw(st.integers(0, 16)))
    return tuple(draw(st.sampled_from(seen)) for _ in range(n))


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
            tag = (s + 1, state.frontier[s] + 1)
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
    s = GSet.empty(1)
    s1 = apply_update(UpdateOp.set_add(b"a"), (1, 1), s)
    assert s1 == gset([b"a"]) == GSet(frozenset({b"a"}), (1,))
    # adding the same element again only advances the frontier, which still
    # orders the two: the later state is strictly above, with equal elements
    s2 = apply_update(UpdateOp.set_add(b"a"), (1, 2), s1)
    assert s2 == gset([b"a", b"a"]) and s2.elements == s1.elements
    assert s1.compare(s2) and not s2.compare(s1)
    assert apply_query(QueryCommand.set_contains(b"a"), s2) is True
    assert apply_query(QueryCommand.set_contains(b"b"), s2) is False
    assert apply_query(QueryCommand.set_elements(), gset([b"b", b"a"])) == (b"a", b"b")


def test_set_merge_is_union():
    # replicas 1 and 2 each added two elements, b by both
    a, b = gset([b"a", b"b"], []), gset([], [b"b", b"c"])
    assert a.merge(b) == gset([b"a", b"b"], [b"b", b"c"])
    assert a.merge(b).elements == {b"a", b"b", b"c"}
    assert a.compare(b) is False and b.compare(a) is False
    assert gset([b"a"], []).compare(gset([b"a"], [b"b"])) is True
    assert gset([b"a"], [b"b"]).compare(gset([b"a"], [])) is False


def test_cross_type_operations_rejected():
    with pytest.raises(ShapeError):
        GCounter((0,)).merge(GSet.empty(1))
    with pytest.raises(ShapeError):
        GSet.empty(1).compare(GCounter((0,)))
    with pytest.raises(CommandError):
        apply_update(UpdateOp.set_add(b"x"), (1, 1), GCounter.zero(2))
    with pytest.raises(CommandError):
        apply_update(UpdateOp.increment(), (1, 1), GSet.empty(2))
    with pytest.raises(CommandError):
        apply_query(QueryCommand.counter_value(), GSet.empty(1))


def test_make_command_shares_element_less_commands_and_checks_elements():
    assert make_command("increment") is UpdateOp.increment()
    assert make_command("counter_value") is QueryCommand.counter_value()
    assert make_command("set_elements") is QueryCommand.set_elements()
    assert make_command("set_add", b"x") == UpdateOp.set_add(b"x")
    assert make_command("set_contains", b"") == QueryCommand.set_contains(b"")
    for kind, element in (("increment", b"x"), ("set_elements", b""), ("set_add", None),
                          ("set_contains", None), ("decrement", None)):
        with pytest.raises(CommandError):
            make_command(kind, element)
    # an element that is not bytes is named, by every builder of commands
    for build in (UpdateOp.set_add, QueryCommand.set_contains, lambda e: make_command("set_add", e)):
        for element in ("x", bytearray(b"x")):
            with pytest.raises(TypeError, match=r"element .*'x'.* not bytes"):
                build(element)


# ---------------------------------------------------------------- lattice laws


@settings(max_examples=300, deadline=None)
@given(counter_pairs)
def test_counter_merge_commutes_and_dominates(pair):
    a, b = pair
    m = a.merge(b)
    assert m == b.merge(a)
    assert m.frontier == tuple(oracle_counter_merge(list(a.frontier), list(b.frontier)))
    assert a.compare(m) and b.compare(m)
    assert a.compare(b) == oracle_counter_leq(list(a.frontier), list(b.frontier))


@settings(max_examples=200, deadline=None)
@given(counters)
def test_counter_merge_idempotent(a):
    assert a.merge(a) == a


@settings(max_examples=200, deadline=None)
@given(reachable(3))
def test_set_merge_laws(abc):
    a, b, c = abc
    assert a.merge(b) == b.merge(a)
    assert a.merge(a) == a
    assert a.merge(b).merge(c) == a.merge(b.merge(c))
    assert a.compare(a.merge(b))


def _join(a, b):
    """The least upper bound by the pointwise and set definitions, built afresh."""
    frontier = tuple(oracle_counter_merge(list(a.frontier), list(b.frontier)))
    if isinstance(a, GCounter):
        return GCounter(frontier)
    return GSet(frozenset([*a.elements, *b.elements]), frontier)


def _leq(a, b) -> bool:
    # a counter is its own frontier, and a reachable set holds exactly the
    # updates its frontier names
    return oracle_counter_leq(list(a.frontier), list(b.frontier))


@st.composite
def lattice_pairs(draw):
    """Two operands of one shape: random, equal, one dominated, or the same
    object. Counters are any slot vectors, sets the states of one run."""
    if draw(st.booleans()):
        width = draw(st.integers(min_value=1, max_value=4))

        def operand():
            return GCounter(tuple(draw(st.integers(0, 3)) for _ in range(width)))
    else:
        seen = reachable_sets(
            draw(st.randoms(use_true_random=False)), draw(st.integers(1, 4)), draw(st.integers(0, 16))
        )

        def operand():
            return draw(st.sampled_from(seen))

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
    slot = slot % len(state.frontier)
    new = apply_update(UpdateOp.increment(), (slot + 1, state.frontier[slot] + 1), state)
    assert state.compare(new)
    assert not new.compare(state)


def test_apply_update_inflates_the_payload():
    # an increment lands in the slot of its tag's origin
    assert apply_update(UpdateOp.increment(), (1, 2), GCounter((1, 0))) == GCounter((2, 0))
    assert apply_update(UpdateOp.increment(), (2, 1), GCounter((1, 0))) == GCounter((1, 1))


# ---------------------------------------------------------------- tagged states


def _random_run(rng: random.Random, n_updates: int):
    """Reach the same tags twice through different merge histories.

    Each part owns one slot and applies its own tags in sequence, each
    adding an element drawn from a small alphabet, so adds repeat; the two
    runs interleave the parts differently, and before each step a part may
    first merge a random other part's current payload.
    """
    width = 3
    queues: list[list[tuple[tuple[int, int], bytes]]] = [[] for _ in range(width)]  # by origin
    for _ in range(n_updates):
        pid = rng.randint(1, width)
        queues[pid - 1].append(((pid, len(queues[pid - 1]) + 1), bytes([rng.randrange(4)])))

    def run():
        # a tag goes to its owning part only: each origin's tags arrive in sequence
        parts = [GSet.empty(width) for _ in range(width)]
        pending = [list(q) for q in queues]
        while any(pending):
            if rng.random() < 0.5:
                dst, src = rng.sample(range(width), 2)
                parts[dst] = parts[dst].merge(parts[src])
            pid = rng.choice([i for i in range(width) if pending[i]])
            tag, element = pending[pid].pop(0)
            parts[pid] = apply_update(UpdateOp.set_add(element), tag, parts[pid])
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
        # equal frontiers: each is below the other, and they are one state
        assert a.compare(b) and b.compare(a)
        assert a == b


def test_tagged_merge_unions_tags():
    base = GSet.empty(2)
    a = apply_update(UpdateOp.set_add(b"x"), (1, 1), base)
    b = apply_update(UpdateOp.set_add(b"x"), (2, 1), base)
    m = a.merge(b)
    assert m.frontier == (1, 1)
    assert tags(m) == ((1, 1), (2, 1))
    assert m.elements == frozenset({b"x"})
    # the order is the frontier's: m holds more tags than a, so it is strictly
    # above a, though its set is no larger
    assert a.compare(m) and not m.compare(a)
    assert b.compare(m) and not m.compare(b)
    assert not a.compare(b) and not b.compare(a)


@settings(max_examples=300, deadline=None)
@given(reachable(2))
def test_compare_is_the_checkers_frontier_order(pair):
    # one order across layers: the payload's compare is the pointwise
    # frontier order the checker applies to learned frontiers, and on a
    # reachable state it implies that the elements are contained
    a, b = pair
    below = all(map(le, a.frontier, b.frontier))
    assert a.compare(b) == below == _below(a.frontier, b.frontier)
    if below:
        assert a.elements <= b.elements


def test_the_order_is_said_once_on_the_base_class():
    for cls in (GCounter, GSet):
        for name in ("compare", "merge", "_check", "equivalent"):
            assert name not in vars(cls), f"{cls.__name__} defines its own {name}"
        assert "_join" in vars(cls)
    assert not hasattr(SemilatticeValue, "equivalent")


def test_tagged_cannot_mix_with_untagged():
    # a set's frontier and a counter's slots never mix, even at one width
    for a, b in ((GSet.empty(2), GCounter.zero(2)), (GCounter.zero(2), GSet.empty(2))):
        with pytest.raises(ShapeError):
            a.merge(b)
        with pytest.raises(ShapeError):
            a.compare(b)


def test_tagged_frontier_widths_must_match():
    with pytest.raises(ShapeError):
        GSet.empty(2).merge(GSet.empty(3))
    with pytest.raises(ShapeError):
        GSet.empty(3).compare(GSet.empty(2))
    with pytest.raises(ShapeError):
        GSet.empty(0)


def test_tags_expand_the_frontier_in_order():
    state = GSet(frozenset(), (2, 0, 3))
    assert tags(state) == ((1, 1), (1, 2), (3, 1), (3, 2), (3, 3))


def test_tagged_update_must_be_its_origins_next_tag():
    # both payload forms: a counter is its own frontier, a set carries one
    for state, op in (
        (GCounter((2, 0, 0)), UpdateOp.increment()),
        (GSet(frozenset(), (2, 0, 0)), UpdateOp.set_add(b"x")),
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
@given(st.frozensets(elements, max_size=8), frontiers)
def test_tagged_bytes_roundtrip(value, frontier):
    state = GSet(value, frontier)
    data = state.canonical_bytes()
    assert len(data) == state.canonical_size()
    assert state_from_bytes(data) == state


def test_canonical_bytes_are_order_insensitive():
    a = gset([b"x", b"y", b"z"])
    b = gset([b"z", b"x", b"y"])
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
    # a set's canonical form: "S", count, elements, u32 width, u64 frontier
    state = GSet(frozenset({b"ab"}), (1, 0, 4))
    good = state.canonical_bytes()
    assert good == bytes.fromhex("5300000001000000026162") + struct.pack(">I3Q", 3, 1, 0, 4)
    with pytest.raises(SerializationError):
        state_from_bytes(good[:-1])  # truncated frontier
    with pytest.raises(SerializationError):
        state_from_bytes(good[:-24])  # frontier width with no entries
    with pytest.raises(SerializationError):
        state_from_bytes(good[:-28])  # no frontier at all: every set carries one
    with pytest.raises(SerializationError):
        state_from_bytes(good[:-28] + b"\x00" * 4)  # a frontier of width 0
    with pytest.raises(SerializationError):
        state_from_bytes(b"T" + good)  # the retired wrapper form
    with pytest.raises(SerializationError):
        state_from_bytes(good + b"\x00")
    with pytest.raises(SerializationError):
        state_from_bytes(good + bytes(8))  # a whole extra entry beyond the width


def test_every_value_answers_its_frontier():
    # a counter's slots count its replicas' tags, so it is its own frontier
    assert GCounter((1, 0, 2)).frontier == (1, 0, 2)
    assert gset([b"a"], [], [b"a", b"b"]).frontier == (1, 0, 2)
    # a set is built with its frontier or not at all
    with pytest.raises(TypeError):
        GSet(frozenset({b"a"}))


def test_only_the_package_init_names_the_tagged_wrapper():
    # a set carries its own frontier; the old wrapper name is a bare alias of it
    src = Path(crdtlin.__file__).parent
    naming = sorted(p.name for p in src.glob("*.py") if "CausalTaggedState" in p.read_text())
    assert naming == ["__init__.py"]
    assert crdtlin.CausalTaggedState is GSet
