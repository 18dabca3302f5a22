"""Builders shared by the tests: history records, sets, and a tagged
state's tags."""

from crdtlin.crdt import GSet, QueryCommand, UpdateOp
from crdtlin.history import OpRecord


def gset(*elements: bytes) -> GSet:
    return GSet(frozenset(elements))


def tags(state) -> tuple:
    """Every tag folded into a tagged state, expanded from its frontier, in sorted order."""
    return tuple((r, k) for r, top in enumerate(state.frontier, 1) for k in range(1, top + 1))


def make_update(op_id, inv, resp, tag, outcome="ok", client=0):
    return OpRecord(
        op_id=op_id, client=client, replica=1, kind="update",
        op=UpdateOp.increment(), invoke_t=inv, tag=tag,
        response_t=resp, outcome=outcome,
    )


def make_query(op_id, inv, resp, frontier, outcome="ok", client=0):
    return OpRecord(
        op_id=op_id, client=client, replica=1, kind="query",
        op=QueryCommand.counter_value(), invoke_t=inv, response_t=resp,
        outcome=outcome, learned_frontier=frontier,
    )
