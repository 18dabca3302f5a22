"""Record builders shared by the CLI and acceptance tests."""

from crdtlin.history import OpRecord


def make_update(op_id, inv, resp, tag, outcome="ok", client=0):
    return OpRecord(
        op_id=op_id, client=client, replica=1, kind="update",
        op={"kind": "increment"}, invoke_t=inv, tag=tag,
        response_t=resp, outcome=outcome,
    )


def make_query(op_id, inv, resp, frontier, outcome="ok", client=0):
    return OpRecord(
        op_id=op_id, client=client, replica=1, kind="query",
        op={"kind": "counter_value"}, invoke_t=inv, response_t=resp,
        outcome=outcome, learned_frontier=frontier,
    )
