"""Linearizable replication of state-based CRDTs without a leader or a log.

Replicas hold join-semilattice states. Updates merge into a quorum in one
round trip; queries learn a state that every earlier operation has reached,
through an incremental prepare that usually also takes one round trip.
The package bundles the protocol state machine, a deterministic fault-
injecting simulator, an offline safety and linearizability checker, a
networked replica daemon with a blocking client, and benchmarking around
it all. See the ``crdtlin`` command for the operator entry points.
"""

from .checker import (
    GLA_CONDITIONS,
    PreconditionFailed,
    SequentialWitness,
    UnsupportedInput,
    Verdict,
    Witness,
    check_all,
    check_results,
    linearizability_oracle,
    linearize,
)
from .crdt import (
    GCounter,
    GSet,
    QueryCommand,
    SemilatticeValue,
)
from .history import OpRecord, TraceEvent, read_history, write_history
from .protocol import ProtocolConfig, Replica
from .service import (
    ClusterConfig,
    ReplicaClient,
    ReplicaDaemon,
    ReplicaEndpoint,
    load_cluster_config,
)
from .sim import SimConfig, SimResult, Simulation, sim_run

__version__ = "0.1.0"

# a set's old wrapper name, for perfbench/layers.py alone; the benchmark change
# that deletes `instrument` (ROADMAP item 2) deletes it too
CausalTaggedState = GSet

__all__ = [
    "ClusterConfig",
    "GCounter",
    "GLA_CONDITIONS",
    "GSet",
    "OpRecord",
    "PreconditionFailed",
    "ProtocolConfig",
    "QueryCommand",
    "Replica",
    "ReplicaClient",
    "ReplicaDaemon",
    "ReplicaEndpoint",
    "SemilatticeValue",
    "SequentialWitness",
    "SimConfig",
    "SimResult",
    "Simulation",
    "TraceEvent",
    "UnsupportedInput",
    "Verdict",
    "Witness",
    "check_all",
    "check_results",
    "linearizability_oracle",
    "linearize",
    "load_cluster_config",
    "read_history",
    "sim_run",
    "write_history",
    "__version__",
]
