"""The cluster layer: sharded, replicated serving over fragment placement.

FS-Join's pivot-delimited fragments double as a placement scheme: each
fragment's postings live on exactly one shard, probes scatter only to the
shards their prefix fragments map to, and per-shard candidate sets are
disjoint by the claim rule (the distributed form of the paper's Theorem 1),
so the gather step is an exact, dedup-free merge.

Components:

* :mod:`repro.cluster.plan` — greedy bin-packed fragment → shard placement
  with the skew metrics of :mod:`repro.analysis.loadbalance`;
* :mod:`repro.cluster.node` — :class:`ShardSlice` (a fragment-restricted
  :class:`~repro.service.index.SegmentIndex` with the claim rule) and
  :class:`ShardNode` (replica endpoint with health state);
* :mod:`repro.cluster.router` — scatter-gather routing, admission control
  with typed load-shedding, replica failover and skew-aware
  :meth:`~repro.cluster.router.ClusterRouter.rebalance`;
* :mod:`repro.cluster.build` — build/save/load of whole clusters
  (one digest-checked index snapshot + a JSON manifest holding the plan);
* :mod:`repro.cluster.health` / :mod:`repro.cluster.repair` — the
  self-healing control plane: tick-driven failure detection,
  anti-entropy digest scrubbing, and automatic replica rebuild with
  verified readmission.

Example:
    >>> from repro.data import make_corpus
    >>> from repro.cluster import build_cluster
    >>> records = make_corpus("wiki", 100, seed=7)
    >>> router = build_cluster(records, n_shards=4, replication=2,
    ...                        n_vertical=8)
    >>> hits = router.search(records[0].tokens, theta=0.9)
    >>> hits[0].rid == records[0].rid  # the record itself, score 1.0
    True
"""

from repro.cluster.build import build_cluster, load_cluster, save_cluster
from repro.cluster.failover import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    HedgeConfig,
    RetryPolicy,
)
from repro.cluster.health import (
    ControlPlane,
    HealthConfig,
    HealthEvent,
    ReplicaState,
)
from repro.cluster.node import IngestNode, ShardNode, ShardSlice
from repro.cluster.plan import ShardPlan, plan_shards
from repro.cluster.repair import RepairManager
from repro.cluster.router import ClusterRouter, Migration, PartialSearchResult

__all__ = [
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "ClusterRouter",
    "ControlPlane",
    "HealthConfig",
    "HealthEvent",
    "HedgeConfig",
    "IngestNode",
    "Migration",
    "PartialSearchResult",
    "RepairManager",
    "ReplicaState",
    "RetryPolicy",
    "ShardNode",
    "ShardPlan",
    "ShardSlice",
    "build_cluster",
    "load_cluster",
    "plan_shards",
    "save_cluster",
]
