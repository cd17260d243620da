"""Distributed scale-out of screened classification (paper Section 8).

"In the context of distributed inference, our design can scale-out from
single-node to distributed nodes, where each node keeps an approximate
screener."  This package implements that extension: the category space
is sharded across nodes, every node runs screening + candidates-only
classification over its shard, and a reducer merges the per-shard
top-k/mixed outputs.

Two serving backends share one shard-plan/reduce code path:

* :class:`ShardedClassifier` — sequential, in-process (also the
  training entry point);
* :class:`ParallelShardedEngine` — one persistent worker process per
  shard with zero-copy shared-memory parameters, bit-identical to the
  sequential backend (differentially tested).

:class:`ClusterModel` is the analytic multi-node performance model.
"""

from repro.distributed.sharding import (
    ShardPlan,
    ShardedClassifier,
    merge_shard_outputs,
    merge_streamed_outputs,
    observed_category_frequencies,
    reduce_top_k,
    shard_ranges,
    shard_top_k,
)
from repro.distributed.cluster import ClusterModel, DistributedResult
from repro.distributed.parallel import (
    DegradedOutput,
    ParallelShardedEngine,
    ShardFailure,
    WorkerDied,
    WorkerError,
)

__all__ = [
    "ShardPlan",
    "ShardedClassifier",
    "ParallelShardedEngine",
    "observed_category_frequencies",
    "WorkerDied",
    "WorkerError",
    "DegradedOutput",
    "ShardFailure",
    "shard_ranges",
    "merge_shard_outputs",
    "merge_streamed_outputs",
    "shard_top_k",
    "reduce_top_k",
    "ClusterModel",
    "DistributedResult",
]
