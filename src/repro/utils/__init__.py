"""Shared utilities: deterministic RNG handling, units, table rendering,
shared-memory array packs and supervised worker processes."""

from repro.utils.faults import FaultInjector, FaultSpec, InjectedFault
from repro.utils.memory import Workspace
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.shm import PackLayout, SharedArrayPack
from repro.utils.workers import (
    WorkerDied,
    WorkerHandle,
    WorkerTimeout,
    default_context,
)
from repro.utils.units import (
    GIB,
    KIB,
    MIB,
    bytes_to_gib,
    seconds_to_cycles,
)
from repro.utils.tables import render_table
from repro.utils.validation import (
    check_batch_features,
    check_positive,
    check_probability,
)

__all__ = [
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "Workspace",
    "ensure_rng",
    "spawn_rngs",
    "PackLayout",
    "SharedArrayPack",
    "WorkerDied",
    "WorkerHandle",
    "WorkerTimeout",
    "default_context",
    "KIB",
    "MIB",
    "GIB",
    "bytes_to_gib",
    "seconds_to_cycles",
    "render_table",
    "check_positive",
    "check_probability",
    "check_batch_features",
]
