"""Fault tolerance and resource governance for the execution stack.

Four pieces (see ``docs/RESILIENCE.md``):

* **Query guards** (:mod:`.guard`) — deadlines, row/tuple budgets and
  cooperative cancellation, checked at operator boundaries in every
  strategy and in the native engine.
* **Fault injection** (:mod:`.faults`) — seeded, deterministic fault plans
  the network front end serves connections under
  (``python -m repro chaos --scenario network``).
* **Client retry** (:mod:`.retry`) — exponential backoff and a retry
  budget for requests a server sheds.
* **Durability VFS** (:mod:`.vfs`) — the pluggable file-system layer every
  durability module writes through; :class:`FaultyVFS` deterministically
  injects short writes, I/O errors, torn renames and power cuts for the
  crash-torture harness (``python -m repro crash-torture``).

The fault harnesses share one op model, :mod:`repro.resilience.opmodel`:
one preference pool, one always-valid op stream, one read verdict, one
recovery verdict and one report.  The concurrent chaos runner
(:mod:`repro.resilience.chaos_concurrent`) and the crash-torture harness
(:mod:`repro.resilience.crashtest`) drive it here, network chaos
(:mod:`repro.serve.net.chaos`) over the wire; all three are imported
lazily by the CLI to keep this package free of execution-layer imports.
"""

from .faults import (
    NULL_FAULTS,
    FaultPlan,
    FaultSpec,
    Injection,
)
from .guard import (
    NULL_GUARD,
    CancellationToken,
    QueryGuard,
    current_guard,
    use_guard,
)
from .retry import RetryBudget, RetryPolicy
from .vfs import (
    FAULT_KINDS,
    REAL_VFS,
    FaultyVFS,
    RealVFS,
    VfsFault,
    current_vfs,
    use_vfs,
)

__all__ = [
    "QueryGuard",
    "CancellationToken",
    "NULL_GUARD",
    "current_guard",
    "use_guard",
    "FaultPlan",
    "FaultSpec",
    "Injection",
    "NULL_FAULTS",
    "RetryPolicy",
    "RetryBudget",
    "RealVFS",
    "FaultyVFS",
    "VfsFault",
    "REAL_VFS",
    "FAULT_KINDS",
    "current_vfs",
    "use_vfs",
]
