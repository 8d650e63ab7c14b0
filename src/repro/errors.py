"""Exception hierarchy for the repro preference-aware database library.

Every error raised by the library derives from :class:`ReproError`, so that
callers can catch a single exception type at the API boundary while still
being able to discriminate finer failure classes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A schema is malformed or an attribute cannot be resolved."""


class CatalogError(ReproError):
    """A table, index or statistic is missing from, or duplicated in, the catalog."""


class TypeError_(ReproError):
    """A value does not match the declared column type.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class ExpressionError(ReproError):
    """An expression tree is malformed or references unknown attributes."""


class PlanError(ReproError):
    """A logical plan is malformed (e.g. arity mismatch in a set operation)."""


class OptimizerError(ReproError):
    """The optimizer was given a plan it cannot rewrite soundly."""


class ExecutionError(ReproError):
    """A physical operator failed during plan execution."""


class LockNestingError(ReproError):
    """A thread asked for a :class:`~repro.serve.rwlock.RWLock` while holding
    one (or released one it does not hold); nesting these locks can deadlock."""


class ColumnarUnsupported(ExecutionError):
    """The columnar executor cannot evaluate this plan shape.

    A capability miss, not a failure: the engine catches it and silently
    re-dispatches to the requested row strategy.
    """


class PreferenceError(ReproError):
    """A preference definition is invalid (bad confidence, scoring range...)."""


class ResilienceError(ReproError):
    """Base class for resource-governance and fault-tolerance failures.

    Everything the resilience layer (:mod:`repro.resilience`) raises derives
    from this class, so callers can distinguish "the engine protected itself"
    (guard trips, injected faults, detected corruption) from
    plain programming errors.
    """


class QueryTimeout(ResilienceError):
    """A query exceeded its :class:`~repro.resilience.QueryGuard` deadline."""

    def __init__(self, timeout: float, elapsed: float | None = None):
        self.timeout = timeout
        self.elapsed = elapsed
        detail = f" (ran {elapsed:.3f}s)" if elapsed is not None else ""
        super().__init__(f"query exceeded its {timeout:.3f}s deadline{detail}")


class QueryCancelled(ResilienceError):
    """A cooperative :class:`~repro.resilience.CancellationToken` was cancelled."""

    def __init__(self, message: str = "query cancelled by caller"):
        super().__init__(message)


class ResourceExhausted(ResilienceError):
    """A query guard budget (output rows, materialized tuples) was exceeded.

    ``kind`` names the budget (``"rows"`` or ``"tuples"``), ``limit`` its
    configured ceiling and ``used`` the amount that tripped it.
    """

    def __init__(self, kind: str, limit: int, used: int):
        self.kind = kind
        self.limit = limit
        self.used = used
        super().__init__(
            f"query exceeded its {kind} budget: {used} > {limit} allowed"
        )


class TransientFault(ResilienceError):
    """A transient failure that may succeed on retry (I/O hiccup, injected fault).

    ``site`` names where the fault surfaced (see
    :mod:`repro.resilience.faults` for the site vocabulary).
    """

    def __init__(self, site: str, message: str | None = None):
        self.site = site
        super().__init__(message or f"transient fault at {site!r}")


class Overloaded(ResilienceError):
    """The serving layer shed this request instead of admitting it.

    ``reason`` says which admission check tripped: ``"queue-full"`` (the
    bounded request queue is at capacity), ``"tenant-quota"`` (the tenant's
    in-flight allowance is spent; ``session`` names the tenant) or
    ``"shutting-down"`` (the server is draining and admits nothing new).
    ``limit`` carries the configured ceiling where one applies, and
    ``retry_after`` — when the shedder can estimate one — is the pause, in
    seconds, after which a retry has a realistic chance of being admitted.
    Clients should honor the hint instead of blind backoff: it is derived
    from observed service times and the current backlog, so a fleet that
    obeys it re-arrives spread out rather than as a synchronized storm.
    """

    def __init__(
        self,
        reason: str,
        limit: int | None = None,
        session: str | None = None,
        retry_after: float | None = None,
    ):
        self.reason = reason
        self.limit = limit
        self.session = session
        self.retry_after = retry_after
        detail = f" (limit {limit})" if limit is not None else ""
        who = f" for session {session!r}" if session is not None else ""
        hint = f"; retry after {retry_after:.3f}s" if retry_after is not None else ""
        super().__init__(f"request shed: {reason}{who}{detail}{hint}")


class NetworkFault(TransientFault):
    """A network-boundary failure: dropped connection, torn frame, stalled read.

    Raised by the serving front end (:mod:`repro.serve.net`) and the client
    SDK when the transport — not the query — fails: the connection dropped
    mid-frame, a read stalled past its deadline, or a frame arrived torn.
    ``site`` carries the ``net.*`` fault site where the failure surfaced,
    so chaos reports can attribute it.  Subclasses :exc:`TransientFault`
    because the failure is retryable by construction: the request may be
    resent on a fresh connection (subject to the client's retry budget).
    """


class DurabilityError(ResilienceError):
    """A durability-critical I/O primitive (write, fsync, rename) failed.

    After one of these the affected writer must **fail-stop**: a failed
    fsync may have silently dropped the dirty pages it was asked to persist
    (the "fsyncgate" semantics), so retrying on the same handle could
    acknowledge data that never reaches disk.  ``op`` names the primitive
    that failed and ``path`` the file it was applied to; the original
    ``OSError`` rides along as ``__cause__``.
    """

    def __init__(self, op: str, path: str | None = None, detail: str | None = None):
        self.op = op
        self.path = path
        location = f" on {path!r}" if path is not None else ""
        extra = f": {detail}" if detail else ""
        super().__init__(f"durability {op} failed{location}{extra}")


class WALPoisoned(DurabilityError):
    """The write-ahead log fail-stopped after a durability failure.

    Once an append's write or fsync fails the log's on-disk tail is
    unknowable, so the handle is poisoned: every later append (and reset)
    raises this error instead of acknowledging writes that may never be
    durable.  Recovery is a fresh :meth:`~repro.serve.wal.PreferenceWAL.open`,
    which re-scans the file and truncates whatever the failed append left.
    """

    def __init__(self, path: str | None, reason: str):
        self.reason = reason
        super().__init__("append", path, f"log is poisoned ({reason})")


class PowerCut(ResilienceError):
    """A simulated power failure injected by the faulty VFS.

    Raised at the exact injection instant by
    :class:`repro.resilience.vfs.FaultyVFS`; the crash-torture harness
    catches it, drops all unsynced buffered state
    (:meth:`~repro.resilience.vfs.FaultyVFS.power_cut`), and verifies
    recovery.  Never raised in production configurations.
    """

    def __init__(self, op: str, path: str | None = None):
        self.op = op
        self.path = path
        where = f" during {op}" + (f" of {path!r}" if path else "")
        super().__init__(f"simulated power failure{where}")


class DataCorruption(ResilienceError):
    """Persisted data failed an integrity check.

    ``path`` and ``line`` pinpoint the corrupt file location when the error
    comes from :func:`repro.engine.persist.load_database`; both are ``None``
    for other integrity failures (e.g. a malformed WAL record).
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        location = ""
        if path is not None:
            location = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + location)


class ParseError(ReproError):
    """The SQL dialect parser rejected the input text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + location)
        self.line = line
        self.column = column
