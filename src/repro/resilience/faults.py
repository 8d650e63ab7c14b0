"""Deterministic fault injection for network chaos testing.

A :class:`FaultPlan` is a seeded schedule of failures the network front end
volunteers to suffer: :class:`~repro.serve.net.server.NetServer` asks its
``fault_factory`` for one plan per connection, visits the plan at each
instrumented *site*, and the plan decides — reproducibly, from its seed —
whether to raise a :exc:`~repro.errors.TransientFault`, inject latency, or
tear a frame.  The network chaos suite (:mod:`repro.serve.net.chaos`)
asserts every client call under such a plan either returns the reference
answer or fails typed.

Fault injection lives only at the wire.  The query engine has no fault
sites: a site stays only where it guards a hazard that exists without the
injector (a dropped connection, a stalled read, a torn frame).

Instrumented sites:

======================  ======================================================
``net.accept``          The network front end accepting one connection
                        (:mod:`repro.serve.net`): ``transient`` drops the
                        connection before any frame is served.
``net.read``            One inbound frame read: ``transient`` drops the
                        connection mid-request, ``latency`` stalls the read,
                        ``corrupt`` tears the inbound frame.
``net.write``           One outbound frame write: ``transient`` drops the
                        connection before the response, ``latency`` stalls
                        it, ``corrupt`` sends a torn (truncated) frame and
                        then drops the connection.
``net.close``           Connection teardown: ``transient`` skips the
                        graceful close (abrupt reset instead of FIN).
======================  ======================================================

Site patterns may end in ``*`` to match a prefix (``net.*``).  A connection
without a plan is served under :data:`NULL_FAULTS`, a no-op.  A misspelled
site, in a plan or at a call site, never fires: the network chaos run
records each plan's injections and fails a faulted cell that injected
nothing.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from ..errors import TransientFault

KINDS = ("transient", "latency", "corrupt")

@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: where, what, how often.

    ``site`` is an exact site name or a ``prefix*`` pattern.  ``times``
    bounds how many injections the rule performs over the plan's lifetime
    (``None`` = unbounded); ``after`` skips the first N matching hits;
    ``probability`` gates each eligible hit through the plan's seeded RNG.
    ``delay`` is the sleep, in seconds, for ``latency`` faults.
    """

    site: str
    kind: str = "transient"
    probability: float = 1.0
    times: int | None = 1
    after: int = 0
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose {KINDS}")

    def matches(self, site: str) -> bool:
        if self.site.endswith("*"):
            return site.startswith(self.site[:-1])
        return site == self.site


@dataclass
class Injection:
    """Record of one performed injection (for reports and assertions)."""

    site: str
    kind: str
    spec: FaultSpec
    hit: int


class FaultPlan:
    """A seeded, deterministic schedule of fault injections.

    The same ``(specs, seed)`` pair always injects at the same hits — the
    RNG is consulted only for rules with ``probability < 1`` and draws in
    site-call order, which is itself deterministic for a given connection.
    """

    def __init__(self, specs=(), seed: int = 0, sleep=time.sleep):
        self.specs: list[FaultSpec] = list(specs)
        self.seed = seed
        self._rng = random.Random(seed)
        self._sleep = sleep
        self._hits: dict[int, int] = {}
        self._fired: dict[int, int] = {}
        self.injections: list[Injection] = []

    # -- construction helpers --------------------------------------------------

    @classmethod
    def transient(cls, site: str, times: int | None = 1, seed: int = 0, **kw) -> "FaultPlan":
        return cls([FaultSpec(site, "transient", times=times, **kw)], seed=seed)

    @classmethod
    def latency(cls, site: str, delay: float, times: int | None = 1, seed: int = 0, **kw) -> "FaultPlan":
        return cls([FaultSpec(site, "latency", delay=delay, times=times, **kw)], seed=seed)

    @classmethod
    def corrupting(cls, site: str, times: int | None = 1, seed: int = 0, **kw) -> "FaultPlan":
        return cls([FaultSpec(site, "corrupt", times=times, **kw)], seed=seed)

    # -- the injection protocol ------------------------------------------------

    def at(self, site: str) -> None:
        """Visit *site*: may sleep (latency) or raise :exc:`TransientFault`."""
        for index, spec in enumerate(self.specs):
            if spec.kind == "corrupt" or not spec.matches(site):
                continue
            if not self._eligible(index, spec):
                continue
            self._record(site, spec, index)
            if spec.kind == "latency":
                self._sleep(spec.delay)
            else:
                raise TransientFault(site)

    def corrupts(self, site: str) -> bool:
        """True when a ``corrupt`` rule fires for this visit of *site*."""
        for index, spec in enumerate(self.specs):
            if spec.kind != "corrupt" or not spec.matches(site):
                continue
            if not self._eligible(index, spec):
                continue
            self._record(site, spec, index)
            return True
        return False

    def pick(self, n: int) -> int:
        """Deterministic index choice in ``[0, n)`` (used to pick a frame cut)."""
        return self._rng.randrange(n) if n > 0 else 0

    # -- bookkeeping -----------------------------------------------------------

    def _eligible(self, index: int, spec: FaultSpec) -> bool:
        hit = self._hits.get(index, 0)
        self._hits[index] = hit + 1
        if hit < spec.after:
            return False
        fired = self._fired.get(index, 0)
        if spec.times is not None and fired >= spec.times:
            return False
        if spec.probability < 1.0 and self._rng.random() >= spec.probability:
            return False
        return True

    def _record(self, site: str, spec: FaultSpec, index: int) -> None:
        self._fired[index] = self._fired.get(index, 0) + 1
        self.injections.append(Injection(site, spec.kind, spec, self._hits[index]))

    def reset(self) -> None:
        """Rewind the plan to its initial state (same seed, zero hits)."""
        self._rng = random.Random(self.seed)
        self._hits = {}
        self._fired = {}
        self.injections = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rules = ", ".join(f"{s.kind}@{s.site}" for s in self.specs)
        return f"FaultPlan(seed={self.seed}, [{rules}])"


class _NullFaults:
    """The plan of an unfaulted connection: every visit is a no-op."""

    __slots__ = ()

    def at(self, site: str) -> None:
        pass

    def corrupts(self, site: str) -> bool:
        return False


NULL_FAULTS = _NullFaults()
