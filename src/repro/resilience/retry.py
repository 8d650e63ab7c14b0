"""Client-side retry: exponential backoff and retry budgets.

Both pieces are deterministic (seeded jitter, injectable sleep) so the test
suite can exercise backoff schedules without sleeping.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field


@dataclass
class RetryPolicy:
    """Exponential backoff for shed or failed requests.

    ``attempts`` is the total number of tries per request (1 = no retry);
    the pause before retry *k* (1-based) is
    ``min(base_delay * multiplier**(k-1), max_delay)``.  ``jitter`` spreads
    that pause uniformly over ``[(1-jitter)·d, (1+jitter)·d]`` through a
    seeded RNG, so a fleet of clients that failed together does not retry
    in lockstep (the synchronized re-arrival that turns one overload blip
    into a standing retry storm).  ``sleep`` is injectable; tests pass a
    no-op.
    """

    attempts: int = 3
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.0
    seed: int = 0
    sleep: object = time.sleep
    _rng: random.Random = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")
        self._rng = random.Random(self.seed)

    def jittered(self, delay: float) -> float:
        """Spread *delay* over ``[(1-jitter)·d, (1+jitter)·d]`` (seeded RNG).

        Also applied by clients to server-supplied ``retry_after`` hints, so
        a fleet shed at the same instant with the same hint still re-arrives
        spread out.
        """
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return delay

    def backoff(self, attempt: int) -> float:
        """Pause, in seconds, after failed attempt number *attempt* (1-based)."""
        return self.jittered(
            min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        )


class RetryBudget:
    """A token bucket that bounds how much of a client's traffic is retries.

    Blind per-request retry policies multiply load exactly when the server
    can least afford it: every shed request comes back ``attempts`` times,
    so a brief overload becomes a standing retry storm.  A budget caps the
    *ratio* instead: each retry spends one token, each success earns back
    ``refill`` tokens (capped at ``capacity``), so sustained failure drains
    the bucket and retries stop — the client fails fast and sheds load —
    while occasional blips retry freely.  With ``refill=0.1`` at most ~10%
    of steady-state traffic can be retries.

    Thread-safe: one budget is meant to be shared by all of a process's
    client connections, since the storm it prevents is per-process, not
    per-connection.
    """

    def __init__(self, capacity: float = 10.0, refill: float = 0.1):
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        if refill < 0:
            raise ValueError("refill must be >= 0")
        self.capacity = capacity
        self.refill = refill
        self._tokens = capacity
        self._lock = threading.Lock()
        self.spent = 0
        self.denied = 0

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens

    def try_spend(self) -> bool:
        """Take one retry token; False means the budget is exhausted."""
        with self._lock:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                self.spent += 1
                return True
            self.denied += 1
            return False

    def record_success(self) -> None:
        """A request succeeded: earn back ``refill`` tokens."""
        with self._lock:
            self._tokens = min(self.capacity, self._tokens + self.refill)
