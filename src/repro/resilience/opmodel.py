"""One seeded op model under every fault harness.

Concurrent chaos (:mod:`repro.resilience.chaos_concurrent`), network chaos
(:mod:`repro.serve.net.chaos`) and crash-torture
(:mod:`repro.resilience.crashtest`) are drivers over this module.  They
differ only in how the same ops reach a server (threads through a
:class:`~repro.serve.executor.ServeExecutor`, a faulted wire, crash points)
and share everything else:

* **Writes** — :func:`op_stream`, an endless, seeded, always-valid stream
  of preference add, remove and clear, row insert and checkpoint ops over
  the named :data:`POOL`, and :func:`apply_op`, which applies one op to a
  :class:`~repro.serve.server.PreferenceServer` or, through the same four
  write methods, a :class:`~repro.serve.net.client.PreferenceClient`.
* **Reads** — :func:`read_sql` is ``cache.service.DEFAULT_SQL`` over the
  captured snapshot's preference names, and :func:`judge_read` is the one
  read verdict: the answer's wire digest equals the digest of ``reference``
  evaluated on the same snapshot, or the read fails with an allowed typed
  error.
* **Recovery** — :func:`verify_recovery` is the one recovery verdict:
  ``digest(recovered) ∈ {oracle[acked], …, oracle[issued]}`` (see
  :func:`oracle_digests`) and the recovered WAL's LSN counts the records
  that prefix appended.
* **Report** — :class:`Report`: judged cells, errors and counts; ``ok``
  means no error and no failing cell, whichever harness made it.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import count
from typing import Iterator, Sequence

from ..cache.service import DEFAULT_SQL
from ..core.preference import Preference
from ..core.scoring import recency_score
from ..engine.database import Database
from ..engine.expressions import cmp, eq
from ..engine.types import DataType
from ..serve.net.protocol import triples_digest, wire_triples
from ..serve.server import PreferenceServer

GENRES = ("Comedy", "Drama", "Action", "Thriller")


def _pool() -> dict[str, Preference]:
    prefs = [
        Preference(f"g_{genre.lower()}", "GENRES", eq("genre", genre), 0.8, 0.9)
        for genre in GENRES
    ]
    prefs += [
        Preference(f"d_{d_id}", "DIRECTORS", eq("d_id", d_id), 0.9, 0.8)
        for d_id in (1, 2, 3, 5, 8)
    ]
    prefs += [
        Preference(
            f"y_{year}", "MOVIES", cmp("year", ">=", year), recency_score("year", 2011), 0.7
        )
        for year in (1990, 2000, 2005)
    ]
    return {p.name: p for p in prefs}


#: The named, WAL-loggable preferences every op stream adds and removes.
POOL = _pool()


def base_db() -> Database:
    """The small seed database crash-torture runs start from (IMDB-shaped)."""
    db = Database()
    db.create_table(
        "MOVIES",
        [
            ("m_id", DataType.INT),
            ("title", DataType.TEXT),
            ("year", DataType.INT),
            ("duration", DataType.INT),
            ("d_id", DataType.INT),
        ],
        primary_key=["m_id"],
    )
    db.create_table(
        "GENRES",
        [("m_id", DataType.INT), ("genre", DataType.TEXT)],
        primary_key=["m_id", "genre"],
    )
    db.insert_many("MOVIES", [(1, "seed one", 1999, 100, 1), (2, "seed two", 2004, 110, 2)])
    return db


def op_stream(
    seed: int, users: Sequence[str], first_key: int = 10_000_000
) -> Iterator[tuple]:
    """An endless, seeded stream of always-valid ops over *users*.

    The stream tracks which pool names each user holds, so every
    ``pref.add`` is new, every ``pref.remove``/``pref.clear`` removes
    something, and every ``row.insert`` uses a fresh key above
    *first_key* (above every generated IMDB key by default): a MOVIES row,
    then that movie's GENRES row.  Each op thus
    both mutates state and appends exactly one WAL record (``checkpoint``
    appends none), which lets the recovery verdict equate op index and
    oracle prefix.  Streams over disjoint users and key ranges never
    conflict, so concurrent writers may each own one.
    """
    rng = random.Random(seed)
    active: dict[str, set[str]] = {user: set() for user in users}
    key = first_key
    untagged = None  # a movie whose GENRES row is still to come
    for index in count():
        user = users[index % len(users)]
        roll = rng.random()
        if roll < 0.40:
            candidates = [name for name in POOL if name not in active[user]]
            if candidates:
                name = rng.choice(candidates)
                active[user].add(name)
                yield ("pref.add", user, name)
                continue
            roll = 0.9  # pool exhausted for this user: insert instead
        if roll < 0.55 and active[user]:
            name = rng.choice(sorted(active[user]))
            active[user].remove(name)
            yield ("pref.remove", user, name)
        elif roll < 0.62 and active[user]:
            active[user].clear()
            yield ("pref.clear", user)
        elif roll < 0.70 and index > 0:
            yield ("checkpoint",)
        elif untagged is not None:
            yield ("row.insert", "GENRES", (untagged, rng.choice(GENRES)))
            untagged = None
        else:
            key += 1
            untagged = key
            year = 1980 + rng.randrange(30)
            yield ("row.insert", "MOVIES", (key, f"movie {key}", year, 100, 1))


def apply_op(target, op: tuple) -> None:
    """Apply one op to a live server or, over the wire, to a client."""
    kind = op[0]
    if kind == "pref.add":
        target.add_preference(op[1], POOL[op[2]])
    elif kind == "pref.remove":
        target.remove_preference(op[1], op[2])
    elif kind == "pref.clear":
        target.clear_preferences(op[1])
    elif kind == "row.insert":
        target.insert(op[1], op[2])
    elif kind == "checkpoint":
        # Only a durable server has a directory to checkpoint into; the
        # oracle is ephemeral and the wire has no checkpoint op.
        if getattr(target, "directory", None) is not None:
            target.checkpoint()
    else:  # pragma: no cover - op_stream and apply_op move together
        raise ValueError(f"unknown op {kind!r}")


def advance(server, stream: Iterator[tuple], users: Sequence[str]) -> None:
    """Apply *stream*'s next op to *server*, then more until every one of
    *users* holds a preference, so a read for any of them has a query."""
    apply_op(server, next(stream))
    while not all(server.store.preferences_of(user) for user in users):
        apply_op(server, next(stream))


def oracle_digests(ops: Sequence[tuple], initial: Database) -> list[str]:
    """``oracle[i]`` = state digest after the first *i* ops on *initial*.

    The ops run on an ephemeral server that takes *initial* over, so pass
    a database nothing else holds.
    """
    oracle = PreferenceServer(initial)
    digests = [oracle.state_digest()]
    for op in ops:
        apply_op(oracle, op)
        digests.append(oracle.state_digest())
    return digests


def verify_recovery(
    directory: str,
    ops: Sequence[tuple],
    digests: list[str],
    acked: int,
    issued: int,
    initial: Database | None = None,
) -> str | None:
    """Reopen *directory*; None when it recovered a verified prefix.

    ``acked`` counts ops whose call returned; ``issued`` also counts the
    op in flight at the crash.  Recovery must land on the oracle state of
    some prefix between the two, and the WAL's LSN must count the records
    that prefix appended, so a restarted server never reissues an LSN.
    *initial* is what ``open`` adopts when no checkpoint survived.
    """
    try:
        recovered, _ = PreferenceServer.open(directory, initial=initial, sync=True)
    except Exception as err:  # noqa: BLE001 - any exception is a failed recovery
        return f"recovery raised {type(err).__name__}: {err}"
    try:
        digest = recovered.state_digest()
        lsn = recovered.wal.lsn
    finally:
        recovered.close()
    issued = min(issued, len(digests) - 1)
    prefixes = [p for p in range(acked, issued + 1) if digests[p] == digest]
    if prefixes:
        expected = {sum(op[0] != "checkpoint" for op in ops[:p]) for p in prefixes}
        if lsn not in expected:
            return (
                f"recovered LSN {lsn}, but prefix {prefixes} "
                f"appended {sorted(expected)} records"
            )
        return None
    # Below acked is a lost acknowledged op; beyond issued, invented state.
    prefix = digests.index(digest) if digest in digests else "none"
    return f"recovered oracle prefix {prefix}, not one of acked..issued = {acked}..{issued}"


# ---------------------------------------------------------------------------
# Reads and the report
# ---------------------------------------------------------------------------


def read_sql(snapshot, user: str) -> str | None:
    """The read for *user* on *snapshot*; None when the user prefers nothing."""
    names = sorted(p.name for p in snapshot.store.preferences_of(user))
    return DEFAULT_SQL.format(names=", ".join(names)) if names else None


def answer_digest(result) -> str:
    """The wire digest of a query result (scores rounded as on the wire)."""
    return triples_digest(wire_triples(result))


@dataclass
class Cell:
    """One judged read: what ran (a strategy or a fault), for whom, verdict."""

    label: str
    user: str
    outcome: str = ""
    ok: bool = False
    detail: str = ""


def judge_read(cell: Cell, read, typed: tuple) -> None:
    """Run ``read() -> (answer digest, oracle digest)`` and judge *cell*.

    The read is exact when the digests agree; a *typed* error is within
    contract; anything else, a wrong answer or another exception, fails.
    """
    try:
        answer, oracle = read()
    except typed as err:
        cell.outcome, cell.ok, cell.detail = f"typed-{type(err).__name__}", True, str(err)
        return
    except Exception as err:  # noqa: BLE001 - an unexplained escape is the bug hunted
        cell.outcome, cell.ok, cell.detail = f"error-{type(err).__name__}", False, repr(err)
        return
    if answer == oracle:
        cell.outcome, cell.ok = "exact", True
    else:
        cell.outcome, cell.ok = "silent-mismatch", False
        cell.detail = f"answer {answer[:12]} != oracle {oracle[:12]} on the same snapshot"


@dataclass
class Report:
    """What one harness run observed: judged cells, errors and counts.

    ``checked`` names the counts the summary line reports beside the cells:
    a harness that checks something other than cells (crash points, kill
    rounds) says there how much it checked.
    """

    name: str
    setup: str
    cells: list[Cell] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    checked: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors and all(cell.ok for cell in self.cells)

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def describe(self) -> str:
        lines = [f"{self.name}: {self.setup}"]
        tally = Counter(f"{cell.label} → {cell.outcome}" for cell in self.cells)
        lines += [f"  {key:<40} {tally[key]}" for key in sorted(tally)]
        lines += [f"  {key}: {self.counts[key]}" for key in sorted(self.counts)]
        lines += [
            f"  FAIL cell#{index} {cell.label} user={cell.user}: "
            f"{cell.outcome} — {cell.detail}"
            for index, cell in enumerate(self.cells)
            if not cell.ok
        ]
        lines += [f"  ERROR {error}" for error in self.errors[:20]]
        if len(self.errors) > 20:
            lines.append(f"  ... and {len(self.errors) - 20} more")
        good = sum(cell.ok for cell in self.cells)
        checked = "".join(f"{self.counts.get(key, 0)} {key}, " for key in self.checked)
        lines.append(
            f"{self.name}: {good}/{len(self.cells)} cells ok, {checked}"
            f"{len(self.errors)} errors — " + ("OK" if self.ok else "FAILED")
        )
        return "\n".join(lines)
