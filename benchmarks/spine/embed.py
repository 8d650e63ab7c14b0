"""The embedded workloads: ``Session.execute`` on an in-process database.

``embed_join`` is the paper's IMDB-1 shape (5-way join, |λ|=3, TOP 10):
compile, optimize and the native join/project do nearly all the work.
``embed_prefs`` is its mirror image (2-way join, |λ|=24 from a pool of 48):
preference scoring does nearly all the work.  Both interleave bursts of
writes (row inserts that bump ``db.version`` plus one re-registered
preference), so a read-side memo pays for its invalidation here.
"""

from __future__ import annotations

import gc
import random

from repro.query.session import Session
from repro.serve.net.protocol import triples_digest
from repro.workloads.imdb import GENRE_NAMES, ROLE_NAMES, ImdbConfig, generate_imdb

from .layers import (
    BASELINED,
    DATA_SEED,
    ENGINE_STAGES,
    REPLAYED,
    EngineSplit,
    Medians,
    baselines,
    pref_from_spec,
    staged_engine,
)

#: IMDB generator scale of both embedded workloads (≈6.3k MOVIES, 52k CAST).
SCALE = 0.004
#: After every BURST queries, a burst of BURST writes.
BURST = 20
#: Queries, and as many writes, per second of ``--seconds``.
RATE = 12
#: Movies one write op inserts (each with 2 GENRES and 3 CAST rows).  One
#: movie takes ~50 µs, too little for a steady p90; the first write after a
#: query runs cold, so bursts are long enough to keep those under 10 %.
MOVIES_PER_WRITE = 5
#: ``year >=`` cut-offs, each on exactly a fifth of the queries: five cost
#: groups, so p50 sits inside the third and p90 inside the fifth, never on a
#: boundary between two.
CUTOFFS = {"embed_join": (2003, 2004, 2005, 2006, 2007),
           "embed_prefs": (2000, 2002, 2004, 2006, 2008)}
#: Sampled queries whose answers are compared with ``strategy="reference"``.
CHECKED = 10
POOL = 48
LAMBDA = 24
#: The workloads' modes, checked on every traced pass: the share of execute
#: self time spent in prefer scoring, and how far the staged replay's stages
#: may be from adding up to the untraced ``Session.execute``.
PREFER_SHARE = {"embed_join": (0.0, 0.20), "embed_prefs": (0.60, 1.0)}
UNATTRIBUTED = 0.30


class Embedded:
    """One embedded workload: op list, set-up, timed op, traced replay."""

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        self.name = name
        self.seed = seed
        rng = random.Random(f"{name}/{seed}")
        config = ImdbConfig(scale=SCALE, seed=DATA_SEED)
        self._sizes = {t: config.size(t) for t in ("MOVIES", "DIRECTORS", "ACTORS")}
        self.initial_prefs = self._initial_prefs(rng)
        self.ops = self._build_ops(rng, max(BURST, round(RATE * seconds)))
        picks = random.Random(f"checks/{name}/{seed}")
        query_ops = [i for i, op in enumerate(self.ops) if op[0] == "query"]
        self.checked = set(picks.sample(query_ops, min(CHECKED, len(query_ops))))
        self.session: Session | None = None
        self.failures: list[str] = []

    # -- the op list: a pure function of (name, seed, seconds) ------------------

    def _initial_prefs(self, rng) -> list[dict]:
        if self.name == "embed_join":
            return [self._join_pref(rng, slot) for slot in range(3)]
        return [self._pool_pref(rng, slot) for slot in range(POOL)]

    def _join_pref(self, rng, slot: int) -> dict:
        rel, attr, top = (
            ("GENRES", "genre", None),
            ("DIRECTORS", "d_id", self._sizes["DIRECTORS"]),
            ("ACTORS", "a_id", self._sizes["ACTORS"]),
        )[slot]
        # Low ids are the zipf-hot directors/actors, so preferences match rows.
        value = rng.choice(GENRE_NAMES[:8]) if top is None else rng.randint(1, min(top, 20))
        return {
            "name": f"p{slot + 1}",
            "rel": rel,
            "cond": ["eq", attr, value],
            "score": round(rng.uniform(0.5, 1.0), 4),
            "conf": round(rng.uniform(0.6, 1.0), 4),
        }

    def _pool_pref(self, rng, slot: int) -> dict:
        # Mostly range conditions scored by an expression: the kinds the
        # batch scorer can neither dispatch on a key nor memoize, so scoring
        # (not the join) carries the workload.  Thresholds come from a fixed
        # ladder (the slot picks the rung), so every seed's pool matches the
        # same share of MOVIES; scores and confidences are the seed's.
        kind = ("eq", "ge", "ge", "in", "ge", "ge", "dur", "ge")[slot % 8]
        rung = (slot * 7) % POOL
        if kind == "eq":
            rel, cond, score = "GENRES", ["eq", "genre", GENRE_NAMES[rung % 12]], None
        elif kind == "in":
            years = [1951 + (rung + step * 13) % 60 for step in range(4)]
            rel, cond, score = "MOVIES", ["in", "year", sorted(years)], None
        elif kind == "dur":
            rel, cond, score = "MOVIES", ["ge", "duration", 70 + rung * 80 // POOL], "around"
        else:
            rel, cond, score = "MOVIES", ["ge", "year", 1980 + rung * 24 // POOL], "recency"
        if score is None:
            score = round(rng.uniform(0.3, 0.95), 4)
        return {
            "name": f"q{slot}",
            "rel": rel,
            "cond": cond,
            "score": score,
            "conf": round(rng.uniform(0.5, 0.95), 4),
        }

    def _query_sql(self, rng, cutoff: int) -> str:
        if self.name == "embed_join":
            return (
                "SELECT title, director FROM MOVIES NATURAL JOIN GENRES "
                "NATURAL JOIN DIRECTORS NATURAL JOIN CAST NATURAL JOIN ACTORS "
                f"WHERE year >= {cutoff} PREFERRING p1, p2, p3 TOP 10 BY score"
            )
        names = sorted(rng.sample(range(POOL), LAMBDA))
        return (
            "SELECT title, genre FROM MOVIES NATURAL JOIN GENRES "
            f"WHERE year >= {cutoff} PREFERRING "
            + ", ".join(f"q{n}" for n in names)
            + " TOP 10 BY score"
        )

    def _write(self, rng, number: int) -> tuple:
        rows: list[list] = []
        for offset in range(MOVIES_PER_WRITE):
            m_id = self._sizes["MOVIES"] + 1 + number * MOVIES_PER_WRITE + offset
            rows.append(["MOVIES", [
                m_id,
                f"Spine Movie {m_id}",
                rng.randint(1950, 2011),
                rng.randint(80, 160),
                rng.randint(1, self._sizes["DIRECTORS"]),
            ]])
            rows.extend(["GENRES", [m_id, g]] for g in rng.sample(GENRE_NAMES, 2))
            rows.extend(
                ["CAST", [m_id, a_id, rng.choice(ROLE_NAMES)]]
                for a_id in rng.sample(range(1, self._sizes["ACTORS"] + 1), 3)
            )
        if self.name == "embed_join":
            pref = self._join_pref(rng, number % 3)
        else:
            pref = self._pool_pref(rng, (number * 7) % POOL)
        return ("write", rows, pref)

    def _build_ops(self, rng, queries: int) -> list[tuple]:
        # The same multiset of cut-offs under every seed; the seed orders it.
        values = CUTOFFS[self.name]
        cutoffs = [values[i % len(values)] for i in range(queries)]
        rng.shuffle(cutoffs)
        ops: list[tuple] = []
        for index, cutoff in enumerate(cutoffs):
            ops.append(("query", self._query_sql(rng, cutoff)))
            if (index + 1) % BURST == 0:
                ops.extend(self._write(rng, index + 1 - BURST + n) for n in range(BURST))
        return ops

    # -- set-up ------------------------------------------------------------------

    def setup(self) -> None:
        db = generate_imdb(scale=SCALE, seed=DATA_SEED)
        self.session = Session(db)
        for spec in self.initial_prefs:
            self.session.register(pref_from_spec(spec))
        for op in [op for op in self.ops if op[0] == "query"][:3]:
            self.session.rows(op[1])

    def teardown(self) -> None:
        self.session = None

    def timed_started(self) -> None:
        pass

    def timed_ended(self) -> None:
        pass

    # -- the timed op ------------------------------------------------------------

    def execute(self, op: tuple):
        session = self.session
        if op[0] == "query":
            return session.rows(op[1])
        _, rows, pref = op
        db = session.db
        for table, row in rows:
            db.insert(table, row)
        session.unregister(pref["name"])
        session.register(pref_from_spec(pref))
        return None

    def verify(self, index: int, op: tuple, answer) -> bool:
        """Compare a sampled timed answer with the reference strategy;
        True when the comparison ran (the caller owes the clock a sample)."""
        if index not in self.checked:
            return False
        expected = self.session.rows(op[1], strategy="reference")
        if _digest(answer) != _digest(expected):
            self.failures.append(f"op {index}: answer differs from reference")
        return True

    # -- after the timed phase ---------------------------------------------------

    def finish(self, clock, recorder) -> tuple[dict, dict]:
        """Per-layer metrics of the traced replay (none without recorder)."""
        if recorder is None:
            return {}, {}
        return _Replay(self, clock, recorder).run()


def _digest(rows) -> str:
    """Digest of ``Session.rows`` output, at the wire protocol's rounding."""
    return triples_digest(
        [
            (list(row[:-2]), None if row[-2] is None else round(row[-2], 9), round(row[-1], 9))
            for row in rows
        ]
    )


class _Replay:
    """Replays sampled ops step by step through the layers' public calls."""

    def __init__(self, workload: Embedded, clock, recorder) -> None:
        self.w = workload
        self.session = workload.session
        self.clock = clock
        self.rec = recorder
        picks = random.Random(f"replay/{workload.name}/{workload.seed}")
        queries = [op for op in workload.ops if op[0] == "query"]
        writes = [op for op in workload.ops if op[0] == "write"]
        self.queries = picks.sample(queries, min(REPLAYED, len(queries)))
        self.writes = picks.sample(writes, min(REPLAYED, len(writes)))
        self.split = EngineSplit()

    def run(self) -> tuple[dict, dict]:
        for request, op in enumerate(self.queries):
            self._query(request, op[1])
            self.clock.sample()
        for request, op in enumerate(self.writes, start=len(self.queries)):
            self._write(request, op)
        self.clock.sample()
        median = Medians(self.rec, self.clock)
        sample = [(self.session, op[1]) for op in self.queries[:BASELINED]]
        metrics = baselines(self.rec, median, sample)
        self.clock.sample(2)
        metrics.update(self._metrics(median))
        return metrics, {
            "replayed_queries": len(self.queries),
            "replayed_writes": len(self.writes),
            "recording_ms_per_query": median.self_ms("staged.query"),
        }

    def _query(self, request: int, sql: str) -> None:
        rec, session = self.rec, self.session
        # Each measurement starts from a collected heap, so none pays for
        # the span trees the previous traced execution left behind.
        gc.collect()
        with rec.span("e2e.query", request):
            expected = session.rows(sql)
        gc.collect()
        with rec.span("staged.query", request):
            with rec.span("query.compile"):
                compiled = session.compile(sql)
            shown = staged_engine(rec, session, compiled)
        staged = [row + (s, c) for row, s, c in shown.triples()]
        if _digest(staged) != _digest(expected):
            self.w.failures.append(f"replay {request}: staged answer differs from execute()")
        gc.collect()
        self.split.traced_execute(rec, request, session, sql)

    def _write(self, request: int, op: tuple) -> None:
        # Replayed under fresh keys: the timed phase already inserted these.
        _, rows, pref = op
        rec, session = self.rec, self.session
        with rec.span("staged.write", request):
            for table, row in rows:
                with rec.span("engine.insert"):
                    session.db.insert(table, [row[0] + 1_000_000] + row[1:])
            with rec.span("query.register"):
                session.unregister(pref["name"])
                session.register(pref_from_spec(pref))

    def _metrics(self, median: Medians) -> dict:
        stages = ("query.compile",) + ENGINE_STAGES
        metrics = {f"{stage}_ms": median(stage) for stage in stages}
        unattributed = median.paired(stages, ["e2e.query"], lambda s, e: (e - s) / e)
        metrics.update(self.split.metrics(median.raw_scale()))
        share = metrics["pexec.prefer_share"]
        low, high = PREFER_SHARE[self.w.name]
        if not low <= share <= high:
            self.w.failures.append(
                f"prefer scoring is {share:.2f} of execute, outside [{low}, {high}]"
            )
        if abs(unattributed) > UNATTRIBUTED:
            self.w.failures.append(
                f"the stages miss execute()'s time by {unattributed:+.2f} of it"
            )
        metrics.update(
            {
                "engine.insert_ms": median("engine.insert"),
                "query.register_ms": median("query.register"),
                "obs.trace_overhead_ratio": median.paired(
                    ["obs.traced_execute"], ["e2e.query"], lambda t, e: t / e
                ),
                "trace.query_e2e_ms": median("e2e.query"),
                "trace.unattributed_ratio": unattributed,
            }
        )
        return metrics
