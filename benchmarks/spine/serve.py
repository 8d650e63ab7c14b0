"""The served workloads: one closed-loop client over loopback TCP.

Both run the same durable server (``PreferenceServer.open`` with
``sync=True``, ``NetServer(workers=2)``, 64 MiB result cache) in this
process and drive it with one ``PreferenceClient`` that verifies reply
digests.  ``serve_hot`` repeats queries, so frame codec, dispatch, snapshot,
compile, key digests and cache lookup are the whole query; ``serve_churn``
writes before every query, so every read is a miss and every write pays WAL
append, fsync and invalidation.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import shutil
import statistics
import tempfile
import types

from repro.cache.service import DEFAULT_SQL
from repro.errors import ReproError
from repro.plan.fingerprint import plan_fingerprint
from repro.resilience.retry import RetryPolicy
from repro.resilience.vfs import RealVFS, use_vfs
from repro.serve.codec import canonical_json, preference_to_dict
from repro.serve.net.client import PreferenceClient
from repro.serve.net.protocol import decode_body, encode_frame, triples_digest, wire_triples
from repro.serve.net.server import NetServer, namespaced, serve_in_thread
from repro.serve.server import PreferenceServer, table_digest
from repro.serve.wal import WAL_FILE, PreferenceWAL
from repro.workloads.imdb import GENRE_NAMES, ImdbConfig, generate_imdb

from .trace import Recorder
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

#: IMDB generator scale of both served workloads (≈3.1k MOVIES, 26k CAST).
SCALE = 0.002
USERS = 80
ARCHETYPES = 20
ZIPF_S = 1.1
WORKERS = 2
CACHE_BYTES = 64 * 1024 * 1024
STRATEGY = "gbu"
#: serve_hot: ops per second of ``--seconds``; every WRITE_EVERY-th is a write.
HOT_RATE = 700
WRITE_EVERY = 50
#: serve_churn: write→query pairs per second of ``--seconds``; every
#: INSERT_EVERY-th write is a row insert into GENRES.
CHURN_RATE = 30
INSERT_EVERY = 20
#: Sampled users whose served answer is compared with the server's oracle.
CHECKED = 25
HIT_FLOOR = 0.97
MISS_CEILING = 0.03


class _CountingVFS(RealVFS):
    def __init__(self) -> None:
        self.fsyncs = 0

    def fsync(self, handle) -> None:
        self.fsyncs += 1
        super().fsync(handle)


class Served:
    """One served workload: op list, set-up, timed op, checks, replay."""

    def __init__(self, name: str, seed: int, seconds: float, scratch: str) -> None:
        self.name = name
        self.seed = seed
        self.scratch = scratch
        rng = random.Random(f"{name}/{seed}")
        config = ImdbConfig(scale=SCALE, seed=DATA_SEED)
        self._movies, self._directors = config.size("MOVIES"), config.size("DIRECTORS")
        order = list(range(USERS))
        rng.shuffle(order)
        #: Users by popularity rank; the seed decides who is hot.
        self.users = [f"u{n:03d}" for n in order]
        self.profiles = {user: self._profile(rng, n) for n, user in zip(order, self.users)}
        weights = [(rank + 1) ** -ZIPF_S for rank in range(USERS)]
        self._draw = lambda count: rng.choices(self.users, weights, k=count)
        self._private: set[str] = set()
        self._inserted = 0
        if name == "serve_hot":
            total = max(WRITE_EVERY, round(HOT_RATE * seconds))
            self.ops = self._hot_ops(rng, total, REPLAYED)
        else:
            pairs = max(INSERT_EVERY, round(CHURN_RATE * seconds))
            self.ops = self._churn_ops(rng, pairs + REPLAYED)
        #: The tail of the op list is the traced pass's replay, not timed.
        self.replay_ops = self._split_replay()
        self.failures: list[str] = []
        self.directory = None
        self.server = self.handle = self.client = None
        self._before = self._after = None

    # -- the op list: a pure function of (name, seed, seconds) ------------------

    def _profile(self, rng, number: int) -> list[dict]:
        archetype = number % ARCHETYPES
        # Same archetype, same conditions; every user's scores differ, so no
        # two users share a cache entry.
        bump = number / 10_000
        return [
            {"name": "g", "rel": "GENRES", "cond": ["eq", "genre", GENRE_NAMES[archetype]],
             "score": round(0.55 + bump, 4), "conf": 0.9},
            {"name": "y", "rel": "MOVIES", "cond": ["ge", "year", 1985 + archetype],
             "score": round(0.45 + bump, 4), "conf": 0.8},
            {"name": "d", "rel": "DIRECTORS",
             "cond": ["eq", "d_id", 1 + (archetype * 3) % self._directors],
             "score": round(0.65 + bump, 4), "conf": 0.7},
        ]

    def _private_write(self, rng, user: str) -> list[tuple]:
        """Toggle *user*'s private preference ``x``: never a failing op."""
        if user in self._private:
            self._private.discard(user)
            return [("remove", user, "x")]
        self._private.add(user)
        spec = {"name": "x", "rel": "GENRES", "cond": ["eq", "genre", rng.choice(GENRE_NAMES)],
                "score": round(rng.uniform(0.05, 0.95), 6), "conf": 0.85}
        return [("add", user, spec)]

    def _hot_ops(self, rng, total: int, replayed: int) -> list[tuple]:
        hot, cold = self.users[: USERS // 2], self.users[USERS // 2:]
        ops: list[tuple] = []
        for index, user in enumerate(self._draw(total)):
            if (index + 1) % WRITE_EVERY == 0:
                ops.extend(self._private_write(rng, rng.choice(cold)))
            else:
                ops.append(("query", user))
        # Replay: queries on users no write ever touches (always hits).
        ops.extend(("query", user) for user in rng.choices(hot, k=replayed))
        for _ in range(replayed):
            ops.extend(self._private_write(rng, rng.choice(cold)))
        return ops

    def _churn_ops(self, rng, pairs: int) -> list[tuple]:
        ops: list[tuple] = []
        writes = 0
        for user in self._draw(pairs):
            writes += 1
            if writes % INSERT_EVERY == 0:
                self._inserted += 1
                row = [self._movies + 10_000 + self._inserted, rng.choice(GENRE_NAMES)]
                ops.append(("insert", "GENRES", row))
            else:
                if user in self._private:
                    ops.extend(self._private_write(rng, user))
                ops.extend(self._private_write(rng, user))
            ops.append(("query", user))
        return ops

    def _split_replay(self) -> list[tuple]:
        if self.name == "serve_hot":
            cut = len(self.ops) - 2 * REPLAYED
        else:
            queries = [i for i, op in enumerate(self.ops) if op[0] == "query"]
            cut = queries[-REPLAYED - 1] + 1
        replay, self.ops = self.ops[cut:], self.ops[:cut]
        return replay

    # -- set-up ------------------------------------------------------------------

    def setup(self) -> None:
        db = generate_imdb(scale=SCALE, seed=DATA_SEED)
        os.makedirs(self.scratch, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="serve-", dir=self.scratch)
        self.server, _ = PreferenceServer.open(self.directory, initial=db, sync=True)
        net = NetServer(self.server, workers=WORKERS, cache_bytes=CACHE_BYTES,
                        default_strategy=STRATEGY)
        self.handle = serve_in_thread(net)
        # One attempt: a shed or failed request is a failed op, not a retry.
        self.client = PreferenceClient(
            "127.0.0.1", self.handle.port, retry=RetryPolicy(attempts=1), verify_digests=True
        )
        for user in self.users:
            for spec in self.profiles[user]:
                self.client.add_preference(user, pref_from_spec(spec))
        self.server.checkpoint()
        # Warm-up until the cache holds every user's answer.
        for user in self.users:
            self.client.query(user)

    def teardown(self) -> None:
        """Release client socket, server threads and the scratch directory."""
        client, handle, server = self.client, self.handle, self.server
        self.client = self.handle = self.server = None
        try:
            if client is not None:
                client.close()
        finally:
            try:
                if handle is not None and handle.thread.is_alive():
                    handle.stop(timeout=20.0)
                elif server is not None:
                    server.close()
            finally:
                if self.directory is not None:
                    shutil.rmtree(self.directory, ignore_errors=True)
                    self.directory = None

    def _counters(self) -> dict:
        stats = self.client.stats()
        return {
            "cache": stats["cache"],
            "shed": stats["shed"],
            "wal_bytes": os.path.getsize(os.path.join(self.directory, WAL_FILE)),
        }

    def timed_started(self) -> None:
        self._before = self._counters()

    def timed_ended(self) -> None:
        self._after = self._counters()

    # -- the timed op ------------------------------------------------------------

    def execute(self, op: tuple):
        kind = op[0]
        if kind == "query":
            return self.client.query(op[1])
        if kind == "add":
            return self.client.add_preference(op[1], pref_from_spec(op[2]))
        if kind == "remove":
            return self.client.remove_preference(op[1], op[2])
        return self.client.insert(op[1], op[2])

    def verify(self, index: int, op: tuple, answer) -> bool:
        """Served answers are checked after the timed phase (see finish)."""
        return False

    # -- after the timed phase ---------------------------------------------------

    def finish(self, clock, recorder) -> tuple[dict, dict]:
        writes = sum(1 for op in self.ops if op[0] != "query")
        counts = self._cache_counts(writes)
        self._check_modes(counts)
        self._check_oracle()
        metrics: dict = {}
        info = {"shed": self._after["shed"] - self._before["shed"]}
        if recorder is not None:
            replay = _Replay(self, clock, recorder)
            metrics = replay.run()
            info.update(replayed_queries=replay.queries, replayed_writes=replay.writes,
                        recording_ms_per_query=replay.recording_ms)
        metrics.update(counts)
        metrics.update(self._check_durability(clock))
        return metrics, info

    def _cache_counts(self, writes: int) -> dict:
        before, after = self._before["cache"], self._after["cache"]
        delta = {key: after[key] - before[key] for key in ("hits", "misses", "evictions", "invalidations")}
        lookups = delta["hits"] + delta["misses"]
        return {
            "cache.hit_ratio": delta["hits"] / lookups,
            "cache.evictions": delta["evictions"],
            "cache.bytes": after["bytes"],
            "cache.invalidations_per_write": delta["invalidations"] / writes,
            "wal.bytes_per_write": (self._after["wal_bytes"] - self._before["wal_bytes"]) / writes,
        }

    def _check_modes(self, counts: dict) -> None:
        ratio = counts["cache.hit_ratio"]
        if self.name == "serve_hot" and ratio < HIT_FLOOR:
            self.failures.append(f"serve_hot hit ratio {ratio:.4f} < {HIT_FLOOR}")
        if self.name == "serve_churn" and ratio > MISS_CEILING:
            self.failures.append(f"serve_churn hit ratio {ratio:.4f} > {MISS_CEILING}")
        if counts["cache.evictions"]:
            self.failures.append(f"{counts['cache.evictions']} cache evictions (working set must fit)")

    def _check_oracle(self) -> None:
        picks = random.Random(f"checks/{self.name}/{self.seed}")
        for user in picks.sample(self.users, min(CHECKED, len(self.users))):
            served = self.client.query(user)
            oracle = self.client.query(user, oracle=True)
            if not served["digest"] == oracle["digest"] == oracle["oracle_digest"]:
                self.failures.append(f"user {user}: served answer differs from the oracle")

    def _check_durability(self, clock) -> dict:
        """Kill the server; reopening must reproduce the acknowledged state."""
        expected = self.server.state_digest()
        self.client.close()
        self.handle.abort()
        started = clock.now()
        reopened, replay = PreferenceServer.open(self.directory, sync=True)
        recovered = clock.now()
        try:
            if reopened.state_digest() != expected:
                self.failures.append("state digest after abort + reopen differs")
            checkpoint_from = clock.now()
            reopened.checkpoint()
            checkpointed = clock.now()
        finally:
            reopened.close()
        clock.sample(3)
        return {
            "serve.recover_ms": clock.calibrated_ms(started, recovered),
            "serve.recover_records": len(replay.records),
            "serve.checkpoint_ms": clock.calibrated_ms(checkpoint_from, checkpointed),
        }


class _Replay:
    """Replays the op list's tail step by step through the layers."""

    def __init__(self, workload: Served, clock, recorder) -> None:
        self.w = workload
        self.clock = clock
        self.rec = recorder
        self.hit_path = workload.name == "serve_hot"
        self.split = EngineSplit()
        self.queries = self.writes = 0
        self.request_bytes: list[int] = []
        self.reply_bytes: list[int] = []
        self._baseline: list[tuple] = []

    def run(self) -> dict:
        w = self.w
        for request, op in enumerate(w.replay_ops):
            if op[0] == "query":
                self.queries += 1
                self._query(request, op[1])
            else:
                self.writes += 1
                with self.rec.span("e2e.write", request):
                    w.execute(op)
            self.clock.sample()
        self._staged_writes()
        median = Medians(self.rec, self.clock)
        metrics = baselines(self.rec, median, self._baseline)
        self.clock.sample(2)
        metrics.update(self._metrics(median))
        self.recording_ms = median.self_ms("staged.query")
        return metrics

    def _query(self, request: int, user: str) -> None:
        if self.hit_path:
            # A hit takes 0.6 ms in the timed loop but twice that right after
            # a calibration sample has emptied the CPU caches: go through the
            # request once unrecorded, then measure it warm.
            self._measure(Recorder(), request, user)
        request_bytes, reply_bytes = self._measure(self.rec, request, user)
        self.request_bytes.append(request_bytes)
        self.reply_bytes.append(reply_bytes)

    def _measure(self, rec, request: int, user: str) -> tuple[int, int]:
        """One request end to end, then stage by stage; the frame sizes."""
        w = self.w
        server, cache = w.server, w.handle.server.cache
        key_user = namespaced("public", user)
        if not self.hit_path:
            # Each measurement starts from a collected heap, so none pays
            # for the span trees the previous traced execution left behind.
            gc.collect()
        with rec.span("e2e.query", request):
            served = w.client.query(user)
        if not self.hit_path:
            gc.collect()
        with rec.span("staged.query", request):
            with rec.span("net.client_encode"):
                frame = encode_frame({"id": request, "op": "query", "tenant": "public", "user": user})
            with rec.span("net.server_decode"):
                decode_body(frame[4:])
            with rec.span("serve.snapshot"):
                snapshot = server.snapshot()
            with rec.span("serve.session_for"):
                names = sorted(p.name for p in snapshot.store.preferences_of(key_user))
                text = DEFAULT_SQL.format(names=", ".join(names))
                session = snapshot.session_for(key_user, strategy=STRATEGY)
            with rec.span("query.compile"):
                compiled = session.compile(text)
            with rec.span("plan.fingerprint"):
                fingerprint = plan_fingerprint(
                    compiled.plan, strategy=STRATEGY,
                    aggregate=compiled.aggregate or session.engine.aggregate.name,
                    order_by=compiled.order_by, extra={"oracle": False},
                )
            with rec.span("cache.table_digest"):
                relations = sorted(compiled.plan.relations())
                data = canonical_json({n: table_digest(snapshot.db.table(n)) for n in relations})
                data_digest = hashlib.sha256(data.encode("utf-8")).hexdigest()
            with rec.span("cache.profile_digest"):
                profile = snapshot.store.profile_digest(key_user)
            with rec.span("cache.lookup"):
                reply = cache.get_or_compute((data_digest, fingerprint, profile), _absent)
            if not self.hit_path:
                shown = staged_engine(rec, session, compiled)
                with rec.span("net.wire_triples"):
                    triples = wire_triples(types.SimpleNamespace(presented=lambda: shown))
                with rec.span("net.result_digest"):
                    digest = triples_digest(triples)
                if digest != served["digest"]:
                    w.failures.append(f"replay {request}: staged answer differs from the served one")
            with rec.span("net.server_encode"):
                out = encode_frame({"id": request, "ok": True, "result": reply})
            with rec.span("net.client_decode"):
                result = decode_body(out[4:])["result"]
                triples_digest([(r, s, c) for r, s, c in result["triples"]])
        if reply["digest"] != served["digest"]:
            w.failures.append(f"replay {request}: cached reply differs from the served one")
        if not self.hit_path:
            gc.collect()
            self.split.traced_execute(rec, request, session, compiled)
            if len(self._baseline) < BASELINED:
                self._baseline.append((session, compiled))
        return len(frame), len(out)

    def _staged_writes(self) -> None:
        """The write path below the wire, on scratch users and a scratch log."""
        rec, w = self.rec, self.w
        vfs = _CountingVFS()
        wal = PreferenceWAL(os.path.join(w.directory, "scratch.wal"), sync=True)
        spec = {"name": "s", "rel": "GENRES", "cond": ["eq", "genre", "Drama"],
                "score": 0.5, "conf": 0.5}
        try:
            for n in range(REPLAYED):
                pref = pref_from_spec(dict(spec, score=round(0.1 + n / 100, 4)))
                with rec.span("serve.write_apply", n):
                    w.server.add_preference(f"scratch::{n}", pref)
                payload = {"user": f"scratch::{n}", "pref": preference_to_dict(pref)}
                with use_vfs(vfs), rec.span("wal.append", n):
                    wal.append("pref.add", payload)
            self.fsyncs_per_write = vfs.fsyncs / REPLAYED
        finally:
            wal.close()
        self.clock.sample()

    def _metrics(self, median: Medians) -> dict:
        path = [
            "net.client_encode", "net.server_decode", "serve.snapshot", "serve.session_for",
            "query.compile", "plan.fingerprint", "cache.table_digest", "cache.profile_digest",
            "cache.lookup", "net.server_encode", "net.client_decode",
        ]
        if not self.hit_path:
            path += list(ENGINE_STAGES) + ["net.wire_triples", "net.result_digest"]
        metrics = {f"{stage}_ms": median(stage) for stage in path}
        executor = self.w.client.stats()["p50_ms"]
        metrics.update(self.split.metrics(median.raw_scale()))
        metrics.update(
            {
                "net.request_bytes": statistics.mean(self.request_bytes),
                "net.reply_bytes_per_query": statistics.mean(self.reply_bytes),
                "serve.executor_p50_ms": executor * median.raw_scale(),
                "serve.write_apply_ms": median("serve.write_apply"),
                "wal.append_ms": median("wal.append"),
                "wal.fsyncs_per_write": self.fsyncs_per_write,
                "trace.query_e2e_ms": median("e2e.query"),
                "net.transport_dispatch_ms": median.paired(path, ["e2e.query"], lambda s, e: e - s),
                "trace.unattributed_ratio": median.paired(
                    path, ["e2e.query"], lambda s, e: (e - s) / e
                ),
            }
        )
        if not self.hit_path:
            metrics["obs.trace_overhead_ratio"] = median.paired(
                ["obs.traced_execute"], ENGINE_STAGES, lambda t, s: t / s
            )
        return metrics


def _absent():
    raise ReproError("replayed key is not in the cache")
