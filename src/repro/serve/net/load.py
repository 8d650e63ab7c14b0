"""Zipfian multi-tenant load generation against the network front end.

``python -m repro serve-load`` drives a real :class:`NetServer` over TCP
with the traffic shape preference-aware serving actually faces: a huge
user universe (defaults to 10^6 simulated users) whose request frequency
is zipf-distributed — a few users are hot, the tail is effectively cold —
spread across tenants, with a fraction of requests being *preference
churn* (adds/removes) rather than queries.

Per-user preferences are materialized lazily: the first request that
lands on a user registers their base preference (one wire write), so the
server's preference store grows with the set of users the zipf draw
actually touched — the realistic shape, since a 10^6-user universe never
has all users active.

Every worker is a well-behaved :class:`PreferenceClient`: jittered
retries under one process-wide :class:`~repro.resilience.RetryBudget`,
per-request deadlines, server ``retry_after`` hints honored.  The report
records client-observed p50/p95/p99 latency, throughput, shed-rate and
per-tenant traffic — the numbers the admission-control story stands on.
"""

from __future__ import annotations

import json
import os
import threading
import time

from ...errors import Overloaded, ReproError, ResilienceError
from ...resilience.retry import RetryBudget, RetryPolicy
from ...serve.executor import percentile
from .client import PreferenceClient
from .server import NetServer, serve_in_thread


def zipf_schedule(requests: int, users: int, s: float, seed: int) -> list[int]:
    """The seeded request → user-id schedule (zipf-distributed ranks).

    Draws zipf ranks with numpy's generator and folds the unbounded tail
    back into ``[0, users)``, so rank 1 — the hottest user — dominates and
    the tail is a long thin spread, no matter how large *users* is.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    ranks = rng.zipf(s, size=requests)
    return [int((rank - 1) % users) for rank in ranks]


def run_serve_load(
    *,
    users: int = 1_000_000,
    tenants: int = 4,
    requests: int = 800,
    clients: int = 8,
    churn: float = 0.15,
    scale: float = 0.001,
    seed: int = 42,
    zipf_s: float = 1.2,
    workers: int = 4,
    queue_limit: int = 16,
    tenant_quota: int | None = 16,
    deadline_s: float = 15.0,
    cache: bool = True,
    cache_bytes: int = 64 * 1024 * 1024,
) -> dict:
    """Run the closed-loop zipfian load and return the report dictionary."""
    from ...core.preference import Preference
    from ...engine.expressions import eq
    from ...workloads.imdb import generate_imdb
    from ..server import PreferenceServer

    server = PreferenceServer(generate_imdb(scale=scale, seed=seed))
    net = NetServer(
        server,
        workers=workers,
        queue_limit=queue_limit,
        tenant_quota=tenant_quota,
        cache=cache,
        cache_bytes=cache_bytes,
    )
    handle = serve_in_thread(net)

    schedule = zipf_schedule(requests, users, zipf_s, seed)
    budget = RetryBudget(capacity=20.0, refill=0.2)
    genres = ("Comedy", "Drama", "Action", "Thriller")
    base = Preference("base", "GENRES", eq("genre", "Drama"), 0.8, 0.9)

    lock = threading.Lock()
    latencies_ms: list[float] = []
    outcomes = {"completed": 0, "shed": 0, "typed_failed": 0, "untyped_failed": 0}
    per_tenant: dict[str, int] = {}
    churn_ops = 0
    # Users whose base preference is already registered, per tenant —
    # checked under the lock so one hot user is not registered twice.
    seen: set[tuple[str, str]] = set()

    def worker(worker_id: int) -> None:
        nonlocal churn_ops
        tenant = f"tenant{worker_id % tenants}"
        client = PreferenceClient(
            "127.0.0.1",
            handle.port,
            tenant=tenant,
            deadline_s=deadline_s,
            retry=RetryPolicy(attempts=4, base_delay=0.01, jitter=0.5, seed=worker_id),
            budget=budget,
        )
        import random

        rng = random.Random(seed * 1_000_003 + worker_id)
        try:
            for index in range(worker_id, len(schedule), clients):
                user = f"user{schedule[index]}"
                with lock:
                    fresh = (tenant, user) not in seen
                    if fresh:
                        seen.add((tenant, user))
                    per_tenant[tenant] = per_tenant.get(tenant, 0) + 1
                started = time.perf_counter()
                try:
                    if fresh:
                        client.add_preference(user, base)
                    if rng.random() < churn:
                        # Preference churn: rotate one pool preference.
                        pref = Preference(
                            f"c_{rng.randrange(4)}",
                            "GENRES",
                            eq("genre", genres[rng.randrange(4)]),
                            0.7,
                            0.8,
                        )
                        try:
                            if rng.random() < 0.6:
                                client.add_preference(user, pref)
                            else:
                                client.remove_preference(user, pref.name)
                        except ReproError as err:
                            if "duplicate" not in str(err) and "already" not in str(err):
                                raise
                        with lock:
                            churn_ops += 1
                    else:
                        client.query(user)
                    verdict = "completed"
                except Overloaded:
                    verdict = "shed"
                except ResilienceError:
                    verdict = "typed_failed"
                except Exception:  # noqa: BLE001 - counted, fails the gate
                    verdict = "untyped_failed"
                elapsed_ms = (time.perf_counter() - started) * 1e3
                with lock:
                    outcomes[verdict] += 1
                    if verdict == "completed":
                        latencies_ms.append(elapsed_ms)
        finally:
            client.close()

    started = time.perf_counter()
    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed_s = time.perf_counter() - started
    stats = net.executor.stats.snapshot()
    cache_stats = net.service.stats_snapshot()
    handle.stop()

    total = sum(outcomes.values())
    report = {
        "benchmark": "serve_load",
        "workload": (
            f"zipf(s={zipf_s}) over {users} simulated users, {tenants} tenants, "
            f"{churn:.0%} preference churn, default preferential query"
        ),
        "seed": seed,
        "scale": scale,
        "users": users,
        "tenants": tenants,
        "requests": total,
        "clients": clients,
        "workers": workers,
        "queue_limit": queue_limit,
        "tenant_quota": tenant_quota,
        "completed": outcomes["completed"],
        "shed": outcomes["shed"],
        "typed_failed": outcomes["typed_failed"],
        "untyped_failed": outcomes["untyped_failed"],
        "shed_rate": round(outcomes["shed"] / total, 4) if total else 0.0,
        "churn_ops": churn_ops,
        "distinct_users_touched": len(seen),
        "retry_budget": {"spent": budget.spent, "denied": budget.denied},
        "elapsed_s": round(elapsed_s, 3),
        "throughput_rps": round(total / elapsed_s, 1) if elapsed_s else 0.0,
        "client_p50_ms": round(percentile(latencies_ms, 0.50), 3),
        "client_p95_ms": round(percentile(latencies_ms, 0.95), 3),
        "client_p99_ms": round(percentile(latencies_ms, 0.99), 3),
        "server": stats,
        "cache": cache_stats,
        "per_tenant": dict(sorted(per_tenant.items())),
    }
    return report


def describe(report: dict) -> str:
    cache = report.get("cache")
    if cache:
        cache_line = (
            f"\n  cache hit-rate={cache['hit_rate']:.2%} "
            f"(hits={cache['hits']} misses={cache['misses']} "
            f"invalidations={cache['invalidations']} "
            f"entries={cache['entries']}, {cache['bytes']} bytes)"
        )
    else:
        cache_line = "\n  cache disabled"
    return (
        f"serve-load: {report['requests']} requests / {report['clients']} clients "
        f"over {report['users']} zipf users in {report['elapsed_s']}s "
        f"({report['throughput_rps']} rps)\n"
        f"  completed={report['completed']} shed={report['shed']} "
        f"(rate {report['shed_rate']:.2%}) typed_failed={report['typed_failed']} "
        f"untyped_failed={report['untyped_failed']}\n"
        f"  client p50={report['client_p50_ms']}ms "
        f"p95={report['client_p95_ms']}ms p99={report['client_p99_ms']}ms; "
        f"server p95={report['server']['p95_ms']}ms\n"
        f"  churn={report['churn_ops']} ops, "
        f"{report['distinct_users_touched']} distinct users touched, "
        f"retries spent={report['retry_budget']['spent']} "
        f"denied={report['retry_budget']['denied']}" + cache_line
    )


def write_report(report: dict, path: str) -> None:
    """Write the load report as pretty-printed JSON (bench artifact shape)."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
