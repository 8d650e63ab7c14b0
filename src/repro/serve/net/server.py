"""The asyncio TCP front end over a :class:`~repro.serve.server.PreferenceServer`.

``NetServer`` puts a real network boundary around the serving layer and
wires the robustness machinery that makes it survivable:

* **Multi-tenant admission** — every data-plane request names a tenant
  (default ``"public"``); user ids are namespaced per tenant
  (``tenant::user``), so one tenant's preferences are invisible to
  another, and each tenant has an in-flight quota on top of the
  executor's queue limit.  Every shed is a typed
  :exc:`~repro.errors.Overloaded` carrying a ``retry_after`` hint derived
  from observed service times.
* **Deadline propagation** — a request's ``deadline_ms`` (the client's
  *remaining* budget) becomes a :class:`~repro.resilience.QueryGuard`
  installed before admission, so the deadline set client-side is the one
  the executor's operator-boundary checks enforce; an already-expired
  deadline is refused before queuing work nobody is waiting for.
* **Graceful drain** — SIGTERM (or :meth:`NetServer.drain`) stops
  admitting, answers new connections and data requests with
  ``Overloaded("shutting-down")``, lets in-flight work finish, fsyncs the
  WAL tail (:meth:`~repro.serve.wal.PreferenceWAL.sync_to_disk`) and only
  then exits — an acknowledged write can never be lost to a deploy.
* **Health/readiness** — ``health`` answers even while draining or
  poisoned (liveness), ``ready`` flips false the moment the server drains
  or fail-stops (load-balancer rotation).
* **Network chaos hooks** — the ``net.accept`` / ``net.read`` /
  ``net.write`` / ``net.close`` fault sites let a seeded
  :class:`~repro.resilience.FaultPlan` drop connections, stall reads,
  and tear outbound frames (a truncated frame then an abrupt reset), so
  the chaos suite (:mod:`repro.serve.net.chaos`) can prove torn frames
  and dropped connections never corrupt a completed query.
* **Observability** — each connection is one ``serve.net`` span
  (frames/bytes in and out, errors, sheds) written to any obs sink.

The event loop frames, admits and dispatches.  It also answers a query
whose reply is already cached for the server's current snapshot
(:meth:`~repro.cache.service.CachedQueryService.probe`, which never
blocks); every other query and every write runs on the
:class:`~repro.serve.executor.ServeExecutor` worker pool and is awaited
through :func:`asyncio.wrap_future`, so a slow query never stalls another
connection's reads.
"""

from __future__ import annotations

import asyncio
import itertools
import signal
import threading
import time

from ...cache.result_cache import ResultCache
from ...cache.service import DEFAULT_SQL, CachedQueryService
from ...errors import NetworkFault, Overloaded, QueryTimeout, ReproError, TransientFault
from ...obs.tracer import Span
from ...pexec.engine import DEFAULT_STRATEGY
from ...resilience.faults import NULL_FAULTS
from ...resilience.guard import QueryGuard, use_guard
from ..executor import ServeExecutor
from .protocol import MAX_FRAME, _HEADER, decode_body, encode_frame, error_to_dict

_RUNNING = "running"
_DRAINING = "draining"
_STOPPED = "stopped"

#: Ops that mutate or query state: refused while draining, tenant-metered.
DATA_OPS = frozenset(
    {"query", "add_preference", "remove_preference", "clear_preferences", "insert"}
)
#: Control-plane ops: always answered, never quota-metered — health checks
#: must keep working exactly when the data plane is refusing.
CONTROL_OPS = frozenset({"ping", "health", "ready", "stats"})

__all__ = ["NetServer", "NetServerHandle", "serve_in_thread", "namespaced"]


def namespaced(tenant: str, user: str) -> str:
    """The store key for *user* inside *tenant*'s namespace."""
    return f"{tenant}::{user}"


class _DeferredSleep:
    """Collects latency-fault sleeps so they can be awaited, not blocked on.

    A :class:`FaultPlan` calls its ``sleep`` synchronously; on the event
    loop that would stall every connection.  The server installs this
    recorder as the plan's sleeper and awaits the collected delay after
    each site visit instead.
    """

    __slots__ = ("pending",)

    def __init__(self) -> None:
        self.pending = 0.0

    def __call__(self, seconds: float) -> None:
        self.pending += seconds

    def take(self) -> float:
        delay, self.pending = self.pending, 0.0
        return delay


class NetServer:
    """Asyncio TCP front end: framing, admission, dispatch, drain.

    :param server: the owned :class:`~repro.serve.server.PreferenceServer`.
    :param workers: worker threads of the admission-controlled pool.
    :param queue_limit: requests allowed to wait for a worker.
    :param tenant_quota: per-tenant in-flight cap (``None``: no tenant
        metering).
    :param cache: result caching for the query path.  ``True`` (default)
        builds a :class:`~repro.cache.result_cache.ResultCache` bounded by
        *cache_bytes*; ``False``/``None`` serves every query uncached; an
        explicit :class:`ResultCache` instance is used as given.  Replies
        are byte-identical either way (the key is a pure content digest);
        the cache only changes who computes them.
    :param cache_bytes: LRU memory budget when the server builds its own
        cache.
    :param fault_factory: chaos hook — called with the connection index,
        returns the :class:`~repro.resilience.FaultPlan` governing that
        connection's ``net.*`` sites (``None``: no injection).
    :param trace_sink: obs sink receiving one ``serve.net`` span per
        connection.
    :param test_ops: allow the ``ping`` op's ``delay_ms`` field (a
        deterministic in-flight sleep the drain tests hold the server open
        with); never enable in production.
    """

    def __init__(
        self,
        server,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        queue_limit: int = 32,
        tenant_quota: int | None = 8,
        default_strategy: str = DEFAULT_STRATEGY,
        default_sql: str = DEFAULT_SQL,
        cache: "ResultCache | bool | None" = True,
        cache_bytes: int = 64 * 1024 * 1024,
        fault_factory=None,
        trace_sink=None,
        test_ops: bool = False,
    ) -> None:
        self.server = server
        self.host = host
        self.port = port
        self.executor = ServeExecutor(
            workers=workers, queue_limit=queue_limit, name="serve-net"
        )
        self.tenant_quota = tenant_quota
        self.default_strategy = default_strategy
        self.default_sql = default_sql
        if cache is True:
            cache = ResultCache(max_bytes=cache_bytes)
        elif cache is False:
            cache = None
        self.cache = cache
        #: The single implementation of the query path (cache-aware); the
        #: conformance tests drive the same object without sockets.
        self.service = CachedQueryService(
            server,
            cache,
            default_sql=default_sql,
            default_strategy=default_strategy,
        )
        self.fault_factory = fault_factory
        self.trace_sink = trace_sink
        self.test_ops = test_ops
        self._state = _RUNNING
        self._asyncio_server: asyncio.AbstractServer | None = None
        self._stopped: asyncio.Event | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        #: Requests read off a socket whose response has not been flushed
        #: yet.  Touched only on the event-loop thread; drain waits for it
        #: to hit zero so an in-flight response is never cut off between
        #: the executor finishing it and the handler writing it.
        self._active_requests = 0
        self._conn_counter = itertools.count()
        self._tenant_lock = threading.Lock()
        self._tenant_inflight: dict[str, int] = {}
        #: Queries answered on the event loop (cache hits on the current
        #: snapshot); they never reach the executor's LatencyStats.
        #: Touched only on the event-loop thread.
        self.loop_hits = 0

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` holds the bound port."""
        self._stopped = asyncio.Event()
        self._asyncio_server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._asyncio_server.sockets[0].getsockname()[1]

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def run_forever(self, install_signals: bool = True) -> None:
        """Start, serve until SIGTERM/SIGINT triggers a drain, then return."""
        await self.start()
        await self.serve_until_stopped(install_signals)

    async def serve_until_stopped(self, install_signals: bool = True) -> None:
        """Serve (already started) until a signal or :meth:`drain` stops us."""
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(self.drain())
                )
        await self.wait_stopped()

    @property
    def draining(self) -> bool:
        return self._state != _RUNNING

    async def drain(self, timeout: float | None = None) -> bool:
        """The graceful-shutdown contract, in order.

        (1) stop admitting — data requests and fresh connections now shed
        with ``Overloaded("shutting-down")``; (2) wait for every admitted
        request to finish (the executor drain); (3) stop listening and
        close idle connections; (4) fsync the WAL tail and close the
        durable state.  Returns False when *timeout* elapsed before the
        in-flight work finished (state still stops accepting; durability
        is still flushed).
        """
        if self._state != _RUNNING:
            await self.wait_stopped()
            return True
        self._state = _DRAINING
        loop = asyncio.get_running_loop()
        finished = await loop.run_in_executor(None, self.executor.drain, timeout)
        while self._active_requests:
            await asyncio.sleep(0.005)
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
        for writer in list(self._writers):
            writer.close()
        self.executor.shutdown(wait=False)
        if self.server.wal is not None:
            self.server.wal.sync_to_disk()
        self.server.close()
        self._state = _STOPPED
        if self._stopped is not None:
            self._stopped.set()
        return finished

    def _abort_now(self) -> None:
        """Simulated kill (chaos only): stop serving without drain or close.

        Nothing is flushed or closed — exactly what a SIGKILL leaves
        behind.  Durability must come from the WAL discipline alone.
        """
        if self._asyncio_server is not None:
            self._asyncio_server.close()
        for writer in list(self._writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        self._state = _STOPPED
        if self._stopped is not None:
            self._stopped.set()

    # -- fault-site plumbing -----------------------------------------------------

    def _plan_for_connection(self, index: int):
        if self.fault_factory is None:
            return NULL_FAULTS, None
        plan = self.fault_factory(index)
        if plan is None:
            return NULL_FAULTS, None
        # Latency faults must await, not block the loop: reroute the plan's
        # sleeper into a recorder drained by _site() below.
        recorder = _DeferredSleep()
        plan._sleep = recorder
        return plan, recorder

    async def _site(self, plan, recorder, site: str) -> None:
        """Visit one net.* fault site; awaits latency, raises transient."""
        plan.at(site)
        if recorder is not None:
            delay = recorder.take()
            if delay:
                await asyncio.sleep(delay)

    # -- the connection handler --------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        index = next(self._conn_counter)
        plan, recorder = self._plan_for_connection(index)
        peer = writer.get_extra_info("peername")
        span = Span("serve.net", label=f"conn-{index}")
        span.set("peer", str(peer))
        self._writers.add(writer)
        aborted = False
        try:
            try:
                await self._site(plan, recorder, "net.accept")
            except TransientFault as err:
                span.set("aborted", err.site)
                aborted = True
                return
            if self.draining:
                # Refuse the connection with a *typed* error, not a slammed
                # door: the client learns why and goes elsewhere.
                shed = Overloaded("shutting-down")
                self.executor.stats.count_shed()
                span.add("sheds")
                frame = encode_frame(
                    {"id": 0, "ok": False, "error": error_to_dict(shed)}
                )
                writer.write(frame)
                await writer.drain()
                return
            while True:
                request = await self._read_request(reader, plan, recorder, span)
                if request is None:
                    break
                self._active_requests += 1
                try:
                    if plan.corrupts("net.read"):
                        # Torn inbound frame: the request is lost mid-read;
                        # the only honest outcome is a dropped connection.
                        span.set("aborted", "net.read")
                        aborted = True
                        return
                    response = await self._respond(request, span)
                    frame = encode_frame(response)
                    try:
                        await self._site(plan, recorder, "net.write")
                    except TransientFault as err:
                        span.set("aborted", err.site)
                        aborted = True
                        return
                    if plan.corrupts("net.write"):
                        # Torn outbound frame: a seeded prefix of the frame
                        # goes out, then the connection resets — the client's
                        # framing layer must refuse the partial bytes.
                        cut = 1 + plan.pick(max(1, len(frame) - 1))
                        writer.write(frame[:cut])
                        await writer.drain()
                        span.set("aborted", "net.write")
                        aborted = True
                        return
                    writer.write(frame)
                    await writer.drain()
                    span.add("frames_out")
                    span.add("bytes_out", len(frame))
                finally:
                    self._active_requests -= 1
        except (NetworkFault, TransientFault) as err:
            # NetworkFault: torn/garbled inbound frame.  Bare TransientFault:
            # the net.read site dropped this connection mid-request.
            span.add("errors")
            span.set("aborted", err.site)
            aborted = True
        except (ConnectionError, asyncio.IncompleteReadError):
            span.add("errors")
            aborted = True
        finally:
            if not aborted:
                try:
                    await self._site(plan, recorder, "net.close")
                except TransientFault:
                    span.set("aborted", "net.close")
                    aborted = True
            self._writers.discard(writer)
            transport = writer.transport
            if aborted and transport is not None:
                transport.abort()
            else:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):  # pragma: no cover - peer reset
                    pass
            span.finish()
            if self.trace_sink is not None:
                self.trace_sink.write(
                    span, meta={"connection": index, "server": "serve-net"}
                )

    async def _read_request(self, reader, plan, recorder, span) -> "dict | None":
        try:
            header = await reader.readexactly(_HEADER.size)
        except asyncio.IncompleteReadError as err:
            if not err.partial:
                return None  # clean EOF between frames: the client hung up
            raise NetworkFault("net.read", "torn length word") from err
        # The site sits between header and body: a transient here drops the
        # connection mid-request, a latency fault stalls the frame.
        await self._site(plan, recorder, "net.read")
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME:
            raise NetworkFault("net.read", f"frame length {length} exceeds MAX_FRAME")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as err:
            raise NetworkFault("net.read", "connection closed mid-frame") from err
        span.add("frames_in")
        span.add("bytes_in", _HEADER.size + length)
        return decode_body(body)

    # -- dispatch ----------------------------------------------------------------

    async def _respond(self, request: dict, span: Span) -> dict:
        rid = request.get("id", 0)
        try:
            result = await self._dispatch(request, span)
            return {"id": rid, "ok": True, "result": result}
        except Overloaded as err:
            span.add("sheds")
            span.add("errors")
            return {"id": rid, "ok": False, "error": error_to_dict(err)}
        except ReproError as err:
            span.add("errors")
            return {"id": rid, "ok": False, "error": error_to_dict(err)}
        except Exception as err:  # noqa: BLE001 - marked untyped on the wire
            span.add("errors")
            return {"id": rid, "ok": False, "error": error_to_dict(err)}

    async def _dispatch(self, request: dict, span: Span):
        op = request.get("op")
        tenant = str(request.get("tenant", "public"))
        span.set("tenant", tenant)
        if op in CONTROL_OPS:
            return await self._control(op, request, tenant)
        if op not in DATA_OPS:
            raise ReproError(f"unknown op {op!r}")
        if self.draining:
            self.executor.stats.count_shed()
            raise Overloaded("shutting-down")
        guard = self._guard_from(request)
        if op == "query":
            run_query, probe = self._query_fns(request, tenant)
            return await self._admitted(tenant, run_query, guard, probe)
        return await self._admitted(tenant, self._write_fn(op, request, tenant), guard)

    def _guard_from(self, request: dict) -> QueryGuard | None:
        """The client's remaining budget, as the guard the executor enforces."""
        deadline_ms = request.get("deadline_ms")
        if deadline_ms is None:
            return None
        if deadline_ms <= 0:
            # Nobody is waiting for this answer anymore; refusing beats
            # queueing dead work in front of live requests.
            raise QueryTimeout(max(0.0, deadline_ms) / 1e3, 0.0)
        return QueryGuard(timeout=deadline_ms / 1e3)

    async def _admitted(self, tenant: str, fn, guard: QueryGuard | None, probe=None):
        """Tenant quota → loop probe → executor admission → worker execution.

        *probe* answers a cache hit on the event loop (None: not a hit);
        only what it cannot answer takes a worker.
        """
        with self._tenant_lock:
            inflight = self._tenant_inflight.get(tenant, 0)
            if self.tenant_quota is not None and inflight >= self.tenant_quota:
                self.executor.stats.count_shed()
                raise Overloaded(
                    "tenant-quota",
                    limit=self.tenant_quota,
                    session=tenant,
                    retry_after=self.executor.stats.retry_after_hint(
                        inflight, self.executor.workers
                    ),
                )
            self._tenant_inflight[tenant] = inflight + 1
        try:
            if probe is not None:
                reply = probe()
                if reply is not None:
                    self.loop_hits += 1
                    return reply
            # The guard is installed *around submission*: the executor copies
            # the submitting context, so the client's deadline governs the
            # worker thread exactly as an in-process caller's would.
            if guard is not None:
                with use_guard(guard):
                    future = self.executor.submit(fn)
            else:
                future = self.executor.submit(fn)
            return await asyncio.wrap_future(future)
        finally:
            with self._tenant_lock:
                remaining = self._tenant_inflight.get(tenant, 1) - 1
                if remaining > 0:
                    self._tenant_inflight[tenant] = remaining
                else:
                    self._tenant_inflight.pop(tenant, None)

    # -- data-plane ops ----------------------------------------------------------

    def _query_fns(self, request: dict, tenant: str):
        """``(run_query, probe)``: the worker's query and its loop probe."""
        user = request.get("user")
        if not user:
            raise ReproError("query needs a user")
        key = namespaced(tenant, str(user))
        args = {
            "sql": request.get("sql"),
            "strategy": request.get("strategy", self.default_strategy),
            "want_oracle": bool(request.get("oracle")),
        }

        def run_query() -> dict:
            # The shared cache-aware path (repro.cache.service): snapshot,
            # compile, digest-keyed lookup with single-flight, compute on
            # miss — byte-identical to the cache-off computation.
            return self.service.query(key, **args)

        def probe() -> "dict | None":
            # A hit on the published snapshot: no mutex, no worker.
            return self.service.probe(key, **args)

        return run_query, probe

    def _write_fn(self, op: str, request: dict, tenant: str):
        from ..codec import preference_from_dict

        user = request.get("user")
        if op != "insert" and not user:
            raise ReproError(f"{op} needs a user")
        key = namespaced(tenant, str(user)) if user else None

        def run_write() -> dict:
            if op == "add_preference":
                self.server.add_preference(key, preference_from_dict(request["pref"]))
                outcome: dict = {"added": True}
            elif op == "remove_preference":
                outcome = {"removed": self.server.remove_preference(key, request["name"])}
            elif op == "clear_preferences":
                outcome = {"dropped": self.server.clear_preferences(key)}
            else:  # insert
                self.server.insert(request["table"], request["values"])
                outcome = {"inserted": True}
            # The acknowledged LSN is the durability receipt: the chaos
            # suite kills the server and verifies every acked LSN survived.
            outcome["lsn"] = self.server.wal.lsn if self.server.wal is not None else 0
            return outcome

        return run_write

    # -- control-plane ops -------------------------------------------------------

    async def _control(self, op: str, request: dict, tenant: str):
        if op == "ping":
            delay_ms = request.get("delay_ms")
            if delay_ms and self.test_ops:
                if self.draining:
                    self.executor.stats.count_shed()
                    raise Overloaded("shutting-down")
                # Runs on the worker pool: a deterministic stand-in for a
                # slow in-flight query the drain tests hold the server with.
                # It honors the request's deadline_ms like a real query.
                return await self._admitted(
                    tenant, lambda: _slow_pong(delay_ms / 1e3), self._guard_from(request)
                )
            return {"pong": True}
        if op == "health":
            poisoned = getattr(self.server, "_poisoned", None)
            return {
                "status": "poisoned" if poisoned else "ok",
                "draining": self.draining,
                "lsn": self.server.wal.lsn if self.server.wal is not None else 0,
                "pending": self.executor.pending(),
            }
        if op == "ready":
            poisoned = getattr(self.server, "_poisoned", None)
            if poisoned:
                return {"ready": False, "reason": "poisoned"}
            if self.draining:
                return {"ready": False, "reason": "draining"}
            return {"ready": True, "reason": "ok"}
        # stats
        with self._tenant_lock:
            tenants = dict(self._tenant_inflight)
        snapshot = self.executor.stats.snapshot()
        snapshot["loop_hits"] = self.loop_hits
        snapshot["tenants"] = tenants
        snapshot["draining"] = self.draining
        snapshot["cache"] = self.service.stats_snapshot()
        blocks = self.server.db.blocks
        snapshot["block_memo"] = blocks.stats()
        snapshot["block_memo_subsumed"] = blocks.subsumed
        return snapshot


def _slow_pong(seconds: float) -> dict:
    """Sleep cooperatively: the ambient guard (the propagated client
    deadline) is checked along the way, exactly as query operators do."""
    from ...resilience.guard import current_guard

    deadline = time.monotonic() + seconds
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return {"pong": True, "slept_s": seconds}
        guard = current_guard()
        if guard.enabled:
            guard.check()
        time.sleep(min(0.01, remaining))


# ---------------------------------------------------------------------------
# Threaded embedding (tests, chaos, the load generator)
# ---------------------------------------------------------------------------


class NetServerHandle:
    """A NetServer running on its own event-loop thread.

    ``stop()`` drains gracefully; ``abort()`` is the chaos kill — the loop
    stops with nothing flushed or closed, like a SIGKILL, so recovery must
    come from the WAL discipline alone.
    """

    def __init__(self, server: NetServer, thread: threading.Thread, loop) -> None:
        self.server = server
        self.thread = thread
        self.loop = loop

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def stop(self, timeout: float | None = 30.0) -> bool:
        future = asyncio.run_coroutine_threadsafe(self.server.drain(timeout), self.loop)
        finished = future.result(None if timeout is None else timeout + 10.0)
        self.thread.join(timeout=10.0)
        return finished

    def abort(self) -> None:
        self.loop.call_soon_threadsafe(self.server._abort_now)
        self.thread.join(timeout=10.0)
        # The executor threads are daemonic; shut them down without drain so
        # an aborted handle does not leak busy workers into the next test.
        self.server.executor.shutdown(wait=False)


def serve_in_thread(server: NetServer) -> NetServerHandle:
    """Start *server* on a dedicated event-loop thread; returns its handle."""
    started = threading.Event()
    failure: list[BaseException] = []
    holder: dict = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        holder["loop"] = loop

        async def main() -> None:
            try:
                await server.start()
            except BaseException as err:  # pragma: no cover - bind failure
                failure.append(err)
                raise
            finally:
                started.set()
            await server.wait_stopped()

        try:
            loop.run_until_complete(main())
        except BaseException:  # pragma: no cover - surfaced via failure[]
            pass
        finally:
            loop.close()

    thread = threading.Thread(target=runner, name="serve-net-loop", daemon=True)
    thread.start()
    if not started.wait(timeout=30.0):  # pragma: no cover - wedged startup
        raise ReproError("NetServer event loop failed to start in 30s")
    if failure:
        thread.join(timeout=5.0)
        raise ReproError(f"NetServer failed to start: {failure[0]!r}")
    return NetServerHandle(server, thread, holder["loop"])
