"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — build the paper's example movie database, run a preferential
  query under every strategy and print plans, results and statistics.
* ``generate`` — write a synthetic IMDB or DBLP database to a directory
  (see :mod:`repro.engine.persist` for the on-disk format).
* ``query`` — run one preferential SQL statement against a saved database.
* ``repl`` — interactive SQL loop against a saved or generated database.
* ``lint`` — run the algebraic-safety source linter (``repro.analysis_static``).
* ``chaos`` — run the seeded chaos scenarios (``--scenario``, repeatable;
  default: all).  ``concurrent`` (``repro.resilience.chaos_concurrent``):
  writer threads apply the shared op model's writes while reader threads
  must match the oracle on their own snapshot.  ``network``: the same ops
  and reads under seeded wire faults, a kill, and overload.
* ``crash-torture`` — crash the durable server at every injectable I/O
  point of the op model's workload plus SIGKILL rounds; recovery is
  digest- and LSN-verified.  All three drive ``repro.resilience.opmodel``
  and print its one report.
* ``serve`` — run the asyncio TCP front end (``repro.serve.net``): a
  length-prefixed JSON protocol over a durable or generated database, with
  multi-tenant admission, deadline propagation and graceful drain on
  SIGTERM.  ``chaos --scenario network`` is its fault-injection suite.
"""

from __future__ import annotations

import argparse
import os
import sys

from .engine.persist import load_database, save_database
from .errors import ReproError
from .pexec.engine import DEFAULT_STRATEGY
from .query.session import Session


#: ``chaos --scenario`` choices, in run order, with their ``--list`` lines.
CHAOS_SCENARIOS = {
    "concurrent": "writers mutate the live server while readers must match "
    "the oracle on their snapshot",
    "network": "network front-end chaos: seeded connection drops / stalls / "
    "torn frames with server-side oracle digests, kill+recovery of acked "
    "writes, typed overload shedding",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Preference-aware relational database (ICDE 2012 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="run the built-in movie demo")
    demo.add_argument(
        "--trace",
        action="store_true",
        help="print an EXPLAIN ANALYZE-style per-operator trace per strategy",
    )

    generate = commands.add_parser("generate", help="generate a synthetic database")
    generate.add_argument("--dataset", choices=("imdb", "dblp"), default="imdb")
    generate.add_argument("--scale", type=float, default=0.001)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--out", required=True, help="output directory")

    query = commands.add_parser("query", help="run one SQL statement")
    query.add_argument("--db", required=True, help="database directory")
    query.add_argument(
        "--strategy",
        default=DEFAULT_STRATEGY,
        help="execution strategy; a comma-separated list runs each in turn "
        "(e.g. --strategy ftp,bu,gbu)",
    )
    query.add_argument("--explain", action="store_true", help="print plans too")
    query.add_argument(
        "--trace",
        action="store_true",
        help="run under a collecting tracer and print the per-operator "
        "EXPLAIN ANALYZE breakdown (rows, time, aggregate applications)",
    )
    query.add_argument(
        "--profile",
        action="store_true",
        help="print a flat per-operator profile table (calls, wall/CPU ms, rows)",
    )
    query.add_argument(
        "--trace-out",
        metavar="FILE",
        help="append the collected trace(s) to FILE as JSONL",
    )
    query.add_argument("--limit", type=int, default=20, help="rows to print")
    query.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="abort with a typed QueryTimeout when the query runs longer",
    )
    query.add_argument(
        "--max-rows",
        type=int,
        metavar="N",
        help="abort with ResourceExhausted when the result exceeds N rows",
    )
    query.add_argument(
        "--columnar",
        action="store_true",
        help="execute through the columnar engine (exact; unsupported plan "
        "shapes fall back to the row strategy)",
    )
    query.add_argument("sql", help="preferential SQL text")

    repl = commands.add_parser("repl", help="interactive SQL loop")
    repl.add_argument("--db", help="database directory (default: tiny IMDB)")
    repl.add_argument("--strategy", default=DEFAULT_STRATEGY)

    lint = commands.add_parser(
        "lint", help="run the algebraic-safety linter over Python sources"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )

    chaos = commands.add_parser(
        "chaos",
        help="run the seeded chaos scenarios (concurrent writers, network "
        "faults)",
    )
    chaos.add_argument("--seed", type=int, default=42, help="scenario RNG seed")
    chaos.add_argument(
        "--scale", type=float, default=0.001, help="synthetic IMDB dataset scale"
    )
    chaos.add_argument(
        "--scenario",
        action="append",
        choices=tuple(CHAOS_SCENARIOS),
        help="run only the named scenario (repeatable); default: all",
    )
    chaos.add_argument(
        "--list", action="store_true", help="list the scenarios and exit"
    )
    chaos.add_argument(
        "--writers", type=int, default=4,
        help="writer threads for --scenario concurrent (default 4)",
    )
    chaos.add_argument(
        "--readers", type=int, default=4,
        help="reader threads for --scenario concurrent (default 4)",
    )
    chaos.add_argument(
        "--queries", type=int, default=8,
        help="queries per reader for --scenario concurrent (default 8)",
    )

    torture = commands.add_parser(
        "crash-torture",
        help="crash the durable server at every injectable I/O point (plus "
        "SIGKILL rounds) and digest- and LSN-verify that recovery loses "
        "nothing acknowledged",
    )
    torture.add_argument("--seed", type=int, default=0, help="workload/fault RNG seed")
    torture.add_argument(
        "--rounds", type=int, default=10,
        help="in-process torture rounds; each sweeps every crash point of a "
        "fresh workload (default 10)",
    )
    torture.add_argument(
        "--ops", type=int, default=18,
        help="scripted server operations per round (default 18)",
    )
    torture.add_argument(
        "--sigkill-rounds", type=int, default=None, metavar="N",
        help="subprocess rounds SIGKILLed mid-workload (default rounds//5, "
        "min 1; 0 disables)",
    )
    torture.add_argument(
        "--no-mutation-check", action="store_true",
        help="skip the self-check that a deliberately lossy replay is caught",
    )

    serve = commands.add_parser(
        "serve",
        help="run the asyncio TCP front end (length-prefixed JSON protocol; "
        "SIGTERM drains gracefully)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7432)
    serve.add_argument(
        "--data", metavar="DIR",
        help="durable server directory (created if missing); default: "
        "ephemeral synthetic IMDB",
    )
    serve.add_argument("--scale", type=float, default=0.001,
                       help="synthetic IMDB scale for an ephemeral server")
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument("--queue-limit", type=int, default=32)
    serve.add_argument(
        "--tenant-quota", type=int, default=None, metavar="N",
        help="per-tenant in-flight cap (default: unmetered)",
    )
    serve.add_argument(
        "--trace-out", metavar="FILE",
        help="append per-connection serve.net spans to FILE as JSONL",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="disable the digest-keyed result cache (cache-off oracle mode)",
    )
    serve.add_argument(
        "--cache-mb", type=int, default=64, metavar="MB",
        help="result-cache memory budget in MiB (default 64)",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "demo":
            return _demo(trace=args.trace)
        if args.command == "generate":
            return _generate(args)
        if args.command == "query":
            return _query(args)
        if args.command == "repl":
            return _repl(args)
        if args.command == "lint":
            return _lint(args)
        if args.command == "chaos":
            return _chaos(args)
        if args.command == "crash-torture":
            return _crash_torture(args)
        if args.command == "serve":
            return _serve(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0  # pragma: no cover - argparse enforces a command


def _demo(trace: bool = False) -> int:
    from .engine.database import Database
    from .engine.types import DataType
    from .core.preference import Preference
    from .core.scoring import recency_score
    from .engine.expressions import cmp, eq
    from .pexec.engine import STRATEGIES

    db = Database()
    db.create_table(
        "MOVIES",
        [
            ("m_id", DataType.INT),
            ("title", DataType.TEXT),
            ("year", DataType.INT),
            ("d_id", DataType.INT),
        ],
        primary_key=["m_id"],
    )
    db.create_table(
        "DIRECTORS",
        [("d_id", DataType.INT), ("director", DataType.TEXT)],
        primary_key=["d_id"],
    )
    db.insert_many(
        "MOVIES",
        [
            (1, "Gran Torino", 2008, 1),
            (2, "Wall Street", 2010, 3),
            (3, "Million Dollar Baby", 2004, 1),
            (4, "Match Point", 2005, 2),
            (5, "Scoop", 2006, 2),
        ],
    )
    db.insert_many("DIRECTORS", [(1, "C. Eastwood"), (2, "W. Allen"), (3, "O. Stone")])
    db.analyze()

    session = Session(db)
    session.register(Preference("p2", "DIRECTORS", eq("d_id", 1), 0.9, 0.8))
    session.register(
        Preference("recent", "MOVIES", cmp("year", ">=", 2005), recency_score("year", 2011), 0.7)
    )
    sql = (
        "SELECT title, director FROM MOVIES NATURAL JOIN DIRECTORS "
        "PREFERRING p2, recent TOP 3 BY score"
    )
    print("demo query:")
    print(" ", sql.strip())
    print()
    print(session.explain(sql))
    print()
    for strategy in STRATEGIES:
        result = session.execute(sql, strategy=strategy)
        print(f"-- {strategy}")
        _print_result(session, result, limit=5)
        if trace:
            print()
            print(session.explain_analyze(sql, strategy))
        print()
    return 0


def _generate(args) -> int:
    from .workloads import generate_dblp, generate_imdb

    generator = generate_imdb if args.dataset == "imdb" else generate_dblp
    print(f"generating {args.dataset} at scale {args.scale} (seed {args.seed})...")
    db = generator(scale=args.scale, seed=args.seed)
    save_database(db, args.out)
    for name in db.catalog.table_names():
        print(f"  {name:<14} {len(db.table(name)):>9} rows")
    print(f"saved to {args.out}")
    return 0


def _query(args) -> int:
    db = load_database(args.db)
    strategies = [s.strip() for s in args.strategy.split(",") if s.strip()]
    if not strategies:
        raise ReproError(f"--strategy {args.strategy!r} names no strategy")
    session = Session(db, strategy=strategies[0])
    want_trace = args.trace or args.profile or args.trace_out
    sink = None
    if args.trace_out:
        from .obs import JsonlSink

        sink = JsonlSink(args.trace_out)
    for index, strategy in enumerate(strategies):
        if len(strategies) > 1:
            if index:
                print()
            print(f"-- {strategy}")
        if args.explain:
            print(session.explain(args.sql, strategy=strategy))
            print()
        tracer = None
        if want_trace:
            from .obs import Tracer

            tracer = Tracer()
        guard = None
        if args.timeout is not None or args.max_rows is not None:
            from .resilience import QueryGuard

            guard = QueryGuard(timeout=args.timeout, max_rows=args.max_rows)
        result = session.execute(
            args.sql,
            strategy=strategy,
            tracer=tracer,
            guard=guard,
            columnar=args.columnar,
        )
        _print_result(session, result, args.limit)
        if args.trace:
            from .plan.printer import explain_analyze

            print()
            print(explain_analyze(result.executed_plan, result.stats.trace))
        if args.profile:
            from .obs import render_profile

            print()
            print(render_profile(result.stats.trace))
        if sink is not None:
            sink.write(
                result.stats.trace,
                meta={"sql": args.sql, "strategy": strategy, "rows": result.stats.rows},
            )
    if sink is not None:
        print(f"traces appended to {args.trace_out}", file=sys.stderr)
    return 0


def _repl(args) -> int:
    if args.db:
        db = load_database(args.db)
    else:
        from .workloads import generate_imdb

        print("no --db given: generating a tiny synthetic IMDB database...")
        db = generate_imdb(scale=0.001, seed=42)
    session = Session(db, strategy=args.strategy)
    print("tables:", ", ".join(db.catalog.table_names()))
    print("enter SQL (PREFERRING (...) SCORE ... supported), \\q to quit")
    while True:
        try:
            line = input("repro> ").strip()
        except EOFError:
            break
        if not line:
            continue
        if line in ("\\q", "quit", "exit"):
            break
        try:
            result = session.execute(line)
            _print_result(session, result, limit=20)
        except ReproError as err:
            print(f"error: {err}")
    return 0


def _lint(args) -> int:
    from .analysis_static.lint import run_lint

    return run_lint(args.paths or None)


def _chaos(args) -> int:
    if args.list:
        for name, description in CHAOS_SCENARIOS.items():
            print(f"{name:<20} {description}")
        return 0
    wanted = set(args.scenario or CHAOS_SCENARIOS)
    ok = True
    if "concurrent" in wanted:
        ok &= _concurrent_chaos(args)
    if "network" in wanted:
        from .serve.net.chaos import run_network_chaos

        report = run_network_chaos(seed=args.seed, scale=min(args.scale, 0.001))
        print(report.describe())
        ok &= report.ok
    return 0 if ok else 1


def _concurrent_chaos(args) -> bool:
    """Run the serving-layer chaos scenario; True when OK."""
    from .resilience.chaos_concurrent import run_concurrent_chaos

    report = run_concurrent_chaos(
        seed=args.seed,
        scale=args.scale,
        writers=args.writers,
        readers=args.readers,
        queries_per_reader=args.queries,
    )
    print(report.describe())
    return report.ok


def _crash_torture(args) -> int:
    from .resilience.crashtest import run_crash_torture

    report = run_crash_torture(
        seed=args.seed,
        rounds=args.rounds,
        ops=args.ops,
        sigkill_rounds=args.sigkill_rounds,
        mutation_check=not args.no_mutation_check,
    )
    print(report.describe())
    return 0 if report.ok else 1


def _serve(args) -> int:
    import asyncio

    from .serve.net.server import NetServer

    sink = None
    if args.trace_out:
        from .obs import JsonlSink

        sink = JsonlSink(args.trace_out)
    if args.data:
        from .serve.server import PreferenceServer

        # A brand-new directory adopts the synthetic IMDB sample as its
        # baseline; an existing one recovers checkpoint + WAL and the
        # generator is never run.
        fresh = not os.path.isdir(args.data) or not os.listdir(args.data)
        initial = None
        if fresh:
            from .workloads.imdb import generate_imdb

            initial = generate_imdb(scale=args.scale, seed=args.seed)
        server, replay = PreferenceServer.open(args.data, initial=initial)
        print(
            f"serving durable state from {args.data} "
            f"({'fresh baseline' if fresh else 'recovered'}, "
            f"lsn={server.wal.lsn}, replayed {len(replay.records)} records)",
            file=sys.stderr,
        )
    else:
        from .serve.server import PreferenceServer
        from .workloads.imdb import generate_imdb

        server = PreferenceServer(generate_imdb(scale=args.scale, seed=args.seed))
        print(
            f"serving ephemeral synthetic IMDB (scale={args.scale})",
            file=sys.stderr,
        )
    net = NetServer(
        server,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        tenant_quota=args.tenant_quota,
        trace_sink=sink,
        cache=not args.no_cache,
        cache_bytes=args.cache_mb * 1024 * 1024,
    )

    async def main() -> None:
        await net.start()
        print(f"listening on {net.host}:{net.port}", file=sys.stderr)
        await net.serve_until_stopped()

    asyncio.run(main())
    print("drained and stopped", file=sys.stderr)
    return 0


def _print_result(session: Session, result, limit: int) -> None:
    presented = result.presented()
    header = list(presented.schema.attribute_names) + ["score", "conf"]
    print(" | ".join(header))
    for index, (row, score, conf) in enumerate(presented.triples()):
        if index >= limit:
            print(f"... ({len(presented)} rows total)")
            break
        rendered = [str(v) for v in row]
        rendered.append("⊥" if score is None else f"{score:.4f}")
        rendered.append(f"{conf:.4f}")
        print(" | ".join(rendered))
    print(result.stats.summary())
