"""Command-line frontend: the terminal analogue of the demo UI (Figure 5).

Examples::

    seedb --dataset store_orders --sql "SELECT * FROM store_orders \
          WHERE category = 'Technology'" --k 3
    seedb --csv sales.csv --sql "SELECT * FROM sales WHERE region = 'west'" \
          --metric emd --backend sqlite --export charts/
    seedb serve --dataset store_orders --port 8080

The ``serve`` subcommand starts the HTTP/JSON frontend: a
:class:`~repro.service.SeeDBService` wrapping the loaded table, exposed
via ``/recommend``, ``/views``, ``/dashboard``, ``/healthz``, and
``/stats``.
"""

from __future__ import annotations

import argparse
import sys

from repro.api import RecommendationRequest, Reference
from repro.backends.registry import available_backend_schemes, backend_from_uri
from repro.core.config import SeeDBConfig
from repro.core.recommender import SeeDB
from repro.datasets.registry import available_datasets, load_dataset
from repro.db.csvio import read_csv
from repro.frontend.templates import available_templates, build_template
from repro.metrics.registry import available_metrics
from repro.util.errors import ReproError
from repro.viz.export import export_recommendations
from repro.viz.render_text import render_ascii
from repro.viz.spec import view_to_chart_spec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seedb",
        description="Recommend interesting visualizations for a query "
        "(SeeDB, VLDB 2014).",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--csv", help="load a CSV file as the fact table")
    source.add_argument(
        "--dataset",
        choices=available_datasets(),
        help="use a built-in demo dataset",
    )
    query_source = parser.add_mutually_exclusive_group(required=True)
    query_source.add_argument(
        "--sql",
        help="analyst query: SELECT * FROM <table> [WHERE ...]",
    )
    query_source.add_argument(
        "--template",
        choices=available_templates(),
        help="build the query from a pre-defined template (§3.2 mechanism c)",
    )
    parser.add_argument(
        "--template-arg",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="template parameter, e.g. --template-arg column=profit "
        "(repeatable; numeric values are auto-converted)",
    )
    parser.add_argument("--k", type=int, default=5, help="views to recommend")
    parser.add_argument(
        "--metric",
        default="js",
        choices=available_metrics(),
        help="deviation metric",
    )
    parser.add_argument(
        "--backend",
        default="memory",
        metavar="URI",
        help="DBMS backend to run on: "
        + ", ".join(available_backend_schemes())
        + " (bare name or URI, e.g. duckdb:///file.db)",
    )
    parser.add_argument(
        "--sample-fraction",
        type=float,
        default=None,
        help="run view queries on a sample of this fraction",
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="parallel query workers"
    )
    parser.add_argument(
        "--export", metavar="DIR", help="write SVG/Vega/text charts to DIR"
    )
    parser.add_argument(
        "--html", metavar="FILE", help="write a standalone HTML report to FILE"
    )
    parser.add_argument(
        "--reference",
        default="table",
        metavar="SPEC",
        help="comparison row set: 'table' (whole table, default), "
        "'complement' (everything the query excludes), or a second "
        "row-selection SQL query to compare against",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="progressive delivery: print each incremental round's top "
        "view as it is estimated, then the final recommendations",
    )
    parser.add_argument(
        "--show-bad-views",
        action="store_true",
        help="also print the lowest-utility views (demo Scenario 1)",
    )
    parser.add_argument(
        "--charts", action="store_true", help="print ASCII charts for the top views"
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seedb serve",
        description="Serve SeeDB recommendations over HTTP/JSON.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--csv", help="load a CSV file as the fact table")
    source.add_argument(
        "--dataset",
        choices=available_datasets(),
        help="use a built-in demo dataset",
    )
    parser.add_argument(
        "--backend",
        default="memory",
        metavar="URI",
        help="DBMS backend to serve from: "
        + ", ".join(available_backend_schemes())
        + " (bare name or URI, e.g. duckdb:///file.db)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8080, help="bind port (0 picks a free one)"
    )
    parser.add_argument("--k", type=int, default=5, help="default views per request")
    parser.add_argument(
        "--metric",
        default="js",
        choices=available_metrics(),
        help="default deviation metric",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="worker *processes* for the sharded cluster tier (0 = serve "
        "from threads in this process; N >= 1 spawns N process shards "
        "with consistent-hash routing; results return on each worker's "
        "reply pipe)",
    )
    parser.add_argument(
        "--query-workers",
        type=int,
        default=1,
        help="parallel query workers per request (within one execution)",
    )
    parser.add_argument(
        "--max-requests",
        type=int,
        default=8,
        help="concurrent request executions the service schedules",
    )
    parser.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable identical in-flight request coalescing",
    )
    parser.add_argument(
        "--result-cache",
        type=int,
        default=256,
        help="finished-result LRU entries (0 disables)",
    )
    return parser


def serve_main(argv: "list[str] | None" = None) -> int:
    """``seedb serve`` entry point: load data, start the HTTP frontend.

    With ``--workers N`` (N >= 1) the service is a
    :class:`~repro.service.ClusterService` — the worker pool is started
    *before* any server thread exists, which keeps process forking safe —
    and SIGTERM/SIGINT drain gracefully: stop accepting, finish in-flight
    requests, join every worker, close backend replicas.
    """
    import signal
    import threading

    from repro.frontend.server import make_server
    from repro.service import ClusterService, SeeDBService

    args = build_serve_parser().parse_args(argv)
    service = None
    backend = None
    try:
        table = read_csv(args.csv) if args.csv else load_dataset(args.dataset)
        backend = backend_from_uri(args.backend)
        backend.register_table(table)
        config = SeeDBConfig(
            metric=args.metric, k=args.k, n_workers=args.query_workers
        )
        service_kwargs = dict(
            max_workers=args.max_requests,
            coalesce_requests=not args.no_coalesce,
            result_cache_size=args.result_cache,
        )
        if args.workers > 0:
            service = ClusterService(workers=args.workers, **service_kwargs)
        else:
            service = SeeDBService(**service_kwargs)
        service.register_backend(
            "default", backend, config=config, owned=True
        )
        if args.workers > 0:
            service.start()  # before the HTTP server spawns threads
        server = make_server(service, host=args.host, port=args.port)
    except (ReproError, OSError) as error:
        # Tear down whatever was built: an owned SqliteBackend holds a
        # temp database file that must not outlive a failed start.
        if service is not None:
            service.close()
        elif backend is not None:
            close = getattr(backend, "close", None)
            if close is not None:
                close()
        print(f"error: {error}", file=sys.stderr)
        return 2
    # Graceful drain on SIGTERM/SIGINT: serve_forever unblocks (shutdown
    # must come from another thread), then the finally block finishes
    # in-flight requests, joins workers, and closes backend replicas.
    # Handlers go in BEFORE the banner: supervisors (and tests) treat the
    # banner as "ready", and a SIGTERM racing the last few statements of
    # startup must drain, not hit the default action mid-setup.
    stopping = threading.Event()

    def _request_stop(signum, frame):  # noqa: ARG001 - signal API
        if not stopping.is_set():
            stopping.set()
            print(f"\nreceived {signal.Signals(signum).name}, draining", flush=True)
            threading.Thread(target=server.shutdown, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)
    except ValueError:
        pass  # not the main thread (embedded runs manage their own lifecycle)

    host, port = server.server_address[:2]
    tier = f"{args.workers} worker processes" if args.workers > 0 else "threads"
    print(
        f"seedb serving {table.name!r} ({args.backend}, {tier}) "
        f"on http://{host}:{port}"
    )
    print(
        "endpoints: POST /recommend  GET /dashboard?table=…  "
        "GET /views?table=…  GET /healthz  GET /stats"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
        service.close()
        print("drained; workers joined; backends closed", flush=True)
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "lint":
        # The invariant lint suite (lock order, guarded fields, counter
        # accounting, cancellation coverage, wire-schema drift).
        from repro.analysis.__main__ import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    backend = None
    seedb = None
    try:
        if args.csv:
            table = read_csv(args.csv)
        else:
            table = load_dataset(args.dataset)
        backend = backend_from_uri(args.backend)
        backend.register_table(table)

        # Everything the flags describe folds into one declarative
        # RecommendationRequest — the same object the HTTP API accepts.
        reference = Reference.from_dict(args.reference)
        if args.template:
            params = _parse_template_args(args.template_arg)
            request = RecommendationRequest(
                target=build_template(args.template, table, **params),
                reference=reference,
            )
        else:
            request = RecommendationRequest.from_sql(args.sql, reference=reference)

        config = SeeDBConfig(
            metric=args.metric,
            k=args.k,
            sample_fraction=args.sample_fraction,
            n_workers=args.workers,
        )
        seedb = SeeDB(backend, config)
        if args.stream:
            result = None
            for partial in seedb.recommend_iter(request):
                if partial.is_final:
                    result = partial.result
                    continue
                top = partial.recommendations[0] if partial.recommendations else None
                print(
                    f"round {partial.round}/{partial.n_rounds}: "
                    f"{partial.views_alive} alive, "
                    f"{partial.views_pruned} pruned"
                    + (
                        f"; current top {top.spec.label!r} "
                        f"(utility≈{top.utility:.4f})"
                        if top is not None
                        else ""
                    )
                )
            print()
        else:
            result = seedb.recommend(request)

        print(result.summary())

        if args.charts:
            schema = backend.schema(result.table)
            for view in result.recommendations:
                dimension_spec = (
                    schema[view.spec.dimension]
                    if view.spec.dimension in schema
                    else None
                )
                print()
                print(render_ascii(view_to_chart_spec(view, dimension_spec)))

        if args.show_bad_views:
            print("\nlowest-utility views (not recommended):")
            for view in result.worst_views():
                print(f"  {view.spec.label}: utility={view.utility:.4f}")

        if args.export:
            schema = backend.schema(result.table)
            paths = export_recommendations(result, args.export, schema)
            print(f"\nwrote {len(paths)} chart files to {args.export}")

        if args.html:
            from repro.viz.html_report import write_html_report

            schema = backend.schema(result.table)
            path = write_html_report(result, args.html, schema)
            print(f"wrote HTML report to {path}")
        return 0
    except (ReproError, TypeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        # Success or not, file-backed backends (sqlite/duckdb) hold
        # connections and possibly an owned temp database file.
        if seedb is not None:
            seedb.close()
        if backend is not None:
            backend.close()


def _parse_template_args(pairs: "list[str]") -> dict:
    """Parse repeated KEY=VALUE flags, auto-converting numerics."""
    params = {}
    for pair in pairs:
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            raise ReproError(
                f"--template-arg expects KEY=VALUE, got {pair!r}"
            )
        value: object = raw
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                pass
        params[key] = value
    return params


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
