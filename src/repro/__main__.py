"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — build any registered scheme, drive any named workload
  against it, and print the measured metrics.
* ``serve`` — run N concurrent client sessions against a scheme through
  the request scheduler and print throughput + latency percentiles.
* ``cluster`` — deploy a scheme as N shard groups x R replicas with
  failover and print load balance, tails and the cluster-wide budget.
* ``experiments`` — run the E1..E14 claim tables (all or a subset).
* ``audit`` — run a cluster workload with an ε-budget timeline attached
  and report cumulative spend against a cap (first crossing flagged).
* ``bounds`` — evaluate the paper's lower bounds for given parameters,
  answering the title question for your workload.
* ``lint`` — run the privacy & determinism linter (``repro.lint``)
  over the source tree and fail on unbaselined findings.
* ``demo`` — a one-minute tour of the three constructions.
"""

from __future__ import annotations

import argparse
import math
import sys


def _observability(args: argparse.Namespace):
    """Build (tracer, registry) from the shared --trace/--metrics flags."""
    from repro.obs import MetricsRegistry, Tracer

    tracer = (
        Tracer(args.command) if getattr(args, "trace", None) else None
    )
    registry = MetricsRegistry() if getattr(args, "metrics", False) else None
    return tracer, registry


def _emit_observability(args: argparse.Namespace, tracer, registry) -> None:
    """Write the trace JSON and emit the metrics export."""
    import json

    if tracer is not None:
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump(tracer.export(), handle, indent=2)
            handle.write("\n")
        print(f"trace written to {args.trace} "
              f"({len(tracer.spans())} spans)", file=sys.stderr)
    if registry is not None:
        destination = getattr(args, "metrics", False)
        if isinstance(destination, str):
            with open(destination, "w", encoding="utf-8") as handle:
                json.dump(registry.to_json(), handle, indent=2)
                handle.write("\n")
            print(f"metrics written to {destination} "
                  f"({len(registry.collect())} series)", file=sys.stderr)
        else:
            print(registry.to_prometheus(), end="")


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a deterministic span trace and write it as JSON",
    )
    parser.add_argument(
        "--metrics", nargs="?", const=True, default=False, metavar="PATH",
        help="collect metrics; bare prints Prometheus text, with PATH "
             "writes the JSON export there",
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.storage.errors import ReproError

    try:
        return _cmd_run_checked(args)
    except (ReproError, ValueError) as exc:
        # User-level configuration mistakes (unknown scheme/workload/
        # network, invalid sizes) get a message, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_run_checked(args: argparse.Namespace) -> int:
    from repro.api import available_schemes, build, scheme_spec
    from repro.crypto.rng import SeededRandomSource, SystemRandomSource
    from repro.simulation.harness import run_trace, simulated_network_ms
    from repro.simulation.reporting import format_table, latency_rows
    from repro.workloads import catalogue

    if args.list:
        rows = [
            [name, scheme_spec(name).kind, scheme_spec(name).summary]
            for name in available_schemes()
        ]
        print(format_table(["scheme", "kind", "summary"], rows,
                           title="Registered schemes"))
        return 0
    spec = scheme_spec(args.scheme)
    rng = (
        SeededRandomSource(args.seed)
        if args.seed is not None
        else SystemRandomSource()
    )
    build_kwargs: dict = {
        "n": args.n,
        "rng": rng.spawn("scheme"),
        "backend": args.backend,
    }
    if args.network is not None:
        build_kwargs["network"] = args.network
    if spec.kind == "kvs":
        build_kwargs["value_size"] = args.value_size
        workload = args.workload
        if workload in catalogue.INDEX_WORKLOADS:
            # Index workloads have a natural KV analogue: a mixed
            # insert/lookup stream over the same operation budget.
            workload = "insert-lookup"
        trace = catalogue.kv_trace(
            workload, args.n, args.ops, rng.spawn("trace"),
            value_size=args.value_size,
        )
    else:
        workload = args.workload
        if workload in catalogue.KV_WORKLOADS:
            print(f"workload {workload!r} needs a KVS scheme", file=sys.stderr)
            return 1
        if spec.kind == "ir" and workload == "readwrite":
            print("IR schemes are read-only; pick another workload",
                  file=sys.stderr)
            return 1
        trace = catalogue.index_trace(
            workload, args.n, args.ops, rng.spawn("trace"),
            write_fraction=args.write_fraction,
        )
    scheme = build(args.scheme, **build_kwargs)
    if workload == "readwrite" and not getattr(scheme, "writable", True):
        print(f"scheme {args.scheme!r} is read-only; pick a read workload",
              file=sys.stderr)
        return 1
    tracer, registry = _observability(args)
    if tracer is not None or registry is not None:
        from repro.obs import instrument_scheme

        instrument_scheme(scheme, tracer=tracer, registry=registry)

    if spec.kind == "kvs":
        metrics = run_trace(scheme, trace)
    else:
        # The builders load integer_database(n) by default, so the same
        # database doubles as the correctness reference.
        from repro.storage.blocks import integer_database

        database = integer_database(args.n)
        if spec.kind == "ir":
            metrics = run_trace(scheme, trace, expected=database)
        else:
            metrics = run_trace(scheme, trace, initial=database)

    rows = [
        ["scheme", args.scheme],
        ["workload", trace.name],
        ["operations", metrics.operations],
        ["blocks downloaded", metrics.blocks_downloaded],
        ["blocks uploaded", metrics.blocks_uploaded],
        ["blocks / operation", f"{metrics.blocks_per_operation:.2f}"],
        ["errors (alpha events)", metrics.errors],
        ["mismatches", metrics.mismatches],
        ["client peak blocks",
         "stateless" if metrics.client_peak_blocks is None
         else metrics.client_peak_blocks],
        ["elapsed seconds", f"{metrics.elapsed_seconds:.3f}"],
    ]
    simulated = simulated_network_ms(scheme)
    if simulated is not None:
        rows.append(["simulated network ms", f"{simulated:.1f}"])
    for name in sorted(metrics.fault_counters):
        rows.append([f"faults: {name}", metrics.fault_counters[name]])
    summary = metrics.latency_summary
    if summary is not None:
        rows.extend(latency_rows(summary))
    print(format_table(["metric", "value"], rows,
                       title=f"Run: {args.scheme} over {args.workload}"))
    if registry is not None:
        from repro.obs import collect_scheme_metrics

        collect_scheme_metrics(scheme, registry)
    _emit_observability(args, tracer, registry)
    if metrics.mismatches:
        print("correctness mismatches detected!", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.storage.errors import ReproError

    try:
        return _cmd_serve_checked(args)
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_serve_checked(args: argparse.Namespace) -> int:
    import json

    from repro.api import scheme_spec
    from repro.serving import ServingConfig, serve

    # Validate the scheme spelling up front: unknown names exit 2 with
    # the registry catalogue (ValueError above) and can never surface
    # as a raw KeyError from some deeper lookup.
    scheme_spec(args.scheme)

    tracer, registry = _observability(args)
    config = ServingConfig.from_cli_args(
        args, tracer=tracer, metrics_registry=registry
    )
    report = serve(args.scheme, config)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.to_text())
    _emit_observability(args, tracer, registry)
    if report.leakage_tripped:
        for leakage in report.leakage:
            if leakage.tripped:
                print(f"leakage monitor tripped: {leakage.to_text()}",
                      file=sys.stderr)
        return 1
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.storage.errors import ReproError

    try:
        return _cmd_cluster_checked(args)
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_cluster_checked(args: argparse.Namespace) -> int:
    import json

    from repro.api import scheme_spec, schemes
    from repro.cluster import ClusterConfig, cluster
    from repro.simulation.reporting import format_table

    if not args.list:
        # Validate the scheme spelling up front (unknown names exit 2
        # with the catalogue, never a raw KeyError traceback).
        scheme_spec(args.scheme)

    if args.list:
        rows = [
            [listing.name, listing.kind,
             ", ".join(listing.aliases) or "-", listing.summary]
            for listing in schemes()
            if listing.kind in ("ir", "kvs")
        ]
        print(format_table(
            ["scheme", "kind", "aliases", "summary"], rows,
            title="Cluster-capable base schemes (IR and KVS)",
        ))
        return 0

    tracer, registry = _observability(args)
    config = ClusterConfig.from_cli_args(
        args, tracer=tracer, metrics_registry=registry
    )
    report = cluster(args.scheme, config)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.to_text())
    _emit_observability(args, tracer, registry)
    if report.mismatches:
        print("correctness mismatches detected!", file=sys.stderr)
        return 1
    if report.leakage_tripped:
        for leakage in report.leakage:
            if leakage.tripped:
                print(f"leakage monitor tripped: {leakage.to_text()}",
                      file=sys.stderr)
        return 1
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.simulation import experiments

    selected = []
    wanted = {name.upper() for name in args.only} if args.only else None
    for driver in experiments.ALL_EXPERIMENTS:
        table = None
        if wanted is not None:
            # Resolve the experiment id lazily from the driver name,
            # e.g. experiment_e06_dpram_construction -> E06/E6.
            token = driver.__name__.split("_")[1].upper()  # 'E06', 'E11B'
            normalized = token.lstrip("E").lstrip("0")
            if token not in wanted and f"E{normalized}" not in wanted:
                continue
        table = driver()
        selected.append(table)
    if not selected:
        print("no experiments matched", file=sys.stderr)
        return 1
    renderer = (lambda t: t.to_markdown()) if args.markdown else (
        lambda t: t.to_text()
    )
    print("\n\n".join(renderer(table) for table in selected))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.storage.errors import ReproError

    try:
        return _cmd_audit_checked(args)
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_audit_checked(args: argparse.Namespace) -> int:
    import json
    from fractions import Fraction

    from repro.api import scheme_spec
    from repro.cluster import ClusterConfig, cluster
    from repro.obs import BudgetTimeline

    scheme_spec(args.scheme)

    # The cap lives on the *timeline*, not the cluster ledger: the run
    # completes and the audit flags the first crossing instead of dying
    # on a BudgetExceededError mid-workload.  Fraction(str(...)) keeps a
    # decimal cap like 0.5 (or a rational like 7/3) exact rather than
    # its float image.
    cap = Fraction(str(args.cap)) if args.cap is not None else None
    timeline = BudgetTimeline(cap=cap)
    config = ClusterConfig.from_cli_args(args, timeline=timeline)
    report = cluster(args.scheme, config)

    slo_report = None
    if args.slo:
        from repro.obs import evaluate_slo

        if args.slo_budget is not None:
            slo_budget = Fraction(str(args.slo_budget))
        elif cap is not None:
            slo_budget = cap
        else:
            raise ValueError("--slo needs --slo-budget or --cap")
        slo_report = evaluate_slo(
            timeline,
            budget=slo_budget,
            horizon=args.slo_horizon,
            fast_window=args.slo_fast_window,
            slow_window=args.slo_slow_window,
            fast_burn=Fraction(str(args.slo_fast_burn)),
            slow_burn=Fraction(str(args.slo_slow_burn)),
        )

    if args.json:
        payload = timeline.to_dict()
        if slo_report is not None:
            payload["slo"] = slo_report.to_dict()
        print(json.dumps(payload, indent=2))
    elif args.timeline:
        print(timeline.to_text())
        if slo_report is not None:
            print(slo_report.to_text())
    else:
        per_operator = timeline.per_operator()
        print(f"audit: {report.requests} requests over "
              f"{args.shards} shards ({len(timeline.events)} charges)")
        print(f"  total epsilon spent: {float(timeline.total_spent):.4f}")
        for operator in sorted(per_operator):
            print(f"  {operator}: "
                  f"{float(per_operator[operator]):.4f}")
        if cap is not None and timeline.first_crossing is None:
            print(f"  cap {float(cap):.4f}: never crossed")
        if slo_report is not None:
            print(slo_report.to_text())
    crossing = timeline.first_crossing
    if crossing is not None:
        print(
            f"budget cap crossed at charge #{crossing.sequence} "
            f"(operator {crossing.operator}, epoch {crossing.epoch})",
            file=sys.stderr,
        )
        return 1
    if slo_report is not None and slo_report.breached:
        for alert in slo_report.alerts:
            print(
                f"slo burn-rate alert: {alert.scope} at charge "
                f"#{alert.sequence} (fast {float(alert.fast_rate):.1f}x, "
                f"slow {float(alert.slow_rate):.1f}x)",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    import json

    from repro.obs import diff_traces

    if args.tolerance < 0:
        print("error: --tolerance must be >= 0", file=sys.stderr)
        return 2
    payloads = []
    for path in (args.trace_a, args.trace_b):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payloads.append(json.load(handle))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read trace {path}: {exc}", file=sys.stderr)
            return 2
    diff = diff_traces(payloads[0], payloads[1], tolerance=args.tolerance)
    if args.json:
        print(json.dumps(diff.to_dict(), indent=2))
    else:
        print(diff.to_text())
    return 0 if diff.identical else 1


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        DEFAULT_STRAGGLER_THRESHOLD,
        profile_to_text,
        summary_to_text,
        trace_profile,
        trace_summary,
    )

    try:
        with open(args.trace, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read trace {args.trace}: {exc}",
              file=sys.stderr)
        return 2
    try:
        if args.profile:
            profile = trace_profile(payload)
            if args.json:
                print(json.dumps(profile, indent=2))
            else:
                print(profile_to_text(profile))
            return 0
        threshold = (
            args.straggler_threshold
            if args.straggler_threshold is not None
            else DEFAULT_STRAGGLER_THRESHOLD
        )
        summary = trace_summary(payload, straggler_threshold=threshold)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(summary_to_text(summary))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    from repro.analysis import bounds

    n = args.n
    print(f"n = {n}, alpha = {args.alpha}, client blocks = {args.client}")
    print(f"  errorless DP-IR floor (Thm 3.3): "
          f"{bounds.dp_ir_errorless_lower_bound(n):.0f} blocks/query")
    eps_ir = bounds.min_epsilon_for_ir_bandwidth(n, args.bandwidth, args.alpha)
    eps_ram = bounds.min_epsilon_for_ram_bandwidth(n, args.bandwidth,
                                                   args.client)
    print(f"  at {args.bandwidth} blocks/query:")
    print(f"    DP-IR needs  eps >= {eps_ir:.2f}  "
          f"({eps_ir / math.log(n):.2f} x ln n)   [Thm 3.4]")
    print(f"    DP-RAM needs eps >= {eps_ram:.2f}  "
          f"({eps_ram / math.log(n):.2f} x ln n)   [Thm 3.7]")
    print("  -> with small overhead, eps = Theta(log n) is the best "
          "achievable privacy (the paper's answer).")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint

    return run_lint(args)


def _cmd_demo(args: argparse.Namespace) -> int:
    del args
    from repro import DPIR, DPKVS, DPRAM, SeededRandomSource
    from repro.storage.blocks import integer_database

    rng = SeededRandomSource(0)
    n = 512
    database = integer_database(n)

    ram = DPRAM(database, rng=rng.spawn("ram"))
    ram.read(1)
    ram.write(1, b"hello".ljust(64, b"\x00"))
    print(f"DP-RAM  : 2 ops -> {ram.server.operations} block transfers "
          f"({ram.server.operations / 2:.0f}/query), stash={ram.stash_size}")

    ir = DPIR(database, epsilon=math.log(n), alpha=0.05, rng=rng.spawn("ir"))
    answer = ir.query(5)
    print(f"DP-IR   : pad K={ir.pad_size}, exact eps={ir.epsilon:.2f}, "
          f"query(5) -> {'ok' if answer is not None else 'error (alpha)'}")

    kv = DPKVS(n, rng=rng.spawn("kv"))
    kv.put(b"k", b"v")
    print(f"DP-KVS  : blocks/op={kv.blocks_per_operation()}, "
          f"server nodes={kv.server_node_count} (~"
          f"{kv.server_node_count / n:.2f} n), get(k)="
          f"{kv.get(b'k').rstrip(bytes(1))!r}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DP storage access (Patel-Persiano-Yeo, PODS 2019) "
                    "— reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run",
        help="build a registered scheme and drive a named workload",
    )
    run_parser.add_argument(
        "--scheme", default="dp_ram",
        help="registry name (see --list); default dp_ram",
    )
    run_parser.add_argument(
        "--workload", default="uniform",
        help="workload name: uniform, sequential, zipf, hotspot, "
             "readwrite (RAM), ycsb-a/b/c, insert-lookup (KVS)",
    )
    run_parser.add_argument("--n", type=int, default=1024,
                            help="database size / key capacity (default 1024)")
    run_parser.add_argument("--ops", type=int, default=200,
                            help="operations to run (default 200)")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="deterministic randomness seed")
    run_parser.add_argument("--value-size", type=int, default=32,
                            help="KVS value size in bytes (default 32)")
    run_parser.add_argument("--write-fraction", type=float, default=0.5,
                            help="write fraction for the readwrite workload")
    run_parser.add_argument("--backend", default=None,
                            choices=("memory", "slab", "network"),
                            help="slot-storage backend (default memory; "
                                 "slab packs fixed-size blocks into one "
                                 "contiguous buffer)")
    run_parser.add_argument("--network", default=None,
                            choices=("lan", "wan", "mobile"),
                            help="link model for the network backend")
    run_parser.add_argument("--list", action="store_true",
                            help="list registered schemes and exit")
    _add_observability_arguments(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    serve_parser = commands.add_parser(
        "serve",
        help="serve N concurrent client sessions through a scheduler",
    )
    serve_parser.add_argument(
        "--scheme", default="dp_ir",
        help="registry name; hyphenated aliases like batch-dpir accepted",
    )
    serve_parser.add_argument("--clients", type=int, default=8,
                              help="concurrent tenant sessions (default 8)")
    serve_parser.add_argument("--requests", type=int, default=32,
                              help="requests per client (default 32)")
    serve_parser.add_argument("--scheduler", default="window",
                              choices=("fifo", "window", "continuous"),
                              help="dispatch policy (default window; "
                                   "'continuous' pipelines dispatch groups "
                                   "with admission control)")
    serve_parser.add_argument("--window-ms", type=float, default=2.0,
                              help="batching window in ms (default 2)")
    serve_parser.add_argument("--max-batch", type=int, default=16,
                              help="dispatch group size cap (default 16)")
    serve_parser.add_argument("--max-in-flight", type=int, default=4,
                              help="concurrent dispatch groups for the "
                                   "continuous scheduler (default 4)")
    serve_parser.add_argument("--tenant-credits", type=int, default=None,
                              help="per-tenant outstanding-request cap for "
                                   "the continuous scheduler (default: "
                                   "admission control off)")
    serve_parser.add_argument("--queue-cap", type=int, default=None,
                              help="global pending-queue cap for the "
                                   "continuous scheduler (default: off)")
    serve_parser.add_argument("--load", default="open",
                              choices=("open", "closed"),
                              help="open-loop Poisson or closed-loop think")
    serve_parser.add_argument("--rate", type=float, default=100.0,
                              help="open-loop arrivals/s per client")
    serve_parser.add_argument("--think-ms", type=float, default=5.0,
                              help="closed-loop mean think time in ms")
    serve_parser.add_argument(
        "--workload", default="uniform",
        help="per-tenant trace: uniform, sequential, zipf, hotspot, "
             "readwrite (RAM), ycsb-a/b/c (KVS)",
    )
    serve_parser.add_argument("--n", type=int, default=1024,
                              help="database size / key capacity")
    serve_parser.add_argument("--seed", type=int, default=None,
                              help="deterministic randomness seed")
    serve_parser.add_argument("--network", default="lan",
                              choices=("lan", "wan", "mobile"),
                              help="link model pricing simulated time")
    serve_parser.add_argument("--backend", default=None,
                              choices=("memory", "slab", "network"),
                              help="slot-storage backend override "
                                   "(default: scheme default; slab packs "
                                   "blocks into one contiguous buffer)")
    serve_parser.add_argument("--value-size", type=int, default=32,
                              help="KVS value size in bytes (default 32)")
    serve_parser.add_argument("--executor", default=None,
                              choices=("serial", "parallel", "simulated"),
                              help="cross-shard fan-out policy for "
                                   "cluster schemes (default serial)")
    serve_parser.add_argument("--monitor", action="store_true",
                              help="attach online leakage monitors; exit 1 "
                                   "if empirical adversary success exceeds "
                                   "the eps-implied ceiling")
    serve_parser.add_argument("--json", action="store_true",
                              help="emit the report as JSON")
    _add_observability_arguments(serve_parser)
    serve_parser.set_defaults(handler=_cmd_serve)

    cluster_parser = commands.add_parser(
        "cluster",
        help="deploy a scheme as N shard groups x R replicas with failover",
    )
    cluster_parser.add_argument(
        "--scheme", default="dp_ir",
        help="base scheme each shard group hosts (IR or KVS; see --list)",
    )
    cluster_parser.add_argument("--shards", type=int, default=4,
                                help="shard groups D (default 4)")
    cluster_parser.add_argument("--replicas", type=int, default=2,
                                help="replicas per group R (default 2)")
    cluster_parser.add_argument("--n", type=int, default=1024,
                                help="database size / key capacity")
    cluster_parser.add_argument("--requests", type=int, default=256,
                                help="operations to drive (default 256)")
    cluster_parser.add_argument(
        "--workload", default="uniform",
        help="trace shape: uniform, sequential, zipf, hotspot (IR); "
             "ycsb-a/b/c, insert-lookup (KVS)",
    )
    cluster_parser.add_argument("--placement", default="range",
                                choices=("range", "hash"),
                                help="shard placement policy (IR clusters)")
    cluster_parser.add_argument("--epsilon", type=float, default=None,
                                help="cluster-wide privacy target "
                                     "(default ln n)")
    cluster_parser.add_argument("--pad-size", type=int, default=None,
                                help="explicit global pad size K")
    cluster_parser.add_argument("--alpha", type=float, default=0.05,
                                help="per-query error probability")
    cluster_parser.add_argument("--no-auth", action="store_true",
                                help="store plaintext instead of "
                                     "authenticated ciphertexts")
    cluster_parser.add_argument("--failure-rate", type=float, default=0.0,
                                help="flaky-node rate per replica")
    cluster_parser.add_argument("--corruption-rate", type=float, default=0.0,
                                help="bit-flip rate per replica")
    cluster_parser.add_argument("--value-size", type=int, default=32,
                                help="KVS value size in bytes (default 32)")
    cluster_parser.add_argument("--seed", type=int, default=None,
                                help="deterministic randomness seed")
    cluster_parser.add_argument("--network", default="lan",
                                choices=("lan", "wan", "mobile"),
                                help="link model pricing simulated time")
    cluster_parser.add_argument("--backend", default=None,
                                choices=("memory", "slab", "network"),
                                help="per-replica slot-storage backend "
                                     "(default memory; slab packs blocks "
                                     "into one contiguous buffer)")
    cluster_parser.add_argument("--executor", default="serial",
                                choices=("serial", "parallel", "simulated"),
                                help="cross-shard fan-out policy "
                                     "(default serial)")
    cluster_parser.add_argument("--batch", type=int, default=1,
                                help="requests dispatched per round; a "
                                     "round spanning several shards is "
                                     "what a parallel executor overlaps "
                                     "(default 1)")
    cluster_parser.add_argument("--fault-coins", default="per_slot",
                                choices=("per_slot", "per_round"),
                                help="fault-coin granularity for injected "
                                     "faults (default per_slot)")
    cluster_parser.add_argument("--monitor", action="store_true",
                                help="attach online leakage monitors "
                                     "(membership + shard routing); exit 1 "
                                     "if empirical success exceeds the "
                                     "eps-implied ceiling")
    cluster_parser.add_argument("--json", action="store_true",
                                help="emit the report as JSON")
    cluster_parser.add_argument("--list", action="store_true",
                                help="list cluster-capable base schemes "
                                     "(names + aliases) and exit")
    _add_observability_arguments(cluster_parser)
    cluster_parser.set_defaults(handler=_cmd_cluster)

    audit_parser = commands.add_parser(
        "audit",
        help="run a cluster workload with an eps-budget timeline attached",
    )
    audit_parser.add_argument(
        "--scheme", default="dp_ir",
        help="base scheme each shard group hosts (IR or KVS)",
    )
    audit_parser.add_argument("--shards", type=int, default=4,
                              help="shard groups D (default 4)")
    audit_parser.add_argument("--replicas", type=int, default=1,
                              help="replicas per group R (default 1)")
    audit_parser.add_argument("--n", type=int, default=1024,
                              help="database size / key capacity")
    audit_parser.add_argument("--requests", type=int, default=64,
                              help="operations to drive (default 64)")
    audit_parser.add_argument("--workload", default="uniform",
                              help="trace shape (uniform, zipf, ...)")
    audit_parser.add_argument("--epsilon", type=float, default=None,
                              help="cluster-wide privacy target "
                                   "(default ln n)")
    audit_parser.add_argument("--pad-size", type=int, default=None,
                              help="explicit global pad size K")
    audit_parser.add_argument("--seed", type=int, default=None,
                              help="deterministic randomness seed")
    audit_parser.add_argument("--executor", default="serial",
                              choices=("serial", "parallel", "simulated"),
                              help="cross-shard fan-out policy")
    audit_parser.add_argument("--batch", type=int, default=1,
                              help="requests dispatched per round")
    audit_parser.add_argument("--cap", default=None, metavar="EPS",
                              help="budget cap to audit cumulative spend "
                                   "against (flags the first crossing); "
                                   "decimals and rationals like 7/3 stay "
                                   "exact")
    audit_parser.add_argument("--timeline", action="store_true",
                              help="plot the cumulative spend timeline")
    audit_parser.add_argument("--slo", action="store_true",
                              help="evaluate the two-window eps burn-rate "
                                   "SLO (per tenant and per operator); "
                                   "exit 1 on a breach")
    audit_parser.add_argument("--slo-budget", default=None, metavar="EPS",
                              help="SLO budget (exact; defaults to --cap)")
    audit_parser.add_argument("--slo-horizon", type=int, default=None,
                              help="SLO period in spend events "
                                   "(default: the run length)")
    audit_parser.add_argument("--slo-fast-window", type=int, default=None,
                              help="fast window in events "
                                   "(default horizon/50)")
    audit_parser.add_argument("--slo-slow-window", type=int, default=None,
                              help="slow window in events "
                                   "(default horizon/10)")
    audit_parser.add_argument("--slo-fast-burn", default="14",
                              metavar="RATE",
                              help="fast-window burn threshold (default 14)")
    audit_parser.add_argument("--slo-slow-burn", default="6",
                              metavar="RATE",
                              help="slow-window burn threshold (default 6)")
    audit_parser.add_argument("--json", action="store_true",
                              help="emit the timeline (and SLO) as JSON")
    audit_parser.set_defaults(handler=_cmd_audit)

    diff_parser = commands.add_parser(
        "trace-diff",
        help="structurally compare two exported traces (regression gate)",
    )
    diff_parser.add_argument("trace_a", metavar="A.json",
                             help="baseline trace JSON")
    diff_parser.add_argument("trace_b", metavar="B.json",
                             help="candidate trace JSON")
    diff_parser.add_argument("--tolerance", type=float, default=1e-6,
                             help="relative tolerance for simulated-time "
                                  "fields and numeric labels "
                                  "(default 1e-6)")
    diff_parser.add_argument("--json", action="store_true",
                            help="emit the diff as JSON")
    diff_parser.set_defaults(handler=_cmd_trace_diff)

    summary_parser = commands.add_parser(
        "trace-summary",
        help="summarize an exported trace (fan-out rounds, stragglers, "
             "or a --profile cost attribution)",
    )
    summary_parser.add_argument("trace", metavar="TRACE.json",
                                help="exported trace JSON")
    summary_parser.add_argument("--profile", action="store_true",
                                help="self-vs-child cost attribution with "
                                     "critical-path share instead of the "
                                     "round summary")
    summary_parser.add_argument(
        "--straggler-threshold", type=float, default=None, metavar="RATIO",
        help="flag rounds whose slowest leg costs at least RATIO times "
             "the mean leg (default 1.5)",
    )
    summary_parser.add_argument("--json", action="store_true",
                                help="emit the summary as JSON")
    summary_parser.set_defaults(handler=_cmd_trace_summary)

    experiments_parser = commands.add_parser(
        "experiments", help="run the claim-table experiments"
    )
    experiments_parser.add_argument(
        "--only", nargs="*", metavar="EXP",
        help="experiment ids to run (e.g. E3 E11b); default: all",
    )
    experiments_parser.add_argument(
        "--markdown", action="store_true", help="emit markdown tables"
    )
    experiments_parser.set_defaults(handler=_cmd_experiments)

    bounds_parser = commands.add_parser(
        "bounds", help="evaluate the lower bounds for your parameters"
    )
    bounds_parser.add_argument("--n", type=int, default=2**20,
                               help="database size (default 2^20)")
    bounds_parser.add_argument("--bandwidth", type=float, default=3.0,
                               help="blocks per query you can afford")
    bounds_parser.add_argument("--alpha", type=float, default=0.05,
                               help="tolerable error probability")
    bounds_parser.add_argument("--client", type=int, default=64,
                               help="client storage in blocks")
    bounds_parser.set_defaults(handler=_cmd_bounds)

    lint_parser = commands.add_parser(
        "lint",
        help="run the privacy & determinism linter over the source tree",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint_parser)
    lint_parser.set_defaults(handler=_cmd_lint)

    demo_parser = commands.add_parser("demo", help="one-minute tour")
    demo_parser.set_defaults(handler=_cmd_demo)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - entry point
    raise SystemExit(main())
