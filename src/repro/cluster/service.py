"""``cluster()``: registry-driven construction and run of a deployment.

The one-call entry point behind ``repro.cluster`` and the
``python -m repro cluster`` CLI subcommand: build a sharded + replicated
cluster around any registered IR or KVS base scheme, drive a workload
trace through it, and report ops/request, tail latency (priced by the
network model), per-shard load balance, failover totals and the
cluster-wide privacy budget::

    import repro
    from repro.cluster import ClusterConfig

    report = repro.cluster("dp_ir", ClusterConfig(shards=4, replicas=2,
                                                  seed=7))
    print(report.to_text())
    print(report.ops_per_request, report.budget.per_query_epsilon)
"""

from __future__ import annotations

from repro.api.registry import resolve_scheme_name, scheme_spec
from repro.cluster.config import ClusterConfig
from repro.cluster.report import (
    ClusterReport,
    ShardReport,
    extra_percentiles,
    jain_index,
)
from repro.cluster.scheme import ClusterIR, ClusterKVS
from repro.crypto.rng import SeededRandomSource, SystemRandomSource
from repro.obs.instrument import instrument_scheme
from repro.obs.metrics import collect_scheme_metrics
from repro.obs.monitor import SchemeWatch, default_monitors, watch_scheme
from repro.simulation.metrics import LatencySummary
from repro.storage.blocks import integer_database
from repro.storage.faults import scheme_fault_counters
from repro.workloads import catalogue


def _chunks(items: list, size: int) -> list[list]:
    return [items[start:start + size] for start in range(0, len(items), size)]


def cluster(
    scheme: str = "dp_ir",
    config: ClusterConfig | None = None,
    /,
) -> ClusterReport:
    """Run a workload against a sharded + replicated cluster.

    Args:
        scheme: registry name of the *base* scheme each shard group
            hosts (IR or KVS; hyphenated aliases accepted).
        config: the run's :class:`~repro.cluster.config.ClusterConfig`
            (defaults when omitted); see the config class for every
            knob (shards, replicas, fault rates, executor, batching,
            observability sinks, …).

    Returns:
        The run's :class:`~repro.cluster.report.ClusterReport`.
    """
    if config is None:
        config = ClusterConfig()
    from repro.api.builders import resolve_network

    shards = config.shards
    replicas = config.replicas
    n = config.n
    requests = config.requests
    workload = config.workload
    placement = config.placement
    epsilon = config.epsilon
    pad_size = config.pad_size
    alpha = config.alpha
    authenticated = config.authenticated
    failure_rate = config.failure_rate
    corruption_rate = config.corruption_rate
    block_size = config.block_size
    value_size = config.value_size
    seed = config.seed
    network = config.network
    executor = config.executor
    batch = config.batch
    percentiles = config.percentiles
    tracer = config.tracer
    metrics_registry = config.metrics_registry
    timeline = config.timeline
    fault_coin_mode = config.fault_coin_mode
    monitor = config.monitor
    base_kwargs = dict(config.base_kwargs)
    if config.backend is not None:
        # ClusterIR/ClusterKVS pass the factory (or its name) through to
        # every replica's base builder, which resolves strings itself.
        base_kwargs.setdefault("backend_factory", config.backend)

    base = resolve_scheme_name(scheme)
    spec = scheme_spec(base)
    if spec.kind == "ram":
        raise ValueError(
            f"cluster bases must be IR or KVS schemes; {base!r} is RAM"
        )
    root = (
        SeededRandomSource(seed) if seed is not None else SystemRandomSource()
    )
    model = resolve_network(network)

    if spec.kind == "ir":
        database = integer_database(n, block_size)
        instance = ClusterIR(
            database,
            base=base,
            shard_count=shards,
            replica_count=replicas,
            placement=placement,
            epsilon=epsilon,
            pad_size=pad_size,
            alpha=alpha,
            authenticated=authenticated,
            failure_rate=failure_rate,
            corruption_rate=corruption_rate,
            rng=root.spawn("cluster"),
            executor=executor,
            network=model,
            tracer=tracer,
            fault_coin_mode=fault_coin_mode,
            **base_kwargs,
        )
        trace = catalogue.index_trace(
            workload, n, requests, root.spawn("trace"), write_fraction=0.0,
        )
        operations = [op.index for op in trace]
        expected = database
    else:
        instance = ClusterKVS(
            n,
            base=base,
            shard_count=shards,
            replica_count=replicas,
            value_size=value_size,
            failure_rate=failure_rate,
            corruption_rate=corruption_rate,
            rng=root.spawn("cluster"),
            executor=executor,
            network=model,
            tracer=tracer,
            fault_coin_mode=fault_coin_mode,
            **base_kwargs,
        )
        # kv_trace itself aliases index-workload names to their KV analogue.
        trace = catalogue.kv_trace(
            workload, n, requests, root.spawn("trace"),
            value_size=value_size,
        )
        operations = list(trace)
        expected = None

    if tracer is not None or metrics_registry is not None:
        instrument_scheme(instance, tracer=tracer, registry=metrics_registry)
    if timeline is not None:
        instance.ledger.attach_timeline(timeline)
    watch: SchemeWatch | None = None
    if monitor:
        watch = watch_scheme(
            instance,
            default_monitors(instance, rng=root.spawn("monitor")),
        )

    try:
        per_op = model.rtt_ms + model.transfer_ms(instance.block_size)
        latencies: list[float] = []
        completed = 0
        errors = 0
        mismatches = 0
        last_wall = instance.wall_operations()
        if spec.kind == "ir":
            for chunk in _chunks(operations, batch):
                answers = (
                    instance.query_many(chunk) if len(chunk) > 1
                    else [instance.query(chunk[0])]
                )
                now_wall = instance.wall_operations()
                # A round's requests complete together at the round's
                # (overlap-accounted) wall-clock cost.
                round_ms = (now_wall - last_wall) * per_op
                last_wall = now_wall
                for index, answer in zip(chunk, answers):
                    latencies.append(round_ms)
                    completed += 1
                    if answer is None:
                        errors += 1
                    elif expected is not None and answer != expected[index]:
                        mismatches += 1
        else:
            from repro.workloads.kv_traces import KVOpKind

            reference: dict[bytes, bytes] = {}
            rounds: list[list] = []
            for operation in operations:
                if (
                    batch > 1
                    and operation.kind is KVOpKind.GET
                    and rounds
                    and rounds[-1][0].kind is KVOpKind.GET
                    and len(rounds[-1]) < batch
                ):
                    rounds[-1].append(operation)
                else:
                    rounds.append([operation])
            for round_ops in rounds:
                if round_ops[0].kind is KVOpKind.GET and len(round_ops) > 1:
                    answers = instance.get_many(
                        [operation.key for operation in round_ops]
                    )
                elif round_ops[0].kind is KVOpKind.GET:
                    answers = [instance.get(round_ops[0].key)]
                else:
                    instance.put(round_ops[0].key, round_ops[0].value)
                    reference[round_ops[0].key] = round_ops[0].value
                    answers = None
                now_wall = instance.wall_operations()
                round_ms = (now_wall - last_wall) * per_op
                last_wall = now_wall
                if answers is None:
                    latencies.append(round_ms)
                    completed += 1
                    continue
                for operation, answer in zip(round_ops, answers):
                    latencies.append(round_ms)
                    completed += 1
                    if answer != reference.get(operation.key):
                        mismatches += 1

    finally:
        if watch is not None:
            watch.unwatch()
        # Success or not, release any worker threads the
        # instance's own executor spawned (pool-backed executors
        # recreate them if the instance is reused).
        instance.close()

    if metrics_registry is not None:
        collect_scheme_metrics(instance, metrics_registry)
    loads = instance.shard_loads()
    budget = instance.ledger.report()
    assignment = (
        instance.router.assignment() if spec.kind == "ir" else None
    )
    shard_reports = []
    for shard, group in enumerate(instance.groups):
        shard_reports.append(ShardReport(
            shard=shard,
            records=(
                len(assignment[shard]) if assignment is not None
                else group.replicas[0].n
            ),
            queries=instance.shard_query_counts()[shard],
            server_operations=loads[shard],
            failovers=group.failovers,
            epsilon_spent=budget.per_shard[shard].basic_epsilon,
        ))

    return ClusterReport(
        scheme=type(instance).__name__,
        base=base,
        placement=(
            instance.router.policy if spec.kind == "ir" else "hash"
        ),
        shards=shards,
        replicas=replicas,
        n=n,
        requests=len(operations),
        completed=completed,
        errors=errors,
        mismatches=mismatches,
        network=network if isinstance(network, str) else "custom",
        executor=instance.executor.name,
        batch=batch,
        serial_ms=instance.serial_ms(),
        wall_clock_ms=instance.wall_clock_ms(),
        latency=LatencySummary.from_values(latencies),
        server_operations=sum(loads),
        per_server_storage_blocks=instance.per_server_storage_blocks(),
        total_storage_blocks=instance.total_storage_blocks(),
        load_jain_index=jain_index(loads),
        budget=budget,
        shard_reports=shard_reports,
        faults=scheme_fault_counters(instance),
        percentiles=extra_percentiles(latencies, percentiles),
        leakage=watch.reports() if watch is not None else [],
    )
