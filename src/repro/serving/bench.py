"""Batched-versus-per-request dispatch comparison, as reusable data.

``benchmarks/bench_serving.py`` asserts on (and renders) these rows, and
``scripts/run_benchmarks.py`` writes them to ``BENCH_serving.json`` —
both call :func:`compare_dispatch` / :func:`continuous_flood` so the
numbers cannot drift apart.
"""

from __future__ import annotations

from typing import Sequence

from repro.serving.config import ServingConfig
from repro.serving.service import serve

DEFAULT_SCHEMES = ("dp_ir", "batch_dp_ir", "multi_server_dp_ir")


def compare_dispatch(
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    *,
    n: int = 256,
    clients: int = 8,
    requests_per_client: int = 12,
    batch_window_ms: float = 4.0,
    max_batch: int = 16,
    rate_rps: float = 150.0,
    seed: int = 0x5EED,
    network: str = "lan",
    workload: str = "uniform",
) -> list[dict]:
    """Serve the same saturating open-loop workload via FIFO and batching.

    The per-client rate deliberately exceeds the per-request service
    rate, so requests queue and the batching scheduler has material to
    coalesce — the regime where ``query_many`` overrides pay off.

    Returns:
        One dict per ``(scheme, scheduler)`` cell with the figures the
        bench assertions and JSON artifact need.
    """
    results = []
    for name in schemes:
        # Row labels keep the historical "batch" spelling of the window
        # scheduler so the BENCH_serving.json baseline cells stay
        # comparable.
        for label, scheduler in (("fifo", "fifo"), ("batch", "window")):
            config = ServingConfig(
                clients=clients,
                requests_per_client=requests_per_client,
                scheduler=scheduler,
                batch_window_ms=batch_window_ms,
                max_batch=max_batch,
                load="open",
                rate_rps=rate_rps,
                workload=workload,
                n=n,
                seed=seed,
                network=network,
            )
            report = serve(name, config)
            results.append({
                "scheme": name,
                "scheduler": label,
                "requests": report.requests,
                "completed": report.completed,
                "errors": report.errors,
                "ops_per_request": report.ops_per_request,
                "mean_batch_size": report.mean_batch_size,
                "throughput_rps": report.throughput_rps,
                "p50_ms": report.latency.p50_ms,
                "p95_ms": report.latency.p95_ms,
                "p99_ms": report.latency.p99_ms,
                "fairness_index": report.fairness_index,
            })
    return results


def continuous_flood(
    scheme: str = "batch_dp_ir",
    *,
    n: int = 256,
    clients: int = 8,
    requests_per_client: int = 64,
    max_batch: int = 16,
    max_in_flight: int = 4,
    tenant_credits: int = 4,
    rate_rps: float = 2000.0,
    seed: int = 0x5EED,
    network: str = "lan",
    workload: str = "uniform",
) -> list[dict]:
    """Open-loop Poisson flood: windowed vs continuous (caps off and on).

    ``clients`` tenants flood one serving worker (tenants = 8x shards at
    the defaults), far past the service rate.  Three cells:

    * ``window`` — the lock-step round baseline; the queue grows with
      the backlog and p99 tracks queue depth.
    * ``continuous`` — pipelined dispatch (``max_in_flight`` groups in
      flight), admission caps disabled: strictly higher sustained
      throughput because round N+1 no longer waits on round N.
    * ``continuous+caps`` — per-tenant credit caps shed the flood, which
      bounds queue depth and p99 instead of serving everything late.

    Returns:
        One dict per cell with the throughput / tail / shed figures the
        bench gate asserts on.
    """
    common = dict(
        clients=clients,
        requests_per_client=requests_per_client,
        max_batch=max_batch,
        load="open",
        rate_rps=rate_rps,
        workload=workload,
        n=n,
        seed=seed,
        network=network,
    )
    cells = [
        ("window", ServingConfig(scheduler="window", batch_window_ms=0.0,
                                 **common)),
        ("continuous", ServingConfig(scheduler="continuous",
                                     max_in_flight=max_in_flight, **common)),
        ("continuous+caps", ServingConfig(scheduler="continuous",
                                          max_in_flight=max_in_flight,
                                          tenant_credits=tenant_credits,
                                          **common)),
    ]
    results = []
    for label, config in cells:
        report = serve(scheme, config)
        results.append({
            "scheme": scheme,
            "scheduler": label,
            "clients": clients,
            "requests": report.requests,
            "completed": report.completed,
            "shed": report.shed,
            "max_in_flight": report.max_in_flight,
            "max_queue_depth": report.max_queue_depth,
            "throughput_rps": report.throughput_rps,
            "p50_ms": report.latency.p50_ms,
            "p95_ms": report.latency.p95_ms,
            "p99_ms": report.latency.p99_ms,
            "fairness_index": report.fairness_index,
        })
    return results
