"""Concurrent multi-client serving: load generation, scheduling, reporting.

The ROADMAP north star is a system that serves heavy traffic from many
users, but the harness drives every scheme from a single sequential
client loop.  This package adds the missing serving regime as a
*deterministic discrete-event simulation*::

    N client sessions ──► load generator (open-loop Poisson /
         │                closed-loop think time) emits arrivals
         ▼
    request scheduler — FIFO per-request dispatch, or a batching
         │              scheduler with a configurable window
         ▼
    one scheme worker — batches routed through the ``query_many`` /
         │              ``read_many`` / ``get_many`` protocol entry
         │              points, so ``BatchDPIR`` fetches pad-set unions
         ▼              and ``MultiServerDPIR`` coalesces replica reads
    ServingReport — throughput, queue depth, per-tenant fairness, and
                    p50/p95/p99 latency from the network cost model

Simulated time comes from the same
:class:`~repro.storage.network.NetworkModel` accounting the single-client
experiments use (each slot access is one roundtrip plus serialization),
so serving numbers are directly comparable to ``python -m repro run``.
Everything is seeded through :class:`~repro.crypto.rng.RandomSource`:
the same seed replays the same arrivals, batches and report.

Entry points: :func:`serve` (also re-exported as ``repro.serve``),
configured through a frozen :class:`ServingConfig`; the
``python -m repro serve`` CLI subcommand; and
``benchmarks/bench_serving.py``.  Schedulers are a registry
(:func:`register_scheduler`, listed by :func:`scheduler_listings` /
``repro.schedulers()``) mirroring the scheme registry: ``fifo``,
``window`` and ``continuous`` — the pipelined batcher with per-tenant
admission control.
"""

from repro.serving.config import ServingConfig
from repro.serving.load import (
    ArrivalPlan,
    ClosedLoopLoad,
    LoadGenerator,
    OpenLoopLoad,
)
from repro.serving.report import ServingReport, TenantReport
from repro.serving.requests import Request
from repro.serving.schedulers import (
    BatchScheduler,
    ContinuousBatchScheduler,
    FIFOScheduler,
    RequestScheduler,
    SchedulerSpec,
    WindowedBatchScheduler,
    available_schedulers,
    build_scheduler,
    register_scheduler,
    resolve_scheduler_name,
    scheduler_listings,
    scheduler_spec,
)
from repro.serving.service import resolve_scheme_name, serve
from repro.serving.simulator import ClientSession, ServingSimulator

__all__ = [
    "ArrivalPlan",
    "BatchScheduler",
    "ClientSession",
    "ClosedLoopLoad",
    "ContinuousBatchScheduler",
    "FIFOScheduler",
    "LoadGenerator",
    "OpenLoopLoad",
    "Request",
    "RequestScheduler",
    "SchedulerSpec",
    "ServingConfig",
    "ServingReport",
    "ServingSimulator",
    "TenantReport",
    "WindowedBatchScheduler",
    "available_schedulers",
    "build_scheduler",
    "register_scheduler",
    "resolve_scheduler_name",
    "scheduler_listings",
    "scheduler_spec",
    "serve",
]
