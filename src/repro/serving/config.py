"""The serving run's configuration surface: one frozen dataclass.

Eight PRs of keyword sprawl (``executor=``, ``monitor=``, ``tracer=``,
``batch_window_ms=``, …) consolidated into :class:`ServingConfig`, the
documented way to parameterize :func:`repro.serve`::

    import repro
    from repro.serving import ServingConfig

    config = ServingConfig(clients=16, scheduler="continuous",
                           tenant_credits=4, seed=7)
    report = repro.serve("batch_dp_ir", config)

The CLI builds configs via :meth:`ServingConfig.from_cli_args`.
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.serving.load import LoadGenerator
from repro.serving.schedulers import RequestScheduler
from repro.storage.network import NetworkModel


@dataclass(frozen=True)
class ServingConfig:
    """Everything a serving run needs besides the scheme itself.

    Attributes:
        clients: number of concurrent tenant sessions.
        requests_per_client: operations each session issues.
        scheduler: a registered scheduler name (``fifo`` / ``window`` /
            ``continuous``) or a
            :class:`~repro.serving.schedulers.RequestScheduler` instance.
        batch_window_ms: batching window for the ``window`` scheduler.
        max_batch: dispatch group size cap (``window`` and
            ``continuous``).
        max_in_flight: concurrent dispatch groups for the
            ``continuous`` scheduler (its pipeline depth).
        tenant_credits: per-tenant outstanding-request cap for the
            ``continuous`` scheduler; ``None`` disables admission
            control for tenants.
        queue_cap: global pending-queue cap for the ``continuous``
            scheduler; ``None`` disables.
        load: ``"open"`` (Poisson at ``rate_rps`` per client),
            ``"closed"`` (think-time loop) or a
            :class:`~repro.serving.load.LoadGenerator` instance.
        rate_rps: per-client open-loop arrival rate.
        think_ms: mean closed-loop think time.
        workload: per-tenant trace shape (``uniform`` / ``zipf`` / …).
        n: database size / key capacity when building by name.
        seed: deterministic randomness; ``None`` uses system entropy.
        network: link model name or
            :class:`~repro.storage.network.NetworkModel`.
        backend: slot-storage backend name (``memory`` / ``slab`` /
            ``network``) forwarded to the scheme builder; ``None`` keeps
            the scheme's default.
        value_size: KVS value budget when building by name.
        write_fraction: write share of the ``readwrite`` workload.
        executor: cross-shard fan-out policy (``serial`` / ``parallel``
            / ``simulated``) for cluster schemes.
        tracer: optional :class:`~repro.obs.tracer.Tracer`.
        metrics_registry: optional
            :class:`~repro.obs.metrics.MetricsRegistry`.
        monitor: attach online leakage monitors.
        build_kwargs: extra keyword arguments forwarded to the scheme's
            registered builder (``epsilon``, ``server_count``, …).
    """

    clients: int = 8
    requests_per_client: int = 32
    scheduler: RequestScheduler | str = "window"
    batch_window_ms: float = 2.0
    max_batch: int = 16
    max_in_flight: int = 4
    tenant_credits: int | None = None
    queue_cap: int | None = None
    load: LoadGenerator | str = "open"
    rate_rps: float = 100.0
    think_ms: float = 5.0
    workload: str = "uniform"
    n: int = 1024
    seed: int | bytes | str | None = None
    network: NetworkModel | str = "lan"
    backend: str | None = None
    value_size: int = 32
    write_fraction: float = 0.25
    executor: str | None = None
    tracer: Tracer | None = None
    metrics_registry: MetricsRegistry | None = None
    monitor: bool = False
    build_kwargs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError(
                f"clients must be at least 1, got {self.clients}"
            )
        if self.requests_per_client < 1:
            raise ValueError(
                "requests_per_client must be at least 1, got "
                f"{self.requests_per_client}"
            )

    def replace(self, **changes: Any) -> "ServingConfig":
        """A copy with ``changes`` applied (frozen-dataclass idiom)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_cli_args(
        cls,
        args: argparse.Namespace,
        *,
        tracer: Tracer | None = None,
        metrics_registry: MetricsRegistry | None = None,
    ) -> "ServingConfig":
        """Build a config from the ``repro serve`` argparse namespace.

        Maps flag spellings to field names (``--requests`` →
        ``requests_per_client``, ``--window-ms`` → ``batch_window_ms``,
        ``--rate`` → ``rate_rps``) so the CLI and the Python API share
        one construction path.
        """
        return cls(
            clients=args.clients,
            requests_per_client=args.requests,
            scheduler=args.scheduler,
            batch_window_ms=args.window_ms,
            max_batch=args.max_batch,
            max_in_flight=getattr(args, "max_in_flight", 4),
            tenant_credits=getattr(args, "tenant_credits", None),
            queue_cap=getattr(args, "queue_cap", None),
            load=args.load,
            rate_rps=args.rate,
            think_ms=args.think_ms,
            workload=args.workload,
            n=args.n,
            seed=args.seed,
            network=args.network,
            backend=getattr(args, "backend", None),
            value_size=args.value_size,
            executor=args.executor,
            tracer=tracer,
            metrics_registry=metrics_registry,
            monitor=args.monitor,
        )
