"""Tests for the redesigned config/scheduler API surface.

Covers the frozen :class:`ServingConfig` / :class:`ClusterConfig`
dataclasses — the only way to parameterize ``serve()`` / ``cluster()``
— and the scheduler registry.
"""

import argparse

import pytest

import repro
from repro.cluster.config import ClusterConfig
from repro.serving import (
    ContinuousBatchScheduler,
    FIFOScheduler,
    ServingConfig,
    WindowedBatchScheduler,
    available_schedulers,
    build_scheduler,
    resolve_scheduler_name,
    scheduler_listings,
    scheduler_spec,
)
from repro.serving.requests import Request
from repro.workloads.trace import Operation


class TestServingConfig:
    def test_defaults_are_the_documented_ones(self):
        config = ServingConfig()
        assert config.clients == 8
        assert config.scheduler == "window"
        assert config.max_in_flight == 4
        assert config.tenant_credits is None
        assert config.build_kwargs == {}

    def test_frozen(self):
        config = ServingConfig()
        with pytest.raises(AttributeError):
            config.clients = 4

    def test_replace_returns_a_modified_copy(self):
        config = ServingConfig(seed=7)
        tightened = config.replace(tenant_credits=2)
        assert tightened.tenant_credits == 2
        assert tightened.seed == 7
        assert config.tenant_credits is None

    @pytest.mark.parametrize("bad", [
        {"clients": 0}, {"requests_per_client": 0},
    ])
    def test_validates_counts_at_construction(self, bad):
        with pytest.raises(ValueError):
            ServingConfig(**bad)

    def test_from_cli_args_maps_flag_spellings(self):
        args = argparse.Namespace(
            clients=3, requests=9, scheduler="continuous", window_ms=1.5,
            max_batch=8, max_in_flight=2, tenant_credits=4, queue_cap=None,
            load="open", rate=250.0, think_ms=5.0, workload="uniform",
            n=64, seed=11, network="lan", value_size=32, executor=None,
            monitor=False,
        )
        config = ServingConfig.from_cli_args(args)
        assert config.requests_per_client == 9
        assert config.batch_window_ms == 1.5
        assert config.rate_rps == 250.0
        assert config.tenant_credits == 4


class TestClusterConfig:
    def test_frozen_with_validated_counts(self):
        config = ClusterConfig()
        with pytest.raises(AttributeError):
            config.shards = 2
        with pytest.raises(ValueError):
            ClusterConfig(requests=0)
        with pytest.raises(ValueError):
            ClusterConfig(batch=0)


class TestConfigOnlyEntryPoints:
    def test_keyword_calls_raise_type_error(self):
        with pytest.raises(TypeError):
            repro.serve("dp_ir", clients=2)
        with pytest.raises(TypeError):
            repro.cluster("dp_ir", shards=2)
        with pytest.raises(TypeError):
            repro.serve("dp_ir", ServingConfig(), clients=2)


class TestSchedulerRegistry:
    def test_canonical_names_registered(self):
        assert set(available_schedulers()) >= {
            "fifo", "window", "continuous",
        }

    def test_spellings_normalize_to_registry_keys(self):
        assert resolve_scheduler_name(" Window ") == "window"
        assert scheduler_spec("window").factory is WindowedBatchScheduler
        with pytest.raises(ValueError, match="window"):
            scheduler_spec("batch")

    def test_unknown_name_lists_the_registered_ones(self):
        with pytest.raises(ValueError, match="fifo"):
            scheduler_spec("nope")
        with pytest.raises(ValueError, match="continuous"):
            build_scheduler("nope", ServingConfig())

    def test_listings_carry_summaries(self):
        listings = {spec.name: spec for spec in scheduler_listings()}
        assert "continuous" in listings
        assert listings["continuous"].summary

    def test_public_schedulers_helper(self):
        names = [spec.name for spec in repro.schedulers()]
        assert "fifo" in names and "continuous" in names

    def test_build_from_config_respects_fields(self):
        config = ServingConfig(
            scheduler="continuous", max_batch=8, max_in_flight=2,
            tenant_credits=3, queue_cap=10,
        )
        scheduler = build_scheduler(config.scheduler, config)
        assert isinstance(scheduler, ContinuousBatchScheduler)
        assert scheduler.pipeline_depth == 2
        assert scheduler.max_batch == 8

    def test_instance_passes_through(self):
        instance = FIFOScheduler()
        assert build_scheduler(instance, ServingConfig()) is instance


def _request(sequence: int, tenant: str = "t0") -> Request:
    return Request(
        tenant=tenant, operation=Operation.read(0), arrival_ms=0.0,
        sequence=sequence, session_index=0, op_index=sequence,
    )


class TestContinuousAdmission:
    def test_tenant_credits_cap_outstanding_requests(self):
        scheduler = ContinuousBatchScheduler(tenant_credits=2)
        first, second, third = (_request(i) for i in range(3))
        assert scheduler.try_admit(first, 0.0)
        scheduler.enqueue(first, 0.0)
        assert scheduler.try_admit(second, 0.0)
        scheduler.enqueue(second, 0.0)
        assert not scheduler.try_admit(third, 0.0)
        # Credits are held until the dispatch group completes, not
        # merely until dispatch.
        batch = scheduler.next_batch(0.0)
        assert not scheduler.try_admit(third, 0.0)
        scheduler.notify_complete(batch, 1.0)
        assert scheduler.try_admit(third, 1.0)

    def test_queue_cap_sheds_regardless_of_tenant(self):
        scheduler = ContinuousBatchScheduler(queue_cap=1)
        first = _request(0, tenant="a")
        assert scheduler.try_admit(first, 0.0)
        scheduler.enqueue(first, 0.0)
        assert not scheduler.try_admit(_request(1, tenant="b"), 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ContinuousBatchScheduler(max_batch=0)
        with pytest.raises(ValueError):
            ContinuousBatchScheduler(max_in_flight=0)
        with pytest.raises(ValueError):
            ContinuousBatchScheduler(tenant_credits=0)
        with pytest.raises(ValueError):
            ContinuousBatchScheduler(queue_cap=0)
