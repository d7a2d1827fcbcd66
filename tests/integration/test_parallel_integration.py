"""Integration: the parallel layer threaded through cluster + serving.

Covers the fault-injection acceptance scenario — a ``FlakyServer``
raising mid-fan-out triggers per-leg replica failover without poisoning
sibling legs, with ``fault_counters()`` totals matching the serial path
— plus the wall-clock-versus-serial accounting surfaced end to end
(cluster runs, serving reports, reshard migrations).
"""

import pytest

from repro.cluster import ClusterConfig
from repro.cluster import cluster as cluster_pkg
from repro.cluster.group import GroupExhaustedError
from repro.cluster.scheme import ClusterIR
from repro.crypto.rng import SeededRandomSource
from repro.serving import ServingConfig, serve
from repro.storage.blocks import integer_database
from repro.storage.faults import FlakyServer, wrap_scheme_servers

cluster = cluster_pkg  # the callable subpackage


class TestFaultInjectionUnderParallelExecutor:
    def _build(self, executor, seed=21):
        return ClusterIR(
            integer_database(128),
            shard_count=4,
            replica_count=2,
            pad_size=16,
            alpha=0.05,
            failure_rate=(0.3, 0.0),
            rng=SeededRandomSource(seed),
            executor=executor,
        )

    def test_flaky_leg_fails_over_without_poisoning_siblings(self):
        instance = self._build("parallel")
        answers = instance.query_many(list(range(128)))
        blocks = integer_database(128)
        # Every answered index is correct; the flaky replica forced
        # failovers but never corrupted or lost a sibling leg's answer.
        answered = 0
        for index, answer in enumerate(answers):
            if answer is not None:
                assert answer == blocks[index]
                answered += 1
        assert answered > 0
        assert instance.fault_counters().get("failovers", 0) > 0

    def test_fault_counter_totals_match_the_serial_path(self):
        serial = self._build("serial")
        parallel = self._build("parallel")
        assert serial.query_many(list(range(128))) == parallel.query_many(
            list(range(128))
        )
        assert serial.fault_counters() == parallel.fault_counters()
        assert (
            serial.ledger.report().worst_shard_epsilon
            == parallel.ledger.report().worst_shard_epsilon
        )

    def test_exhausted_shard_does_not_poison_healthy_legs(self):
        instance = ClusterIR(
            integer_database(64),
            shard_count=2,
            replica_count=1,
            pad_size=8,
            max_attempts=2,
            rng=SeededRandomSource(5),
            executor="parallel",
        )
        # Kill every replica of shard 0 only: its legs exhaust while
        # shard 1 keeps serving.
        dead_group = instance.groups[0]
        for replica in dead_group.replicas:
            wrap_scheme_servers(
                replica,
                lambda server: FlakyServer(
                    server, 1.0, SeededRandomSource(7).spawn("kill")
                ),
            )
        healthy_before = instance.groups[1].draws
        with pytest.raises(GroupExhaustedError):
            instance.query_many(list(range(64)))
        # The healthy shard's leg completed and was charged.
        assert instance.groups[1].draws > healthy_before
        healthy_indices = [
            index for index in range(64)
            if instance.router.shard_of(index) == 1
        ]
        answers = instance.query_many(healthy_indices)
        assert len(answers) == len(healthy_indices)


class TestWallClockAccountingEndToEnd:
    def test_cluster_run_overlaps_at_four_shards(self):
        reports = {
            executor: cluster("dp_ir", ClusterConfig(
                shards=4, replicas=1, n=256, pad_size=32, requests=32, seed=11,
                executor=executor, batch=8))
            for executor in ("serial", "parallel")
        }
        serial, parallel = reports["serial"], reports["parallel"]
        assert parallel.wall_clock_ms < serial.wall_clock_ms
        assert parallel.serial_ms == pytest.approx(serial.serial_ms)
        assert parallel.overlap_speedup > 1.0
        assert serial.overlap_speedup == pytest.approx(1.0)
        # Executor-invariant witnesses.
        assert parallel.ops_per_request == serial.ops_per_request
        assert (
            parallel.budget.worst_shard_epsilon
            == serial.budget.worst_shard_epsilon
        )
        assert parallel.latency.p95_ms < serial.latency.p95_ms

    def test_cluster_report_surfaces_executor_fields(self):
        report = cluster("dp_ir", ClusterConfig(
            shards=2, replicas=1, n=64, pad_size=8, requests=8, seed=3,
            executor="simulated", batch=4))
        assert report.executor == "simulated"
        assert report.batch == 4
        payload = report.to_dict()
        assert payload["executor"] == "simulated"
        assert payload["wall_clock_ms"] <= payload["serial_ms"]
        assert "overlap speedup" in report.to_text()

    def test_serving_report_shows_overlap_for_cluster_schemes(self):
        reports = {
            executor: serve(
                "cluster_dp_ir",
                ServingConfig(
                    clients=4,
                    requests_per_client=8,
                    n=256,
                    seed=13,
                    scheduler="window",
                    executor=executor,
                    build_kwargs={
                        "shard_count": 4, "replica_count": 1, "pad_size": 32,
                    },
                ),
            )
            for executor in ("serial", "parallel")
        }
        serial, parallel = reports["serial"], reports["parallel"]
        assert parallel.wall_clock_ms < parallel.serial_ms
        assert serial.wall_clock_ms == pytest.approx(serial.serial_ms)
        assert parallel.overlap_speedup > 1.0
        # Overlapped service time shortens the simulated makespan, so
        # throughput rises while the work done stays identical.
        assert parallel.server_operations == serial.server_operations
        assert parallel.throughput_rps > serial.throughput_rps
        payload = parallel.to_dict()
        assert payload["wall_clock_ms"] < payload["serial_ms"]

    def test_serve_rejects_executor_for_fanout_free_schemes(self):
        with pytest.raises(ValueError, match="no fan-out"):
            serve("dp_ir", ServingConfig(
                clients=2, requests_per_client=2, n=64, seed=1,
                executor="parallel"))

    def test_migration_reports_overlapped_drain(self):
        instance = ClusterIR(
            integer_database(128),
            shard_count=4,
            replica_count=1,
            pad_size=16,
            rng=SeededRandomSource(17),
            executor="parallel",
        )
        report = instance.reshard(2)
        assert report.migration_operations > 0
        assert 0.0 < report.wall_clock_ms < report.serial_ms
        serial_instance = ClusterIR(
            integer_database(128),
            shard_count=4,
            replica_count=1,
            pad_size=16,
            rng=SeededRandomSource(17),
            executor="serial",
        )
        serial_report = serial_instance.reshard(2)
        assert serial_report.wall_clock_ms == pytest.approx(
            serial_report.serial_ms
        )
        assert serial_report.migration_operations == \
            report.migration_operations
