"""Integration: the cluster layer end to end.

Retrieval correctness across reshard/rebalance and replica failure, the
serving simulator driving a cluster through the batch scheduler, fault
counts surfacing in reports, and the cluster CLI.
"""

import json

import pytest

import repro
from repro.__main__ import main
from repro.cluster import ClusterIR, ClusterKVS
from repro.storage.blocks import integer_database

N = 64


def _assert_all_retrievable(ir, blocks, label=""):
    """Every index answers correctly (α events excepted, and re-tried)."""
    for index in range(len(blocks)):
        answer = None
        for _ in range(50):
            answer = ir.query(index)
            if answer is not None:
                break
        assert answer == blocks[index], f"{label} index {index}"


class TestRetrievalPreserved:
    @pytest.mark.parametrize("base", ["dp_ir", "batch_dp_ir"])
    def test_before_and_after_reshard(self, rng, base):
        blocks = integer_database(N)
        ir = ClusterIR(blocks, base=base, shard_count=2, replica_count=2,
                       pad_size=8, alpha=0.05, rng=rng.spawn(base))
        _assert_all_retrievable(ir, blocks, "before")
        migration = ir.reshard(4)
        assert migration.shards_before == 2
        assert migration.shards_after == 4
        assert migration.migration_operations > 0
        assert ir.shard_count == 4
        _assert_all_retrievable(ir, blocks, "after reshard")

    def test_reshard_to_hash_placement(self, rng):
        blocks = integer_database(N)
        ir = ClusterIR(blocks, shard_count=2, replica_count=1,
                       pad_size=8, rng=rng.spawn("c"))
        ir.reshard(4, placement="hash")
        assert ir.router.policy == "hash"
        _assert_all_retrievable(ir, blocks, "hash placement")

    def test_under_replica_failure(self, rng):
        # Replica 0 of every group is dead; reads fail over to replica 1
        # and every index still retrieves correctly.
        blocks = integer_database(N)
        ir = ClusterIR(blocks, shard_count=2, replica_count=2,
                       pad_size=8, alpha=0.05,
                       failure_rate=(1.0, 0.0), rng=rng.spawn("c"))
        _assert_all_retrievable(ir, blocks, "replica failure")
        counters = ir.fault_counters()
        assert counters["failovers"] > 0

    def test_reshard_works_over_a_dead_replica(self, rng):
        blocks = integer_database(N)
        ir = ClusterIR(blocks, shard_count=2, replica_count=2,
                       pad_size=8, failure_rate=(1.0, 0.0),
                       rng=rng.spawn("c"))
        ir.reshard(4)
        _assert_all_retrievable(ir, blocks, "reshard over failure")

    def test_corruption_detected_and_survived(self, rng):
        # A tampering replica behind authenticated storage: detected,
        # failed over, every answer still exact.
        blocks = integer_database(N)
        ir = ClusterIR(blocks, shard_count=2, replica_count=2,
                       pad_size=8, corruption_rate=(1.0, 0.0),
                       authenticated=True, rng=rng.spawn("c"))
        _assert_all_retrievable(ir, blocks, "corruption")
        assert ir.fault_counters()["detected_corruptions"] > 0

    def test_silent_corruption_without_authentication(self, rng):
        # The contrast: plain storage garbles silently (no exception,
        # wrong bytes) — exactly the gap authenticated mode closes.
        blocks = integer_database(16)
        ir = ClusterIR(blocks, shard_count=1, replica_count=1,
                       pad_size=4, alpha=0.01, corruption_rate=1.0,
                       authenticated=False, rng=rng.spawn("c"))
        wrong = 0
        for index in range(16):
            answer = ir.query(index)
            if answer is not None and answer != blocks[index]:
                wrong += 1
        assert wrong > 0
        assert ir.fault_counters().get("detected_corruptions", 0) == 0

    def test_kvs_reshard_preserves_every_key(self, rng):
        kvs = ClusterKVS(64, shard_count=2, replica_count=2,
                         value_size=8, rng=rng.spawn("kvs"))
        items = {f"key-{i}".encode(): bytes([i]) * 3 for i in range(24)}
        for key, value in items.items():
            kvs.put(key, value)
        migration = kvs.reshard(4)
        assert kvs.shard_count == 4
        assert migration.migration_operations > 0
        for key, value in items.items():
            assert kvs.get(key) == value, key
        assert kvs.get(b"missing") is None

    def test_kvs_survives_replica_death(self, rng):
        kvs = ClusterKVS(64, shard_count=2, replica_count=2,
                         value_size=8, failure_rate=(1.0, 0.0),
                         rng=rng.spawn("kvs"))
        items = {f"key-{i}".encode(): bytes([i]) for i in range(12)}
        for key, value in items.items():
            kvs.put(key, value)
        for key, value in items.items():
            assert kvs.get(key) == value
        assert kvs.fault_counters()["dead_replicas"] > 0


class TestRebalance:
    def test_hotspot_load_evens_out(self, rng):
        # Drive a hot range, rebalance, drive it again: the hot range is
        # spread over more shards so the Jain index improves.
        blocks = integer_database(128)
        ir = ClusterIR(blocks, shard_count=4, replica_count=1,
                       pad_size=8, alpha=0.05, rng=rng.spawn("c"))
        hot = rng.spawn("hot")
        for _ in range(120):
            ir.query(hot.randbelow(16))     # all load on shard 0's range
        before = ir.load_balance_index()
        migration = ir.rebalance()
        assert migration.shards_after == 4
        for _ in range(120):
            ir.query(hot.randbelow(16))
        after = ir.load_balance_index()
        assert after > before
        # The hot prefix is now split across several shards.
        assert ir.router.boundaries[1] < 16

    def test_rebalance_requires_range_placement(self, rng):
        ir = ClusterIR(integer_database(32), shard_count=2,
                       replica_count=1, pad_size=4, placement="hash",
                       rng=rng.spawn("c"))
        with pytest.raises(ValueError, match="range placement"):
            ir.rebalance()


class TestServingIntegration:
    def test_cluster_behind_batch_scheduler_compounds(self):
        # Sharding cuts the pad to K/D; batching through query_many
        # additionally coalesces per-shard pad unions.  The cluster of
        # BatchDPIR bases must beat its own FIFO dispatch.
        config = repro.ServingConfig(
            clients=6, requests_per_client=8, n=256, seed=11, rate_rps=200.0)
        fifo = repro.serve("cluster_batch_dp_ir",
                           config.replace(scheduler="fifo"))
        batch = repro.serve("cluster_batch_dp_ir",
                            config.replace(scheduler="window"))
        assert fifo.completed == fifo.requests
        assert batch.completed == batch.requests
        assert batch.ops_per_request < fifo.ops_per_request

    def test_serving_report_surfaces_cluster_faults(self, rng):
        from repro.serving import (
            BatchScheduler,
            ClientSession,
            ServingSimulator,
        )
        from repro.serving.load import OpenLoopLoad
        from repro.workloads import catalogue

        ir = ClusterIR(integer_database(64), shard_count=2,
                       replica_count=2, pad_size=8,
                       failure_rate=(1.0, 0.0), rng=rng.spawn("c"))
        sessions = []
        for client in range(3):
            trace = catalogue.index_trace(
                "uniform", 64, 8, rng.spawn(f"t{client}"),
                write_fraction=0.0,
            )
            plan = OpenLoopLoad(100.0).plan(
                len(trace.operations), rng.spawn(f"a{client}")
            )
            sessions.append(
                ClientSession(f"tenant-{client}", trace.operations, plan)
            )
        report = ServingSimulator(
            ir, sessions, BatchScheduler(window_ms=2.0, max_batch=8)
        ).run()
        assert report.completed == report.requests
        assert report.faults.get("failovers", 0) > 0
        assert report.faults.get("failed_operations", 0) > 0
        assert "faults" in report.to_dict()
        assert "failovers" in report.to_text()

    def test_harness_metrics_surface_faults(self, rng):
        from repro.simulation.harness import run_trace
        from repro.workloads import catalogue

        ir = ClusterIR(integer_database(32), shard_count=2,
                       replica_count=2, pad_size=4,
                       failure_rate=(1.0, 0.0), rng=rng.spawn("c"))
        trace = catalogue.index_trace(
            "uniform", 32, 16, rng.spawn("t"), write_fraction=0.0,
        )
        metrics = run_trace(ir, trace, expected=integer_database(32))
        assert metrics.mismatches == 0
        assert metrics.fault_counters.get("failovers", 0) > 0


class TestClusterCLI:
    def test_smoke(self, capsys):
        assert main(["cluster", "--shards", "4", "--replicas", "2",
                     "--n", "128", "--requests", "32", "--seed", "7"]) == 0
        output = capsys.readouterr().out
        assert "shard groups" in output
        assert "Per-shard load" in output
        assert "latency p99.9 ms" in output

    def test_json_output(self, capsys):
        assert main(["cluster", "--shards", "4", "--replicas", "2",
                     "--n", "128", "--requests", "32", "--seed", "7",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shards"] == 4
        assert payload["replicas"] == 2
        assert payload["completed"] == 32
        assert payload["mismatches"] == 0
        assert "p999" in payload["latency_ms"]
        assert payload["budget"]["per_query_epsilon"] > 0

    def test_kvs_base(self, capsys):
        assert main(["cluster", "--scheme", "dp_kvs", "--shards", "2",
                     "--replicas", "2", "--n", "64", "--requests", "24",
                     "--workload", "ycsb-b", "--seed", "7"]) == 0
        output = capsys.readouterr().out
        assert "ClusterKVS" in output

    def test_flaky_run_completes(self, capsys):
        assert main(["cluster", "--shards", "2", "--replicas", "2",
                     "--n", "64", "--requests", "24", "--seed", "7",
                     "--failure-rate", "0.1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] == 24
        assert payload["mismatches"] == 0
        assert payload["faults"].get("failed_operations", 0) > 0

    def test_list_shows_aliases(self, capsys):
        assert main(["cluster", "--list"]) == 0
        output = capsys.readouterr().out
        assert "cluster_dp_ir" in output
        assert "cluster_dpir" in output
        assert "dp_ram" not in output    # RAM bases are not clusterable

    def test_ram_base_rejected(self, capsys):
        assert main(["cluster", "--scheme", "dp_ram", "--n", "64",
                     "--requests", "8", "--seed", "1"]) == 2
        assert "IR or KVS" in capsys.readouterr().err

    def test_unknown_scheme_reports_catalogue(self, capsys):
        assert main(["cluster", "--scheme", "warp_drive"]) == 2
        assert "registered schemes" in capsys.readouterr().err

    def test_hyphenated_alias(self, capsys):
        assert main(["cluster", "--scheme", "batch-dpir", "--shards", "2",
                     "--n", "64", "--requests", "16", "--seed", "7"]) == 0
        assert "batch_dp_ir" in capsys.readouterr().out
