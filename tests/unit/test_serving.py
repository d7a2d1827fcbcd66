"""Tests for the repro.serving subsystem."""

import pytest

from repro.serving import (
    BatchScheduler,
    ClientSession,
    ClosedLoopLoad,
    FIFOScheduler,
    OpenLoopLoad,
    Request,
    ServingConfig,
    ServingSimulator,
    resolve_scheme_name,
    serve,
)
from repro.storage.network import LAN
from repro.workloads.trace import Operation


def _request(sequence: int, arrival_ms: float = 0.0) -> Request:
    return Request(
        tenant="t", operation=Operation.read(0), arrival_ms=arrival_ms,
        sequence=sequence, session_index=0, op_index=sequence,
    )


class TestOpenLoopLoad:
    def test_emits_every_arrival_up_front(self, rng):
        plan = OpenLoopLoad(rate_rps=100.0).plan(10, rng)
        arrivals = plan.initial_arrivals()
        assert [index for index, _ in arrivals] == list(range(10))
        times = [time for _, time in arrivals]
        assert times == sorted(times)
        assert all(time > 0 for time in times)

    def test_no_response_driven_followups(self, rng):
        plan = OpenLoopLoad(rate_rps=100.0).plan(3, rng)
        assert plan.after_completion(0, 50.0) is None

    def test_rate_sets_mean_spacing(self, rng):
        plan = OpenLoopLoad(rate_rps=200.0).plan(2000, rng)
        last_index, last_time = plan.initial_arrivals()[-1]
        # 2000 arrivals at 200/s ~ 10 seconds.
        assert last_time / (last_index + 1) == pytest.approx(5.0, rel=0.15)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            OpenLoopLoad(rate_rps=0.0)


class TestClosedLoopLoad:
    def test_only_first_arrival_known_up_front(self, rng):
        plan = ClosedLoopLoad(think_ms=5.0).plan(4, rng)
        arrivals = plan.initial_arrivals()
        assert len(arrivals) == 1
        assert arrivals[0][0] == 0

    def test_followups_chain_from_completions(self, rng):
        plan = ClosedLoopLoad(think_ms=5.0).plan(3, rng)
        follow = plan.after_completion(0, 100.0)
        assert follow is not None
        index, at_ms = follow
        assert index == 1
        assert at_ms > 100.0
        assert plan.after_completion(2, 500.0) is None

    def test_rejects_bad_think(self):
        with pytest.raises(ValueError):
            ClosedLoopLoad(think_ms=0.0)


class TestFIFOScheduler:
    def test_singleton_batches_in_arrival_order(self):
        scheduler = FIFOScheduler()
        for sequence in range(3):
            assert scheduler.enqueue(_request(sequence), 0.0) is None
        assert scheduler.pending() == 3
        order = [scheduler.next_batch(0.0)[0].sequence for _ in range(3)]
        assert order == [0, 1, 2]
        assert scheduler.next_batch(0.0) == []


class TestBatchScheduler:
    def test_window_holds_then_releases(self):
        scheduler = BatchScheduler(window_ms=5.0, max_batch=16)
        wake = scheduler.enqueue(_request(0, 0.0), 0.0)
        assert wake == 5.0
        assert scheduler.enqueue(_request(1, 1.0), 1.0) is None
        # Before the window closes nothing dispatches...
        assert scheduler.next_batch(3.0) == []
        # ...at the deadline the whole group goes out together.
        batch = scheduler.next_batch(5.0)
        assert [request.sequence for request in batch] == [0, 1]

    def test_full_batch_dispatches_early(self):
        scheduler = BatchScheduler(window_ms=100.0, max_batch=2)
        scheduler.enqueue(_request(0), 0.0)
        scheduler.enqueue(_request(1), 0.0)
        scheduler.enqueue(_request(2), 0.0)
        assert len(scheduler.next_batch(0.0)) == 2
        # The remainder already waited its window: next idle moment wins.
        assert [r.sequence for r in scheduler.next_batch(0.1)] == [2]

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchScheduler(window_ms=-1.0)
        with pytest.raises(ValueError):
            BatchScheduler(max_batch=0)


class TestServingSimulator:
    def test_deterministic_replay(self):
        first = serve("dp_ram", ServingConfig(
            clients=3, requests_per_client=5, n=64, seed=42,
            workload="readwrite"))
        second = serve("dp_ram", ServingConfig(
            clients=3, requests_per_client=5, n=64, seed=42,
            workload="readwrite"))
        assert first.to_dict() == second.to_dict()

    def test_all_requests_complete_and_are_attributed(self):
        report = serve("dp_ram", ServingConfig(
            clients=4, requests_per_client=6, n=64, seed=9))
        assert report.requests == 24
        assert report.completed == 24
        assert [t.requests for t in report.tenants] == [6, 6, 6, 6]
        assert sum(t.completed for t in report.tenants) == 24
        assert sum(t.server_ops for t in report.tenants) == pytest.approx(
            report.server_operations
        )

    def test_closed_loop_bounds_queue_depth(self):
        report = serve("dp_ram", ServingConfig(
            clients=3, requests_per_client=4, n=64, seed=5, load="closed",
            think_ms=2.0))
        # One outstanding request per session: the queue can never hold
        # more than the session count.
        assert report.max_queue_depth <= 3

    def test_ir_rejects_write_operations(self, rng):
        import repro

        scheme = repro.build("dp_ir", n=32, seed=1)
        session = ClientSession(
            "t0",
            [Operation.write(1, b"x" * 64)],
            OpenLoopLoad(100.0).plan(1, rng),
        )
        simulator = ServingSimulator(
            scheme, [session], FIFOScheduler(), network=LAN
        )
        with pytest.raises(ValueError):
            simulator.run()

    def test_duplicate_tenants_rejected(self, rng):
        import repro

        scheme = repro.build("dp_ram", n=32, seed=1)
        sessions = [
            ClientSession("same", [Operation.read(0)],
                          OpenLoopLoad(10.0).plan(1, rng.spawn(str(i))))
            for i in range(2)
        ]
        with pytest.raises(ValueError):
            ServingSimulator(scheme, sessions, FIFOScheduler())

    def test_kvs_scheme_serves(self):
        report = serve("plaintext_kvs", ServingConfig(
            clients=2, requests_per_client=6, n=64, seed=3))
        assert report.completed == 12
        assert report.errors == 0
        assert report.server_operations > 0

    def test_latency_percentiles_ordered(self):
        report = serve("dp_ir", ServingConfig(
            clients=4, requests_per_client=8, n=64, seed=2))
        latency = report.latency
        assert latency.p50_ms <= latency.p95_ms <= latency.p99_ms
        assert latency.p99_ms <= latency.max_ms
        assert report.throughput_rps > 0


class TestServeHelper:
    def test_scheme_alias_resolution(self):
        assert resolve_scheme_name("batch-dpir") == "batch_dp_ir"
        assert resolve_scheme_name("DPIR") == "dp_ir"
        assert resolve_scheme_name("dp_ram") == "dp_ram"

    def test_accepts_prebuilt_instance(self):
        import repro

        scheme = repro.build("dp_ram", n=32, seed=4)
        report = serve(scheme, ServingConfig(
            clients=2, requests_per_client=3, seed=4))
        assert report.scheme == "DPRAM"
        assert report.completed == 6

    def test_instance_rejects_builder_kwargs(self):
        import repro

        scheme = repro.build("dp_ram", n=32, seed=4)
        with pytest.raises(ValueError):
            serve(scheme, ServingConfig(
                clients=1, requests_per_client=1,
                build_kwargs={"epsilon": 3.0}))

    def test_unknown_scheduler_and_load(self):
        with pytest.raises(ValueError):
            serve("dp_ram", ServingConfig(
                clients=1, requests_per_client=1, seed=1, scheduler="lifo"))
        with pytest.raises(ValueError):
            serve("dp_ram", ServingConfig(
                clients=1, requests_per_client=1, seed=1, load="bursty"))

    def test_validates_counts(self):
        with pytest.raises(ValueError):
            serve("dp_ram", ServingConfig(clients=0, seed=1))
        with pytest.raises(ValueError):
            serve("dp_ram", ServingConfig(
                clients=1, requests_per_client=0, seed=1))

    def test_ir_readwrite_workload_rejected(self):
        with pytest.raises(ValueError):
            serve("dp_ir", ServingConfig(
                clients=1, requests_per_client=2, seed=1,
                workload="readwrite"))

    def test_read_only_ram_rejects_readwrite_before_running(self):
        with pytest.raises(ValueError, match="read-only"):
            serve("read_only_dp_ram", ServingConfig(
                clients=1, requests_per_client=2, seed=1, n=32,
                workload="readwrite"))

    def test_unknown_kvs_workload_rejected(self):
        with pytest.raises(ValueError, match="zpif"):
            serve("dp_kvs", ServingConfig(
                clients=1, requests_per_client=2, seed=1, n=32,
                workload="zpif"))

    def test_kv_workload_needs_kvs_scheme(self):
        with pytest.raises(ValueError, match="KVS"):
            serve("dp_ram", ServingConfig(
                clients=1, requests_per_client=2, seed=1, n=32,
                workload="ycsb-a"))

    def test_network_backend_build_uses_served_link(self):
        # backend="network" builds link-charging backends; they must be
        # priced by the link serve() reports, not the builder's WAN
        # default (which would make 'lan' runs silently WAN-slow).
        common = ServingConfig(clients=2, requests_per_client=3, n=32,
                               seed=1, backend="network")
        lan = serve("dp_ir", common.replace(network="lan"))
        wan = serve("dp_ir", common.replace(network="wan"))
        assert lan.network == "lan"
        # WAN RTT is 80x LAN's, so a mislabelled run is unmistakable.
        assert lan.latency.p50_ms < wan.latency.p50_ms / 10

    def test_fairness_index_in_range(self):
        report = serve("dp_ram", ServingConfig(
            clients=4, requests_per_client=5, n=64, seed=6))
        assert 0.25 <= report.fairness_index <= 1.0
