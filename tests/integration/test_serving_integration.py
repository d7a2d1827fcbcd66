"""End-to-end serving runs: the CLI path and the batching payoff.

Covers the acceptance criteria for the serving subsystem: the
``python -m repro serve`` subcommand runs a concurrent workload end to
end and prints tail percentiles, and the batching scheduler issues
measurably fewer server operations per request than per-request FIFO
dispatch on ``BatchDPIR``.
"""

import json

import pytest

from repro.__main__ import main
from repro.serving import ServingConfig, serve


class TestBatchingBeatsFIFO:
    @pytest.fixture(scope="class")
    def reports(self):
        config = ServingConfig(clients=8, requests_per_client=12, n=256,
                               seed=7, rate_rps=150.0, workload="uniform",
                               network="lan")
        return {
            scheduler: serve("batch_dp_ir", config.replace(scheduler=scheduler))
            for scheduler in ("fifo", "window")
        }

    def test_measurably_fewer_ops_per_request(self, reports):
        fifo, batch = reports["fifo"], reports["window"]
        assert fifo.completed == batch.completed == 96
        # FIFO pays the full pad set per request; the batcher downloads
        # pad-set unions, so collisions shave off a measurable share.
        assert batch.ops_per_request < 0.9 * fifo.ops_per_request

    def test_batching_improves_tails_under_load(self, reports):
        fifo, batch = reports["fifo"], reports["window"]
        assert batch.latency.p95_ms < fifo.latency.p95_ms
        assert batch.throughput_rps > fifo.throughput_rps

    def test_groups_actually_formed(self, reports):
        assert reports["window"].mean_batch_size > 2.0
        assert reports["fifo"].mean_batch_size == pytest.approx(1.0)


class TestServeCLI:
    def test_end_to_end_prints_throughput_and_tails(self, capsys):
        assert main(["serve", "--scheme", "batch-dpir", "--clients", "8",
                     "--requests", "8", "--n", "256", "--seed", "7"]) == 0
        output = capsys.readouterr().out
        assert "throughput req/s" in output
        assert "latency p50 ms" in output
        assert "latency p95 ms" in output
        assert "latency p99 ms" in output
        assert "Per-tenant isolation" in output

    def test_json_report_round_trips(self, capsys):
        assert main(["serve", "--scheme", "batch-dpir", "--clients", "4",
                     "--requests", "6", "--n", "128", "--seed", "3",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheme"] == "batch_dp_ir"
        assert payload["completed"] == 24
        assert {"p50", "p95", "p99"} <= set(payload["latency_ms"])

    def test_closed_loop_ram_workload(self, capsys):
        assert main(["serve", "--scheme", "dp_ram", "--clients", "4",
                     "--requests", "5", "--n", "64", "--seed", "5",
                     "--load", "closed", "--workload", "readwrite"]) == 0
        assert "dp_ram" in capsys.readouterr().out

    def test_scheduler_comparison_visible_from_cli(self, capsys):
        args = ["serve", "--scheme", "batch-dpir", "--clients", "8",
                "--requests", "8", "--n", "256", "--seed", "7", "--json"]
        assert main(args + ["--scheduler", "fifo"]) == 0
        fifo = json.loads(capsys.readouterr().out)
        assert main(args + ["--scheduler", "window"]) == 0
        batch = json.loads(capsys.readouterr().out)
        assert batch["ops_per_request"] < fifo["ops_per_request"]
