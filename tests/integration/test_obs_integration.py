"""Integration: observability across the serving/cluster/parallel stack.

The tentpole contracts under test:

* span *trees* are executor-invariant — serial, parallel and simulated
  fan-out produce identical hierarchies, names and labels (only wall
  timing differs), including under injected faults;
* traces are deterministic — two runs with the same seed export
  identical JSON modulo the wall-clock fields;
* tracing is an observer — attaching a tracer changes no answer, no
  draw, no exact ε;
* the ε timeline, trace summary, and the ``--trace`` / ``--metrics`` /
  ``audit`` CLI surfaces.
"""

import json
from fractions import Fraction

import pytest

from repro.__main__ import main
from repro.cluster import ClusterConfig
from repro.cluster.service import cluster
from repro.obs import (
    BudgetTimeline,
    MetricsRegistry,
    Tracer,
    canonical_trace,
    trace_summary,
)
from repro.serving import ServingConfig, serve

RUN = ClusterConfig(shards=4, replicas=1, n=256, requests=48, seed=13,
                    pad_size=16, batch=8)


def _tree(trace):
    """(id, parent, name, sorted labels) for every span — the identity
    a trace keeps across executors."""
    return [
        (s["id"], s["parent"], s["name"], tuple(sorted(s["labels"].items())))
        for s in trace["spans"]
    ]


class TestExecutorInvariance:
    @pytest.mark.parametrize("faults", [
        {},
        {"failure_rate": 0.15, "corruption_rate": 0.1},
    ], ids=["clean", "faulty"])
    def test_three_executors_emit_identical_span_trees(self, faults):
        trees = {}
        reports = {}
        for executor in ("serial", "parallel", "simulated"):
            tracer = Tracer(executor)
            reports[executor] = cluster("dp_ir", RUN.replace(
                executor=executor, tracer=tracer, **faults,
            ))
            trees[executor] = _tree(tracer.export())
        assert trees["serial"] == trees["parallel"]
        assert trees["serial"] == trees["simulated"]
        # And the runs themselves stay executor-invariant.
        completed = {r.completed for r in reports.values()}
        assert len(completed) == 1

    def test_fault_spans_record_the_error_type(self):
        # Every replica of every group is dead, so the round exhausts
        # its group; the propagating error must land on the spans it
        # unwound through.
        tracer = Tracer("faulty")
        with pytest.raises(Exception):
            cluster("dp_ir", RUN.replace(executor="serial", tracer=tracer,
                                         failure_rate=1.0))
        errors = {s["error"] for s in tracer.export()["spans"]
                  if s["error"]}
        assert "GroupExhaustedError" in errors


class TestDeterminism:
    def test_same_seed_same_trace_modulo_wall_clock(self):
        exports = []
        for _ in range(2):
            tracer = Tracer("run")
            cluster("dp_ir", RUN.replace(executor="parallel", tracer=tracer))
            exports.append(canonical_trace(tracer.export()))
        assert json.dumps(exports[0]) == json.dumps(exports[1])

    def test_serving_trace_is_deterministic_too(self):
        exports = []
        for _ in range(2):
            tracer = Tracer("serve")
            serve("batch_dp_ir", ServingConfig(
                clients=4, requests_per_client=6, n=128, seed=5,
                tracer=tracer))
            exports.append(canonical_trace(tracer.export()))
        assert exports[0] == exports[1]


class TestTracingIsAnObserver:
    def test_traced_run_is_bit_identical_to_untraced(self):
        plain = cluster("dp_ir", RUN)
        tracer = Tracer("observed")
        timeline = BudgetTimeline()
        registry = MetricsRegistry()
        traced = cluster("dp_ir", RUN.replace(
            tracer=tracer, metrics_registry=registry, timeline=timeline))
        assert traced.to_dict() == plain.to_dict()
        assert len(tracer) > 0
        # The timeline replays the ledger exactly: summed spend events
        # equal the worst-shard/colluding accounting's total.
        total = sum(
            (event.epsilon for event in timeline.events), Fraction(0)
        )
        assert float(total) == pytest.approx(
            traced.budget.colluding_epsilon
        )

    def test_serving_answers_unchanged_under_tracing(self):
        plain = serve("batch_dp_ir", ServingConfig(
            clients=4, requests_per_client=6, n=128, seed=5))
        traced = serve("batch_dp_ir", ServingConfig(
            clients=4, requests_per_client=6, n=128, seed=5,
            tracer=Tracer("t"), metrics_registry=MetricsRegistry()))
        assert traced.to_dict() == plain.to_dict()


class TestTimelineAndMetrics:
    def test_timeline_flags_first_crossing(self):
        generous = BudgetTimeline(cap=10**6)
        cluster("dp_ir", RUN.replace(timeline=generous))
        assert generous.first_crossing is None
        assert generous.total_spent > 0
        tight = BudgetTimeline(cap=Fraction(1, 1000))
        cluster("dp_ir", RUN.replace(timeline=tight))
        crossing = tight.first_crossing
        assert crossing is not None and crossing.operator.startswith("shard-")

    def test_registry_absorbs_cluster_counters(self):
        registry = MetricsRegistry()
        report = cluster("dp_ir", RUN.replace(metrics_registry=registry,
                                              failure_rate=0.15))
        values = {
            (s["name"], tuple(sorted(s["labels"].items()))): s["value"]
            for s in registry.collect()
        }
        assert values[("repro_queries", ())] == report.requests
        assert values[("repro_epsilon_spent", (("scope", "colluding"),))] \
            == pytest.approx(report.budget.colluding_epsilon)
        fault_kinds = {labels for name, labels in values
                       if name == "repro_faults"}
        assert (("kind", "failed_operations"),) in fault_kinds
        prometheus = registry.to_prometheus()
        assert "repro_epsilon_spent" in prometheus


class TestTraceSummary:
    def test_reconstructs_per_round_critical_paths(self):
        tracer = Tracer("summary")
        cluster("dp_ir", RUN.replace(executor="parallel", tracer=tracer))
        summary = trace_summary(tracer.export())
        assert summary["spans"] == len(tracer)
        rounds = [r for r in summary["rounds"]
                  if r["name"] == "cluster.query_many"]
        assert rounds
        for entry in rounds:
            assert entry["legs"] >= 1
            assert entry["straggler"]["name"] == "cluster.shard_leg"
            assert entry["serial_wall_ms"] >= entry["straggler_wall_ms"]
            assert entry["overlap_speedup"] >= 1.0


class TestObservabilityCli:
    def test_cluster_trace_and_metrics_flags(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = main([
            "cluster", "--shards", "2", "--replicas", "1", "--n", "128",
            "--requests", "16", "--seed", "3",
            "--trace", str(trace_path), "--metrics",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_server_reads gauge" in out
        payload = json.loads(trace_path.read_text())
        assert payload["version"] == 1
        assert payload["spans"]

    def test_serve_trace_flag(self, tmp_path):
        trace_path = tmp_path / "serve.json"
        code = main([
            "serve", "--scheme", "batch-dpir", "--clients", "2",
            "--requests", "4", "--n", "128", "--seed", "3",
            "--trace", str(trace_path),
        ])
        assert code == 0
        names = {s["name"]
                 for s in json.loads(trace_path.read_text())["spans"]}
        assert "serve.round" in names

    def test_audit_without_cap_exits_zero(self, capsys):
        code = main([
            "audit", "--shards", "2", "--requests", "16", "--seed", "3",
            "--timeline",
        ])
        assert code == 0
        assert "epsilon spend timeline" in capsys.readouterr().out

    def test_audit_cap_crossing_exits_one(self, capsys):
        code = main([
            "audit", "--shards", "2", "--requests", "16", "--seed", "3",
            "--cap", "0.001",
        ])
        assert code == 1
        assert "cap crossed" in capsys.readouterr().err

    def test_audit_json_is_exact(self, capsys):
        code = main([
            "audit", "--shards", "2", "--requests", "16", "--seed", "3",
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"]
        assert "/" in payload["total"]["fraction"]
