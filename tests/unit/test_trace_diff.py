"""Unit tests for the structural trace diff (``repro.obs.diff``)."""

import copy

import pytest

from repro import SeededRandomSource
from repro.cluster import ClusterIR
from repro.obs import Tracer, canonical_trace, diff_traces
from repro.storage.blocks import integer_database


def _payload():
    return {
        "name": "cluster",
        "version": 1,
        "spans": [
            {
                "id": "1", "name": "round", "parent": None, "error": None,
                "sim_start_ms": 0.0, "sim_end_ms": 5.0, "wall_ms": 1.25,
                "labels": {"batch": 4},
            },
            {
                "id": "1.1", "name": "leg", "parent": "1", "error": None,
                "sim_start_ms": 0.0, "sim_end_ms": 3.0, "wall_ms": 0.75,
                "labels": {"shard": 0, "cost_ms": 3.0},
            },
            {
                "id": "1.2", "name": "leg", "parent": "1", "error": None,
                "sim_start_ms": 0.0, "sim_end_ms": 5.0, "wall_ms": 1.0,
                "labels": {"shard": 1, "cost_ms": 5.0},
            },
        ],
    }


class TestDiffTraces:
    def test_identical_payloads_are_identical(self):
        diff = diff_traces(_payload(), _payload())
        assert diff.identical
        assert diff.differences == ()
        assert diff.spans_a == diff.spans_b == 3

    def test_wall_clock_differences_are_ignored(self):
        other = _payload()
        for span in other["spans"]:
            span["wall_ms"] = span["wall_ms"] * 100 + 7
        diff = diff_traces(_payload(), other)
        assert diff.identical

    def test_label_value_change_is_a_difference(self):
        other = _payload()
        other["spans"][1]["labels"]["shard"] = 3
        diff = diff_traces(_payload(), other)
        assert not diff.identical
        assert any("shard" in line for line in diff.differences)

    def test_missing_span_is_reported_as_baseline_only(self):
        other = _payload()
        other["spans"].pop()
        diff = diff_traces(_payload(), other)
        assert not diff.identical
        assert any("only in baseline" in line for line in diff.differences)
        assert diff.spans_a == 3 and diff.spans_b == 2

    def test_extra_span_is_reported_as_candidate_only(self):
        other = _payload()
        other["spans"].append({
            "id": "1.3", "name": "leg", "parent": "1", "error": None,
            "sim_start_ms": 0.0, "sim_end_ms": 1.0, "labels": {},
        })
        diff = diff_traces(_payload(), other)
        assert any("only in candidate" in line for line in diff.differences)

    def test_name_and_error_mismatches_are_exact(self):
        other = _payload()
        other["spans"][0]["name"] = "batch_round"
        other["spans"][2]["error"] = "TimeoutError"
        diff = diff_traces(_payload(), other)
        assert len(diff.differences) == 2

    def test_tolerance_covers_small_sim_clock_drift(self):
        other = _payload()
        other["spans"][2]["sim_end_ms"] = 5.0 + 5e-7
        assert diff_traces(_payload(), other).identical
        assert not diff_traces(
            _payload(), other, tolerance=1e-9
        ).identical

    def test_tolerance_is_relative_for_large_values(self):
        base = _payload()
        base["spans"][0]["sim_end_ms"] = 1e9
        other = copy.deepcopy(base)
        other["spans"][0]["sim_end_ms"] = 1e9 + 100  # 1e-7 relative
        assert diff_traces(base, other).identical

    def test_numeric_labels_honor_the_tolerance(self):
        other = _payload()
        other["spans"][1]["labels"]["cost_ms"] = 3.0 + 1e-9
        assert diff_traces(_payload(), other).identical

    def test_negative_tolerance_raises(self):
        with pytest.raises(ValueError):
            diff_traces(_payload(), _payload(), tolerance=-1.0)

    def test_trace_name_mismatch_is_reported(self):
        other = _payload()
        other["name"] = "serving"
        diff = diff_traces(_payload(), other)
        assert any("trace name" in line for line in diff.differences)

    def test_to_dict_and_text_shapes(self):
        other = _payload()
        other["spans"][1]["labels"]["shard"] = 3
        diff = diff_traces(_payload(), other)
        data = diff.to_dict()
        assert data["identical"] is False
        assert data["differences"] == list(diff.differences)
        assert "traces differ" in diff.to_text()
        assert "traces structurally identical" in diff_traces(
            _payload(), _payload()
        ).to_text()

    def test_to_text_limit_truncates(self):
        other = _payload()
        for span in other["spans"]:
            span["name"] = span["name"] + "_x"
        text = diff_traces(_payload(), other).to_text(limit=1)
        assert "more" in text


class TestDiffRealRuns:
    """The determinism contract, end to end on real cluster runs."""

    def _trace(self, seed):
        from repro.cluster import ClusterConfig, cluster

        tracer = Tracer("cluster")
        cluster("dp_ir", ClusterConfig(
            shards=2, replicas=1, n=128, requests=32, seed=seed,
            tracer=tracer))
        return canonical_trace(tracer.export())

    def test_same_seed_reruns_diff_clean(self):
        assert diff_traces(self._trace(7), self._trace(7)).identical

    def test_seed_change_produces_differences(self):
        diff = diff_traces(self._trace(7), self._trace(8))
        assert not diff.identical

    def test_structural_change_produces_differences(self):
        tracer = Tracer("cluster")
        rng = SeededRandomSource(7)
        instance = ClusterIR(
            integer_database(128), shard_count=2, replica_count=1,
            rng=rng.spawn("cluster"), tracer=tracer,
        )
        for index in range(8):
            instance.query(index)
        instance.close()
        first = canonical_trace(tracer.export())

        tracer_b = Tracer("cluster")
        rng_b = SeededRandomSource(7)
        instance_b = ClusterIR(
            integer_database(128), shard_count=2, replica_count=1,
            rng=rng_b.spawn("cluster"), tracer=tracer_b,
        )
        for index in range(9):  # one extra round: a structural change
            instance_b.query(index)
        instance_b.close()
        second = canonical_trace(tracer_b.export())

        diff = diff_traces(first, second)
        assert not diff.identical
        assert any("only in candidate" in line for line in diff.differences)
