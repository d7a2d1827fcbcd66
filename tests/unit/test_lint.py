"""Unit tests for repro.lint: rules, pragmas, baselines, engine, CLI.

Every rule gets at least one fixture that must flag and one that must
not; the repo-is-clean integration check lives in
``tests/integration/test_lint_gate.py``.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    Baseline,
    Finding,
    ModuleContext,
    all_rules,
    get_rule,
    iter_python_files,
    lint_paths,
    lint_sources,
    select_rules,
)
from repro.lint.engine import SYNTAX_RULE

CORE = "src/repro/core/fixture.py"
CLUSTER = "src/repro/cluster/fixture.py"
ANALYSIS_LEDGER = "src/repro/analysis/ledger.py"
OUTSIDE = "src/repro/metrics/fixture.py"
RNG_MODULE = "src/repro/crypto/rng.py"


def run(source, path=CORE, rules=None):
    """Lint one dedented fixture snippet under a virtual path."""
    result = lint_sources([(path, textwrap.dedent(source))], rules)
    return result


def rules_hit(source, path=CORE, rules=None):
    return {finding.rule for finding in run(source, path, rules).findings}


class TestRegistry:
    def test_all_seven_rules_registered(self):
        names = {rule.name for rule in all_rules()}
        assert names == {
            "rng-discipline",
            "backend-bypass",
            "nondeterministic-iteration",
            "secret-dependent-branch",
            "float-budget",
            "fan-out-mutation",
            "trace-hygiene",
        }

    def test_get_rule_and_unknown(self):
        assert get_rule("rng-discipline").name == "rng-discipline"
        with pytest.raises(KeyError):
            get_rule("no-such-rule")

    def test_select_rules_default_is_all(self):
        assert len(select_rules(None)) == len(all_rules())
        only = select_rules(["float-budget"])
        assert [rule.name for rule in only] == ["float-budget"]


class TestRngDiscipline:
    def test_flags_import_random(self):
        assert "rng-discipline" in rules_hit("import random\n")

    def test_flags_from_random_import(self):
        assert "rng-discipline" in rules_hit("from random import shuffle\n")

    def test_flags_secrets_and_numpy_random(self):
        assert "rng-discipline" in rules_hit("import secrets\n")
        assert "rng-discipline" in rules_hit("from numpy import random\n")

    def test_flags_os_urandom_use(self):
        source = """
            import os

            def fresh_key():
                return os.urandom(16)
        """
        assert "rng-discipline" in rules_hit(source)

    def test_allows_inside_crypto_rng(self):
        source = "import random\nimport os\nkey = os.urandom(16)\n"
        assert rules_hit(source, path=RNG_MODULE) == set()

    def test_allows_seeded_random_source(self):
        source = """
            def sample(rng, n):
                return rng.sample_distinct(n, 4)
        """
        assert rules_hit(source) == set()

    def test_plain_os_import_is_fine(self):
        assert rules_hit("import os\npath = os.getcwd()\n") == set()


class TestBackendBypass:
    def test_flags_read_slots_outside_storage(self):
        source = """
            def peek(backend):
                return backend.read_slots([0, 1])
        """
        assert "backend-bypass" in rules_hit(source)

    def test_flags_write_slots(self):
        source = """
            def poke(backend, blocks):
                backend.write_slots([0], blocks)
        """
        assert "backend-bypass" in rules_hit(source)

    def test_allows_inside_repro_storage(self):
        source = """
            def read(self, slot):
                return self._backend.read_slots([slot])[0]
        """
        path = "src/repro/storage/server.py"
        assert rules_hit(source, path=path) == set()

    def test_allows_server_level_calls(self):
        source = """
            def query(self, server):
                return server.read_many([1, 2, 3])
        """
        assert rules_hit(source) == set()


class TestNondeterministicIteration:
    def test_flags_for_over_set_literal(self):
        source = """
            def dispatch(self):
                for shard in {2, 0, 1}:
                    self.visit(shard)
        """
        assert "nondeterministic-iteration" in rules_hit(source)

    def test_flags_iteration_over_set_local(self):
        source = """
            def drain(self, keys):
                pending = set(keys)
                return [self.pull(key) for key in pending]
        """
        assert "nondeterministic-iteration" in rules_hit(source)

    def test_flags_list_of_set_attribute(self):
        source = """
            class Directory:
                def __init__(self):
                    self._keys = set()

                def snapshot(self):
                    return list(self._keys)
        """
        assert "nondeterministic-iteration" in rules_hit(source)

    def test_sorted_iteration_is_clean(self):
        source = """
            def drain(self, keys):
                pending = set(keys)
                return [self.pull(key) for key in sorted(pending)]
        """
        assert rules_hit(source) == set()

    def test_reassignment_to_non_set_clears_inference(self):
        source = """
            def drain(self, keys):
                pending = set(keys)
                pending = sorted(pending)
                return [self.pull(key) for key in pending]
        """
        assert rules_hit(source) == set()

    def test_out_of_scope_package_not_flagged(self):
        source = """
            def tally(events):
                return [hash(event) for event in set(events)]
        """
        assert rules_hit(source, path=OUTSIDE) == set()


class TestSecretDependentBranch:
    def test_flags_branch_skipping_storage(self):
        source = """
            class Scheme:
                def query(self, index):
                    if index == 0:
                        return self._cache
                    return self._server.read(index)
        """
        assert "secret-dependent-branch" in rules_hit(source)

    def test_flags_secret_loop_bound(self):
        source = """
            class Scheme:
                def read(self, address):
                    out = []
                    for i in range(address):
                        out.append(self._server.read(i))
                    return out
        """
        assert "secret-dependent-branch" in rules_hit(source)

    def test_flags_secret_while_bound(self):
        source = """
            class Scheme:
                def get(self, key):
                    while key > 0:
                        key -= 1
                    return None
        """
        assert "secret-dependent-branch" in rules_hit(source)

    def test_raise_only_validation_is_legal(self):
        source = """
            class Scheme:
                def query(self, index):
                    if index < 0 or index >= self.n:
                        raise IndexError(index)
                    return self._server.read_many(self._pad(index))
        """
        assert rules_hit(source) == set()

    def test_client_side_selection_is_legal(self):
        source = """
            class Scheme:
                def query(self, index):
                    blocks = self._server.read_many(self._pad(index))
                    answer = None
                    for position, block in enumerate(blocks):
                        if position == index:
                            answer = block
                    return answer
        """
        assert rules_hit(source) == set()

    def test_batch_cardinality_check_is_legal(self):
        source = """
            class Scheme:
                def get_many(self, keys):
                    if not keys:
                        return []
                    return self._server.read_many(self._pads(keys))
        """
        assert rules_hit(source) == set()

    def test_cold_function_not_scoped(self):
        source = """
            class Scheme:
                def rebuild(self, index):
                    if index == 0:
                        return self._server.read(0)
                    return None
        """
        assert rules_hit(source) == set()


class TestFloatBudget:
    def test_flags_float_accumulator_seed(self):
        source = """
            class Ledger:
                def __init__(self):
                    self._total = 0.0
        """
        assert "float-budget" in rules_hit(source, path=ANALYSIS_LEDGER)

    def test_flags_float_slack_literal(self):
        source = """
            def can_afford(spend, cap):
                return spend <= cap + 1e-12
        """
        assert "float-budget" in rules_hit(source, path=ANALYSIS_LEDGER)

    def test_parameter_defaults_are_exempt(self):
        source = """
            def __init__(self, delta_slack: float = 1e-9) -> None:
                self._delta_slack = delta_slack
        """
        assert rules_hit(source, path=ANALYSIS_LEDGER) == set()

    def test_fraction_arithmetic_is_clean(self):
        source = """
            from fractions import Fraction

            def charge(total, epsilon):
                return total + Fraction(epsilon)
        """
        assert rules_hit(source, path=ANALYSIS_LEDGER) == set()

    def test_rule_is_scoped_to_budget_modules(self):
        assert rules_hit("x = 0.0\n", path=OUTSIDE) == set()
        assert rules_hit("x = 0.0\n", path=CORE) == set()


class TestFanOutMutation:
    def test_flags_append_to_closed_over_list(self):
        source = """
            def drain(self, shards):
                results = []
                self._executor.fan_out([
                    lambda shard=shard: results.append(shard.pull())
                    for shard in shards
                ])
                return results
        """
        assert "fan-out-mutation" in rules_hit(source)

    def test_flags_nonlocal_counter(self):
        source = """
            def count(self, shards):
                done = 0

                def task():
                    nonlocal done
                    done += 1

                self._executor.fan_out([task for _ in shards])
                return done
        """
        assert "fan-out-mutation" in rules_hit(source)

    def test_flags_self_attribute_store(self):
        source = """
            def drain(self):
                def task():
                    self._count += 1

                self._executor.fan_out([task])
        """
        assert "fan-out-mutation" in rules_hit(source)

    def test_default_bound_state_is_owned(self):
        source = """
            def drain(self, groups):
                return self._executor.fan_out([
                    (lambda group=group: group.get_many(group.keys))
                    for group in groups
                ])
        """
        assert rules_hit(source) == set()

    def test_locals_inside_nested_def_are_fine(self):
        source = """
            def drain(self, shards):
                def task(shard):
                    out = []
                    out.append(shard.pull())
                    return out

                return self._executor.fan_out(
                    [lambda shard=shard: task(shard) for shard in shards]
                )
        """
        assert rules_hit(source) == set()

    def test_closures_without_fan_out_not_scoped(self):
        source = """
            def collect(self, shards):
                results = []
                tasks = [lambda shard=shard: results.append(shard) for shard in shards]
                for task in tasks:
                    task()
                return results
        """
        assert rules_hit(source) == set()


class TestTraceHygiene:
    def test_flags_secret_index_span_label(self):
        source = """
            def query(self, index):
                with self._tracer.span("cluster.query", index=index):
                    pass
        """
        assert "trace-hygiene" in rules_hit(source)

    def test_flags_key_in_annotate_and_metric_labels(self):
        for call in (
            'span.annotate(key=key)',
            'self._counter.inc(key=str(key))',
            'self._histogram.observe(1.0, first=keys[0])',
            'self._gauge.set(1.0, pad=pad_set[0])',
        ):
            source = f"""
                def touch(self, span, key, keys, pad_set):
                    {call}
            """
            assert "trace-hygiene" in rules_hit(source), call

    def test_flags_secret_attribute_tail(self):
        source = """
            def emit(self, request):
                with self._tracer.span("serve.round", what=request.index):
                    pass
        """
        assert "trace-hygiene" in rules_hit(source)

    def test_len_of_secret_collection_is_public(self):
        source = """
            def emit(self, indices, pads):
                with self._tracer.span(
                    "storage.read_many", batch=len(indices)
                ) as span:
                    span.annotate(pads=len(pads))
        """
        assert rules_hit(source) == set()

    def test_public_labels_pass(self):
        source = """
            def emit(self, shard, server_id, elapsed_ms):
                with self._tracer.span(
                    "cluster.shard_leg", shard=shard, server=server_id
                ) as span:
                    span.annotate(service_ms=elapsed_ms)
        """
        assert rules_hit(source) == set()

    def test_scoped_to_the_repro_tree(self):
        source = """
            def emit(self, tracer, index):
                with tracer.span("demo", index=index):
                    pass
        """
        assert rules_hit(source, path="examples/fixture.py") == set()
        assert "trace-hygiene" in rules_hit(source)


class TestPragmas:
    def test_same_line_pragma_suppresses(self):
        source = (
            "import random  # repro: allow(rng-discipline) -- fixture\n"
        )
        result = run(source)
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["rng-discipline"]

    def test_pragma_only_line_covers_next_line(self):
        source = """
            # repro: allow(rng-discipline) -- fixture
            import random
        """
        result = run(source)
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_block_pragma_on_def_header(self):
        source = """
            def legacy(backend):  # repro: allow(backend-bypass) -- audited
                first = backend.read_slots([0])
                second = backend.read_slots([1])
                return first + second
        """
        result = run(source)
        assert result.findings == []
        assert len(result.suppressed) == 2

    def test_pragma_names_must_match_rule(self):
        source = (
            "import random  # repro: allow(backend-bypass) -- wrong rule\n"
        )
        result = run(source)
        assert [f.rule for f in result.findings] == ["rng-discipline"]
        assert result.suppressed == []

    def test_allow_star_suppresses_everything(self):
        source = "import random  # repro: allow(*) -- generated\n"
        result = run(source)
        assert result.findings == []

    def test_multiple_rules_in_one_pragma(self):
        source = """
            def query(self, index):  # repro: allow(secret-dependent-branch, rng-discipline)
                import random
                if index > 1:
                    return self._server.read(index)
                return None
        """
        result = run(source)
        assert result.findings == []
        assert len(result.suppressed) == 2


class TestEngine:
    def test_syntax_error_becomes_finding(self):
        result = lint_sources([(CORE, "def broken(:\n")])
        assert [f.rule for f in result.findings] == [SYNTAX_RULE]

    def test_findings_sorted_and_deduped(self):
        source = textwrap.dedent(
            """
            import random
            import secrets
            """
        )
        result = lint_sources([(CORE, source)])
        lines = [f.line for f in result.findings]
        assert lines == sorted(lines)
        assert len(result.findings) == len(set(result.findings))

    def test_rule_selection_limits_findings(self):
        source = textwrap.dedent(
            """
            import random

            def peek(backend):
                return backend.read_slots([0])
            """
        )
        result = lint_sources([(CORE, source)], ["backend-bypass"])
        assert {f.rule for f in result.findings} == {"backend-bypass"}

    def test_iter_python_files_skips_caches(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.py").write_text("x = 1\n")
        found = list(iter_python_files([tmp_path]))
        assert [p.name for p in found] == ["a.py"]
        assert "__pycache__" not in {p.parent.name for p in found}

    def test_lint_paths_display_root(self, tmp_path):
        target = tmp_path / "src" / "repro" / "core" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text("import random\n")
        result = lint_paths([tmp_path], display_root=tmp_path)
        assert [f.path for f in result.findings] == [
            "src/repro/core/bad.py"
        ]

    def test_finding_payload(self):
        result = run("import random\n")
        finding = result.findings[0]
        assert finding.rule == "rng-discipline"
        assert finding.line == 1
        assert finding.hint
        assert finding.location().startswith(CORE + ":1")
        payload = finding.to_dict()
        assert payload["rule"] == "rng-discipline"
        assert payload["path"] == CORE


class TestBaseline:
    def _finding(self, message="import of 'random' ...", path=CORE):
        return Finding(
            path=path, line=3, col=0, rule="rng-discipline",
            message=message, hint="",
        )

    def test_roundtrip(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        findings = [self._finding(), self._finding(), self._finding("other")]
        Baseline.from_findings(findings).save(baseline_path)
        loaded = Baseline.load(baseline_path)
        assert len(loaded) == 3
        diff = loaded.diff(findings)
        assert diff.new == []
        assert len(diff.matched) == 3
        assert diff.stale == []

    def test_missing_file_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "nope.json")
        assert len(baseline) == 0

    def test_malformed_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            Baseline.load(path)
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError):
            Baseline.load(path)

    def test_line_moves_do_not_unbaseline(self):
        baseline = Baseline.from_findings([self._finding()])
        moved = Finding(
            path=CORE, line=57, col=4, rule="rng-discipline",
            message="import of 'random' ...", hint="",
        )
        diff = baseline.diff([moved])
        assert diff.new == []
        assert diff.matched == [moved]

    def test_second_occurrence_is_new(self):
        baseline = Baseline.from_findings([self._finding()])
        diff = baseline.diff([self._finding(), self._finding()])
        assert len(diff.matched) == 1
        assert len(diff.new) == 1

    def test_stale_entries_reported(self):
        baseline = Baseline.from_findings([self._finding("gone")])
        diff = baseline.diff([])
        assert diff.stale == [("rng-discipline", CORE, "gone")]


class TestCli:
    def _main(self, argv, capsys):
        from repro.__main__ import main

        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.fixture()
    def fixture_tree(self, tmp_path, monkeypatch):
        clean = tmp_path / "src" / "repro" / "core" / "ok.py"
        clean.parent.mkdir(parents=True)
        clean.write_text("def fine(server):\n    return server.read(0)\n")
        dirty = tmp_path / "src" / "repro" / "core" / "bad.py"
        dirty.write_text("import random\n")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_clean_path_exits_zero(self, fixture_tree, capsys):
        code, out, _ = self._main(
            ["lint", "--no-baseline", "src/repro/core/ok.py"], capsys
        )
        assert code == 0
        assert "0 findings" in out or "no new findings" in out

    def test_violation_exits_one(self, fixture_tree, capsys):
        code, out, _ = self._main(
            ["lint", "--no-baseline", "src/repro/core/bad.py"], capsys
        )
        assert code == 1
        assert "rng-discipline" in out

    def test_json_output(self, fixture_tree, capsys):
        code, out, _ = self._main(
            ["lint", "--no-baseline", "--json", "src/repro/core/bad.py"],
            capsys,
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["findings"]
        assert payload["findings"][0]["rule"] == "rng-discipline"

    def test_rule_filter(self, fixture_tree, capsys):
        code, _, _ = self._main(
            ["lint", "--no-baseline", "--rule", "backend-bypass",
             "src/repro/core/bad.py"],
            capsys,
        )
        assert code == 0

    def test_unknown_rule_is_usage_error(self, fixture_tree, capsys):
        code, _, err = self._main(
            ["lint", "--rule", "no-such-rule", "src/repro/core/ok.py"],
            capsys,
        )
        assert code == 2
        assert "no-such-rule" in err

    def test_missing_path_is_usage_error(self, fixture_tree, capsys):
        code, _, err = self._main(["lint", "does/not/exist"], capsys)
        assert code == 2
        assert "no such path" in err

    def test_write_baseline_then_gate_passes(self, fixture_tree, capsys):
        code, _, _ = self._main(
            ["lint", "--write-baseline", "--baseline", "base.json",
             "src/repro/core/bad.py"],
            capsys,
        )
        assert code == 0
        assert Path("base.json").exists()
        code, out, _ = self._main(
            ["lint", "--baseline", "base.json", "src/repro/core/bad.py"],
            capsys,
        )
        assert code == 0
        assert "baselined" in out

    def test_list_rules(self, fixture_tree, capsys):
        code, out, _ = self._main(["lint", "--list-rules"], capsys)
        assert code == 0
        for name in ("rng-discipline", "backend-bypass", "float-budget"):
            assert name in out
