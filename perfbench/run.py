"""End-to-end benchmark of ``repro``: DP-RAM, DP-KVS and the served cluster.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ram-rw --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Each measurement runs ``perfbench/workload.py`` in a fresh interpreter,
one at a time, so set-up time includes ``import repro`` and peak RSS is
the workload's own.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` makes an untraced and a traced run and prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a full record of the
run is written to ``perfbench/out/``.  The exit code is non-zero when
any answer is wrong or a measurement could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("ram-rw", "kvs-ycsb-a", "serve-cluster")
CHILD_TIMEOUT_S = 150
#: Fresh processes that set the workload up in an untraced run;
#: ``setup_s`` is their median.
SETUPS = 3

#: name -> (unit, label).  ``measured`` is wall clock on this machine,
#: ``normalized`` is wall clock scaled to the reference machine speed
#: (see calibrate.py), ``counted`` comes from the program's own counters
#: or parameters, ``modeled`` is a NetworkModel price.  The gated subset
#: is in BENCHMARK.json; the rest is printed and recorded.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "normalized"),
    "ops_per_s": ("1/s", "normalized"),
    "read_p50_ms": ("ms", "normalized"),
    "read_p99_ms": ("ms", "normalized"),
    "write_p50_ms": ("ms", "normalized"),
    "write_p99_ms": ("ms", "normalized"),
    "wall_setup_s": ("s", "measured"),
    "wall_ops_per_s": ("1/s", "measured"),
    "wall_read_p50_ms": ("ms", "measured"),
    "wall_write_p50_ms": ("ms", "measured"),
    "calib_speed": ("ratio", "measured"),
    "blocks_per_op": ("count", "counted"),
    "epsilon": ("nat", "counted"),
    "answer_rate": ("ratio", "counted"),
    "client_peak_blocks": ("count", "counted"),
    "storage_ratio": ("ratio", "counted"),
    "model_p99_ms": ("ms", "modeled"),
    "setup_rss_mb": ("MB", "measured"),
    "peak_rss_mb": ("MB", "measured"),
}

PER_LAYER: dict[str, tuple[str, str]] = {
    "api.import_ms": ("ms", "measured"),
    "api.build_ms": ("ms", "measured"),
    "api.load_ms": ("ms", "measured"),
    "crypto.encrypt_us_per_op": ("us", "measured"),
    "crypto.decrypt_us_per_op": ("us", "measured"),
    "crypto.blocks_per_call": ("count", "counted"),
    "crypto.setup_ms": ("ms", "measured"),
    "crypto.prf_calls_per_op": ("count", "counted"),
    "crypto.prf_us_per_op": ("us", "measured"),
    "core.scheme_us_per_op": ("us", "measured"),
    "core.sampling_us_per_op": ("us", "measured"),
    "hashing.codec_us_per_op": ("us", "measured"),
    "hashing.codec_calls_per_op": ("count", "counted"),
    "storage.read_us_per_op": ("us", "measured"),
    "storage.write_us_per_op": ("us", "measured"),
    "storage.rounds_per_op": ("count", "counted"),
    "storage.slots_per_round": ("count", "counted"),
    "storage.load_ms": ("ms", "measured"),
    "cluster.route_us_per_op": ("us", "measured"),
    "cluster.group_us_per_op": ("us", "measured"),
    "cluster.legs_per_op": ("count", "counted"),
    "cluster.retries_per_op": ("count", "counted"),
    "parallel.fanout_us_per_op": ("us", "measured"),
    "serving.serve_us_per_op": ("us", "measured"),
    "serving.sched_us_per_op": ("us", "measured"),
    "serving.sim_us_per_op": ("us", "measured"),
    "serving.batch_size": ("count", "counted"),
    "serving.queue_wait_p99_ms": ("ms", "modeled"),
    "serving.shed_rate": ("ratio", "counted"),
    "bench.harness_share": ("ratio", "measured"),
    "bench.trace_overhead": ("ratio", "measured"),
    "bench.wall_us_per_op": ("us", "measured"),
}


class BenchError(Exception):
    """A measurement could not be made."""


def gated() -> tuple[list[str], list[str]]:
    """The end-to-end and per-layer metric names BENCHMARK.json gates."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def child(workload: str, seed: int, seconds: float, mode: str,
          inject: str | None = None, spans_out: Path | None = None) -> dict:
    """Run one fresh-interpreter measurement and return its JSON result."""
    command = [sys.executable, str(HERE / "workload.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--mode", mode]
    if inject:
        command += ["--inject", inject]
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload} {mode} run timed out") from error
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"{workload} {mode} run failed "
                         f"(exit {done.returncode}): {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def git_revision() -> str:
    """The checkout's git revision, or ``unknown`` outside a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def check(result: dict) -> list[str]:
    """Correctness problems in one timed result (empty when correct)."""
    problems = []
    metrics = result["metrics"]
    if result["mismatches"]:
        problems.append(f"{result['mismatches']} answers differ from the "
                        "plaintext reference")
    if metrics["blocks_per_op"] != metrics["expected_blocks_per_op"]:
        problems.append(
            f"blocks_per_op {metrics['blocks_per_op']} != scheme figure "
            f"{metrics['expected_blocks_per_op']}")
    return problems


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> dict[str, Any]:
    """All measurements of one workload; returns the run record."""
    record: dict[str, Any] = {"workload": workload, "seed": seed,
                              "seconds": seconds, "trace": int(trace)}
    timed = child(workload, seed, seconds, "timed")
    record["params"] = timed["params"]
    record["timed"] = timed
    record["problems"] = check(timed)
    metrics = dict(timed["metrics"])
    samples = metrics.pop("samples")
    metrics.pop("expected_blocks_per_op")
    setups_done = [timed]
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"{workload}-seed{seed}-spans.json"
        traced = child(workload, seed, seconds, "traced", spans_out=spans)
        record["traced"] = traced
        record["problems"] += check(traced)
        layers = dict(traced["per_layer"])
        layers["bench.trace_overhead"] = (
            (traced["wall_s"] / traced["ops"])
            / (timed["wall_s"] / timed["ops"]))
        record["per_layer"] = layers
        record["layer_shares"] = traced["layer_shares"]
        record["spans_file"] = str(spans.relative_to(ROOT))
    else:
        setups_done += [child(workload, seed, seconds, "setup")
                        for _ in range(SETUPS - 1)]
    for name in ("setup_s", "wall_setup_s"):
        metrics[name] = statistics.median(r[name] for r in setups_done)
    record["setup_values_s"] = [r["wall_setup_s"] for r in setups_done]
    record["end_to_end"] = metrics
    record["samples"] = samples
    record["attempted"] = timed["attempted"]
    record["failed"] = timed["mismatches"] + timed["shed"]
    record["alpha_errors"] = timed["alpha_errors"]
    return record


def print_record(record: dict[str, Any]) -> None:
    """The human-readable view: header, then every metric with its unit."""
    print(f"# {record['workload']}  seed={record['seed']}  "
          f"seconds={record['seconds']}  trace={record['trace']}")
    print("# params: " + json.dumps(record["params"]))
    rows = [(name, record["end_to_end"][name], *END_TO_END[name])
            for name in END_TO_END if name in record["end_to_end"]]
    if record["trace"]:
        rows += [(name, record["per_layer"][name], *PER_LAYER[name])
                 for name in PER_LAYER]
    for name, value, unit, label in rows:
        count = record["samples"].get(name)
        suffix = f"  n={count}" if count is not None else ""
        print(f"{name:28s} {value:14.6g} {unit:6s} {label}{suffix}")
    print(f"# attempted={record['attempted']} failed={record['failed']} "
          f"alpha_errors={record['alpha_errors']}")
    for problem in record["problems"]:
        print(f"# INCORRECT: {problem}")


def summary(record: dict[str, Any], names: list[str], table: dict) -> dict:
    values = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {name: {"value": values[name], "unit": table[name][0]}
            for name in names}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        end_names, layer_names = gated()
        child(WORKLOADS[0], args.seed, 0, "warm")
        header = {"git_revision": git_revision(),
                  "python": platform.python_version(),
                  "nproc": os.cpu_count()}
        print("# " + json.dumps(header))
        chosen = WORKLOADS if args.workload == "all" else (args.workload,)
        records = []
        for workload in chosen:
            record = measure(workload, args.seed, args.seconds,
                             bool(args.trace))
            record.update(header)
            record["labels"] = {name: label for name, (_, label)
                                in {**END_TO_END, **PER_LAYER}.items()}
            print_record(record)
            OUT.mkdir(exist_ok=True)
            (OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
             ).write_text(json.dumps(record, indent=1))
            records.append(record)
    except (BenchError, OSError, KeyError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    names, table = ((layer_names, PER_LAYER) if args.trace
                    else (end_names, END_TO_END))
    if len(records) == 1:
        metrics = summary(records[0], names, table)
    else:
        metrics = {f"{r['workload']}.{name}": value for r in records
                   for name, value in summary(r, names, table).items()}
    correct = not any(r["problems"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
