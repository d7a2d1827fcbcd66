"""Run one benchmark workload in this (fresh) interpreter and print one JSON line.

``run.py`` starts this script once per measurement so that every
process pays its own ``import repro`` and its peak RSS is its own::

    python3 perfbench/workload.py --workload ram-rw --seed 1 --seconds 10 \
        --mode timed

Modes:

* ``warm``   — import ``repro`` only (fills the bytecode cache);
* ``setup``  — import, generate inputs, build and load; report set-up time;
* ``timed``  — set up, then drive the public API for ``--seconds``;
* ``traced`` — ``timed`` with every layer wrapped (:mod:`layers`);
* ``profile``— ``timed`` under cProfile (the cross-check of the trace).

``--inject GROUP:US`` adds a busy-wait of ``US`` microseconds to every
entry into one layer group (sensitivity self-test only).

Set-up time runs from ``import repro`` to the first timed operation and
excludes generating the inputs, which all happen before any clock that
is reported starts.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def percentile(sorted_ns: list[float], q: float) -> float:
    """Nearest-rank percentile of ``sorted_ns``, in milliseconds."""
    rank = max(1, math.ceil(q * len(sorted_ns)))
    return sorted_ns[rank - 1] / 1e6


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def stored_bytes(scheme: Any) -> int:
    """Bytes held by every server backend of ``scheme``."""
    total = 0
    for server in scheme.servers():
        for slot in range(server.capacity):
            block = server.peek(slot)
            if block is not None:
                total += len(block)
    return total


def window(wall_ns: int, ops: int, reads: Any, writes: Any,
           probe_ns: int, probes: int) -> tuple[int, int, Any, Any, float]:
    """``(wall_ns, ops, reads, writes, speed)`` of one window.

    ``wall_ns`` excludes the calibration units; ``speed`` is the
    machine's calibration rate over the window relative to the
    reference machine.
    """
    speed = probes / (probe_ns / 1e9) / calibrate.REFERENCE_UNITS_PER_S
    return wall_ns, ops, reads, writes, speed


def closed_loop(read: Any, write: Any, ops: list[tuple[Any, Any]],
                reference: Any, seconds: float) -> dict[str, Any]:
    """One caller issuing ``ops`` back to back for ``seconds``.

    ``ops`` holds ``(key, value)`` pairs, ``value`` ``None`` for a read;
    it is replayed from the start when exhausted.  ``reference`` (a list
    or dict) is the plaintext model every read is checked against.  The
    loop marks half-second windows so the caller can report medians over
    windows, and runs a calibration unit (:mod:`calibrate`) between
    operations at most every ``calibrate.INTERVAL_NS``.
    """
    window_ns = 500_000_000
    length = len(ops)
    reads, writes = array("q"), array("q")
    marks: list[tuple[int, ...]] = []
    mismatches = 0
    probe, interval = calibrate.unit, calibrate.INTERVAL_NS
    probe_ns = probes = 0
    clock = perf_counter_ns
    start = clock()
    marks.append((start, 0, 0, 0, 0, 0))
    next_probe = start
    next_mark = start + window_ns
    deadline = start + int(seconds * 1e9)
    done = 0
    while True:
        key, value = ops[done % length]
        if value is None:
            t0 = clock()
            got = read(key)
            t1 = clock()
            reads.append(t1 - t0)
            if got != reference[key]:
                mismatches += 1
        else:
            t0 = clock()
            write(key, value)
            t1 = clock()
            writes.append(t1 - t0)
            reference[key] = value
        done += 1
        if t1 >= next_probe:
            probe()
            t2 = clock()
            probe_ns += t2 - t1
            probes += 1
            next_probe = t2 + interval
            if t2 >= next_mark:
                marks.append((t2, done, len(reads), len(writes),
                               probe_ns, probes))
                next_mark += window_ns
                if t2 >= deadline:
                    break
    windows = [
        window(end[0] - begin[0] - (end[4] - begin[4]), end[1] - begin[1],
               reads[begin[2]:end[2]], writes[begin[3]:end[3]],
               end[4] - begin[4], end[5] - begin[5])
        for begin, end in zip(marks, marks[1:])
    ]
    return {"wall_ns": marks[-1][0] - start, "ops": done, "attempted": done,
            "answered": done - mismatches, "mismatches": mismatches,
            "windows": windows}


class RamRW:
    """``dp_ram`` over a slab backend, uniform indices, 50% writes."""

    name = "ram-rw"
    n = 65_536
    block_size = 64
    trace_length = 131_072
    write_fraction = 0.5

    def params(self) -> dict[str, Any]:
        return {"scheme": "dp_ram", "n": self.n, "block_size": self.block_size,
                "backend": "slab", "write_fraction": self.write_fraction,
                "trace_length": self.trace_length, "loop": "closed, 1 caller"}

    def inputs(self, seed: int) -> None:
        from repro.crypto.rng import SeededRandomSource
        from repro.storage.blocks import integer_database
        from repro.workloads.generators import read_write_trace

        trace = read_write_trace(
            self.n, self.trace_length, SeededRandomSource(seed),
            self.write_fraction, self.block_size,
        )
        self.ops = [(op.index, op.value) for op in trace.operations]
        self.reference = integer_database(self.n, self.block_size)

    def build(self, repro: Any, seed: int) -> Any:
        return repro.build("dp_ram", n=self.n, block_size=self.block_size,
                           backend="slab", seed=seed)

    def expected_blocks_per_op(self, repro: Any, scheme: Any) -> float:
        return repro.datasheet_for(scheme).blocks_per_query

    def user_bytes(self) -> int:
        return self.n * self.block_size

    def timed(self, scheme: Any, seconds: float) -> dict[str, Any]:
        return closed_loop(scheme.read, scheme.write, self.ops,
                           self.reference, seconds)


class KvsYcsbA:
    """``dp_kvs``: YCSB load of 8,192 keys, then 50/50 get/update, skewed."""

    name = "kvs-ycsb-a"
    capacity = 16_384
    keys = 8_192
    key_size = 16
    value_size = 32
    trace_length = 40_000

    def params(self) -> dict[str, Any]:
        return {"scheme": "dp_kvs", "capacity": self.capacity,
                "loaded_keys": self.keys, "key_size": self.key_size,
                "value_size": self.value_size, "backend": "memory",
                "profile": "YCSB-A (50% get / 50% update)",
                "trace_length": self.trace_length, "loop": "closed, 1 caller"}

    def inputs(self, seed: int) -> None:
        from repro.crypto.rng import SeededRandomSource
        from repro.workloads.kv_traces import ycsb_trace

        trace = ycsb_trace(self.keys, self.trace_length,
                           SeededRandomSource(seed), "A", self.value_size)
        ops = [(op.key, op.value) for op in trace.operations]
        self.load, self.ops = ops[:self.keys], ops[self.keys:]
        self.reference: dict[bytes, bytes] = {}

    def build(self, repro: Any, seed: int) -> Any:
        store = repro.build("dp_kvs", n=self.capacity, key_size=self.key_size,
                            value_size=self.value_size, seed=seed)
        # The load phase is most of set-up and long enough for the
        # machine's speed to change, so it carries its own calibration.
        probe, interval = calibrate.unit, calibrate.INTERVAL_NS
        clock = perf_counter_ns
        start = next_probe = clock()
        probe_ns = probes = 0
        for key, value in self.load:
            store.put(key, value)
            self.reference[key] = value
            now = clock()
            if now >= next_probe:
                probe()
                after = clock()
                probe_ns += after - now
                probes += 1
                next_probe = after + interval
        self.load_phase = (clock() - start, probe_ns, probes)
        return store

    def expected_blocks_per_op(self, repro: Any, scheme: Any) -> float:
        return repro.datasheet_for(scheme).blocks_per_query

    def user_bytes(self) -> int:
        return len(self.reference) * (self.key_size + self.value_size)

    def timed(self, scheme: Any, seconds: float) -> dict[str, Any]:
        return closed_loop(scheme.get, scheme.put, self.ops,
                           self.reference, seconds)


class ServeCluster:
    """``cluster_dp_ir`` (4 shards x 2 replicas) served by ``repro.serve``."""

    name = "serve-cluster"
    n = 32_768
    shards = 4
    replicas = 2
    clients = 4
    #: Per-tenant open-loop rate.  4 x 200 = 800 req/s is about half the
    #: modeled saturation point (~1,590 req/s under LAN, where the
    #: queue starts to grow with run length), so the queue stays bounded.
    rate_rps = 200.0
    requests_per_client = 500
    serve_calls = 128

    def params(self) -> dict[str, Any]:
        return {"scheme": "cluster_dp_ir", "n": self.n, "block_size": 64,
                "shards": self.shards, "replicas": self.replicas,
                "epsilon": "ln n (default)", "alpha": 0.05,
                "authenticated": True, "backend": "slab",
                "executor": "serial", "scheduler": "continuous",
                "clients": self.clients, "workload": "zipf", "load": "open",
                "rate_rps_per_client": self.rate_rps,
                "requests_per_client": self.requests_per_client,
                "network_model": "lan"}

    def inputs(self, seed: int) -> None:
        from repro.serving import ServingConfig
        from repro.storage.blocks import integer_database

        self.configs = [
            ServingConfig(
                scheduler="continuous", clients=self.clients,
                workload="zipf", load="open", rate_rps=self.rate_rps,
                requests_per_client=self.requests_per_client,
                seed=seed * 1_000_003 + call, network="lan",
            )
            for call in range(self.serve_calls)
        ]
        self.reference = integer_database(self.n)

    def build(self, repro: Any, seed: int) -> Any:
        return repro.build("cluster_dp_ir", n=self.n, shard_count=self.shards,
                           replica_count=self.replicas, backend="slab",
                           executor="serial", seed=seed)

    def expected_blocks_per_op(self, repro: Any, scheme: Any) -> float:
        pads = {replica.pad_size for group in scheme.groups
                for replica in group.replicas}
        if len(pads) != 1:
            raise RuntimeError(f"shards disagree on pad size: {pads}")
        return float(pads.pop())

    def user_bytes(self) -> int:
        return self.n * 64

    def timed(self, scheme: Any, seconds: float) -> dict[str, Any]:
        import repro

        reference = self.reference
        rounds = array("q")
        tally = {"mismatches": 0, "alpha": 0, "probe_ns": 0, "probes": 0,
                 "next_probe": 0}
        query_many = scheme.query_many
        probe, interval = calibrate.unit, calibrate.INTERVAL_NS
        clock = perf_counter_ns

        def checked_query_many(indices: list[int]) -> list[bytes | None]:
            t0 = clock()
            answers = query_many(indices)
            t1 = clock()
            rounds.append(t1 - t0)
            for index, answer in zip(indices, answers):
                if answer is None:
                    tally["alpha"] += 1
                elif answer != reference[index]:
                    tally["mismatches"] += 1
            if t1 >= tally["next_probe"]:
                probe()
                t2 = clock()
                tally["probe_ns"] += t2 - t1
                tally["probes"] += 1
                tally["next_probe"] = t2 + interval
            return answers

        scheme.query_many = checked_query_many
        reports = []
        marks = []
        configs = self.configs
        start = clock()
        marks.append((start, 0, 0, 0))
        deadline = start + int(seconds * 1e9)
        while True:
            reports.append(repro.serve(scheme, configs[len(reports) % len(configs)]))
            marks.append((clock(), len(rounds), tally["probe_ns"],
                          tally["probes"]))
            if marks[-1][0] >= deadline:
                break
        del scheme.query_many
        # One window per serve() call: its requests and dispatch rounds.
        windows = [
            window(end[0] - begin[0] - (end[2] - begin[2]), report.completed,
                   rounds[begin[1]:end[1]], [], end[2] - begin[2],
                   end[3] - begin[3])
            for begin, end, report in zip(marks, marks[1:], reports)
        ]
        requests = sum(r.requests for r in reports)
        completed = sum(r.completed for r in reports)
        shed = sum(r.shed for r in reports)
        if sum(r.errors for r in reports) != tally["alpha"]:
            raise RuntimeError("serving report and checked answers disagree")
        return {
            "wall_ns": marks[-1][0] - start, "windows": windows,
            "ops": completed, "attempted": requests,
            "answered": completed - tally["alpha"] - tally["mismatches"],
            "mismatches": tally["mismatches"], "alpha_errors": tally["alpha"],
            "shed": shed,
            "serve_calls": len(reports),
            "model_p99_ms": statistics.median(r.latency.p99_ms for r in reports),
            "queue_wait_p99_ms": statistics.median(
                r.queue_latency.p99_ms for r in reports),
            "batch_size": completed / sum(r.dispatches for r in reports),
            "retries": sum(g.failovers for g in scheme.groups),
        }


WORKLOADS = {w.name: w for w in (RamRW, KvsYcsbA, ServeCluster)}


def end_to_end(work: Any, repro: Any, scheme: Any, run: dict[str, Any],
               blocks: int, expected_blocks: float) -> dict[str, Any]:
    """The user-visible metrics of one timed phase (setup_s excluded)."""
    windows = run["windows"]
    metrics: dict[str, Any] = {
        "ops_per_s": statistics.median(
            ops / (wall / 1e9) / speed for wall, ops, _, _, speed in windows),
        "wall_ops_per_s": statistics.median(
            ops / (wall / 1e9) for wall, ops, _, _, _ in windows),
        "calib_speed": statistics.median(w[4] for w in windows),
        "blocks_per_op": blocks / run["attempted"],
        "expected_blocks_per_op": expected_blocks,
        "answer_rate": run["answered"] / run["attempted"],
        "client_peak_blocks": scheme.client_peak_blocks or 0,
        "storage_ratio": stored_bytes(scheme) / work.user_bytes(),
        "epsilon": (scheme.epsilon if work.name == "serve-cluster"
                    else repro.datasheet_for(scheme).epsilon),
    }
    samples: dict[str, int] = {"windows": len(windows)}
    for position, kind in ((2, "read"), (3, "write")):
        # Each sample is scaled by its own window's machine speed, then
        # the percentiles are taken over the whole run.
        wall = sorted(v for w in windows for v in w[position])
        if not wall:
            continue
        scaled = sorted(v * w[4] for w in windows for v in w[position])
        for q in (50, 99):
            metrics[f"{kind}_p{q}_ms"] = percentile(scaled, q / 100)
            samples[f"{kind}_p{q}_ms"] = len(scaled)
        metrics[f"wall_{kind}_p50_ms"] = percentile(wall, 0.5)
    if "model_p99_ms" in run:
        metrics["model_p99_ms"] = run["model_p99_ms"]
    metrics["samples"] = samples
    return metrics


def per_layer(recorder: Any, run: dict[str, Any], import_s: float,
              build_s: float) -> dict[str, float]:
    """Per-timed-op layer figures from a traced run's recorder."""
    ops = run["ops"]
    rec = recorder

    def us(prefix: str) -> float:
        return rec.self_ns("timed", prefix) / ops / 1e3

    def per_op(prefix: str) -> float:
        return rec.calls("timed", prefix) / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    crypto_calls = rec.calls("timed", "crypto.encrypt") + rec.calls(
        "timed", "crypto.decrypt")
    crypto_items = rec.items("timed", "crypto.encrypt") + rec.items(
        "timed", "crypto.decrypt")
    storage_calls = rec.calls("timed", "storage.read") + rec.calls(
        "timed", "storage.write")
    storage_items = rec.items("timed", "storage.read") + rec.items(
        "timed", "storage.write")
    attempted = run["attempted"]
    return {
        "api.import_ms": import_s * 1e3,
        "api.build_ms": rec.inclusive_ns("setup", "api.build") / 1e6,
        "api.load_ms": build_s * 1e3
        - rec.inclusive_ns("setup", "api.build") / 1e6,
        "crypto.encrypt_us_per_op": us("crypto.encrypt"),
        "crypto.decrypt_us_per_op": us("crypto.decrypt"),
        "crypto.blocks_per_call": ratio(crypto_items, crypto_calls),
        "crypto.setup_ms": rec.self_ns("setup", "crypto") / 1e6,
        "crypto.prf_calls_per_op": per_op("crypto.prf"),
        "crypto.prf_us_per_op": us("crypto.prf"),
        "core.scheme_us_per_op": us("core.scheme"),
        "core.sampling_us_per_op": us("core.sampling"),
        "hashing.codec_us_per_op": us("hashing.codec"),
        "hashing.codec_calls_per_op": per_op("hashing.codec"),
        "storage.read_us_per_op": us("storage.read"),
        "storage.write_us_per_op": us("storage.write"),
        "storage.rounds_per_op": storage_calls / ops,
        "storage.slots_per_round": ratio(storage_items, storage_calls),
        "storage.load_ms": rec.self_ns("setup", "storage") / 1e6,
        "cluster.route_us_per_op": us("cluster.route"),
        "cluster.group_us_per_op": us("cluster.group"),
        "cluster.legs_per_op": per_op("cluster.group"),
        "cluster.retries_per_op": run.get("retries", 0) / ops,
        "parallel.fanout_us_per_op": us("parallel.fanout"),
        "serving.serve_us_per_op": us("serving.serve"),
        "serving.sched_us_per_op": us("serving.sched"),
        "serving.sim_us_per_op": us("serving.sim"),
        "serving.batch_size": run.get("batch_size", 0.0),
        "serving.queue_wait_p99_ms": run.get("queue_wait_p99_ms", 0.0),
        "serving.shed_rate": run.get("shed", 0) / attempted,
        "bench.harness_share": 1 - rec.top_ns.get("timed", 0) / run["wall_ns"],
        "bench.wall_us_per_op": run["wall_ns"] / ops / 1e3,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", default="timed",
                        choices=("warm", "setup", "timed", "traced", "profile"))
    parser.add_argument("--inject", default=None, metavar="GROUP:US")
    parser.add_argument("--spans-out", default=None, metavar="PATH")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    speed_before = calibrate.rate(0.1)
    clock0 = perf_counter()
    import repro
    import_s = perf_counter() - clock0
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.mode == "warm":
        print(json.dumps({"import_s": import_s}))
        return 0

    import layers

    recorder = None
    group, delay_us = None, 0.0
    if args.inject:
        group, _, value = args.inject.partition(":")
        delay_us = float(value)
    if args.mode == "traced":
        recorder = layers.Recorder(
            op_span="cluster.route" if args.workload == "serve-cluster" else None,
            inject_group=group, inject_us=delay_us)
        recorder.install()
    elif group is not None:
        layers.Injector(group, delay_us).install()

    work = WORKLOADS[args.workload]()
    work.inputs(args.seed)
    clock1 = perf_counter()
    scheme = work.build(repro, args.seed)
    load_ns, probe_ns, probes = getattr(work, "load_phase", (0, 0, 0))
    build_s = perf_counter() - clock1 - probe_ns / 1e9
    setup_s = import_s + build_s
    load_s = (load_ns - probe_ns) / 1e9
    speed = (speed_before + calibrate.rate(0.1)) / 2
    normalized = (setup_s - load_s) * speed
    if probes:
        normalized += load_s * probes / (probe_ns / 1e9)
    result: dict[str, Any] = {"workload": work.name, "seed": args.seed,
                              "setup_s": normalized
                              / calibrate.REFERENCE_UNITS_PER_S,
                              "wall_setup_s": setup_s, "import_s": import_s,
                              "build_s": build_s, "params": work.params()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    setup_rss_mb = peak_rss_mb()
    before = sum(scheme.server_counters())
    if recorder is not None:
        recorder.phase = "timed"
    if args.mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        run = work.timed(scheme, args.seconds)
        profiler.disable()
        result["profile_shares"] = profile_shares(profiler, run["wall_ns"])
    else:
        run = work.timed(scheme, args.seconds)
    blocks = sum(scheme.server_counters()) - before
    if recorder is not None:
        recorder.phase = "done"
    metrics = end_to_end(work, repro, scheme, run, blocks,
                         work.expected_blocks_per_op(repro, scheme))
    metrics["setup_rss_mb"] = setup_rss_mb
    metrics["peak_rss_mb"] = peak_rss_mb()
    result.update({
        "ops": run["ops"], "wall_s": run["wall_ns"] / 1e9,
        "attempted": run["attempted"],
        "mismatches": run["mismatches"],
        "alpha_errors": run.get("alpha_errors", 0),
        "shed": run.get("shed", 0), "serve_calls": run.get("serve_calls"),
        "metrics": metrics,
    })
    if recorder is not None:
        result["per_layer"] = per_layer(recorder, run, import_s, build_s)
        result["layer_shares"] = traced_shares(recorder, run["wall_ns"])
        result["groups"] = {
            group: {"us_per_op": recorder.self_ns("timed", group)
                    / run["ops"] / 1e3,
                    "calls_per_op": recorder.calls("timed", group) / run["ops"]}
            for group in layers.INJECTABLE
        }
        result["dropped_spans"] = recorder.dropped
        if args.spans_out:
            with open(args.spans_out, "w") as handle:
                json.dump(recorder.export(), handle)
    print(json.dumps(result))
    return 0


#: Layers with no wrapped callee: their traced self time equals their
#: inclusive time, which cProfile reports as cumulative time.
LEAF_SPANS = ("crypto.encrypt", "crypto.decrypt", "crypto.prf",
              "storage.read", "storage.write", "core.sampling",
              "hashing.codec", "serving.sched")


def traced_shares(recorder: Any, wall_ns: int) -> dict[str, float]:
    """Share of the timed wall spent in each leaf layer (traced run)."""
    return {name: recorder.self_ns("timed", name) / wall_ns
            for name in LEAF_SPANS}


def profile_shares(profiler: Any, wall_ns: int) -> dict[str, float]:
    """Share of the profiled wall spent in each leaf layer, from cProfile.

    A layer's time is the cumulative time of its functions, less calls
    they receive from functions of the same layer (so
    ``decrypt_authenticated`` calling ``decrypt`` counts once).
    """
    import pstats

    import layers

    stats = pstats.Stats(profiler).stats
    keys: dict[tuple[str, int, str], str] = {}
    for target in layers.TARGETS:
        if target.span not in LEAF_SPANS:
            continue
        owner, attr, is_class = layers.resolve(target.where)
        code = (owner.__dict__[attr] if is_class
                else getattr(owner, attr)).__code__
        keys[(code.co_filename, code.co_firstlineno, code.co_name)] = target.span
    shares = dict.fromkeys(LEAF_SPANS, 0.0)
    for key, span in keys.items():
        if key not in stats:
            continue
        _, _, _, cumulative, callers = stats[key]
        nested = sum(edge[3] for caller, edge in callers.items()
                     if keys.get(caller) == span)
        shares[span] += (cumulative - nested) / (wall_ns / 1e9)
    return shares


if __name__ == "__main__":
    sys.exit(main())
