"""Sensitivity self-test: the benchmark's metrics respond to the layers they name.

For one layer at a time (crypto, storage, ``core.sampling``, the hashing
codec, the serving scheduler) the same wrappers the traced run uses add
a fixed busy-wait to every entry into that layer.  Then:

* on the workload where the layer is heavy, time per operation must
  grow by about ``calls_per_op x delay`` (scaled, like ``ops_per_s``,
  to the reference machine speed) and ``ops_per_s`` must fall by more
  than its bound in BENCHMARK.json;
* the traced run must put that growth in the injected layer's self time;
* on the workload where the layer is light, ``ops_per_s`` must stay
  within its bound.

Run from the root of a checkout (about four minutes on two cores)::

    python3 -m pytest perfbench/test_sensitivity.py -q
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

import run as bench

SECONDS = 3

#: (layer group, busy-wait per entry in us, heavy workload, light workload).
#: Delays are sized so the heavy shift is several times the bound while
#: the light workload's predicted shift stays well inside it.
CASES = (
    ("crypto", 8.0, "ram-rw", "serve-cluster"),
    ("storage", 8.0, "ram-rw", "serve-cluster"),
    ("core.sampling", 60.0, "serve-cluster", "ram-rw"),
    ("hashing.codec", 50.0, "kvs-ycsb-a", "ram-rw"),
    ("serving.sched", 15.0, "serve-cluster", "kvs-ycsb-a"),
)

#: Measured shift / predicted shift must fall in this band.  The
#: predicted shift omits the wrapper's own cost (well under a
#: microsecond per call), hence the wider upper side.
RATIO_BAND = (0.7, 1.5)


def _bound(name: str) -> float:
    spec = json.loads((Path(bench.ROOT) / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == name)


@functools.lru_cache(maxsize=None)
def _run(workload: str, mode: str, inject: str | None = None) -> dict:
    result = bench.child(workload, 1, SECONDS, mode, inject)
    assert not bench.check(result), bench.check(result)
    return result


def _us_per_op(result: dict) -> float:
    return 1e6 / result["metrics"]["ops_per_s"]


@pytest.mark.parametrize("group,delay_us,heavy,light", CASES,
                         ids=[case[0] for case in CASES])
def test_injected_delay_moves_the_named_metric(
    group: str, delay_us: float, heavy: str, light: str,
) -> None:
    bound = _bound("ops_per_s")
    inject = f"{group}:{delay_us}"

    base_trace = _run(heavy, "traced")
    calls = base_trace["groups"][group]["calls_per_op"]
    assert calls > 0, f"{group} never runs on {heavy}"
    predicted = calls * delay_us

    base = _run(heavy, "timed")
    slowed = _run(heavy, "timed", inject)
    # ops_per_s is scaled to the reference machine speed (calibrate.py):
    # the busy-wait, fixed in wall time, is scaled by the same factor.
    predicted *= slowed["metrics"]["calib_speed"]
    shift = _us_per_op(slowed) - _us_per_op(base)
    low, high = RATIO_BAND
    assert low * predicted <= shift <= high * predicted, (
        f"{heavy}: +{shift:.2f} us/op, predicted {predicted:.2f}")
    drop = 1 - slowed["metrics"]["ops_per_s"] / base["metrics"]["ops_per_s"]
    assert drop > bound, f"{heavy}: ops_per_s fell {drop:.1%} <= {bound:.0%}"

    traced = _run(heavy, "traced", inject)
    layer_shift = (traced["groups"][group]["us_per_op"]
                   - base_trace["groups"][group]["us_per_op"])
    wall_predicted = calls * delay_us  # traced figures are wall clock
    assert low * wall_predicted <= layer_shift <= high * wall_predicted, (
        f"{group} self time +{layer_shift:.2f} us/op, "
        f"predicted {wall_predicted:.2f}")
    others = {
        name: traced["groups"][name]["us_per_op"]
        - base_trace["groups"][name]["us_per_op"]
        for name in traced["groups"] if name != group
    }
    assert all(value < 0.25 * layer_shift for value in others.values()), others

    light_base = _run(light, "timed")
    light_slowed = _run(light, "timed", inject)
    change = abs(1 - light_slowed["metrics"]["ops_per_s"]
                 / light_base["metrics"]["ops_per_s"])
    assert change < bound, f"{light}: ops_per_s moved {change:.1%}"
    print(f"\n{group}: {calls:.2f} calls/op x {delay_us} us on {heavy}: "
          f"predicted +{predicted:.1f} us/op, measured +{shift:.1f}, "
          f"traced layer +{layer_shift:.1f}; ops_per_s -{drop:.0%}; "
          f"{light} moved {change:.1%}")
