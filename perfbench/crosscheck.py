"""Cross-check the traced layer split against cProfile on the same workloads.

Run from the root of a checkout::

    python3 perfbench/crosscheck.py --seconds 5

For every workload it makes one traced run and one cProfile run with the
same seed and prints, per leaf layer (a layer that calls no other
wrapped layer), the share of the timed wall that each method puts
there.  Both methods slow the program down, in different places, so the
shares agree only roughly; a layer that one method shows as heavy and
the other as idle means a wrapper is missing or misplaced.  The result
is written to ``perfbench/out/crosscheck.json``.
"""

from __future__ import annotations

import argparse
import json
import sys

import run as bench
import workload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)

    report = {}
    for name in bench.WORKLOADS:
        try:
            traced = bench.child(name, args.seed, args.seconds, "traced")
            profiled = bench.child(name, args.seed, args.seconds, "profile")
        except bench.BenchError as error:
            print(f"crosscheck: {error}", file=sys.stderr)
            return 1
        report[name] = {"traced": traced["layer_shares"],
                        "cprofile": profiled["profile_shares"]}
        print(f"# {name}: share of timed wall per leaf layer")
        print(f"{'layer':16s} {'traced':>8s} {'cProfile':>9s}")
        for layer in workload.LEAF_SPANS:
            print(f"{layer:16s} {traced['layer_shares'][layer]:8.3f} "
                  f"{profiled['profile_shares'][layer]:9.3f}")
    bench.OUT.mkdir(exist_ok=True)
    (bench.OUT / "crosscheck.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
