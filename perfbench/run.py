"""Benchmark command.

Run from the repository root::

    python3 perfbench/run.py --workload fig4-testbed --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones; the last line of standard output is the JSON result.
The program is imported from ``src/`` next to this directory; without
it the command fails with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="see perfbench/CATALOGUE.md")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != src / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    from perfbench import bench

    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(bench.WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    return 0 if result is not None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
