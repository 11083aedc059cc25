"""Time `onlinekd run` from interpreter start to its first training step.

Usage: python3 setup_probe.py <src dir> run <config.yaml> [run options]

Imports onlinekd from <src dir>, runs ``cli.main`` with the remaining
arguments and stops it at the first stream draw of any cell (imports, YAML
config, world and model build are done by then). Prints the monotonic clock
at that draw; the caller subtracts the time it started this process.
"""

import sys
import time


class FirstStep(Exception):
    pass


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from onlinekd import cli, pipeline

    stamps = []

    def first_draw(world, n):
        stamps.append(time.monotonic())
        raise FirstStep

    pipeline.next_batch = first_draw
    try:
        cli.main(sys.argv[2:])
    except FirstStep:
        print(repr(min(stamps)))
        return 0
    print("error: the run finished without a training step", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
