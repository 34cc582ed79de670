"""Traced CLI child: install the span wrappers, then run ``skdlab.cli.main``.

    python3 perfbench/launch.py SPANS_JSON OP_INDEX -- <skdlab cli arguments>

The cli_pipeline workload starts each step through this launcher in traced
runs, so the child's per-layer spans reach the parent through SPANS_JSON.
"""
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from skdlab import cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    out, op, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py SPANS_JSON OP_INDEX -- ARGS...")
    tracer = Tracer(op=int(op))
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
