"""Traced `kpvcr` child: python3 cli_child.py SPANS OP_ID SUBCOMMAND [ARGS...]

Installs the span wrappers, runs `kpvcr.cli.main` on the remaining
arguments (the same path `kpvcr SUBCOMMAND ...` takes), writes the spans to
SPANS and exits with the CLI's exit code.
"""

from __future__ import annotations

import sys

from spans import Tracer, install


def main() -> int:
    spans_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.op = op_id
    install(tracer)
    import kpvcr.cli

    try:
        return kpvcr.cli.main(argv)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
