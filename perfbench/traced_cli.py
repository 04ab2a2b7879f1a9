"""Run one framescale CLI command with every layer traced.

    python perfbench/traced_cli.py SPANS_FILE SUBCOMMAND [ARGS...]

Installs the same wrappers as the in-process workloads, calls
``framescale.cli.main`` with the remaining arguments, writes the spans to
SPANS_FILE once at exit and exits with main's code.
"""

import sys

from tracing import Tracer

if __name__ == "__main__":
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import framescale.cli

    try:
        code = framescale.cli.main(argv)
    finally:
        tracer.dump(spans_file)
    sys.exit(code)
