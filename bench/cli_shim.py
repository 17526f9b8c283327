"""Traced stand-in for ``python -m ulrichcert.cli``, used by cli-cold with
tracing on: ``python3 bench/cli_shim.py TRACE_OUT ARGS...``.

It notes when the interpreter reached the first statement and when
``ulrichcert.cli`` finished importing, runs the command with the layer
wrappers installed, writes the spans to TRACE_OUT and exits with the
command's exit code.
"""
import time

MAIN_NS = time.perf_counter_ns()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import ulrichcert.cli as cli  # noqa: E402

IMPORT_NS = time.perf_counter_ns()


def main(argv):
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import spans
    tracer = spans.Tracer()
    tracer.install(spans.targets() + spans.cli_targets())
    try:
        code = cli.main(argv[1:])
    finally:
        tracer.uninstall()
        with open(argv[0], "w") as handle:
            json.dump({"main_ns": MAIN_NS, "import_ns": IMPORT_NS,
                       "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
