"""``python -m buyhold`` with the tracer installed, for traced cli runs.

Usage: ``clitrace.py TRACE_FILE ARG...``.  Runs ``buyhold.cli.main`` on
the arguments, exactly as ``python -m buyhold ARG...`` would, inside a
``cli.main`` span, and writes the spans and counters to TRACE_FILE.
"""

import json
import sys

import buyhold.cli
from tracer import Tracer


def main():
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    tracer.active = True
    span = tracer.begin("cli.main")
    try:
        status = buyhold.cli.main(argv)
    finally:
        tracer.end(span)
        tracer.active = False
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
