"""One traced ramfourier CLI invocation, for the traced cli-cold run.

Installs the tracer's wrappers, runs ramfourier.cli.main on the given
arguments inside a `cli.main` span, and writes two JSON lines to
SPANS_FILE: the spans with the arith cache counters, then the seconds
this bootstrap spent on its own bookkeeping, which the parent takes out
of the start-up time. Exits with the CLI's status.

Usage, with src on PYTHONPATH:  python cli_boot.py SPANS_FILE ARG...
"""

import json
import sys
from time import perf_counter

import ramfourier.cli
import tracer


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    tr = tracer.Tracer()
    tr.install()
    before = perf_counter() - t0
    code = ramfourier.cli.main(argv)  # the installed wrapper records the span
    sys.stdout.flush()
    t0 = perf_counter()
    tr.dump(path, cache=tracer.cache_counts())
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n" + json.dumps({"bookkeeping_s": before + perf_counter() - t0}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
