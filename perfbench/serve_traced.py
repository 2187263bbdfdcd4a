"""``ppcmem2 serve`` with the benchmark's layer wrappers installed.

Usage: ``PYTHONPATH=src python3 perfbench/serve_traced.py --trace-out F
[--port P] [--cache PATH]``.  Installs ``tracing.Tracer`` wrappers, runs
``repro.service.daemon.serve`` until SIGTERM, then writes the per-layer
totals and request spans to ``F`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from tracing import Tracer


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--cache", default=":memory:")
    args = parser.parse_args(argv)

    from repro.service.daemon import serve

    tracer = Tracer()
    tracer.install()
    try:
        status = serve(port=args.port, cache_path=args.cache)
    finally:
        tracer.uninstall()
        with open(args.trace_out, "w") as handle:
            json.dump({"layers": tracer.totals(), "spans": tracer.spans}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
