"""The ``service-mixed`` client: a closed loop of ``POST /v1/query`` calls.

Started by ``run.py`` with ``PYTHONPATH=src``.  It starts ``ppcmem2
serve --port 0 --cache <fresh sqlite file>`` in its own process, waits
for ``/v1/health`` (set-up time), then sends the seeded, Zipf-skewed
query stream one request at a time, each caller blocking on its
verdict, and prints one JSON line describing every query.  An untraced
run sends the stream ``STREAMS`` times, and before each stream starts
and stops one extra daemon, a second set-up sample; with ``--trace 1`` the stream
runs twice, against an untraced daemon and then against
``serve_traced.py``.  Every stream starts a fresh daemon with an empty
cache.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import time
import urllib.error

import workloads

#: Untraced runs send the stream this many times, each time to a fresh
#: daemon with an empty cache; ``run.py`` keeps each query's fastest
#: latency, as it keeps each operation's fastest pass elsewhere.  The
#: count is fixed, not set by ``--seconds``: a query's latency varies
#: by about a third from stream to stream, so its fastest time depends
#: on how many streams it had, and a count that follows the host's speed
#: would add to a slowdown.  Five streams take ~25 s.
STREAMS = 5


def _peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class Daemon:
    """One daemon process: started, health-checked, stopped and reaped."""

    def __init__(self, out_dir, tag, trace_out=None):
        from repro.service.client import ServiceClient

        cache = os.path.join(out_dir, f"service-{tag}.sqlite")
        if os.path.exists(cache):
            os.remove(cache)
        here = os.path.dirname(os.path.abspath(__file__))
        if trace_out is None:
            command = [sys.executable, "-m", "repro.tools.cli", "serve"]
        else:
            command = [sys.executable, os.path.join(here, "serve_traced.py"),
                       "--trace-out", trace_out]
        command += ["--port", "0", "--cache", cache]
        self.log = open(os.path.join(out_dir, f"service-{tag}.log"), "w")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.log, text=True
        )
        try:
            line = self.proc.stdout.readline()
            if "listening on " not in line:
                raise RuntimeError(f"daemon did not start: {line!r}")
            url = line.split("listening on ", 1)[1].split()[0]
            self.client = ServiceClient(url=url, timeout=60.0)
            while not self._healthy():
                if time.perf_counter() - started > 60:
                    raise RuntimeError("daemon never answered /v1/health")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_seconds = time.perf_counter() - started

    def _healthy(self):
        try:
            return bool(self.client.health().get("ok"))
        except (OSError, urllib.error.URLError):
            return False

    def stop(self):
        """SIGTERM, wait for a clean exit; returns the daemon's peak RSS."""
        peak = None
        if self.proc.poll() is None:
            peak = _peak_rss_mb(self.proc.pid)
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        return peak


def _run_stream(daemon, queries, pass_index):
    """Send every query; returns (ops, stream seconds).

    The stream's time is the sum of the query latencies.
    """
    from repro.service.client import ServiceError

    options = {"max_states": workloads.SERVICE_BUDGET}
    ops = []
    for number, (index, source) in enumerate(queries):
        sent = time.perf_counter()
        try:
            payload = daemon.client.query(source, options=options)
            error = None
        except (ServiceError, OSError, urllib.error.URLError) as exc:
            payload, error = None, f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - sent) * 1e3
        ops.append((pass_index, number, index, ms, payload, error))
    return ops, sum(op[3] for op in ops) / 1e3


def _check(ops, population):
    """Reference and cache-consistency checks over one stream's replies.

    The first reply for a population entry must be a miss whose verdict
    matches the reference; every later reply must be a hit whose payload
    equals that first miss's field for field.
    """
    first = {}
    out = []
    for pass_index, number, index, ms, payload, error in ops:
        item = population[index]
        op_id = f"q{number}:{item.name}"
        if payload is None:
            out.append([pass_index, op_id, ms, False, False, ["error", error]])
            continue
        cached = payload.pop("cached", None)
        stats = payload["stats"]
        work = [
            "hit" if cached else "miss", payload["status"], payload["complete"],
            stats["states_visited"], stats["unique_states"],
            stats["transitions_taken"], stats["final_states"],
        ]
        if (pass_index, index) not in first:
            first[pass_index, index] = payload
            if item.expected is None and item.edges is not None:
                item.expected = workloads.oracle_expectation(item)
            if payload["status"] == "StateLimit":
                ok = not payload["complete"]
            else:
                ok = item.expected is None or payload["status"] == item.expected
            ok = ok and not cached
        else:
            ok = bool(cached) and payload == first[pass_index, index]
        out.append([pass_index, op_id, ms, ok, bool(payload["complete"]), work])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    population = workloads.service_population(args.seed)
    stream = workloads.service_stream(
        population, args.seed, workloads.SERVICE_QUERIES
    )
    rng = random.Random(args.seed)
    queries = [
        (index, workloads.reformat(population[index].source, rng))
        for index in stream
    ]

    setup, ops, passes, peaks = [], [], [], []
    for pass_index in range(1 if args.trace else STREAMS):
        if not args.trace:
            daemon = Daemon(args.out_dir, f"setup{pass_index}")
            setup.append(daemon.setup_seconds)
            daemon.stop()
        daemon = Daemon(args.out_dir, f"main{pass_index}")
        setup.append(daemon.setup_seconds)
        try:
            stream_ops, seconds = _run_stream(daemon, queries, pass_index)
        finally:
            peaks.append(daemon.stop())
        ops += stream_ops
        passes.append({"seconds": seconds, "traced": False})
    result = {"setup_samples": setup, "peak_rss_mb": peaks[0]}

    if args.trace:
        traced_pass = len(passes)
        daemon = Daemon(args.out_dir, "traced", trace_out=args.trace_out)
        try:
            traced_ops, traced_seconds = _run_stream(daemon, queries, traced_pass)
        finally:
            result["peak_rss_mb"] = daemon.stop()
        ops += traced_ops
        passes.append({"seconds": traced_seconds, "traced": True})
        with open(args.trace_out) as handle:
            result["layers"] = json.load(handle)["layers"]
        result["trace_pass"] = traced_pass

    result["passes"] = passes
    result["ops"] = _check(ops, population)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
