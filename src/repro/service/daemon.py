"""``ppcmem2 serve``: the long-running envelope-checking daemon.

A stdlib-only HTTP service (``http.server.ThreadingHTTPServer``) in
front of one ``EnvelopeEngine`` with a persistent ``VerdictCache``:

* ``POST /v1/jobs`` submits a batch -- litmus sources and/or a generator
  spec -- onto an async job queue; a background scheduler thread drains
  the queue, running each batch through ``EnvelopeEngine.run_batch``
  (which fans cache misses across worker processes, one test each);
* ``GET /v1/jobs/<id>`` polls status, ``GET /v1/jobs/<id>/results``
  fetches the verdicts once done (the newest ``MAX_FINISHED_JOBS``
  finished jobs are kept; an older one answers 404 like an unknown id);
* ``POST /v1/query`` answers one test synchronously (a cache hit
  returns in microseconds -- the "millionth user asking about MP+syncs"
  path);
* ``GET /v1/health`` / ``GET /v1/stats`` report liveness, cache
  hit/miss counters, queue depths and the number of TCP connections
  accepted.

Connections are persistent (HTTP/1.1 keep-alive): one handler thread
serves every request a client sends on its connection, with Nagle's
algorithm off so a response's two writes leave at once instead of the
second waiting on the client's delayed ACK.  A connection idle for
``IDLE_TIMEOUT_S`` is closed.  A request carrying ``Transfer-Encoding``
is refused with 411 and the connection closed, since the daemon reads
bodies by ``Content-Length`` only.

Shutdown is graceful: SIGTERM/SIGINT stop the HTTP loop, drain-stop the
scheduler, and terminate-and-join any in-flight corpus worker pools via
``concurrency.parallel.shutdown_active_pools`` -- the same handler that
keeps Ctrl-C from leaking exploration children at the CLI.  A request
that arrives on a kept-alive connection once shutdown has begun is
answered 503 and its connection closed.
"""

from __future__ import annotations

import collections
import json
import queue
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from ..concurrency.parallel import check_job_budget, shutdown_active_pools
from ..isa.assembler import AssemblerError
from ..litmus.parser import LitmusSyntaxError
from .cache import SCHEMA_VERSION, VerdictCache
from .engine import EngineRequest, EnvelopeEngine, _is_int

#: Default bind address of the service.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

#: Largest request body the daemon reads; longer ones get 413 unread.
MAX_BODY_BYTES = 1 << 20

#: Seconds a connection may wait for its next request (or stall inside
#: one) before the daemon closes it, so a client that goes quiet cannot
#: pin a handler thread forever.
IDLE_TIMEOUT_S = 60

#: Finished (done or failed) jobs kept for polling.  Past this the oldest
#: finished job is dropped and its id answers 404; queued and running
#: jobs are never dropped.
MAX_FINISHED_JOBS = 1024

#: Exceptions that mean the request itself is malformed (HTTP 400): a
#: missing field or bad option, unparsable litmus source, an unknown
#: mnemonic.  Anything else is the daemon's fault (HTTP 500).
INPUT_ERRORS = (
    KeyError, ValueError, TypeError, LitmusSyntaxError, AssemblerError,
)

#: Largest generated suite one job may ask for.  The suite is generated
#: inside the request handler, so ``size`` bounds that handler's time
#: and memory (2,000 six-thread tests took ~0.7 s on a 2-CPU container);
#: a 1 MiB ``tests`` body holds about 1,600 such tests.
MAX_GEN_SIZE = 2000

#: A ``gen`` job spec's fields: default, range check and the rule a
#: value must meet.  The thread and run caps are the ranges ``ppcmem2
#: gen`` validates against the solver-backed oracle; they also bound the
#: generator's work per sample, which grows with ``max_threads``.
GEN_FIELDS = {
    "seed": (0, lambda v: True, "an integer"),
    "size": (
        20,
        lambda v: 1 <= v <= MAX_GEN_SIZE,
        f"an integer from 1 to {MAX_GEN_SIZE}",
    ),
    "max_threads": (4, lambda v: 2 <= v <= 6, "an integer from 2 to 6"),
    "max_run": (2, lambda v: 1 <= v <= 4, "an integer from 1 to 4"),
}


def _gen_spec(gen: Any) -> Dict[str, int]:
    """A checked ``gen`` spec with defaults filled in (``ValueError``)."""
    if not isinstance(gen, dict):
        raise ValueError(f"'gen' must be an object, got {type(gen).__name__}")
    unknown = set(gen) - set(GEN_FIELDS)
    if unknown:
        raise ValueError(f"unknown gen fields: {sorted(unknown)}")
    spec = {}
    for name, (default, in_range, rule) in GEN_FIELDS.items():
        value = gen.get(name, default)
        if not (_is_int(value) and in_range(value)):
            raise ValueError(f"gen {name!r} must be {rule}, got {value!r}")
        spec[name] = value
    return spec


@dataclass
class Job:
    """One submitted batch and its lifecycle."""

    id: str
    state: str = "queued"  # queued | running | done | failed
    submitted: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    test_count: int = 0
    requests: List[EngineRequest] = field(default_factory=list)
    verdicts: List[dict] = field(default_factory=list)
    hits: int = 0
    misses: int = 0
    jobs_used: int = 0
    error: Optional[str] = None

    def summary(self) -> Dict[str, Any]:
        info: Dict[str, Any] = {
            "job": self.id,
            "state": self.state,
            "tests": self.test_count,
        }
        if self.state in ("done", "failed"):
            info["seconds"] = round(
                (self.finished or 0.0) - (self.started or 0.0), 6
            )
            info["cache_hits"] = self.hits
            info["cache_misses"] = self.misses
            info["workers"] = self.jobs_used
        if self.error:
            info["error"] = self.error
        return info


class ServiceDaemon:
    """Engine + cache + job queue behind an HTTP front-end."""

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        cache_path: str = ":memory:",
        jobs: Optional[int] = None,
    ):
        if jobs is not None:
            # Refuse a bad budget now, not on every job that misses.
            check_job_budget(jobs)
        self.cache = VerdictCache(cache_path)
        self.engine = EnvelopeEngine(cache=self.cache)
        self.worker_budget = jobs
        self._jobs: Dict[str, Job] = {}
        #: Ids of finished jobs still in ``_jobs``, oldest first.
        self._finished: "collections.deque[str]" = collections.deque()
        self._jobs_lock = threading.Lock()
        self._queue: "queue.Queue[str]" = queue.Queue()
        self._job_counter = 0
        self._stop = threading.Event()
        self._stop_lock = threading.Lock()
        #: Set once ``shutdown`` has finished (a repeat call waits on it).
        self._stopped = threading.Event()
        self._scheduler: Optional[threading.Thread] = None
        self._server = _Server((host, port), _Handler)
        self._server.daemon_ref = self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self):
        """The bound (host, port) -- port is resolved when 0 was asked."""
        return self._server.server_address[:2]

    @property
    def stopping(self) -> bool:
        """True once ``shutdown`` has begun."""
        return self._stop.is_set()

    def start_scheduler(self) -> None:
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="ppcmem2-scheduler", daemon=True
        )
        self._scheduler.start()

    def serve_forever(self, install_signal_handlers: bool = True) -> None:
        """Run until SIGTERM/SIGINT (blocking; the CLI entry point)."""
        if install_signal_handlers:
            # The handler must not call the blocking ``shutdown`` from
            # the thread running ``serve_forever`` (it would deadlock),
            # so it hands off to a one-shot thread.
            def _on_signal(signum, frame):
                threading.Thread(target=self.shutdown, daemon=True).start()

            signal.signal(signal.SIGTERM, _on_signal)
            signal.signal(signal.SIGINT, _on_signal)
        self.start_scheduler()
        try:
            self._server.serve_forever(poll_interval=0.1)
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop the HTTP loop, the scheduler, and any worker children.

        Safe whether or not the HTTP loop ever ran; a repeat call returns
        once the first has finished.
        """
        with self._stop_lock:
            first = not self._stop.is_set()
            self._stop.set()
        if not first:
            self._stopped.wait()
            return
        try:
            self._server.stop()
            if self._scheduler is not None and self._scheduler.is_alive():
                self._scheduler.join(timeout=10)
            shutdown_active_pools()
            self.cache.close()
        finally:
            self._stopped.set()

    # ------------------------------------------------------------------
    # Job queue
    # ------------------------------------------------------------------

    def submit(self, body: Dict[str, Any]) -> Job:
        """Queue a batch from a decoded ``POST /v1/jobs`` body."""
        requests = self._requests_from_body(body)
        if not requests:
            raise ValueError("empty job: no tests and no gen spec")
        with self._jobs_lock:
            self._job_counter += 1
            job = Job(
                id=f"job-{self._job_counter}",
                submitted=time.time(),
                test_count=len(requests),
                requests=requests,
            )
            self._jobs[job.id] = job
        self._queue.put(job.id)
        return job

    def _requests_from_body(self, body: Dict[str, Any]) -> List[EngineRequest]:
        """Every request of a job body, checked before anything is queued."""
        options = body.get("options") or {}
        tests = body.get("tests") or []
        if not isinstance(tests, list) or not all(
            isinstance(item, dict) for item in tests
        ):
            raise ValueError("'tests' must be a list of objects")
        requests: List[EngineRequest] = []
        for item in tests:
            requests.append(
                EngineRequest.from_options(
                    source=item["source"],
                    name=item.get("name"),
                    options=options,
                )
            )
        gen = body.get("gen")
        if gen is not None:
            from ..litmus.diy import generate

            spec = _gen_spec(gen)
            try:
                generated = generate(**spec)
            except RuntimeError as exc:
                # The caps admit fewer distinct shapes than ``size``.
                raise ValueError(str(exc)) from None
            for test in generated:
                requests.append(
                    EngineRequest.from_options(
                        source=test.source, name=test.name, options=options
                    )
                )
        return requests

    def job(self, job_id: str) -> Optional[Job]:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def job_counts(self) -> Dict[str, int]:
        with self._jobs_lock:
            counts: Dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def _scheduler_loop(self) -> None:
        while not self._stop.is_set():
            try:
                job_id = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            job = self.job(job_id)
            if job is None:  # pragma: no cover - queued jobs are kept
                continue
            job.state = "running"
            job.started = time.time()
            try:
                batch = self.engine.run_batch(
                    job.requests, jobs=self.worker_budget
                )
            except Exception as exc:  # noqa: BLE001 - reported to the client
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                job.finished = time.time()
                self._retire(job)
                continue
            job.verdicts = [
                dict(verdict.to_payload(), cached=verdict.cached)
                for verdict in batch.verdicts
            ]
            job.hits = batch.hits
            job.misses = batch.misses
            job.jobs_used = batch.jobs
            job.state = "done"
            job.finished = time.time()
            self._retire(job)

    def _retire(self, job: Job) -> None:
        """Record ``job`` as finished, dropping the oldest finished jobs
        beyond ``MAX_FINISHED_JOBS``."""
        with self._jobs_lock:
            self._finished.append(job.id)
            while len(self._finished) > MAX_FINISHED_JOBS:
                del self._jobs[self._finished.popleft()]

    # ------------------------------------------------------------------
    # Synchronous query
    # ------------------------------------------------------------------

    def query(self, body: Dict[str, Any]) -> Dict[str, Any]:
        request = EngineRequest.from_options(
            source=body["source"],
            name=body.get("name"),
            options=body.get("options") or {},
        )
        verdict = self.engine.run_request(request)
        return dict(verdict.to_payload(), cached=verdict.cached)

    def stats(self) -> Dict[str, Any]:
        return {
            "cache": self.cache.stats(),
            "jobs": self.job_counts(),
            "queue_depth": self._queue.qsize(),
            "worker_budget": self.worker_budget,
            "connections": self._server.connections,
        }


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    daemon_ref: Optional[ServiceDaemon] = None

    def __init__(self, address, handler):
        super().__init__(address, handler)
        #: TCP connections accepted since start.
        self.connections = 0
        self._loop_lock = threading.Lock()
        self._loop_running = False
        self._closing = False

    def process_request(self, request, client_address):
        # Called on the loop's thread only, one accepted connection each.
        self.connections += 1
        super().process_request(request, client_address)

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        with self._loop_lock:
            if self._closing:
                return
            self._loop_running = True
        try:
            super().serve_forever(poll_interval)
        finally:
            with self._loop_lock:
                self._loop_running = False

    def stop(self) -> None:
        """Stop the loop if it is running, then close the listening socket.

        ``shutdown`` alone waits for ``serve_forever`` to acknowledge it,
        forever when the loop never ran.  Handler threads of kept-alive
        connections are left to answer 503 (see ``_Handler``).
        """
        with self._loop_lock:
            self._closing = True
            running = self._loop_running
        if running:
            self.shutdown()
        self.server_close()


class _BadLength(Exception):
    """A ``Content-Length`` the handler refuses to read (HTTP ``status``)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # A response goes out as two writes (headers, body).  With Nagle's
    # algorithm on, the second waits for the client's delayed ACK of the
    # first on a kept-alive connection: ~40 ms per request.
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S

    # Quiet by default: the daemon logs submissions, not every poll.
    # (This also keeps an idle connection's timeout out of stderr.)
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    @property
    def daemon(self) -> ServiceDaemon:
        return self.server.daemon_ref  # type: ignore[attr-defined]

    def _send(
        self, code: int, payload: Dict[str, Any], close: bool = False
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            # Also makes the handler close the connection afterwards.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Dict[str, Any]:
        """The JSON request body, read only after its length is checked.

        ``rfile.read`` trusts its argument: a negative length reads to
        EOF, which on a kept-alive connection never comes, and a huge
        one waits for bytes that may never be sent.
        """
        header = (self.headers.get("Content-Length") or "0").strip()
        if not (header.isascii() and header.isdigit()):
            raise _BadLength(400, f"bad Content-Length {header!r}")
        length = int(header)
        if length > MAX_BODY_BYTES:
            raise _BadLength(
                413, f"body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        raw = self.rfile.read(length) if length else b"{}"
        return json.loads(raw.decode("utf-8"))

    def _parts(self) -> List[str]:
        return [p for p in self.path.split("?")[0].split("/") if p]

    # ------------------------------------------------------------------

    def parse_request(self) -> bool:
        """Read the request line and headers, then refuse what is not served.

        Both refusals close the connection and leave any body unread:

        * once shutdown has begun, 503 -- the request never reaches the
          engine or the closed cache;
        * a ``Transfer-Encoding`` body, 411 -- bodies are read by
          ``Content-Length``, so its chunks would stay on the connection
          and be parsed as the next request.
        """
        if not super().parse_request():
            return False
        if self.daemon.stopping:
            self._send(503, {"error": "daemon shutting down"}, close=True)
            return False
        if "Transfer-Encoding" in self.headers:
            self._send(
                411,
                {"error": "Transfer-Encoding is not supported; "
                          "send a Content-Length"},
                close=True,
            )
            return False
        return True

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        try:
            code, payload = self._get()
        except Exception as exc:  # noqa: BLE001 - reported to the client
            code, payload = _internal_error(exc)
        self._send(code, payload)

    def _get(self) -> Tuple[int, Dict[str, Any]]:
        parts = self._parts()
        if parts == ["v1", "health"]:
            return 200, {
                "ok": True,
                "schema": SCHEMA_VERSION,
                "cache_entries": self.daemon.cache.entries(),
            }
        if parts == ["v1", "stats"]:
            return 200, self.daemon.stats()
        if len(parts) >= 3 and parts[:2] == ["v1", "jobs"]:
            job = self.daemon.job(parts[2])
            if job is None:
                return 404, {"error": f"no such job {parts[2]!r}"}
            if len(parts) == 3:
                return 200, job.summary()
            if parts[3] == "results":
                if job.state != "done":
                    return 409, dict(job.summary(), error="job not done")
                return 200, dict(job.summary(), verdicts=job.verdicts)
        return 404, {"error": f"unknown path {self.path!r}"}

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            body = self._read_body()
        except _BadLength as exc:
            # Close: the unread body would be parsed as the next request.
            self._send(exc.status, {"error": str(exc)}, close=True)
            return
        except (ValueError, json.JSONDecodeError) as exc:
            self._send(400, {"error": f"bad JSON body: {exc}"})
            return
        if not isinstance(body, dict):
            self._send(400, {
                "error": "request body must be a JSON object, got "
                f"{type(body).__name__}",
            })
            return
        try:
            code, payload = self._post(body)
        except INPUT_ERRORS as exc:
            code, payload = 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - reported to the client
            code, payload = _internal_error(exc)
        self._send(code, payload)

    def _post(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        parts = self._parts()
        if parts == ["v1", "jobs"]:
            return 202, self.daemon.submit(body).summary()
        if parts == ["v1", "query"]:
            return 200, self.daemon.query(body)
        return 404, {"error": f"unknown path {self.path!r}"}


def _internal_error(exc: Exception) -> Tuple[int, Dict[str, Any]]:
    """The 500 answer to an unexpected exception (traceback to stderr)."""
    traceback.print_exc(file=sys.stderr)
    return 500, {"error": f"{type(exc).__name__}: {exc}"}


def serve(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    cache_path: str = ":memory:",
    jobs: Optional[int] = None,
) -> int:
    """CLI entry point: run the daemon until SIGTERM/SIGINT."""
    daemon = ServiceDaemon(
        host=host, port=port, cache_path=cache_path, jobs=jobs
    )
    bound_host, bound_port = daemon.address
    print(
        f"ppcmem2 serve: listening on http://{bound_host}:{bound_port} "
        f"(cache {cache_path}, schema v{SCHEMA_VERSION})",
        flush=True,
    )
    daemon.serve_forever()
    print("ppcmem2 serve: shut down cleanly", flush=True)
    return 0
